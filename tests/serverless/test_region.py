"""Golden pins for the regional cloud tier (:class:`RegionGateway`).

Each pin is a sha256 over the ``serve`` completion tuples (every float
through ``repr``) and ``stats()`` of one small call stream. The three
streams reach the pricing paths a placement can take:

- serving traffic with admission and autoscaling armed, where a
  scale-out fires (placement sees a growing active prefix);
- swarm traffic with straggler mitigation, where duplicate wins strike
  a server onto probation (placement filters unhealthy servers);
- a ``server_crash`` fault plan (probation from the first call on).

A change to the tier that is meant to keep rows byte-identical must
leave all three digests unchanged.
"""

import dataclasses
import hashlib
import heapq
from bisect import insort

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SCENARIO_A, SCENARIO_B
from repro.config import DEFAULT
from repro.faults import FaultPlan
from repro.platforms import platform_config
from repro.serverless.region import RegionGateway
from repro.serving import (AutoscaleConfig, ServingConfig, ServingPolicy,
                           TenantSpec, generate_serving_calls)
from repro.sim.shard import CloudCall

SERVERS = 3
CORES = 4


def _constants():
    return dataclasses.replace(DEFAULT, cluster=dataclasses.replace(
        DEFAULT.cluster, servers=SERVERS, cores_per_server=CORES))


def _gateway(scenario, seed, serving=None):
    return RegionGateway(
        platform_config("hivemind"), scenario, _constants(), region=0,
        n_regions=1, region_devices=64, total_devices=64, seed=seed,
        serving=serving)


def _swarm_calls(n, rate_rps, seed):
    """A Poisson stream of exact Scenario B calls (recognition, then a
    colocatable dedup) with heavy-tailed service draws, so the
    straggler watchdog fires."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
    recognition = rng.lognormal(np.log(0.4), 0.9, size=n)
    dedup = rng.lognormal(np.log(0.1), 0.5, size=n)
    return [CloudCall(cell=i % 4, seq=i, device_id=f"d{i % 16}",
                      arrival_s=float(arrivals[i]),
                      recognition_s=float(recognition[i]),
                      dedup_s=float(dedup[i]),
                      input_mb=0.5, output_mb=0.2)
            for i in range(n)]


def _digest(completions, stats) -> str:
    sha = hashlib.sha256()
    for cell, seq, done_s, breakdown in completions:
        sha.update(repr((cell, seq, done_s,
                         sorted(breakdown.items()))).encode())
    sha.update(repr(stats).encode())
    return sha.hexdigest()


class TestRegionGoldenPins:
    def test_serving_stream_with_scale_out(self):
        tenants = (
            TenantSpec(name="steady", kind="poisson", rate_rps=8.0),
            TenantSpec(name="flash", kind="onoff", rate_rps=10.0,
                       burst_mult=8.0, on_s=5.0, off_s=15.0),
        )
        config = ServingConfig(tenants=tenants, duration_s=40.0,
                               autoscale=AutoscaleConfig(min_servers=1))
        policy = ServingPolicy(config, n_servers=SERVERS,
                               cores_per_server=CORES)
        gateway = _gateway(SCENARIO_A, seed=3, serving=policy)
        calls, truncated = generate_serving_calls(
            tenants, 40.0, 3, SCENARIO_A, n_regions=1)
        completions = gateway.serve(calls)
        stats = gateway.stats()
        assert not truncated
        assert stats["serving"]["autoscale"]["scale_outs"] > 0
        assert gateway.shed_calls > 0
        assert _digest(completions, stats) == (
            "7ed5dcef9b1f97728073511b28c51f12b9e931c7"
            "3ca4a2d5162d92cd629a1e1f")

    def test_swarm_stream_with_probation(self):
        gateway = _gateway(SCENARIO_B, seed=9)
        completions = gateway.serve(
            _swarm_calls(600, rate_rps=8.0, seed=9))
        stats = gateway.stats()
        assert stats["duplicate_launches"] > 0
        assert max(gateway._probation_until) > 0.0
        assert _digest(completions, stats) == (
            "7e91d24bc230cac46d511d7db95ab6aa39359b66"
            "4b792bc445d283ef763c37a5")

    def test_server_crash_plan(self):
        gateway = _gateway(SCENARIO_B, seed=7)
        gateway.apply_fault_plan(FaultPlan(name="crash")
                                 .server_crash(2.0, "server0", reboot_s=6.0)
                                 .server_crash(4.0, "server2"))
        completions = gateway.serve(
            _swarm_calls(300, rate_rps=10.0, seed=7))
        stats = gateway.stats()
        assert stats["injected_faults"] == 2
        assert _digest(completions, stats) == (
            "959bd7df11d950b57ac781d15146fc335759cf7e"
            "ae9979b20eaca8dcd9c19634")


#: A pool operation: ``("take", t, hold_s)`` grants the earliest-free
#: core at ``t`` and frees it ``hold_s`` after the grant; ``("query",
#: t)`` reads the utilization at ``t``. Times are not monotone.
_times = st.floats(0.0, 50.0, allow_nan=False)
_ops = st.lists(st.one_of(
    st.tuples(st.just("take"), _times, st.floats(0.0, 10.0)),
    st.tuples(st.just("query"), _times)), max_size=60)


class TestCorePoolCounts:
    """The sorted core lists against a brute-force count over a
    min-heap mirror of the same pool."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_ops)
    def test_counts_match_brute_force(self, ops):
        gateway = _gateway(SCENARIO_A, seed=0)
        heap = [0.0] * CORES
        for op in ops:
            if op[0] == "take":
                _, t, hold_s = op
                grant, busy = gateway._grant_core(1, t)
                assert grant == max(heapq.heappop(heap), t)
                assert busy == 1 + sum(1 for x in heap if x > grant)
                insort(gateway._core_free[1], grant + hold_s)
                heapq.heappush(heap, grant + hold_s)
            else:
                _, t = op
                assert gateway._utilization(1, t) == (
                    sum(1 for x in heap if x > t) / CORES)
        assert gateway._core_free[1] == sorted(heap)
