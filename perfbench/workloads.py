"""The benchmark's three workloads.

Each rep is one batch simulation, a closed loop of one client: the
benchmark calls the program once and waits for the result. A workload
splits that rep into

- ``setup(seed)``: imports, building the runner or gateway, and the
  ledger hooks the output check needs (timed as ``setup_s``);
- ``run(state)``: the simulated work, from the first call into the
  program to its result (timed as ``wall_s``/``cpu_s``);
- ``check(state, output)``: the rows that feed the digest, the
  conservation checks, and the counters the traced run reports.

All time figures are *host* time. Simulated time is deterministic at a
fixed seed, so the rows a rep simulates are pinned as a digest (see
``pins.json``) and compared across reps.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["WORKLOADS", "Outcome", "digest"]


@dataclass
class Outcome:
    """What a rep's output check found."""

    rows: Dict[str, Any]
    #: (check name, passed, detail) per conservation check.
    checks: List[Tuple[str, bool, str]]
    #: Program-side counts the traced run reports.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def _exact(value: float) -> str:
    """Floats enter the digest as ``repr``, i.e. every bit."""
    return repr(float(value))


def _series_digest(values) -> str:
    sha = hashlib.sha256()
    for value in values:
        sha.update(_exact(value).encode())
        sha.update(b",")
    return sha.hexdigest()


def digest(rows: Dict[str, Any]) -> str:
    """sha256 of a rep's simulated rows."""
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()
                          ).hexdigest()


def _hook(owner, attr: str, make: Callable) -> Callable[[], None]:
    """Replace ``owner.attr`` with ``make(original)``; returns undo."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    return lambda: setattr(owner, attr, original)


class _Workload:
    """Hooks installed by ``setup`` come off in ``release``."""

    def release(self, state) -> None:
        undo = state.get("undo")
        if undo is not None:
            undo()


def _result_rows(result) -> Dict[str, Any]:
    bandwidth_mean, bandwidth_p99 = result.bandwidth_summary()
    return {
        "makespan_s": _exact(result.extras["makespan_s"]),
        "tasks": len(result.task_latencies.values),
        "task_latencies": _series_digest(result.task_latencies.values),
        "bandwidth_mbs": [_exact(bandwidth_mean), _exact(bandwidth_p99)],
        "cold_starts": result.extras.get("cold_starts"),
        "persisted_documents": result.extras.get("persisted_documents"),
    }


# -- swarm-exact ----------------------------------------------------------

class SwarmExact(_Workload):
    """The paper's system on the exact path: one kernel, hivemind
    platform, Scenario A."""

    name = "swarm-exact"
    DEVICES = 256

    def setup(self, seed: int):
        from repro.apps import SCENARIO_A
        from repro.edge.engine import SwarmEngine
        from repro.platforms import platform_config
        from repro.platforms.scenario_runner import ScenarioRunner

        runner = ScenarioRunner(platform_config("hivemind"), SCENARIO_A,
                                seed=seed, n_devices=self.DEVICES)
        runner.start()
        ledger = {"batches": 0}

        def credit(event):
            ledger["batches"] += event._value

        def make(fly_route):
            def counted(engine, *args, **kwargs):
                event = fly_route(engine, *args, **kwargs)
                event.callbacks.append(credit)
                return event
            return counted

        # Tasks submitted = frame batches the flights captured (the
        # engine's route events succeed with their batch count).
        undo = _hook(SwarmEngine, "fly_route", make)
        return {"runner": runner, "ledger": ledger, "undo": undo}

    def run(self, state):
        runner = state["runner"]
        runner.advance_to(math.inf)
        return runner.finish()

    def check(self, state, result) -> Outcome:
        submitted = state["ledger"]["batches"]
        completed = len(result.task_latencies.values)
        rows = _result_rows(result)
        rows["items_found"] = result.extras.get("items_found")
        platform = state["runner"]._st["platform"]
        cold, warm = platform.cold_starts, platform.warm_starts
        return Outcome(rows=rows, checks=[
            ("every task completes exactly once",
             submitted == completed == len(result.breakdowns),
             f"{submitted} submitted, {completed} latencies, "
             f"{len(result.breakdowns)} breakdowns"),
            ("no device failed", not result.extras["failed_devices"]
             and result.completed,
             f"failed {result.extras['failed_devices']}"),
        ], counters={
            "serverless.cold_starts": cold,
            "serverless.warm_starts": warm,
            "serverless.respawns": platform.respawns,
        })


# -- fleet-sharded --------------------------------------------------------

class FleetSharded(_Workload):
    """Cells over edge worker processes, regional cloud in the driver."""

    name = "fleet-sharded"
    #: No more edge worker processes than a 2-core host has cores; one
    #: cloud worker group, which the program runs inside the driver.
    SHARDS, CLOUD_SHARDS = 2, 1
    DEVICES = 1024

    def setup(self, seed: int):
        from repro.apps import SCENARIO_B
        from repro.platforms import platform_config
        from repro.serverless.region import RegionGateway
        from repro.sim import shard

        ledger = {"issued": [], "completions": []}

        def make_collect(collect_advance):
            def counted(handle, until):
                fresh, status = collect_advance(handle, until)
                ledger["issued"].extend(
                    (call.cell, call.seq) for call in fresh)
                return fresh, status
            return counted

        def make_serve(serve):
            def counted(gateway, calls):
                out = serve(gateway, calls)
                ledger["completions"].extend(
                    (cell, seq) for cell, seq, _, _ in out)
                return out
            return counted

        # Cloud calls issued = calls the cells hand the driver at each
        # barrier; completed = completion tuples the regions return.
        undos = [_hook(shard._Shard, "collect_advance", make_collect),
                 _hook(RegionGateway, "serve", make_serve)]

        def undo():
            for step in undos:
                step()

        return {"shard": shard, "config": platform_config("hivemind"),
                "scenario": SCENARIO_B, "seed": seed, "ledger": ledger,
                "undo": undo}

    def run(self, state):
        return state["shard"].run_sharded(
            state["config"], state["scenario"], self.DEVICES,
            seed=state["seed"], shards=self.SHARDS,
            cloud_shards=self.CLOUD_SHARDS)

    def check(self, state, result) -> Outcome:
        ledger = state["ledger"]
        issued, keys = ledger["issued"], ledger["completions"]
        extras = result.extras
        rows = _result_rows(result)
        rows.update({
            "unique_people": extras.get("unique_people"),
            "cloud_completions": extras["cloud_completions"],
            "warm_starts": extras["warm_starts"],
            "duplicate_launches": extras["duplicate_launches"],
            "cloud_makespan_s": _exact(extras["cloud_makespan_s"]),
        })
        return Outcome(rows=rows, checks=[
            ("every cloud call issued is completed once",
             0 < len(issued) == len(set(issued)) == len(keys)
             == extras["cloud_completions"] and set(issued) == set(keys),
             f"{len(issued)} issued ({len(set(issued))} distinct), "
             f"{len(keys)} completions ({len(set(keys))} distinct), "
             f"{extras['cloud_completions']} reported"),
            ("no device failed", not extras["failed_devices"]
             and result.completed, f"failed {extras['failed_devices']}"),
        ], counters={
            "serverless.region.cold_starts": extras["cold_starts"],
        })


# -- serving-openloop -----------------------------------------------------

class ServingOpenLoop(_Workload):
    """Open-loop tenants against one full-size regional gateway."""

    name = "serving-openloop"

    #: The region starts on ``MIN_SERVERS`` of its 12 servers. The
    #: steady tenant sits at half that pool's capacity and each flash
    #: crowd adds a full pool's worth, so every burst crosses the knee:
    #: the gate sheds and the autoscaler scales out.
    MIN_SERVERS = 4
    STEADY_SHARE = 0.5
    BURST_SHARE = 1.0
    BURST_MULT = 8.0
    ON_S, OFF_S = 10.0, 30.0
    #: Simulated seconds of traffic.
    DURATION_S = 150.0

    def setup(self, seed: int):
        from repro.apps import SCENARIO_A
        from repro.config import DEFAULT
        from repro.platforms import platform_config
        from repro.serverless.region import RegionGateway
        from repro.serving import (AutoscaleConfig, ServingConfig,
                                   ServingPolicy, TenantSpec, load)

        app = SCENARIO_A.recognition
        mean_service_s = (app.cloud_service_s
                          * math.exp(app.service_sigma ** 2 / 2.0))
        servers = DEFAULT.cluster.servers
        cores = DEFAULT.cluster.cores_per_server
        pool_rps = self.MIN_SERVERS * cores / mean_service_s
        burst_rps = self.BURST_SHARE * pool_rps
        cycle = self.ON_S + self.OFF_S
        tenants = (
            TenantSpec(name="steady", kind="poisson",
                       rate_rps=self.STEADY_SHARE * pool_rps),
            TenantSpec(name="flash", kind="onoff",
                       rate_rps=burst_rps * (self.OFF_S / self.BURST_MULT
                                             + self.ON_S) / cycle,
                       burst_mult=self.BURST_MULT, on_s=self.ON_S,
                       off_s=self.OFF_S),
        )
        config = ServingConfig(
            tenants=tenants, duration_s=self.DURATION_S,
            autoscale=AutoscaleConfig(min_servers=self.MIN_SERVERS))
        policy = ServingPolicy(config, n_servers=servers,
                               cores_per_server=cores)
        gateway = RegionGateway(
            platform_config("hivemind"), SCENARIO_A, DEFAULT, region=0,
            n_regions=1, region_devices=64, total_devices=64, seed=seed,
            serving=policy)
        return {"load": load, "tenants": tenants, "seed": seed,
                "scenario": SCENARIO_A, "policy": policy,
                "gateway": gateway}

    def run(self, state):
        calls, truncated = state["load"].generate_serving_calls(
            state["tenants"], self.DURATION_S, state["seed"],
            state["scenario"], n_regions=1)
        return calls, truncated, state["gateway"].serve(calls)

    def check(self, state, output) -> Outcome:
        calls, truncated, completions = output
        gateway, stats = state["gateway"], state["policy"].stats()
        admission, autoscale = stats["admission"], stats["autoscale"]
        offered, served, shed = (len(calls), len(completions),
                                 gateway.shed_calls)
        sha = hashlib.sha256()
        for cell, seq, done_s, _ in completions:
            sha.update(f"{cell},{seq},{_exact(done_s)};".encode())
        rows = {
            "offered": offered, "served": served, "shed": shed,
            "ledgers": {key: admission[key]
                        for key in ("offered", "admitted", "shed")},
            "scale_events": autoscale["events"],
            "completions": sha.hexdigest(),
            "cold_starts": gateway.cold_starts,
            "truncated": list(truncated),
        }
        ledger_offered = sum(admission["offered"].values())
        ledger_shed = sum(admission["shed"].values())
        return Outcome(rows=rows, checks=[
            ("offered = served + shed", offered == served + shed,
             f"{offered} offered, {served} served, {shed} shed"),
            ("admission ledgers agree",
             ledger_offered == offered and ledger_shed == shed,
             f"ledger offered {ledger_offered}, shed {ledger_shed}"),
            ("no tenant stream truncated", not truncated,
             f"truncated {list(truncated)}"),
        ], counters={
            "serverless.region.cold_starts": gateway.cold_starts,
            "serving.offered": offered,
            "serving.shed_ratio": shed / offered if offered else 0.0,
            "serving.scale_outs": autoscale["scale_outs"],
        })


WORKLOADS = {workload.name: workload
             for workload in (SwarmExact, FleetSharded, ServingOpenLoop)}
