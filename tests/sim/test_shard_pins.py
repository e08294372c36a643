"""Golden pins for merged sharded rows, breakdowns included.

``result_bytes`` in :mod:`tests.sim.test_shard_determinism` compares
latencies, meter events and a few counters across groupings, but not the
per-task latency breakdowns, which the merge builds by joining each
deferred call's edge half (shipped back by the cell workers) with its
cloud half (priced by the cloud tier). Each pin here is a sha256 over
the ``repr`` of every merged observable of one small run:

- task latencies and their start times;
- every merged breakdown record, component by component;
- every device's energy ledger;
- the wireless meter events;
- ``cloud_completions``.

The window is short (5 s against a 56 s mission), so the barrier loop
runs many windows and every call crosses the edge/cloud join. Rows do
not depend on the shard count, so both shard counts share one pin per
cloud tier. A change that is meant to keep rows byte-identical must
leave both digests unchanged.
"""

import hashlib

import pytest

from repro.apps import SCENARIO_B
from repro.platforms import platform_config
from repro.telemetry.breakdown import COMPONENTS
from repro.sim.shard import run_sharded

N_DEVICES = 16
CELL_DEVICES = 4
WINDOW_S = 5.0
REGION_DEVICES = 8

#: cloud_shards -> digest. 0 is the monolithic CloudGateway, 1 the
#: regional tier (two regions in one in-process worker group).
PINS = {
    0: "32435338ee7ff8019c2e5649986adeeab60a362de8097638b506d6f5d4583551",
    1: "0b70811a599eb2220e0f1a042260ab94dffc71a1f39b0670d2555f6cc326f131",
}


def merged_digest(result) -> str:
    """sha256 of every merged observable (floats through ``repr``)."""
    sha = hashlib.sha256()

    def put(value):
        sha.update(repr(value).encode())
        sha.update(b";")

    put(result.task_latencies.values.tolist())
    put(result.task_latencies.times.tolist())
    for record in result.breakdowns._records:
        put(tuple(float(getattr(record, name)) for name in COMPONENTS))
    for account in result.energy_accounts:
        put((account.device, account.capacity_wh,
             sorted((category, float(wh))
                    for category, wh in account.by_category().items())))
    put([(float(time), float(mb))
         for time, mb in result.wireless_meter.events])
    put(result.extras["cloud_completions"])
    return sha.hexdigest()


def _run(shards, cloud_shards):
    options = dict(seed=0, shards=shards, cell_devices=CELL_DEVICES,
                   window_s=WINDOW_S, cloud_shards=cloud_shards)
    if cloud_shards:
        options["region_devices"] = REGION_DEVICES
    return run_sharded(platform_config("hivemind"), SCENARIO_B,
                       N_DEVICES, **options)


class TestShardGoldenPins:
    @pytest.mark.parametrize("cloud_shards", [0, 1])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_merged_rows_match_pin(self, shards, cloud_shards):
        result = _run(shards, cloud_shards)
        # Every deferred row joined both halves: one breakdown per task.
        assert len(result.breakdowns) == len(result.task_latencies)
        assert merged_digest(result) == PINS[cloud_shards], (
            f"rows moved at shards={shards}, cloud_shards={cloud_shards}")
