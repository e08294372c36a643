"""Tests for the benchmark itself (run with ``python3 -m pytest
perfbench/tests`` from the repository root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.rep import run_rep  # noqa: E402

#: Sizes that shrink each workload so one rep takes about a second.
SMALL = (
    (workloads.SwarmExact, "DEVICES", 16),
    (workloads.FleetSharded, "DEVICES", 128),
    (workloads.ServingOpenLoop, "DURATION_S", 45.0),
)


def _declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.fixture(scope="module")
def small_reps():
    """One untraced and one traced rep of every shrunk workload, as the
    runner records them (``launch`` adds the kind and set-up time)."""
    reps = {}
    with pytest.MonkeyPatch.context() as patch:
        for owner, size, value in SMALL:
            patch.setattr(owner, size, value)
        for name in workloads.WORKLOADS:
            reps[name] = [dict(run_rep(name, 0, trace=trace), kind=kind,
                               setup_s=0.4)
                          for trace, kind in ((False, "full"),
                                              (True, "traced"))]
    return reps


def test_traced_and_untraced_digests_match(small_reps):
    for name, (untraced, traced) in small_reps.items():
        assert untraced["ok"] and traced["ok"], name
        assert untraced["digest"] == traced["digest"], name
        assert "layers" in traced and "layers" not in untraced


def test_each_workload_exercises_its_layers(small_reps):
    for name, (_, traced) in small_reps.items():
        assert run.layer_failures(name, traced["layers"]) == [], name
    serving = dict(small_reps["serving-openloop"][1]["layers"])
    serving["edge.self_s"] = 0.5
    assert run.layer_failures("serving-openloop", serving)
    swarm = dict(small_reps["swarm-exact"][1]["layers"])
    swarm["serverless.region.calls"] = 3
    assert run.layer_failures("swarm-exact", swarm)


def test_digest_differing_from_pin_is_failed_not_fast(small_reps):
    untraced, traced = small_reps["serving-openloop"]
    honest = dict(untraced)
    wrong = dict(untraced, wall_s=untraced["wall_s"] / 100,
                 digest="0" * 64)
    records = run.judge([honest, wrong], pin=honest["digest"])
    assert records[0]["passed"] and not records[1]["passed"]
    assert "digest" in records[1]["failure"]
    # The fast rep's timing never reaches the metrics.
    assert run.end_to_end(records)["wall_s"] == honest["wall_s"]
    alone = run.judge([dict(wrong)], pin=honest["digest"])
    assert run.end_to_end(alone) == {}
    # Without a pin, the rep that disagrees with the others fails.
    records = run.judge([dict(honest), dict(honest), dict(wrong)], pin=None)
    assert [record["passed"] for record in records] == [True, True, False]
    metrics = run.per_layer(run.judge([dict(honest), dict(traced),
                                       dict(wrong)], pin=None))
    assert metrics["failed_frac"] == pytest.approx(1 / 3)


def test_failed_conservation_check_is_failed(small_reps):
    record = dict(small_reps["swarm-exact"][0])
    record["checks"] = [("every task completes exactly once", False,
                         "10 submitted, 9 latencies")]
    (judged,) = run.judge([record], pin=record["digest"])
    assert not judged["passed"] and "exactly once" in judged["failure"]


def test_metric_builders_cover_benchmark_json(small_reps):
    end_to_end, per_layer = _declared()
    for name, (untraced, traced) in small_reps.items():
        records = run.judge([dict(untraced)], pin=None)
        assert set(run.end_to_end(records)) == set(end_to_end), name
        records = run.judge([dict(untraced), dict(traced)], pin=None)
        assert set(run.per_layer(records)) == set(per_layer), name


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_exactly_the_declared_metrics(trace):
    end_to_end, per_layer = _declared()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "serving-openloop", "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = per_layer if trace else end_to_end
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == declared


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swarm-exact",
         "--seed", "0", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode not in (0, None)
    assert '"metrics"' not in done.stdout


def test_fleet_call_lost_by_the_driver_fails_conservation(monkeypatch):
    """A call the cells issued that never reaches a region fails the
    check, even though the regions' own counts still agree."""
    from repro.sim import shard

    monkeypatch.setattr(workloads.FleetSharded, "DEVICES", 128)
    original = shard._Shard.collect_advance
    workload = workloads.FleetSharded()
    state = workload.setup(0)
    counted = shard._Shard.collect_advance
    dropped = []

    def lossy(handle, until):
        fresh, status = counted(handle, until)
        if fresh and not dropped:
            dropped.append(fresh.pop())
        return fresh, status

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shard._Shard, "collect_advance", lossy)
            result = workload.run(state)
        outcome = workload.check(state, result)
    finally:
        workload.release(state)
    assert shard._Shard.collect_advance is original
    assert dropped
    (name, passed, detail), = [check for check in outcome.checks
                               if "cloud call" in check[0]]
    assert not passed, detail
