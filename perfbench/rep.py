"""One rep of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload swarm-exact --seed 0 [--trace]

Prints one JSON object as its last line of output. ``setup_end`` is a
``time.perf_counter`` stamp taken when set-up finishes (on Linux that
clock is system-wide, so the parent subtracts its own launch stamp to
get ``setup_s``). The record adds the rep's host wall, CPU (this process plus
every reaped worker) and peak RSS, its output digest and checks, and,
when traced, its per-layer figures. ``--trace`` also writes every span
to ``.perfbench/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def layer_metrics(tracer, span_cost, wall_s: float, events: Dict[str, int],
                  counters: Dict[str, float]) -> Dict[str, float]:
    """The traced rep's per-layer figures (the parent adds the ones
    that need untraced reps: overhead, worker CPU and idle share)."""
    from perfbench.tracing import NAMED_LAYERS, layer_totals
    from repro.experiments.parallel import default_workers

    spans = tracer.by_name(span_cost)
    layers = layer_totals(spans)

    def total(*names: str) -> float:
        return sum(spans[name]["total_s"] for name in names if name in spans)

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def self_s(name: str) -> float:
        return max(0.0, spans[name]["self_s"]) if name in spans else 0.0

    cold = counters.get("serverless.cold_starts", 0)
    warm = counters.get("serverless.warm_starts", 0)
    serve_s = total("serverless.region:RegionGateway.serve")
    region_calls = tracer.counters.get("region.calls", 0)
    attributed = sum(layers[layer] for layer in NAMED_LAYERS)
    return {
        "sim.kernel.events": events["total"],
        "sim.kernel.self_s": layers["sim.kernel"],
        "sim.kernel.us_per_event": (layers["sim.kernel"] / events["driver"]
                                    * 1e6 if events["driver"] else 0.0),
        "sim.rng.self_s": layers["sim.rng"],
        "edge.self_s": layers["edge"],
        "edge.events": events["edge"],
        "network.self_s": layers["network"],
        "network.transfers": calls("network:Link.transfer"),
        "network.events": events["network"],
        "serverless.self_s": layers["serverless"],
        "serverless.invocations": calls("serverless:OpenWhiskPlatform.invoke"),
        "serverless.cold_starts": cold,
        "serverless.warm_hit_ratio": warm / (warm + cold) if warm + cold
        else 0.0,
        "serverless.respawns": counters.get("serverless.respawns", 0),
        "serverless.events": events["serverless"],
        "serverless.region.serve_s": serve_s,
        "serverless.region.calls": region_calls,
        "serverless.region.us_per_call": (serve_s / region_calls * 1e6
                                          if region_calls else 0.0),
        "serverless.region.cold_starts": counters.get(
            "serverless.region.cold_starts", 0),
        "serving.generate_s": total("serving:generate_serving_calls"),
        "serving.policy_s": total("serving:ServingPolicy.observe",
                                  "serving:ServingPolicy.admit",
                                  "serving:ServingPolicy.active_servers"),
        "serving.offered": counters.get("serving.offered", 0),
        "serving.shed_ratio": counters.get("serving.shed_ratio", 0.0),
        "serving.scale_outs": counters.get("serving.scale_outs", 0),
        "sim.shard.windows": tracer.counters.get("send:shard0:advance", 0),
        "sim.shard.worker_wait_s": self_s("sim.shard:wait"),
        "sim.shard.cloud_serve_s": tracer.inclusive_within(
            "serverless.region:RegionGateway.serve", "sim.shard:run_sharded"),
        "sim.shard.driver_self_s": self_s("sim.shard:run_sharded"),
        "sim.shard.pipe_mb": tracer.counters.get("pipe.bytes", 0) / 1e6,
        "platforms.self_s": layers["platforms"],
        "core.self_s": layers["core"],
        "learning.self_s": layers["learning"],
        "telemetry.self_s": layers["telemetry"],
        "obs.self_s": layers["obs"],
        "trace.unattributed_frac": max(0.0, wall_s - attributed) / wall_s,
        # Not reported: the parent needs these for the worker idle share
        # and the layer-exercise assertions.
        "workers": calls("sim.shard:BaseProcess.start"),
        "cores": default_workers(),
    }


def run_rep(name: str, seed: int, trace: bool = False,
            spans_out: str = "") -> Dict:
    """One rep in this process; returns the JSON-able record."""
    workload = workloads.WORKLOADS[name]()
    tracer = state = None
    if trace:
        from perfbench.tracing import Tracer
        tracer = Tracer().install()
    try:
        state = workload.setup(seed)
        record: Dict = {"setup_end": time.perf_counter()}
        counts = _event_counts() if trace else None
        if tracer is not None:
            tracer.reset()
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        output = workload.run(state)
        wall_s = time.perf_counter() - start
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        workload.release(state)
        if tracer is not None:
            tracer.uninstall()
            events = {key: after - counts[key]
                      for key, after in _event_counts().items()}
        children_cpu = _cpu(children_after) - _cpu(children_before)
        record.update({
            "wall_s": wall_s,
            "cpu_s": _cpu(self_after) - _cpu(self_before) + children_cpu,
            "children_cpu_s": children_cpu,
            "peak_rss_mb": max(self_after.ru_maxrss,
                               children_after.ru_maxrss) / 1024.0,
        })
        outcome = workload.check(state, output)
        record.update({
            "digest": workloads.digest(outcome.rows),
            "checks": outcome.checks,
            "ok": outcome.ok,
        })
        if tracer is not None:
            from perfbench.tracing import calibrate
            record["layers"] = layer_metrics(
                tracer, calibrate(), wall_s, events, outcome.counters)
            if spans_out:
                os.makedirs(os.path.dirname(spans_out), exist_ok=True)
                tracer.write(spans_out)
        return record
    finally:
        if state is not None:
            workload.release(state)
        if tracer is not None:
            tracer.uninstall()


def _event_counts() -> Dict[str, int]:
    """Kernel events dispatched, in this process and in total (workers
    ship theirs back), and the per-layer tagged counts."""
    from repro.experiments import parallel
    from repro.sim.kernel import events_consumed
    layers = parallel.total_layer_counts()
    return {"driver": events_consumed(),
            "total": parallel.total_events_consumed(),
            "edge": layers["edge"], "network": layers["network"],
            "serverless": layers["serverless"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spans_out = (str(ROOT / ".perfbench" / f"spans-{args.workload}.npz")
                 if args.trace else "")
    try:
        record = run_rep(args.workload, args.seed, trace=args.trace,
                         spans_out=spans_out)
    except Exception:  # reported to the parent as a failed rep
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
