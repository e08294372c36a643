"""The simulator benchmark: one workload, many reps, one JSON result.

    python3 perfbench/run.py --workload swarm-exact --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a source checkout (it simulates ``src/repro``).
Every rep is a fresh interpreter (``perfbench/rep.py``) running one
batch simulation, and reps start until ``--seconds`` have passed (at
least :data:`MIN_REPS`). Every figure is *host* time, memory or a count;
simulated results are the output check.

``--trace 0`` reports the end-to-end metrics, medians over untraced
reps: ``wall_s`` (first call into the program to its result), ``cpu_s``
(that window's CPU, the driver plus every reaped worker process),
``setup_s`` (interpreter launch to the first simulated call) and
``peak_rss_mb`` (the largest process, driver or worker).

``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics of the traced ones (see ``perfbench/tracing.py``),
the tracing overhead, and the worker CPU and idle share from the
untraced ones.

Every rep's simulated rows are hashed. At a seed in ``pins.json`` the
hash must equal the pin; at any seed all reps of the run, traced or
not, must agree. A rep that raises, hangs, fails a conservation check
or a layer-exercise assertion, or disagrees on the digest is failed:
it counts in ``failed`` and ``failed_frac``, never in the timings. The
last line of output is the result object; a host fingerprint and a
summary with quartiles precede it. Exit status 0 means every rep
passed, 1 that some failed, 2 that the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

#: Full reps every run makes, however short ``--seconds`` is.
MIN_REPS = 3
#: No rep starts after this many seconds, and none runs past
#: :data:`HARD_LIMIT_S` (the run must end inside three minutes).
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0


def _declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[kind]}


def fingerprint() -> Dict:
    """What two sets need in common to be compared."""
    quota = "none found"
    for path in ("/sys/fs/cgroup/cpu.max",  # cgroup v2, then v1
                 "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            quota = f"{path}: {Path(path).read_text().strip()}"
            break
        except OSError:
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        revision = "not a git checkout"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": quota,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "git_revision": revision,
    }


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(HERE / "pins.json") as handle:
        return json.load(handle)


def _child_env() -> Dict[str, str]:
    """The program runs with its defaults: no ``REPRO_*`` overrides."""
    return {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")}


def launch(workload: str, seed: int, kind: str, timeout_s: float) -> Dict:
    """Run one rep (``kind`` is full or traced) in a fresh interpreter;
    returns its record plus ``setup_s``, or ``error``."""
    command = [sys.executable, str(HERE / "rep.py"), "--workload",
               workload, "--seed", str(seed)]
    if kind == "traced":
        command.append("--trace")
    launched = time.perf_counter()
    # Its own process group, so a hung rep goes down with its workers.
    child = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"kind": kind, "error": f"hung: no result in {timeout_s:.0f}s"}
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": f"exit {child.returncode}: {stderr[-2000:]}"}
    record["kind"] = kind
    if "error" not in record:
        record["setup_s"] = record["setup_end"] - launched
    return record


def judge(records: List[Dict], pin: Optional[str]) -> List[Dict]:
    """Mark each rep ``passed`` or give its ``failure``.

    The reference digest is the pin when the seed has one, else the
    digest most reps agree on; a rep with another digest fails either
    way, traced or not, so tracing cannot change simulated results
    unnoticed.
    """
    digests = [record["digest"] for record in records
               if "digest" in record]
    reference = pin
    if reference is None and digests:
        reference = Counter(digests).most_common(1)[0][0]
    for record in records:
        failure = record.get("error")
        if failure is None:
            failed_checks = [f"{name}: {detail}"
                             for name, passed, detail in record["checks"]
                             if not passed]
            failed_checks += record.get("layer_failures", [])
            if failed_checks:
                failure = "; ".join(failed_checks)
            elif record["digest"] != reference:
                failure = (f"digest {record['digest'][:16]} differs from "
                           f"{'the pin' if pin else 'the other reps'} "
                           f"{reference[:16]}")
        record["passed"] = failure is None
        if failure is not None:
            record["failure"] = failure
    return records


def layer_failures(workload: str, layers: Dict[str, float]) -> List[str]:
    """Each workload must exercise what its name says, so a change that
    routes around a layer fails loudly instead of reading as a
    speed-up."""
    failures = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            failures.append(f"layer check: {message}")

    if workload == "serving-openloop":
        require(layers["sim.kernel.events"] == 0, "kernel events dispatched")
        require(layers["edge.self_s"] == 0 and layers["network.self_s"] == 0,
                "time spent in the edge or network layer")
        require(layers["serving.shed_ratio"] > 0
                and layers["serving.scale_outs"] > 0,
                "no shedding or no scale-out")
    elif workload == "swarm-exact":
        require(layers["serverless.region.calls"] == 0,
                "RegionGateway was called")
        require(layers["sim.shard.windows"] == 0, "the shard tier ran")
        require(layers["serverless.invocations"] > 0,
                "the OpenWhisk DES was not invoked")
    elif workload == "fleet-sharded":
        require(layers["sim.shard.cloud_serve_s"] > 0, "no cloud serving")
        if layers["cores"] >= 2:  # else the program runs shards inline
            require(layers["workers"] > 0, "no worker process started")
            require(layers["sim.shard.worker_wait_s"] > 0,
                    "no time waiting on workers")
    return failures


def _median(records: List[Dict], key: str) -> float:
    return statistics.median(record[key] for record in records)


def _spread(values: List[float]) -> Dict[str, float]:
    values = sorted(values)
    out = {"n": len(values), "min": values[0],
           "median": statistics.median(values), "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def end_to_end(records: List[Dict]) -> Dict[str, float]:
    full = [r for r in records if r["kind"] == "full" and r["passed"]]
    if not full:
        return {}
    return {"wall_s": _median(full, "wall_s"),
            "cpu_s": _median(full, "cpu_s"),
            "setup_s": _median(full, "setup_s"),
            "peak_rss_mb": _median(full, "peak_rss_mb")}


def per_layer(records: List[Dict]) -> Dict[str, float]:
    full = [r for r in records if r["kind"] == "full" and r["passed"]]
    traced = [r for r in records if r["kind"] == "traced" and r["passed"]]
    if not (full and traced):
        return {}
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in _declared("per_layer")
               if name in traced[0]["layers"]}
    wall = _median(full, "wall_s")
    metrics["trace.overhead_frac"] = _median(traced, "wall_s") / wall - 1.0
    workers = traced[0]["layers"]["workers"]
    metrics["sim.shard.worker_cpu_s"] = _median(full, "children_cpu_s")
    metrics["sim.shard.worker_idle_frac"] = (statistics.median(
        1.0 - r["children_cpu_s"] / (workers * r["wall_s"]) for r in full)
        if workers else 0.0)
    metrics["failed_frac"] = (sum(not r["passed"] for r in records)
                              / len(records))
    return metrics


def plan(trace: bool):
    """Rep kinds in launch order: traced runs alternate which leg of
    each untraced/traced pair goes first."""
    index = 0
    while True:
        if trace:
            yield from (("full", "traced") if index % 2 == 0
                        else ("traced", "full"))
        else:
            yield "full"
        index += 1


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    pin = load_pins().get(workload, {}).get(str(seed))
    begin = time.perf_counter()
    records: List[Dict] = []
    longest = 0.0
    for kind in plan(trace):
        elapsed = time.perf_counter() - begin
        if ((elapsed >= seconds and len(records) >= MIN_REPS)
                or elapsed + longest > SOFT_LIMIT_S):
            break
        started = time.perf_counter()
        record = launch(workload, seed, kind, HARD_LIMIT_S - elapsed)
        longest = max(longest, time.perf_counter() - started)
        if "layers" in record:
            record["layer_failures"] = layer_failures(workload,
                                                      record["layers"])
        records.append(record)
        if "error" in record and record["error"].startswith("hung"):
            break
    judge(records, pin)
    metrics = per_layer(records) if trace else end_to_end(records)
    units = _declared("per_layer" if trace else "end_to_end")
    failed = sum(not r["passed"] for r in records)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
        "summary": {
            "reps": {kind: sum(r["kind"] == kind for r in records)
                     for kind in ("full", "traced")},
            "pinned": pin is not None,
            "failures": [r["failure"] for r in records if not r["passed"]],
            "untraced": {key: _spread(values) for key, values in (
                (key, [r[key] for r in records if r["passed"]
                       and r["kind"] != "traced" and key in r])
                for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"))
                if values},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to run: {ROOT / 'src' / 'repro'} "
              "is missing (run from a source checkout)", file=sys.stderr)
        return 2
    print(json.dumps({"fingerprint": fingerprint()}), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"summary": result.pop("summary")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
