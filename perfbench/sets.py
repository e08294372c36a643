"""Repeatability check: sets of benchmark runs, workloads rotated.

    python3 perfbench/sets.py --sets 10 --seconds 35
        [--workloads swarm-exact,fleet-sharded] [--out sets.json]

A set is one untraced ``run.py`` run of every workload, each with the
set's seed (``--first-seed`` plus the set index); the workload order
rotates from set to set so no workload always runs first or last. Every
set records the host fingerprint. At the end, for each workload and
end-to-end metric, the median over sets and the spread: the distance
between the first and third quartile as a share of the median, which is
what a bound in ``BENCHMARK.json`` is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> Dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"error": done.stderr[-2000:], "exit": done.returncode}
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        out.update(json.loads(line))
    out["exit"] = done.returncode
    return out


def spread(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    out = {"median": median, "n": len(values)}
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / median
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    for index in range(args.sets):
        seed = args.first_seed + index
        order = names[index % len(names):] + names[:index % len(names)]
        for name in order:
            result = run_once(name, seed, args.seconds)
            result["seed"] = seed
            runs[name].append(result)
            values = {key: round(metric["value"], 4)
                      for key, metric in result.get("metrics", {}).items()}
            print(json.dumps({"set": index, "workload": name, "seed": seed,
                              "correct": result.get("correct"),
                              "failed": result.get("failed"),
                              "metrics": values}), flush=True)
    report = {}
    for name, results in runs.items():
        keys = sorted({key for result in results
                       for key in result.get("metrics", {})})
        report[name] = {
            "runs": len(results),
            "failed_runs": sum(not result.get("correct")
                               for result in results),
            "metrics": {key: spread([result["metrics"][key]["value"]
                                     for result in results
                                     if key in result.get("metrics", {})])
                        for key in keys}}
    print(json.dumps({"report": report}, indent=1))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": runs, "report": report}, handle, indent=1)
    return 0 if all(entry["failed_runs"] == 0
                    for entry in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
