#!/usr/bin/env python3
"""A/A command: the same tree measured as two interleaved sets of runs.

Usage (from the repository root)::

    python3 perfbench/aa.py --seeds 10

For every seed and workload it runs ``perfbench/run.py`` once for set A and
once for set B, alternating which set goes first, one run at a time.  For
each workload and end-to-end metric it then prints each set's median and
quartiles, the spread (interquartile distance over the median) against the
metric's bound in ``BENCHMARK.json``, and how far set B's median sits from
set A's in the worse direction.  The verdict passes when both sets fail
the same share of operations, every spread but ``setup_s``'s is within a
third of its bound and every B-over-A shift is within the bound.  Every
workload of ``BENCHMARK.json`` is run for its ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its final JSON line plus the host line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"run {workload} seed {seed} failed "
            f"(exit {completed.returncode}):\n{completed.stderr}"
        )
    result = json.loads(lines[-1])
    result["host"] = next(
        (line for line in lines if line.startswith("host:")), ""
    )
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def report(config: dict, runs: dict) -> bool:
    """Print the per-metric table; True when every metric passes."""
    ok = True
    for workload in runs:
        sets = runs[workload]
        print(f"\nworkload {workload}: {len(sets['A'])} runs per set")
        shares = {
            name: sorted({r["failed"] / r["attempted"] for r in sets[name]})
            for name in ("A", "B")
        }
        ok &= shares["A"] == shares["B"]
        print(f"  failed share of operations: set A {shares['A']}, "
              f"set B {shares['B']}")
        print(f"  {'metric':<16} {'set':<3} {'q1':>11} {'median':>11} "
              f"{'q3':>11} {'spread':>8} {'bound':>6}  B vs A")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            medians = {}
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[label]]
                q1, median, q3, share = spread(values)
                medians[label] = median
                limit_ok = name == "setup_s" or share <= bound / 3
                ok &= limit_ok
                shift = ""
                if label == "B":
                    worse = (medians["B"] - medians["A"]) / medians["A"]
                    if not lower:
                        worse = -worse
                    ok &= worse <= bound
                    shift = (f"{worse:+.2%} worse"
                             f"{'' if worse <= bound else '  OVER BOUND'}")
                print(f"  {name:<16} {label:<3} {q1:>11.4f} {median:>11.4f} "
                      f"{q3:>11.4f} {share:>8.2%} {bound:>6.2f}  "
                      f"{'' if limit_ok else 'SPREAD > bound/3 '}{shift}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    runs = {w: {"A": [], "B": []} for w in workloads}
    started = time.time()
    for number, seed in enumerate(
        range(args.first_seed, args.first_seed + args.seeds)
    ):
        order = ["A", "B"] if number % 2 == 0 else ["B", "A"]
        for workload in workloads:
            for label in order:
                result = run_once(workload, seed, seconds)
                runs[workload][label].append(result)
                print(f"[{time.time() - started:7.0f} s] {workload} seed "
                      f"{seed} set {label}: "
                      f"{result['host'].split('}', 1)[-1].strip()}",
                      flush=True)
    ok = report(config, runs)
    print(f"\nA/A verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
