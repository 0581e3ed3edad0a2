#!/usr/bin/env python3
"""The repository's benchmark: serve -> checkpoint -> crash -> recover.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf-cou --seed 1 --seconds 30 --trace 0

A run repeats whole *rounds* until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  One round drives a fresh fleet through the front door an
operator serves from (``FrontDoor`` over ``ShardFleet``) in four timed
phases:

* set-up: build the fleet and the front door and connect every session;
* serve: a closed tick loop -- submit the tick's scheduled commands, call
  ``drive_tick()``, start the next tick at once;
* checkpoint: rounds of one checkpoint interval of ticks, the last of which
  cuts a checkpoint, then ``ShardFleet.quiesce()``;
* crash and recover: a fixed number of ticks after the last quiesce,
  ``crash()``, then ``ShardFleet.recover(...)`` several times on the same
  directory with a warm page cache.

Every round (``rounds.py``) then checks its outputs against an independent
re-execution (``oracle.py``) and the planned checkpoint schedule and replay
length.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  A failed check
exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch directory for fleet files, inside the checkout (git-ignored).
WORK_ROOT = ROOT / ".perfbench_work"
#: Rounds every run makes, however short ``--seconds`` is: set-up time is
#: reported as a median over rounds.
MIN_ROUNDS = 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import host
    from rounds import (
        CheckFailed, by_position, end_to_end, not_gated, run_round,
    )
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"run-{os.getpid()}"
    cpu_start = host.cpu_counters()
    started = time.perf_counter()
    results = []
    traced = []
    probes = []
    reference: dict = {}
    try:
        last = 0.0
        # Whole rounds only: a new round starts while it is expected to end
        # within --seconds (the previous round's length is the estimate).
        while (
            len(results) < MIN_ROUNDS
            or time.perf_counter() - started + last <= args.seconds
        ):
            round_started = time.perf_counter()
            if args.trace:
                # Traced and untraced rounds alternate: per-layer numbers come
                # from the traced ones, the tracing overhead from the pair.
                import tracing

                probe = tracing.LayerProbe(workload)
                traced.append(
                    run_round(workload, args.seed, work, reference, probe)
                )
                probes.append(probe)
            results.append(run_round(workload, args.seed, work, reference))
            last = time.perf_counter() - round_started
    except CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    cpu_end = host.cpu_counters()

    everything = results + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    for r in everything:
        for note in r.notes:
            print(f"perfbench: failed operation: {note}", file=sys.stderr)
    untraced_metrics = end_to_end(results)
    print(
        f"host: {json.dumps(host.describe())} steal_share="
        f"{host.steal_share(cpu_start, cpu_end):.4f} "
        f"loadavg={host.loadavg()} rounds={len(results)}"
        f"{'+' + str(len(traced)) + ' traced' if traced else ''}"
    )
    if args.trace:
        import tracing

        traced_metrics = end_to_end(traced)
        table, metrics = tracing.summarize(
            workload, probes, traced_metrics, untraced_metrics
        )
        print(table)
    else:
        metrics = untraced_metrics
        for name, entry in metrics.items():
            print(f"{name:>16} {entry['value']:>12.4f} {entry['unit']}")
        for name, value in not_gated(results).items():
            print(f"{name:>16} {value:>12.4f} ms (not gated)")
        profile = " ".join(f"{v:.1f}" for v in by_position(results))
        print(f"lower-quartile tick ms by position after a cut: {profile}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
