"""The traced run: spans around each layer's calls, and the per-layer table.

A :class:`LayerProbe` wraps the public calls listed in ``TIMED_CALLS`` in
``repro.obs`` tracer spans for the length of one round and switches the
program's own spans on.  Forked shard workers inherit both, and their spans
reach the parent through the fleet's shared trace rings.  The probe drains
the spans after every serve tick, checkpoint and recovery, so each span is
charged to the phase it ran in.

A layer's *self* time is its span's duration minus the part covered by the
spans nested in it on the same thread.  A span that waits for work on
another thread or process (``REMOTE_CHILDREN``) also loses the part of its
uncovered time that the longest such piece of work overlaps: the parent's
``fleet_run_ticks`` loses the slowest worker's ``shard_tick``, leaving the
fleet driver's own cost (``engine.fleet_drive``).  Time in the benchmark's
root spans (``bench.*``) that no program span covers is reported as
unattributed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.core.framework import CheckpointFramework
from repro.engine import writer_pool
from repro.engine.executor import RealExecutor
from repro.engine.fleet import ShardFleet
from repro.frontend.gateway import FrontDoor
from repro.obs.trace import configure_tracing, get_tracer
from repro.persistence.server import PersistenceServer
from repro.state.table import GameStateTable
from repro.storage.action_log import ActionLog
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore

#: ``(owner, attribute, span name)`` of every call the probe times.  The
#: application's ``plan_tick_with_commands`` is added per workload.
TIMED_CALLS = (
    (CheckpointFramework, "process_updates", "core.handle_update"),
    (CheckpointFramework, "end_of_tick", "core.end_of_tick"),
    (GameStateTable, "apply_updates", "state.apply"),
    (ShardFleet, "submit_commands", "state.ring_push"),
    (ActionLog, "append", "storage.log_append"),
    (DoubleBackupStore, "write_checkpoint_vectored", "storage.backup_write"),
    (CheckpointLogStore, "write_checkpoint_vectored", "storage.ckptlog_write"),
    (DoubleBackupStore, "read_image", "storage.restore"),
    (CheckpointLogStore, "restore_image", "storage.restore"),
    (RealExecutor, "begin_stable_write", "engine.stage"),
    (FrontDoor, "submit", "frontend.submit"),
    (PersistenceServer, "__init__", "persistence.open"),
)

#: Layer of each span name the table shows, program spans included.
LAYER_OF_SPAN = {
    "gw_ingest": "frontend",
    "gw_ack": "frontend",
    "fleet_run_ticks": "engine",
    "shard_tick": "engine",
    "ring_drain": "state",
    "ckpt_stage": "engine",
    "ckpt_flush": "engine",
    "pool_flush": "engine",
    "log_writev": "storage",
    "backup_pwritev": "storage",
    "recover": "engine",
    "restore": "engine",
    "replay": "engine",
}

#: Bucket -> (unit the table divides by, its plural, root span).
BUCKETS = {
    "serve": ("tick", "ticks", "bench.tick"),
    "ckpt": ("checkpoint", "checkpoints", "bench.ckpt"),
    "recovery": ("recovery", "recoveries", "bench.recover"),
}


def _timed(name: str, function):
    tracer = get_tracer()

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return wrapper


def _timed_write(name: str, function):
    """A checkpoint write call: span plus the bytes it was handed."""
    tracer = get_tracer()

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            written = function(*args, **kwargs)
        tracer.instant("bench.ckpt_bytes", n=int(written))
        return written

    return wrapper


class LayerProbe:
    """Per-layer timing of one traced round (see the module docstring)."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.events: Dict[str, List[List[dict]]] = defaultdict(list)
        self.units = defaultdict(int)
        #: Per recovery: summed RecoveryReport fields and rchar delta.
        self.recoveries: List[Dict[str, float]] = []
        self._submitted_at: Dict[int, float] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._install()
        tracer = configure_tracing(True)
        tracer.drain()

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _install(self) -> None:
        app_class = type(self.workload.app_factory(0))
        calls = TIMED_CALLS + (
            (app_class, "plan_tick_with_commands", "game.plan"),
        )
        for owner, attribute, name in calls:
            function = owner.__dict__[attribute]
            if attribute == "write_checkpoint_vectored":
                self._patch(owner, attribute, _timed_write(name, function))
            else:
                self._patch(owner, attribute, _timed(name, function))
        recover = PersistenceServer.__dict__["recover"].__func__
        self._patch(PersistenceServer, "recover",
                    classmethod(_timed("persistence.recover", recover)))

        # Pool admission wait: from PoolWriter.submit to the start of the
        # job's flush on a pool worker.
        submitted_at = self._submitted_at
        submit = writer_pool.PoolWriter.__dict__["submit"]

        def stamped_submit(handle, job):
            submitted_at[id(job)] = time.perf_counter()
            return submit(handle, job)

        self._patch(writer_pool.PoolWriter, "submit", stamped_submit)
        flush = writer_pool.flush_checkpoint_job_vectored
        tracer = get_tracer()

        def timed_flush(store, job, *args, **kwargs):
            queued = submitted_at.pop(id(job), None)
            if queued is not None:
                tracer.instant(
                    "bench.pool_wait",
                    us=(time.perf_counter() - queued) * 1e6,
                )
            with tracer.span("engine.pool_flush"):
                return flush(store, job, *args, **kwargs)

        self._patches.append(
            (writer_pool, "flush_checkpoint_job_vectored", flush)
        )
        writer_pool.flush_checkpoint_job_vectored = timed_flush

    def stop(self) -> None:
        """Remove every wrapper and switch tracing off (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        tracer = configure_tracing(False)
        tracer.drain()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self, fleet, bucket: str) -> None:
        """Charge every span drained now to ``bucket`` (one unit of it)."""
        self.events[bucket].append(fleet.trace_events())
        self.units[bucket] += 1

    def recovered(self, shards, read_bytes: int) -> None:
        """Charge one recovery's spans and its reports' fields."""
        self.events["recovery"].append(get_tracer().drain())
        self.units["recovery"] += 1
        reports = [shard.game for shard in shards]
        self.recoveries.append({
            "restore_ms": sum(r.restore_seconds for r in reports) * 1e3,
            "replay_ms": sum(r.replay_seconds for r in reports) * 1e3,
            "ticks_replayed": sum(r.ticks_replayed for r in reports),
            "read_mib": read_bytes / 2**20,
        })


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


#: Spans that wait for work on another thread or process, and the span
#: name of that work: the longest such span overlapping the waiter is its
#: child on the critical path.
REMOTE_CHILDREN = {
    "fleet_run_ticks": "shard_tick",
    "bench.ckpt": "engine.pool_flush",
    "bench.recover": "recover",
}


def _uncovered(span: dict, children: List[dict]) -> List[Tuple[int, int]]:
    """Parts of ``span``'s interval no direct child covers."""
    gaps, cursor = [], span["ts"]
    for child in sorted(children, key=lambda c: c["ts"]):
        if child["ts"] > cursor:
            gaps.append((cursor, child["ts"]))
        cursor = max(cursor, child["ts"] + child["dur"])
    end = span["ts"] + span["dur"]
    if end > cursor:
        gaps.append((cursor, end))
    return gaps


def self_times(events: List[dict]) -> List[Tuple[dict, int]]:
    """``(span, self µs)`` for every complete span in ``events``."""
    spans = [e for e in events if e.get("ph") == "X"]
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[(span["pid"], span["tid"])].append(span)
    children: Dict[int, List[dict]] = defaultdict(list)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack: List[dict] = []
        for span in thread_spans:
            end = span["ts"] + span["dur"]
            while stack and not (
                span["ts"] >= stack[-1]["ts"]
                and end <= stack[-1]["ts"] + stack[-1]["dur"]
            ):
                stack.pop()
            if stack:
                children[id(stack[-1])].append(span)
            stack.append(span)
    result = []
    for span in spans:
        own = span["dur"] - sum(c["dur"] for c in children[id(span)])
        remote_name = REMOTE_CHILDREN.get(span["name"])
        if remote_name is not None:
            gaps = _uncovered(span, children[id(span)])
            overlaps = [
                sum(
                    max(0, min(hi, r["ts"] + r["dur"]) - max(lo, r["ts"]))
                    for lo, hi in gaps
                )
                for r in spans
                if r["name"] == remote_name
                and (r["pid"], r["tid"]) != (span["pid"], span["tid"])
            ]
            own -= max(overlaps, default=0)
        result.append((span, own))
    return result


def _aggregate(groups: List[List[dict]]):
    """Per span name: calls, inclusive µs and self µs over ``groups``."""
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    instants = defaultdict(list)
    for events in groups:
        for span, self_us in self_times(events):
            calls[span["name"]] += 1
            inclusive[span["name"]] += span["dur"]
            own[span["name"]] += self_us
        for event in events:
            if event.get("ph") == "i":
                instants[event["name"]].append(event.get("args", {}))
    return calls, inclusive, own, instants


def _layer(name: str) -> str:
    if name.startswith("bench."):
        return "(unattributed)"
    return LAYER_OF_SPAN.get(name, name.split(".", 1)[0])


def summarize(workload, probes: List[LayerProbe], traced: dict,
              untraced: dict) -> Tuple[str, Dict[str, dict]]:
    """The per-layer table and the per-layer metrics of a traced run."""
    lines = [f"per-layer table, workload {workload.name}, "
             f"{len(probes)} traced rounds"]
    per_bucket = {}
    for bucket, (unit, plural, root) in BUCKETS.items():
        groups = [g for p in probes for g in p.events[bucket]]
        units = sum(p.units[bucket] for p in probes)
        calls, inclusive, own, instants = _aggregate(groups)
        per_bucket[bucket] = (units, calls, inclusive, own, instants)
        if not units:
            continue
        lines.append("")
        lines.append(f"per {unit} ({units} {plural}; self/incl in ms per "
                     f"{unit}, summed over shards)")
        lines.append(f"  {'layer':<12} {'span':<24} {'calls':>8} "
                     f"{'self':>10} {'incl':>10}")
        for name in sorted(own, key=lambda n: (_layer(n), n)):
            lines.append(
                f"  {_layer(name):<12} {name:<24} {calls[name] / units:>8.2f} "
                f"{own[name] / units / 1e3:>10.4f} "
                f"{inclusive[name] / units / 1e3:>10.4f}"
            )
        wall = inclusive.get(root, 0.0)
        if wall:
            lines.append(
                f"  wall {wall / units / 1e3:.4f} ms per {unit}; unattributed "
                f"{own[root] / units / 1e3:.4f} ms "
                f"({100.0 * own[root] / wall:.2f}% of the {unit})"
            )
    lines.append("")
    lines.append("tracing overhead (traced rounds minus untraced rounds, "
                 "end-to-end figures)")
    for name, entry in untraced.items():
        if name == "peak_rss_mib":
            # The probes keep every traced round's spans in this process.
            continue
        base, with_trace = entry["value"], traced[name]["value"]
        share = (with_trace - base) / base * 100.0 if base else 0.0
        lines.append(f"  {name:<16} untraced {base:>11.4f}  traced "
                     f"{with_trace:>11.4f} {entry['unit']:<4} ({share:+.1f}%)")

    def per(bucket: str, names, scale: float = 1e-3) -> float:
        units, _, inclusive, _, _ = per_bucket[bucket]
        return sum(inclusive.get(n, 0.0) for n in names) * scale / max(units, 1)

    def instant_sum(bucket: str, name: str, key: str) -> float:
        units, _, _, _, instants = per_bucket[bucket]
        return sum(a.get(key, 0.0) for a in instants.get(name, [])) / max(units, 1)

    def drive_ms() -> float:
        units, _, _, own, _ = per_bucket["serve"]
        return own.get("fleet_run_ticks", 0.0) / 1e3 / max(units, 1)

    serve_ticks = per_bucket["serve"][0]
    commands = serve_ticks * workload.num_sessions * workload.commands_per_session
    rounds = len(probes)
    shards = workload.num_shards
    recoveries = [r for p in probes for r in p.recoveries]

    def recovery_mean(key: str) -> float:
        return sum(r[key] for r in recoveries) / max(len(recoveries), 1)

    _, setup_incl, _, _ = _aggregate(
        [g for p in probes for g in p.events["setup"]]
    )
    values = {
        "game.plan_ms": (per("serve", ["game.plan"]), "ms"),
        "core.handle_update_ms": (per("serve", ["core.handle_update"]), "ms"),
        "core.end_of_tick_ms": (per("serve", ["core.end_of_tick"]), "ms"),
        "state.apply_ms": (per("serve", ["state.apply"]), "ms"),
        "state.ring_push_us": (per("serve", ["state.ring_push"], 1.0), "us"),
        "state.ring_drain_us": (per("serve", ["ring_drain"], 1.0), "us"),
        "storage.log_append_ms": (per("serve", ["storage.log_append"]), "ms"),
        "storage.ckpt_write_ms": (
            per("ckpt", ["storage.backup_write", "storage.ckptlog_write"]),
            "ms",
        ),
        "storage.ckpt_write_mib": (
            instant_sum("ckpt", "bench.ckpt_bytes", "n") / 2**20, "MiB"
        ),
        "storage.restore_ms": (per("recovery", ["storage.restore"]), "ms"),
        "storage.restore_read_mib": (recovery_mean("read_mib"), "MiB"),
        "engine.pool_wait_ms": (
            instant_sum("ckpt", "bench.pool_wait", "us") / 1e3, "ms"
        ),
        "engine.pool_flush_ms": (per("ckpt", ["engine.pool_flush"]), "ms"),
        "engine.stage_ms": (per("ckpt", ["engine.stage"]), "ms"),
        "engine.fleet_drive_ms": (drive_ms(), "ms"),
        "engine.restore_ms": (recovery_mean("restore_ms"), "ms"),
        "engine.replay_ms": (recovery_mean("replay_ms"), "ms"),
        "engine.ticks_replayed": (recovery_mean("ticks_replayed"), "count"),
        "frontend.submit_us": (
            per("serve", ["frontend.submit"], 1.0) * serve_ticks
            / max(commands, 1), "us"
        ),
        "frontend.ingest_ms": (per("serve", ["gw_ingest"]), "ms"),
        "frontend.ack_ms": (per("serve", ["gw_ack"]), "ms"),
        "persistence.open_ms": (
            setup_incl.get("persistence.open", 0.0) / 1e3
            / max(rounds * shards, 1), "ms"
        ),
        "persistence.recover_ms": (
            per("recovery", ["persistence.recover"]) / shards, "ms"
        ),
    }
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }
    lines.append("")
    lines.append("per-layer metrics")
    for name, entry in metrics.items():
        lines.append(f"  {name:<26} {entry['value']:>12.4f} {entry['unit']}")
    return "\n".join(lines), metrics
