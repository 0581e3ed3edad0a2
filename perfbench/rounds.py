"""One benchmark round: a fleet's whole life, timed phase by phase.

A round builds a fresh fleet, drives it through the four timed phases
(set-up, serve, checkpoint, crash and recover) and checks its outputs; see
``run.py`` for the phases and ``README.md`` for the metrics.
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

import oracle
from host import process_cpu_seconds, read_chars, resident_mib, tree_bytes
from repro.engine.fleet import ShardFleet, shard_directory
from repro.engine.shard import GAME_SUBDIRECTORY
from repro.frontend.gateway import FrontDoor
from repro.obs.trace import get_tracer
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore
from workloads import (
    CHECKPOINT_ROUNDS, CRASH_TICKS, FLEET_KWARGS, INTERVAL, RECOVERIES,
)

#: Serve-phase ticks run before timing starts.
WARMUP_TICKS = 10
#: Set-ups timed per round: the round's own fleet and spares closed at once,
#: so the set-up median rests on more samples than there are rounds.
SETUPS_PER_ROUND = 5


class CheckFailed(Exception):
    """An output check failed: the run is not correct."""


@dataclass
class RoundResult:
    """Samples and counts of one round."""

    setup_s: List[float] = field(default_factory=list)
    serve_ticks: int = 0
    serve_cpu_s: float = 0.0
    tick_ms: List[float] = field(default_factory=list)
    #: One serve cycle per timed tick: from the tick's first submit to the
    #: return of its ``drive_tick()``.
    cycle_ms: List[float] = field(default_factory=list)
    #: Fleet tick number of each timed serve tick.
    tick_numbers: List[int] = field(default_factory=list)
    #: Latency of each command, one row per timed serve tick.
    cmd_ms: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    ckpt_ms: List[float] = field(default_factory=list)
    recovery_ms: List[float] = field(default_factory=list)
    disk_mib: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)


def _median(values: List[float]) -> float:
    return float(np.median(np.asarray(values)))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q * 100.0))


#: Quantile every tick, cycle, command and checkpoint latency is reported
#: at.  The host is a shared guest: its neighbours preempt a growing share
#: of the ticks as they get busier, so a median moves with them (over 82%
#: of its value on the ticks that follow a cut, across five runs), while
#: the lower quartile, the time a tick takes when it runs unpreempted,
#: moves about half as much (README.md, "Why lower quartiles").
LATENCY_QUANTILE = 0.25


class Round:
    """One fleet lifetime: set-up, serve, checkpoint, crash, recover, check."""

    def __init__(self, workload, seed: int, directory: Path, reference: dict,
                 probe=None) -> None:
        self.workload = workload
        self.seed = seed
        self.directory = directory
        #: Optional per-layer probe (``tracing.LayerProbe``) of a traced round.
        self.probe = probe
        #: Shard -> {tick: state digest} of the checkpoint image and the
        #: recovered table of the run's oracle-checked round (filled by it).
        self.reference = reference
        self.result = RoundResult()
        self.fleet = None
        self.frontdoor = None
        #: Session id and shard index of each session number.
        self.sessions: List[int] = []
        self.session_shard: List[int] = []
        #: Session id -> its session number.
        self.session_number: Dict[int, int] = {}
        self.next_seq: Dict[int, int] = {}
        #: Per tick: ``(session number, commands)`` of each APPLIED event of
        #: its outcome, in order (the payloads follow from the schedule).
        self.applied_order: List[np.ndarray] = []
        self.tick = 0

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def setup(self) -> None:
        workload = self.workload
        started = time.perf_counter()
        self.fleet = ShardFleet(
            workload.app_factory,
            self.directory,
            seed=self.seed,
            min_checkpoint_interval_ticks=INTERVAL,
            **FLEET_KWARGS,
            **workload.fleet_kwargs,
        )
        self.frontdoor = FrontDoor(
            self.fleet,
            commands_per_tick_limit=workload.commands_per_session,
            max_pending_commands=workload.commands_per_session,
        )
        for number in range(workload.num_sessions):
            placed = self.frontdoor.connect(f"player-{number}")
            self.sessions.append(placed.session_id)
            self.session_shard.append(placed.shard_index)
            self.session_number[placed.session_id] = number
            self.next_seq[placed.session_id] = 1
        self.result.setup_s.append(time.perf_counter() - started)
        if self.probe is not None:
            self.probe.collect(self.fleet, "setup")

    def _submit(self, submit_times: List[float], schedule=None) -> None:
        """Submit this tick's scheduled commands (``schedule``, or the
        workload's schedule of this tick); record each submit time."""
        frontdoor = self.frontdoor
        if schedule is None:
            schedule = self.workload.schedule(self.seed, self.tick)
        for session_number, payload in schedule:
            session_id = self.sessions[session_number]
            seq = self.next_seq[session_id]
            self.next_seq[session_id] = seq + 1
            submit_times.append(time.perf_counter())
            frontdoor.submit(session_id, seq, payload)

    def _drive(self):
        outcome = self.frontdoor.drive_tick()
        self.tick += 1
        return outcome

    def _check(self, outcome) -> None:
        """Checks of the outcome of the tick just run (outside any timing)."""
        if not outcome.report.ok:
            raise CheckFailed(
                f"tick {self.tick - 1}: shards {outcome.report.failed_shards} "
                "failed"
            )
        if outcome.rejected:
            raise CheckFailed(
                f"tick {self.tick - 1}: {len(outcome.rejected)} commands "
                "rejected"
            )
        self._check_applied(outcome.applied)

    def _check_applied(self, events) -> None:
        """Every command submitted before the tick just run is APPLIED
        exactly once, by that tick, in this outcome."""
        tick = self.tick - 1
        per_tick = self.workload.commands_per_session
        cursor: Dict[int, int] = {}
        order = []
        for event in events:
            number = self.session_number.get(event.session_id)
            if number is None or event.tick - 1 != tick:
                raise CheckFailed(
                    f"tick {tick}: APPLIED of session {event.session_id} by "
                    f"tick {event.tick - 1} names no command of this tick"
                )
            first = cursor.get(
                event.session_id, self.next_seq[event.session_id] - per_tick
            )
            if event.first_seq != first:
                raise CheckFailed(
                    f"tick {tick}: session {event.session_id} APPLIED "
                    f"{event.first_seq}..{event.last_seq}, next unapplied "
                    f"command is {first}"
                )
            cursor[event.session_id] = event.last_seq + 1
            order.append((number, event.last_seq - event.first_seq + 1))
        # Every session submits before every tick.
        if len(cursor) != len(self.sessions) or any(
            cursor[session] != self.next_seq[session] for session in cursor
        ):
            raise CheckFailed(
                f"tick {tick}: a submitted command was never APPLIED"
            )
        self.applied_order.append(np.array(order, dtype=np.int32))

    def serve(self) -> None:
        workload = self.workload
        result = self.result
        tracer = get_tracer()
        pids = self._worker_pids()
        # The fleet's first ticks fault in fresh memory and warm caches that
        # a long-running fleet keeps warm: they run, but are not timed.
        for _ in range(WARMUP_TICKS):
            self._submit([])
            self._check(self._drive())
        if self.probe is not None:
            self.probe.collect(self.fleet, "ticks")
        timed_ticks = workload.serve_ticks - WARMUP_TICKS
        result.cmd_ms = np.empty(
            (timed_ticks, workload.num_sessions * workload.commands_per_session)
        )
        cpu_started = process_cpu_seconds(pids)
        for row in result.cmd_ms:
            submit_times: List[float] = []
            schedule = workload.schedule(self.seed, self.tick)
            cycle_started = time.perf_counter()
            self._submit(submit_times, schedule)
            tick_started = time.perf_counter()
            with tracer.span("bench.tick"):
                outcome = self._drive()
            tick_ended = time.perf_counter()
            self._check(outcome)
            result.tick_ms.append((tick_ended - tick_started) * 1e3)
            result.cycle_ms.append((tick_ended - cycle_started) * 1e3)
            result.tick_numbers.append(self.tick - 1)
            # Every command is APPLIED in the outcome of the tick it was
            # submitted before (checked just above), so its latency runs from
            # its submit to the return of that tick's drive_tick().
            row[:] = (tick_ended - np.asarray(submit_times)) * 1e3
            if self.probe is not None:
                self.probe.collect(self.fleet, "serve")
            if (self.tick - 1) % INTERVAL in (1, 2):
                # Ticks right after a cut: the checkpoint write is in flight.
                self._sample_memory(pids)
        result.serve_cpu_s = process_cpu_seconds(pids) - cpu_started
        result.serve_ticks = timed_ticks

    def checkpoint(self) -> None:
        tracer = get_tracer()
        for _ in range(CHECKPOINT_ROUNDS):
            for _ in range(INTERVAL - 1):
                self._submit([])
                self._check(self._drive())
            if self.probe is not None:
                self.probe.collect(self.fleet, "ticks")
            self._submit([])
            started = time.perf_counter()
            with tracer.span("bench.ckpt"):
                outcome = self._drive()
                self.fleet.quiesce()
            self.result.ckpt_ms.append((time.perf_counter() - started) * 1e3)
            self._check(outcome)
            if self.probe is not None:
                self.probe.collect(self.fleet, "ckpt")
            # Quiesced right after the cut tick: the newest durable cut is
            # the tick just run, or the schedule slipped.
            if max(self.fleet.checkpoint_ages()) != 0:
                self.result.failed += 1
                self.result.notes.append(
                    f"checkpoint cut at tick {self.tick - 1} was not durable "
                    "after quiesce (schedule slipped)"
                )

    def crash_and_recover(self) -> List[list]:
        """Crash, then recover repeatedly.

        Returns, per recovery and shard, ``(next_tick, ticks_replayed,
        table digest)``.  No table outlives its recovery, so the memory
        sampled after each one is the recovered fleet's.
        """
        workload = self.workload
        for _ in range(CRASH_TICKS):
            self._submit([])
            self._check(self._drive())
        if self.probe is not None:
            self.probe.collect(self.fleet, "ticks")
        self._sample_memory(self._worker_pids())
        self.fleet.crash()
        self.result.disk_mib = tree_bytes(str(self.directory)) / 2**20
        recoveries = []
        for _ in range(RECOVERIES):
            rchar = read_chars()
            started = time.perf_counter()
            with get_tracer().span("bench.recover"):
                recovered = ShardFleet.recover(
                    workload.app_factory,
                    self.directory,
                    workload.num_shards,
                    seed=self.seed,
                )
            self.result.recovery_ms.append(
                (time.perf_counter() - started) * 1e3
            )
            self._sample_memory([])
            if self.probe is not None:
                self.probe.recovered(recovered, read_chars() - rchar)
            for shard in recovered:
                shard.persistence.close()
            recoveries.append([
                (shard.game.next_tick, shard.game.ticks_replayed,
                 oracle.digest(shard.game.table.flat))
                for shard in recovered
            ])
            del recovered
        return recoveries

    def _sample_memory(self, pids: List[int]) -> None:
        """Raise ``peak_rss_mib`` to the resident memory of this moment."""
        self.result.peak_rss_mib = max(
            self.result.peak_rss_mib, resident_mib(pids)
        )

    def _worker_pids(self) -> List[int]:
        if self.fleet.backend == "process":
            return self.fleet.worker_pids
        return []

    # ------------------------------------------------------------------
    # Output checks
    # ------------------------------------------------------------------

    def check(self, recoveries: List[list]) -> None:
        """Schedule and output checks (APPLIED is checked tick by tick in
        ``_check``); raises CheckFailed.

        The first round of a run re-executes every shard with the oracle;
        later rounds, which do the same work, must reproduce its checkpoint
        images and recovered tables bit for bit.
        """
        workload = self.workload
        ticks = self.tick
        planned_cut = workload.last_cut_tick
        planned_epochs = workload.planned_checkpoints
        oracle_round = not self.reference
        for index in range(workload.num_shards):
            epoch, cut_tick, image = self._newest_checkpoint(index)
            if epoch != planned_epochs or cut_tick != planned_cut:
                # A checkpoint started late: the schedule slipped.
                self.result.failed += 1
                self.result.notes.append(
                    f"shard {index}: newest checkpoint is epoch {epoch} cut "
                    f"at tick {cut_tick}, planned epoch {planned_epochs} at "
                    f"tick {planned_cut}"
                )
            num_cells = workload.app_factory(index).geometry.num_cells
            image_digest = oracle.digest(
                np.frombuffer(image, dtype=np.float32)[:num_cells]
            )
            tables = [reports[index] for reports in recoveries]
            for attempt, (next_tick, replayed, _) in enumerate(tables):
                if next_tick != ticks:
                    raise CheckFailed(
                        f"shard {index} recovery {attempt}: next_tick "
                        f"{next_tick}, ran {ticks} ticks"
                    )
                if replayed != CRASH_TICKS:
                    self.result.failed += 1
                    self.result.notes.append(
                        f"shard {index} recovery {attempt} replayed "
                        f"{replayed} ticks, planned {CRASH_TICKS}"
                    )
            table_digests = {digest for _, _, digest in tables}
            if len(table_digests) != 1:
                raise CheckFailed(
                    f"shard {index}: repeated recoveries returned different "
                    "tables"
                )
            table_digest = table_digests.pop()
            expected = {cut_tick: image_digest, ticks - 1: table_digest}
            if not oracle_round:
                # Every round of a run does the same work, so its outputs
                # must be bit-identical to the round the oracle checked --
                # except an image cut at another tick after a schedule slip
                # (already counted as failed), which the oracle re-checks.
                if self.reference[index].get(ticks - 1) != table_digest:
                    raise CheckFailed(
                        f"shard {index}: recovered table differs from the "
                        "oracle-checked round of this run"
                    )
                reference_image = self.reference[index].get(cut_tick)
                if reference_image == image_digest:
                    continue
                if reference_image is not None:
                    raise CheckFailed(
                        f"shard {index}: checkpoint image at tick {cut_tick} "
                        "differs from the oracle-checked round of this run"
                    )
            mismatched = oracle.reexecute(
                workload, self.seed, index, self._shard_commands(index),
                ticks, expected,
            )
            if cut_tick in mismatched:
                raise CheckFailed(
                    f"shard {index}: checkpoint image at tick {cut_tick} "
                    "differs from the re-execution"
                )
            if ticks - 1 in mismatched:
                raise CheckFailed(
                    f"shard {index}: recovered table differs from the "
                    "re-execution at the crash tick"
                )
            if oracle_round:
                self.reference[index] = expected
        self.result.attempted = (
            ticks                                  # fleet ticks
            + ticks * len(self.sessions)           # commands
            * workload.commands_per_session
            + CHECKPOINT_ROUNDS                    # quiesced checkpoints
            + workload.num_shards                  # checkpoint schedules
            + RECOVERIES * workload.num_shards     # recoveries
        )

    def check_in_child(self, recoveries: List[list]) -> None:
        """:meth:`check` in a forked child, after the fleet has closed.

        None of the checker's memory (images read back, the oracle's
        tables) then stays in this process, whose resident memory the
        later rounds sample.
        """
        read_end, write_end = os.pipe()
        # The fleet has closed and joined its threads, so the child starts
        # with this one thread only.
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                try:
                    self.check(recoveries)
                    reply = (None, self.result.failed, self.result.notes,
                             self.result.attempted, self.reference)
                except CheckFailed as error:
                    reply = (str(error),)
                except Exception:
                    reply = (f"checker raised:\n{traceback.format_exc()}",)
                with os.fdopen(write_end, "wb") as out:
                    pickle.dump(reply, out)
            finally:
                # Never return into the parent's code; no reply means the
                # checker died.
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as replies:
            payload = replies.read()
        os.waitpid(pid, 0)
        if not payload:
            raise CheckFailed("checker process died without a reply")
        reply = pickle.loads(payload)
        if reply[0] is not None:
            raise CheckFailed(reply[0])
        _, failed, notes, attempted, reference = reply
        self.result.failed, self.result.notes = failed, notes
        self.result.attempted = attempted
        self.reference.update(reference)

    def _shard_commands(self, index: int) -> Dict[int, List[bytes]]:
        """Shard ``index``'s commands of each tick, in the order their
        APPLIED events name them; the payloads come from the schedule."""
        commands: Dict[int, List[bytes]] = {}
        for tick, order in enumerate(self.applied_order):
            payloads: Dict[int, List[bytes]] = {}
            for number, payload in self.workload.schedule(self.seed, tick):
                payloads.setdefault(number, []).append(payload)
            applied = commands.setdefault(tick, [])
            for number, count in order.tolist():
                taken = payloads[number]
                if self.session_shard[number] == index:
                    applied.extend(taken[:count])
                del taken[:count]
        return commands

    def _newest_checkpoint(self, index: int):
        """``(epoch, cut_tick, image)`` of shard ``index``'s newest
        committed checkpoint, read through the store's public restore."""
        geometry = self.workload.app_factory(index).geometry
        game = os.path.join(
            shard_directory(self.directory, index), GAME_SUBDIRECTORY
        )
        if os.path.exists(os.path.join(game, DoubleBackupStore.FILE_NAMES[0])):
            with DoubleBackupStore(game, geometry) as store:
                found = store.latest_consistent()
                return found.epoch, found.tick, store.read_image(
                    found.backup_index
                )
        with CheckpointLogStore(game, geometry) as store:
            image, epoch, cut_tick = store.restore_image()
            return epoch, cut_tick, image

    def close(self) -> None:
        if self.fleet is not None:
            try:
                self.fleet.close()
            finally:
                self.fleet = None


def run_round(workload, seed: int, directory: Path, reference: dict,
              probe=None) -> RoundResult:
    """One whole round; the fleet is torn down whatever happens."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    gc.collect()
    spare_setups = []
    for _ in range(SETUPS_PER_ROUND - 1):
        spare = Round(workload, seed, directory, reference)
        try:
            spare.setup()
        finally:
            spare.close()
        spare_setups.extend(spare.result.setup_s)
        shutil.rmtree(directory)
        directory.mkdir()
    gc.collect()
    get_tracer().drain()  # a traced round charges only its own spans
    current = Round(workload, seed, directory, reference, probe)
    current.result.setup_s.extend(spare_setups)
    try:
        current.setup()
        current.serve()
        current.checkpoint()
        recoveries = current.crash_and_recover()
        if probe is not None:
            probe.stop()
        current.close()
        current.check_in_child(recoveries)
    finally:
        if probe is not None:
            probe.stop()
        current.close()
        shutil.rmtree(directory, ignore_errors=True)
    return current.result


def by_position(results: List[RoundResult],
                samples: str = "tick_ms") -> List[float]:
    """Lower quartile of the serve ticks' latency, cycle or command latency
    (``samples``: ``tick_ms``, ``cycle_ms`` or ``cmd_ms``) at each position
    0 .. INTERVAL-1 after a cut, pooled over rounds."""
    pooled: List[list] = [[] for _ in range(INTERVAL)]
    for r in results:
        for tick, values in zip(r.tick_numbers, getattr(r, samples)):
            pooled[tick % INTERVAL].append(values)
    return [_percentile(np.hstack(values), LATENCY_QUANTILE)
            for values in pooled]


def end_to_end(results: List[RoundResult]) -> Dict[str, dict]:
    """The end-to-end metrics over a run's rounds.

    Tick, command and checkpoint latencies are lower quartiles
    (``LATENCY_QUANTILE``).
    ``ticks_per_s`` is the interval's ticks over the sum of its positions'
    serve cycles, so a checkpoint's slow ticks count once per interval as
    they do in serving.
    """

    def pooled(name: str) -> List[float]:
        return [v for r in results for v in getattr(r, name)]

    serve_ticks = sum(r.serve_ticks for r in results)
    commands = np.concatenate([r.cmd_ms.ravel() for r in results])
    q = LATENCY_QUANTILE
    metrics = {
        "setup_s": (_median(pooled("setup_s")), "s"),
        "ticks_per_s": (
            INTERVAL * 1e3 / sum(by_position(results, "cycle_ms")), "1/s"
        ),
        "tick_p25_ms": (_percentile(pooled("tick_ms"), q), "ms"),
        "cmd_p25_ms": (_percentile(commands, q), "ms"),
        "ckpt_ms": (_percentile(pooled("ckpt_ms"), q), "ms"),
        "recovery_ms": (_median(pooled("recovery_ms")), "ms"),
        "cpu_ms_per_tick": (
            sum(r.serve_cpu_s for r in results) * 1e3 / serve_ticks, "ms"
        ),
        "disk_mib": (_median([r.disk_mib for r in results]), "MiB"),
        # A round's peak moves by the 12 MiB or so the allocator keeps or
        # returns, round by round; the mean over rounds averages that out.
        "peak_rss_mib": (
            float(np.mean([r.peak_rss_mib for r in results])), "MiB"
        ),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def not_gated(results: List[RoundResult]) -> Dict[str, float]:
    """Latencies printed with every run but left out of the gate: the
    pooled p50, p95 and p99 of ticks and commands, and the latency
    checkpointing adds, ``tick_ckpt_ms`` and ``cmd_ckpt_ms`` (the lower
    quartile of the position in the checkpoint interval that
    checkpointing slows most).

    On ``zipf-cou`` the slowest position is bimodal from run to run of
    one tree (README.md, "Latency checkpointing adds"), and a pooled p95
    or p99 falls between the slow and the ordinary ticks.
    """
    ticks = [v for r in results for v in r.tick_ms]
    commands = np.concatenate([r.cmd_ms.ravel() for r in results])
    printed = {
        f"{name}_p{q}_ms": _percentile(values, q / 100.0)
        for name, values in (("tick", ticks), ("cmd", commands))
        for q in (50, 95, 99)
    }
    printed["tick_ckpt_ms"] = max(by_position(results))
    printed["cmd_ckpt_ms"] = max(by_position(results, "cmd_ms"))
    return printed
