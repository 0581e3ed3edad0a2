"""The benchmark's two workloads: applications, fleet shapes and command schedules.

Everything a run does is a pure function of its seed: the fleet seed, every
tick's command schedule, the checkpoint interval and the crash tick.  Only
wall time varies between two runs of one seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.config import StateGeometry
from repro.engine.app import TickApplication, TickUpdatesPlan
from repro.engine.server import DurableGameServer
from repro.game.knights_archers import KnightsArchersGame
from repro.game.scenario import BattleScenario
from repro.workloads.zipf import ZipfDistribution


def pack_commands(commands: List[bytes]) -> bytes:
    """One tick's command batch as the engine logs it: a u32 count, then
    u32-length-prefixed commands (the framing ``plan_tick_with_commands``
    receives and ``DurableGameServer.unpack_commands`` decodes)."""
    parts = [len(commands).to_bytes(4, "little")]
    for command in commands:
        parts.append(len(command).to_bytes(4, "little"))
        parts.append(command)
    return b"".join(parts)


class ZipfCellApp(TickApplication):
    """The paper's Table 4 synthetic update stream as a tick application.

    Each tick draws ``updates_per_tick`` cells whose row and column are
    sampled independently from Zipf distributions of the same skew; rank
    ``r`` maps to row ``r``, so the hot rows are contiguous and share atomic
    objects.  A client command ``set:<row>:<column>:<value>`` sets one cell
    after the tick's synthetic updates.
    """

    def __init__(self, geometry: StateGeometry, updates_per_tick: int,
                 skew: float) -> None:
        self._geometry = geometry
        self._updates = updates_per_tick
        self._rows = ZipfDistribution(geometry.rows, skew)
        self._columns = ZipfDistribution(geometry.columns, skew)

    @property
    def geometry(self) -> StateGeometry:
        return self._geometry

    def initialize(self, table, rng: np.random.Generator) -> None:
        table.cells[:] = rng.random(table.cells.shape, dtype=np.float32)

    def plan_tick(self, table, rng: np.random.Generator,
                  tick: int) -> TickUpdatesPlan:
        rows = self._rows.sample(self._updates, rng)
        columns = self._columns.sample(self._updates, rng)
        values = rng.random(self._updates, dtype=np.float32)
        return TickUpdatesPlan(rows=rows, columns=columns, values=values)

    def plan_tick_with_commands(self, table, rng: np.random.Generator,
                                tick: int, commands: bytes) -> TickUpdatesPlan:
        plan = self.plan_tick(table, rng, tick)
        sets = [command.split(b":")
                for command in DurableGameServer.unpack_commands(commands)]
        if not sets:
            return plan
        rows = np.array([int(s[1]) for s in sets], dtype=np.int64)
        columns = np.array([int(s[2]) for s in sets], dtype=np.int64)
        values = np.array([float(s[3]) for s in sets], dtype=np.float32)
        return TickUpdatesPlan(
            rows=np.concatenate([plan.rows, rows]),
            columns=np.concatenate([plan.columns, columns]),
            values=np.concatenate([plan.values, values]),
        )


#: Checkpoint interval in ticks; checkpoints are cut at ticks 0, I, 2I...
INTERVAL = 20
#: Checkpoint-phase rounds, one cut and one quiesce each.
CHECKPOINT_ROUNDS = 6
#: Ticks run after the last quiesce before the crash (the replay length).
CRASH_TICKS = 5
#: ``ShardFleet.recover`` calls on the crashed directory.
RECOVERIES = 8
#: ``ShardFleet`` keyword arguments both workloads share.  One shard each:
#: the host gives the benchmark two vCPUs, and a fleet that keeps both busy
#: (two process shards ticking in parallel) is throttled as CPU steal that
#: moved ``game-log``'s tick rate by 80% between back-to-back runs, against
#: 18% with one shard.
FLEET_KWARGS = dict(num_shards=1, pool_size=1, fsync_policy="commit")


@dataclass(frozen=True)
class Workload:
    """One workload: the fleet it builds and the load it drives."""

    name: str
    #: ``ShardFleet`` keyword arguments besides the app factory, the root
    #: and ``FLEET_KWARGS``.
    fleet_kwargs: dict
    app_factory: Callable[[int], TickApplication]
    num_sessions: int
    #: Commands each session submits every tick.
    commands_per_session: int
    #: Serve-phase ticks (a multiple of the interval plus one, so the serve
    #: phase ends on a cut and the checkpoint phase's rounds end on cuts).
    serve_ticks: int
    #: One command payload from the tick's generator and the session index.
    command: Callable[[np.random.Generator, int], bytes]

    @property
    def num_shards(self) -> int:
        return FLEET_KWARGS["num_shards"]

    @property
    def last_cut_tick(self) -> int:
        return self.serve_ticks - 1 + CHECKPOINT_ROUNDS * INTERVAL

    @property
    def planned_checkpoints(self) -> int:
        """Checkpoints cut at ticks 0, I, ..., ``last_cut_tick``."""
        return self.last_cut_tick // INTERVAL + 1

    def schedule(self, seed: int, tick: int) -> List[Tuple[int, bytes]]:
        """``(session index, payload)`` pairs submitted before ``tick``."""
        rng = np.random.default_rng([seed, tick])
        return [
            (session, self.command(rng, session))
            for session in range(self.num_sessions)
            for _ in range(self.commands_per_session)
        ]


ZIPF_GEOMETRY = StateGeometry(rows=1_000_000, columns=10)
ZIPF_UPDATES_PER_TICK = 64_000
ZIPF_SKEW = 0.8


def _zipf_app(index: int) -> TickApplication:
    return ZipfCellApp(ZIPF_GEOMETRY, ZIPF_UPDATES_PER_TICK, ZIPF_SKEW)


def _zipf_command(rng: np.random.Generator, session: int) -> bytes:
    row = int(rng.integers(ZIPF_GEOMETRY.rows))
    column = int(rng.integers(ZIPF_GEOMETRY.columns))
    value = float(np.float32(rng.random()))
    return f"set:{row}:{column}:{value!r}".encode("ascii")


GAME_SCENARIO = BattleScenario(num_units=8_192)


def _game_app(index: int) -> TickApplication:
    return KnightsArchersGame(GAME_SCENARIO)


def _game_command(rng: np.random.Generator, session: int) -> bytes:
    unit = int(rng.integers(GAME_SCENARIO.num_units))
    kind = int(rng.integers(4))
    if kind == 0:
        return f"heal:{unit}".encode("ascii")
    if kind == 1:
        size = GAME_SCENARIO.arena_size
        x, y = rng.random(2) * size
        return f"teleport:{unit}:{x:.3f}:{y:.3f}".encode("ascii")
    if kind == 2:
        return f"activate:{unit}".encode("ascii")
    return f"deactivate:{unit}".encode("ascii")


WORKLOADS = {
    "zipf-cou": Workload(
        name="zipf-cou",
        fleet_kwargs=dict(
            algorithm="copy-on-update",
            backend="thread",
        ),
        app_factory=_zipf_app,
        num_sessions=4,
        commands_per_session=4,
        serve_ticks=201,
        command=_zipf_command,
    ),
    "game-log": Workload(
        name="game-log",
        fleet_kwargs=dict(
            algorithm="cou-partial-redo",
            backend="process",
        ),
        app_factory=_game_app,
        num_sessions=256,
        commands_per_session=1,
        serve_ticks=301,
        command=_game_command,
    ),
}
