"""Re-execution oracle: each shard's state recomputed on a plain numpy array.

The oracle replays a shard's history with nothing but the application's
deterministic planner and numpy fancy assignment: the initial state from the
shard's seed, then every tick's plan given the commands the front door
acknowledged as APPLIED in that tick.  It uses no engine, checkpoint, log,
transport or recovery code, so agreement with the fleet's checkpoint images
and recovered tables is evidence that those paths are right.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Set

import numpy as np

from workloads import Workload, pack_commands


class PlainTable:
    """The two attributes a planner reads, over a caller-owned array."""

    def __init__(self, geometry, cells: np.ndarray) -> None:
        self.geometry = geometry
        self.cells = cells


def reexecute(
    workload: Workload,
    fleet_seed: int,
    index: int,
    commands: Dict[int, List[bytes]],
    ticks: int,
    expected: Dict[int, str],
) -> Set[int]:
    """Re-execute shard ``index`` for ``ticks`` ticks; return the ticks whose
    state's :func:`digest` differs from ``expected[tick]``.

    ``commands[tick]`` lists the shard's applied commands of that tick in
    application order.
    """
    app = workload.app_factory(index)
    geometry = app.geometry
    flat = np.zeros(geometry.num_cells, dtype=app.dtype)
    table = PlainTable(geometry, flat.reshape(geometry.rows, geometry.columns))
    rng = np.random.default_rng(fleet_seed + index)
    app.initialize(table, rng)
    mismatched: Set[int] = set()
    for tick in range(ticks):
        plan = app.plan_tick_with_commands(
            table, rng, tick, pack_commands(commands.get(tick, []))
        )
        table.cells[plan.rows, plan.columns] = plan.values
        if tick in expected and digest(flat) != expected[tick]:
            mismatched.add(tick)
    return mismatched


def digest(cells: np.ndarray) -> str:
    """Digest of a flat cell array's bits: equal digests, equal bits."""
    return hashlib.blake2b(cells.view(np.uint8), digest_size=16).hexdigest()
