"""Host and process readings: CPU steal, load, CPU time, resident memory, I/O.

All of these read ``/proc`` of this host and of the benchmark's own
processes; nothing is written anywhere.
"""

from __future__ import annotations

import os
import platform
import resource
from typing import Dict, Iterable, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_counters() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:]
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user time
    return steal, sum(values[:8])


def steal_share(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    """Share of the host's CPU time stolen by other tenants in an interval."""
    total = end[1] - start[1]
    return (end[0] - start[0]) / total if total > 0 else 0.0


def loadavg() -> str:
    with open("/proc/loadavg") as handle:
        return " ".join(handle.read().split()[:3])


def process_cpu_seconds(pids: Iterable[int]) -> float:
    """User plus system CPU seconds of this process and ``pids``."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def resident_mib(pids: Iterable[int]) -> float:
    """Resident anonymous and shared memory of this process and ``pids``.

    Proportional set sizes (``Pss_Anon`` + ``Pss_Shmem`` of
    ``/proc/<pid>/smaps_rollup``), so pages a forked worker shares with
    this process, and the shared-memory arenas, are counted once.  File
    pages (code, libraries) are left out: their share moves with whatever
    else runs on the host.
    """
    return sum(_private_kib(pid) for pid in ["self", *pids]) / 1024.0


def _private_kib(pid) -> int:
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Pss_Anon:", "Pss_Shmem:")):
                    total += int(line.split()[1])
    except OSError:
        pass
    return total


def read_chars() -> int:
    """``rchar`` of this process: bytes it asked the kernel to read."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    return 0


def tree_bytes(root: str) -> int:
    """Apparent size of every regular file under ``root``."""
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except OSError:
                continue
    return total


def describe() -> Dict[str, object]:
    """The host descriptor printed with every run."""
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
    }
