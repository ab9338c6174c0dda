"""Host-speed probes: how fast this machine runs pure Python right now.

A shared virtual machine can change speed by a factor of two within
seconds, and each of its cores on its own.  A timing taken before or after
the measured work misses that, so the benchmark measures the host *during*
the work: a tiny fixed task, the probe, runs at moments spread over it, and
each end-to-end time is multiplied by :data:`PROBE_S` over the mean time of
the probes taken meanwhile.  The probe shares no code with the program, so
a change to the program moves the corrected times as it moves the measured
ones.

In the benchmark process the program's own progress callback takes the
probes (see ``workloads.JobProbes``).  In a daemon, a :class:`Sampler`
thread takes them.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import threading
import time
from collections.abc import Callable

#: Nominal time of one :func:`probe_work` call.  End-to-end timings are
#: reported in seconds of a host on which a probe takes exactly this long.
PROBE_S = 0.0015


def probe_work() -> int:
    """A fixed pure-Python task that shares no code with the program.

    It builds a random graph of small lists and walks it: the kind of
    bytecode the solver executes, so it slows down with the host as the
    workloads do.
    """
    rng = random.Random(7)
    size = 600
    table = [[rng.randrange(size) for _ in range(3)] for _ in range(size)]
    seen = {0: 0}
    queue = [0]
    for node in queue:
        for successor in table[node]:
            if successor not in seen:
                seen[successor] = node
                queue.append(successor)
    return len(seen)


def _run_delay_s() -> float:
    """Seconds this thread has waited for a CPU, or 0 where the kernel does not say."""
    try:
        fd = os.open("/proc/thread-self/schedstat", os.O_RDONLY)
        try:
            return int(os.read(fd, 128).split()[1]) / 1e9
        finally:
            os.close(fd)
    except (OSError, IndexError, ValueError):
        return 0.0


def probe_seconds(beside_workers: bool = False) -> float:
    """Wall time of one :func:`probe_work` call, with the garbage collector off.

    Wall time, not CPU time: when the hypervisor takes the vCPU away (steal
    time), the program slows down, and the kernel leaves that time out of
    CPU time.  A probe taken ``beside_workers`` (in the leader of a busy
    process pool) subtracts the time its thread waited for a CPU, so that it
    measures the core rather than its share of it.  Only such a probe reads
    ``/proc``: a read releases the interpreter lock, and in a daemon whose
    workers hold that lock, getting it back can take milliseconds.  The
    garbage collector is off so that a program that leaves a big heap behind
    cannot slow the probe down and so look faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        waited = _run_delay_s() if beside_workers else 0.0
        probe_work()
        if beside_workers:
            waited = _run_delay_s() - waited
        return time.perf_counter() - started - waited
    finally:
        if enabled:
            gc.enable()


def scale(probes: list[float]) -> float:
    """The correction factor for work during which ``probes`` were taken."""
    return PROBE_S / statistics.fmean(probes)


def steal_ticks() -> tuple[int, int]:
    """Clock ticks of all vCPUs since boot: (stolen, all), from ``/proc/stat``.

    Reads (0, 0) where the kernel does not say.
    """
    try:
        with open("/proc/stat") as stat:
            ticks = [int(value) for value in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return ticks[7], sum(ticks)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """The share of all vCPU time the hypervisor took away between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


class Sampler:
    """Takes a probe every ``interval`` seconds on a thread of its own.

    The thread first calls ``wait_for_start`` and starts probing only if it
    returns true.  Each sample is ``(time.monotonic(), probe seconds)``;
    the monotonic clock is shared by every process of the machine, so another
    process can pick the samples that fall in an interval it timed.
    """

    def __init__(self, wait_for_start: Callable[[], bool], interval: float = 0.05):
        self.samples: list[tuple[float, float]] = []
        self._wait_for_start = wait_for_start
        self._interval = interval
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stopped.set()

    def _run(self) -> None:
        if not self._wait_for_start():
            return
        while not self._stopped.wait(self._interval):
            self.samples.append((time.monotonic(), probe_seconds()))
