"""Host-speed calibration: a fixed pure-Python kernel timed beside the workload.

The shared virtual machines this benchmark runs on change speed by up to
2x, for seconds or for minutes at a time, as other tenants load the host.
A run cannot avoid that, but it can measure it: ``kernel`` does the same
work on every call, independent of the simulator's code, and its time
follows the host's speed.  The benchmark times the kernel between cells
and reports host time *at the reference speed*::

    reference seconds = host seconds * REFERENCE_S / mean(kernel seconds)

so a run in a slow phase and one in a fast phase of the same code report
nearly the same figure, while a change that makes the simulator faster or
slower moves it as it moves host seconds.  The kernel resembles the
simulator's own work (a heap-ordered event loop of dictionary lookups,
attribute updates and method calls on a small, cache-resident table).
Compared with a kernel that allocates and walks a 10 MB table, it follows
the slow phases of simulator cells more closely (raytrace and tpc-b cells
scaled by it spread 19% and 13% where the raw cells spread 24% and 22%,
against 22% and 16% for the larger kernel).
"""

from __future__ import annotations

import functools
import gc
import heapq
import statistics
import time

#: The kernel's duration, in seconds, at the reference speed: about what
#: it takes on a 2-vCPU Xeon virtual machine (Python 3.11) in a fast
#: phase.  Only a scale factor: it maps kernel time to host seconds.
REFERENCE_S = 0.36

#: Summary key of the kernel seconds timed after a pool worker's cell.
CELL_KEY = "_perfbench_calibration_s"

#: Objects in the kernel's table and steps it takes.
LINES = 1 << 10
STEPS = 400_000

#: Share of a run's host time spent in the kernel, between cells: a
#: half-second call is itself 10-15% noisy on a shared host, and that
#: noise averages out only over many calls.
SHARE = 1 / 3


class _Line:
    __slots__ = ("tag", "state", "value", "hits")

    def __init__(self, tag: int):
        self.tag, self.state, self.value, self.hits = tag, 0, tag * 3, 0

    def touch(self, word: int) -> int:
        self.hits += 1
        if self.state == 0:
            self.state = 1
        elif word & 3 == 0:
            self.state = 2
        self.value ^= word
        return self.value & 7


def kernel() -> float:
    """Run the fixed calibration work once; returns its host seconds.

    Cyclic garbage collection is paused while it runs, as it is in every
    cell: otherwise its cost would grow with whatever else the calling
    process holds, and the kernel would not do the same work everywhere.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        mask = LINES - 1
        table = {i: _Line(i) for i in range(LINES)}
        queue = [(i, i) for i in range(64)]
        heapq.heapify(queue)
        x, acc = 12345, 0
        for _ in range(STEPS):
            when, slot = heapq.heappop(queue)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            acc += table[(x >> 4) & mask].touch(x)
            heapq.heappush(queue, (when + 1 + (x & 15), slot))
        del table, queue
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return seconds


def beside(seconds: float) -> list[float]:
    """Kernel runs for :data:`SHARE` of the host time, counting ``seconds``
    of work just done: at least one.  Returns their host seconds."""
    budget = seconds * SHARE / (1 - SHARE)
    samples = [kernel()]
    while sum(samples) < budget:
        samples.append(kernel())
    return samples


def after_each_cell(runner) -> None:
    """Make ``runner.run_cell`` run the kernel after each cell, as
    :func:`beside` does.

    The kernel seconds go on the cell's summary under :data:`CELL_KEY`.
    Installed before a pool forks, this times the kernel in the pool
    workers, where the cells run, between their cells.
    """
    run_cell = runner.run_cell

    @functools.wraps(run_cell)
    def calibrated_run_cell(*args, **kwargs):
        start = time.perf_counter()
        summary = run_cell(*args, **kwargs)
        summary[CELL_KEY] = beside(time.perf_counter() - start)
        return summary

    runner.run_cell = calibrated_run_cell


def speed(samples: list[float]) -> float:
    """Host speed relative to the reference (below 1: slower) from kernel times."""
    return REFERENCE_S / statistics.mean(samples)


def at_reference(seconds: float, samples: list[float]) -> float:
    """Host ``seconds`` measured at the speed the kernel ``samples`` show,
    as the seconds they would have been at the reference speed."""
    return seconds * speed(samples)
