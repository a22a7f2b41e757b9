"""A machine-speed reference, so that runs minutes apart can be compared.

The 2-core box this benchmark was sized on is a shared VM.  Its speed
moves by 10-30 % and stays moved for anything from a second to a minute
(sizing runs: the same code gave 220k and 317k pps on
``control_churn`` in runs a minute apart).  No statistic over one run's samples
can remove a shift that lasts the whole run.

So the end-to-end run measures the box while it measures the router: a
small fixed kernel of interpreter work (object allocation, attribute and
dict access, integer folding, bytes slicing - the same kind of work the
data path does, but none of its code) is timed every ``MAX_AGE_NS``, and
every duration sample is scaled by ``NOMINAL_NS / kernel time`` as it is
taken.  End-to-end figures therefore read "at nominal speed": what the
box measures when the kernel takes ``NOMINAL_NS``, its quiet state.  In
sizing runs this cut the run-to-run range of a cycle's time from 13 % to
5 % in a noisy spell and changed nothing in a quiet one.

The kernel lives here and not in ``src/``: a PR that claims a gain may
not edit this directory, so it cannot move the reference.  The traced
run (``--trace 1``) is not scaled: it reports ratios, shares and raw
diagnostics, and ``driver.speed_factor`` says what the box was doing.
"""

from __future__ import annotations

from array import array
from statistics import median
from time import perf_counter_ns

NOMINAL_NS = 600_000         # the kernel on the sizing box when it is quiet
MAX_AGE_NS = 50_000_000      # re-measure when the last reading is older
REPEATS = 5                  # median of, to step over a preemption


class _Cell:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        self.c = None
        self.d = 0


_TABLE = {i: i * 7 for i in range(1024)}
_DATA = bytes(range(256)) * 8


def kernel() -> int:
    """~0.6 ms of fixed interpreter work; returns its duration in ns."""
    start = perf_counter_ns()
    cells = []
    get, keep, data = _TABLE.get, cells.append, _DATA
    total = 0
    for i in range(1500):
        cell = _Cell(i, i ^ 0x5A5A)
        fold = cell.a ^ cell.b
        fold ^= fold >> 16
        value = get(fold & 1023)
        if value is not None:
            cell.c = value
            cell.d += 1
        total += len(data[i & 255:(i & 255) + 64])
        keep(cell)
    return perf_counter_ns() - start


class Speed:
    """``current()`` is the factor to multiply a duration taken now by."""

    def __init__(self):
        self.factor = 1.0
        self.readings = array("d")
        self._due = 0

    def measure(self) -> float:
        self.factor = NOMINAL_NS / median(kernel() for _ in range(REPEATS))
        self.readings.append(self.factor)
        self._due = perf_counter_ns() + MAX_AGE_NS
        return self.factor

    def current(self) -> float:
        if perf_counter_ns() >= self._due:
            return self.measure()
        return self.factor


class Unscaled:
    """Stands in for :class:`Speed` where durations stay raw."""

    factor = 1.0

    def current(self) -> float:
        return 1.0

    measure = current


UNSCALED = Unscaled()
