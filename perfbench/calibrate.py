"""Host-speed calibration: a fixed reference computation timed beside every measurement.

The benchmark runs on a few cores of a shared host.  There the speed of one
process swings by up to a factor of two within seconds, with no load of its
own, and CPU time swings with wall time.  A plain wall-clock figure then
measures the host as much as the program.

So every timed step is bracketed by timings of ``reference()``, an exact
rational row reduction written with the standard library only.  It does the
same kind of work as the program's simplex (``Fraction`` arithmetic over lists),
it never changes, and it does not touch the code under test.  A step that took
``t`` seconds while the reference took ``r`` seconds is reported as
``t * NOMINAL_S / r``: its duration in seconds on a host where the reference
takes ``NOMINAL_S`` (about what 2 shared Xeon cores at 2.1 GHz with
CPython 3.11 give).  A program change moves ``t`` and leaves ``r`` alone; a
slower host moves both.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005
REPEATS = 3
SIZE = 10


def reference() -> list[list[Fraction]]:
    """Gauss-Jordan elimination on a fixed 10 x 11 rational matrix."""
    x = 12345
    rows = []
    for _ in range(SIZE):
        row = []
        for _ in range(SIZE + 1):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(Fraction(x % 19 - 9, x % 7 + 1))
        rows.append(row)
    for c in range(SIZE):
        p = next((r for r in range(c, SIZE) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(SIZE):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


def sample() -> float:
    """The reference's current duration: the median of ``REPEATS`` timings."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """The factor from measured seconds to nominal seconds, given the reference around a step."""
    return NOMINAL_S / ((before + after) / 2)
