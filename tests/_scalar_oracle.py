"""Frozen copy of the case-by-case scalar Hausdorff distance, kept as a test oracle.

These are the four helpers and ``_hausdorff_scalar`` as ``weakstar.hypermetrics``
shipped before its single excess rule, copied verbatim: one case per pair of
``FinitePoints``/``Interval`` kinds, each writing its infinite-end conventions
by hand.  ``test_hypermetrics.py::TestScalarDifferential`` requires the current
rule to return the same value, of the same type, on every pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import Union

from weakstar.geometry import FinitePoints, Interval, ScalarSet

Distance = Union[Fraction, float]  # a rational or +inf


def _point_to_interval(x: Fraction, lo, hi) -> Distance:
    below = (lo - x) if lo != -inf else Fraction(0)
    above = (x - hi) if hi != inf else Fraction(0)
    return max(below, above, Fraction(0))


def _excess_interval_over_interval(a, b, c, d) -> Distance:
    """sup over [a,b] of the distance to [c,d], with infinite-end conventions."""
    if c == -inf:
        low_gap: Distance = Fraction(0)
    elif a == -inf:
        low_gap = inf
    else:
        low_gap = c - a
    if d == inf:
        high_gap: Distance = Fraction(0)
    elif b == inf:
        high_gap = inf
    else:
        high_gap = b - d
    return max(low_gap, high_gap, Fraction(0))


def _excess_points_over_interval(xs, lo, hi) -> Distance:
    return max(_point_to_interval(x, lo, hi) for x in xs)


def _excess_interval_over_points(a, b, xs) -> Distance:
    if a == -inf or b == inf:
        return inf
    # The distance-to-finite-set function is piecewise linear with breakpoints
    # at midpoints of consecutive points; its max over [a,b] is attained at an
    # interval end or a breakpoint inside.
    candidates = [a, b]
    for left, right in zip(xs, xs[1:]):
        mid = (left + right) / 2
        candidates.append(min(max(mid, a), b))
    return max(min(abs(y - x) for x in xs) for y in candidates)


def _hausdorff_scalar(first: ScalarSet, second: ScalarSet) -> Distance:
    if isinstance(first, FinitePoints) and isinstance(second, FinitePoints):
        xs, ys = first.values, second.values
        one = max(min(abs(x - y) for y in ys) for x in xs)
        two = max(min(abs(x - y) for x in xs) for y in ys)
        return max(one, two)
    if isinstance(first, Interval) and isinstance(second, Interval):
        one = _excess_interval_over_interval(first.lower, first.upper, second.lower, second.upper)
        two = _excess_interval_over_interval(second.lower, second.upper, first.lower, first.upper)
        return max(one, two)
    if isinstance(first, FinitePoints):
        points, interval = first, second
    else:
        points, interval = second, first
    one = _excess_points_over_interval(points.values, interval.lower, interval.upper)
    two = _excess_interval_over_points(interval.lower, interval.upper, points.values)
    return max(one, two)
