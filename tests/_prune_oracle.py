"""Frozen copy of the quadratic vertex pruning, kept as a test oracle.

This is ``_prune_vertices`` as ``weakstar.geometry`` shipped before its
output-sensitive pruning, copied verbatim together with the boolean
``_combination_feasible`` it calls: every vertex is tested against all the
others still kept.  ``test_geometry.py::TestPruneDifferential`` requires the
current pruning to return exactly what this one returns on distinct vertices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from weakstar.numerics import BoundedOptimal, SparseVec, solve_bounded


def _combination_feasible(
    target: SparseVec,
    points: Sequence[SparseVec],
    rays: Sequence[SparseVec],
    *,
    affine: bool,
) -> bool:
    """Is target = sum a_i p_i + sum b_j r_j with a, b >= 0 (and sum a = 1 if affine)?"""
    coords: set[int] = set(target.support)
    for g in points:
        coords.update(g.support)
    for g in rays:
        coords.update(g.support)
    variables = [("a", i) for i in range(len(points))] + [("b", j) for j in range(len(rays))]
    rows: list = []
    if affine:
        rows.append(({("a", i): Fraction(1) for i in range(len(points))}, "=", Fraction(1)))
    for k in sorted(coords):
        coeffs: dict = {}
        for i, g in enumerate(points):
            v = g.get(k)
            if v:
                coeffs[("a", i)] = v
        for j, g in enumerate(rays):
            v = g.get(k)
            if v:
                coeffs[("b", j)] = v
        rows.append((coeffs, "=", target.get(k)))
    out = solve_bounded(variables, {}, rows)
    return isinstance(out, BoundedOptimal)


def _prune_vertices(vertices: Sequence[SparseVec], rays: Sequence[SparseVec]) -> tuple[SparseVec, ...]:
    keep = list(vertices)
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :]
        if rest and _combination_feasible(keep[i], rest, rays, affine=True):
            del keep[i]
        else:
            i += 1
    return tuple(keep)
