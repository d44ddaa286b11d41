"""Differential test: lazy row reduction on condensed rows against the frozen eager updates, pivot by pivot.

The engine keeps each tableau row over the nonbasic columns only and reduces
a row other than the pivot row only once its denominator passes
``numerics.ROW_BITS_MAX`` bits; ``_pivot_oracle.EagerSimplex`` updates rows
over every column and reduces every row it touches at once.  Every decision
is a cross-multiplication that no common factor of a row can change, so both
must make the same pivots and flips, hold the same basis, the same flipped
columns and the same rational rows ``T[i] / den[i]``, ``b[i] / den[i]`` and
``d / dden`` after each one, and give the same outcome.  A condensed row is
widened to full width before it is compared: its denominator at its own basic
column and 0 at the other basic columns.  The programs are random ones with
small denominators, random ones with wide denominators that push rows past
the bound, the exposure programs of five shuffled stadium polygons, and the
distance programs of full Hausdorff distances between small polytopes.  The
distance programs bound each dual coordinate by a weight with a wide
denominator, where the random programs' rooms ``upp - low`` have
denominators of 6 at most.  The engine measures a bounded column in units of
its room, so its upper bound is 1, and on such a bound the frozen flips
rescale no row either.

A growth guard runs on every pivot: each row's denominator must stay
within the bound plus the bit length of the reduced pivot row's denominator,
unless the row is in lowest terms.  An engine that never reduces must break it.
The condensed engine's layout is checked after the build and every step:
each live row has ``ncols - len(rows)`` slots, and the slot columns and the
basic columns partition the columns.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _fraction_simplex_oracle as fraction_oracle
from _pivot_oracle import EagerSimplex
from test_simplex_differential import bounded_lps, small
from weakstar import geometry, hypermetrics, numerics
from weakstar.faces import stadium_family
from weakstar.geometry import Polyhedron, max_gap_functional
from weakstar.hypermetrics import hausdorff_full
from weakstar.numerics import SparseVec, _Simplex

BOUND = numerics.ROW_BITS_MAX

# Small values mixed with ones over 30- to 64-bit denominators: a few pivots
# carry an unreduced row past the bound.
wide = st.one_of(small, st.builds(Fraction, st.integers(-(2**66), 2**66), st.integers(2**30, 2**64)))


class GrowthViolation(Exception):
    """A row outgrew the bound without being in lowest terms."""


def lowest(den: int, nums: list[int]) -> tuple[int, ...]:
    """The row ``nums / den`` as integers in lowest terms, ``den`` first."""
    g = gcd(den, *nums)
    return tuple(x // g for x in (den, *nums))


def widened(solver: _Simplex, i: int) -> list[int]:
    """Row i's numerators over every column: ``den[i]`` at its basic column, 0 at the other basic columns."""
    full = [0] * solver.ncols
    for j, x in zip(solver.nb, solver.T[i]):
        full[j] = x
    full[solver.basis[i]] = solver.den[i]
    return full


class FullWidthEager(EagerSimplex):
    """The frozen eager updates on full-width rows.

    The build widens every row and gives each column its own slot, which the
    frozen updates, indexing rows by column, leave as it is.  A basic column's
    reduced cost is then held as 0, so the engine's pricing, ratio test and
    read-off see the same values as on condensed rows.  The frozen flips read
    the engine's integer upper bound ``ub``, 1 or 0, by its numerator and
    denominator.
    """

    def _build_tableau(self):
        super()._build_tableau()
        self.T = [widened(self, i) for i in range(len(self.T))]
        self.nb, self.slot = list(range(self.ncols)), list(range(self.ncols))


def state(solver: _Simplex) -> tuple:
    """Basis, flipped columns, live rows, and each live row and the cost row, at full width, as rationals."""
    rows = tuple(lowest(solver.den[i], [solver.b[i], *widened(solver, i)]) for i in solver.live_rows)
    d = [0] * solver.ncols
    for j, x in zip(solver.nb, solver.d):
        d[j] = x
    return tuple(solver.basis), tuple(solver.flipped), tuple(solver.live_rows), rows, lowest(solver.dden, d)


def check_condensed(solver: _Simplex):
    """Every live row (and the cost row, once made) holds one entry per slot; the slots and the basis partition the columns."""
    width = solver.ncols - len(solver.rows)
    assert len(solver.nb) == width and len(getattr(solver, "d", solver.nb)) == width
    assert all(len(solver.T[i]) == width for i in solver.live_rows)
    assert sorted([*solver.nb, *solver.basis]) == list(range(solver.ncols))
    assert all(solver.slot[j] == q for q, j in enumerate(solver.nb))
    assert all(solver.slot[j] == -1 for j in solver.basis)


def check_growth(solver: _Simplex, r: int):
    """Raise ``GrowthViolation`` if a row outgrew ``BOUND`` plus the pivot row's denominator bits."""
    limit = BOUND + solver.den[r].bit_length()
    rows = [(solver.den[i], [solver.b[i], *solver.T[i]]) for i in solver.live_rows]
    for den, nums in [*rows, (solver.dden, solver.d)]:
        if den.bit_length() > limit and gcd(den, *nums) > 1:
            raise GrowthViolation(f"a {den.bit_length()}-bit denominator past {limit} bits is not in lowest terms")


def run_steps(cls, program, stats: Counter | None = None):
    """Run ``cls`` on ``program``: its outcome and ``(step, arguments, state)`` after every pivot and flip.

    The growth guard checks every pivot, and on the condensed engine
    ``check_condensed`` checks the build and every step.  ``stats`` counts the rows reduced
    lazily (by a pivot, other than the pivot row; a flip rescales no row) as
    ``"reduced"``, the steps after which some row is not in lowest terms as
    ``"unreduced"``, and each step by its name.
    """
    solver = cls(*program)
    condensed = cls is _Simplex
    steps = []
    stats = Counter() if stats is None else stats
    pivot_row = []  # the row a running pivot keeps, or -1 in a flip

    def reduce(i, real=solver._reduce):
        if pivot_row and i != pivot_row[-1]:
            stats["reduced"] += 1
        real(i)

    def recorded(name):
        real = getattr(solver, name)

        def step(*args):
            pivot_row.append(args[0] if name == "_pivot" else -1)
            real(*args)
            pivot_row.pop()
            if name == "_pivot":
                check_growth(solver, args[0])
            if condensed:
                check_condensed(solver)
            snapshot = state(solver)
            if any(row[0] != solver.den[i] for i, row in zip(solver.live_rows, snapshot[3])):
                stats["unreduced"] += 1
            stats[name] += 1
            steps.append((name, args, snapshot))

        return step

    def build(real=solver._build_tableau):
        real()
        if condensed:
            check_condensed(solver)

    solver._reduce = reduce
    solver._build_tableau = build
    for name in ("_pivot", "_flip_nonbasic", "_flip_basic_row"):
        setattr(solver, name, recorded(name))
    try:
        outcome = solver.run()
    except ValueError as exc:
        outcome = ("ValueError", str(exc))
    return outcome, steps


def assert_same_path(program, stats: Counter):
    want, eager_steps = run_steps(FullWidthEager, program)
    got, lazy_steps = run_steps(_Simplex, program, stats)
    assert len(lazy_steps) == len(eager_steps)
    for k, (lazy, eager) in enumerate(zip(lazy_steps, eager_steps)):
        assert lazy == eager, f"step {k} differs"
    assert got == want


def test_engines_agree_pivot_by_pivot():
    stats = Counter()

    @settings(max_examples=300, deadline=None)
    @given(lp=st.one_of(bounded_lps(), bounded_lps(wide)))
    def check(lp):
        assert_same_path(lp[:5], stats)  # the engine only maximizes: drop the sense

    check()
    # The wide programs must really exercise both sides of the bound.
    assert stats["reduced"] > 0
    assert stats["unreduced"] > 0


@cache
def stadium_exposure_programs() -> tuple:
    """The largest-gap programs of every vertex of five shuffled stadiums of 16 and 24 points."""
    programs = []

    def record(variables, objective, rows, *, lower, upper):
        programs.append((variables, objective, rows, lower, upper))
        return numerics.solve_bounded(variables, objective, rows, lower=lower, upper=upper)

    with mock.patch.object(geometry, "solve_bounded", record):
        for seed, count in enumerate((16, 24, 16, 24, 16)):
            points = list(stadium_family(count).vertices)
            random.Random(seed).shuffle(points)
            for v in points:
                max_gap_functional(v, [w for w in points if w != v])
    return tuple(programs)


def test_stadium_exposure_programs_agree_pivot_by_pivot():
    stats = Counter()
    programs = stadium_exposure_programs()
    assert len(programs) == 96
    for program in programs:
        assert_same_path(program, stats)
    assert stats["reduced"] > 0
    assert stats["unreduced"] > 0


def polytope_pairs() -> list[tuple[Polyhedron, Polyhedron]]:
    """Eight pairs of 10-vertex polytopes whose vertices have 3 nonzero coordinates of the form ±w/16 among 8."""
    rng = random.Random(28)

    def polytope() -> Polyhedron:
        points = set()
        while len(points) < 10:
            coords = rng.sample(range(8), 3)
            points.add(SparseVec({k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), 16) for k in coords}))
        return Polyhedron(sorted(points, key=repr))

    return [(polytope(), polytope()) for _ in range(8)]


def hausdorff_distance_programs() -> list:
    """The distance programs ``hausdorff_full`` solves on ``polytope_pairs``, both ways."""
    programs = []

    def record(variables, objective, rows, *, lower, upper):
        programs.append((variables, objective, rows, lower, upper))
        return numerics.solve_bounded(variables, objective, rows, lower=lower, upper=upper)

    with mock.patch.object(hypermetrics, "solve_bounded", record):
        for first, second in polytope_pairs():
            hausdorff_full(first, second)
            hausdorff_full(second, first)
    return programs


def test_hausdorff_distance_programs_agree_pivot_by_pivot():
    stats = Counter()
    programs = hausdorff_distance_programs()
    assert len(programs) == 39
    for program in programs:
        assert_same_path(program, stats)
        variables, objective, rows, lower, upper = program
        got = numerics.solve_bounded(variables, objective, rows, lower=lower, upper=upper)
        assert got == fraction_oracle.solve_bounded(variables, objective, rows, lower=lower, upper=upper)
    assert stats["_flip_nonbasic"] > 0
    assert stats["_flip_basic_row"] > 0


def _never_reduce(self, i):
    pass


@pytest.mark.parametrize(
    "patch",
    [
        mock.patch.object(numerics, "ROW_BITS_MAX", 10**9),
        mock.patch.object(_Simplex, "_reduce", _never_reduce),
    ],
    ids=["no-bound", "no-reduce"],
)
def test_an_engine_that_never_reduces_breaks_the_growth_guard(patch):
    with patch, pytest.raises(GrowthViolation):
        for program in stadium_exposure_programs():
            run_steps(_Simplex, program)

