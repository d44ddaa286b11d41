import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fraction_simplex_oracle import BoundedUnbounded as OracleUnbounded
from _fraction_simplex_oracle import solve_bounded as oracle_solve
from weakstar import numerics
from weakstar.errors import CertificateError, ParseError, PreconditionError, WeakstarError
from weakstar.numerics import (
    BoundedInfeasible,
    BoundedOptimal,
    SparseVec,
    as_rational,
    l1_norm,
    pair,
    solve_bounded,
    sup_norm,
)

F = Fraction


def vec(**kw):
    return SparseVec({int(k[1:]): v for k, v in kw.items()})


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def sparse_vecs(draw, max_index=8):
    n = draw(st.integers(min_value=0, max_value=5))
    idx = draw(st.lists(st.integers(min_value=0, max_value=max_index), min_size=n, max_size=n, unique=True))
    vals = draw(st.lists(rationals, min_size=n, max_size=n))
    return SparseVec(dict(zip(idx, vals)))


class TestSparseVec:
    def test_zero_entries_are_dropped(self):
        v = SparseVec({0: F(1), 1: F(0), 2: F(3, 4)})
        assert v.support == (0, 2)
        assert v.get(1) == 0

    def test_equality_is_entrywise(self):
        assert SparseVec({1: F(1, 2)}) == SparseVec({1: F(2, 4)})
        assert SparseVec({1: F(1, 2)}) != SparseVec({2: F(1, 2)})

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SparseVec({-1: F(1)})

    def test_basis_and_zero(self):
        assert SparseVec.basis(3) == SparseVec({3: 1})
        assert not SparseVec.zero()
        assert SparseVec.basis(2, 0) == SparseVec.zero()

    def test_arithmetic(self):
        a = vec(x0=F(1), x1=F(2))
        b = vec(x1=F(-2), x4=F(1, 3))
        assert a + b == SparseVec({0: 1, 4: F(1, 3)})
        assert a - a == SparseVec.zero()
        assert a.scale(F(-1, 2)) == SparseVec({0: F(-1, 2), 1: -1})
        assert -b == SparseVec({1: 2, 4: F(-1, 3)})

    def test_hashable(self):
        assert len({SparseVec({0: 1}), SparseVec({0: F(2, 2)}), SparseVec.zero()}) == 2

    def test_bool_index_and_value_rejected(self):
        with pytest.raises(ValueError):
            SparseVec({True: 1})
        with pytest.raises(TypeError):
            SparseVec({0: True})
        with pytest.raises(TypeError):
            as_rational(False)


class TestRationalLiterals:
    @pytest.mark.parametrize(
        "text, value",
        [("0", F(0)), ("-0", F(0)), ("7", F(7)), ("-3/4", F(-3, 4)), ("2/4", F(1, 2))]
        + [pytest.param("-" + "9" * 1000 + "/" + "9" * 1000, F(-1), id="1000-digit-parts")],
    )
    def test_grammar_accepted(self, text, value):
        assert as_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "1e200000", "1e-3", "1.5", "1_000", " 3/4 ", "3/4\n", "+1", "01", "1/0", "1/-2", "--1", "\u0663", "9" * 5000]
        + [pytest.param("1/" + "9" * 1001, id="1001-digit-denominator")],
    )
    def test_anything_else_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="rational literal"):
            as_rational(text)

    @pytest.mark.parametrize("q", [F(10**5000), F(1, 10**5000)], ids=["numerator", "denominator"])
    def test_part_too_long_to_write_is_a_precondition_error(self, q):
        with pytest.raises(PreconditionError, match=f"more than {sys.get_int_max_str_digits()} digits"):
            numerics.rational_to_str(q)


class TestPairAndNorms:
    def test_single_coordinate_pairing(self):
        assert pair(SparseVec.basis(3), SparseVec({3: F(5, 2)})) == F(5, 2)

    def test_zero_functional(self):
        assert pair(SparseVec.zero(), SparseVec({0: 7, 2: F(1, 3)})) == 0

    def test_direct_arithmetic(self):
        a = SparseVec({0: 1, 1: 2})
        s = SparseVec({0: F(1, 2), 1: F(-1, 4)})
        assert pair(a, s) == 0

    def test_norms(self):
        assert l1_norm(SparseVec({0: 3, 1: -2})) == 5
        assert sup_norm(SparseVec({0: 1, 1: 2})) == 2
        assert l1_norm(SparseVec.zero()) == 0
        assert sup_norm(SparseVec.zero()) == 0

    @given(a=sparse_vecs(), s=sparse_vecs(), t=sparse_vecs(), alpha=rationals, beta=rationals)
    @settings(max_examples=120)
    def test_pair_bilinear(self, a, s, t, alpha, beta):
        combo = s.scale(alpha) + t.scale(beta)
        assert pair(a, combo) == alpha * pair(a, s) + beta * pair(a, t)
        assert pair(combo, a) == alpha * pair(s, a) + beta * pair(t, a)

    @given(a=sparse_vecs(), s=sparse_vecs())
    @settings(max_examples=120)
    def test_hoelder(self, a, s):
        assert abs(pair(a, s)) <= sup_norm(a) * l1_norm(s)


def dot(coeffs, x):
    return sum((F(c) * x.get(v, 0) for v, c in coeffs.items()), F(0))


def check_outcome(variables, objective, rows, out, *, lower=None, upper=None):
    """Re-check an outcome against the problem data, independently of the engine.

    The engine has no ray outcome; a ray comes from the frozen oracle, for a
    program the engine refuses as unbounded.
    """
    lower, upper = lower or {}, upper or {}

    def holds(lhs, rel, rhs):
        return {"<=": lhs <= rhs, "=": lhs == rhs, ">=": lhs >= rhs}[rel]

    if isinstance(out, BoundedOptimal):
        x = out.assignment
        assert all(lower.get(v, 0) <= x[v] and (v not in upper or x[v] <= upper[v]) for v in variables)
        assert all(holds(dot(coeffs, x), rel, rhs) for coeffs, rel, rhs in rows)
        assert dot(objective, x) == out.value
    elif isinstance(out, OracleUnbounded):
        ray = out.ray
        assert ray and all(ray.get(v, 0) >= 0 and (v not in upper or ray.get(v, 0) == 0) for v in variables)
        assert all(holds(dot(coeffs, ray), rel, 0) for coeffs, rel, _ in rows)
        assert dot(objective, ray) > 0
    else:
        y = out.row_multipliers
        assert len(y) == len(rows)
        assert all((rel != "<=" or m <= 0) and (rel != ">=" or m >= 0) for m, (_, rel, _) in zip(y, rows))
        g = {v: sum((m * F(coeffs.get(v, 0)) for m, (coeffs, _, _) in zip(y, rows)), F(0)) for v in variables}
        # Any feasible x has g . x >= sum y_i b_i; the box caps g . x below it.
        assert all(c <= 0 or v in upper for v, c in g.items())
        box_max = sum((c * (upper[v] if c > 0 else lower.get(v, 0)) for v, c in g.items() if c), F(0))
        assert sum((m * F(rhs) for m, (_, _, rhs) in zip(y, rows)), F(0)) > box_max


def split(coeffs):
    """A free variable i as the difference of nonnegative ("+", i) and ("-", i)."""
    out = {}
    for i, c in coeffs.items():
        out[("+", i)], out[("-", i)] = F(c), -F(c)
    return out


def joined(assignment, n):
    return {i: assignment[("+", i)] - assignment[("-", i)] for i in range(n)}


class TestLpSolve:
    """Small programs with known optima and witnesses."""

    def test_single_upper_bound(self):
        out = solve_bounded([0], {0: F(1)}, [({0: F(1)}, "<=", F(3))])
        assert out == BoundedOptimal(F(3), {0: F(3)})

    def test_unbounded_direction(self):
        # The surplus of the only row enters; the message must not name it
        # as one of the caller's variables.
        problem = ([0], {0: F(1)}, [({0: F(1)}, ">=", F(0))])
        with pytest.raises(ValueError, match="unbounded.*slack column 1"):
            solve_bounded(*problem)
        ray = oracle_solve(*problem).ray
        assert dot({0: F(1)}, ray) > 0

    def test_triangle(self):
        rows = [({0: F(1)}, ">=", F(0)), ({1: F(1)}, ">=", F(0)), ({0: F(1), 1: F(1)}, "<=", F(1))]
        out = solve_bounded([0, 1], {0: F(1), 1: F(1)}, rows)
        assert isinstance(out, BoundedOptimal)
        assert out.value == 1

    def test_infeasible_certificate(self):
        # The finite lower bound lets x0 go negative, so only the rows conflict.
        rows = [({0: F(1)}, "<=", F(0)), ({0: F(1)}, ">=", F(1))]
        out = solve_bounded([0], {0: F(1)}, rows, lower={0: F(-5)})
        assert isinstance(out, BoundedInfeasible)
        check_outcome([0], {0: F(1)}, rows, out, lower={0: F(-5)})

    def test_minimization(self):
        # min x0 + 2 x1 is max -x0 - 2 x1: the same internal cost row, pivots and witness.
        rows = [({0: F(1), 1: F(1)}, ">=", F(1)), ({0: F(1)}, ">=", F(0)), ({1: F(1)}, ">=", F(0))]
        out = solve_bounded([0, 1], {0: F(-1), 1: F(-2)}, rows)
        assert isinstance(out, BoundedOptimal)
        assert -out.value == 1
        assert out.assignment == {0: F(1), 1: F(0)}

    def test_equality_row(self):
        rows = [
            ({0: F(1), 1: F(1)}, "=", F(2)),
            ({0: F(1)}, "<=", F(1, 2)),
            ({1: F(1)}, ">=", F(0)),
            ({0: F(1)}, ">=", F(0)),
        ]
        out = solve_bounded([0, 1], {0: F(3), 1: F(1)}, rows)
        assert isinstance(out, BoundedOptimal)
        assert out.value == F(3, 2) + F(3, 2)
        assert out.assignment == {0: F(1, 2), 1: F(3, 2)}

    def test_degenerate_cycling_guard(self):
        # A classically degenerate instance; Bland's rule must terminate.
        rows = [
            ({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, "<=", F(0)),
            ({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, "<=", F(0)),
            ({2: F(1)}, "<=", F(1)),
            *(({i: F(1)}, ">=", F(0)) for i in range(4)),
        ]
        out = solve_bounded(list(range(4)), {0: F(3, 4), 1: F(-150), 2: F(1, 50), 3: F(-6)}, rows)
        assert isinstance(out, BoundedOptimal)
        assert out.value == F(1, 20)

    def test_negative_rhs_path(self):
        # Split x0 so the rows keep their negative right-hand sides.
        rows = [(split({0: 1}), "<=", F(-2)), (split({0: 1}), ">=", F(-10))]
        out = solve_bounded([("+", 0), ("-", 0)], split({0: 1}), rows)
        assert isinstance(out, BoundedOptimal)
        assert out.value == -2
        assert joined(out.assignment, 1) == {0: F(-2)}

    def test_deterministic(self):
        rows = [
            ({0: F(1), 1: F(2)}, "<=", F(4)),
            ({0: F(2), 1: F(1)}, "<=", F(4)),
            ({0: F(1)}, ">=", F(0)),
            ({1: F(1)}, ">=", F(0)),
        ]
        problem = ([0, 1], {0: F(1), 1: F(1)}, rows)
        assert solve_bounded(*problem) == solve_bounded(*problem)


class TestSolveBounded:
    def test_pure_box(self):
        out = solve_bounded(
            ["a", "b"],
            {"a": F(2), "b": F(-3)},
            [],
            lower={"a": F(-1), "b": F(-2)},
            upper={"a": F(5), "b": F(4)},
        )
        assert out.value == 2 * 5 + (-3) * (-2)
        assert out.assignment == {"a": F(5), "b": F(-2)}

    def test_upper_bound_flip_with_rows(self):
        # Optimum forces one variable to its upper bound through a coupling row.
        out = solve_bounded(
            ["a", "b"],
            {"a": F(1), "b": F(1)},
            [({"a": F(1), "b": F(1)}, "<=", F(3))],
            upper={"a": F(2), "b": F(2)},
        )
        assert out.value == 3

    def test_infeasible_with_bounds(self):
        out = solve_bounded(
            ["a"],
            {"a": F(1)},
            [({"a": F(1)}, ">=", F(7))],
            upper={"a": F(2)},
        )
        assert hasattr(out, "row_multipliers")

    def test_unbounded_reports_ray(self):
        problem = (["a", "b"], {"a": F(1)}, [({"b": F(1)}, "<=", F(1))])
        with pytest.raises(ValueError, match="unbounded.*'a'"):
            solve_bounded(*problem)
        assert oracle_solve(*problem).ray == {"a": F(1)}

    def test_equality_negative_rhs(self):
        # min a - b, as max b - a.
        out = solve_bounded(
            ["a", "b"],
            {"a": F(-1), "b": F(1)},
            [({"a": F(1), "b": F(-2)}, "=", F(-4))],
        )
        assert -out.value == -2  # a=0, b=2
        assert out.assignment == {"a": F(0), "b": F(2)}


def box_oracle(c, lo, hi):
    return sum((ci * (hi[i] if ci > 0 else lo[i]) for i, ci in enumerate(c)), F(0))


@given(
    data=st.lists(
        st.tuples(small_rationals, small_rationals, small_rationals),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=80, deadline=None)
def test_box_lp_against_closed_form(data):
    c = [t[0] for t in data]
    lo = [min(t[1], t[2]) for t in data]
    hi = [max(t[1], t[2]) for t in data]
    n = len(c)
    rows = [({i: F(1)}, rel, bound) for i in range(n) for rel, bound in ((">=", lo[i]), ("<=", hi[i]))]
    # The box sits inside [-5, 5], so the finite lower bound never binds.
    out = solve_bounded(list(range(n)), dict(enumerate(c)), rows, lower=dict.fromkeys(range(n), F(-5)))
    assert isinstance(out, BoundedOptimal)
    assert out.value == box_oracle(c, lo, hi)


@given(
    c=st.lists(small_rationals, min_size=1, max_size=5),
    total=st.fractions(min_value=0, max_value=20, max_denominator=8),
)
@settings(max_examples=80, deadline=None)
def test_simplex_lp_against_max_coefficient(c, total):
    n = len(c)
    rows = [(dict.fromkeys(range(n), F(1)), "=", total)] + [({i: F(1)}, ">=", F(0)) for i in range(n)]
    out = solve_bounded(list(range(n)), dict(enumerate(c)), rows)
    assert isinstance(out, BoundedOptimal)
    assert out.value == total * max(c)


@given(
    seedrows=st.lists(
        st.tuples(st.lists(small_rationals, min_size=3, max_size=3), small_rationals),
        min_size=0,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_fuzz_outcomes_always_verify(seedrows):
    # Random rows through the origin-feasible halfspace family over three free
    # variables; whatever the outcome, it must re-check against the rows.  An
    # unbounded program raises, and the frozen oracle's ray must then verify.
    variables = [(sign, i) for i in range(3) for sign in "+-"]
    objective = split({0: F(1), 1: F(-1), 2: F(1, 3)})
    rows = [(split(dict(enumerate(coeffs))), "<=", abs(rhs)) for coeffs, rhs in seedrows]
    try:
        out = solve_bounded(variables, objective, rows)
    except ValueError:
        out = oracle_solve(variables, objective, rows)
        assert isinstance(out, OracleUnbounded)
    check_outcome(variables, objective, rows, out)
    assert not isinstance(out, BoundedInfeasible)  # the origin is always feasible


# A pivot that corrupts the right side of its row by +1.  Every later step is
# exact, so the returned assignment solves a different system and the
# post-solve certification must reject it, whatever the interpreter mode.
CORRUPTED_PIVOT = """
import sys
from fractions import Fraction as F
from weakstar import numerics
from weakstar.errors import CertificateError

pivot = numerics._Simplex._pivot

def corrupted(self, r, e):
    pivot(self, r, e)
    self.b[r] += self.den[r]

problem = (["x", "y"], {"x": F(1), "y": F(1)},
           [({"x": F(1), "y": F(2)}, "<=", F(4)), ({"x": F(3), "y": F(1)}, "<=", F(6))])
print("optimize", sys.flags.optimize)
print("clean", numerics.solve_bounded(*problem).value)
numerics._Simplex._pivot = corrupted
try:
    numerics.solve_bounded(*problem)
except CertificateError as exc:
    print("rejected", exc)
else:
    print("accepted")
"""


# Phase 2 stopped before its first pivot: the origin is feasible for the
# max x+y problem above, so only the dual certificate can reject it.
PREMATURE_OPTIMUM = """
import sys
from fractions import Fraction as F
from weakstar import numerics
from weakstar.errors import CertificateError

iterate = numerics._Simplex._iterate

def premature(self, allow_artificials):
    return iterate(self, allow_artificials) if allow_artificials else None

problem = (["x", "y"], {"x": F(1), "y": F(1)},
           [({"x": F(1), "y": F(2)}, "<=", F(4)), ({"x": F(3), "y": F(1)}, "<=", F(6))])
print("optimize", sys.flags.optimize)
print("clean", numerics.solve_bounded(*problem).value)
numerics._Simplex._iterate = premature
try:
    numerics.solve_bounded(*problem)
except CertificateError as exc:
    print("rejected", exc)
else:
    print("accepted")
"""


# A tableau built with one right side off by +1.  The distance LP against a
# one-vertex body has one row, tight at the optimum, so the tableau's optimum
# breaks the caller's own row and the witness check must reject it.
PERTURBED_RIGHT_SIDE = """
import sys
from fractions import Fraction as F
from weakstar import numerics
from weakstar.errors import CertificateError
from weakstar.geometry import Polyhedron
from weakstar.hypermetrics import point_body_distance
from weakstar.numerics import SparseVec

build = numerics._Simplex._build_tableau

def perturbed(self):
    build(self)
    self.b[0] += self.den[0]

sigma, body = SparseVec({0: F(1, 2)}), Polyhedron([SparseVec({1: F(1, 2)})])
print("optimize", sys.flags.optimize)
print("clean", point_body_distance(sigma, body))
numerics._Simplex._build_tableau = perturbed
try:
    point_body_distance(sigma, body)
except CertificateError as exc:
    print("rejected", exc)
else:
    print("accepted")
"""


# Every caller that reads an LP outcome or a computed table checks it.  With
# the LP replaced by one that never finds an optimum, the limit table made
# non-monotone and the demo's gaps made infinite, each must raise
# CertificateError, whatever the interpreter mode, rather than fail on a
# missing attribute or carry on with the bad value.
NON_OPTIMAL_LP = """
import contextlib, io, math, sys
from fractions import Fraction as F
from weakstar import cli, geometry, hypermetrics, limits
from weakstar.errors import CertificateError
from weakstar.faces import exposure_certificate
from weakstar.geometry import Polyhedron
from weakstar.hypermetrics import immeasurable_witness, point_body_distance, separating_direction
from weakstar.numerics import BoundedInfeasible, SparseVec

def expect_rejected(name, check):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            check()
    except CertificateError:
        print(name, "rejected")
    else:
        print(name, "accepted")

e0, e1 = SparseVec({0: 1}), SparseVec({1: 1})
segment = Polyhedron([SparseVec.zero(), e0])
square = Polyhedron([SparseVec.zero(), e0, e1, e0 + e1])
print("optimize", sys.flags.optimize)

table = iter([F(0), F(1), F(0)])
limits.membership = lambda *args: True
limits.hausdorff_full = lambda *args: next(table)
expect_rejected("monotone_limit", lambda: limits.monotone_limit(limits.SequencePrefix([segment] * 3, 0)))

cli.pseudometric_dH = lambda *args: math.inf
expect_rejected("demo", lambda: cli.main(["demo", "--spikes", "1", "--directions", "1"]))

geometry.solve_bounded = hypermetrics.solve_bounded = lambda *args, **kwargs: BoundedInfeasible([])
expect_rejected("exposure_certificate", lambda: exposure_certificate(square, e0))
expect_rejected("separating_direction", lambda: separating_direction(square, segment))
expect_rejected("immeasurable_witness", lambda: immeasurable_witness(Polyhedron([e0], [e0]), Polyhedron([e0], [e1])))
expect_rejected("point_body_distance", lambda: point_body_distance(e1, segment))
"""


# Vertex pruning reads a separating functional off the Farkas multipliers of a
# failed combination LP.  With every certificate negated, the functional
# points the wrong way, and closed_convex_hull must reject it in every
# interpreter mode rather than prune with it.
NON_SEPARATING_FUNCTIONAL = """
import sys
from fractions import Fraction as F
from weakstar import geometry
from weakstar.errors import CertificateError
from weakstar.geometry import PointSet, closed_convex_hull
from weakstar.numerics import BoundedInfeasible, SparseVec

solve = geometry.solve_bounded

def negated(*args, **kwargs):
    out = solve(*args, **kwargs)
    if isinstance(out, BoundedInfeasible):
        return BoundedInfeasible([-y for y in out.row_multipliers])
    return out

e0, e1 = SparseVec({0: 1}), SparseVec({1: 1})
square = PointSet([SparseVec.zero(), e0, e1, e0 + e1, (e0 + e1).scale(F(1, 2))])
print("optimize", sys.flags.optimize)
print("clean", len(closed_convex_hull(square).vertices))
geometry.solve_bounded = negated
try:
    closed_convex_hull(square)
except CertificateError as exc:
    print("rejected", exc)
else:
    print("accepted")
"""


# The separation check at its boundaries, with the LP replaced by one that
# returns chosen Farkas multipliers (the convexity row's, then one per
# coordinate): a functional that ties the target with a point, that is 0 on
# the target when there are no points, or that is positive on a ray does not
# separate; one that is 0 on a ray does.  Denominators differ between the
# functional, the target and the points, so the integer comparison must
# cross-multiply.
SEPARATION_BOUNDARIES = """
import sys
from fractions import Fraction as F
from weakstar import geometry
from weakstar.errors import CertificateError
from weakstar.numerics import BoundedInfeasible, SparseVec

def v(*xs):
    return SparseVec(enumerate(xs))

TABLE = [
    ("separates", v(F(1, 3), 0), [v(0, 0), v(F(1, 5), 7)], [], [F(0), F(3, 5), F(0)]),
    ("tie", v(F(1, 3), 0), [v(0, 0), v(F(1, 3), F(5, 11))], [], [F(0), F(3, 5), F(0)]),
    ("reversed", v(F(1, 3), 0), [v(0, 0)], [], [F(0), F(-2, 7)]),
    ("ray at 0", v(1, 0), [v(0, 0)], [v(0, F(1, 2))], [F(0), F(1), F(0)]),
    ("ray above 0", v(1, 0), [v(0, 0)], [v(0, F(1, 2))], [F(0), F(1), F(1, 9)]),
    ("cone", v(1, 0), [], [v(0, 1)], [F(1, 4), F(0)]),
    ("cone at 0", v(1, 0), [], [v(0, 1)], [F(0), F(-1)]),
]
print("optimize", sys.flags.optimize)
for name, target, points, rays, mult in TABLE:
    geometry.solve_bounded = lambda *args, mult=mult, **kwargs: BoundedInfeasible(mult)
    try:
        c = geometry._combination_feasible(target, points, rays)
    except CertificateError as exc:
        print(name, "rejected", exc)
    else:
        print(name, "accepted", c)
"""


# One targeted corruption per message of the engine's own certificate checks:
# each row corrupts the result of one ``_Simplex`` method on a real program,
# and the run must end in exactly the check it targets.  OPT has two tight
# rows and one slack row at its optimum (8/5, 6/5); INF is infeasible, with
# Farkas multipliers (-1, 1).
CERTIFICATE_CHECKS = """
import sys
from fractions import Fraction as F
from weakstar import numerics
from weakstar.errors import CertificateError

OPT = (["x", "y"], {"x": F(1), "y": F(1)},
       [({"x": F(1), "y": F(2)}, "<=", F(4)), ({"x": F(3), "y": F(1)}, "<=", F(6)),
        ({"x": F(1), "y": F(1)}, "<=", F(100))])
INF = (["x", "y"], {"x": F(1)}, [({"x": F(1), "y": F(1)}, "<=", F(1)), ({"x": F(1), "y": F(1)}, ">=", F(2))])
TABLE = [
    (OPT, "_structural_values", lambda x: [x[0] - 2, x[1]]),  # x below its lower bound
    (OPT, "_structural_values", lambda x: [2 * v for v in x]),  # off the tight rows
    (OPT, "_multipliers", lambda y: [-v for v in y]),  # positive on a <= row
    (INF, "_multipliers", lambda y: [y[0], -y[1]]),  # negative on a >= row
    (OPT, "_multipliers", lambda y: [y[0], y[1], F(-1)]),  # weight on the slack row
    (OPT, "_multipliers", lambda y: [2 * v for v in y]),  # overshoots the cost
    (OPT, "_multipliers", lambda y: [0 * v for v in y]),  # the optimal duals scaled to zero
    (INF, "_multipliers", lambda y: [0 * y[0], y[1]]),  # leaves x + y >= 2 alone
    (INF, "_multipliers", lambda y: [0 * v for v in y]),  # the Farkas vector scaled to zero
]
print("optimize", sys.flags.optimize)
print("clean", numerics.solve_bounded(*OPT).value, numerics.solve_bounded(*INF).row_multipliers)
for problem, name, corrupt in TABLE:
    method = getattr(numerics._Simplex, name)
    setattr(numerics._Simplex, name, lambda self, *args, method=method, corrupt=corrupt: corrupt(method(self, *args)))
    try:
        numerics.solve_bounded(*problem)
    except CertificateError as exc:
        print("rejected", exc)
    else:
        print("accepted")
    finally:
        setattr(numerics._Simplex, name, method)
"""

CERTIFICATE_MESSAGES = [
    "bound violation on 'x'",
    "row violation in optimal witness",
    "multiplier sign error on <= row",
    "multiplier sign error on >= row",
    "nonzero dual multiplier on a row that is not tight",
    "positive reduced cost away from lower bound",
    "negative reduced cost away from upper bound",
    "certificate leaks through an unbounded-above variable",
    "infeasibility certificate does not reach a contradiction",
]


def run_script(script, *flags):
    src = str(Path(numerics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestCertification:
    def test_corrupted_pivot_is_rejected_under_optimize(self):
        lines = run_script(CORRUPTED_PIVOT, "-O")
        assert lines[0] == "optimize 1"
        assert lines[1] == "clean 14/5"
        assert lines[2].startswith("rejected ")

    def test_corrupted_pivot_is_rejected_without_optimize(self):
        lines = run_script(CORRUPTED_PIVOT)
        assert lines[0] == "optimize 0"
        assert lines[2].startswith("rejected ")

    def test_premature_optimum_is_rejected_by_the_dual_certificate(self):
        lines = run_script(PREMATURE_OPTIMUM, "-O")
        assert lines == ["optimize 1", "clean 14/5", "rejected negative reduced cost away from upper bound"]

    def test_perturbed_right_side_is_rejected_under_optimize(self):
        lines = run_script(PERTURBED_RIGHT_SIDE, "-O")
        assert lines == ["optimize 1", "clean 3/16", "rejected row violation in optimal witness"]

    @pytest.mark.parametrize("flags", [("-O",), ()])
    def test_non_separating_functional_is_rejected(self, flags):
        lines = run_script(NON_SEPARATING_FUNCTIONAL, *flags)
        assert lines == [
            f"optimize {len(flags)}",
            "clean 4",
            "rejected combination LP's Farkas functional does not separate the target",
        ]

    @pytest.mark.parametrize("flags", [("-O",), ()])
    def test_separation_check_is_strict_at_its_boundaries(self, flags):
        lines = run_script(SEPARATION_BOUNDARIES, *flags)
        rejected = "rejected combination LP's Farkas functional does not separate the target"
        assert lines == [
            f"optimize {len(flags)}",
            "separates accepted SparseVec({0: 3/5})",
            f"tie {rejected}",
            f"reversed {rejected}",
            "ray at 0 accepted SparseVec({0: 1/1})",
            f"ray above 0 {rejected}",
            "cone accepted SparseVec({0: 1/4})",
            f"cone at 0 {rejected}",
        ]

    @pytest.mark.parametrize("flags", [("-O",), ()])
    def test_every_certificate_check_trips_on_its_corruption(self, flags):
        lines = run_script(CERTIFICATE_CHECKS, *flags)
        assert lines == [
            f"optimize {len(flags)}",
            "clean 14/5 [Fraction(-1, 1), Fraction(1, 1)]",
            *(f"rejected {message}" for message in CERTIFICATE_MESSAGES),
        ]

    def test_callers_reject_non_optimal_lps_under_optimize(self):
        lines = run_script(NON_OPTIMAL_LP, "-O")
        assert lines[0] == "optimize 1"
        assert lines[1:] == [
            f"{name} rejected"
            for name in (
                "monotone_limit",
                "demo",
                "exposure_certificate",
                "separating_direction",
                "immeasurable_witness",
                "point_body_distance",
            )
        ]

    def test_certificate_error_is_not_an_input_error(self):
        assert issubclass(CertificateError, WeakstarError)
        assert not issubclass(CertificateError, (ParseError, PreconditionError))
