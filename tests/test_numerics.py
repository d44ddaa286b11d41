import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakstar import numerics
from weakstar.errors import CertificateError, ParseError, PreconditionError, WeakstarError
from weakstar.numerics import (
    Infeasible,
    LpProblem,
    LpRow,
    Optimal,
    SparseVec,
    Unbounded,
    l1_norm,
    lp_solve,
    pair,
    solve_bounded,
    sup_norm,
    verify_outcome,
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


def rows(*triples):
    return tuple(LpRow(coeffs, rel, F(rhs)) for coeffs, rel, rhs in triples)


class TestLpSolve:
    def test_single_upper_bound(self):
        p = LpProblem(vec(x0=F(1)), rows((vec(x0=F(1)), "<=", 3)))
        out = lp_solve(p, "max")
        assert out == Optimal(F(3), SparseVec({0: 3}))

    def test_unbounded_direction(self):
        p = LpProblem(vec(x0=F(1)), rows((vec(x0=F(1)), ">=", 0)))
        out = lp_solve(p, "max")
        assert isinstance(out, Unbounded)
        assert pair(p.objective, out.ray) > 0

    def test_triangle(self):
        p = LpProblem(
            vec(x0=F(1), x1=F(1)),
            rows(
                (vec(x0=F(1)), ">=", 0),
                (vec(x1=F(1)), ">=", 0),
                (vec(x0=F(1), x1=F(1)), "<=", 1),
            ),
        )
        out = lp_solve(p, "max")
        assert isinstance(out, Optimal)
        assert out.value == 1

    def test_infeasible_certificate(self):
        p = LpProblem(
            vec(x0=F(1)),
            rows((vec(x0=F(1)), "<=", 0), (vec(x0=F(1)), ">=", 1)),
        )
        out = lp_solve(p, "max")
        assert isinstance(out, Infeasible)
        ok, why = verify_outcome(p, "max", out)
        assert ok, why

    def test_minimization(self):
        p = LpProblem(
            vec(x0=F(1), x1=F(2)),
            rows(
                (vec(x0=F(1), x1=F(1)), ">=", 1),
                (vec(x0=F(1)), ">=", 0),
                (vec(x1=F(1)), ">=", 0),
            ),
        )
        out = lp_solve(p, "min")
        assert isinstance(out, Optimal)
        assert out.value == 1
        assert out.witness == SparseVec({0: 1})

    def test_equality_row(self):
        p = LpProblem(
            vec(x0=F(3), x1=F(1)),
            rows(
                (vec(x0=F(1), x1=F(1)), "=", 2),
                (vec(x0=F(1)), "<=", F(1, 2)),
                (vec(x1=F(1)), ">=", 0),
                (vec(x0=F(1)), ">=", 0),
            ),
        )
        out = lp_solve(p, "max")
        assert isinstance(out, Optimal)
        assert out.value == F(3, 2) + F(3, 2)
        assert out.witness == SparseVec({0: F(1, 2), 1: F(3, 2)})

    def test_degenerate_cycling_guard(self):
        # A classically degenerate instance; Bland's rule must terminate.
        p = LpProblem(
            vec(x0=F(3, 4), x1=F(-150), x2=F(1, 50), x3=F(-6)),
            rows(
                (vec(x0=F(1, 4), x1=F(-60), x2=F(-1, 25), x3=F(9)), "<=", 0),
                (vec(x0=F(1, 2), x1=F(-90), x2=F(-1, 50), x3=F(3)), "<=", 0),
                (vec(x2=F(1)), "<=", 1),
                (vec(x0=F(1)), ">=", 0),
                (vec(x1=F(1)), ">=", 0),
                (vec(x2=F(1)), ">=", 0),
                (vec(x3=F(1)), ">=", 0),
            ),
        )
        out = lp_solve(p, "max")
        assert isinstance(out, Optimal)
        assert out.value == F(1, 20)

    def test_negative_rhs_path(self):
        p = LpProblem(
            vec(x0=F(1)),
            rows((vec(x0=F(1)), "<=", -2), (vec(x0=F(1)), ">=", -10)),
        )
        out = lp_solve(p, "max")
        assert out == Optimal(F(-2), SparseVec({0: -2}))

    def test_deterministic(self):
        p = LpProblem(
            vec(x0=F(1), x1=F(1)),
            rows(
                (vec(x0=F(1), x1=F(2)), "<=", 4),
                (vec(x0=F(2), x1=F(1)), "<=", 4),
                (vec(x0=F(1)), ">=", 0),
                (vec(x1=F(1)), ">=", 0),
            ),
        )
        assert lp_solve(p, "max") == lp_solve(p, "max")


class TestSolveBounded:
    def test_pure_box(self):
        out = solve_bounded(
            ["a", "b"],
            {"a": F(2), "b": F(-3)},
            [],
            lower={"a": F(-1), "b": F(-2)},
            upper={"a": F(5), "b": F(4)},
            sense="max",
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
            sense="max",
        )
        assert out.value == 3

    def test_infeasible_with_bounds(self):
        out = solve_bounded(
            ["a"],
            {"a": F(1)},
            [({"a": F(1)}, ">=", F(7))],
            upper={"a": F(2)},
            sense="max",
        )
        assert hasattr(out, "row_multipliers")

    def test_unbounded_reports_ray(self):
        out = solve_bounded(["a", "b"], {"a": F(1)}, [({"b": F(1)}, "<=", F(1))], sense="max")
        assert out.ray == {"a": F(1)}

    def test_equality_negative_rhs(self):
        out = solve_bounded(
            ["a", "b"],
            {"a": F(1), "b": F(-1)},
            [({"a": F(1), "b": F(-2)}, "=", F(-4))],
            sense="min",
        )
        assert out.value == -2  # a=0, b=2


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
    p = LpProblem(
        SparseVec({i: ci for i, ci in enumerate(c)}),
        tuple(
            LpRow(SparseVec.basis(i), rel, bound)
            for i in range(len(c))
            for rel, bound in ((">=", lo[i]), ("<=", hi[i]))
        ),
    )
    out = lp_solve(p, "max")
    assert isinstance(out, Optimal)
    assert out.value == box_oracle(c, lo, hi)


@given(
    c=st.lists(small_rationals, min_size=1, max_size=5),
    total=st.fractions(min_value=0, max_value=20, max_denominator=8),
)
@settings(max_examples=80, deadline=None)
def test_simplex_lp_against_max_coefficient(c, total):
    n = len(c)
    p = LpProblem(
        SparseVec(dict(enumerate(c))),
        tuple(
            [LpRow(SparseVec(dict.fromkeys(range(n), F(1))), "=", total)]
            + [LpRow(SparseVec.basis(i), ">=", F(0)) for i in range(n)]
        ),
    )
    out = lp_solve(p, "max")
    assert isinstance(out, Optimal)
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
    # Random rows through the origin-feasible halfspace family; whatever the
    # outcome, its witness must re-verify exactly (lp_solve asserts internally).
    body = [LpRow(SparseVec(dict(enumerate(coeffs))), "<=", abs(rhs)) for coeffs, rhs in seedrows]
    p = LpProblem(SparseVec({0: F(1), 1: F(-1), 2: F(1, 3)}), tuple(body))
    out = lp_solve(p, "max")
    ok, why = verify_outcome(p, "max", out)
    assert ok, why
    assert not isinstance(out, Infeasible)  # the origin is always feasible


# A pivot that corrupts the right side of its row by +1.  Every later step is
# exact, so the returned assignment solves a different system and the
# post-solve certification must reject it, whatever the interpreter mode.
CORRUPTED_PIVOT = """
import sys
from fractions import Fraction as F
from weakstar import numerics
from weakstar.errors import CertificateError

pivot = numerics._Simplex._pivot

def corrupted(self, r, e, update_costs=True):
    pivot(self, r, e, update_costs)
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


def run_corrupted_pivot(*flags):
    src = str(Path(numerics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, *flags, "-c", CORRUPTED_PIVOT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestCertification:
    def test_corrupted_pivot_is_rejected_under_optimize(self):
        lines = run_corrupted_pivot("-O")
        assert lines[0] == "optimize 1"
        assert lines[1] == "clean 14/5"
        assert lines[2].startswith("rejected ")

    def test_corrupted_pivot_is_rejected_without_optimize(self):
        lines = run_corrupted_pivot()
        assert lines[0] == "optimize 0"
        assert lines[2].startswith("rejected ")

    def test_certificate_error_is_not_an_input_error(self):
        assert issubclass(CertificateError, WeakstarError)
        assert not issubclass(CertificateError, (ParseError, PreconditionError))
