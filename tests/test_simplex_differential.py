"""Differential test: the integer-row simplex against the frozen Fraction engine.

Both engines follow the same pivot rule with exact comparisons, so they must
agree on every outcome exactly: the same outcome type and an equal value,
assignment or list of row multipliers.  The current engine has no ray
outcome: it must raise ``ValueError`` exactly where the oracle returns an
unbounded ray.  The explicit cases pin paths that random programs reach
rarely; the duplicate-row case also checks, through the oracle's own state,
that a row was really dropped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fraction_simplex_oracle import BoundedUnbounded as OracleUnbounded
from _fraction_simplex_oracle import _Simplex as OracleSimplex
from _fraction_simplex_oracle import solve_bounded as oracle_solve
from weakstar.numerics import BoundedInfeasible, BoundedOptimal, solve_bounded

F = Fraction

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def bounded_lps(draw, values=small):
    """A random program whose coefficients, right sides and lower bounds are drawn from ``values``."""
    sparse_coef = st.one_of(st.just(F(0)), st.just(F(0)), values)
    nvars = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=1, max_value=6))
    variables = [f"x{j}" for j in range(nvars)]
    objective = {v: draw(sparse_coef) for v in variables}
    rows = []
    for _ in range(nrows):
        coeffs = {v: draw(sparse_coef) for v in variables}
        rows.append((coeffs, draw(st.sampled_from(["<=", "=", ">="])), draw(values)))
    lower, upper = {}, {}
    for v in variables:
        low = draw(st.one_of(st.just(F(0)), values))
        lower[v] = low
        kind = draw(st.sampled_from(["free", "boxed", "fixed"]))
        if kind == "boxed":
            upper[v] = low + draw(st.fractions(min_value=0, max_value=5, max_denominator=6))
        elif kind == "fixed":
            upper[v] = low
    sense = draw(st.sampled_from(["max", "min"]))
    return variables, objective, rows, lower, upper, sense


def assert_same_outcome(variables, objective, rows, lower=None, upper=None, sense="max"):
    """The engine's outcome, or the oracle's ray where the engine raises for it.

    The engine only maximizes.  A ``"min"`` program goes to it as the
    maximization of ``-objective``, which gives it the same internal cost row
    as the oracle's minimization, and its optimal value is negated back.
    """
    want = oracle_solve(variables, objective, rows, lower=lower, upper=upper, sense=sense)
    flip = -1 if sense == "min" else 1
    engine_objective = {v: flip * c for v, c in objective.items()}
    if isinstance(want, OracleUnbounded):
        with pytest.raises(ValueError, match="unbounded"):
            solve_bounded(variables, engine_objective, rows, lower=lower, upper=upper)
        return want
    got = solve_bounded(variables, engine_objective, rows, lower=lower, upper=upper)
    if isinstance(got, BoundedOptimal):
        got = BoundedOptimal(flip * got.value, got.assignment)
    assert type(got) is type(want)
    assert got == want
    return got


@settings(max_examples=400, deadline=None)
@given(bounded_lps())
def test_engines_agree_on_random_bounded_lps(lp):
    variables, objective, rows, lower, upper, sense = lp
    assert_same_outcome(variables, objective, rows, lower, upper, sense)


def test_duplicate_row_is_dropped():
    variables = ["x", "y"]
    objective = {"x": F(1), "y": F(2)}
    rows = [({"x": F(1), "y": F(1)}, "=", F(1)), ({"x": F(1), "y": F(1)}, "=", F(1))]
    solver = OracleSimplex(variables, objective, rows, {}, {}, "max")
    solver.run()
    assert solver.dropped_rows
    outcome = assert_same_outcome(variables, objective, rows)
    assert outcome == BoundedOptimal(F(2), {"x": F(0), "y": F(1)})


def test_degenerate_ratio_ties():
    # Two rows block the entering column at the same step 0, twice; Bland's
    # tie-break on the basic variable's index decides the leaving row.
    variables = ["x", "y", "z"]
    objective = {"x": F(1), "y": F(1), "z": F(1)}
    rows = [
        ({"x": F(1), "y": F(-1)}, "<=", F(0)),
        ({"x": F(2), "z": F(-1)}, "<=", F(0)),
        ({"x": F(1), "y": F(1), "z": F(1)}, "<=", F(3, 2)),
        ({"y": F(1), "z": F(-1)}, "<=", F(0)),
    ]
    assert_same_outcome(variables, objective, rows)
    assert_same_outcome(variables, objective, rows, upper={"x": F(1, 2), "y": F(1, 4)})


def test_infeasible_program():
    variables = ["x", "y"]
    rows = [({"x": F(1), "y": F(1)}, "<=", F(1)), ({"x": F(1), "y": F(1)}, ">=", F(2))]
    outcome = assert_same_outcome(variables, {"x": F(1)}, rows)
    assert isinstance(outcome, BoundedInfeasible)


def test_infeasible_through_bounds():
    variables = ["x", "y"]
    rows = [({"x": F(1), "y": F(-1)}, ">=", F(3, 2))]
    upper = {"x": F(1), "y": F(1)}
    outcome = assert_same_outcome(variables, {"y": F(1)}, rows, lower={"y": F(-1, 3)}, upper=upper)
    assert isinstance(outcome, BoundedInfeasible)


def test_unbounded_program():
    variables = ["x", "y"]
    rows = [({"x": F(1), "y": F(-1)}, "<=", F(1))]
    outcome = assert_same_outcome(variables, {"x": F(1)}, rows)
    assert outcome == OracleUnbounded({"x": F(1), "y": F(1)})


def test_negative_rhs_and_bound_flips():
    variables = ["a", "b", "c"]
    rows = [
        ({"a": F(-1), "b": F(-2)}, ">=", F(-3)),
        ({"a": F(1), "c": F(1, 3)}, "=", F(-1, 2)),
        ({"b": F(2), "c": F(-1)}, "<=", F(5, 4)),
    ]
    lower = {"a": F(-2), "b": F(-1), "c": F(-3)}
    upper = {"a": F(1), "b": F(2), "c": F(0)}
    for sense in ("max", "min"):
        objective = {"a": F(3), "b": F(-1, 2), "c": F(1)}
        assert_same_outcome(variables, objective, rows, lower, upper, sense)
