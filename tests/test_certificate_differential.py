"""Differential test: the integer certificate checks against the frozen ``Fraction`` ones.

On small random programs, drawn as in ``test_simplex_differential.py``, the
engine must build the same tableau as the frozen build, compared as rationals
with its condensed rows widened to full width.  The engine measures a bounded
column in units of its room ``upp - low``, so that column is compared with the
frozen one times the room.  Its checks
must accept and reject the same witness points and multipliers as the frozen
checks, with the same message.  The witness and multipliers are the ones the
engine's own checks saw (an infeasible program's witness is its lower-bound
corner), then perturbed one entry at a time: a sign flipped, an entry scaled,
nudged by one step of the vector's common denominator, or zeroed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from _certificate_oracle import FractionCertificates
from test_pivot_differential import widened
from test_simplex_differential import bounded_lps
from weakstar.errors import CertificateError
from weakstar.numerics import _Simplex


def verdict(check, *args):
    """``(None, result)`` when the check passes, else ``(message, None)``."""
    try:
        return None, check(*args)
    except CertificateError as exc:
        return str(exc), None


def engine_certificates(solver: _Simplex):
    """Run ``solver``; the ``(values, mult)`` its checks saw, or ``None`` on an unbounded program."""
    seen = {}
    for name in ("_check_optimal_bound", "_check_infeasibility"):

        def spy(*args, check=getattr(solver, name), name=name):
            seen[name] = args
            check(*args)

        setattr(solver, name, spy)
    try:
        solver.run()
    except ValueError:
        return None
    if "_check_optimal_bound" in seen:
        return seen["_check_optimal_bound"]
    (mult,) = seen["_check_infeasibility"]
    return [Fraction(low, solver.bden) for low in solver.low], mult


def perturbed(data, vector: list[Fraction]) -> list[Fraction]:
    out = list(vector)
    if not out:
        return out
    i = data.draw(st.integers(min_value=0, max_value=len(out) - 1))
    kind = data.draw(st.sampled_from(["keep", "flip", "scale", "nudge", "zero"]))
    if kind == "flip":
        out[i] = -out[i]
    elif kind == "scale":
        out[i] *= data.draw(st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(-3)]))
    elif kind == "nudge":
        out[i] += data.draw(st.sampled_from([1, -1])) * Fraction(1, lcm(*(q.denominator for q in out)))
    elif kind == "zero":
        out[i] = Fraction(0)
    return out


def rooms(old: FractionCertificates) -> list[Fraction]:
    """Each column's unit in the engine's build: a structural's room ``upp - low`` when positive, else 1."""
    room = [1 if u is None or u == low else u - low for u, low in zip(old.upp, old.low)]
    return room + [1] * (old.ncols - old.nstruct)


def rational_rows(solver, rows: list[list[int]], units=None) -> list[list[Fraction]]:
    """Each built row as rationals, right side first, its column j multiplied by ``units[j]``."""
    units = units or [1] * solver.ncols
    return [
        [Fraction(b, den), *(Fraction(x, den) * u for x, u in zip(row, units))]
        for row, b, den in zip(rows, solver.b, solver.den)
    ]


def combined_as_fractions(result):
    combined, total, cden = result
    return {j: Fraction(g, cden) for j, g in combined.items() if g}, Fraction(total, cden)


@settings(max_examples=60, deadline=None)
@given(lp=bounded_lps(), data=st.data())
def test_checks_agree_with_the_fraction_checks(lp, data):
    variables, objective, rows, lower, upper, _ = lp
    old = FractionCertificates(variables, objective, rows, lower, upper)
    new = _Simplex(variables, objective, rows, lower, upper)
    old._build_tableau()
    new._build_tableau()
    assert (rational_rows(new, [widened(new, i) for i in range(len(new.T))]), new.basis, new.row_sign) == (
        rational_rows(old, old.T, rooms(old)),
        old.basis,
        old.row_sign,
    )

    found = engine_certificates(_Simplex(variables, objective, rows, lower, upper))
    if found is None:
        return
    values, mult = found
    for _ in range(4):
        x, y = perturbed(data, values), perturbed(data, mult)
        assert verdict(new._check_feasible_point, x)[0] == verdict(old._check_feasible_point, x)[0]
        assert verdict(new._check_optimal_bound, x, y)[0] == verdict(old._check_optimal_bound, x, y)[0]
        assert verdict(new._check_infeasibility, y)[0] == verdict(old._check_infeasibility, y)[0]
        message, result = verdict(new._combine, y)
        want_message, want = verdict(old._combine, y)
        assert message == want_message
        if want is not None:
            assert combined_as_fractions(result) == ({j: g for j, g in want[0].items() if g}, want[1])
