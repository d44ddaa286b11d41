"""Frozen copy of the ``Fraction`` certificate checks, kept as a test oracle.

These are ``weakstar.numerics._Simplex``'s ``__init__``, ``_build_tableau``
(with ``_reduce``), ``_check_feasible_point``, ``_combine``,
``_check_optimal_bound`` and ``_check_infeasibility``, and the module's
``_dot``, as they shipped before the checks moved to integer arithmetic on a
once-encoded copy of the caller's rows, copied verbatim.  They certify in
``Fraction`` arithmetic against the caller's rows stored sparse.
``test_certificate_differential.py`` requires the current checks to accept
and reject the same witnesses and multipliers with the same message, and the
current build to give the same integer tableau.  Their logic does not change.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from weakstar.errors import CertificateError
from weakstar.numerics import EQ, GE, LE, _RELATIONS, _SLACK, as_rational


def _dot(coeffs: Mapping[int, Fraction], x: Sequence[Fraction]) -> Fraction:
    """``sum_j coeffs[j] * x[j]`` over a sparse row's stored (nonzero) entries."""
    return sum((a * x[j] for j, a in coeffs.items()), Fraction(0))


class FractionCertificates:
    """The state and self-checks of the ``Fraction``-row engine, without its pivoting."""

    def __init__(self, variables, objective, rows, lower, upper):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable keys")
        self.varkeys = list(variables)
        self.nstruct = len(self.varkeys)
        index = {v: j for j, v in enumerate(self.varkeys)}

        self.low = [as_rational(lower.get(v, 0)) for v in self.varkeys]
        self.upp: list[Fraction | None] = []
        for v in self.varkeys:
            u = upper.get(v)
            self.upp.append(None if u is None else as_rational(u))
        for j, u in enumerate(self.upp):
            if u is not None and u < self.low[j]:
                raise ValueError(f"variable {self.varkeys[j]!r} has empty bound interval")

        # Minimization internally, of the negated objective.
        self.cost = [Fraction(0)] * self.nstruct
        for v, coef in objective.items():
            if v not in index:
                raise ValueError(f"objective mentions unknown variable {v!r}")
            self.cost[index[v]] = -as_rational(coef)

        self.caller_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
        for coeffs, rel, rhs in rows:
            if rel not in _RELATIONS:
                raise ValueError(f"bad relation {rel!r}")
            sparse = {}
            for v, coef in coeffs.items():
                if v not in index:
                    raise ValueError(f"row mentions unknown variable {v!r}")
                q = as_rational(coef)
                if q:
                    sparse[index[v]] = q
            self.caller_rows.append((sparse, rel, as_rational(rhs)))

    # -- setup ---------------------------------------------------------------

    def _build_tableau(self):
        """Shift lowers to zero, add slack and artificial columns, pick a basis.

        Row i is ``row_sign[i]`` times the shifted caller row and its slack
        (+1 on <=, -1 on >=), with a nonnegative right side.  Where the signed
        slack is not +1, an artificial column (in row order) starts basic.
        """
        m = len(self.caller_rows)
        n = self.nstruct
        self.slack_col: list[int | None] = [None] * m
        self.art_col: list[int | None] = [None] * m
        self.basis: list[int] = [-1] * m
        self.row_sign: list[int] = []
        self.first_art = n + sum(rel != EQ for _, rel, _ in self.caller_rows)
        next_slack, next_art = n, self.first_art
        rhs_signed: list[Fraction] = []
        for i, (coeffs, rel, rhs) in enumerate(self.caller_rows):
            b = rhs - sum(a * self.low[j] for j, a in coeffs.items() if self.low[j])
            sign = -1 if b < 0 else 1
            self.row_sign.append(sign)
            rhs_signed.append(sign * b)
            if rel != EQ:
                self.slack_col[i] = next_slack
                next_slack += 1
            if sign * _SLACK[rel] == 1:
                self.basis[i] = self.slack_col[i]
            else:
                self.art_col[i] = self.basis[i] = next_art
                next_art += 1
        self.ncols = next_art

        self.T: list[list[int]] = []
        self.b: list[int] = []
        self.den: list[int] = []
        for i, (coeffs, rel, _) in enumerate(self.caller_rows):
            sign, b = self.row_sign[i], rhs_signed[i]
            den = lcm(b.denominator, *(a.denominator for a in coeffs.values()))
            row = [0] * self.ncols
            for j, a in coeffs.items():
                row[j] = sign * a.numerator * (den // a.denominator)
            if rel != EQ:
                row[self.slack_col[i]] = sign * _SLACK[rel] * den
            if self.art_col[i] is not None:
                row[self.art_col[i]] = den
            self.T.append(row)
            self.b.append(b.numerator * (den // b.denominator))
            self.den.append(den)
            self._reduce(i)

        # Upper bounds per column (shifted): structural get upp-low, the rest none.
        self.ub: list[Fraction | None] = [None if u is None else u - low for u, low in zip(self.upp, self.low)]
        self.ub.extend([None] * (self.ncols - n))
        self.flipped = [False] * self.ncols
        self.live_rows = list(range(m))

    def _reduce(self, i: int):
        """Bring row i back to lowest terms."""
        row = self.T[i]
        g = gcd(self.den[i], self.b[i], *row)
        if g > 1:
            self.T[i] = [x // g for x in row]
            self.b[i] //= g
            self.den[i] //= g

    # -- exact self-checks on the caller's rows ------------------------------

    def _check_feasible_point(self, values: Sequence[Fraction]):
        for j, x in enumerate(values):
            if x < self.low[j] or (self.upp[j] is not None and x > self.upp[j]):
                raise CertificateError(f"bound violation on {self.varkeys[j]!r}")
        for coeffs, rel, rhs in self.caller_rows:
            lhs = _dot(coeffs, values)
            if (rel == LE and lhs > rhs) or (rel == GE and lhs < rhs) or (rel == EQ and lhs != rhs):
                raise CertificateError("row violation in optimal witness")

    def _combine(self, mult: Sequence[Fraction]) -> tuple[dict[int, Fraction], Fraction]:
        """``(sum_i y_i a_i, sum_i y_i b_i)``, once each ``y_i`` has the sign documented on ``BoundedInfeasible``."""
        combined: dict[int, Fraction] = {}
        total = Fraction(0)
        for y, (coeffs, rel, rhs) in zip(mult, self.caller_rows):
            if not y:
                continue
            if (rel == LE and y > 0) or (rel == GE and y < 0):
                raise CertificateError(f"multiplier sign error on {rel} row")
            for j, a in coeffs.items():
                combined[j] = combined.get(j, 0) + y * a
            total += y * rhs
        return combined, total

    def _check_optimal_bound(self, values: Sequence[Fraction], mult: Sequence[Fraction]):
        """Certify optimality with the exact dual solution ``mult`` of the caller's program.

        ``y_i`` must be zero unless row i is tight at ``values``; with
        ``r = cost - sum_i y_i a_i``, ``r_j > 0`` only at a lower bound and
        ``r_j < 0`` only at a finite upper bound.  That proves weak duality:
        every feasible x has ``cost . x >= cost . values``.  As ``values`` is
        feasible, each ``y_i (a_i . values - b_i)`` is nonnegative, so their sum
        is zero exactly when every row with ``y_i != 0`` is tight.
        """
        combined, total = self._combine(mult)
        if _dot(combined, values) != total:
            raise CertificateError("nonzero dual multiplier on a row that is not tight")
        reduced = list(self.cost)
        for j, g in combined.items():
            reduced[j] -= g
        for j, r in enumerate(reduced):
            if r > 0 and values[j] != self.low[j]:
                raise CertificateError("positive reduced cost away from lower bound")
            if r < 0 and (self.upp[j] is None or values[j] != self.upp[j]):
                raise CertificateError("negative reduced cost away from upper bound")

    def _check_infeasibility(self, mult: Sequence[Fraction]):
        combined, total = self._combine(mult)
        # Fold variable bounds into the contradiction margin.
        for j, g in combined.items():
            if g > 0:
                if self.upp[j] is None:
                    raise CertificateError("certificate leaks through an unbounded-above variable")
                total -= g * self.upp[j]
            elif g < 0:
                total -= g * self.low[j]
        if not total > 0:
            raise CertificateError("infeasibility certificate does not reach a contradiction")
