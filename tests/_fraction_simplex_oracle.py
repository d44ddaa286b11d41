"""Frozen copy of the ``Fraction``-tableau simplex engine, kept as a test oracle.

This is the bounded-variable simplex ``weakstar.numerics`` shipped before its
tableau moved to integer rows over a shared denominator, copied verbatim
(``_Simplex`` and ``solve_bounded``).  ``test_simplex_differential.py``
requires the current engine to return exactly what this one returns on random
bounded LPs, and to raise ``ValueError`` exactly where this one returns an
unbounded ray.  It stays the reference for the engine it replaced, and its
logic does not change; ``BoundedUnbounded``, which the current engine no
longer has, is a verbatim copy of the class it used to import.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from weakstar.numerics import (
    EQ,
    GE,
    LE,
    _RELATIONS,
    BoundedInfeasible,
    BoundedOptimal,
    BoundedOutcome,
    BoundedRow,
    as_rational,
)


@dataclass(frozen=True)
class BoundedUnbounded:
    ray: dict[Hashable, Fraction]


def solve_bounded(
    variables: Sequence[Hashable],
    objective: Mapping[Hashable, Fraction],
    rows: Sequence[BoundedRow],
    *,
    lower: Mapping[Hashable, Fraction] | None = None,
    upper: Mapping[Hashable, Fraction] | None = None,
    sense: str = "max",
) -> BoundedOutcome:
    """Exact simplex over ``lower <= x <= upper`` (lower defaults to 0, upper to +inf).

    Returns an optimal assignment, an improving ray, or row multipliers
    proving infeasibility (same convention as ``Infeasible``).  All three are
    re-checked exactly before returning.
    """
    solver = _Simplex(variables, objective, rows, lower or {}, upper or {}, sense)
    return solver.run()


class _Simplex:
    def __init__(self, variables, objective, rows, lower, upper, sense):
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable keys")
        self.varkeys = list(variables)
        self.sense = sense
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

        # Minimization internally; negate a max objective.
        sign = Fraction(-1) if sense == "max" else Fraction(1)
        self.cost = [Fraction(0)] * self.nstruct
        for v, coef in objective.items():
            if v not in index:
                raise ValueError(f"objective mentions unknown variable {v!r}")
            self.cost[index[v]] = sign * as_rational(coef)

        self.caller_rows = []
        for coeffs, rel, rhs in rows:
            if rel not in _RELATIONS:
                raise ValueError(f"bad relation {rel!r}")
            dense = [Fraction(0)] * self.nstruct
            for v, coef in coeffs.items():
                if v not in index:
                    raise ValueError(f"row mentions unknown variable {v!r}")
                dense[index[v]] = as_rational(coef)
            self.caller_rows.append((dense, rel, as_rational(rhs)))

    # -- setup ---------------------------------------------------------------

    def _build_tableau(self):
        """Shift lowers to zero, add slack and artificial columns, pick a basis."""
        m = len(self.caller_rows)
        n = self.nstruct
        shifted_rhs = []
        for dense, rel, rhs in self.caller_rows:
            shifted_rhs.append(rhs - sum(dense[j] * self.low[j] for j in range(n) if self.low[j]))

        ncols = n
        self.slack_col = [None] * m
        for i, (_, rel, _) in enumerate(self.caller_rows):
            if rel != EQ:
                self.slack_col[i] = ncols
                ncols += 1
        nslack_end = ncols

        self.T: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        self.row_sign: list[int] = []
        for i, (dense, rel, _) in enumerate(self.caller_rows):
            row = list(dense) + [Fraction(0)] * (nslack_end - n)
            if rel == LE:
                row[self.slack_col[i]] = Fraction(1)
            elif rel == GE:
                row[self.slack_col[i]] = Fraction(-1)
            b = shifted_rhs[i]
            if b < 0:
                row = [-x for x in row]
                b = -b
                self.row_sign.append(-1)
            else:
                self.row_sign.append(1)
            self.T.append(row)
            self.rhs.append(b)

        # Upper bounds per column (shifted): structural get upp-low, slacks none.
        self.ub: list[Fraction | None] = []
        for j in range(n):
            u = self.upp[j]
            self.ub.append(None if u is None else u - self.low[j])
        self.ub.extend([None] * (nslack_end - n))

        # Artificials where the slack cannot serve as the starting basic var.
        self.basis: list[int] = [-1] * m
        self.art_col: list[int | None] = [None] * m
        cols_to_add = []
        for i in range(m):
            s = self.slack_col[i]
            if s is not None and self.T[i][s] == 1:
                self.basis[i] = s
            else:
                cols_to_add.append(i)
        next_col = nslack_end
        for i in cols_to_add:
            self.art_col[i] = next_col
            self.basis[i] = next_col
            next_col += 1
        self.first_art = nslack_end
        self.ncols = next_col
        for row in self.T:
            row.extend([Fraction(0)] * (self.ncols - nslack_end))
        for i in cols_to_add:
            self.T[i][self.art_col[i]] = Fraction(1)
        self.ub.extend([None] * (self.ncols - nslack_end))
        self.flipped = [False] * self.ncols
        self.dropped_rows: list[int] = []
        self.live_rows = list(range(m))
        # Pristine copies, used by the post-solve certification.
        self.M0 = [list(row) for row in self.T]
        self.b0 = list(self.rhs)

    def _reduced_costs(self, col_cost: list[Fraction]) -> list[Fraction]:
        d = list(col_cost)
        for i in self.live_rows:
            cb = col_cost[self.basis[i]]
            if cb:
                row = self.T[i]
                for j in range(self.ncols):
                    if row[j]:
                        d[j] -= cb * row[j]
        return d

    # -- pivoting ------------------------------------------------------------

    def _pivot(self, r: int, e: int, d: list[Fraction]):
        row = self.T[r]
        piv = row[e]
        if piv != 1:
            inv = Fraction(1) / piv
            self.T[r] = row = [x * inv for x in row]
            self.rhs[r] *= inv
        for i in self.live_rows:
            if i == r:
                continue
            factor = self.T[i][e]
            if factor:
                target = self.T[i]
                for j in range(self.ncols):
                    if row[j]:
                        target[j] -= factor * row[j]
                self.rhs[i] -= factor * self.rhs[r]
        factor = d[e]
        if factor:
            for j in range(self.ncols):
                if row[j]:
                    d[j] -= factor * row[j]
        self.basis[r] = e

    def _flip_nonbasic(self, e: int, d: list[Fraction]):
        u = self.ub[e]
        assert u is not None
        for i in self.live_rows:
            if self.T[i][e]:
                self.rhs[i] -= u * self.T[i][e]
                self.T[i][e] = -self.T[i][e]
        d[e] = -d[e]
        self.flipped[e] = not self.flipped[e]

    def _flip_basic_row(self, r: int):
        """Re-express the basic variable of row r relative to its upper bound."""
        var = self.basis[r]
        u = self.ub[var]
        assert u is not None
        row = self.T[r]
        for j in range(self.ncols):
            if j != var and row[j]:
                row[j] = -row[j]
        self.rhs[r] = u - self.rhs[r]
        self.flipped[var] = not self.flipped[var]

    def _iterate(self, d: list[Fraction], allow_artificials: bool) -> int | None:
        """Run Bland pivots until optimal (returns None) or unbounded (entering col)."""
        basic_set = set(self.basis[i] for i in self.live_rows)
        while True:
            enter = None
            for j in range(self.ncols):
                if j in basic_set:
                    continue
                if j >= self.first_art and not allow_artificials:
                    continue
                u = self.ub[j]
                if u == 0:
                    continue  # fixed variable
                if d[j] < 0:
                    enter = j
                    break
            if enter is None:
                return None

            # Ratio test: smallest blocking step; Bland tie-break on variable index.
            best_t: Fraction | None = self.ub[enter]
            best_kind = "flip"
            best_row = -1
            best_var = enter if best_t is not None else self.ncols
            for i in self.live_rows:
                a = self.T[i][enter]
                if a > 0:
                    t = self.rhs[i] / a
                    kind = "lower"
                elif a < 0:
                    ub_b = self.ub[self.basis[i]]
                    if ub_b is None:
                        continue
                    t = (ub_b - self.rhs[i]) / (-a)
                    kind = "upper"
                else:
                    continue
                bvar = self.basis[i]
                if best_t is None or t < best_t or (t == best_t and bvar < best_var):
                    best_t, best_kind, best_row, best_var = t, kind, i, bvar
            if best_t is None:
                return enter  # genuinely unbounded direction
            if best_kind == "flip":
                self._flip_nonbasic(enter, d)
            else:
                if best_kind == "upper":
                    self._flip_basic_row(best_row)
                basic_set.discard(self.basis[best_row])
                self._pivot(best_row, enter, d)
                basic_set.add(enter)

    # -- value extraction ----------------------------------------------------

    def _assignment_shifted(self) -> list[Fraction]:
        x = [Fraction(0)] * self.ncols
        for j in range(self.ncols):
            if self.flipped[j]:
                u = self.ub[j]
                assert u is not None
                x[j] = u
        for i in self.live_rows:
            j = self.basis[i]
            x[j] = (self.ub[j] - self.rhs[i]) if self.flipped[j] else self.rhs[i]
        return x

    def _structural_values(self) -> dict[Hashable, Fraction]:
        x = self._assignment_shifted()
        return {self.varkeys[j]: x[j] + self.low[j] for j in range(self.nstruct)}

    # -- driver --------------------------------------------------------------

    def run(self) -> BoundedOutcome:
        self._build_tableau()
        phase1_cost = [Fraction(0)] * self.ncols
        for j in range(self.first_art, self.ncols):
            phase1_cost[j] = Fraction(1)
        d1 = self._reduced_costs(phase1_cost)
        leftover = self._iterate(d1, allow_artificials=True)
        assert leftover is None, "phase 1 objective is bounded below, cannot be unbounded"

        x = self._assignment_shifted()
        infeas = sum((x[j] for j in range(self.first_art, self.ncols)), Fraction(0))
        if infeas > 0:
            return self._extract_infeasible(d1)

        self._evict_artificials()
        d2 = self._phase2_costs()
        enter = self._iterate(d2, allow_artificials=False)
        if enter is not None:
            return self._extract_ray(enter)

        values = self._structural_values()
        raw = sum((self.cost[j] * (values[self.varkeys[j]]) for j in range(self.nstruct)), Fraction(0))
        value = -raw if self.sense == "max" else raw
        self._check_feasible_point(values)
        self._check_optimal_bound(d2)
        return BoundedOptimal(value, values)

    def _phase2_costs(self) -> list[Fraction]:
        col_cost = [Fraction(0)] * self.ncols
        for j in range(self.nstruct):
            col_cost[j] = -self.cost[j] if self.flipped[j] else self.cost[j]
        return self._reduced_costs(col_cost)

    def _evict_artificials(self):
        """Pivot residual zero-level artificials out of the basis; drop redundant rows."""
        for i in list(self.live_rows):
            if self.basis[i] < self.first_art:
                continue
            target = None
            for j in range(self.first_art):
                if self.T[i][j]:
                    target = j
                    break
            if target is None:
                self.live_rows.remove(i)
                self.dropped_rows.append(i)
            else:
                dummy = [Fraction(0)] * self.ncols
                self._pivot(i, target, dummy)

    def _extract_infeasible(self, d1: list[Fraction]) -> BoundedInfeasible:
        m = len(self.caller_rows)
        mult = [Fraction(0)] * m
        for i in self.live_rows:
            a = self.art_col[i]
            if a is not None:
                y = Fraction(1) - d1[a]
            else:
                s = self.slack_col[i]
                assert s is not None
                y = -d1[s]
            mult[i] = y * self.row_sign[i]
        self._check_infeasibility(mult)
        return BoundedInfeasible(mult)

    def _extract_ray(self, enter: int) -> BoundedUnbounded:
        delta = [Fraction(0)] * self.ncols
        delta[enter] = Fraction(1)
        for i in self.live_rows:
            delta[self.basis[i]] = -self.T[i][enter]
        ray: dict[Hashable, Fraction] = {}
        for j in range(self.nstruct):
            component = -delta[j] if self.flipped[j] else delta[j]
            if component:
                ray[self.varkeys[j]] = component
        self._check_ray(ray)
        return BoundedUnbounded(ray)

    # -- exact self-checks ---------------------------------------------------

    def _check_feasible_point(self, values: Mapping[Hashable, Fraction]):
        for j, v in enumerate(self.varkeys):
            x = values[v]
            assert x >= self.low[j], f"bound violation on {v!r}"
            assert self.upp[j] is None or x <= self.upp[j], f"bound violation on {v!r}"
        for dense, rel, rhs in self.caller_rows:
            lhs = sum((dense[j] * values[self.varkeys[j]] for j in range(self.nstruct)), Fraction(0))
            if rel == LE:
                assert lhs <= rhs, "row violation in optimal witness"
            elif rel == GE:
                assert lhs >= rhs, "row violation in optimal witness"
            else:
                assert lhs == rhs, "row violation in optimal witness"

    def _check_ray(self, ray: Mapping[Hashable, Fraction]):
        assert ray, "zero ray"
        for j, v in enumerate(self.varkeys):
            comp = ray.get(v, Fraction(0))
            # Lower bounds are always finite here, so rays never point down.
            assert comp >= 0, "ray moves a lower-bounded variable down"
            if comp > 0:
                assert self.upp[j] is None, "ray moves an upper-bounded variable up"
        gain = sum((self.cost[j] * ray.get(self.varkeys[j], Fraction(0)) for j in range(self.nstruct)), Fraction(0))
        assert gain < 0, "ray does not improve the internal minimization"
        for dense, rel, rhs in self.caller_rows:
            drift = sum((dense[j] * ray.get(self.varkeys[j], Fraction(0)) for j in range(self.nstruct)), Fraction(0))
            if rel == LE:
                assert drift <= 0, "ray escapes a <= row"
            elif rel == GE:
                assert drift >= 0, "ray escapes a >= row"
            else:
                assert drift == 0, "ray escapes an = row"

    def _check_optimal_bound(self, d2: list[Fraction]):
        """Certify optimality by exact complementary slackness.

        Row multipliers are read off the final reduced-cost row, then reduced
        costs are recomputed from the pristine matrix; every structural and
        slack column must sit at the bound its reduced-cost sign dictates.
        Together with feasibility this proves the returned value is optimal.
        """
        z = self._assignment_shifted()
        m = len(self.caller_rows)
        for i in range(m):
            row = self.M0[i]
            lhs = sum((row[j] * z[j] for j in range(self.ncols) if row[j] and z[j]), Fraction(0))
            assert lhs == self.b0[i], "assignment does not solve the tableau system"
        y: list[Fraction] = []
        for i in range(m):
            col = self.art_col[i] if self.art_col[i] is not None else self.slack_col[i]
            y.append(-d2[col])
        for j in range(self.first_art):
            c_j = self.cost[j] if j < self.nstruct else Fraction(0)
            reduced = c_j - sum((y[i] * self.M0[i][j] for i in range(m) if self.M0[i][j]), Fraction(0))
            if reduced > 0:
                assert z[j] == 0, "positive reduced cost away from lower bound"
            elif reduced < 0:
                u = self.ub[j]
                assert u is not None and z[j] == u, "negative reduced cost away from upper bound"

    def _check_infeasibility(self, mult: Sequence[Fraction]):
        combined = [Fraction(0)] * self.nstruct
        total = Fraction(0)
        for y, (dense, rel, rhs) in zip(mult, self.caller_rows):
            if rel == LE:
                assert y <= 0, "certificate sign error on <= row"
            elif rel == GE:
                assert y >= 0, "certificate sign error on >= row"
            for j in range(self.nstruct):
                combined[j] += y * dense[j]
            total += y * rhs
        # Fold variable bounds into the contradiction margin.
        for j in range(self.nstruct):
            g = combined[j]
            if g > 0:
                assert self.upp[j] is not None, "certificate leaks through an unbounded-above variable"
                total -= g * self.upp[j]
            elif g < 0:
                total -= g * self.low[j]
        assert total > 0, "infeasibility certificate does not reach a contradiction"
