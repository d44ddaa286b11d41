"""Exact scalars, sparse vectors, and an exact-arithmetic linear-program solver.

Everything downstream (hulls, metrics, certificates) reduces to questions about
finitely supported rational vectors and small linear programs.  Scalars are
``fractions.Fraction`` throughout; nothing in this package ever rounds.  The
only non-rational value that appears anywhere is ``math.inf``, used as a
first-class "infinite distance" marker, never as an approximation of a finite
number.

``solve_bounded`` is the one linear-program entry point: it maximizes over
ordered variables with finite lower and optional upper bounds (a caller splits
a free variable into a nonnegative pair, and minimizes by maximizing ``-c``)
and rows with ``<=``, ``=`` or ``>=``.  The objective must be bounded on the
feasible set, as every program here is; an unbounded one raises ``ValueError``.

The solver is a two-phase primal simplex with Bland's anti-cycling rule.
Bounds are handled implicitly (bound substitution) instead of as explicit
rows; that keeps the tableaus small for the box- and simplex-constrained
programs the geometry modules generate.  The tableau is fraction-free: each
row is a list of integers over its own positive denominator, so a pivot is
integer arithmetic on the pivot row's nonzero columns.  It is also condensed
(the dictionary form): a row holds the nonbasic columns only, each in a slot,
since a basic column is the row's denominator in its own row and 0 in every
other.  A pivot exchanges the entering column for the leaving one in the
entering column's slot, and Bland's rule picks the smallest eligible column
index over the slots, which a pivot leaves out of column order.  Rows are
reduced lazily: the pivot row is brought to lowest terms at every pivot, and
any other row only once its denominator passes ``ROW_BITS_MAX`` bits.  Ratio
tests and sign tests compare integer pairs by cross-multiplication, which no
common factor of a row can change, so every decision, and hence every pivot,
is the one exact rational arithmetic would make.

The boundary with the callers is integer-native.  A ``Fraction`` coefficient
or bound is read by its numerator and denominator, and only other values are
coerced; an absent lower bound is the integer 0.  Phase 1 decides
infeasibility in integers (a basic artificial with a nonzero right side),
and each row multiplier is made as one ``Fraction`` from integers.  On the
caller's side, ``SparseVec.over_one_denominator`` gives a vector's entries
as integer numerators over one denominator, made on first use and kept, so
that pairings repeated in integers scale each vector once.

A ``<=`` row whose right side stays nonnegative when the lower bounds are
shifted to zero (or a ``>=`` row whose right side stays nonpositive) starts on
its slack and needs no artificial column; a program made only of such rows
starts feasible, and its phase 1 makes no pivot.

Every outcome carries an exactly checkable witness and is checked exactly, in
integer arithmetic against the caller's rows (encoded once at entry and never
modified), before being returned; an optimum is proved by an exact dual
certificate on those rows.  Both certificates use one multiplier rule: the
multipliers are read off in one place and sign-checked in one.  A failed
check raises ``CertificateError`` explicitly, so the checks also run under
``python -O``.  A rational literal has at most ``LITERAL_DIGITS_MAX`` digits
in its numerator and denominator.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence, Union

from .errors import BadParameter, CertificateError, ParseError

__all__ = [
    "RationalLike",
    "SparseVec",
    "pair",
    "l1_norm",
    "solve_bounded",
    "BoundedOptimal",
    "BoundedInfeasible",
    "rational_to_str",
]

RationalLike = Union[Fraction, int, str]

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)
_SLACK = {LE: 1, EQ: 0, GE: -1}
_LITERAL = re.compile(r"-?(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")
# Most digits a literal may have in its numerator or in its denominator.
LITERAL_DIGITS_MAX = 1000
# Bit length of a tableau row's denominator past which the row is brought back
# to lowest terms.  Below it a common factor is cheaper to carry than to find:
# in lowest terms the package's programs keep their tableau entries under
# about 90 bits.  Bounds from 128 to 384 bits time alike on them, 64 is
# slower, and with no bound the factors compound from pivot to pivot.
ROW_BITS_MAX = 192
# One shared zero for defaults and sums; a Fraction is immutable.
_FRACTION_ZERO = Fraction(0)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints (but not bools), strings like ``-3/4``, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return rational_from_str(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_from_str(text: str) -> Fraction:
    """Parse exactly ``-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?``; ``2/4`` need not be reduced.

    A numerator or denominator longer than ``LITERAL_DIGITS_MAX`` digits is refused.
    """
    match = _LITERAL.fullmatch(text)
    if not match:
        raise ParseError(f"bad rational literal {text!r}")
    if max(len(part) for part in match.groups("")) > LITERAL_DIGITS_MAX:
        raise ParseError(f"rational literal of {len(text)} characters exceeds {LITERAL_DIGITS_MAX} digits in one part")
    return Fraction(text)


def rational_to_str(q: Fraction) -> str:
    """Canonical ``"num/den"`` form; the denominator is always written.

    A part longer than the interpreter's integer-to-string digit limit raises
    ``BadParameter`` naming that limit.
    """
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise BadParameter(f"an exact value has a part of more than {limit} digits, the limit for writing it") from exc


class SparseVec:
    """A finitely supported map from coordinate index (a natural) to a nonzero rational.

    One type serves both sides of the dual pair: as a test functional it is
    measured in the sup norm, as a dual point in the l1 norm.  Zero entries are
    never stored, so equality is plain entrywise equality and the empty vector
    is the zero vector of either role.  Instances are immutable and hashable.
    """

    __slots__ = ("_entries", "_hash", "_integers")

    def __init__(self, entries: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        cleaned: dict[int, Fraction] = {}
        for index, value in items:
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise ValueError(f"coordinate index must be a natural number, got {index!r}")
            q = as_rational(value)
            if q:
                cleaned[index] = q
        self._entries: dict[int, Fraction] = dict(sorted(cleaned.items()))
        self._hash: int | None = None
        self._integers: tuple[dict[int, int], int] | None = None

    @staticmethod
    def zero() -> "SparseVec":
        return _ZERO

    @staticmethod
    def basis(index: int, scale: RationalLike = 1) -> "SparseVec":
        """The scaled coordinate vector ``scale * e_index``."""
        return SparseVec({index: scale})

    # -- mapping-ish access --------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return self._entries.items()

    def get(self, index: int) -> Fraction:
        return self._entries.get(index, _FRACTION_ZERO)

    def over_one_denominator(self) -> tuple[dict[int, int], int]:
        """The entries as integer numerators ``{index: int}`` over their least common positive denominator.

        Made on first use and kept, so a vector that is paired in integers many
        times is scaled once, and one that never is costs nothing.
        """
        if self._integers is None:
            den = lcm(*[q.denominator for q in self._entries.values()])
            self._integers = ({k: q.numerator * (den // q.denominator) for k, q in self._entries.items()}, den)
        return self._integers

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "SparseVec") -> "SparseVec":
        if not isinstance(other, SparseVec):
            return NotImplemented
        out = dict(self._entries)
        for k, v in other._entries.items():
            out[k] = out.get(k, _FRACTION_ZERO) + v
        return SparseVec(out)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        if not isinstance(other, SparseVec):
            return NotImplemented
        out = dict(self._entries)
        for k, v in other._entries.items():
            out[k] = out.get(k, _FRACTION_ZERO) - v
        return SparseVec(out)

    def __neg__(self) -> "SparseVec":
        return SparseVec({k: -v for k, v in self._entries.items()})

    def scale(self, factor: RationalLike) -> "SparseVec":
        f = as_rational(factor)
        return SparseVec({k: f * v for k, v in self._entries.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {rational_to_str(v)}" for k, v in self._entries.items())
        return f"SparseVec({{{body}}})"


_ZERO = SparseVec()


def pair(functional: SparseVec, point: SparseVec) -> Fraction:
    """The dual pairing: sum of coordinatewise products over the shared support."""
    a, b = functional, point
    if len(a._entries) > len(b._entries):
        a, b = b, a
    total = _FRACTION_ZERO
    for k, v in a._entries.items():
        w = b._entries.get(k)
        if w is not None:
            total += v * w
    return total


def l1_norm(vec: SparseVec) -> Fraction:
    return sum((abs(v) for v in vec._entries.values()), _FRACTION_ZERO)


def sup_norm(vec: SparseVec) -> Fraction:
    return max((abs(v) for v in vec._entries.values()), default=_FRACTION_ZERO)


# ---------------------------------------------------------------------------
# Bounded-variable simplex engine.
#
# Callers describe: an ordered variable list (the order fixes Bland's rule and
# hence determinism), per-variable bounds lower <= x <= upper with finite
# lowers (split free variables before calling), and rows with <=, =, >=.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedOptimal:
    value: Fraction
    assignment: dict[Hashable, Fraction]


@dataclass(frozen=True)
class BoundedInfeasible:
    """Row multipliers ``y`` proving infeasibility (a Farkas certificate).

    Validity means: y_i <= 0 on "<=" rows, y_i >= 0 on ">=" rows, and with
    g = sum_i y_i a_i, sum_i y_i b_i exceeds the largest g . x over the variable
    bounds.  Any feasible x would give g . x >= sum_i y_i b_i, a contradiction.
    """

    row_multipliers: list[Fraction]


BoundedOutcome = Union[BoundedOptimal, BoundedInfeasible]

BoundedRow = tuple[Mapping[Hashable, Fraction], str, Fraction]


def solve_bounded(
    variables: Sequence[Hashable],
    objective: Mapping[Hashable, Fraction],
    rows: Sequence[BoundedRow],
    *,
    lower: Mapping[Hashable, Fraction] | None = None,
    upper: Mapping[Hashable, Fraction] | None = None,
) -> BoundedOutcome:
    """Maximize ``objective . x`` over ``lower <= x <= upper`` (lower defaults to 0, upper to +inf).

    Returns an optimal assignment or row multipliers proving infeasibility
    (see ``BoundedInfeasible``); both are re-checked exactly before
    returning.  The objective must be bounded on the feasible set: an
    unbounded program raises ``ValueError``.
    """
    return _Simplex(variables, objective, rows, lower or {}, upper or {}).run()


def _ratio(value: RationalLike) -> tuple[int, int]:
    """``value`` as ``(numerator, denominator)``; only a value that is not a ``Fraction`` is coerced."""
    q = value if value.__class__ is Fraction else as_rational(value)
    return q.numerator, q.denominator


def _over_one_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common positive denominator."""
    # A list, not a generator: a generator-fed argument tuple is grown by
    # resizing, and once freed it stays in the interpreter's tuple free lists
    # until a full garbage collection, which raises peak memory.
    den = lcm(*[q.denominator for q in values])
    return [q.numerator * (den // q.denominator) for q in values], den


def _lowest_terms(nums: list[int], den: int) -> tuple[list[int], int]:
    """Divide the integer row ``nums / den`` by the gcd of all its entries."""
    g = gcd(den, *nums)
    if g > 1:
        return [x // g for x in nums], den // g
    return nums, den


class _Simplex:
    """Bounded-variable two-phase simplex on a condensed integer-row tableau.

    The tableau holds the nonbasic columns only.  ``nb[q]`` is the column in
    slot ``q``, and ``slot[j]`` is column ``j``'s slot, or -1 while ``j`` is
    basic; there are ``ncols - len(rows)`` slots.  Row ``i`` is the rational
    row ``T[i] / den[i]`` over the slots with right side ``b[i] / den[i]``:
    integer numerators over its own positive denominator.  Its basic column
    ``basis[i]`` is implicitly 1 in it, and every other basic column is
    implicitly 0, so neither is stored.  The reduced-cost row is ``d / dden``
    over the same slots; a basic column's reduced cost is 0.  A built row is
    in lowest terms, and so is the pivot row after each pivot; any other row
    a pivot or bound flip rescales is reduced only once its denominator
    passes ``ROW_BITS_MAX`` bits, so every row is in lowest terms or within
    that bound.  All pivoting, flipping and comparison is exact integer
    arithmetic, and no comparison depends on a row's common factor;
    ``Fraction`` values, always normalized, are formed only when a solution
    is read off.

    ``__init__`` encodes the caller's program once, and nothing changes it
    afterwards: each row as ``(nums, rel, rhs, den)``, the sparse integer
    numerators ``{column: int}`` (zeros dropped) and the right side over one
    positive denominator; the bounds as numerators ``low`` and ``upp`` (``None``
    for no upper bound) over ``bden``; the cost as ``cost_nums`` over
    ``cost_den``.  The tableau is built from that encoding, and every
    ``_check_*`` certifies against it, in integers and in the caller's
    variables.
    """

    def __init__(self, variables, objective, rows, lower, upper):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable keys")
        self.varkeys = list(variables)
        self.nstruct = len(self.varkeys)
        index = {v: j for j, v in enumerate(self.varkeys)}

        # An absent bound is the integer 0 (lower) or None (upper); a Fraction
        # bound or coefficient is read as is, and anything else is coerced.
        low = [_ratio(lower[v]) if v in lower else (0, 1) for v in self.varkeys]
        upp = [None if (u := upper.get(v)) is None else _ratio(u) for v in self.varkeys]
        self.bden = lcm(*[q for _, q in low], *[u[1] for u in upp if u is not None])
        self.low = [a * (self.bden // q) for a, q in low]
        self.upp = [None if u is None else u[0] * (self.bden // u[1]) for u in upp]
        for j, u in enumerate(self.upp):
            if u is not None and u < self.low[j]:
                raise ValueError(f"variable {self.varkeys[j]!r} has empty bound interval")

        # Minimization internally, of the negated objective.
        self.cost: list[Fraction | int] = [0] * self.nstruct
        for v, coef in objective.items():
            if v not in index:
                raise ValueError(f"objective mentions unknown variable {v!r}")
            self.cost[index[v]] = -as_rational(coef)
        self.cost_nums, self.cost_den = _over_one_denominator(self.cost)

        self.rows: list[tuple[dict[int, int], str, int, int]] = []
        for coeffs, rel, rhs in rows:
            if rel not in _RELATIONS:
                raise ValueError(f"bad relation {rel!r}")
            cols, nums, dens = [], [], []
            for v, coef in coeffs.items():
                j = index.get(v)
                if j is None:
                    raise ValueError(f"row mentions unknown variable {v!r}")
                if coef.__class__ is not Fraction:
                    coef = as_rational(coef)
                a = coef.numerator
                if a:
                    cols.append(j)
                    nums.append(a)
                    dens.append(coef.denominator)
            rn, rd = _ratio(rhs)
            den = lcm(rd, *dens)
            sparse = dict(zip(cols, nums)) if den == 1 else {j: a * (den // q) for j, a, q in zip(cols, nums, dens)}
            self.rows.append((sparse, rel, rn * (den // rd), den))

    # -- setup ---------------------------------------------------------------

    def _build_tableau(self):
        """Shift lowers to zero, add slack and artificial columns, pick a basis.

        Row i is ``row_sign[i]`` times the shifted caller row and its slack
        (+1 on <=, -1 on >=), with a nonnegative right side.  Where the signed
        slack is not +1, an artificial column (in row order) starts basic.
        The nonbasic columns take the slots in increasing order.
        """
        m = len(self.rows)
        n = self.nstruct
        self.slack_col: list[int | None] = [None] * m
        self.art_col: list[int | None] = [None] * m
        self.basis: list[int] = [-1] * m
        self.row_sign: list[int] = []
        self.first_art = n + sum(rel != EQ for _, rel, _, _ in self.rows)
        next_slack, next_art = n, self.first_art
        # Row i times row_sign[i] is kept over den * |scale|: its right side is b
        # and each numerator is multiplied by scale, which carries the sign and
        # is bden when a nonzero lower bound shifts the row, else 1.
        shifted: list[tuple[int, int]] = []
        for i, (nums, rel, rhs, _) in enumerate(self.rows):
            shift = sum(a * self.low[j] for j, a in nums.items() if self.low[j])
            b, scale = (rhs * self.bden - shift, self.bden) if shift else (rhs, 1)
            sign = -1 if b < 0 else 1
            self.row_sign.append(sign)
            shifted.append((sign * b, sign * scale))
            if rel != EQ:
                self.slack_col[i] = next_slack
                next_slack += 1
            if sign * _SLACK[rel] == 1:
                self.basis[i] = self.slack_col[i]
            else:
                self.art_col[i] = self.basis[i] = next_art
                next_art += 1
        self.ncols = next_art

        basic = set(self.basis)
        self.nb = [j for j in range(self.ncols) if j not in basic]
        self.slot = [-1] * self.ncols
        for q, j in enumerate(self.nb):
            self.slot[j] = q
        width = len(self.nb)

        # The basic column, slack or artificial, is |scale| * den: the row's
        # denominator, left implicit.  Structurals are never basic here.
        self.T: list[list[int]] = []
        self.b: list[int] = []
        self.den: list[int] = []
        for i, (nums, rel, _, den) in enumerate(self.rows):
            b, scale = shifted[i]
            row = [0] * width
            for j, a in nums.items():
                row[self.slot[j]] = scale * a
            if self.art_col[i] is not None and rel != EQ:
                row[self.slot[self.slack_col[i]]] = scale * _SLACK[rel] * den
            self.T.append(row)
            self.b.append(b)
            self.den.append(abs(scale) * den)
            self._reduce(i)

        # Upper bounds per column (shifted), as integer pairs in lowest terms:
        # a structural's is (upp - low) / bden, a slack or artificial has none.
        self.ub_num: list[int | None] = [None] * self.ncols
        self.ub_den: list[int] = [1] * self.ncols
        for j, (u, low) in enumerate(zip(self.upp, self.low)):
            if u is not None:
                g = gcd(u - low, self.bden)
                self.ub_num[j], self.ub_den[j] = (u - low) // g, self.bden // g
        self.fixed = {j for j, u in enumerate(self.ub_num) if u == 0}
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

    def _reduced_costs(self, col_cost: list[Fraction | int]):
        """Set ``d / dden`` to ``col_cost`` minus the basic costs times the rows, over the slots."""
        dden = lcm(*[c.denominator for c in col_cost])
        d = [col_cost[j].numerator * (dden // col_cost[j].denominator) for j in self.nb]
        for i in self.live_rows:
            cb = col_cost[self.basis[i]]
            if cb:
                # d/dden - cb * row/den over the common denominator dden * q * den.
                scale = cb.denominator * self.den[i]
                factor = cb.numerator * dden
                d, dden = _lowest_terms([x * scale - factor * y for x, y in zip(d, self.T[i])], dden * scale)
        self.d, self.dden = d, dden

    # -- pivoting ------------------------------------------------------------

    def _pivot(self, r: int, e: int):
        """Make column e basic in row r, in exchange for row r's basic column.

        With ``q = slot[e]``, the pivot row becomes ``T[r]`` with slot q set to
        ``den[r]`` (the leaving column's implicit entry) over ``p = T[r][q]``,
        made positive and brought to lowest terms, since ``p`` multiplies
        every other row.  Every other row with a nonzero factor ``f`` in slot
        q becomes ``(row with slot q set to 0) * p - f * prow`` over
        ``den * p``, and so does the reduced-cost row; a row with ``f == 0``
        is untouched, and a rescaled row is reduced only past
        ``ROW_BITS_MAX``.  The leaving column then takes slot q.
        """
        q = self.slot[e]
        leave = self.basis[r]
        prow = self.T[r]
        p = prow[q]
        prow[q] = self.den[r]
        if p < 0:
            self.T[r] = [-x for x in prow]
            self.b[r] = -self.b[r]
        self.den[r] = abs(p)
        self._reduce(r)
        prow, pb, p = self.T[r], self.b[r], self.den[r]
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i in self.live_rows:
            if i == r:
                continue
            row = self.T[i]
            f = row[q]
            if f:
                new = [x * p for x in row] if p != 1 else list(row)
                new[q] = 0
                for j, y in support:
                    new[j] -= f * y
                self.T[i] = new
                self.b[i] = self.b[i] * p - f * pb
                self.den[i] *= p
                if self.den[i].bit_length() > ROW_BITS_MAX:
                    self._reduce(i)
        f = self.d[q]
        if f:
            d = [x * p for x in self.d] if p != 1 else list(self.d)
            d[q] = 0
            for j, y in support:
                d[j] -= f * y
            self.d, self.dden = d, self.dden * p
            if self.dden.bit_length() > ROW_BITS_MAX:
                self.d, self.dden = _lowest_terms(d, self.dden)
        self.basis[r] = e
        self.nb[q] = leave
        self.slot[leave] = q
        self.slot[e] = -1

    def _flip_nonbasic(self, e: int):
        un = self.ub_num[e]
        if un is None:
            raise CertificateError("bound flip on a column without an upper bound")
        ud = self.ub_den[e]
        q = self.slot[e]
        for i in self.live_rows:
            a = self.T[i][q]
            if a:
                # rhs - u * a over den, all rescaled by u's denominator.
                if ud != 1:
                    self.T[i] = [x * ud for x in self.T[i]]
                    self.den[i] *= ud
                self.b[i] = self.b[i] * ud - un * a
                self.T[i][q] = -a * ud
                if self.den[i].bit_length() > ROW_BITS_MAX:
                    self._reduce(i)
        self.d[q] = -self.d[q]
        self.flipped[e] = not self.flipped[e]

    def _flip_basic_row(self, r: int):
        """Re-express the basic variable of row r relative to its upper bound.

        Its implicit entry stays the row's denominator.  The pivot on row r
        that always follows brings the row to lowest terms.
        """
        var = self.basis[r]
        un = self.ub_num[var]
        if un is None:
            raise CertificateError("bound flip on a basic variable without an upper bound")
        ud = self.ub_den[var]
        den = self.den[r]
        self.T[r] = [-x * ud for x in self.T[r]]
        self.b[r] = un * den - ud * self.b[r]
        self.den[r] = den * ud
        self.flipped[var] = not self.flipped[var]

    def _iterate(self, allow_artificials: bool) -> int | None:
        """Run Bland pivots; return None at an optimum, else the entering column no row blocks.

        Bland's rule enters the smallest eligible column, whatever its slot:
        slots are not in column order once a pivot has exchanged two columns.
        Step lengths are compared as integer pairs ``num / den`` with
        ``den > 0`` by cross-multiplication, so every comparison is the exact
        rational one.
        """
        barred = self.fixed if allow_artificials else self.fixed.union(range(self.first_art, self.ncols))
        nb, ub_num, ub_den = self.nb, self.ub_num, self.ub_den
        while True:
            enter = None
            for q, x in enumerate(self.d):
                if x < 0:
                    j = nb[q]
                    if (enter is None or j < enter) and j not in barred:
                        enter, eq = j, q
            if enter is None:
                return None

            # Ratio test: smallest blocking step; Bland tie-break on variable index.
            best_n = ub_num[enter]
            best_d = ub_den[enter]
            best_kind = "flip"
            best_row = -1
            best_var = enter if best_n is not None else self.ncols
            for i in self.live_rows:
                a = self.T[i][eq]
                if a > 0:
                    tn, td = self.b[i], a
                    kind = "lower"
                elif a < 0:
                    bvar = self.basis[i]
                    un = ub_num[bvar]
                    if un is None:
                        continue
                    ud = ub_den[bvar]
                    tn, td = un * self.den[i] - ud * self.b[i], -a * ud
                    kind = "upper"
                else:
                    continue
                bvar = self.basis[i]
                if best_n is None:
                    better = True
                else:
                    left, right = tn * best_d, best_n * td
                    better = left < right or (left == right and bvar < best_var)
                if better:
                    best_n, best_d, best_kind, best_row, best_var = tn, td, kind, i, bvar
            if best_n is None:
                return enter
            if best_kind == "flip":
                self._flip_nonbasic(enter)
            else:
                if best_kind == "upper":
                    self._flip_basic_row(best_row)
                self._pivot(best_row, enter)

    # -- value extraction ----------------------------------------------------

    def _structural_values(self) -> list[Fraction]:
        """The caller's variables, in order, at the current basic solution.

        Each is formed in integers over ``bden`` (times its row's denominator
        when basic) and made one ``Fraction``: a nonbasic variable sits at its
        lower or, flipped, its upper bound, and a basic one is its row's
        right side above the lower bound or, flipped, below the upper.
        """
        bden = self.bden
        row_of = {self.basis[i]: i for i in self.live_rows}
        x: list[Fraction] = []
        for j, low in enumerate(self.low):
            i = row_of.get(j)
            if i is not None:
                den, b = self.den[i], self.b[i]
                if self.flipped[j]:
                    x.append(Fraction(self.upp[j] * den - b * bden, den * bden))
                else:
                    x.append(Fraction(b * bden + low * den, den * bden))
            elif self.flipped[j]:
                x.append(Fraction(self.upp[j], bden))
            else:
                x.append(Fraction(low, bden) if low else _FRACTION_ZERO)
        return x

    # -- driver --------------------------------------------------------------

    def run(self) -> BoundedOutcome:
        """Build the tableau, drive the artificials to zero and evict them, then optimize ``cost``."""
        self._build_tableau()
        phase1_cost = [0] * self.first_art + [1] * (self.ncols - self.first_art)
        self._reduced_costs(phase1_cost)
        leftover = self._iterate(allow_artificials=True)
        if leftover is not None:
            raise CertificateError("phase 1 objective is bounded below, cannot be unbounded")

        # The artificials sum to a positive value exactly when one of them is
        # basic at a nonzero level; a nonbasic one is at zero (it has no upper
        # bound to flip to).
        if any(self.basis[i] >= self.first_art and self.b[i] for i in self.live_rows):
            mult = self._multipliers(phase1_cost)
            self._check_infeasibility(mult)
            return BoundedInfeasible(mult)
        self._evict_artificials()

        col_cost: list[Fraction | int] = [0] * self.ncols
        for j in range(self.nstruct):
            col_cost[j] = -self.cost[j] if self.flipped[j] else self.cost[j]
        self._reduced_costs(col_cost)
        enter = self._iterate(allow_artificials=False)
        if enter is not None:
            column = repr(self.varkeys[enter]) if enter < self.nstruct else f"slack column {enter}"
            raise ValueError(f"the objective is unbounded: it improves without limit along {column}")

        values = self._structural_values()
        self._check_feasible_point(values)
        self._check_optimal_bound(values, self._multipliers(col_cost))
        raw = sum((c * x for c, x in zip(self.cost, values) if c), _FRACTION_ZERO)
        return BoundedOptimal(-raw, dict(zip(self.varkeys, values)))

    def _evict_artificials(self):
        """Pivot residual zero-level artificials out of the basis; drop redundant rows.

        The column entering for row i is the smallest non-artificial column
        with a nonzero entry in it; only a nonbasic column can have one.
        """
        for i in list(self.live_rows):
            if self.basis[i] < self.first_art:
                continue
            row = self.T[i]
            target = min((j for q, j in enumerate(self.nb) if j < self.first_art and row[q]), default=None)
            if target is None:
                self.live_rows.remove(i)
            else:
                self._pivot(i, target)

    def _multipliers(self, col_cost: list[Fraction | int]) -> list[Fraction]:
        """The row multipliers ``y`` at the current reduced costs of ``col_cost``.

        ``y_i`` is ``row_sign[i]`` times the cost minus the reduced cost of row
        i's artificial column, or of its slack column when it has none (0 while
        that column is basic), formed in integers over ``c.denominator * dden``
        and made a ``Fraction`` once.
        """
        mult = []
        for i, sign in enumerate(self.row_sign):
            col = self.art_col[i] if self.art_col[i] is not None else self.slack_col[i]
            c = col_cost[col]
            q = c.denominator
            s = self.slot[col]
            reduced = self.d[s] if s >= 0 else 0
            mult.append(Fraction(sign * (c.numerator * self.dden - q * reduced), q * self.dden))
        return mult

    # -- exact self-checks on the caller's rows ------------------------------
    #
    # These read only the integer encoding made in ``__init__`` (``rows``,
    # ``low``/``upp`` over ``bden``, ``cost_nums`` over ``cost_den``), never the
    # tableau.  A witness point or a multiplier vector is put over one common
    # denominator first, and every comparison is a cross-multiplication.

    def _check_feasible_point(self, values: Sequence[Fraction]):
        xs, xden = _over_one_denominator(values)
        for j, x in enumerate(xs):
            x *= self.bden
            if x < self.low[j] * xden or (self.upp[j] is not None and x > self.upp[j] * xden):
                raise CertificateError(f"bound violation on {self.varkeys[j]!r}")
        for nums, rel, rhs, _ in self.rows:
            # Both sides over den * xden.
            lhs = sum(a * xs[j] for j, a in nums.items())
            rhs *= xden
            if (rel == LE and lhs > rhs) or (rel == GE and lhs < rhs) or (rel == EQ and lhs != rhs):
                raise CertificateError("row violation in optimal witness")

    def _combine(self, mult: Sequence[Fraction]) -> tuple[dict[int, int], int, int]:
        """``(sum_i y_i a_i, sum_i y_i b_i)`` as integers over one positive denominator, returned third.

        Each ``y_i`` must first have the sign documented on ``BoundedInfeasible``.
        """
        used = []
        for y, (nums, rel, rhs, den) in zip(mult, self.rows):
            if not y:
                continue
            if (rel == LE and y > 0) or (rel == GE and y < 0):
                raise CertificateError(f"multiplier sign error on {rel} row")
            used.append((y.numerator, y.denominator * den, nums, rhs))
        cden = lcm(*[q for _, q, _, _ in used])
        combined: dict[int, int] = {}
        total = 0
        for p, q, nums, rhs in used:
            w = p * (cden // q)
            for j, a in nums.items():
                combined[j] = combined.get(j, 0) + w * a
            total += w * rhs
        return combined, total, cden

    def _check_optimal_bound(self, values: Sequence[Fraction], mult: Sequence[Fraction]):
        """Certify optimality with the exact dual solution ``mult`` of the caller's program.

        ``y_i`` must be zero unless row i is tight at ``values``; with
        ``r = cost - sum_i y_i a_i``, ``r_j > 0`` only at a lower bound and
        ``r_j < 0`` only at a finite upper bound.  That proves weak duality:
        every feasible x has ``cost . x >= cost . values``.  As ``values`` is
        feasible, each ``y_i (a_i . values - b_i)`` is nonnegative, so their sum
        is zero exactly when every row with ``y_i != 0`` is tight.
        """
        combined, total, cden = self._combine(mult)
        xs, xden = _over_one_denominator(values)
        if sum(g * xs[j] for j, g in combined.items()) != total * xden:
            raise CertificateError("nonzero dual multiplier on a row that is not tight")
        for j, x in enumerate(xs):
            # r_j times cden * cost_den.
            r = self.cost_nums[j] * cden - combined.get(j, 0) * self.cost_den
            x *= self.bden
            if r > 0 and x != self.low[j] * xden:
                raise CertificateError("positive reduced cost away from lower bound")
            if r < 0 and (self.upp[j] is None or x != self.upp[j] * xden):
                raise CertificateError("negative reduced cost away from upper bound")

    def _check_infeasibility(self, mult: Sequence[Fraction]):
        combined, total, cden = self._combine(mult)
        # Fold variable bounds into the contradiction margin, over cden * bden.
        margin = total * self.bden
        for j, g in combined.items():
            if g > 0:
                if self.upp[j] is None:
                    raise CertificateError("certificate leaks through an unbounded-above variable")
                margin -= g * self.upp[j]
            elif g < 0:
                margin -= g * self.low[j]
        if not margin > 0:
            raise CertificateError("infeasibility certificate does not reach a contradiction")
