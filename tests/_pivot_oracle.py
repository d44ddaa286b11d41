"""Frozen copy of the eager row reduction of the simplex engine, kept as a test oracle.

These are ``weakstar.numerics._Simplex``'s ``_reduce``, ``_pivot``,
``_flip_nonbasic`` and ``_flip_basic_row``, and the module's ``_lowest_terms``,
as they shipped before rows were reduced lazily, copied verbatim: every row a
pivot or bound flip touches, and the reduced-cost row, is brought back to
lowest terms at once.  ``EagerSimplex`` puts them on the current engine, so
everything else (encoding, build, ratio test, read-off, checks) is shared.
``test_pivot_differential.py`` requires the current engine to make the same
pivots and flips and hold the same rational rows after each one.  Their logic
does not change.
"""

from __future__ import annotations

from math import gcd

from weakstar.errors import CertificateError
from weakstar.numerics import _Simplex


def _lowest_terms(nums: list[int], den: int) -> tuple[list[int], int]:
    """Divide the integer row ``nums / den`` by the gcd of all its entries."""
    g = gcd(den, *nums)
    if g > 1:
        return [x // g for x in nums], den // g
    return nums, den


class EagerSimplex(_Simplex):
    """The current engine with the eager row updates."""

    def _reduce(self, i: int):
        """Bring row i back to lowest terms."""
        row = self.T[i]
        g = gcd(self.den[i], self.b[i], *row)
        if g > 1:
            self.T[i] = [x // g for x in row]
            self.b[i] //= g
            self.den[i] //= g

    def _pivot(self, r: int, e: int):
        """Make column e basic in row r.

        The pivot row, divided by its entry in column e, is ``T[r] / T[r][e]``
        (its old denominator cancels).  Every other row with a nonzero factor
        ``f`` in column e becomes ``(row * p - f * T[r]) / (den * p)``, which
        touches only the pivot row's nonzero columns beyond the rescaling.
        """
        p = self.T[r][e]
        if p < 0:
            self.T[r] = [-x for x in self.T[r]]
            self.b[r] = -self.b[r]
        self.den[r] = abs(p)
        self._reduce(r)
        prow, pb, p = self.T[r], self.b[r], self.den[r]
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i in self.live_rows:
            if i == r:
                continue
            row = self.T[i]
            f = row[e]
            if f:
                new = [x * p for x in row] if p != 1 else list(row)
                for j, y in support:
                    new[j] -= f * y
                self.T[i] = new
                self.b[i] = self.b[i] * p - f * pb
                self.den[i] *= p
                self._reduce(i)
        f = self.d[e]
        if f:
            d = [x * p for x in self.d] if p != 1 else list(self.d)
            for j, y in support:
                d[j] -= f * y
            self.d, self.dden = _lowest_terms(d, self.dden * p)
        self.basis[r] = e

    def _flip_nonbasic(self, e: int):
        u = self.ub[e]
        if u is None:
            raise CertificateError("bound flip on a column without an upper bound")
        un, ud = u.numerator, u.denominator
        for i in self.live_rows:
            a = self.T[i][e]
            if a:
                # rhs - u * a over den, all rescaled by u's denominator.
                if ud != 1:
                    self.T[i] = [x * ud for x in self.T[i]]
                    self.den[i] *= ud
                self.b[i] = self.b[i] * ud - un * a
                self.T[i][e] = -a * ud
                self._reduce(i)
        self.d[e] = -self.d[e]
        self.flipped[e] = not self.flipped[e]

    def _flip_basic_row(self, r: int):
        """Re-express the basic variable of row r relative to its upper bound."""
        var = self.basis[r]
        u = self.ub[var]
        if u is None:
            raise CertificateError("bound flip on a basic variable without an upper bound")
        un, ud = u.numerator, u.denominator
        den = self.den[r]
        row = [-x * ud for x in self.T[r]]
        row[var] = den * ud
        self.T[r] = row
        self.b[r] = un * den - ud * self.b[r]
        self.den[r] = den * ud
        self._reduce(r)
        self.flipped[var] = not self.flipped[var]
