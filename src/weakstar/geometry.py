"""V-representation convex geometry on the dual side of the pair.

Sets of summable sequences are represented by finitely many generators: a
``PointSet`` is just finitely many points, a ``Polyhedron`` is the closed
convex hull of its vertices swept along its recession rays.  Every geometric
query (membership, redundancy, support values) reduces to a small exact LP on
the generators, so no facet/H-representation is ever computed.  Pruning a hull
is output-sensitive: each vertex is tested only against the extreme points
found so far, and when the test fails, its Farkas functional, checked exactly
to separate, is maximized to find the next one.  That check and that
maximization are integer arithmetic: every vector is read as integer
numerators over one denominator, and pairings are compared by
cross-multiplication, so no ``Fraction`` is made per generator.

``PolarSpec`` pins down the concrete model: test functionals live in the
finitely supported sup-norm space, dual points in l1, and the polar of the
radius-r sup-ball is the closed l1-ball of radius r.  Finite-dimensional
examples embed as vectors supported on the first few coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Sequence, Union

from .errors import BadParameter, CertificateError, UnboundedInput
from .numerics import (
    BoundedInfeasible,
    BoundedOptimal,
    RationalLike,
    SparseVec,
    as_rational,
    l1_norm,
    pair,
    solve_bounded,
    sup_norm,
)

__all__ = [
    "PointSet",
    "Polyhedron",
    "PolarSpec",
    "ScalarSet",
    "FinitePoints",
    "Interval",
    "closed_convex_hull",
    "irredundant_vertices",
    "membership",
    "scalar_image",
    "recession_rays",
    "polar_contains",
]


@dataclass(frozen=True)
class PointSet:
    """A finite nonempty set of dual points, order-preserving and deduplicated."""

    points: tuple[SparseVec, ...]

    def __init__(self, points: Iterable[SparseVec]):
        deduped = tuple(dict.fromkeys(points))
        if not deduped:
            raise BadParameter("a point set must contain at least one point")
        object.__setattr__(self, "points", deduped)


@dataclass(frozen=True)
class Polyhedron:
    """Closed convex hull of ``vertices`` plus nonnegative combinations of ``rays``.

    The generator lists may be redundant; only ``closed_convex_hull`` prunes them.
    """

    vertices: tuple[SparseVec, ...]
    rays: tuple[SparseVec, ...] = ()

    def __init__(self, vertices: Iterable[SparseVec], rays: Iterable[SparseVec] = ()):
        vs = tuple(dict.fromkeys(vertices))
        if not vs:
            raise BadParameter("a polyhedron must have at least one vertex")
        rs = tuple(rays)
        if any(not r for r in rs):
            raise BadParameter("recession rays must be nonzero")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "rays", rs)

    @property
    def bounded(self) -> bool:
        return not self.rays


@dataclass(frozen=True)
class PolarSpec:
    """The closed l1-ball of a given radius, i.e. the polar of the radius-r sup-ball."""

    radius: Fraction

    def __init__(self, radius: RationalLike = 1):
        r = as_rational(radius)
        if r <= 0:
            raise BadParameter("polar radius must be positive")
        object.__setattr__(self, "radius", r)

    def max_abs_pairing(self, functional: SparseVec) -> Fraction:
        """sup of |pairing| against this ball; attained at a scaled basis direction."""
        return self.radius * sup_norm(functional)


@dataclass(frozen=True)
class FinitePoints:
    """A finite strictly increasing list of scalars."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[RationalLike]):
        vs = tuple(sorted({as_rational(v) for v in values}))
        if not vs:
            raise BadParameter("a finite scalar set must be nonempty")
        object.__setattr__(self, "values", vs)


@dataclass(frozen=True)
class Interval:
    """A nonempty closed scalar interval; the lower end may be ``-inf``, the upper ``inf``."""

    lower: Union[Fraction, float]
    upper: Union[Fraction, float]

    def __init__(self, lower, upper):
        def end(value):
            if isinstance(value, float):
                if value in (inf, -inf):
                    return value
                raise BadParameter("interval ends must be rational or infinite")
            return as_rational(value)

        lo, hi = end(lower), end(upper)
        if not lo <= hi or lo == inf or hi == -inf:
            raise BadParameter(f"[{lo}, {hi}] is not a nonempty interval of real numbers")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


ScalarSet = Union[FinitePoints, Interval]

SetLike = Union[PointSet, Polyhedron]


def _generators(body: SetLike) -> tuple[tuple[SparseVec, ...], tuple[SparseVec, ...]]:
    if isinstance(body, PointSet):
        return body.points, ()
    return body.vertices, body.rays


def _dot(first: dict[int, int], second: dict[int, int]) -> int:
    """The integer dot product of two sparse integer vectors."""
    if len(first) > len(second):
        first, second = second, first
    return sum(a * second[k] for k, a in first.items() if k in second)


def _level(functional: dict[int, int], vector: SparseVec) -> tuple[int, int]:
    """The pairing of a functional's numerators with ``vector``, as ``(numerator, positive denominator)``.

    It is the true pairing times the functional's common denominator, which
    is positive, so levels of one functional compare as the pairings do.
    """
    nums, den = vector.over_one_denominator()
    return _dot(functional, nums), den


def _separates(c: SparseVec, target: SparseVec, points: Sequence[SparseVec], rays: Sequence[SparseVec]) -> bool:
    """Whether ``c . target`` exceeds ``c . p`` for every point (0 when there are none) and ``c . r <= 0`` on every ray."""
    cn, _ = c.over_one_denominator()
    top, tden = _level(cn, target)
    if points:
        above = all(n * tden < top * d for n, d in (_level(cn, p) for p in points))
    else:
        above = top > 0
    return above and all(_level(cn, r)[0] <= 0 for r in rays)


def _maximizers(c: SparseVec, vectors: Sequence[SparseVec], indices: Iterable[int]) -> list[int]:
    """The indices ``j`` among ``indices`` with ``c . vectors[j]`` largest, in the given order."""
    cn, _ = c.over_one_denominator()
    level = {j: _level(cn, vectors[j]) for j in indices}
    top, tden = next(iter(level.values()))
    for n, d in level.values():
        if n * tden > top * d:
            top, tden = n, d
    return [j for j, (n, d) in level.items() if n * tden == top * d]


def _combination_feasible(
    target: SparseVec, points: Sequence[SparseVec], rays: Sequence[SparseVec]
) -> SparseVec | None:
    """``None`` when target = sum a_i p_i + sum b_j r_j with a, b >= 0 and sum a = 1.

    With no points the target is tested against the cone of the rays alone.
    Otherwise returns a functional ``c`` separating the target: ``c . target``
    exceeds ``c . p`` for every point (exceeds 0 when there are none) and
    ``c . r <= 0`` on every ray.  ``c`` is read off the Farkas multipliers on the
    coordinate rows and checked exactly before it is returned, in integers:
    each generator's pairing with ``c`` is compared with the target's by
    cross-multiplication over ``c``'s common denominator.
    """
    coords: set[int] = set(target.support)
    for g in (*points, *rays):
        coords.update(g.support)
    ks = sorted(coords)
    variables = [("a", i) for i in range(len(points))] + [("b", j) for j in range(len(rays))]
    coeffs: dict[int, dict] = {k: {} for k in ks}
    for column, g in zip(variables, (*points, *rays)):
        for k, v in g.items():
            coeffs[k][column] = v
    rows: list = []
    if points:
        one = Fraction(1)
        rows.append((dict.fromkeys(variables[: len(points)], one), "=", one))
    rows += [(coeffs[k], "=", target.get(k)) for k in ks]
    out = solve_bounded(variables, {}, rows)
    if isinstance(out, BoundedOptimal):
        return None
    if not isinstance(out, BoundedInfeasible) or len(out.row_multipliers) != len(rows):
        raise CertificateError(f"combination LP gave {type(out).__name__} without a Farkas certificate")
    c = SparseVec(zip(ks, out.row_multipliers[len(rows) - len(ks) :]))
    if not _separates(c, target, points, rays):
        raise CertificateError("combination LP's Farkas functional does not separate the target")
    return c


def max_gap_functional(
    target: SparseVec, others: Sequence[SparseVec], blocked: Sequence[SparseVec] = ()
) -> tuple[SparseVec, Fraction]:
    """The functional ``a`` in the unit sup-box maximizing the smallest gap to ``others``.

    Maximizes ``gap`` subject to ``a . (target - w) >= gap`` for each ``w`` in
    ``others`` and ``a . s <= 0`` for each ``s`` in ``blocked``.  Gives exposure
    margins, separating functionals and, with ``others`` the origin, escape
    directions.  ``others`` must be nonempty, since its rows bound the gap.
    Returns ``(a, gap)``; the gap must be positive.
    """
    coords: set[int] = set(target.support)
    for g in (*others, *blocked):
        coords.update(g.support)
    ks = sorted(coords)
    variables = [("a", k) for k in ks] + [("gap",)]
    lower = {("a", k): Fraction(-1) for k in ks}
    upper = {("a", k): Fraction(1) for k in ks}
    rows = []
    for w in others:
        coeffs = {("a", k): v for k, v in (target - w).items()}
        coeffs[("gap",)] = Fraction(-1)
        rows.append((coeffs, ">=", Fraction(0)))
    for s in blocked:
        rows.append(({("a", k): v for k, v in s.items()}, "<=", Fraction(0)))
    out = solve_bounded(variables, {("gap",): Fraction(1)}, rows, lower=lower, upper=upper)
    if not isinstance(out, BoundedOptimal) or not out.value > 0:
        raise CertificateError(f"largest-gap LP gave {type(out).__name__} without a positive gap")
    return SparseVec({k: out.assignment[("a", k)] for k in ks}), out.value


def membership(sigma: SparseVec, body: SetLike) -> bool:
    """Exact test of sigma lying in the set.

    A ``PointSet`` holds only its points, as its ``scalar_image`` does, so
    sigma must be one of them; a ``Polyhedron`` holds its closed convex hull.
    A listed vertex is a member without an LP, with or without rays.
    """
    if isinstance(body, PointSet):
        return sigma in body.points
    return sigma in body.vertices or _combination_feasible(sigma, body.vertices, body.rays) is None


def _prune_vertices(vertices: Sequence[SparseVec], rays: Sequence[SparseVec]) -> tuple[SparseVec, ...]:
    """The vertices that the other generators cannot replace, in input order.

    Clarkson's output-sensitive pruning: a vertex is tested only against the
    extreme points found so far and the rays.  Inside their hull it is
    redundant.  Outside, the separating functional ``c`` of the test (``0`` in
    the first round) is maximized over the undecided vertices.  If every ray
    descends strictly along ``c``, the maximizers span a bounded face and their
    lexicographic maximum is a new extreme point.  Otherwise the face may hold
    a line, so the maximizers are tested in input order against the later ones
    and the face's rays, as the quadratic loop did: the redundant ones are
    dropped and the first that is not is kept, so of vertices that differ along
    a line the last is kept.  Vertices must be distinct.
    """
    dims = sorted({k for v in vertices for k in v.support})
    pending = dict.fromkeys(range(len(vertices)))
    found: list[SparseVec] = []
    for i in range(len(vertices)):
        while i in pending:
            c = _combination_feasible(vertices[i], found, rays) if found else SparseVec.zero()
            if c is None:
                del pending[i]
                continue
            tied = _maximizers(c, vertices, pending)
            cn, _ = c.over_one_denominator()
            face_rays = [r for r in rays if not _level(cn, r)[0]]
            if face_rays:
                while len(tied) > 1 and _combination_feasible(
                    vertices[tied[0]], [vertices[j] for j in tied[1:]], face_rays
                ) is None:
                    del pending[tied.pop(0)]
                m = tied[0]
            else:
                m = max(tied, key=lambda j: [vertices[j].get(k) for k in dims])
            del pending[m]
            found.append(vertices[m])
    kept = set(found)
    return tuple(v for v in vertices if v in kept)


def _prune_rays(rays: Sequence[SparseVec]) -> tuple[SparseVec, ...]:
    # Collapse positively parallel duplicates first so mutual membership cannot
    # delete both members of a parallel pair.
    keep: list[SparseVec] = []
    directions: set[SparseVec] = set()
    for r in rays:
        unit = r.scale(Fraction(1) / l1_norm(r))
        if unit not in directions:
            directions.add(unit)
            keep.append(r)
    i = 0
    while i < len(keep):
        rest = keep[:i] + keep[i + 1 :]
        if rest and _combination_feasible(keep[i], [], rest) is None:
            del keep[i]
        else:
            i += 1
    return tuple(keep)


def closed_convex_hull(body: SetLike) -> Polyhedron:
    """The closed convex hull as an irredundant polyhedron."""
    points, rays = _generators(body)
    clean_rays = _prune_rays(rays)
    clean_vertices = _prune_vertices(points, clean_rays)
    return Polyhedron(clean_vertices, clean_rays)


def irredundant_vertices(body: SetLike) -> PointSet:
    """The extreme points of the hull of the generators."""
    return PointSet(closed_convex_hull(body).vertices)


def recession_rays(body: Polyhedron) -> list[SparseVec]:
    """An irredundant list of recession directions; empty exactly when bounded."""
    return list(_prune_rays(body.rays))


def support_value(body: Polyhedron, functional: SparseVec) -> Union[Fraction, float]:
    """max of the pairing over the polyhedron; +inf when a ray escapes upward."""
    for r in body.rays:
        if pair(functional, r) > 0:
            return inf
    return max(pair(functional, v) for v in body.vertices)


def scalar_image(body: SetLike, functional: SparseVec) -> ScalarSet:
    """The set of pairing values: finitely many for points, an interval for a hull."""
    if isinstance(body, PointSet):
        return FinitePoints(pair(functional, p) for p in body.points)
    hi = support_value(body, functional)
    lo_raw = support_value(body, -functional)
    lo = -inf if lo_raw == inf else -lo_raw
    return Interval(lo, hi)


def path_combine(lam: RationalLike, first: Polyhedron, second: Polyhedron) -> Polyhedron:
    """The pointwise blend {(1-t)p + t q}, a polytope on pairwise vertex blends."""
    t = as_rational(lam)
    if not 0 <= t <= 1:
        raise BadParameter(f"blend parameter must lie in [0, 1], got {t}")
    if first.rays or second.rays:
        raise UnboundedInput("pointwise blending is defined for bounded sets only")
    combos = [v.scale(1 - t) + w.scale(t) for v in first.vertices for w in second.vertices]
    return closed_convex_hull(PointSet(combos))


def polar_contains(sigma: SparseVec, ball: PolarSpec) -> bool:
    """Exact membership of the closed l1-ball of the given radius."""
    return l1_norm(sigma) <= ball.radius
