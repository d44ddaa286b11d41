"""Hausdorff-type distances between generator-represented dual sets.

Three layers of structure, all exact:

* ``pseudometric_dH`` — for one test functional, the Hausdorff distance (in
  the extended reals) between the scalar images of two sets.  The whole family
  of these, one per functional, is the object of interest; +inf is a
  first-class value, arising exactly when one image escapes in a direction the
  other does not.
* ``metric_d`` — a single metric on a fixed bounded "normalizing" body, a
  weighted sum over the coordinate functionals of image differences, finite
  and exact since only the coordinates in the supports involved contribute.
* ``hausdorff_full`` — the Hausdorff metric induced by ``metric_d`` on bounded
  polytopes inside the normalizing body, the largest per-vertex distance LP
  value (the farthest point of a polytope from a convex body is a vertex).
  A vertex's ``metric_d`` to the nearest vertex of the other polytope bounds
  its distance in closed form, and a vertex whose bound cannot raise the
  maximum solves no LP.  ``distances_to_body`` builds the distance LP of one
  body once for many points; the LPs differ only in their objective, each
  starts feasible so phase 1 makes no pivot, and a term no vertex of the
  body sees is added in closed form instead of as a column.  The bounds and
  each distance LP's ``floor`` are computed in integers, with images over
  one common denominator and weights over another (``_scaled``); the LP
  rows themselves keep their ``Fraction`` entries.

The module also produces separation witnesses (a functional telling two
distinct hulls apart), infinite-distance witnesses (a functional seeing a
recession-cone mismatch), and evaluates Boolean combinations of
cylinder-boundedness predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from typing import Callable, Optional, Sequence, Union

from .errors import BadParameter, CertificateError, NotInNormalizingSet, UnboundedInput
from .geometry import (
    FinitePoints,
    PointSet,
    PolarSpec,
    Polyhedron,
    ScalarSet,
    max_gap_functional,
    membership,
    polar_contains,
    recession_rays,
    scalar_image,
)
from .numerics import BoundedOptimal, SparseVec, pair, solve_bounded

__all__ = [
    "MetricConfig",
    "CylinderSpec",
    "ClopenAtom",
    "ClopenNot",
    "ClopenAnd",
    "ClopenOr",
    "pseudometric_dH",
    "metric_d",
    "point_body_distance",
    "hausdorff_full",
    "separating_direction",
    "immeasurable_witness",
    "cylinder_bounded",
    "clopen_eval",
]

SetLike = Union[PointSet, Polyhedron]
Distance = Union[Fraction, float]  # a rational or +inf


# ---------------------------------------------------------------------------
# Configuration of the compact-set metric.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricConfig:
    """Weighted coordinate functionals over a bounded normalizing body.

    The n-th functional (n >= 1) is the coordinate functional e_{n-1}; these
    span the finitely supported sequences.  The n-th weight is
    2^(-n) / (1 + normalizer(e_{n-1})) where normalizer(A) is the largest
    absolute pairing of A against the normalizing body, so every term of the
    metric sum on that body is bounded by 2^(1-n).  Only the finitely many
    coordinates in the supports involved contribute, so the sum is exact.
    """

    normalizing_set: Union[PolarSpec, Polyhedron]

    def __init__(self, normalizing_set: Union[PolarSpec, Polyhedron, None] = None):
        body = PolarSpec(1) if normalizing_set is None else normalizing_set
        if isinstance(body, Polyhedron) and body.rays:
            raise BadParameter("the normalizing set must be bounded")
        object.__setattr__(self, "normalizing_set", body)

    def functional(self, n: int) -> SparseVec:
        """The n-th test functional e_{n-1}, n >= 1."""
        if n < 1:
            raise BadParameter("enumeration index starts at 1")
        return SparseVec.basis(n - 1)

    def normalizer(self, functional: SparseVec) -> Fraction:
        """max |pairing| of the functional against the normalizing body."""
        body = self.normalizing_set
        if isinstance(body, PolarSpec):
            return body.max_abs_pairing(functional)
        return max(abs(pair(functional, v)) for v in body.vertices)

    def weight(self, n: int) -> Fraction:
        return Fraction(1, 2**n) / (1 + self.normalizer(self.functional(n)))

    def contains(self, sigma: SparseVec) -> bool:
        body = self.normalizing_set
        if isinstance(body, PolarSpec):
            return polar_contains(sigma, body)
        return membership(sigma, body)

    def term_indices(self, *vectors: SparseVec) -> list[int]:
        """The indices ``n`` whose coordinate ``n - 1`` is in some support: the only nonzero metric terms."""
        coords: set[int] = set()
        for v in vectors:
            coords.update(v.support)
        return [k + 1 for k in sorted(coords)]


# ---------------------------------------------------------------------------
# Hausdorff distance between scalar images.
# ---------------------------------------------------------------------------


def _distance_to(y: Fraction, second: ScalarSet) -> Fraction:
    """The distance from the rational ``y`` to a scalar set; an infinite end is never nearest."""
    if isinstance(second, FinitePoints):
        return min(abs(y - x) for x in second.values)
    return max(second.lower - y, y - second.upper, Fraction(0))


def _excess(first: ScalarSet, second: ScalarSet) -> Distance:
    """sup over ``first`` of the distance to ``second``; +inf if only ``first`` is unbounded on a side.

    The distance to ``second`` is piecewise linear, and its only interior
    maxima are the midpoints between consecutive points of a finite ``second``.
    """
    if isinstance(first, FinitePoints):
        return max(_distance_to(y, second) for y in first.values)
    lo, hi = first.lower, first.upper
    if isinstance(second, FinitePoints):
        values = second.values
        far_lo, far_hi = values[0], values[-1]
        mids = [min(max((left + right) / 2, lo), hi) for left, right in zip(values, values[1:])]
    else:
        far_lo, far_hi, mids = second.lower, second.upper, []
    if (lo == -inf and far_lo != -inf) or (hi == inf and far_hi != inf):
        return inf
    candidates = [end for end in (lo, hi) if end not in (-inf, inf)] + mids
    return max((_distance_to(y, second) for y in candidates), default=Fraction(0))


def _hausdorff_scalar(first: ScalarSet, second: ScalarSet) -> Distance:
    return max(_excess(first, second), _excess(second, first))


def pseudometric_dH(first: SetLike, second: SetLike, functional: SparseVec) -> Distance:
    """Hausdorff distance between the scalar images under one test functional."""
    return _hausdorff_scalar(scalar_image(first, functional), scalar_image(second, functional))


# ---------------------------------------------------------------------------
# The compact-set metric and its induced Hausdorff metric.
# ---------------------------------------------------------------------------


def metric_d(sigma: SparseVec, tau: SparseVec, cfg: MetricConfig = MetricConfig()) -> Fraction:
    """Weighted sum of the coordinate differences of ``sigma`` and ``tau``."""
    for point in (sigma, tau):
        if not cfg.contains(point):
            raise NotInNormalizingSet("both points must lie in the normalizing set")
    diff = sigma - tau
    total = Fraction(0)
    for n in cfg.term_indices(diff):
        total += cfg.weight(n) * abs(diff.get(n - 1))
    return total


def point_body_distance(sigma: SparseVec, body: Polyhedron, cfg: MetricConfig = MetricConfig()) -> Fraction:
    """min over the polytope of metric_d to sigma; the one-point ``distances_to_body``."""
    if not all(cfg.contains(point) for point in (sigma, *body.vertices)):
        raise NotInNormalizingSet("the point and the body must lie in the normalizing set")
    return distances_to_body([sigma], body, cfg)[0]


def _images(ns: Sequence[int], vectors: Sequence[SparseVec]) -> dict[SparseVec, list[Fraction]]:
    """Each vector's coordinates ``n - 1`` for the indices ``n`` in ``ns``, in that order."""
    return {v: [v.get(n - 1) for n in ns] for v in vectors}


def _scaled(images: Sequence[list[Fraction]], weights: Sequence[Fraction]) -> tuple[list[list[int]], list[int], int]:
    """The images as integers over one common denominator and the weights over another.

    Returns the scaled images, the scaled weights and ``scale``, the product of
    the two denominators, so that ``weight * image`` is the product of their
    scaled forms over ``scale``.
    """
    image_den = lcm(*[x.denominator for img in images for x in img])
    weight_den = lcm(*[w.denominator for w in weights])
    scaled = [[x.numerator * (image_den // x.denominator) for x in img] for img in images]
    scaled_weights = [w.numerator * (weight_den // w.denominator) for w in weights]
    return scaled, scaled_weights, image_den * weight_den


def _distance_lp(body_images: Sequence[list[Fraction]], weights: Sequence[Fraction]) -> Callable[[list[Fraction]], Fraction]:
    """The distance to one body, given the images of its vertices, as a function of a point's image.

    The metric is a weighted l1 norm of image differences, so the distance is
    the maximum of ``y . image(sigma) - z`` over the dual box
    ``|y_n| <= weight_n`` with ``z >= y . image(q)`` for every vertex ``q``: a
    small LP with one row per vertex.  The free ``z`` is written
    ``floor + zp - zm``, where ``floor`` is the least ``z`` that every row
    allows at ``y = -weights``; that start point satisfies every row
    ``y . image(q) - zp + zm <= floor``, so the LP starts feasible on its
    slacks.  A coordinate ``y_n`` with no entry in any row gets no column: its
    term is ``weight_n * |image(sigma)_n|`` in closed form.
    """
    cols = [k for k in range(len(weights)) if any(img[k] for img in body_images)]
    loose = [k for k in range(len(weights)) if k not in cols]
    scaled, scaled_weights, scale = _scaled(body_images, weights)
    floor = Fraction(max(-sum(scaled_weights[k] * img[k] for k in cols) for img in scaled), scale)

    z_terms = {("zp",): Fraction(-1), ("zm",): Fraction(1)}

    def linear(img: list[Fraction]) -> dict:  # y . img - zp + zm, with z = floor + zp - zm
        return {**{("y", k): img[k] for k in cols}, **z_terms}

    variables = [("y", k) for k in cols] + [("zp",), ("zm",)]
    lower = {("y", k): -weights[k] for k in cols}
    upper = {("y", k): weights[k] for k in cols}
    rows = [(linear(img), "<=", floor) for img in body_images]

    def distance(image: list[Fraction]) -> Fraction:
        out = solve_bounded(variables, linear(image), rows, lower=lower, upper=upper)
        if not isinstance(out, BoundedOptimal):
            raise CertificateError(f"distance LP gave {type(out).__name__}, not an optimum")
        return out.value - floor + sum((weights[k] * abs(image[k]) for k in loose), Fraction(0))

    return distance


def distances_to_body(points: Sequence[SparseVec], body: Polyhedron, cfg: MetricConfig = MetricConfig()) -> list[Fraction]:
    """``point_body_distance`` of each point, from one distance-LP set-up per body; each LP starts feasible."""
    if body.rays:
        raise UnboundedInput("distance target must be a polytope")
    ns = cfg.term_indices(*points, *body.vertices)
    images = _images(ns, [*points, *body.vertices])
    distance = _distance_lp([images[q] for q in body.vertices], [cfg.weight(n) for n in ns])
    return [Fraction(0) if sigma in body.vertices else distance(images[sigma]) for sigma in points]


def hausdorff_full(first: Polyhedron, second: Polyhedron, cfg: MetricConfig = MetricConfig()) -> Fraction:
    """The Hausdorff metric induced by metric_d on polytopes in the normalizing set.

    It is the largest distance from a vertex of either polytope to the other
    one.  That distance is at most ``u(sigma)``, the least ``metric_d`` from
    ``sigma`` to a vertex of the other polytope, which witnesses the bound.
    Each side's vertices are taken in descending ``u``, input order on ties,
    and a side ends at the first vertex with ``u(sigma)`` at most the running
    maximum: every vertex left is within that maximum of its witness, and
    only the vertices before it solve a distance LP.  The bounds are exact
    integers: images are scaled to one common denominator and weights to
    another, and a bound is compared with the maximum by cross-multiplication.
    """
    if first.rays or second.rays:
        raise UnboundedInput("the full Hausdorff metric needs bounded inputs")
    for body in (first, second):
        for v in body.vertices:
            if not cfg.contains(v):
                raise NotInNormalizingSet("vertex outside the normalizing set")
    ns = cfg.term_indices(*first.vertices, *second.vertices)
    weights = [cfg.weight(n) for n in ns]
    images = _images(ns, [*first.vertices, *second.vertices])
    scaled_images, scaled_weights, scale = _scaled(list(images.values()), weights)
    scaled = dict(zip(images, scaled_images))  # u(sigma) == bound[sigma] / scale
    best = Fraction(0)
    for points, body in ((first.vertices, second), (second.vertices, first)):
        targets = [scaled[q] for q in body.vertices]
        bound = {
            sigma: min(sum(w * abs(a - b) for w, a, b in zip(scaled_weights, scaled[sigma], t)) for t in targets)
            for sigma in points
        }
        distance = _distance_lp([images[q] for q in body.vertices], weights)
        for sigma in sorted(points, key=bound.__getitem__, reverse=True):
            if bound[sigma] * best.denominator <= best.numerator * scale:
                break
            best = max(best, distance(images[sigma]))
    return best


# ---------------------------------------------------------------------------
# Separation and infinite-distance witnesses.
# ---------------------------------------------------------------------------


def separating_direction(first: Polyhedron, second: Polyhedron) -> Optional[SparseVec]:
    """A functional whose image Hausdorff distance is positive, if hulls differ.

    Scans the vertices of the first body in listed order for one outside the
    second hull (then the roles swapped); equal hulls give None.
    """
    if first.rays or second.rays:
        raise UnboundedInput("separation witnesses are computed for bounded sets")
    for target, hull in ((first, second), (second, first)):
        for v in target.vertices:
            if not membership(v, hull):
                return max_gap_functional(v, hull.vertices)[0]
    return None


def immeasurable_witness(first: Polyhedron, second: Polyhedron) -> Optional[SparseVec]:
    """A functional seeing one recession cone escape where the other stays bounded.

    Exists exactly when the recession cones differ; equal cones make every
    image pair bounded/unbounded in the same directions, hence all image
    distances finite.
    """
    cone_first = recession_rays(first)
    cone_second = recession_rays(second)
    for rays, other_rays in ((cone_first, cone_second), (cone_second, cone_first)):
        other = Polyhedron([SparseVec.zero()], rays=other_rays)
        for r in rays:
            if membership(r, other):
                continue
            return max_gap_functional(r, [SparseVec.zero()], other_rays)[0]
    return None


# ---------------------------------------------------------------------------
# Cylinder boundedness and its clopen Boolean algebra.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderSpec:
    """Finitely many primal functionals cutting out a cylinder; may be empty."""

    generators: tuple[SparseVec, ...]

    def __init__(self, generators=()):
        object.__setattr__(self, "generators", tuple(generators))


@dataclass(frozen=True)
class ClopenAtom:
    cylinder: CylinderSpec


@dataclass(frozen=True)
class ClopenNot:
    inner: "ClopenExpr"


@dataclass(frozen=True)
class ClopenAnd:
    items: tuple["ClopenExpr", ...]

    def __init__(self, *items):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class ClopenOr:
    items: tuple["ClopenExpr", ...]

    def __init__(self, *items):
        object.__setattr__(self, "items", tuple(items))


ClopenExpr = Union[ClopenAtom, ClopenNot, ClopenAnd, ClopenOr]


def cylinder_bounded(body: Polyhedron, cylinder: CylinderSpec) -> bool:
    """True when every recession ray is invisible to every cylinder generator."""
    return all(pair(a, r) == 0 for r in body.rays for a in cylinder.generators)


def clopen_eval(expr: ClopenExpr, body: Polyhedron) -> bool:
    if isinstance(expr, ClopenAtom):
        return cylinder_bounded(body, expr.cylinder)
    if isinstance(expr, ClopenNot):
        return not clopen_eval(expr.inner, body)
    if isinstance(expr, ClopenAnd):
        return all(clopen_eval(item, body) for item in expr.items)
    if isinstance(expr, ClopenOr):
        return any(clopen_eval(item, body) for item in expr.items)
    raise BadParameter(f"unknown clopen expression node {type(expr)!r}")
