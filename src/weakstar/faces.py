"""Extreme- and exposed-point machinery for bounded polytopes.

A vertex is *exposed* when some functional attains its maximum over the body
at that vertex alone.  For polytopes every extreme point is exposed, and the
witnessing functional can be found by a small margin-maximizing LP; the
resulting ``ExposureCertificate`` is exactly re-checkable by direct pairing.

The module also provides:

* ``extreme_deviation`` — a sandwich estimate of how far the body's points can
  sit from its extreme-point set in the compact-set metric.  The exact value
  is a max of a min (non-convex), so the lower bound samples deterministic
  rational convex combinations (exact distances, monotone in budget) and the
  upper bound is the certified vertex diameter.
* generator families used as test beds: a rational stadium (two discs joined
  by tangent segments, whose tangency vertices have ever-thinner exposure
  margins as the circle sampling densifies) and nested boundary grids with
  2^k points on the unit sup-norm disc (whose hull-to-generator-set image
  distances halve exactly as k grows).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, takewhile
from typing import Iterator, Optional, Sequence

from .errors import BadParameter, NotAVertex, NotInNormalizingSet, UnboundedInput
from .geometry import Polyhedron, closed_convex_hull, max_gap_functional
from .hypermetrics import MetricConfig, metric_d
from .numerics import SparseVec, pair

__all__ = [
    "ExposureCertificate",
    "exposure_certificate",
    "exposed_all",
    "certificate_is_valid",
    "inscribed_polygon",
    "fan_directions",
]


@dataclass(frozen=True)
class ExposureCertificate:
    """A functional strictly maximized at one vertex, with its exact margin.

    ``margin`` is the minimum pairing gap to the other vertices (1 by
    convention for a singleton body, where the requirement is vacuous).
    """

    vertex: SparseVec
    functional: SparseVec
    margin: Fraction

    def __post_init__(self):
        if self.margin <= 0:
            raise BadParameter("exposure margin must be positive")


@dataclass(frozen=True)
class DeviationEstimate:
    """Sandwich bounds on the farthest-from-extreme-points distance.

    ``isolation_threshold`` is the smallest integer m >= 1 with
    lower >= 1/m — i.e. the sampled points already witness a 1/m-deep pocket
    of the body away from every extreme point — or None when nothing positive
    was found.
    """

    lower: Fraction
    upper: Fraction
    isolation_threshold: Optional[int]


def _certificate(vertex: SparseVec, all_vertices: Sequence[SparseVec]) -> ExposureCertificate:
    others = [w for w in all_vertices if w != vertex]
    if not others:
        return ExposureCertificate(vertex, SparseVec.zero(), Fraction(1))
    functional, margin = max_gap_functional(vertex, others)
    return ExposureCertificate(vertex, functional, margin)


def exposure_certificate(body: Polyhedron, vertex: SparseVec) -> ExposureCertificate:
    """Certify that ``vertex`` is exposed; raise NotAVertex if it is not extreme."""
    if body.rays:
        raise UnboundedInput("exposure certificates are computed for bounded bodies")
    hull = closed_convex_hull(body)
    if vertex not in hull.vertices:
        raise NotAVertex(f"{vertex!r} is not an extreme point of the body")
    return _certificate(vertex, hull.vertices)


def exposed_all(body: Polyhedron) -> list[ExposureCertificate]:
    """One certificate per extreme point — for polytopes all of them are exposed."""
    if body.rays:
        raise UnboundedInput("exposure certificates are computed for bounded bodies")
    hull = closed_convex_hull(body)
    return [_certificate(v, hull.vertices) for v in hull.vertices]


def certificate_is_valid(cert: ExposureCertificate, body: Polyhedron) -> bool:
    """Re-check a certificate by direct pairing against the body's extreme points.

    A body with rays is refused, as by ``exposure_certificate``: the vertices
    alone cannot show that the functional does not rise along a ray.
    """
    if body.rays:
        raise UnboundedInput("exposure certificates are computed for bounded bodies")
    hull = closed_convex_hull(body)
    if cert.vertex not in hull.vertices:
        return False
    gaps = [
        pair(cert.functional, cert.vertex) - pair(cert.functional, w)
        for w in hull.vertices
        if w != cert.vertex
    ]
    if not gaps:
        return cert.margin == 1 and not cert.functional
    return cert.margin == min(gaps) and cert.margin > 0


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``.

    Emitted in descending lexicographic order, so the first tuple puts all
    weight on the first slot.  The order is part of the public contract:
    schedulers and samplers rely on it for determinism.
    """
    if parts <= 0:
        raise BadParameter("compositions need at least one slot")
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def fresh_combinations(
    vertices: Sequence[SparseVec], first: int
) -> Iterator[Optional[tuple[SparseVec, tuple[int, int, int]]]]:
    """Every rational convex combination of growing prefixes of ``vertices``, once.

    Stage m is ``vertices[:first + m]``; block b covers stage m with weights
    ``c_i / (b - m)`` in composition order, from block 2 on (block 1, the first
    ``first`` vertices, counts as seen).  Each new point comes with its cursor
    (block, stage, position), position counting the stage's combinations
    consumed.  ``len(vertices)`` is read whenever the walk moves on a stage, so
    a vertex appended between draws opens a new stage.  While the list holds a
    single point no stage can ever produce a new one, and ``None`` is yielded.
    """
    while len(vertices) == 1:
        yield None
    seen = set(vertices[:first])
    for block in count(2):
        stage = 0
        while stage < min(block, len(vertices) - first + 1):
            denominator = block - stage
            # Stages after the first only contribute combinations that use
            # their newest vertex; the rest re-enumerate the previous stage.
            run = (combo for combo in compositions(denominator, first + stage) if not stage or combo[-1])
            for position, combo in enumerate(run, 1):
                terms = (v.scale(Fraction(c, denominator)) for c, v in zip(combo, vertices) if c)
                point = sum(terms, SparseVec.zero())
                if point not in seen:
                    seen.add(point)
                    yield point, (block, stage, position)
            stage += 1


def extreme_deviation(
    body: Polyhedron,
    cfg: MetricConfig = MetricConfig(),
    budget: int = 64,
) -> DeviationEstimate:
    """Bracket the largest distance from a body point to its extreme-point set.

    The lower bound is the best exactly-evaluated sample; the upper bound is
    the vertex diameter, which dominates every point's nearest-vertex distance.
    """
    if body.rays:
        raise UnboundedInput("deviation estimates are computed for bounded bodies")
    if budget < 1:
        raise BadParameter("sample budget must be positive")
    hull = closed_convex_hull(body)
    for v in hull.vertices:
        if not cfg.contains(v):
            raise NotInNormalizingSet("body must lie inside the normalizing set")
    vertices = hull.vertices
    upper = Fraction(0)
    for i, v in enumerate(vertices):
        for w in vertices[i + 1 :]:
            upper = max(upper, metric_d(v, w, cfg))
    lower = Fraction(0)
    # The vertices come first (they are block 1), then ever finer combinations;
    # the walk yields None only for a single vertex, which has no other point.
    walk = takewhile(lambda found: found is not None, fresh_combinations(vertices, len(vertices)))
    for point in islice(chain(vertices, (p for p, _ in walk)), budget):
        nearest = min(metric_d(point, v, cfg) for v in vertices)
        lower = max(lower, nearest)
    threshold = None
    if lower > 0:
        threshold = -(-lower.denominator // lower.numerator)  # ceil(1/lower)
    return DeviationEstimate(lower, upper, threshold)


def _circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """The unit-circle point with parameter t, rational whenever t is."""
    denom = 1 + t * t
    return (1 - t * t) / denom, 2 * t / denom


def stadium_family(count: int) -> Polyhedron:
    """A rational polytope approximating two unit discs at (-1,0) and (1,0).

    ``count`` (even, >= 8) points total: half on each bounding half-circle,
    parameter-evenly spaced, always including the four segment-tangency
    points (±1, ±1) exactly.
    """
    if count < 8 or count % 2:
        raise BadParameter("stadium approximations need an even count of at least 8")
    half = count // 2
    points: list[SparseVec] = []
    for j in range(half):
        t = Fraction(-1) + Fraction(2 * j, half - 1)
        x, y = _circle_point(t)
        points.append(SparseVec({0: 1 + x, 1: y}))
    for p in points[:half]:
        points.append(SparseVec({0: -p.get(0), 1: p.get(1)}))
    return Polyhedron(points)


def _square_boundary_point(distance: Fraction) -> tuple[Fraction, Fraction]:
    """The point at a given counterclockwise arc length on the square [-1,1]^2,
    starting from (1, 1); the perimeter has length 8."""
    d = distance % 8
    if d < 2:
        return 1 - d, Fraction(1)
    if d < 4:
        return Fraction(-1), 1 - (d - 2)
    if d < 6:
        return -1 + (d - 4), Fraction(-1)
    return Fraction(1), -1 + (d - 6)


def inscribed_polygon(k: int) -> Polyhedron:
    """2^k generators evenly spaced along the boundary of the unit sup-norm disc.

    The four corners are grid points at every level, so each consecutive pair
    of generators spans a flat edge segment; refining k to k+1 splits every
    such segment at its midpoint, halving every directional projection gap
    exactly.  Listed generators are boundary points, not all extreme; a
    caller that needs the extreme points asks ``closed_convex_hull``.
    """
    if k < 2:
        raise BadParameter("an inscribed polygon needs at least 4 boundary points (k >= 2)")
    spacing = Fraction(8, 2**k)
    points = []
    for j in range(2**k):
        x, y = _square_boundary_point(j * spacing)
        points.append(SparseVec({0: x, 1: y}))
    return Polyhedron(points)


def fan_directions(count: int, seed: int) -> tuple[SparseVec, ...]:
    """Random planar directions drawn from the support fan of the sup-norm disc.

    Each draw picks an axis or diagonal orientation, a sign pattern, and a
    rational magnitude.  Along these directions the projections of an
    ``inscribed_polygon`` grid form a single arithmetic progression, so
    refining the grid halves every projection gap exactly; oblique slopes can
    instead alias with the dyadic grid and mask the collapse.
    """
    if count < 1:
        raise BadParameter("need at least one direction")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        magnitude = Fraction(rng.randint(1, 8), rng.randint(1, 5))
        sign_x = rng.choice((-1, 1))
        sign_y = rng.choice((-1, 1))
        shape = rng.randrange(3)
        if shape == 0:
            entries = {0: sign_x * magnitude}
        elif shape == 1:
            entries = {1: sign_y * magnitude}
        else:
            entries = {0: sign_x * magnitude, 1: sign_y * magnitude}
        out.append(SparseVec(entries))
    return tuple(out)
