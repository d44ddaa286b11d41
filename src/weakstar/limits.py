"""Set-limit diagnostics for finite prefixes of polytope sequences.

A point belongs to the Kuratowski–Painlevé lower limit of a sequence when it
is approached by points of every late set, and to the upper limit when it is
approached along a subsequence.  A finite prefix can only approximate either
notion, so the diagnostics here report the exact per-index distances next to
each verdict: the lower-limit flag demands closeness at every index past a
stabilization point, the upper-limit flag at a stated fraction of all
indices.

``monotone_limit`` handles the special case of increasing chains, where the
limit object is simply the closed convex hull of the union and the distance
table to it is provably nonincreasing with final entry zero.

``counterexample_demo`` builds the classic escape family: spikes ``2^m e_m``
converge to the origin individually (their metric distances decay to zero)
while their convex hull acquires points of ever larger l1 norm — compactness
of a set does not survive taking convex hulls in infinite dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BadParameter, CertificateError, NotInNormalizingSet, NotNested
from .geometry import PointSet, Polyhedron, closed_convex_hull, membership
from .hypermetrics import MetricConfig, distances_to_body, hausdorff_full, metric_d
from .numerics import RationalLike, SparseVec, as_rational, l1_norm

__all__ = [
    "SequencePrefix",
    "CandidateVerdict",
    "LimitReport",
    "CounterexampleReport",
    "li_ls_diagnostic",
    "monotone_limit",
    "counterexample_demo",
]

LS_RULE = "within tolerance at >= half of the prefix indices, or at every index past stabilization"


@dataclass(frozen=True)
class SequencePrefix:
    """A finite prefix of a set sequence plus the query parameters.

    ``stabilization_index`` is the 0-based position from which the
    lower-limit flag requires closeness; ``tolerance`` is the distance
    threshold used by both flags.
    """

    sets: tuple[Polyhedron, ...]
    tolerance: Fraction
    stabilization_index: int = 0

    def __init__(
        self,
        sets: Sequence[Polyhedron],
        tolerance: RationalLike,
        stabilization_index: int = 0,
    ):
        items = tuple(sets)
        tol = as_rational(tolerance)
        if not items:
            raise BadParameter("a sequence prefix needs at least one set")
        if tol < 0:
            raise BadParameter("the tolerance cannot be negative")
        if not 0 <= stabilization_index < len(items):
            raise BadParameter("the stabilization index must point into the prefix")
        object.__setattr__(self, "sets", items)
        object.__setattr__(self, "tolerance", tol)
        object.__setattr__(self, "stabilization_index", stabilization_index)


@dataclass(frozen=True)
class CandidateVerdict:
    """Per-candidate outcome with the evidence: one exact distance per index."""

    point: SparseVec
    distances: tuple[Fraction, ...]
    in_li_approx: bool
    in_ls_approx: bool


@dataclass(frozen=True)
class LimitReport:
    tolerance: Fraction
    stabilization_index: int
    ls_rule: str
    verdicts: tuple[CandidateVerdict, ...]


def li_ls_diagnostic(
    seq: SequencePrefix,
    candidates: PointSet,
    cfg: MetricConfig = MetricConfig(),
) -> LimitReport:
    """Flag candidates as approximate lower/upper-limit points of the prefix.

    The lower-limit flag holds when the candidate is within tolerance of
    every set from the stabilization index on; the upper-limit flag when it is
    within tolerance at half the indices — or whenever the lower-limit flag
    holds, since a full tail is in particular a subsequence.
    """
    for body in seq.sets:
        for v in body.vertices:
            if not cfg.contains(v):
                raise NotInNormalizingSet("sequence sets must lie inside the normalizing set")
    for sigma in candidates.points:
        if not cfg.contains(sigma):
            raise NotInNormalizingSet("candidates must lie inside the normalizing set")

    verdicts = []
    by_body = [distances_to_body(candidates.points, body, cfg) for body in seq.sets]
    for sigma, distances in zip(candidates.points, zip(*by_body)):
        tail = distances[seq.stabilization_index :]
        in_li = all(d <= seq.tolerance for d in tail)
        close = sum(1 for d in distances if d <= seq.tolerance)
        in_ls = in_li or 2 * close >= len(distances)
        verdicts.append(CandidateVerdict(sigma, distances, in_li, in_ls))
    return LimitReport(
        tolerance=seq.tolerance,
        stabilization_index=seq.stabilization_index,
        ls_rule=LS_RULE,
        verdicts=tuple(verdicts),
    )


def monotone_limit(
    seq: SequencePrefix,
    cfg: MetricConfig = MetricConfig(),
) -> tuple[Polyhedron, tuple[Fraction, ...]]:
    """Limit hull and distance table for an increasing chain of polytopes.

    Nesting is verified by exact membership of every vertex in the next set.
    The limit is the closed convex hull of all vertices — equal to the hull
    of the last set — so the distance table is nonincreasing and ends at 0.
    """
    for earlier, later in zip(seq.sets, seq.sets[1:]):
        for v in earlier.vertices:
            if not membership(v, later):
                raise NotNested("each set must contain every vertex of its predecessor")
    pooled: list[SparseVec] = []
    for body in seq.sets:
        pooled.extend(body.vertices)
    limit = closed_convex_hull(Polyhedron(pooled))
    table = tuple(hausdorff_full(body, limit, cfg) for body in seq.sets)
    if any(a < b for a, b in zip(table, table[1:])) or table[-1] != 0:
        raise CertificateError("distance table of a nested chain must fall to 0")
    return limit, table


@dataclass(frozen=True)
class CounterexampleReport:
    """Evidence that convex hulls can destroy compactness.

    ``distances`` lists the metric distance of each spike ``2^m e_m`` to the
    origin (decaying to zero: the spikes converge individually), while
    ``max_l1`` is the largest l1 norm over the hull of spikes-plus-origin
    (growing as ``2^M``: the hull escapes every bounded ball as M grows).
    """

    spikes: tuple[SparseVec, ...]
    distances: tuple[Fraction, ...]
    max_l1: Fraction
    normalizing_body: Polyhedron


def counterexample_demo(M: int) -> CounterexampleReport:
    """Distances and norms for the spike family ``{2^m e_m : 1 <= m <= M}``."""
    if M < 1:
        raise BadParameter("the spike family needs at least one member")
    spikes = tuple(SparseVec.basis(m, Fraction(2**m)) for m in range(1, M + 1))
    body = Polyhedron([SparseVec.zero(), *spikes])
    cfg = MetricConfig(normalizing_set=body)
    distances = tuple(metric_d(s, SparseVec.zero(), cfg) for s in spikes)
    max_l1 = max(l1_norm(v) for v in body.vertices)
    return CounterexampleReport(
        spikes=spikes,
        distances=distances,
        max_l1=max_l1,
        normalizing_body=body,
    )
