"""Certified iterative densification of exposed points inside a dual ball.

Starting from a target polytope inside the closed l1-ball, each step appends
one new vertex obtained by blending a scheduled point of the current hull with
a spike along a coordinate never used before.  The fresh coordinate makes the
new vertex exposed by an explicit functional — the certificate is exact, no
search needed — and the geometrically decaying blend weights keep the final
hull within the requested distance budget of the target.  Because the run
starts from the target's own vertex set, the realized distance bound is the
budget itself, half of the generic two-budget guarantee; both are re-checked
by ``verify_trace``.

Variants: ``PLAIN`` works anywhere in the ball, ``POSITIVE`` stays inside the
positive cone, and ``STATE_SPACE`` keeps every vertex a finitely supported
probability vector by renormalizing the blend.  ``jordan_decompose`` splits a
point into its positive and negative parts, exactly and disjointly.

The fair candidate scheduler ``_Schedule`` is driven only by ``construct``,
which records its final queue and cursor in the trace.  It walks the rational
convex combinations of every stage hull with ``faces.fresh_combinations``,
the generator that also samples ``faces.extreme_deviation``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BadParameter,
    TargetOutsidePolar,
    UnboundedInput,
    VariantPreconditionViolated,
)
from .faces import ExposureCertificate, exposure_certificate, fresh_combinations
from .geometry import PolarSpec, Polyhedron, closed_convex_hull, membership, polar_contains
from .hypermetrics import MetricConfig, hausdorff_full
from .numerics import RationalLike, SparseVec, as_rational, pair, rational_to_str

__all__ = [
    "Variant",
    "PoulsenStep",
    "PoulsenTrace",
    "CheckResult",
    "VerificationReport",
    "construct",
    "verify_trace",
    "jordan_decompose",
]


class Variant(Enum):
    """Which ambient region the construction must not leave."""

    PLAIN = "plain"
    POSITIVE = "positive"
    STATE_SPACE = "state"


class _Schedule:
    """The fair candidate scheduler driven by ``construct``.

    ``vertices`` is the starting hull's vertices plus one appended vertex per
    step; ``fresh_combinations`` walks the rational convex combinations of
    every stage hull.  ``queue`` is the round-robin queue; every served
    candidate is re-enqueued, so each recurs forever.  ``cursor`` (block,
    stage, position) marks how far the walk has been consumed.
    """

    def __init__(self, vertices: Sequence[SparseVec]):
        self.vertices = list(dict.fromkeys(vertices))
        if not self.vertices:
            raise BadParameter("the scheduler needs a nonempty generator pool")
        self.queue = deque(self.vertices)
        self.cursor = (2, 0, 0)
        self._walk = fresh_combinations(self.vertices, len(self.vertices))

    def next(self) -> SparseVec:
        """Serve the head of the queue, re-enqueue it, and admit one new candidate.

        Re-enqueueing makes every served point recur forever; admitting one fresh
        combination per call walks the whole countable family, so the served
        sequence is dense in every stage hull while staying fair: over 3p calls
        from a queue of length p, each queued element is served at least twice.
        """
        served = self.queue[0]
        self.queue.rotate(-1)
        found = next(self._walk)
        if found is not None:
            point, self.cursor = found
            self.queue.append(point)
        return served

    def add(self, vertex: SparseVec) -> None:
        """Append the next hull's new vertex; it opens a new enumeration stage."""
        self.vertices.append(vertex)


@dataclass(frozen=True)
class PoulsenStep:
    """One construction step: all quantities that define the new vertex.

    ``spike`` is the point ``spike_scale * e_{fresh_coordinate}`` blended into
    the hull; ``functional`` is its exposing functional, normalized so that it
    pairs to 1 with the spike and to 0 with every earlier vertex; ``blend`` is
    the convex weight given to the spike.  The certificate is exact for the
    hull as it stood right after this step.
    """

    index: int
    fresh_coordinate: int
    spike_scale: Fraction
    spike: SparseVec
    functional: SparseVec
    blend: Fraction
    base_point: SparseVec
    new_vertex: SparseVec
    certificate: ExposureCertificate


@dataclass(frozen=True)
class PoulsenTrace:
    """Full record of a construction run, sufficient for independent re-checking."""

    epsilon: Fraction
    radius: Fraction
    variant: Variant
    seed: int
    steps: tuple[PoulsenStep, ...]
    schedule_queue: tuple[SparseVec, ...]
    schedule_cursor: tuple[int, int, int]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of every re-check; failures are entries, never exceptions."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _blend_weight(n: int, epsilon: Fraction) -> Fraction:
    """The step-n spike weight: min(1, eps / 2^(n+1))."""
    return min(Fraction(1), epsilon / 2 ** (n + 1))


def _spike_scale(radius: Fraction, earlier_blends: Sequence[Fraction]) -> Fraction:
    """Largest allowed spike magnitude: capped by 1, the ball radius, and half
    of every earlier blend weight, so later spikes never disturb earlier
    exposure margins."""
    scale = min(Fraction(1), radius)
    for lam in earlier_blends:
        scale = min(scale, lam / 2)
    return scale


def _blend(base: SparseVec, spike: SparseVec, lam: Fraction, scale: Fraction, variant: Variant) -> SparseVec:
    """The new vertex: ``base`` moved toward ``spike`` with weight ``lam``.

    ``STATE_SPACE`` keeps ``1 - lam * scale`` of the base, so a base with
    coordinate sum 1 gives a vertex with coordinate sum 1.
    """
    keep = 1 - lam * scale if variant is Variant.STATE_SPACE else 1 - lam
    return base.scale(keep) + spike.scale(lam)


def _check_variant_vertex(v: SparseVec, variant: Variant) -> Optional[str]:
    """None if the vertex satisfies the variant's region constraint, else why not."""
    if variant is Variant.PLAIN:
        return None
    if any(value < 0 for _, value in v.items()):
        return "has a negative coordinate"
    if variant is Variant.STATE_SPACE:
        total = sum((value for _, value in v.items()), Fraction(0))
        if total != 1:
            return f"coordinate sum is {rational_to_str(total)}, not 1"
    return None


def construct(
    target: Polyhedron,
    polar: PolarSpec,
    epsilon: RationalLike,
    steps: int,
    variant: Variant = Variant.PLAIN,
    seed: int = 0,
) -> tuple[Polyhedron, PoulsenTrace]:
    """Append ``steps`` certified exposed vertices to the target's hull.

    The target's own vertex set is the starting net, so the distance from the
    target to every intermediate and final hull is bounded by the sum of the
    blend weights — at most ``epsilon`` — and certainly by the generic
    ``2 * epsilon`` guarantee.  All choices are deterministic functions of the
    input; ``seed`` is recorded in the trace for provenance but the canonical
    schedule does not consume randomness.
    """
    eps = as_rational(epsilon)
    if eps <= 0:
        raise BadParameter("the distance budget must be positive")
    if steps < 0:
        raise BadParameter("the step count cannot be negative")
    if target.rays:
        raise UnboundedInput("the construction starts from a bounded polytope")
    hull = closed_convex_hull(target)
    for v in hull.vertices:
        if not polar_contains(v, polar):
            raise TargetOutsidePolar(f"target vertex {v!r} lies outside the radius-{polar.radius} ball")
        why = _check_variant_vertex(v, variant)
        if why is not None:
            raise VariantPreconditionViolated(f"target vertex {v!r} {why}")

    schedule = _Schedule(hull.vertices)
    used = max((max(v.support) for v in hull.vertices if v.support), default=-1)
    blends: list[Fraction] = []
    records: list[PoulsenStep] = []
    for n in range(1, steps + 1):
        lam = _blend_weight(n, eps)
        scale = _spike_scale(polar.radius, blends)
        fresh = used + 1
        used = fresh
        spike = SparseVec.basis(fresh, scale)
        functional = SparseVec.basis(fresh, 1 / scale)
        base = schedule.next()
        omega = _blend(base, spike, lam, scale, variant)
        # The fresh coordinate pairs to lam on omega and to 0 on every other
        # vertex, so the exposure margin is exactly lam.
        certificate = ExposureCertificate(omega, functional, lam)
        schedule.add(omega)
        blends.append(lam)
        records.append(
            PoulsenStep(
                index=n,
                fresh_coordinate=fresh,
                spike_scale=scale,
                spike=spike,
                functional=functional,
                blend=lam,
                base_point=base,
                new_vertex=omega,
                certificate=certificate,
            )
        )
    result = Polyhedron(schedule.vertices)
    trace = PoulsenTrace(
        epsilon=eps,
        radius=polar.radius,
        variant=variant,
        seed=seed,
        steps=tuple(records),
        schedule_queue=tuple(schedule.queue),
        schedule_cursor=schedule.cursor,
    )
    return result, trace


def verify_trace(
    target: Polyhedron,
    polar: PolarSpec,
    result: Polyhedron,
    trace: PoulsenTrace,
) -> VerificationReport:
    """Re-check a construction run from scratch; failures become report entries.

    Distances are measured with the default coordinate-functional metric
    normalized to the given ball.  The exposure check pairs each step's stored
    functional exactly with the result's vertices; only when it is not strictly
    largest at the appended vertex is a fresh margin-maximizing program solved
    on the final vertex set.
    """
    eps, steps = trace.epsilon, trace.steps
    budgets = (("distance_within_double_budget", "2*eps", 2 * eps), ("distance_within_budget", "eps", eps))
    # Each check is (name, failures, detail when there are none).
    table: list[tuple[str, list[str], str]] = []
    try:
        distance = hausdorff_full(target, result, MetricConfig(normalizing_set=polar))
    except Exception as exc:  # malformed inputs become report entries
        table += [(name, [f"failed to evaluate: {exc}"], "") for name, _, _ in budgets]
    else:
        for name, label, bound in budgets:
            text = f"distance {rational_to_str(distance)} vs {label} {rational_to_str(bound)}"
            table.append((name, [] if distance <= bound else [text], text))

    lam_bad, scale_bad = [], []
    for i, step in enumerate(steps):
        lam = _blend_weight(step.index, eps)
        if step.blend != lam:
            lam_bad.append(f"step {step.index}: blend {rational_to_str(step.blend)} != {rational_to_str(lam)}")
        scale = _spike_scale(polar.radius, [s.blend for s in steps[:i]])
        if step.spike_scale != scale:
            scale_bad.append(
                f"step {step.index}: scale {rational_to_str(step.spike_scale)} != {rational_to_str(scale)}"
            )

    used: set[int] = set()
    for v in target.vertices:
        used.update(v.support)
    fresh_bad = []
    for step in steps:
        if step.fresh_coordinate in used:
            fresh_bad.append(f"step {step.index} reuses coordinate {step.fresh_coordinate}")
        used.add(step.fresh_coordinate)
        used.update(step.new_vertex.support)

    norm_bad = []
    for step in steps:
        if step.spike != SparseVec.basis(step.fresh_coordinate, step.spike_scale):
            norm_bad.append(f"step {step.index}: spike is not scale * basis")
        if pair(step.functional, step.spike) != 1:
            norm_bad.append(f"step {step.index}: functional does not pair to 1 with its spike")
        if any(pair(step.functional, v) != 0 for v in target.vertices):
            norm_bad.append(f"step {step.index}: functional sees the target")
        for earlier in steps[: step.index - 1]:
            if pair(step.functional, earlier.new_vertex) != 0:
                norm_bad.append(f"step {step.index}: functional sees vertex of step {earlier.index}")

    blend_bad = [
        f"step {step.index}: vertex does not match its blend"
        for step in steps
        if step.new_vertex != _blend(step.base_point, step.spike, step.blend, step.spike_scale, trace.variant)
    ]

    margin_bad = []
    for step in steps:
        value = pair(step.functional, step.new_vertex)
        if value != step.blend:
            margin_bad.append(
                f"step {step.index}: functional value {rational_to_str(value)} != blend {rational_to_str(step.blend)}"
            )
        for later in steps[step.index :]:
            cross = pair(step.functional, later.new_vertex)
            if not cross < step.blend:
                margin_bad.append(
                    f"step {step.index} vs {later.index}: cross pairing"
                    f" {rational_to_str(cross)} not below {rational_to_str(step.blend)}"
                )

    exposure_bad = []
    for step in steps:
        # A stored functional strictly largest at its vertex over every generator
        # of a bounded result exposes it; only otherwise is a program solved.
        v, f = step.new_vertex, step.functional
        if not result.rays and v in result.vertices:
            top = pair(f, v)
            if all(pair(f, w) < top for w in result.vertices if w != v):
                continue
        try:
            cert = exposure_certificate(result, step.new_vertex)
        except Exception as exc:
            exposure_bad.append(f"step {step.index}: {exc}")
            continue
        if cert.margin <= 0:
            exposure_bad.append(f"step {step.index}: nonpositive margin")

    polar_bad = [repr(v) for v in [*result.vertices, *(s.new_vertex for s in steps)] if not polar_contains(v, polar)]

    try:
        missing = [repr(v) for v in target.vertices if not membership(v, result)]
    except Exception as exc:
        missing = [f"failed to evaluate: {exc}"]

    table += [
        ("schedule_blend_weights", lam_bad, f"all {len(steps)} blend weights match"),
        ("schedule_spike_scales", scale_bad, f"all {len(steps)} spike scales match"),
        ("fresh_coordinates", fresh_bad, "every step spikes an unused coordinate"),
        ("spike_normalization", norm_bad, "all spikes and functionals are normalized"),
        ("blend_identity", blend_bad, "every vertex equals its recorded blend"),
        ("designated_margins", margin_bad, "all designated pairings are strict"),
        ("designated_exposed", exposure_bad, f"fresh exposure programs passed for all {len(steps)} vertices"),
        ("vertices_in_ball", polar_bad, "every vertex stays inside the ball"),
        ("result_extends_target", missing, "the result hull contains every target vertex"),
    ]
    if trace.variant is not Variant.PLAIN:
        region_bad = []
        for v in result.vertices:
            why = _check_variant_vertex(v, trace.variant)
            if why is not None:
                region_bad.append(f"{v!r} {why}")
        table.append(("variant_region", region_bad, f"all vertices satisfy {trace.variant.value}"))
    return VerificationReport(tuple(CheckResult(name, not bad, "; ".join(bad) or ok) for name, bad, ok in table))


def jordan_decompose(sigma: SparseVec) -> tuple[SparseVec, SparseVec]:
    """Split a point into positive and negative parts with disjoint supports.

    The parts recombine to the input exactly and their l1 norms add up to the
    input's, so both stay inside any ball the input lies in.
    """
    positive = SparseVec({k: v for k, v in sigma.items() if v > 0})
    negative = SparseVec({k: -v for k, v in sigma.items() if v < 0})
    return positive, negative
