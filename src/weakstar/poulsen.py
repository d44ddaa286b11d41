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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence

from .errors import (
    BadParameter,
    TargetOutsidePolar,
    UnboundedInput,
    VariantPreconditionViolated,
)
from .faces import ExposureCertificate, convex_combinations, exposure_certificate
from .geometry import PolarSpec, Polyhedron, closed_convex_hull, membership, polar_contains
from .hypermetrics import MetricConfig, hausdorff_full
from .numerics import RationalLike, SparseVec, as_rational, pair, rational_to_str

__all__ = [
    "Variant",
    "SchedulerState",
    "PoulsenStep",
    "PoulsenTrace",
    "CheckResult",
    "VerificationReport",
    "scheduler_start",
    "scheduler_next",
    "scheduler_register",
    "construct",
    "verify_trace",
    "jordan_decompose",
]


class Variant(Enum):
    """Which ambient region the construction must not leave."""

    PLAIN = "plain"
    POSITIVE = "positive"
    STATE_SPACE = "state"


@dataclass(frozen=True)
class SchedulerState:
    """Snapshot of the fair candidate scheduler.

    ``stages`` holds the vertex tuple of every hull seen so far (stage 0 is
    the starting hull); candidates are rational convex combinations of some
    stage's vertices, enumerated along diagonal blocks: block b covers stage m
    with combination denominator b - m.  ``queue`` is the round-robin queue;
    every served candidate is re-enqueued, so each recurs forever.  The cursor
    (``block``, ``stage``, ``position``) marks how far the enumeration has
    been consumed; ``seen`` prevents the same point from being enqueued twice.
    """

    stages: tuple[tuple[SparseVec, ...], ...]
    queue: tuple[SparseVec, ...]
    seen: frozenset[SparseVec]
    block: int
    stage: int
    position: int


def scheduler_start(vertices: Sequence[SparseVec]) -> SchedulerState:
    """Queue the starting vertices in order; they form block 1 of the enumeration."""
    pool = tuple(dict.fromkeys(vertices))
    if not pool:
        raise BadParameter("the scheduler needs a nonempty generator pool")
    return SchedulerState(
        stages=(pool,),
        queue=pool,
        seen=frozenset(pool),
        block=2,
        stage=0,
        position=0,
    )


def _next_fresh(state: SchedulerState) -> tuple[Optional[SparseVec], SchedulerState]:
    """Advance the diagonal enumeration to the next never-enqueued candidate.

    Returns (None, state) when no stage can ever produce a new point (every
    stage is a single point), leaving the queue as-is.
    """
    if all(len(s) == 1 for s in state.stages):
        return None, state
    block, stage, position = state.block, state.stage, state.position
    seen = state.seen
    while True:
        if stage >= min(block, len(state.stages)):
            block, stage, position = block + 1, 0, 0
            continue
        denominator = block - stage
        # Stages after the first only contribute combinations that use their
        # newest vertex; the rest re-enumerate the previous stage.
        run = convex_combinations(state.stages[stage], denominator, newest_only=stage > 0)
        found = None
        for point in islice(run, position, None):
            position += 1
            if point not in seen:
                found = point
                break
        if found is not None:
            new_state = SchedulerState(
                stages=state.stages,
                queue=state.queue,
                seen=seen | {found},
                block=block,
                stage=stage,
                position=position,
            )
            return found, new_state
        stage, position = stage + 1, 0


def scheduler_next(state: SchedulerState) -> tuple[SparseVec, SchedulerState]:
    """Serve the head of the queue, re-enqueue it, and admit one new candidate.

    Re-enqueueing makes every served point recur forever; admitting one fresh
    combination per call walks the whole countable family, so the served
    sequence is dense in every stage hull while staying fair: over 3p calls
    from a queue of length p, each queued element is served at least twice.
    """
    if not state.queue:
        raise BadParameter("the scheduler needs a nonempty generator pool")
    served = state.queue[0]
    rotated = state.queue[1:] + (served,)
    fresh, advanced = _next_fresh(state)
    queue = rotated if fresh is None else rotated + (fresh,)
    return served, SchedulerState(
        stages=advanced.stages,
        queue=queue,
        seen=advanced.seen,
        block=advanced.block,
        stage=advanced.stage,
        position=advanced.position,
    )


def scheduler_register(state: SchedulerState, vertices: Sequence[SparseVec]) -> SchedulerState:
    """Record the next hull's vertex tuple as a new enumeration stage."""
    pool = tuple(dict.fromkeys(vertices))
    if not pool:
        raise BadParameter("a scheduler stage needs at least one vertex")
    return SchedulerState(
        stages=state.stages + (pool,),
        queue=state.queue,
        seen=state.seen,
        block=state.block,
        stage=state.stage,
        position=state.position,
    )


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
    schedule_state: SchedulerState


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

    vertices: list[SparseVec] = list(hull.vertices)
    state = scheduler_start(vertices)
    used = max((max(v.support) for v in vertices if v.support), default=-1)
    blends: list[Fraction] = []
    records: list[PoulsenStep] = []
    for n in range(1, steps + 1):
        lam = _blend_weight(n, eps)
        scale = _spike_scale(polar.radius, blends)
        fresh = used + 1
        used = fresh
        spike = SparseVec.basis(fresh, scale)
        functional = SparseVec.basis(fresh, 1 / scale)
        base, state = scheduler_next(state)
        if variant is Variant.STATE_SPACE:
            keep = 1 - lam * scale
        else:
            keep = 1 - lam
        omega = base.scale(keep) + spike.scale(lam)
        # The fresh coordinate pairs to lam on omega and to 0 on every other
        # vertex, so the exposure margin is exactly lam.
        certificate = ExposureCertificate(omega, functional, lam)
        vertices.append(omega)
        state = scheduler_register(state, vertices)
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
    result = Polyhedron(vertices, irredundant=True)
    trace = PoulsenTrace(
        epsilon=eps,
        radius=polar.radius,
        variant=variant,
        seed=seed,
        steps=tuple(records),
        schedule_state=state,
    )
    return result, trace


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=passed, detail=detail)


def verify_trace(
    target: Polyhedron,
    polar: PolarSpec,
    result: Polyhedron,
    trace: PoulsenTrace,
) -> VerificationReport:
    """Re-check a construction run from scratch; failures become report entries.

    Distances are measured with the default coordinate-functional metric
    normalized to the given ball.  The exposure check solves a fresh
    margin-maximizing program on the final vertex set for every appended
    vertex — it does not trust the certificates stored in the trace.
    """
    checks: list[CheckResult] = []
    cfg = MetricConfig(normalizing_set=polar)
    eps = trace.epsilon

    try:
        distance = hausdorff_full(target, result, cfg)
        checks.append(
            _check(
                "distance_within_double_budget",
                distance <= 2 * eps,
                f"distance {rational_to_str(distance)} vs 2*eps {rational_to_str(2 * eps)}",
            )
        )
        checks.append(
            _check(
                "distance_within_budget",
                distance <= eps,
                f"distance {rational_to_str(distance)} vs eps {rational_to_str(eps)}",
            )
        )
    except Exception as exc:  # malformed inputs become report entries
        checks.append(_check("distance_within_double_budget", False, f"failed to evaluate: {exc}"))
        checks.append(_check("distance_within_budget", False, f"failed to evaluate: {exc}"))

    lam_bad = []
    for step in trace.steps:
        expected = _blend_weight(step.index, eps)
        if step.blend != expected:
            lam_bad.append(
                f"step {step.index}: blend {rational_to_str(step.blend)}"
                f" != {rational_to_str(expected)}"
            )
    checks.append(
        _check(
            "schedule_blend_weights",
            not lam_bad,
            "; ".join(lam_bad) if lam_bad else f"all {len(trace.steps)} blend weights match",
        )
    )

    scale_bad = []
    for i, step in enumerate(trace.steps):
        expected = _spike_scale(polar.radius, [s.blend for s in trace.steps[:i]])
        if step.spike_scale != expected:
            scale_bad.append(
                f"step {step.index}: scale {rational_to_str(step.spike_scale)}"
                f" != {rational_to_str(expected)}"
            )
    checks.append(
        _check(
            "schedule_spike_scales",
            not scale_bad,
            "; ".join(scale_bad) if scale_bad else f"all {len(trace.steps)} spike scales match",
        )
    )

    used: set[int] = set()
    for v in target.vertices:
        used.update(v.support)
    fresh_bad = []
    for step in trace.steps:
        if step.fresh_coordinate in used:
            fresh_bad.append(f"step {step.index} reuses coordinate {step.fresh_coordinate}")
        used.add(step.fresh_coordinate)
        used.update(step.new_vertex.support)
    checks.append(
        _check(
            "fresh_coordinates",
            not fresh_bad,
            "; ".join(fresh_bad) if fresh_bad else "every step spikes an unused coordinate",
        )
    )

    norm_bad = []
    for step in trace.steps:
        if step.spike != SparseVec.basis(step.fresh_coordinate, step.spike_scale):
            norm_bad.append(f"step {step.index}: spike is not scale * basis")
        if pair(step.functional, step.spike) != 1:
            norm_bad.append(f"step {step.index}: functional does not pair to 1 with its spike")
        if any(pair(step.functional, v) != 0 for v in target.vertices):
            norm_bad.append(f"step {step.index}: functional sees the target")
        for earlier in trace.steps[: step.index - 1]:
            if pair(step.functional, earlier.new_vertex) != 0:
                norm_bad.append(
                    f"step {step.index}: functional sees vertex of step {earlier.index}"
                )
    checks.append(
        _check(
            "spike_normalization",
            not norm_bad,
            "; ".join(norm_bad) if norm_bad else "all spikes and functionals are normalized",
        )
    )

    blend_bad = []
    for step in trace.steps:
        if trace.variant is Variant.STATE_SPACE:
            keep = 1 - step.blend * step.spike_scale
        else:
            keep = 1 - step.blend
        expected = step.base_point.scale(keep) + step.spike.scale(step.blend)
        if step.new_vertex != expected:
            blend_bad.append(f"step {step.index}: vertex does not match its blend")
    checks.append(
        _check(
            "blend_identity",
            not blend_bad,
            "; ".join(blend_bad) if blend_bad else "every vertex equals its recorded blend",
        )
    )

    margin_bad = []
    for step in trace.steps:
        value = pair(step.functional, step.new_vertex)
        if value != step.blend:
            margin_bad.append(
                f"step {step.index}: functional value {rational_to_str(value)}"
                f" != blend {rational_to_str(step.blend)}"
            )
        for later in trace.steps[step.index :]:
            cross = pair(step.functional, later.new_vertex)
            if not cross < step.blend:
                margin_bad.append(
                    f"step {step.index} vs {later.index}: cross pairing"
                    f" {rational_to_str(cross)} not below {rational_to_str(step.blend)}"
                )
    checks.append(
        _check(
            "designated_margins",
            not margin_bad,
            "; ".join(margin_bad) if margin_bad else "all designated pairings are strict",
        )
    )

    exposure_bad = []
    for step in trace.steps:
        try:
            cert = exposure_certificate(result, step.new_vertex)
        except Exception as exc:
            exposure_bad.append(f"step {step.index}: {exc}")
            continue
        if cert.margin <= 0:
            exposure_bad.append(f"step {step.index}: nonpositive margin")
    checks.append(
        _check(
            "designated_exposed",
            not exposure_bad,
            "; ".join(exposure_bad)
            if exposure_bad
            else f"fresh exposure programs passed for all {len(trace.steps)} vertices",
        )
    )

    polar_bad = [
        repr(v)
        for v in list(result.vertices) + [s.new_vertex for s in trace.steps]
        if not polar_contains(v, polar)
    ]
    checks.append(
        _check(
            "vertices_in_ball",
            not polar_bad,
            "; ".join(polar_bad) if polar_bad else "every vertex stays inside the ball",
        )
    )

    try:
        missing = [repr(v) for v in target.vertices if not membership(v, result)]
    except Exception as exc:
        missing = [f"failed to evaluate: {exc}"]
    checks.append(
        _check(
            "result_extends_target",
            not missing,
            "; ".join(missing) if missing else "the result hull contains every target vertex",
        )
    )

    if trace.variant is not Variant.PLAIN:
        region_bad = []
        for v in result.vertices:
            why = _check_variant_vertex(v, trace.variant)
            if why is not None:
                region_bad.append(f"{v!r} {why}")
        checks.append(
            _check(
                "variant_region",
                not region_bad,
                "; ".join(region_bad) if region_bad else f"all vertices satisfy {trace.variant.value}",
            )
        )

    return VerificationReport(checks=tuple(checks))


def jordan_decompose(sigma: SparseVec) -> tuple[SparseVec, SparseVec]:
    """Split a point into positive and negative parts with disjoint supports.

    The parts recombine to the input exactly and their l1 norms add up to the
    input's, so both stay inside any ball the input lies in.
    """
    positive = SparseVec({k: v for k, v in sigma.items() if v > 0})
    negative = SparseVec({k: -v for k, v in sigma.items() if v < 0})
    return positive, negative
