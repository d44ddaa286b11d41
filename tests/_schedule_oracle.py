"""Frozen copy of the two convex-combination walkers, kept as a test oracle.

These are the scheduler (``SchedulerState``, ``scheduler_start``,
``_next_fresh``, ``scheduler_next``, ``scheduler_register``) that
``weakstar.poulsen`` shipped, and ``convex_combinations`` and
``_sample_points`` from ``weakstar.faces``, copied verbatim from before both
were rebuilt on the one generator ``faces.fresh_combinations``.
``test_faces.py::TestFreshCombinationsDifferential`` requires the current
scheduler to serve the same sequence and end with the same queue and cursor,
and ``extreme_deviation`` to sample the same points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Sequence

from weakstar.errors import BadParameter
from weakstar.faces import compositions
from weakstar.numerics import SparseVec


def convex_combinations(
    vertices: Sequence[SparseVec], denominator: int, newest_only: bool = False
) -> Iterator[SparseVec]:
    """The combinations of ``vertices`` with weights ``c_i / denominator``, in composition order.

    With ``newest_only`` only combinations that give the last vertex a
    positive weight are emitted; the rest are combinations of the earlier
    vertices alone.
    """
    for combo in compositions(denominator, len(vertices)):
        if newest_only and combo[-1] == 0:
            continue
        point = SparseVec.zero()
        for coeff, v in zip(combo, vertices):
            if coeff:
                point = point + v.scale(Fraction(coeff, denominator))
        yield point


def _sample_points(vertices: Sequence[SparseVec], budget: int) -> Iterator[SparseVec]:
    """Deterministic rational convex combinations, coarse denominators first.

    Stops early if a whole denominator layer adds no new point (the body is a
    single point, so finer layers cannot add one either).
    """
    seen: set[SparseVec] = set()
    emitted = 0
    denominator = 1
    while emitted < budget:
        layer_grew = False
        for point in convex_combinations(vertices, denominator):
            if point in seen:
                continue
            seen.add(point)
            layer_grew = True
            yield point
            emitted += 1
            if emitted >= budget:
                return
        if not layer_grew:
            return
        denominator += 1


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
            return found, replace(state, seen=seen | {found}, block=block, stage=stage, position=position)
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
    return served, replace(advanced, queue=queue)


def scheduler_register(state: SchedulerState, vertices: Sequence[SparseVec]) -> SchedulerState:
    """Record the next hull's vertex tuple as a new enumeration stage."""
    pool = tuple(dict.fromkeys(vertices))
    if not pool:
        raise BadParameter("a scheduler stage needs at least one vertex")
    return replace(state, stages=state.stages + (pool,))
