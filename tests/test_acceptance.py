"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Every numeric claim is checked in exact rational arithmetic at the stated
tolerance; no assertion here goes through floating point.  Construction runs
are shared between the criteria that examine them, so the suite builds each
random instance exactly once.
"""

import random
import time
from collections import Counter, namedtuple
from contextlib import contextmanager
from fractions import Fraction
from math import inf

import pytest

from weakstar.faces import exposure_certificate, fan_directions, inscribed_polygon
from weakstar.geometry import PointSet, Polyhedron, PolarSpec, closed_convex_hull, membership
from weakstar.hypermetrics import (
    ClopenAnd,
    ClopenAtom,
    ClopenNot,
    ClopenOr,
    CylinderSpec,
    MetricConfig,
    clopen_eval,
    cylinder_bounded,
    hausdorff_full,
    pseudometric_dH,
    separating_direction,
)
from weakstar.limits import SequencePrefix, counterexample_demo, monotone_limit
from weakstar.numerics import SparseVec, l1_norm, pair
from weakstar.poulsen import Variant, construct, jordan_decompose, verify_trace

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
STEPS = 16

RESULTS: list[str] = []  # replayed after the run by the terminal-summary hook


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        _announce(f"acceptance {number:2d} ({label}): FAIL")
        raise
    _announce(f"acceptance {number:2d} ({label}): PASS")


def _announce(line):
    print(line)
    RESULTS.append(line)


# ---------------------------------------------------------------------------
# Shared random instances.
# ---------------------------------------------------------------------------

Run = namedtuple("Run", "epsilon polar target result trace report elapsed")


def _ball_vertex(rng, lowest=-8):
    support = rng.sample(range(8), rng.randint(0, 4))
    return SparseVec({index: Fraction(rng.randint(lowest, 8), 32) for index in support})


def _simplex_vertex(rng):
    size = rng.randint(1, 4)
    support = rng.sample(range(8), size)
    weights = [rng.randint(1, 8) for _ in range(size)]
    total = sum(weights)
    return SparseVec({index: Fraction(w, total) for index, w in zip(support, weights)})


def _build_runs(variant, base_seed, vertex_maker):
    runs = []
    for i in range(25):
        rng = random.Random(base_seed + i)
        epsilon = HALF if i % 2 == 0 else QUARTER
        target = Polyhedron([vertex_maker(rng) for _ in range(rng.randint(1, 12))])
        polar = PolarSpec(1)
        started = time.monotonic()
        result, trace = construct(target, polar, epsilon, STEPS, variant, seed=i)
        report = verify_trace(target, polar, result, trace)
        runs.append(Run(epsilon, polar, target, result, trace, report, time.monotonic() - started))
    return runs


@pytest.fixture(scope="module")
def plain_runs():
    return _build_runs(Variant.PLAIN, 1000, _ball_vertex)


@pytest.fixture(scope="module")
def positive_runs():
    return _build_runs(Variant.POSITIVE, 2000, lambda rng: _ball_vertex(rng, lowest=0))


@pytest.fixture(scope="module")
def state_runs():
    return _build_runs(Variant.STATE_SPACE, 3000, _simplex_vertex)


def _assert_distance_budget(runs):
    for run in runs:
        cfg = MetricConfig(normalizing_set=run.polar)
        distance = hausdorff_full(closed_convex_hull(run.target), run.result, cfg)
        assert distance <= 2 * run.epsilon
        assert distance <= run.epsilon
        assert run.report.passed, [c.name for c in run.report.failures()]
        assert run.elapsed < 30.0


def _assert_designated_exposed(runs):
    for run in runs:
        checks = {check.name: check for check in run.report.checks}
        assert checks["designated_exposed"].passed  # a fresh program per appended vertex
        steps = run.trace.steps
        for j, step in enumerate(steps):
            for later in steps[j + 1 :]:
                assert pair(step.functional, later.new_vertex) < step.blend
    for run in runs[:2]:
        for step in run.trace.steps[:4]:
            resolved = exposure_certificate(run.result, step.new_vertex)
            assert resolved.margin > 0


def _assert_schedule_formulas(runs):
    for run in runs:
        blends = []
        for n, step in enumerate(run.trace.steps, start=1):
            expected_blend = min(Fraction(1), run.epsilon / Fraction(2) ** (n + 1))
            assert step.index == n
            assert step.blend == expected_blend
            expected_scale = min([Fraction(1), run.polar.radius] + [lam / 2 for lam in blends])
            assert step.spike_scale == expected_scale
            assert 0 < step.spike_scale <= 1
            assert step.spike_scale <= run.polar.radius
            assert all(step.spike_scale <= lam / 2 for lam in blends)
            blends.append(step.blend)


# ---------------------------------------------------------------------------
# The criteria.
# ---------------------------------------------------------------------------


def test_c01_construction_meets_distance_budget(plain_runs):
    with criterion(1, "construction distance budget"):
        _assert_distance_budget(plain_runs)


def test_c02_designated_vertices_are_exposed(plain_runs):
    with criterion(2, "designated vertices exposed"):
        _assert_designated_exposed(plain_runs)


def test_c03_schedule_follows_exact_formulas(plain_runs):
    with criterion(3, "blend and spike schedule"):
        _assert_schedule_formulas(plain_runs)


def test_c04_hulls_never_increase_directional_distance():
    with criterion(4, "hulls contract directional distance"):
        rng = random.Random(4)
        for _ in range(200):
            def finite_set():
                points = []
                for _ in range(rng.randint(1, 5)):
                    support = rng.sample(range(6), rng.randint(0, 3))
                    points.append(
                        SparseVec({i: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4])) for i in support})
                    )
                return PointSet(points)

            first, second = finite_set(), finite_set()
            support = rng.sample(range(6), rng.randint(1, 3))
            functional = SparseVec({i: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), 2) for i in support})
            hull_distance = pseudometric_dH(
                closed_convex_hull(first), closed_convex_hull(second), functional
            )
            assert hull_distance <= pseudometric_dH(first, second, functional)


def test_c05_separating_direction_is_complete():
    with criterion(5, "separating directions complete"):
        rng = random.Random(5)
        witnessed = equal = 0
        for i in range(100):
            points = []
            for _ in range(rng.randint(1, 4)):
                support = rng.sample(range(5), rng.randint(0, 2))
                points.append(SparseVec({j: Fraction(rng.randint(-4, 4), 2) for j in support}))
            first = Polyhedron(points)
            if i % 3 == 0:
                shuffled = list(points)
                rng.shuffle(shuffled)
                if len(points) >= 2:
                    a, b = points[0], points[1]
                    shuffled.append((a + b).scale(HALF))
                second = Polyhedron(shuffled)
            else:
                other = []
                for _ in range(rng.randint(1, 4)):
                    support = rng.sample(range(5), rng.randint(0, 2))
                    other.append(SparseVec({j: Fraction(rng.randint(-4, 4), 2) for j in support}))
                second = Polyhedron(other)

            direction = separating_direction(first, second)
            mutual = all(membership(v, second) for v in first.vertices) and all(
                membership(w, first) for w in second.vertices
            )
            assert (direction is None) == mutual
            if direction is None:
                equal += 1
            else:
                witnessed += 1
                assert pseudometric_dH(first, second, direction) > 0
        assert equal >= 10 and witnessed >= 10  # both branches genuinely exercised


def test_c06_polygon_refinement_halves_worst_gap():
    with criterion(6, "polygon refinement halves the gap"):
        directions = fan_directions(20, seed=2026)
        worst = []
        for k in range(3, 7):
            polygon = inscribed_polygon(k)
            net = PointSet(polygon.vertices)
            worst.append(max(pseudometric_dH(polygon, net, a) for a in directions))
        for coarse, fine in zip(worst, worst[1:]):
            assert coarse >= 2 * fine
        assert worst[-1] > 0


def test_c07_directional_distances_bounded_by_full_metric():
    with criterion(7, "directional vs full metric bound"):
        rng = random.Random(7)
        cfg = MetricConfig(normalizing_set=PolarSpec(1))
        for _ in range(50):
            first = Polyhedron([_ball_vertex(rng) for _ in range(rng.randint(1, 6))])
            second = Polyhedron([_ball_vertex(rng) for _ in range(rng.randint(1, 6))])
            full = hausdorff_full(first, second, cfg)
            for n in cfg.term_indices(*first.vertices, *second.vertices):
                functional = cfg.functional(n)
                directional = pseudometric_dH(first, second, functional)
                assert directional <= Fraction(2) ** n * (1 + cfg.normalizer(functional)) * full


def test_c08_escaping_spikes_oracle_values():
    with criterion(8, "escaping-spike family exact values"):
        report = counterexample_demo(5)
        assert report.distances[-1] == Fraction(1, 66)
        assert report.max_l1 == 32


def test_c09_variants_and_jordan_roundtrip(positive_runs, state_runs):
    with criterion(9, "positive and state-space variants"):
        for runs in (positive_runs, state_runs):
            _assert_distance_budget(runs)
            _assert_designated_exposed(runs)
            _assert_schedule_formulas(runs)
            for run in runs:
                for vertex in run.result.vertices:
                    assert all(value >= 0 for _, value in vertex.items())
        for run in state_runs:
            for vertex in run.result.vertices:
                assert sum(value for _, value in vertex.items()) == 1

        rng = random.Random(9)
        for _ in range(200):
            support = rng.sample(range(10), rng.randint(0, 6))
            sigma = SparseVec({i: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for i in support})
            positive, negative = jordan_decompose(sigma)
            assert positive - negative == sigma
            assert set(positive.support).isdisjoint(negative.support)
            assert all(value > 0 for _, value in positive.items())
            assert all(value > 0 for _, value in negative.items())
            assert l1_norm(sigma) == l1_norm(positive) + l1_norm(negative)


def test_c10_distance_to_limit_tables_descend():
    with criterion(10, "distance-to-limit tables descend to zero"):
        cfg = MetricConfig(normalizing_set=PolarSpec(1))

        segments = [
            Polyhedron([SparseVec.zero(), SparseVec.basis(0, 1 - Fraction(1, 2**n))])
            for n in range(1, 6)
        ]
        _, table = monotone_limit(SequencePrefix(segments, 0), cfg)
        assert all(a >= b for a, b in zip(table, table[1:]))
        assert table[0] > 0 and table[-1] == 0

        target = Polyhedron([SparseVec.zero(), SparseVec.basis(0, HALF), SparseVec.basis(1, -HALF)])
        result, trace = construct(target, PolarSpec(1), HALF, 6)
        hulls = [closed_convex_hull(target)]
        grown = list(hulls[0].vertices)
        for step in trace.steps:
            grown.append(step.new_vertex)
            hulls.append(closed_convex_hull(Polyhedron(grown)))
        limit, table = monotone_limit(SequencePrefix(hulls, 0), cfg)
        assert set(limit.vertices) == set(result.vertices)
        assert all(a >= b for a, b in zip(table, table[1:]))
        assert table[0] > 0 and table[-1] == 0


def test_c11_clopen_atoms_are_unions_of_finite_distance_classes():
    # The logic side of the weak*-Hausdorff hypertopology: a cylinder atom is
    # constant on each class of bodies at finite pseudodistance along its
    # generators, so it is clopen, and the atoms form a Boolean algebra.
    with criterion(11, "clopen cylinder algebra"):
        rng = random.Random(11)

        def vector(min_size):
            support = rng.sample(range(4), rng.randint(min_size, 2))
            return SparseVec({i: Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 2)) for i in support})

        def rays():
            return [vector(1) for _ in range(rng.randint(0, 2))]

        def cylinder():
            return CylinderSpec([vector(1) for _ in range(rng.randint(0, 2))])

        seen = Counter()
        for _ in range(400):
            first = Polyhedron([vector(0) for _ in range(rng.randint(1, 3))], rays())
            shared = rng.random() < 0.5
            second = Polyhedron([vector(0) for _ in range(rng.randint(1, 3))], first.rays if shared else rays())
            atom, other = cylinder(), cylinder()
            bounded = cylinder_bounded(first, atom)
            core = Polyhedron(first.vertices)
            assert bounded == all(pseudometric_dH(first, core, a) < inf for a in atom.generators)
            seen["bounded" if bounded else "unbounded"] += 1
            if all(pseudometric_dH(first, second, a) < inf for a in atom.generators):
                assert cylinder_bounded(second, atom) == bounded
                seen["same class" if shared else "same class, other rays"] += 1
            x, y = ClopenAtom(atom), ClopenAtom(other)
            for body in (first, second):
                assert clopen_eval(ClopenNot(ClopenAnd(x, y)), body) == clopen_eval(ClopenOr(ClopenNot(x), ClopenNot(y)), body)
                assert clopen_eval(ClopenNot(ClopenOr(x, y)), body) == clopen_eval(ClopenAnd(ClopenNot(x), ClopenNot(y)), body)
        assert len(seen) == 4 and min(seen.values()) >= 40, seen
