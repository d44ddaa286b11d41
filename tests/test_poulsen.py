"""Tests for the certified densification run, its scheduler, and verification."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _exposure_oracle import designated_exposed as oracle_exposed
from weakstar import poulsen
from weakstar.errors import (
    BadParameter,
    TargetOutsidePolar,
    UnboundedInput,
    VariantPreconditionViolated,
)
from weakstar.faces import certificate_is_valid
from weakstar.geometry import PolarSpec, Polyhedron, membership
from weakstar.hypermetrics import MetricConfig, hausdorff_full
from weakstar.numerics import SparseVec, l1_norm, pair
from weakstar.poulsen import (
    PoulsenTrace,
    Variant,
    _Schedule,
    construct,
    jordan_decompose,
    verify_trace,
)

F = Fraction


def vec(entries):
    return SparseVec({k: F(v) for k, v in entries.items()})


SQUARE = [
    vec({0: F(1, 4), 1: F(1, 4)}),
    vec({0: F(-1, 4), 1: F(1, 4)}),
    vec({0: F(-1, 4), 1: F(-1, 4)}),
    vec({0: F(1, 4), 1: F(-1, 4)}),
]
POLAR = PolarSpec(1)


class TestVariant:
    def test_wire_names(self):
        assert Variant.PLAIN.value == "plain"
        assert Variant.POSITIVE.value == "positive"
        assert Variant.STATE_SPACE.value == "state"


class TestScheduler:
    def test_first_served_is_first_vertex(self):
        assert _Schedule(SQUARE).next() == SQUARE[0]

    def test_initial_round_serves_vertices_in_order(self):
        schedule = _Schedule(SQUARE)
        served = [schedule.next() for _ in range(4)]
        assert served == SQUARE

    def test_each_element_recurs_within_three_rounds(self):
        schedule = _Schedule(SQUARE)
        pool = len(schedule.queue)
        counts = {v: 0 for v in SQUARE}
        for _ in range(3 * pool):
            point = schedule.next()
            if point in counts:
                counts[point] += 1
        assert all(n >= 2 for n in counts.values())

    def test_deterministic_sequences(self):
        a = _Schedule(SQUARE)
        b = _Schedule(SQUARE)
        for _ in range(10):
            assert a.next() == b.next()
        assert (a.queue, a.cursor, a.vertices) == (b.queue, b.cursor, b.vertices)

    def test_blends_eventually_served(self):
        schedule = _Schedule(SQUARE)
        served = [schedule.next() for _ in range(6)]
        assert served[4] == SQUARE[0]
        midpoint = (SQUARE[0] + SQUARE[1]).scale(F(1, 2))
        assert served[5] == midpoint

    def test_candidates_stay_inside_the_hull(self):
        hull = Polyhedron(SQUARE)
        schedule = _Schedule(SQUARE)
        for _ in range(12):
            assert membership(schedule.next(), hull)

    def test_singleton_pool_never_invents_points(self):
        origin = SparseVec.zero()
        schedule = _Schedule([origin])
        for _ in range(6):
            assert schedule.next() == origin
        assert list(schedule.queue) == [origin]
        assert schedule.cursor == (2, 0, 0)

    def test_registered_stage_feeds_new_blends(self):
        origin = SparseVec.zero()
        spike = SparseVec.basis(0, F(1, 2))
        schedule = _Schedule([origin])
        schedule.add(spike)
        served = {schedule.next() for _ in range(8)}
        assert spike in served or any(p.get(0) > 0 for p in served)

    def test_empty_pool_rejected(self):
        with pytest.raises(BadParameter):
            _Schedule([])


class TestConstructSchedule:
    def test_blend_and_scale_schedule(self):
        target = Polyhedron([SparseVec.zero()])
        _, trace = construct(target, POLAR, F(1, 2), 3)
        blends = [s.blend for s in trace.steps]
        scales = [s.spike_scale for s in trace.steps]
        assert blends == [F(1, 8), F(1, 16), F(1, 32)]
        assert scales == [F(1), F(1, 16), F(1, 32)]

    def test_blend_capped_at_one(self):
        target = Polyhedron([SparseVec.zero()])
        _, trace = construct(target, POLAR, F(16), 2)
        assert trace.steps[0].blend == 1
        assert trace.steps[1].blend == 1
        assert trace.steps[1].spike_scale == F(1, 2)

    def test_single_step_from_origin(self):
        target = Polyhedron([SparseVec.zero()])
        result, trace = construct(target, POLAR, F(1, 2), 1)
        step = trace.steps[0]
        assert step.new_vertex == SparseVec.basis(0, F(1, 8))
        assert step.functional == SparseVec.basis(0)
        assert pair(step.functional, step.new_vertex) == F(1, 8)
        assert step.certificate.margin == F(1, 8)
        assert set(result.vertices) == {SparseVec.zero(), step.new_vertex}

    def test_state_space_single_step(self):
        target = Polyhedron([SparseVec.basis(0)])
        _, trace = construct(target, POLAR, F(1, 2), 1, Variant.STATE_SPACE)
        omega = trace.steps[0].new_vertex
        assert omega == SparseVec({0: F(7, 8), 1: F(1, 8)})
        assert sum(v for _, v in omega.items()) == 1

    def test_fresh_coordinates_avoid_target_support(self):
        target = Polyhedron([vec({0: F(1, 4), 5: F(1, 4)})])
        _, trace = construct(target, POLAR, F(1, 2), 3)
        assert [s.fresh_coordinate for s in trace.steps] == [6, 7, 8]

    def test_zero_steps_returns_the_hull(self):
        target = Polyhedron(SQUARE + [SparseVec.zero()])
        result, trace = construct(target, POLAR, F(1, 2), 0)
        assert set(result.vertices) == set(SQUARE)
        assert trace.steps == ()

    def test_deterministic(self):
        target = Polyhedron(SQUARE)
        first = construct(target, POLAR, F(1, 4), 4)
        second = construct(target, POLAR, F(1, 4), 4)
        assert first == second


class TestConstructGuards:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(BadParameter):
            construct(Polyhedron([SparseVec.zero()]), POLAR, F(0), 1)

    def test_steps_must_be_nonnegative(self):
        with pytest.raises(BadParameter):
            construct(Polyhedron([SparseVec.zero()]), POLAR, F(1, 2), -1)

    def test_unbounded_target_rejected(self):
        body = Polyhedron([SparseVec.zero()], rays=[SparseVec.basis(0)])
        with pytest.raises(UnboundedInput):
            construct(body, POLAR, F(1, 2), 1)

    def test_target_outside_ball_rejected(self):
        body = Polyhedron([SparseVec.basis(0, F(3))])
        with pytest.raises(TargetOutsidePolar):
            construct(body, POLAR, F(1, 2), 1)

    def test_positive_variant_rejects_negative_coordinates(self):
        body = Polyhedron([SparseVec.basis(0, F(-1, 2))])
        with pytest.raises(VariantPreconditionViolated):
            construct(body, POLAR, F(1, 2), 1, Variant.POSITIVE)

    def test_state_variant_rejects_unnormalized_vertices(self):
        body = Polyhedron([SparseVec.basis(0, F(1, 2))])
        with pytest.raises(VariantPreconditionViolated):
            construct(body, POLAR, F(1, 2), 1, Variant.STATE_SPACE)


class TestConstructInvariants:
    def test_distance_stays_within_budget(self):
        target = Polyhedron(SQUARE)
        cfg = MetricConfig(normalizing_set=POLAR)
        for eps in (F(1, 2), F(1, 4)):
            result, _ = construct(target, POLAR, eps, 6)
            distance = hausdorff_full(target, result, cfg)
            assert distance <= eps <= 2 * eps

    def test_intermediate_distances_nonincreasing(self):
        target = Polyhedron([SparseVec.zero()])
        result, trace = construct(target, POLAR, F(1, 2), 4)
        cfg = MetricConfig(normalizing_set=POLAR)
        base = list(target.vertices)
        table = []
        for n in range(len(trace.steps) + 1):
            stage = Polyhedron(base + [s.new_vertex for s in trace.steps[:n]])
            table.append(hausdorff_full(stage, result, cfg))
        assert table == sorted(table, reverse=True)
        assert table[-1] == 0

    def test_cross_pairings_strictly_below_margins(self):
        target = Polyhedron(SQUARE)
        _, trace = construct(target, POLAR, F(1, 2), 5)
        for j, early in enumerate(trace.steps):
            assert pair(early.functional, early.new_vertex) == early.blend
            for late in trace.steps[j + 1 :]:
                assert pair(early.functional, late.new_vertex) < early.blend

    def test_certificates_valid_for_their_stage_hulls(self):
        target = Polyhedron(SQUARE)
        _, trace = construct(target, POLAR, F(1, 2), 3)
        base = list(target.vertices)
        for n, step in enumerate(trace.steps, start=1):
            stage = Polyhedron(base + [s.new_vertex for s in trace.steps[:n]])
            assert certificate_is_valid(step.certificate, stage)

    def test_all_vertices_stay_inside_the_ball(self):
        target = Polyhedron(SQUARE)
        for variant in (Variant.PLAIN, Variant.POSITIVE):
            body = target
            if variant is Variant.POSITIVE:
                body = Polyhedron([vec({0: F(1, 4)}), vec({1: F(1, 2)})])
            result, _ = construct(body, POLAR, F(1, 2), 5, variant)
            for v in result.vertices:
                assert l1_norm(v) <= POLAR.radius

    def test_positive_variant_stays_in_the_cone(self):
        body = Polyhedron([vec({0: F(1, 4)}), vec({1: F(1, 2)})])
        result, _ = construct(body, POLAR, F(1, 2), 5, Variant.POSITIVE)
        for v in result.vertices:
            assert all(value >= 0 for _, value in v.items())

    def test_state_variant_stays_on_the_simplex(self):
        body = Polyhedron([SparseVec.basis(0), SparseVec.basis(1)])
        result, _ = construct(body, POLAR, F(1, 2), 5, Variant.STATE_SPACE)
        for v in result.vertices:
            assert all(value >= 0 for _, value in v.items())
            assert sum(value for _, value in v.items()) == 1

    def test_result_contains_target(self):
        target = Polyhedron(SQUARE)
        result, _ = construct(target, POLAR, F(1, 2), 4)
        for v in target.vertices:
            assert membership(v, result)


class TestVerifyTrace:
    def run(self, variant=Variant.PLAIN, steps=3):
        if variant is Variant.STATE_SPACE:
            target = Polyhedron([SparseVec.basis(0), SparseVec.basis(1)])
        elif variant is Variant.POSITIVE:
            target = Polyhedron([vec({0: F(1, 4)}), vec({1: F(1, 2)})])
        else:
            target = Polyhedron(SQUARE)
        result, trace = construct(target, POLAR, F(1, 2), steps, variant)
        return target, result, trace

    @pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.POSITIVE, Variant.STATE_SPACE])
    def test_clean_runs_pass_everything(self, variant):
        target, result, trace = self.run(variant)
        report = verify_trace(target, POLAR, result, trace)
        assert report.passed
        assert report.failures() == []
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        assert all(c.detail for c in report.checks)

    def test_perturbed_blend_weight_caught(self):
        target, result, trace = self.run()
        step = trace.steps[1]
        crooked = dataclasses.replace(step, blend=step.blend + F(1, 1000))
        steps = trace.steps[:1] + (crooked,) + trace.steps[2:]
        tampered = dataclasses.replace(trace, steps=steps)
        report = verify_trace(target, POLAR, result, tampered)
        assert not report.passed
        failed = {c.name for c in report.failures()}
        assert "schedule_blend_weights" in failed
        passed = {c.name for c in report.checks if c.passed}
        assert "distance_within_double_budget" in passed

    def test_designated_vertex_replaced_by_barycenter_caught(self):
        target, result, trace = self.run()
        victim = trace.steps[-1].new_vertex
        others = [v for v in result.vertices if v != victim]
        barycenter = SparseVec.zero()
        for v in others:
            barycenter = barycenter + v.scale(F(1, len(others)))
        swapped = Polyhedron(others + [barycenter])
        report = verify_trace(target, POLAR, swapped, trace)
        assert not report.passed
        assert "designated_exposed" in {c.name for c in report.failures()}

    def test_vertex_outside_ball_caught(self):
        target, result, trace = self.run()
        inflated = Polyhedron(list(result.vertices) + [SparseVec.basis(9, F(2))])
        report = verify_trace(target, POLAR, inflated, trace)
        assert "vertices_in_ball" in {c.name for c in report.failures()}

    def test_result_missing_target_vertex_caught(self):
        target, result, trace = self.run()
        shrunk = Polyhedron([s.new_vertex for s in trace.steps])
        report = verify_trace(target, POLAR, shrunk, trace)
        assert "result_extends_target" in {c.name for c in report.failures()}


# Every (name, passed, detail) of verify_trace on a clean run and on tampered
# traces and results, for each variant, pinned in a file.  A change that alters
# the reports on purpose regenerates it with
# ``PYTHONPATH=src python tests/test_poulsen.py`` and says so.
REPORTS = Path(__file__).parent / "verify_trace_reports.json"


def _tamper_step(trace, **changes):
    step = dataclasses.replace(trace.steps[1], **changes)
    return dataclasses.replace(trace, steps=trace.steps[:1] + (step,) + trace.steps[2:])


TRACE_TAMPERS = {
    "clean": lambda trace: trace,
    "blend_changed": lambda trace: _tamper_step(trace, blend=trace.steps[1].blend + F(1, 1000)),
    "spike_scale_halved": lambda trace: _tamper_step(trace, spike_scale=trace.steps[1].spike_scale / 2),
    "fresh_coordinate_reused": lambda trace: _tamper_step(trace, fresh_coordinate=trace.steps[0].fresh_coordinate),
    "functional_doubled": lambda trace: _tamper_step(trace, functional=trace.steps[1].functional.scale(2)),
    "epsilon_over_1000": lambda trace: dataclasses.replace(trace, epsilon=trace.epsilon / 1000),
}
RESULT_TAMPERS = {
    "vertex_outside_ball": lambda result: Polyhedron(list(result.vertices) + [SparseVec.basis(9, F(2))]),
    "vertex_missing": lambda result: Polyhedron(result.vertices[1:]),
    "ray_added": lambda result: Polyhedron(result.vertices, rays=[SparseVec.basis(0)]),
}


def pinned_reports() -> dict[str, list[list]]:
    reports = {}
    for variant in Variant:
        target, result, trace = TestVerifyTrace().run(variant)
        cases = {name: (result, tamper(trace)) for name, tamper in TRACE_TAMPERS.items()}
        cases.update({name: (tamper(result), trace) for name, tamper in RESULT_TAMPERS.items()})
        for name, (body, record) in cases.items():
            report = verify_trace(target, POLAR, body, record)
            reports[f"{variant.value}/{name}"] = [[c.name, c.passed, c.detail] for c in report.checks]
    return reports


class TestPinnedReports:
    def test_reports_match_the_pinned_file(self):
        expected = json.loads(REPORTS.read_text())
        produced = pinned_reports()
        assert sorted(produced) == sorted(expected)
        for case, checks in expected.items():
            assert produced[case] == checks, case

    def test_every_check_fails_somewhere(self):
        expected = json.loads(REPORTS.read_text())
        names = {name for checks in expected.values() for name, _, _ in checks}
        failed = {name for checks in expected.values() for name, passed, _ in checks if not passed}
        assert len(names) == 12
        assert failed == names
        assert all(passed for case, checks in expected.items() if case.endswith("/clean") for _, passed, _ in checks)


def _barycenter(points):
    total = SparseVec.zero()
    for v in points:
        total = total + v.scale(F(1, len(points)))
    return total


def _with_functional(trace, k, functional):
    step = dataclasses.replace(trace.steps[k], functional=functional)
    return dataclasses.replace(trace, steps=trace.steps[:k] + (step,) + trace.steps[k + 1 :])


def _swap_for_barycenter(result, victim):
    others = [v for v in result.vertices if v != victim]
    return Polyhedron(others + [_barycenter(others)])


def _overshadow(result, step):
    """Add the reflection of the base point through the vertex, so the vertex is a midpoint."""
    beyond = step.new_vertex.scale(2) - step.base_point
    return Polyhedron([*result.vertices, beyond])


def _exposed_check(report):
    check = next(c for c in report.checks if c.name == "designated_exposed")
    return check.passed, check.detail


# Each tamper maps (result, trace, k) to a new (result, trace); k names a step.
EXPOSURE_TAMPERS = {
    "clean": lambda r, t, k: (r, t),
    # The vertex stays extreme but its stored functional no longer exposes it.
    "functional_negated": lambda r, t, k: (r, _with_functional(t, k, -t.steps[k].functional)),
    "functional_zeroed": lambda r, t, k: (r, _with_functional(t, k, SparseVec.zero())),
    "vertex_by_barycenter": lambda r, t, k: (_swap_for_barycenter(r, t.steps[k].new_vertex), t),
    "interior_point_added": lambda r, t, k: (Polyhedron([*r.vertices, _barycenter(r.vertices)]), t),
    # The vertex stays listed but turns redundant, and its functional is flat.
    "vertex_overshadowed": lambda r, t, k: (_overshadow(r, t.steps[k]), _with_functional(t, k, SparseVec.zero())),
    "ray_added": lambda r, t, k: (Polyhedron(r.vertices, rays=[t.steps[k].spike]), t),
}


@st.composite
def small_runs(draw):
    """A small target for a drawn variant, a step count and a step to tamper."""
    variant = draw(st.sampled_from(list(Variant)))
    if variant is Variant.STATE_SPACE:
        weights = st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any)
        rows = draw(st.lists(weights, min_size=1, max_size=4))
        points = [[F(w, sum(row)) for w in row] for row in rows]
    else:
        lowest = 0 if variant is Variant.POSITIVE else F(-1, 4)
        coord = st.fractions(min_value=lowest, max_value=F(1, 4), max_denominator=4)
        points = draw(st.lists(st.lists(coord, min_size=3, max_size=3), min_size=1, max_size=4))
    target = Polyhedron([SparseVec(dict(enumerate(p))) for p in points])
    steps = draw(st.integers(1, 6))
    epsilon = draw(st.sampled_from([F(1, 2), F(1, 8)]))
    return target, variant, epsilon, steps, draw(st.integers(0, steps - 1))


class TestExposureDifferential:
    """The stored-functional check against the frozen always-LP loop."""

    @settings(max_examples=60, deadline=None)
    @given(run=small_runs(), tamper=st.sampled_from(sorted(EXPOSURE_TAMPERS)))
    def test_same_verdict_as_the_always_lp_loop(self, run, tamper):
        target, variant, epsilon, steps, k = run
        result, trace = construct(target, POLAR, epsilon, steps, variant)
        body, record = EXPOSURE_TAMPERS[tamper](result, trace, k)
        report = verify_trace(target, POLAR, body, record)
        assert _exposed_check(report) == oracle_exposed(body, record)


class TestStoredCertificates:
    STEPS = 48

    @pytest.fixture
    def solved(self, monkeypatch):
        """The vertices that ``verify_trace`` hands to an exposure program."""
        real, calls = poulsen.exposure_certificate, []

        def spy(body, vertex):
            calls.append(vertex)
            return real(body, vertex)

        monkeypatch.setattr(poulsen, "exposure_certificate", spy)
        return calls

    def test_clean_run_solves_no_exposure_program(self, solved):
        target = Polyhedron(SQUARE)
        result, trace = construct(target, POLAR, F(1, 2), self.STEPS)
        report = verify_trace(target, POLAR, result, trace)
        assert report.passed
        assert solved == []

    def test_negated_functional_solves_one_program(self, solved):
        target = Polyhedron(SQUARE)
        result, trace = construct(target, POLAR, F(1, 2), self.STEPS)
        k = self.STEPS // 2
        report = verify_trace(target, POLAR, result, _with_functional(trace, k, -trace.steps[k].functional))
        assert solved == [trace.steps[k].new_vertex]
        assert _exposed_check(report) == (True, f"fresh exposure programs passed for all {self.STEPS} vertices")


class TestJordanDecompose:
    def test_mixed_signs(self):
        pos, neg = jordan_decompose(vec({0: 3, 1: -2}))
        assert pos == vec({0: 3})
        assert neg == vec({1: 2})

    def test_nonnegative_input(self):
        sigma = vec({0: F(1, 2), 3: F(2, 3)})
        assert jordan_decompose(sigma) == (sigma, SparseVec.zero())

    def test_zero(self):
        assert jordan_decompose(SparseVec.zero()) == (SparseVec.zero(), SparseVec.zero())

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 9),
            st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool),
            max_size=6,
        )
    )
    def test_roundtrip_disjoint_and_additive(self, entries):
        sigma = SparseVec(entries)
        pos, neg = jordan_decompose(sigma)
        assert pos - neg == sigma
        assert not set(pos.support) & set(neg.support)
        assert all(v > 0 for _, v in pos.items())
        assert all(v > 0 for _, v in neg.items())
        assert l1_norm(pos) + l1_norm(neg) == l1_norm(sigma)
        if sigma.support:
            ball = PolarSpec(l1_norm(sigma))
            from weakstar.geometry import polar_contains

            assert polar_contains(pos, ball) and polar_contains(neg, ball)


if __name__ == "__main__":
    REPORTS.write_text(json.dumps(pinned_reports(), indent=1) + "\n")
