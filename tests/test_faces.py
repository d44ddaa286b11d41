"""Tests for exposure certificates, deviation estimates, and generator families."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _schedule_oracle as oracle
from weakstar import faces
from weakstar.errors import BadParameter, NotAVertex, NotInNormalizingSet, UnboundedInput
from weakstar.faces import (
    DeviationEstimate,
    ExposureCertificate,
    certificate_is_valid,
    compositions,
    exposed_all,
    exposure_certificate,
    extreme_deviation,
    fan_directions,
    inscribed_polygon,
    stadium_family,
)
from weakstar.geometry import PointSet, PolarSpec, Polyhedron, closed_convex_hull
from weakstar.hypermetrics import MetricConfig, metric_d, pseudometric_dH
from weakstar.numerics import SparseVec, pair
from weakstar.poulsen import _Schedule

F = Fraction


def vec(*coords):
    return SparseVec({i: F(c) for i, c in enumerate(coords) if c})


UNIT_SQUARE = Polyhedron([vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1)])
TRIANGLE = Polyhedron([vec(0, 0), vec(1, 0), vec(0, 1)])


class TestExposureCertificate:
    def test_margin_must_be_positive(self):
        with pytest.raises(BadParameter):
            ExposureCertificate(vec(1), vec(1), F(0))
        with pytest.raises(BadParameter):
            ExposureCertificate(vec(1), vec(1), F(-1, 2))

    def test_unit_square_corner(self):
        cert = exposure_certificate(UNIT_SQUARE, vec(1, 1))
        assert cert.vertex == vec(1, 1)
        assert cert.functional == vec(1, 1)
        assert cert.margin == 1
        assert certificate_is_valid(cert, UNIT_SQUARE)

    def test_functional_strictly_maximized(self):
        cert = exposure_certificate(UNIT_SQUARE, vec(0, 1))
        top = pair(cert.functional, cert.vertex)
        for w in UNIT_SQUARE.vertices:
            if w != cert.vertex:
                assert pair(cert.functional, w) <= top - cert.margin

    def test_singleton_convention(self):
        body = Polyhedron([vec(2, 3)])
        cert = exposure_certificate(body, vec(2, 3))
        assert cert.functional == SparseVec.zero()
        assert cert.margin == 1
        assert certificate_is_valid(cert, body)

    def test_non_vertex_rejected(self):
        with pytest.raises(NotAVertex):
            exposure_certificate(UNIT_SQUARE, vec(F(1, 2), F(1, 2)))
        with pytest.raises(NotAVertex):
            exposure_certificate(UNIT_SQUARE, vec(1, F(1, 2)))

    def test_listed_but_redundant_generator_rejected(self):
        body = Polyhedron(list(UNIT_SQUARE.vertices) + [vec(F(1, 2), F(1, 2))])
        with pytest.raises(NotAVertex):
            exposure_certificate(body, vec(F(1, 2), F(1, 2)))

    def test_unbounded_rejected(self):
        body = Polyhedron([vec(0, 0)], rays=[vec(1, 0)])
        with pytest.raises(UnboundedInput):
            exposure_certificate(body, vec(0, 0))
        with pytest.raises(UnboundedInput):
            exposed_all(body)

    def test_certificate_check_refuses_a_body_with_rays(self):
        # The functional e0 + e1 exposes e0 among the vertices 0 and e0 with
        # margin 1, but rises without bound along the ray e1.
        body = Polyhedron([vec(0, 0), vec(1, 0)], rays=[vec(0, 1)])
        with pytest.raises(UnboundedInput, match="bounded bodies"):
            certificate_is_valid(ExposureCertificate(vec(1, 0), vec(1, 1), F(1)), body)

    def test_exposed_all_triangle(self):
        certs = exposed_all(TRIANGLE)
        assert len(certs) == 3
        assert {c.vertex for c in certs} == set(TRIANGLE.vertices)
        assert all(certificate_is_valid(c, TRIANGLE) for c in certs)

    def test_exposed_all_ignores_redundant_generators(self):
        body = Polyhedron(list(UNIT_SQUARE.vertices) + [vec(F(1, 2), F(1, 2))])
        certs = exposed_all(body)
        assert len(certs) == 4
        assert {c.vertex for c in certs} == set(UNIT_SQUARE.vertices)

    def test_tampered_certificate_fails(self):
        cert = exposure_certificate(UNIT_SQUARE, vec(1, 1))
        doubled = ExposureCertificate(cert.vertex, cert.functional, 2 * cert.margin)
        assert not certificate_is_valid(doubled, UNIT_SQUARE)
        moved = ExposureCertificate(vec(1, 0), cert.functional, cert.margin)
        assert not certificate_is_valid(moved, UNIT_SQUARE)
        off_hull = ExposureCertificate(vec(3, 3), cert.functional, cert.margin)
        assert not certificate_is_valid(off_hull, UNIT_SQUARE)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_polytopes_fully_exposed(self, coords):
        body = Polyhedron([vec(*c) for c in coords])
        certs = exposed_all(body)
        hull = closed_convex_hull(body)
        assert len(certs) == len(hull.vertices)
        for cert in certs:
            assert cert.margin > 0
            assert certificate_is_valid(cert, body)


class TestCompositions:
    def test_first_tuple_concentrates_on_first_slot(self):
        assert next(compositions(5, 3)) == (5, 0, 0)

    def test_descending_lexicographic_and_complete(self):
        got = list(compositions(3, 3))
        assert got == sorted(got, reverse=True)
        assert len(got) == len(set(got)) == 10
        assert all(sum(c) == 3 and len(c) == 3 for c in got)
        assert all(all(x >= 0 for x in c) for c in got)

    def test_single_slot(self):
        assert list(compositions(4, 1)) == [(4,)]

    def test_zero_total(self):
        assert list(compositions(0, 2)) == [(0, 0)]

    def test_rejects_empty_slot_count(self):
        with pytest.raises(BadParameter):
            list(compositions(3, 0))


class TestExtremeDeviation:
    def test_singleton_has_no_deviation(self):
        est = extreme_deviation(Polyhedron([vec(F(1, 2))]), budget=4)
        assert est == DeviationEstimate(F(0), F(0), None)

    def test_segment_midpoint_is_the_deep_point(self):
        segment = Polyhedron([SparseVec.zero(), vec(1)])
        est = extreme_deviation(segment, budget=8)
        assert est.lower == F(1, 8)
        assert est.upper == F(1, 4)
        assert est.isolation_threshold == 8

    def test_square_center_is_the_deep_point(self):
        cfg = MetricConfig(normalizing_set=UNIT_SQUARE)
        est = extreme_deviation(UNIT_SQUARE, cfg, budget=16)
        assert est.lower == F(3, 16)
        assert est.upper == F(3, 8)
        assert est.isolation_threshold == 6

    def test_lower_bound_monotone_in_budget(self):
        cfg = MetricConfig(normalizing_set=UNIT_SQUARE)
        lowers = [extreme_deviation(UNIT_SQUARE, cfg, budget=b).lower for b in (1, 4, 8, 32)]
        assert lowers == sorted(lowers)

    def test_unbounded_rejected(self):
        body = Polyhedron([vec(0)], rays=[vec(1)])
        with pytest.raises(UnboundedInput):
            extreme_deviation(body)

    def test_bad_budget_rejected(self):
        with pytest.raises(BadParameter):
            extreme_deviation(Polyhedron([vec(1)]), budget=0)

    def test_body_outside_normalizing_set_rejected(self):
        with pytest.raises(NotInNormalizingSet):
            extreme_deviation(Polyhedron([vec(3)]), budget=4)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=1,
            max_size=4,
        )
    )
    def test_sandwich_is_consistent(self, coords):
        body = Polyhedron([vec(*c) for c in coords])
        cfg = MetricConfig(normalizing_set=Polyhedron([vec(*c) for c in coords]))
        est = extreme_deviation(body, cfg, budget=12)
        assert 0 <= est.lower <= est.upper
        if est.lower > 0:
            m = est.isolation_threshold
            assert m >= 1
            assert m * est.lower >= 1
            assert m == 1 or (m - 1) * est.lower < 1
        else:
            assert est.isolation_threshold is None


class TestFreshCombinationsDifferential:
    """The one walk reproduces both walkers it replaced (``_schedule_oracle``)."""

    POINTS = st.tuples(st.sampled_from((-2, -1, 0, 1, 2)), st.sampled_from((-1, 0, F(1, 2), 1)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(POINTS, min_size=1, max_size=16, unique=True), st.integers(1, 4))
    @example([(0, 0), (1, 0), (0, 1), (-1, F(1, 2))], 1)  # a one-vertex start draws nothing new first
    def test_scheduler_serves_as_before(self, coords, first):
        points = [vec(*c) for c in coords]
        first = min(first, len(points))
        state = oracle.scheduler_start(points[:first])
        schedule = _Schedule(points[:first])
        # As in ``construct``: one draw, then one appended vertex, per step.
        for k in range(first, len(points)):
            expected, state = oracle.scheduler_next(state)
            assert schedule.next() == expected
            state = oracle.scheduler_register(state, points[: k + 1])
            schedule.add(points[k])
        assert tuple(schedule.queue) == state.queue
        assert schedule.cursor == (state.block, state.stage, state.position)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(POINTS, min_size=1, max_size=5, unique=True), st.integers(1, 16))
    def test_deviation_samples_as_before(self, coords, budget):
        body = Polyhedron([vec(*c) for c in coords])
        cfg = MetricConfig(normalizing_set=PolarSpec(3))
        vertices = closed_convex_hull(body).vertices
        calls = []

        def recording_metric_d(a, b, config):
            calls.append((a, b))
            return metric_d(a, b, config)

        with mock.patch.object(faces, "metric_d", recording_metric_d):
            extreme_deviation(body, cfg, budget)
        pairs = [(v, w) for i, v in enumerate(vertices) for w in vertices[i + 1 :]]
        samples = [(p, v) for p in oracle._sample_points(vertices, budget) for v in vertices]
        assert calls == pairs + samples


class TestStadiumFamily:
    def test_count_validation(self):
        with pytest.raises(BadParameter):
            stadium_family(6)
        with pytest.raises(BadParameter):
            stadium_family(9)

    def test_tangency_points_always_present(self):
        for count in (8, 16, 32):
            vs = set(stadium_family(count).vertices)
            for sx in (1, -1):
                for sy in (1, -1):
                    assert vec(sx, sy) in vs

    def test_widest_points_present_with_odd_half(self):
        vs = set(stadium_family(10).vertices)
        assert vec(2, 0) in vs and vec(-2, 0) in vs

    def test_vertex_count_and_irredundancy(self):
        for count in (8, 12, 16):
            body = stadium_family(count)
            assert len(body.vertices) == count
            assert set(closed_convex_hull(body).vertices) == set(body.vertices)

    def test_all_vertices_exposed(self):
        body = stadium_family(8)
        certs = exposed_all(body)
        assert len(certs) == 8
        assert all(certificate_is_valid(c, body) for c in certs)

    def test_tangency_margin_thins_as_circles_fill_in(self):
        margins = [
            exposure_certificate(stadium_family(count), vec(1, 1)).margin
            for count in (8, 16, 32)
        ]
        assert margins == [F(2, 7), F(2, 43), F(2, 211)]
        assert margins[0] > margins[1] > margins[2] > 0


class TestInscribedPolygon:
    def test_rejects_tiny_k(self):
        with pytest.raises(BadParameter):
            inscribed_polygon(1)

    def test_point_counts(self):
        for k in range(2, 7):
            assert len(inscribed_polygon(k).vertices) == 2**k

    def test_grids_are_nested(self):
        for k in range(2, 6):
            coarse = set(inscribed_polygon(k).vertices)
            fine = set(inscribed_polygon(k + 1).vertices)
            assert coarse < fine

    def test_points_lie_on_the_disc_boundary(self):
        for k in (2, 4, 6):
            for p in inscribed_polygon(k).vertices:
                assert max(abs(p.get(0)), abs(p.get(1))) == 1

    def test_corners_present_and_hull_constant(self):
        corners = {vec(sx, sy) for sx in (1, -1) for sy in (1, -1)}
        for k in (2, 3, 5):
            body = inscribed_polygon(k)
            assert corners <= set(body.vertices)
            assert set(closed_convex_hull(body).vertices) == corners

    def test_axis_and_diagonal_image_distance_formula(self):
        for k in (3, 4, 5):
            body = inscribed_polygon(k)
            points = PointSet(body.vertices)
            scale = F(4, 2**k)
            for a in (F(1), F(8, 5), F(-2, 3)):
                assert pseudometric_dH(body, points, vec(a, 0)) == abs(a) * scale
                assert pseudometric_dH(body, points, vec(0, a)) == abs(a) * scale
                assert pseudometric_dH(body, points, vec(a, a)) == abs(a) * scale
                assert pseudometric_dH(body, points, vec(a, -a)) == abs(a) * scale

    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_sweep_halves_exactly_per_refinement(self, seed):
        directions = fan_directions(12, seed)
        worst = {}
        for k in range(3, 7):
            body = inscribed_polygon(k)
            points = PointSet(body.vertices)
            worst[k] = max(pseudometric_dH(body, points, A) for A in directions)
        for k in range(3, 6):
            assert worst[k] == 2 * worst[k + 1]
            assert worst[k + 1] > 0


class TestFanDirections:
    def test_count_and_determinism(self):
        first = fan_directions(20, 5)
        assert len(first) == 20
        assert first == fan_directions(20, 5)
        assert first != fan_directions(20, 6)

    def test_directions_live_in_the_plane_fan(self):
        for A in fan_directions(50, 11):
            assert A.support and set(A.support) <= {0, 1}
            a, b = A.get(0), A.get(1)
            assert a == 0 or b == 0 or abs(a) == abs(b)

    def test_rejects_empty_request(self):
        with pytest.raises(BadParameter):
            fan_directions(0, 1)
