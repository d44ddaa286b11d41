from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _prune_oracle import _prune_vertices as oracle_prune
from weakstar import geometry
from weakstar.errors import BadParameter, UnboundedInput
from weakstar.geometry import (
    FinitePoints,
    Interval,
    PointSet,
    PolarSpec,
    Polyhedron,
    closed_convex_hull,
    irredundant_vertices,
    membership,
    path_combine,
    polar_contains,
    recession_rays,
    scalar_image,
    support_value,
)
from weakstar.geometry import _maximizers, _prune_rays, _prune_vertices, _separates
from weakstar.numerics import SparseVec, pair

F = Fraction


def pt(x, y=None):
    entries = {0: F(x)}
    if y is not None:
        entries[1] = F(y)
    return SparseVec(entries)


ZERO = SparseVec.zero()
E0 = SparseVec.basis(0)
E1 = SparseVec.basis(1)


def hull2d(coords):
    """Monotone-chain convex hull over exact rationals; strict vertices only."""
    pts = sorted(set(coords))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def as_coords(vecs):
    return sorted((v.get(0), v.get(1)) for v in vecs)


class TestTypes:
    def test_pointset_dedupes_and_rejects_empty(self):
        ps = PointSet([E0, E0, ZERO])
        assert ps.points == (E0, ZERO)
        with pytest.raises(BadParameter):
            PointSet([])

    def test_polyhedron_rejects_zero_ray(self):
        with pytest.raises(BadParameter):
            Polyhedron([ZERO], rays=[ZERO])

    def test_polar_radius_positive(self):
        with pytest.raises(BadParameter):
            PolarSpec(0)
        assert PolarSpec(F(1, 2)).radius == F(1, 2)

    def test_finite_points_sorted_strict(self):
        fp = FinitePoints([F(3), F(1), F(3)])
        assert fp.values == (F(1), F(3))

    def test_interval_validation(self):
        with pytest.raises(BadParameter):
            Interval(F(1), F(0))
        i = Interval(-inf, F(2))
        assert i.lower == -inf and i.upper == 2

    @pytest.mark.parametrize("end", [inf, -inf])
    def test_interval_at_one_infinity_is_refused(self, end):
        # Neither [inf, inf] nor [-inf, -inf] holds a real number; infinite
        # ends around a real number stay accepted.
        with pytest.raises(BadParameter):
            Interval(end, end)
        line, ray = Interval(-inf, inf), Interval(0, inf)
        assert (line.lower, line.upper, ray.lower, ray.upper) == (-inf, inf, 0, inf)


class TestHull:
    def test_middle_point_redundant(self):
        hull = closed_convex_hull(PointSet([ZERO, E0, E0.scale(F(1, 2))]))
        assert set(hull.vertices) == {ZERO, E0}
        assert closed_convex_hull(hull) == hull and not hull.rays

    def test_singleton(self):
        hull = closed_convex_hull(PointSet([pt(2, 3)]))
        assert hull.vertices == (pt(2, 3),)

    def test_point_on_edge_removed(self):
        pts = [pt(0, 0), pt(2, 0), pt(0, 2), pt(1, 1)]
        hull = closed_convex_hull(PointSet(pts))
        assert as_coords(hull.vertices) == [(0, 0), (0, 2), (2, 0)]

    def test_square_with_center(self):
        square = [pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)]
        got = irredundant_vertices(PointSet(square + [pt(F(1, 2), F(1, 2))]))
        assert as_coords(got.points) == as_coords(square)

    def test_segment_keeps_both_ends(self):
        got = irredundant_vertices(PointSet([ZERO, E0]))
        assert set(got.points) == {ZERO, E0}

    def test_vertex_absorbed_by_ray(self):
        poly = Polyhedron([ZERO, E0.scale(3)], rays=[E0])
        hull = closed_convex_hull(poly)
        assert hull.vertices == (ZERO,)
        assert hull.rays == (E0,)

    @given(
        coords=st.lists(
            st.tuples(
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hull_matches_planar_oracle(self, coords):
        mine = irredundant_vertices(PointSet([pt(x, y) for x, y in coords]))
        assert as_coords(mine.points) == sorted(hull2d(coords))


class TestMembership:
    def test_midpoint_of_segment(self):
        seg = Polyhedron([ZERO, E0])
        assert membership(E0.scale(F(1, 2)), seg)

    def test_point_outside(self):
        seg = Polyhedron([ZERO, E0])
        assert not membership(E0.scale(2), seg)

    def test_point_on_ray(self):
        horn = Polyhedron([ZERO], rays=[E0])
        assert membership(E0.scale(5), horn)
        assert not membership(E0.scale(-1), horn)

    def test_point_set_membership_is_literal(self):
        # A PointSet holds only its points, as its scalar image does; the
        # Polyhedron on the same points also holds the segment between them.
        a, b = pt(0, 0), pt(2, 1)
        midpoint = pt(1, F(1, 2))
        assert membership(a, PointSet([a, b]))
        assert not membership(midpoint, PointSet([a, b]))
        assert membership(midpoint, Polyhedron([a, b]))

    def test_listed_vertex_needs_no_lp(self, monkeypatch):
        real, calls = geometry.solve_bounded, []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "solve_bounded", spy)
        horn = Polyhedron([pt(0, 0), pt(1, 0), pt(0, 1)], rays=[pt(1, 1)])
        assert membership(pt(1, 0), horn)
        assert calls == []
        square = Polyhedron([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])
        assert membership(pt(F(1, 2), F(1, 3)), square)
        assert len(calls) == 1

    @given(
        coords=st.lists(
            st.tuples(
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
            ),
            min_size=1,
            max_size=5,
        ),
        probe=st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=4),
            st.fractions(min_value=-4, max_value=4, max_denominator=4),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_hull_growth(self, coords, probe):
        body = closed_convex_hull(PointSet([pt(x, y) for x, y in coords]))
        grown = hull2d(coords + [probe])
        assert membership(pt(*probe), body) == (sorted(grown) == sorted(hull2d(coords)))


class TestSupportAndImage:
    def test_support_two_points(self):
        body = Polyhedron([E0, E1])
        assert support_value(body, SparseVec.basis(0)) == 1

    def test_support_ray_is_infinite(self):
        body = Polyhedron([ZERO], rays=[E0])
        assert support_value(body, SparseVec.basis(0)) == inf
        assert support_value(body, SparseVec.basis(1)) == 0

    def test_support_diagonal(self):
        body = Polyhedron([pt(1, 0), pt(0, 1)])
        assert support_value(body, SparseVec({0: 1, 1: 1})) == 1

    def test_image_of_points(self):
        ps = PointSet([ZERO, E0, E0.scale(3)])
        assert scalar_image(ps, SparseVec.basis(0)) == FinitePoints([0, 1, 3])

    def test_image_of_segment(self):
        seg = Polyhedron([ZERO, E0.scale(3)])
        assert scalar_image(seg, SparseVec.basis(0)) == Interval(0, 3)

    def test_image_with_ray(self):
        horn = Polyhedron([E0.scale(2)], rays=[E0])
        assert scalar_image(horn, SparseVec.basis(0)) == Interval(2, inf)

    @given(
        coords=st.lists(
            st.tuples(
                st.fractions(min_value=-3, max_value=3, max_denominator=5),
                st.fractions(min_value=-3, max_value=3, max_denominator=5),
            ),
            min_size=1,
            max_size=5,
        ),
        a=st.tuples(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_polyhedron_image_is_interval_hull_of_point_image(self, coords, a):
        ps = PointSet([pt(x, y) for x, y in coords])
        functional = SparseVec({0: a[0], 1: a[1]})
        fine = scalar_image(ps, functional)
        coarse = scalar_image(closed_convex_hull(ps), functional)
        assert coarse == Interval(min(fine.values), max(fine.values))

    def test_positive_homogeneity(self):
        body = Polyhedron([pt(1, 2), pt(-1, 0)], rays=[E1])
        a = SparseVec({0: 3, 1: -2})
        for alpha in (F(1, 3), F(5, 2)):
            assert support_value(body, a.scale(alpha)) == alpha * support_value(body, a)


class TestRecession:
    def test_polytope_has_none(self):
        assert recession_rays(Polyhedron([E0, E1])) == []

    def test_single_ray(self):
        assert recession_rays(Polyhedron([ZERO], rays=[E0])) == [E0]

    def test_middle_ray_removed(self):
        body = Polyhedron([ZERO], rays=[E0, E0 + E1, E1])
        assert set(recession_rays(body)) == {E0, E1}

    def test_parallel_rays_collapse(self):
        body = Polyhedron([ZERO], rays=[E0, E0.scale(3)])
        assert recession_rays(body) == [E0]

    def test_cone_with_line_stays_equivalent(self):
        # Irredundant generators are not unique once the cone contains a full
        # line, so check cone equality rather than an exact ray set.
        original = [E0, -E0, E1, E0 + E1]
        kept = recession_rays(Polyhedron([ZERO], rays=original))
        assert len(kept) == 3
        before = Polyhedron([ZERO], rays=original)
        after = Polyhedron([ZERO], rays=kept)
        assert all(membership(r, after) for r in original)
        assert all(membership(r, before) for r in kept)


class TestPathCombine:
    def test_endpoints(self):
        p = closed_convex_hull(PointSet([pt(0, 0), pt(1, 0)]))
        q = closed_convex_hull(PointSet([pt(0, 1), pt(1, 1)]))
        assert set(path_combine(0, p, q).vertices) == set(p.vertices)
        assert set(path_combine(1, p, q).vertices) == set(q.vertices)

    def test_midpoint_of_two_points(self):
        p = Polyhedron([pt(0, 0)])
        q = Polyhedron([pt(1, 1)])
        mid = path_combine(F(1, 2), p, q)
        assert mid.vertices == (pt(F(1, 2), F(1, 2)),)

    def test_blend_of_segments_contains_sampled_blends(self):
        p = Polyhedron([pt(0, 0), pt(1, 0)])
        q = Polyhedron([pt(0, 1), pt(1, 2)])
        blend = path_combine(F(1, 2), p, q)
        for s in (F(0), F(1, 3), F(1, 2), F(1)):
            for t in (F(0), F(1, 4), F(1)):
                inside_p = pt(0, 0).scale(1 - s) + pt(1, 0).scale(s)
                inside_q = pt(0, 1).scale(1 - t) + pt(1, 2).scale(t)
                assert membership(inside_p.scale(F(1, 2)) + inside_q.scale(F(1, 2)), blend)

    def test_identity_blend(self):
        p = closed_convex_hull(PointSet([pt(0, 0), pt(2, 0), pt(0, 2)]))
        for lam in (F(0), F(1, 3), F(1)):
            assert set(path_combine(lam, p, p).vertices) == set(p.vertices)

    def test_rejects_rays(self):
        p = Polyhedron([ZERO], rays=[E0])
        q = Polyhedron([ZERO])
        with pytest.raises(UnboundedInput):
            path_combine(F(1, 2), p, q)

    def test_rejects_bad_parameter(self):
        p = Polyhedron([ZERO])
        with pytest.raises(BadParameter):
            path_combine(2, p, p)


class TestPolar:
    def test_boundary_point_inside(self):
        sigma = SparseVec({0: F(1, 2), 5: F(1, 2)})
        assert polar_contains(sigma, PolarSpec(1))

    def test_outside(self):
        assert not polar_contains(E0.scale(2), PolarSpec(1))

    def test_scaled_radius(self):
        assert polar_contains(E0.scale(2), PolarSpec(2))
        assert not polar_contains(E0.scale(2), PolarSpec(F(3, 2)))

    def test_max_abs_pairing(self):
        ball = PolarSpec(F(3, 2))
        assert ball.max_abs_pairing(SparseVec({0: 2, 7: -4})) == 6
        assert ball.max_abs_pairing(ZERO) == 0


class TestHullLaws:
    triangle = [pt(0, 0), pt(3, 0), pt(0, 3)]

    def test_extensive(self):
        ps = PointSet(self.triangle + [pt(1, 1)])
        hull = closed_convex_hull(ps)
        assert all(membership(p, hull) for p in ps.points)

    def test_idempotent(self):
        ps = PointSet(self.triangle + [pt(1, 1), pt(2, 1)])
        once = closed_convex_hull(ps)
        twice = closed_convex_hull(once)
        assert set(once.vertices) == set(twice.vertices)

    def test_isotone(self):
        small = PointSet([pt(0, 0), pt(1, 1)])
        big = PointSet(self.triangle + [pt(1, 1)])
        big_hull = closed_convex_hull(big)
        for v in closed_convex_hull(small).vertices:
            assert membership(v, big_hull)


# -- output-sensitive pruning against the frozen quadratic loop ---------------

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# Integer coordinates make ties on separating functionals common.
GRID = st.integers(min_value=-2, max_value=2).map(F)
WEIGHT = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)


@st.composite
def pruning_inputs(draw):
    """A polyhedron with distinct vertices, as every constructor leaves them.

    Besides drawn vertices it holds interior, collinear and coplanar points,
    and rays that are positive multiples or cone combinations of other rays,
    opposite to another ray (a line) or orthogonal to a vertex difference.
    """
    dim = draw(st.integers(min_value=1, max_value=3))
    values = draw(st.sampled_from([SMALL, GRID]))
    vectors = st.lists(values, min_size=dim, max_size=dim).map(lambda xs: SparseVec(enumerate(xs)))
    points = draw(st.lists(vectors, min_size=1, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        p, q, r = (draw(st.sampled_from(points)) for _ in range(3))
        s, t = draw(st.fractions(min_value=-1, max_value=2, max_denominator=3)), draw(WEIGHT)
        kind = draw(st.sampled_from(["interior", "collinear", "coplanar"]))
        if kind == "interior":
            points.append((p + q.scale(t) + r.scale(t * t)).scale(1 / (1 + t + t * t)))
        elif kind == "collinear":
            points.append(p + (q - p).scale(s))
        else:
            points.append(p + (q - p).scale(s) + (r - p).scale(t))
    if dim > 1 and draw(st.booleans()):
        points = [SparseVec({k: v for k, v in x.items() if k != dim - 1}) for x in points]
    rays = draw(st.lists(vectors, max_size=2))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["multiple", "cone", "opposite", "orthogonal"]))
        if kind == "orthogonal" and dim > 1:
            v = draw(st.sampled_from(points)) - draw(st.sampled_from(points))
            a, b = draw(st.permutations(range(dim)))[:2]
            rays.append(SparseVec({a: v.get(b), b: -v.get(a)}))
        elif rays and kind == "multiple":
            rays.append(draw(st.sampled_from(rays)).scale(draw(WEIGHT)))
        elif rays and kind == "cone":
            rays.append(draw(st.sampled_from(rays)).scale(draw(WEIGHT)) + draw(st.sampled_from(rays)))
        elif rays:
            rays.append(-draw(st.sampled_from(rays)))
    return Polyhedron(points, [r for r in rays if r])


class TestPruneDifferential:
    @given(body=pruning_inputs())
    @settings(max_examples=200, deadline=None)
    def test_pruning_matches_the_quadratic_oracle(self, body):
        rays = _prune_rays(body.rays)
        expected = oracle_prune(body.vertices, rays)
        assert _prune_vertices(body.vertices, rays) == expected
        hull = closed_convex_hull(body)
        assert (hull.vertices, hull.rays) == (expected, rays)
        assert irredundant_vertices(body).points == expected
        if not rays:
            assert closed_convex_hull(PointSet(body.vertices)).vertices == expected

    def test_line_keeps_the_last_vertex_of_each_class(self):
        # Vertices that differ by a multiple of the line E1 are one class.
        body = Polyhedron([ZERO, pt(2, 3), pt(1), pt(0, -1), pt(2), pt(1, 1)], rays=[E1, -E1])
        assert closed_convex_hull(body).vertices == (pt(0, -1), pt(2))
        assert oracle_prune(body.vertices, body.rays) == (pt(0, -1), pt(2))

    def test_tie_along_a_ray_keeps_the_face_vertex(self):
        # c = (0, 1) ties pt(0, 1) and pt(3, 1) along the ray E0.
        body = Polyhedron([pt(3, 1), ZERO, pt(0, 1), pt(1, F(1, 2))], rays=[E0])
        assert closed_convex_hull(body).vertices == (ZERO, pt(0, 1))


# -- integer separation and levels against the Fraction pairing ---------------


def pair_separates(c, target, points, rays):
    """The separation verdict as ``_combination_feasible`` made it with ``pair``."""
    level = pair(c, target)
    return not (any(pair(c, p) >= level for p in points or [ZERO]) or any(pair(c, r) > 0 for r in rays))


def pair_maximizers(c, vectors, indices):
    """The tie set as ``_prune_vertices`` made it with one ``Fraction`` level per vector."""
    level = {j: pair(c, vectors[j]) for j in indices}
    top = max(level.values())
    return [j for j, value in level.items() if value == top]


@st.composite
def pairing_inputs(draw):
    """A functional, a target, points and rays, with ties between levels common."""
    dim = draw(st.integers(min_value=1, max_value=3))
    values = draw(st.sampled_from([GRID, SMALL, st.fractions(min_value=-2, max_value=2, max_denominator=12)]))
    vectors = st.lists(values, min_size=dim, max_size=dim).map(lambda xs: SparseVec(enumerate(xs)))
    c, target = draw(vectors), draw(vectors)
    points = draw(st.lists(vectors, max_size=4))
    if points and draw(st.booleans()):
        points.append(target + draw(st.sampled_from(points)) - draw(st.sampled_from(points)))
    return c, target, points, draw(st.lists(vectors, max_size=2))


class TestIntegerPairingDifferential:
    @given(case=pairing_inputs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_separation_and_maximizers_match_the_fraction_pairing(self, case, data):
        c, target, points, rays = case
        assert _separates(c, target, points, rays) == pair_separates(c, target, points, rays)
        vectors = [target, *points, *rays]
        indices = data.draw(st.permutations(range(len(vectors))))[: data.draw(st.integers(1, len(vectors)))]
        assert _maximizers(c, vectors, indices) == pair_maximizers(c, vectors, indices)


def _circle(count):
    """``count`` rational points on the unit circle, by stereographic projection."""
    out = []
    for t in (F(k, 3) for k in range(-(count // 2), count - count // 2)):
        out.append(pt((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)))
    return out


class TestOutputSensitivity:
    @pytest.mark.parametrize("extreme", [3, 8, 12])
    def test_lps_grow_with_the_extreme_points(self, monkeypatch, extreme):
        corners = _circle(extreme)
        inner = [(a + b.scale(2) + c).scale(F(1, 4)) for a, b, c in zip(corners, corners[1:], corners[2:])]
        inner += [(a + b).scale(F(1, 2)) for a, b in zip(corners, corners[1:])]
        cloud = inner[: len(inner) // 2] + corners + inner[len(inner) // 2 :]
        real, columns = geometry.solve_bounded, []

        def spy(variables, objective, rows, **kwargs):
            columns.append(sum(1 for v in variables if v[0] == "a"))
            return real(variables, objective, rows, **kwargs)

        monkeypatch.setattr(geometry, "solve_bounded", spy)
        hull = closed_convex_hull(PointSet(cloud))
        assert set(hull.vertices) == set(corners)
        assert len(columns) <= len(cloud) + extreme
        assert max(columns) <= extreme
