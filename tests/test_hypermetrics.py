import random
from fractions import Fraction
from math import inf
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fraction_simplex_oracle import solve_bounded as oracle_solve
from _scalar_oracle import _hausdorff_scalar as oracle_scalar
from weakstar import hypermetrics
from weakstar.errors import BadParameter, NotInNormalizingSet, UnboundedInput
from weakstar.geometry import (
    FinitePoints,
    Interval,
    PointSet,
    PolarSpec,
    Polyhedron,
    closed_convex_hull,
    membership,
    path_combine,
    support_value,
)
from weakstar.hypermetrics import (
    ClopenAnd,
    ClopenAtom,
    ClopenNot,
    ClopenOr,
    CylinderSpec,
    MetricConfig,
    clopen_eval,
    cylinder_bounded,
    distances_to_body,
    hausdorff_full,
    immeasurable_witness,
    metric_d,
    point_body_distance,
    pseudometric_dH,
    separating_direction,
)
from weakstar.numerics import SparseVec, _Simplex, l1_norm, pair

F = Fraction
ZERO = SparseVec.zero()
E0 = SparseVec.basis(0)
E1 = SparseVec.basis(1)


def dual(*coords):
    return SparseVec({k: F(c) for k, c in enumerate(coords)})


def ball_point(coords):
    """Scale an arbitrary point into the closed unit l1 ball."""
    v = SparseVec(dict(enumerate(coords)))
    n = l1_norm(v)
    return v if n <= 1 else v.scale(F(1) / n)


coordinate = st.fractions(min_value=-2, max_value=2, max_denominator=6)
coords3 = st.lists(coordinate, min_size=1, max_size=3)
ball_points = st.builds(ball_point, coords3)
ball_point_sets = st.lists(ball_points, min_size=1, max_size=4).map(PointSet)
functionals = st.builds(
    lambda cs: SparseVec(dict(enumerate(cs))),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=3),
)


class TestMetricConfig:
    def test_default_weights(self):
        cfg = MetricConfig()
        assert cfg.functional(1) == E0
        assert cfg.functional(3) == SparseVec.basis(2)
        # normalizer of a basis functional against the unit ball is 1
        assert cfg.weight(1) == F(1, 4)
        assert cfg.weight(2) == F(1, 8)

    def test_polytope_normalizer(self):
        k = Polyhedron([ZERO, E0.scale(32)])
        cfg = MetricConfig(normalizing_set=k)
        assert cfg.normalizer(E0) == 32
        assert cfg.weight(1) == F(1, 2) / 33

    def test_unbounded_normalizing_set_rejected(self):
        with pytest.raises(BadParameter):
            MetricConfig(normalizing_set=Polyhedron([ZERO], rays=[E0]))

    def test_coordinate_enumeration(self):
        cfg = MetricConfig()
        assert cfg.functional(10) == SparseVec.basis(9)
        assert cfg.term_indices(SparseVec.basis(9)) == [10]
        with pytest.raises(BadParameter):
            cfg.functional(0)

    def test_terms_past_the_nth_coordinate_are_bounded(self):
        # Each term of the metric sum on the normalizing set is at most
        # 2^(1-n), so the terms past the N-th coordinate add at most 2^(1-N).
        cfg, n_max = MetricConfig(), 4
        sigma, tau = SparseVec({0: F(1, 2), 10: F(1, 2)}), SparseVec({0: F(1, 2)})
        terms = {n: cfg.weight(n) * abs(pair(cfg.functional(n), sigma - tau)) for n in cfg.term_indices(sigma, tau)}
        tail = sum((t for n, t in terms.items() if n > n_max), F(0))
        assert metric_d(sigma, tau, cfg) == sum(terms.values())
        assert 0 < tail <= F(2) ** (1 - n_max)


class TestPseudometric:
    def test_unit_separation(self):
        assert pseudometric_dH(PointSet([ZERO]), PointSet([E0]), E0) == 1

    def test_reflexive(self):
        ps = PointSet([dual(1, 2), dual(-1, 0)])
        assert pseudometric_dH(ps, ps, dual(3, -1)) == 0

    def test_scaled_basis_singletons(self):
        for m in (0, 3, 5):
            big = PointSet([SparseVec.basis(m, 2**m)])
            assert pseudometric_dH(big, PointSet([ZERO]), SparseVec.basis(m)) == 2**m

    def test_interval_vs_interval(self):
        p = Polyhedron([ZERO, E0.scale(2)])
        q = Polyhedron([E0.scale(-1), E0])
        # images [0,2] and [-1,1]: both ends differ by 1
        assert pseudometric_dH(p, q, E0) == 1

    def test_infinite_when_one_side_escapes(self):
        p = Polyhedron([ZERO])
        q = Polyhedron([ZERO], rays=[E0])
        assert pseudometric_dH(p, q, E0) == inf
        assert pseudometric_dH(p, q, E1) == 0

    def test_both_escaping_same_way_is_finite(self):
        p = Polyhedron([ZERO], rays=[E0])
        q = Polyhedron([E0.scale(3)], rays=[E0])
        assert pseudometric_dH(p, q, E0) == 3

    def test_points_vs_interval_midpoint_candidates(self):
        # Image of the points is {0, 4}; against [0,4] the farthest interval
        # point is the midpoint 2.
        ps = PointSet([ZERO, E0.scale(4)])
        seg = Polyhedron([ZERO, E0.scale(4)])
        assert pseudometric_dH(ps, seg, E0) == 2

    def test_interval_clipping(self):
        ps = PointSet([ZERO, E0.scale(4)])
        seg = Polyhedron([E0.scale(3), E0.scale(4)])
        # points {0,4} vs interval [3,4]: excess of points = 3 (from 0);
        # interval side: candidates 3, 4 give distance 1, 0.
        assert pseudometric_dH(ps, seg, E0) == 3

    @given(a=ball_point_sets, b=ball_point_sets, c=ball_point_sets, f=functionals)
    @settings(max_examples=60, deadline=None)
    def test_pseudometric_axioms(self, a, b, c, f):
        dab = pseudometric_dH(a, b, f)
        assert dab == pseudometric_dH(b, a, f)
        assert pseudometric_dH(a, a, f) == 0
        assert dab <= pseudometric_dH(a, c, f) + pseudometric_dH(c, b, f)

    @given(a=ball_point_sets, b=ball_point_sets, f=functionals, alpha=st.fractions(min_value=-3, max_value=3, max_denominator=5))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, a, b, f, alpha):
        scaled = pseudometric_dH(a, b, f.scale(alpha))
        assert scaled == abs(alpha) * pseudometric_dH(a, b, f)

    @given(a=ball_point_sets, b=ball_point_sets, f=functionals)
    @settings(max_examples=50, deadline=None)
    def test_hull_contraction(self, a, b, f):
        coarse = pseudometric_dH(closed_convex_hull(a), closed_convex_hull(b), f)
        assert coarse <= pseudometric_dH(a, b, f)

    @given(a=ball_point_sets, b=ball_point_sets, f=functionals)
    @settings(max_examples=50, deadline=None)
    def test_convex_reduction_via_support_values(self, a, b, f):
        p, q = closed_convex_hull(a), closed_convex_hull(b)
        expected = max(
            abs(support_value(p, f) - support_value(q, f)),
            abs(support_value(p, -f) - support_value(q, -f)),
        )
        assert pseudometric_dH(p, q, f) == expected

    def test_path_blend_is_lipschitz(self):
        p = closed_convex_hull(PointSet([dual(0, 0), dual(1, 0), dual(0, 1)]))
        q = closed_convex_hull(PointSet([dual(-1, -1), dual(2, 1)]))
        a = dual(2, -1)
        bound = max(abs(pair(a, v - w)) for v in p.vertices for w in q.vertices)
        lams = [F(0), F(1, 4), F(1, 3), F(3, 4), F(1)]
        for l1 in lams:
            for l2 in lams:
                d = pseudometric_dH(path_combine(l1, p, q), path_combine(l2, p, q), a)
                assert d <= abs(l2 - l1) * bound


scalars = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@st.composite
def scalar_sets(draw):
    """A finite scalar set, or an interval whose ends may be infinite on either side."""
    if draw(st.booleans()):
        return FinitePoints(draw(st.lists(scalars, min_size=1, max_size=5)))
    lo, hi = sorted(draw(st.lists(scalars, min_size=2, max_size=2)))
    return Interval(-inf if draw(st.booleans()) else lo, inf if draw(st.booleans()) else hi)


class TestScalarDifferential:
    @given(first=scalar_sets(), second=scalar_sets())
    @settings(max_examples=400, deadline=None)
    def test_excess_rule_matches_the_case_helpers(self, first, second):
        got = hypermetrics._hausdorff_scalar(first, second)
        expected = oracle_scalar(first, second)
        assert got == expected
        assert type(got) is type(expected)


class TestMetricD:
    def test_zero_on_equal_points(self):
        sigma = dual(F(1, 3), F(-1, 4))
        assert metric_d(sigma, sigma) == 0

    def test_basis_point_to_origin(self):
        assert metric_d(E0, ZERO) == F(1, 4)

    def test_counterexample_normalizer(self):
        spikes = [SparseVec.basis(m, 2**m) for m in range(6)]
        k = Polyhedron([ZERO] + spikes)
        cfg = MetricConfig(normalizing_set=k)
        assert metric_d(spikes[5], ZERO, cfg) == F(1, 66)

    def test_point_outside_normalizing_set(self):
        with pytest.raises(NotInNormalizingSet):
            metric_d(E0.scale(2), ZERO)

    @given(s=ball_points, t=ball_points)
    @settings(max_examples=60, deadline=None)
    def test_dominated_by_l1(self, s, t):
        assert metric_d(s, t) <= l1_norm(s - t)

    @given(s=ball_points, t=ball_points, u=ball_points)
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, s, t, u):
        assert metric_d(s, t) == metric_d(t, s)
        assert (metric_d(s, t) == 0) == (s == t)
        assert metric_d(s, t) <= metric_d(s, u) + metric_d(u, t)


class TestHausdorffFull:
    def test_identical(self):
        p = Polyhedron([ZERO, E0])
        assert hausdorff_full(p, p) == 0

    def test_singletons(self):
        assert hausdorff_full(Polyhedron([ZERO]), Polyhedron([E0])) == F(1, 4)

    def test_segment_vs_point(self):
        seg = Polyhedron([ZERO, E0])
        assert hausdorff_full(seg, Polyhedron([ZERO])) == F(1, 4)

    def test_point_body_distance_matches_singleton_metric(self):
        sigma = dual(F(1, 2), F(1, 4))
        target = dual(0, F(-1, 2))
        assert point_body_distance(sigma, Polyhedron([target])) == metric_d(sigma, target)

    def test_point_body_distance_needs_the_normalizing_set(self):
        # Defined through metric_d, it has metric_d's precondition on both sides.
        with pytest.raises(NotInNormalizingSet):
            point_body_distance(E0.scale(5), Polyhedron([ZERO]))
        with pytest.raises(NotInNormalizingSet):
            point_body_distance(ZERO, Polyhedron([ZERO, E0.scale(5)]))
        cfg = MetricConfig(normalizing_set=Polyhedron([ZERO, E0.scale(5)]))
        assert point_body_distance(E0.scale(5), Polyhedron([ZERO]), cfg) == metric_d(E0.scale(5), ZERO, cfg)

    @given(
        points=st.lists(st.builds(ball_point, st.lists(coordinate, min_size=1, max_size=5)), max_size=4),
        b=ball_point_sets,
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_distances_equal_one_point_distances(self, points, b):
        # The batch adds columns for every point's support; that may not
        # change a value.
        body = closed_convex_hull(b)
        points += list(body.vertices[:1])
        assert distances_to_body(points, body, MetricConfig()) == [point_body_distance(p, body) for p in points]

    @given(
        points=st.lists(ball_points, min_size=1, max_size=4),
        b=ball_point_sets,
        cfg=st.sampled_from(
            [
                MetricConfig(),
                MetricConfig(PolarSpec(2)),
                MetricConfig(Polyhedron([SparseVec.basis(k, s) for k in range(3) for s in (1, -1)])),
            ]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_start_matches_the_textbook_distance_lp(self, points, b, cfg):
        # The textbook distance LP has right sides 0, a free z = zp - zm and a
        # column for every y_n in [-w_n, w_n]; the frozen oracle solves it.
        # The shifted LP must give the same values and build no artificial.
        body = closed_convex_hull(b)
        ns = cfg.term_indices(*points, *body.vertices)
        weights = {("y", n): cfg.weight(n) for n in ns}
        images = hypermetrics._images(ns, [*points, *body.vertices])

        def linear(img):
            return {**dict(zip(weights, img)), ("zp",): F(-1), ("zm",): F(1)}

        rows = [(linear(images[q]), "<=", F(0)) for q in body.vertices]
        lower = {y: -w for y, w in weights.items()}
        want = []
        for sigma in points:
            out = oracle_solve([*weights, ("zp",), ("zm",)], linear(images[sigma]), rows, lower=lower, upper=weights)
            want.append(out.value)

        builds = []
        build = _Simplex._build_tableau

        def spy(self):
            build(self)
            builds.append((self.first_art, self.ncols))

        with mock.patch.object(_Simplex, "_build_tableau", spy):
            assert distances_to_body(points, body, cfg) == want
        assert len(builds) == sum(sigma not in body.vertices for sigma in points)
        assert all(first_art == ncols for first_art, ncols in builds)

    @given(
        a=ball_point_sets,
        b=ball_point_sets,
        relation=st.sampled_from(["apart", "shared", "identical", "nested"]),
        cfg=st.sampled_from(
            [
                MetricConfig(),
                MetricConfig(PolarSpec(2)),
                MetricConfig(Polyhedron([SparseVec.basis(k, s) for k in range(3) for s in (1, -1)])),
            ]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_skipping_equals_every_distance_lp(self, a, b, relation, cfg):
        # hausdorff_full skips the vertices whose bound cannot raise the
        # maximum; the value must be that of solving every distance LP.
        first = closed_convex_hull(a)
        second = {
            "apart": closed_convex_hull(b),
            "shared": closed_convex_hull(PointSet(b.points + first.vertices[:1])),
            "identical": first,
            "nested": closed_convex_hull(PointSet(a.points + b.points)),
        }[relation]
        every = [*distances_to_body(first.vertices, second, cfg), *distances_to_body(second.vertices, first, cfg)]
        assert hausdorff_full(first, second, cfg) == max(F(0), *every)
        assert hausdorff_full(second, first, cfg) == max(F(0), *every)

    def test_nested_pair_skips_distance_lps(self, monkeypatch):
        inner = Polyhedron([dual(F(x, 4), F(y, 4)) for x in (1, -1) for y in (1, -1)])
        outer = Polyhedron([dual(F(x, 2), F(y, 2)) for x in (1, -1) for y in (1, -1)])
        solved = []
        counted = hypermetrics.solve_bounded

        def counting(*args, **kwargs):
            solved.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(hypermetrics, "solve_bounded", counting)
        # A corner of the outer square is 1/4 from the inner one in both
        # coordinates, weighted 1/4 and 1/8.
        assert hausdorff_full(outer, inner) == F(3, 32)
        assert len(solved) == 1
        assert hausdorff_full(inner, outer) == F(3, 32)
        assert len(solved) - 1 < len(inner.vertices) + len(outer.vertices)

    def test_rejects_rays(self):
        with pytest.raises(UnboundedInput):
            hausdorff_full(Polyhedron([ZERO], rays=[E0]), Polyhedron([ZERO]))

    def test_rejects_outside_normalizing_set(self):
        with pytest.raises(NotInNormalizingSet):
            hausdorff_full(Polyhedron([E0.scale(5)]), Polyhedron([ZERO]))

    @given(a=ball_point_sets, b=ball_point_sets)
    @settings(max_examples=40, deadline=None)
    def test_zero_iff_equal_hulls(self, a, b):
        p, q = closed_convex_hull(a), closed_convex_hull(b)
        d = hausdorff_full(p, q)
        assert (d == 0) == (set(p.vertices) == set(q.vertices))

    @given(a=ball_point_sets, b=ball_point_sets)
    @settings(max_examples=30, deadline=None)
    def test_dominates_weighted_pseudometrics(self, a, b):
        p, q = closed_convex_hull(a), closed_convex_hull(b)
        cfg = MetricConfig()
        full = hausdorff_full(p, q)
        coords = set()
        for v in p.vertices + q.vertices:
            coords.update(v.support)
        for k in sorted(coords):
            n = k + 1
            per_direction = pseudometric_dH(p, q, cfg.functional(n))
            assert per_direction <= 2**n * (1 + cfg.normalizer(cfg.functional(n))) * full


class TestSeparation:
    def test_distinct_singletons(self):
        a = separating_direction(Polyhedron([ZERO]), Polyhedron([E0]))
        assert a is not None
        assert pseudometric_dH(Polyhedron([ZERO]), Polyhedron([E0]), a) == 1

    def test_equal_hulls_give_none(self):
        square = [dual(0, 0), dual(1, 0), dual(0, 1), dual(1, 1)]
        p = Polyhedron(square)
        q = Polyhedron(square + [dual(F(1, 2), F(1, 2))])
        assert separating_direction(p, q) is None

    def test_triangle_vs_edge(self):
        tri = Polyhedron([dual(0, 0), dual(1, 0), dual(0, 1)])
        edge = Polyhedron([dual(0, 0), dual(1, 0)])
        a = separating_direction(tri, edge)
        assert a is not None
        assert pseudometric_dH(tri, edge, a) > 0

    @given(a=ball_point_sets, b=ball_point_sets)
    @settings(max_examples=40, deadline=None)
    def test_dichotomy(self, a, b):
        p, q = closed_convex_hull(a), closed_convex_hull(b)
        witness = separating_direction(p, q)
        if witness is None:
            assert all(membership(v, q) for v in p.vertices)
            assert all(membership(w, p) for w in q.vertices)
        else:
            assert pseudometric_dH(p, q, witness) > 0


class TestImmeasurable:
    def test_bounded_vs_ray(self):
        seg = Polyhedron([ZERO, E1])
        horn = Polyhedron([ZERO], rays=[E0])
        a = immeasurable_witness(seg, horn)
        assert a is not None
        assert pseudometric_dH(seg, horn, a) == inf

    def test_bounded_pairs_have_none(self):
        assert immeasurable_witness(Polyhedron([ZERO]), Polyhedron([E0, E1])) is None

    def test_equal_cones_different_vertices(self):
        p = Polyhedron([ZERO], rays=[E0, E1])
        q = Polyhedron([dual(3, 7)], rays=[E0 + E1, E0, E1])
        assert immeasurable_witness(p, q) is None
        rng = random.Random(7)
        for _ in range(20):
            a = SparseVec({k: F(rng.randint(-6, 6), rng.randint(1, 4)) for k in (0, 1)})
            assert pseudometric_dH(p, q, a) < inf

    def test_opposite_rays(self):
        p = Polyhedron([ZERO], rays=[E0])
        q = Polyhedron([ZERO], rays=[-E0])
        a = immeasurable_witness(p, q)
        assert a is not None
        assert pseudometric_dH(p, q, a) == inf


class TestClopen:
    def test_bounded_always_cylinder_bounded(self):
        p = Polyhedron([dual(1, 2), dual(-3, 0)])
        assert cylinder_bounded(p, CylinderSpec([E0, E1]))

    def test_ray_invisible_to_generator(self):
        p = Polyhedron([ZERO], rays=[E1])
        assert cylinder_bounded(p, CylinderSpec([E0]))
        assert not cylinder_bounded(p, CylinderSpec([E1]))

    def test_empty_cylinder_spec(self):
        p = Polyhedron([ZERO], rays=[E0, E1])
        assert clopen_eval(ClopenAtom(CylinderSpec()), p)

    def test_combined_formula(self):
        p = Polyhedron([ZERO], rays=[E1])
        formula = ClopenAnd(ClopenAtom(CylinderSpec([E0])), ClopenNot(ClopenAtom(CylinderSpec([E1]))))
        assert clopen_eval(formula, p)

    def test_de_morgan(self):
        atoms = [ClopenAtom(CylinderSpec([E0])), ClopenAtom(CylinderSpec([E1]))]
        bodies = [
            Polyhedron([ZERO]),
            Polyhedron([ZERO], rays=[E0]),
            Polyhedron([ZERO], rays=[E1]),
            Polyhedron([ZERO], rays=[E0, E1]),
        ]
        for p in bodies:
            lhs = clopen_eval(ClopenNot(ClopenAnd(*atoms)), p)
            rhs = clopen_eval(ClopenOr(*(ClopenNot(x) for x in atoms)), p)
            assert lhs == rhs
            lhs = clopen_eval(ClopenNot(ClopenOr(*atoms)), p)
            rhs = clopen_eval(ClopenAnd(*(ClopenNot(x) for x in atoms)), p)
            assert lhs == rhs
