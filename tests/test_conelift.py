from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affsel.conelift import (
    FeatureMapError,
    LadderError,
    LinearConfig,
    _attempt,
    feature_select,
    lift_to_cone,
    power_ladder,
    push_through_features,
    select_linear,
)
from affsel.hyperplane import Instance, SelectConfig
from affsel.numerics import Point, Scalar
from affsel.oracle import check_domination, fm_feasible, verify_domination


def exact(v):
    return Scalar(Fraction(v))


def make_instance(n, points, rows):
    return Instance.build(n, sorted(rows), points, rows)


SMALL = LinearConfig(lambda_max=2 ** 6, doublings=1, select=SelectConfig())


class TestPowerLadder:
    def test_default_shape(self):
        assert power_ladder(2 ** 5) == (1, 2, 4, 8, 16, 32)

    def test_non_power(self):
        assert power_ladder(10) == (1, 2, 4, 8, 10)

    def test_invalid(self):
        with pytest.raises(LadderError):
            power_ladder(0)


class TestLiftToCone:
    def test_identity_ladder(self):
        inst = make_instance(1, [Point.of(1), Point.of(-2)], {"x0": [exact(5), exact(1)]})
        cone = lift_to_cone(inst, (1,))
        assert cone.instance.ys == inst.ys
        assert cone.instance.values["x0"] == inst.values["x0"]

    def test_homogeneity_single_ray(self):
        inst = make_instance(1, [Point.of(1)], {"x0": [exact(5)]})
        lifted = lift_to_cone(inst, (1, 4)).instance
        assert [p.serialize() for p in lifted.ys.points] == [["1"], ["4"]]
        assert lifted.values["x0"] == (exact(5), exact(20))

    def test_ray_collision_takes_sup(self):
        inst = make_instance(1, [Point.of(1), Point.of(2)],
                             {"x0": [exact(3), exact(10)]})
        lifted = lift_to_cone(inst, (1, 2)).instance
        idx = lifted.ys.index_of(Point.of(2))
        assert lifted.values["x0"][idx] == exact(10)

    def test_homogeneity_across_sampled_pairs(self):
        inst = make_instance(2, [Point.of(1, 1), Point.of(2, 2), Point.of(-1, 3)],
                             {"x0": [exact(3), exact(4), exact(-2)]})
        lifted = lift_to_cone(inst, (1, 2, 4)).instance
        pts = list(lifted.ys.points)
        for i, z in enumerate(pts):
            for j, w in enumerate(pts):
                # collinear sampled pair w = lam * z with lam > 0
                for lam in (2, 4):
                    if w == z.scale(exact(lam)):
                        hz = lifted.values["x0"][i]
                        hw = lifted.values["x0"][j]
                        assert hw == hz * exact(lam)

    def test_origin_contribution(self):
        inst = make_instance(1, [Point.of(0), Point.of(1)], {"x0": [exact(3), exact(1)]})
        lifted = lift_to_cone(inst, (1, 2)).instance
        idx = lifted.ys.index_of(Point.of(0))
        assert lifted.values["x0"][idx] == exact(6)   # lambda_max * positive origin value

    def test_bad_ladders(self):
        inst = make_instance(1, [Point.of(1)], {"x0": [exact(0)]})
        with pytest.raises(LadderError):
            lift_to_cone(inst, (2, 4))
        with pytest.raises(LadderError):
            lift_to_cone(inst, (1, 0))


class TestSelectLinear:
    def test_certificate_and_residual_formula(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)],
                             {"x0": [exact(-2), exact(4)]})   # f = 2y
        sel = select_linear(inst, SMALL)
        assert verify_domination(inst, sel, kind="linear").passed
        lam = exact(sel.lambda_max)
        c = sel.cone_c["x0"]
        eps = sel.epsilon["x0"]
        assert eps == (c if c.value > 0 else exact(0)) / lam
        assert (eps * lam).value >= c.value
        if c.value >= 0:
            assert eps * lam == c
        # the instance itself is exactly linearly dominated
        assert fm_feasible(inst.ys, inst.values, homogeneous=True)["x0"].feasible

    def test_positive_origin_never_exact(self):
        inst = make_instance(1, [Point.of(0), Point.of(1)], {"x0": [exact(1), exact(0)]})
        sel = select_linear(inst, LinearConfig(lambda_max=2 ** 4, doublings=2))
        assert len(sel.attempts) == 3
        for attempt in sel.attempts:
            assert attempt.exact["x0"] is False
        assert verify_domination(inst, sel, kind="linear").passed
        assert sel.epsilon["x0"].value >= 1   # must cover f(x, 0) = 1

    def test_zero_function(self):
        inst = make_instance(1, [Point.of(-1), Point.of(1)], {"x0": [exact(0), exact(0)]})
        sel = select_linear(inst, SMALL)
        assert verify_domination(inst, sel, kind="linear").passed
        assert sel.epsilon["x0"].value >= 0

    def test_section_functoriality(self):
        row = [exact(-2), exact(4)]
        inst = make_instance(1, [Point.of(-1), Point.of(2)],
                             {"x0": row, "x1": [exact(0), exact(0)], "x2": row})
        sel = select_linear(inst, SMALL)
        assert sel.a["x0"] == sel.a["x2"]
        assert sel.epsilon["x0"] == sel.epsilon["x2"]
        assert sel.exact["x0"] == sel.exact["x2"]


@st.composite
def cone_instances(draw):
    """n = 1..3 instances with the origin, several points on one ray, a few
    other points, and values of either sign."""
    n = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    ray = draw(coords.filter(any))
    points = {(0,) * n}
    for k in draw(st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True)):
        points.add(tuple(k * c for c in ray))
    points.update(tuple(p) for p in draw(st.lists(coords, max_size=3)))
    points = [Point.of(*p) for p in sorted(points)]
    values = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    rows = {x: [Scalar(draw(values)) for _ in points]
            for x in ("x0", "x1")[:draw(st.integers(1, 2))]}
    return make_instance(n, points, rows)


class TestTwoRungLift:
    @given(cone_instances(),
           st.one_of(st.sampled_from((1, 2, 3, 10)), st.integers(0, 20).map(lambda k: 2 ** k)))
    def test_dominates_every_rung_of_the_power_ladder(self, inst, lambda_max):
        # domination at lambda * y is linear in lambda, so the ends {1, lambda_max}
        # carry every constraint of the rungs between them
        a, _, exact_map, c, _ = _attempt(inst, lambda_max, LinearConfig())
        full = lift_to_cone(inst, power_ladder(lambda_max)).instance
        report = check_domination("affine", full.xs, full.ys.points, full.values,
                                  {x: c[x].value for x in full.xs},
                                  {x: a[x].raw() for x in full.xs})
        assert report.passed, report.failures[:1]
        for x in inst.xs:
            assert exact_map[x] == all(v.value <= a[x].dot(p).value
                                       for v, p in zip(inst.values[x], inst.ys.points))

    def test_top_level_holds_at_most_two_copies_of_the_sample(self):
        inst = make_instance(2, [Point.of(1, 0), Point.of(-1, 2), Point.of(0, -3)],
                             {"x0": [exact(1), exact(-2), exact(3)]})
        *_, trace = _attempt(inst, 2 ** 6, LinearConfig())
        assert trace.levels[0].dim == 2
        assert trace.levels[0].n_points <= 2 * len(inst.ys)


class TestFeatureSelect:
    def test_affine_recovery_via_appended_constant(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)], {"x0": [exact(0), exact(1)]})
        phi = {p: Point(list(p.coords) + [exact(1)]) for p in inst.ys.points}
        sel = feature_select(inst, phi, SMALL)
        assert sel.n == 2
        for j, p in enumerate(inst.ys.points):
            rhs = sel.a["x0"].dot(phi[p]) + sel.epsilon["x0"]
            assert inst.values["x0"][j].le_bound(rhs)

    def test_injective_feature_map_matches_pushed_run(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)], {"x0": [exact(1), exact(-3)]})
        phi = {p: Point([p.coords[0] * exact(2)]) for p in inst.ys.points}
        pushed = push_through_features(inst, phi)
        assert select_linear(pushed, SMALL).serialize() == feature_select(inst, phi, SMALL).serialize()

    def test_constant_feature_map(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)], {"x0": [exact(1), exact(-3)]})
        z0 = Point.of(1)
        phi = {p: z0 for p in inst.ys.points}
        pushed = push_through_features(inst, phi)
        assert len(pushed.ys) == 1
        assert pushed.values["x0"] == (exact(1),)   # max over the preimage
        sel = feature_select(inst, phi, SMALL)
        for j, p in enumerate(inst.ys.points):
            rhs = sel.a["x0"].dot(z0) + sel.epsilon["x0"]
            assert inst.values["x0"][j].le_bound(rhs)

    def test_phi_not_total(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)], {"x0": [exact(1), exact(-3)]})
        with pytest.raises(FeatureMapError, match="not total"):
            feature_select(inst, {Point.of(-1): Point.of(0)}, SMALL)


class TestExactFlagSoundness:
    def test_exact_flag_implies_oracle_feasible(self):
        # non-positive hat section: A = 0-ish dominates with zero slack
        inst = make_instance(1, [Point.of(-1), Point.of(1)],
                             {"x0": [exact(-1), exact(-1)]})
        sel = select_linear(inst, SMALL)
        for x in inst.xs:
            if sel.exact[x]:
                assert fm_feasible(inst.ys, inst.values, homogeneous=True)[x].feasible
                for j, p in enumerate(inst.ys.points):
                    assert inst.values[x][j].value <= sel.a[x].dot(p).value
