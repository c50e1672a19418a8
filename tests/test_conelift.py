from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affsel import conelift
from affsel.cli import build_parser
from affsel.conelift import (
    FeatureMapError,
    LadderError,
    LinearConfig,
    _attempt,
    _lift,
    _read_rays,
    feature_select,
    lift_to_cone,
    power_ladder,
    push_through_features,
    select_linear,
)
from affsel.hyperplane import Instance, SelectConfig, extend_domain
from affsel.instances import gen_meager_linear
from affsel.numerics import Point, Scalar
from affsel.oracle import check_domination, fm_feasible, verify_domination
from conftest import make_instance
from reference_geometry import reference_lift


def exact(v):
    return Scalar(Fraction(v))


SMALL = LinearConfig(lambda_max=2 ** 6, doublings=1)


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
        idx = lifted.ys.index_of(Point.of(2).raw())
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
                    if w.raw() == tuple(lam * c for c in z.raw()):
                        hz = lifted.values["x0"][i]
                        hw = lifted.values["x0"][j]
                        assert hw.value == hz.value * lam

    def test_origin_contribution(self):
        inst = make_instance(1, [Point.of(0), Point.of(1)], {"x0": [exact(3), exact(1)]})
        lifted = lift_to_cone(inst, (1, 2)).instance
        idx = lifted.ys.index_of(Point.of(0).raw())
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
        lam = sel.lambda_max
        c = sel.cone_c["x0"].value
        eps = sel.epsilon["x0"].value
        assert eps == max(c, 0) / lam
        assert eps * lam >= c
        if c >= 0:
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

    def test_affine_settings_are_a_constant(self):
        # the lifted selection always runs the tight base; affine selection
        # keeps the novikov default
        assert "select" not in {f.name for f in fields(LinearConfig)}
        assert LinearConfig.select == SMALL.select == SelectConfig(base="tight")
        assert SelectConfig().base == "novikov"
        assert build_parser().parse_args(["select", "affine", "f.json"]).base == "novikov"

    def test_linear_section_is_exact_at_the_first_attempt(self):
        # f = 2y: the tight base keeps C = 0, so the section gets its own
        # slope with no residual and no retry
        inst = make_instance(1, [Point.of(-1), Point.of(2)],
                             {"x0": [exact(-2), exact(4)]})
        sel = select_linear(inst, SMALL)
        assert sel.a["x0"] == Point.of(2)
        assert sel.epsilon["x0"] == exact(0)
        assert sel.exact["x0"]
        assert len(sel.attempts) == 1

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


@st.composite
def lift_cases(draw):
    """An n = 1..3 instance and a ladder: (1,), (1, lam) or the power ladder
    up to lam.  Several points share a ray, some at lam (or, on the power
    ladder, a power of two) times another, so that copies land on sample
    points; the origin is present or absent, and values have either sign."""
    n = draw(st.integers(1, 3))
    lam = draw(st.sampled_from((2, 3, 2 ** 20, 2 ** 23)))
    ladder = draw(st.sampled_from(((1,), (1, lam), power_ladder(2 ** draw(st.integers(0, 6))))))
    coords = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                      min_size=n, max_size=n)
    ray = draw(coords.filter(any))
    points = {(Fraction(0),) * n} if draw(st.booleans()) else set()
    for s in draw(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
                           min_size=1, max_size=3, unique=True)):
        points.add(tuple(s * c for c in ray))
        if draw(st.booleans()):
            rung = draw(st.sampled_from(ladder))
            points.add(tuple(rung * s * c for c in ray))
    points.update(map(tuple, draw(st.lists(coords, max_size=4))))
    values = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    xs = ("x0", "x1")[:draw(st.integers(1, 2))]
    inst = Instance.build(n, xs, sorted(points), {x: [draw(values) for _ in points] for x in xs})
    return inst, ladder


class TestIntegerLift:
    @given(lift_cases())
    def test_equals_the_reference_lift(self, case):
        inst, ladder = case
        ref = reference_lift(inst, ladder)
        table, top = _lift(_read_rays(inst), ladder), extend_domain(ref)
        assert (table.dim, tuple(table.points), table.values) == (top.dim, top.points, top.values)
        assert lift_to_cone(inst, ladder).instance == ref

    def test_origin_copies_merge_by_max(self):
        inst = make_instance(1, [Point.of(0), Point.of(1)],
                             {"x0": [exact(3), exact(1)], "x1": [exact(-3), exact(1)]})
        table = _lift(_read_rays(inst), (1, 4))
        assert table.points == [(0, 1), (1, 1), (4, 1)]
        assert table.values == {"x0": ((12, 1), (1, 1), (4, 1)),
                                "x1": ((-3, 1), (1, 1), (4, 1))}

    @pytest.mark.parametrize("lambda_max", [0, -1])
    def test_selection_checks_the_ladder(self, lambda_max):
        inst = make_instance(1, [Point.of(1)], {"x0": [exact(1)]})
        with pytest.raises(LadderError):
            select_linear(inst, LinearConfig(lambda_max=lambda_max))

    def test_rays_are_read_once_per_selection(self, monkeypatch):
        calls = []
        read = conelift._read_rays

        def counted(inst):
            calls.append(None)
            return read(inst)

        monkeypatch.setattr(conelift, "_read_rays", counted)
        inst = make_instance(1, [Point.of(0), Point.of(1)], {"x0": [exact(1), exact(0)]})
        sel = select_linear(inst, LinearConfig(lambda_max=2 ** 4, doublings=2))
        assert len(sel.attempts) == 3
        assert len(calls) == 1


class TestTwoRungLift:
    @given(cone_instances(),
           st.one_of(st.sampled_from((1, 2, 3, 10)), st.integers(0, 20).map(lambda k: 2 ** k)))
    def test_dominates_every_rung_of_the_power_ladder(self, inst, lambda_max):
        # domination at lambda * y is linear in lambda, so the ends {1, lambda_max}
        # carry every constraint of the rungs between them
        a, _, exact_map, c = _attempt(_read_rays(inst), lambda_max, LinearConfig())
        full = lift_to_cone(inst, power_ladder(lambda_max)).instance
        report = check_domination("affine", full.xs,
                                  {x: [v.value.as_integer_ratio() for v in full.values[x]]
                                   for x in full.xs},
                                  {x: c[x].value for x in full.xs},
                                  {x: a[x].raw() for x in full.xs}, at=full.vectors)
        assert report.passed, report.failures[:1]
        for x in inst.xs:
            assert exact_map[x] == all(v.value <= a[x].dot(p).value
                                       for v, p in zip(inst.values[x], inst.ys.points))

    def test_top_level_holds_at_most_two_copies_of_the_sample(self):
        inst = make_instance(2, [Point.of(1, 0), Point.of(-1, 2), Point.of(0, -3)],
                             {"x0": [exact(1), exact(-2), exact(3)]})
        table = _lift(_read_rays(inst), (1, 2 ** 6))
        assert table.dim == 2
        assert len(table.points) <= 2 * len(inst.ys)


class TestFeatureSelect:
    def test_affine_recovery_via_appended_constant(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)], {"x0": [exact(0), exact(1)]})
        phi = {p: Point(list(p.coords) + [exact(1)]) for p in inst.ys.points}
        sel = feature_select(inst, phi, SMALL)
        assert sel.n == 2
        for j, p in enumerate(inst.ys.points):
            rhs = sel.a["x0"].dot(phi[p]).value + sel.epsilon["x0"].value
            assert inst.values["x0"][j].value <= rhs

    def test_injective_feature_map_matches_pushed_run(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)], {"x0": [exact(1), exact(-3)]})
        phi = {p: Point.of(2 * p.coords[0].value) for p in inst.ys.points}
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
            rhs = sel.a["x0"].dot(z0).value + sel.epsilon["x0"].value
            assert inst.values["x0"][j].value <= rhs

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

    def test_exact_flags_agree_with_the_oracle_on_generated_files(self):
        # exact[x] implies a feasible homogeneous system, and an infeasible one
        # allows no exact attempt.  Odd sections are raised by 1 at one point,
        # which makes about half of them infeasible.
        exact_seen = infeasible_seen = 0
        for n, ny in [(1, 2), (1, 6), (2, 2), (2, 4), (2, 8), (3, 4), (3, 8)]:
            for seed in range(6):
                inst = gen_meager_linear(seed, n, 4, ny).to_instance()
                inst = make_instance(n, inst.ys.points, xs=inst.xs, rows={
                    x: tuple(Scalar(v.value + 1) if i % 2 and j == i % len(inst.ys) else v
                             for j, v in enumerate(inst.values[x]))
                    for i, x in enumerate(inst.xs)})
                sel = select_linear(inst, SMALL)
                fm = fm_feasible(inst.ys, inst.values, homogeneous=True)
                for x in inst.xs:
                    if sel.exact[x]:
                        assert fm[x].feasible, (n, ny, seed, x)
                    if not fm[x].feasible:
                        assert not any(a.exact[x] for a in sel.attempts), (n, ny, seed, x)
                    exact_seen += sel.exact[x]
                    infeasible_seen += not fm[x].feasible
        # both implications were put to the test
        assert exact_seen and infeasible_seen
