from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, strategies as st

from affsel import subgradient
from affsel.hyperplane import Instance
from affsel.instances import gen_convex_sections
from affsel.numerics import AffselError, Point, Scalar, primitive
from affsel.oracle import fm_feasible, verify_subgradient_domination
from affsel.subgradient import (
    ConvexSectionInstance,
    ShiftGroup,
    NotNormalizedError,
    ShiftDomainError,
    SubgradientConfig,
    SubgradientSelector,
    convexity_violation,
    select_subgradient,
    shift_to_origin,
)
from conftest import make_instance


def exact(v):
    return Scalar(Fraction(v))


ABS = make_instance(1, [Point.of(-1), Point.of(0), Point.of(1)],
                    {"x0": [exact(1), exact(0), exact(1)]})


class TestShiftToOrigin:
    def test_identity(self):
        csi = ConvexSectionInstance(instance=ABS)
        sh = shift_to_origin(csi)
        inst = sh.groups[0].instance
        assert inst.ys == ABS.ys
        assert inst.values["x0"] == ABS.values["x0"]

    def test_arithmetic_shift(self):
        inst = make_instance(1, [Point.of(0), Point.of(1)], {"x0": [exact(0), exact(2)]})
        sh = shift_to_origin(ConvexSectionInstance(instance=inst, y0={"x0": Point.of(1)}))
        g = sh.groups[0].instance
        assert [p.serialize() for p in g.ys.points] == [["-1"], ["0"]]
        assert g.values["x0"] == (exact(-2), exact(0))

    def test_origin_value_always_zero(self):
        inst = make_instance(1, [Point.of(2), Point.of(5)], {"x0": [exact(7), exact(11)]})
        sh = shift_to_origin(ConvexSectionInstance(instance=inst, y0={"x0": Point.of(5)}))
        g = sh.groups[0].instance
        assert g.values["x0"][g.ys.index_of(Point.of(0).raw())] == exact(0)

    def test_base_point_missing(self):
        inst = make_instance(1, [Point.of(0)], {"x0": [exact(0)]})
        with pytest.raises(ShiftDomainError):
            shift_to_origin(ConvexSectionInstance(instance=inst, y0={"x0": Point.of(3)}))

    def test_heterogeneous_base_points_group(self):
        inst = make_instance(1, [Point.of(0), Point.of(1), Point.of(2)],
                             {"x0": [exact(0), exact(1), exact(2)],
                              "x1": [exact(-1), exact(0), exact(1)],
                              "x2": [exact(3), exact(4), exact(5)]})
        sh = shift_to_origin(ConvexSectionInstance(
            instance=inst, y0={"x0": Point.of(0), "x1": Point.of(1), "x2": Point.of(0)}))
        # x0 and x2 share a shifted shape; x1 has a translated domain of its own
        by_xs = {g.xs: g for g in sh.groups}
        assert set(by_xs) == {("x0", "x2"), ("x1",)}
        g01 = by_xs[("x0", "x2")].instance
        assert [p.serialize() for p in g01.ys.points] == [["0"], ["1"], ["2"]]
        assert g01.values["x0"] == g01.values["x2"]


def reference_shift_to_origin(csi):
    """The shift shift_to_origin made before it shifted once per base point:
    every section shifted and sorted on its own, grouped by shifted points and
    values, each group canonicalized by Instance.build."""
    inst = csi.instance
    groups, order = {}, []
    for x in inst.xs:
        base = csi.base_point(x).raw()
        j0 = inst.ys.index_of(base)
        if j0 is None:
            raise ShiftDomainError(f"base point of x={x} is not a sample point")
        g0 = inst.values[x][j0].value
        shifted = sorted((tuple(c - b for c, b in zip(p.raw(), base)), v.value - g0)
                         for p, v in zip(inst.ys.points, inst.values[x]))
        key = tuple(shifted)
        if key not in groups:
            groups[key] = [shifted, []]
            order.append(key)
        groups[key][1].append(x)
    out = []
    for key in order:
        shifted, xs = groups[key]
        rows = {x: [v for _, v in shifted] for x in xs}
        out.append((tuple(xs), Instance.build(inst.n, xs, [p for p, _ in shifted], rows)))
    return out


def assert_same_groups(csi):
    got, want = shift_to_origin(csi).groups, reference_shift_to_origin(csi)
    assert [g.xs for g in got] == [xs for xs, _ in want]
    for g, (_, w) in zip(got, want):
        # the integer rows and vectors the oracle reads, before the view is built
        for x in g.xs:
            assert g.pairs == tuple(v.value.as_integer_ratio() for v in w.values[x])
        assert g.vectors == tuple(primitive(p.raw()) for p in w.ys.points)
        assert g.vectors == tuple(primitive(p.raw()) for p in g.instance.ys.points)
        assert g.instance.n == w.n and g.instance.xs == w.xs
        assert g.instance.ys == w.ys
        assert {x: tuple(v) for x, v in g.instance.values.items()} == dict(w.values)


class TestShiftAgainstReference:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_shifted_generated_files(self, n):
        for seed in range(4):
            for shifted in (False, True):
                doc = gen_convex_sections(seed, n, 5, 7, k=2, shifted=shifted)
                assert_same_groups(ConvexSectionInstance(instance=doc.to_instance(),
                                                         y0=doc.y0_table()))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_base_points(self, seed):
        doc = gen_convex_sections(seed, 2, 6, 8, k=3, shifted=True)
        inst = doc.to_instance()
        points = inst.ys.points
        # two sections per base point, three base points
        y0 = {x: points[2 * (i % 3)] for i, x in enumerate(inst.xs)}
        assert_same_groups(ConvexSectionInstance(instance=inst, y0=y0))

    def test_equal_shifted_values_under_different_bases(self):
        # both shift to the values (0, 0, 5), but on the samples {0, 1, 2}
        # and {-1, 0, 1}: two groups
        inst = make_instance(1, [Point.of(0), Point.of(1), Point.of(2)],
                             {"x0": [exact(0), exact(0), exact(5)],
                              "x1": [exact(3), exact(3), exact(8)]})
        csi = ConvexSectionInstance(instance=inst, y0={"x0": Point.of(0), "x1": Point.of(1)})
        assert_same_groups(csi)
        groups = shift_to_origin(csi).groups
        assert [g.xs for g in groups] == [("x0",), ("x1",)]
        assert groups[0].instance.values["x0"] == groups[1].instance.values["x1"]
        assert groups[0].instance.ys != groups[1].instance.ys


def refuse_instance(monkeypatch):
    def refused(group):
        raise AssertionError("the exact path read a group's instance")
    monkeypatch.setattr(ShiftGroup, "instance", property(refused))


class TestIntegerPath:
    """The selection and the check run on each group's integer rows and
    vectors alone, convex or not; the Instance view is built only when a
    caller reads it."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_select_and_verify_never_read_the_view(self, n, monkeypatch):
        for seed in range(3):
            for shifted in (False, True):
                doc = gen_convex_sections(seed, n, 4, 7, k=2, shifted=shifted)
                csi = ConvexSectionInstance(instance=doc.to_instance(), y0=doc.y0_table())
                want = select_subgradient(csi)
                with monkeypatch.context() as m:
                    refuse_instance(m)
                    sel = select_subgradient(csi)
                    assert verify_subgradient_domination(shift_to_origin(csi).groups,
                                                         sel).passed
                assert sel.serialize() == want.serialize()

    def test_a_failure_reads_the_view_to_name_its_point(self):
        csi = ConvexSectionInstance(instance=ABS, y0={"x0": Point.of(1)})
        sel = SubgradientSelector(xs=("x0",), p={"x0": Point.of(-3)},
                                  epsilon={"x0": exact(0)})
        # shifted to {-2, -1, 0} with values (0, -1, 0): -3 . -2 = 6 > 0
        rep = verify_subgradient_domination(shift_to_origin(csi).groups, sel)
        assert rep.failures == [("x0", Point.of(-2), exact(-6)), ("x0", Point.of(-1), exact(-4))]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_the_least_epsilon_never_reads_the_view(self, n, monkeypatch):
        # the generated files negated: concave sections, with no subgradient
        # where the sample surrounds the origin
        for seed in range(3):
            doc = gen_convex_sections(seed, n, 4, 12, k=2)
            inst = doc.to_instance()
            negated = Instance(n=n, xs=inst.xs, ys=inst.ys, pairs={
                x: tuple([(-p, q) for p, q in row]) for x, row in inst.pairs.items()})
            csi = ConvexSectionInstance(instance=negated)
            want = select_subgradient(csi)
            with monkeypatch.context() as m:
                refuse_instance(m)
                sel = select_subgradient(csi)
                assert verify_subgradient_domination(shift_to_origin(csi).groups, sel).passed
            assert sel.serialize() == want.serialize()
            if n:
                assert any(e.value > 0 for e in sel.epsilon.values())

    def test_the_origin_base_reuses_the_sample_and_row(self):
        (group,) = shift_to_origin(ConvexSectionInstance(instance=ABS)).groups
        assert group.instance.ys is ABS.ys
        assert group.pairs is ABS.pairs["x0"]


class TestSelectSubgradient:
    def test_absolute_value(self):
        sel = select_subgradient(ConvexSectionInstance(instance=ABS))
        p = sel.p["x0"].coords[0].value
        assert -1 <= p <= 1
        assert sel.epsilon["x0"] == exact(0)
        for j, y in enumerate(ABS.ys.points):
            assert (sel.p["x0"].dot(y)).value <= ABS.values["x0"][j].value

    def test_forced_linear_slope(self):
        pts = [Point.of(1, 0), Point.of(-1, 0), Point.of(0, 1), Point.of(0, -1),
               Point.of(0, 0)]
        a = (Fraction(3), Fraction(-2))
        rows = {"x0": [exact(a[0] * p.coords[0].value + a[1] * p.coords[1].value)
                       for p in pts]}
        sel = select_subgradient(ConvexSectionInstance(instance=make_instance(2, pts, rows)))
        assert sel.p["x0"] == Point.of(3, -2)

    def test_generated_instances_zero_slack(self):
        for seed in range(5):
            doc = gen_convex_sections(seed, 2, 3, 6, k=3)
            inst = doc.to_instance()
            sel = select_subgradient(ConvexSectionInstance(instance=inst))
            for x in inst.xs:
                assert sel.epsilon[x] == exact(0)
                for j, y in enumerate(inst.ys.points):
                    assert sel.p[x].dot(y).value <= inst.values[x][j].value

    def test_shift_coherence_bitwise(self):
        plain = gen_convex_sections(9, 2, 3, 5, k=2)
        shifted = gen_convex_sections(9, 2, 3, 5, k=2, shifted=True)
        a = select_subgradient(ConvexSectionInstance(instance=plain.to_instance()))
        b = select_subgradient(
            ConvexSectionInstance(instance=shifted.to_instance(), y0=shifted.y0_table()),
            shift=True)
        assert a.serialize() == b.serialize()

    def test_not_normalized(self):
        inst = make_instance(1, [Point.of(0), Point.of(1)], {"x0": [exact(1), exact(0)]})
        with pytest.raises(NotNormalizedError, match="not normalized"):
            select_subgradient(ConvexSectionInstance(instance=inst))

    def test_origin_missing(self):
        inst = make_instance(1, [Point.of(1)], {"x0": [exact(0)]})
        with pytest.raises(NotNormalizedError):
            select_subgradient(ConvexSectionInstance(instance=inst))

    def test_generated_files_dominate_with_zero_epsilon(self):
        # seeded convex files at n = 1..3, with and without base points: the
        # selection dominates on the shifted groups and, unshifted, on the
        # file's own sample, with no residual
        files = [(21, 1, 2, 5, 2, False)] + [
            (seed, n, 3, ny, 3, shifted)
            for n, ny in ((1, 6), (2, 10), (3, 10)) for seed in (1, 2, 3)
            for shifted in (False, True)]
        for seed, n, nx, ny, k, shifted in files:
            doc = gen_convex_sections(seed, n, nx, ny, k, shifted=shifted)
            inst = doc.to_instance()
            csi = ConvexSectionInstance(instance=inst, y0=doc.y0_table())
            sel = select_subgradient(csi)
            case = (seed, n, shifted)
            assert verify_subgradient_domination(shift_to_origin(csi).groups, sel).passed, case
            for x in inst.xs:
                assert sel.epsilon[x].value == 0, (case, x)
                if not shifted:
                    for j, y in enumerate(inst.ys.points):
                        assert sel.p[x].dot(y).value <= inst.values[x][j].value, (case, x)

    def test_functoriality(self):
        row = [exact(1), exact(0), exact(1)]
        inst = make_instance(1, [Point.of(-1), Point.of(0), Point.of(1)],
                             {"x0": row, "x1": [exact(2), exact(0), exact(2)], "x2": row})
        sel = select_subgradient(ConvexSectionInstance(instance=inst))
        assert sel.p["x0"] == sel.p["x2"]
        assert sel.epsilon["x0"] == sel.epsilon["x2"]

    def test_one_system_per_group(self, monkeypatch):
        calls = []
        real = subgradient.solve_rows
        row = [exact(1), exact(0), exact(1)]
        inst = make_instance(1, [Point.of(-1), Point.of(0), Point.of(1)],
                             {"x0": row, "x1": [exact(2), exact(0), exact(2)], "x2": row})
        # each call names the first section whose row it solves
        first = {}
        for x in inst.xs:
            first.setdefault(tuple(v.value.as_integer_ratio() for v in inst.values[x]), x)

        def counting(at, pairs, width, negate=False):
            calls.append((first[tuple(pairs)],))
            return real(at, pairs, width, negate)

        monkeypatch.setattr(subgradient, "solve_rows", counting)
        select_subgradient(ConvexSectionInstance(instance=inst))
        # x0 and x2 form one group: one call, for one section, per group
        assert calls == [("x0",), ("x1",)]

    def test_concave_group_shares_its_least_epsilon(self):
        # concave at the origin: no p has p.y <= g(y) on both sides, and
        # p = 0 with epsilon = 1 is the least residual
        row = [exact(-1), exact(0), exact(-1)]
        inst = make_instance(1, [Point.of(-1), Point.of(0), Point.of(1)],
                             {"x0": row, "x1": [exact(1), exact(0), exact(1)], "x2": row})
        sel = select_subgradient(ConvexSectionInstance(instance=inst))
        assert sel.p["x0"] == sel.p["x2"] == Point.of(0)
        assert sel.epsilon["x0"] == sel.epsilon["x2"] == exact(1)
        assert sel.epsilon["x1"] == exact(0)


COORD = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def normalized_sections(draw):
    """One to three sections at n = 0..3 on one sample holding the origin,
    each zero there: the max of a few drawn slopes (convex) or drawn values,
    mostly negative, so that many sections have no subgradient."""
    n = draw(st.integers(0, 3))
    points = draw(st.lists(st.tuples(*[COORD] * n), max_size=10, unique=True))
    points = sorted(set(points) | {(Fraction(0),) * n})
    xs = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    rows = {}
    for x in xs:
        if draw(st.booleans()):
            slopes = draw(st.lists(st.tuples(*[COORD] * n), min_size=1, max_size=3))
            rows[x] = [max(sum(map(mul, s, y)) for s in slopes) for y in points]
        else:
            rows[x] = [draw(st.builds(Fraction, st.integers(-9, 3), st.sampled_from([1, 2, 4])))
                       if any(y) else Fraction(0) for y in points]
    return Instance.build(n, xs, points, rows)


def excess(p, inst, x):
    """max over the sample of p.y - g(x, y): the least epsilon p admits."""
    return max(sum(map(mul, p, y.raw())) - v.value
               for y, v in zip(inst.ys.points, inst.values[x]))


class TestLeastEpsilon:
    """Where a section has no subgradient on the sample, epsilon is the least
    any p reaches, min over p of max over y of p.y - g(y); where it has one,
    epsilon is 0 and p the oracle's witness."""

    @given(normalized_sections(), st.data())
    def test_least_epsilon(self, inst, data):
        csi = ConvexSectionInstance(instance=inst)
        sel = select_subgradient(csi)
        assert verify_subgradient_domination(shift_to_origin(csi).groups, sel).passed
        plain = fm_feasible(inst.ys, {x: [-v for v in row] for x, row in inst.values.items()},
                            homogeneous=True)
        for x in inst.xs:
            eps, p = sel.epsilon[x].value, sel.p[x].raw()
            if plain[x].feasible:
                assert eps == 0
                assert p == tuple(-c.value for c in plain[x].witness)
            else:
                assert eps > 0
            # p reaches its epsilon, and no drawn p does better
            assert excess(p, inst, x) == eps
            other = data.draw(st.tuples(*[COORD] * inst.n))
            assert excess(other, inst, x) >= eps
            if inst.n == 1:
                # the excess is convex and piecewise linear in p: its least
                # value is at a crossing of two of its lines, or 0 at p = 0
                ys = [y.raw()[0] for y in inst.ys.points]
                gs = [v.value for v in inst.values[x]]
                crossings = [(gi - gj) / (yi - yj) for yi, gi in zip(ys, gs)
                             for yj, gj in zip(ys, gs) if yi != yj]
                assert eps == min(excess((c,), inst, x) for c in [Fraction(0), *crossings])

    def test_concave_at_the_origin(self):
        # values -1, 0, -1, -3 at -1, 0, 1, 2: the excess max(-p + 1, 0, p + 1,
        # 2p + 3) is least where -p + 1 = 2p + 3
        inst = make_instance(1, [Point.of(-1), Point.of(0), Point.of(1), Point.of(2)],
                             {"x0": [exact(-1), exact(0), exact(-1), exact(-3)]})
        sel = select_subgradient(ConvexSectionInstance(instance=inst))
        assert sel.p["x0"] == Point.of(Fraction(-2, 3))
        assert sel.epsilon["x0"] == exact(Fraction(5, 3))


def one_dim(values, coords=(-1, 0, 1)):
    return make_instance(1, [Point.of(c) for c in coords], {"x0": [exact(v) for v in values]})


def replays(inst, violation):
    """The certificate of a convexity violation, checked in Fractions: positive
    weights summing to 1 whose points average to the point and whose values
    to less than the value there, each point and value read from the
    instance."""
    x, y, value, terms = violation
    table = {p.raw(): v.value for p, v in zip(inst.ys.points, inst.values[x])}
    assert table[y] == value
    assert all(w > 0 and table[p] == v for w, p, v in terms)
    assert sum(w for w, _, _ in terms) == 1
    assert tuple(sum(w * p[i] for w, p, _ in terms) for i in range(inst.n)) == y
    assert sum(w * v for w, _, v in terms) < value


def slopes_never_decrease(coords, values):
    pts = sorted(zip(coords, values))
    slopes = [(g1 - g0) / (y1 - y0) for (y0, g0), (y1, g1) in zip(pts, pts[1:])]
    return all(a <= b for a, b in zip(slopes, slopes[1:]))


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


class TestConvexityCheck:
    def test_planted_instances_pass(self):
        doc = gen_convex_sections(4, 1, 2, 7, k=3)
        inst = doc.to_instance()
        assert convexity_violation(inst, inst.xs) is None
        sel = select_subgradient(ConvexSectionInstance(instance=inst),
                                 SubgradientConfig(check_convexity=True))
        assert sel.epsilon["x0"] == exact(0)

    def test_violation_detected(self):
        inst = one_dim([0, 5, 0])
        assert convexity_violation(inst, inst.xs) == (
            "x0", (0,), 5, [(Fraction(1, 2), (-1,), 0), (Fraction(1, 2), (1,), 0)])

    def test_violation_raises_with_flag(self):
        with pytest.raises(AffselError, match=r"^convexity fails for x=x0: value 0 at \(0\) "
                           r"exceeds -5/2, the average of 1/2 at \(-1\), 1/2 at \(1\)$"):
            select_subgradient(ConvexSectionInstance(instance=one_dim([0, 0, -5])),
                               SubgradientConfig(check_convexity=True))

    def test_no_subgradient_raises_with_flag(self):
        # concave at the origin, which is no midpoint of two sample points;
        # without the flag it gets its least epsilon
        inst = one_dim([-1, 0, -1], coords=(-1, 0, 2))
        with pytest.raises(AffselError, match=r"^convexity fails for x=x0: value 0 at \(0\) "
                           r"exceeds -1, the average of 2/3 at \(-1\), 1/3 at \(2\)$"):
            select_subgradient(ConvexSectionInstance(instance=inst),
                               SubgradientConfig(check_convexity=True))
        assert select_subgradient(ConvexSectionInstance(instance=inst)).epsilon["x0"].value > 0

    def test_a_point_off_the_base_without_a_subgradient(self):
        # no midpoint in the sample but 0, which has a subgradient; 1 has none:
        # 1 = 3/5 (-1) + 2/5 (4), and 3/5 g(-1) + 2/5 g(4) = 4/5 < g(1)
        inst = one_dim([1, 0, 1, Fraction(1, 2)], coords=(-1, 0, 1, 4))
        violation = convexity_violation(inst, inst.xs)
        assert violation == ("x0", (1,), 1, [(Fraction(3, 5), (-1,), 1),
                                             (Fraction(2, 5), (4,), Fraction(1, 2))])
        replays(inst, violation)

    @given(st.lists(small, min_size=1, max_size=7, unique=True), st.data())
    def test_agrees_with_nondecreasing_slopes_at_n1(self, coords, data):
        values = data.draw(st.lists(small, min_size=len(coords), max_size=len(coords)))
        inst = one_dim(values, coords)
        violation = convexity_violation(inst, inst.xs)
        assert (violation is None) == slopes_never_decrease(coords, values)
        if violation is not None:
            replays(inst, violation)

    @given(st.integers(1, 3), st.data())
    def test_certificate_replays(self, n, data):
        coords = st.tuples(*[st.integers(-2, 2)] * n)
        points = data.draw(st.lists(coords, min_size=1, max_size=7, unique=True))
        xs = ("x0", "x1")
        inst = Instance.build(n, xs, points, {x: data.draw(st.lists(
            small, min_size=len(points), max_size=len(points))) for x in xs})
        violation = convexity_violation(inst, inst.xs)
        if violation is not None:
            replays(inst, violation)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generated_files_pass_with_the_same_selectors(self, n):
        for seed in range(1, 5):
            for shifted in (False, True):
                doc = gen_convex_sections(seed, n, 3, 8, k=3, shifted=shifted)
                csi = ConvexSectionInstance(instance=doc.to_instance(), y0=doc.y0_table())
                assert (select_subgradient(csi, SubgradientConfig(check_convexity=True))
                        .serialize() == select_subgradient(csi).serialize())


def test_auto_shift_when_base_points_are_the_origin():
    # a shifted file whose base point is the origin: offsets leave g(x, 0)
    # nonzero, and auto-detection must still shift
    doc = gen_convex_sections(56, 1, 1, 3, k=2, shifted=True)
    csi = ConvexSectionInstance(instance=doc.to_instance(), y0=doc.y0_table())
    assert all(p == Point.of(0) for p in csi.y0.values())
    assert select_subgradient(csi).serialize() == select_subgradient(csi, shift=True).serialize()
