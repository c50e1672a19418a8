import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affsel import cli
from affsel.hyperplane import (
    Instance,
    SelectConfig,
    WorkingTable,
    build_envelope,
    extend_domain,
    select_affine,
)
from affsel.instances import InstanceFile
from affsel.numerics import Point, Scalar
from affsel.oracle import verify_domination, verify_working_closure
from affsel.sandwich import BracketViolationError
from conftest import make_instance
from reference_geometry import (
    SignConditionError,
    chord_value,
    extended_value,
    intersection_point,
)


def exact(v):
    return Scalar(Fraction(v))


WORKED = make_instance(1, [Point.of(-1), Point.of(2)], {"x0": [exact(0), exact(1)]})


class TestExtendDomain:
    def test_origin_off_domain(self):
        t = extend_domain(make_instance(1, [Point.of(-1), Point.of(2)],
                                        {"x0": [exact(3), exact(1)]}))
        assert extended_value(t, "x0", Point.of(0)) == exact(0)

    def test_off_domain_negative_norm(self):
        t = extend_domain(make_instance(2, [Point.of(1, 1)], {"x0": [exact(7)]}))
        assert extended_value(t, "x0", Point.of(2, 0)) == exact(-4)

    def test_original_points_win(self):
        t = extend_domain(make_instance(1, [Point.of(2)], {"x0": [exact(9)]}))
        assert extended_value(t, "x0", Point.of(2)) == exact(9)


class TestIntersectionPoint:
    def test_symmetric_midpoint(self):
        assert intersection_point(Point.of(1, 1), Point.of(1, -1)) == Point.of(1, 0)

    def test_formula(self):
        assert intersection_point(Point.of(0, 2), Point.of(3, -1)) == Point.of(2, 0)

    def test_dim_one(self):
        assert intersection_point(Point.of(2), Point.of(-1)) == Point.of(0)

    def test_sign_errors(self):
        with pytest.raises(SignConditionError):
            intersection_point(Point.of(1, -1), Point.of(1, 1))
        with pytest.raises(SignConditionError):
            intersection_point(Point.of(1, 0), Point.of(1, -1))

    @given(st.fractions(min_value="1/8", max_value=9, max_denominator=12),
           st.fractions(min_value=-9, max_value="-1/8", max_denominator=12),
           st.fractions(min_value=-9, max_value=9, max_denominator=12),
           st.fractions(min_value=-9, max_value=9, max_denominator=12))
    def test_on_segment_with_zero_last(self, yn, ypn, a, b):
        y, yp = Point.of(a, yn), Point.of(b, ypn)
        t = intersection_point(y, yp)
        assert t.coords[-1] == exact(0)
        # t = yp + s (y - yp) with s = -ypn / (yn - ypn) in (0, 1)
        s = -ypn / (yn - ypn)
        assert 0 < s < 1
        assert t.coords[0].value == ypn * (a - b) / (ypn - yn) + b


class TestChordValue:
    def test_worked(self):
        fx = {Point.of(2): exact(1), Point.of(-1): exact(0)}
        assert chord_value(fx, Point.of(2), Point.of(-1)) == exact("1/3")

    def test_constant(self):
        fx = {Point.of(1, 5): exact(7), Point.of(0, -2): exact(7)}
        assert chord_value(fx, Point.of(1, 5), Point.of(0, -2)) == exact(7)

    def test_linear_section(self):
        alpha = Fraction(3, 2)
        y, yp = Point.of(4), Point.of(-2)
        fx = {y: exact(alpha * 4), yp: exact(alpha * -2)}
        t = intersection_point(y, yp)
        assert chord_value(fx, y, yp).value == alpha * t.coords[0].value


class TestBuildEnvelope:
    def test_worked_dim1(self):
        table = extend_domain(WORKED)
        assert table.points == ((-1, 1), (2, 1))
        assert table.values["x0"] == ((0, 1), (1, 1))     # 0 and 1 as reduced pairs
        assert (table.plus, table.minus, table.zero) == ([1], [0], [])
        child = build_envelope(table)
        assert child.dim == 0
        assert child.points == [(1,)]
        assert child.values["x0"] == ((1, 3),)

    def test_empty_positive_side(self):
        inst = make_instance(1, [Point.of(-1), Point.of(0)], {"x0": [exact(2), exact(5)]})
        child = build_envelope(extend_domain(inst))
        assert child.points == [(1,)]
        assert child.values["x0"] == ((5, 1),)   # only the zero point descends

    def test_colliding_pairs_take_max(self):
        # two symmetric pairs both cross at the origin of the hyperplane
        inst = make_instance(
            2,
            [Point.of(0, 1), Point.of(0, -1), Point.of(0, 2), Point.of(0, -2)],
            {"x0": [exact(1), exact(0), exact(-2), exact(3)]},
        )
        child = build_envelope(extend_domain(inst))
        idx = child.points.index((0, 1))
        # chords at the shared crossing: 1/2, 5/3, -2/3, 1/2; extension value 0
        assert child.values["x0"][idx] == (5, 3)


class TestSelectAffine:
    def test_worked_trace(self):
        selector, trace = select_affine(WORKED)
        assert selector.b["x0"] == Point.of("1/2")
        assert selector.c["x0"] == exact(1)
        top = trace.levels[0]
        assert top.summary() == {"dim": 1, "points": 2, "plus": 1, "minus": 1, "zero": 0,
                                 "intersections": 1, "rule": "sandwich"}
        assert top.upper == {"x0": 0} and top.lower == {"x0": 1}
        assert all(type(v) is Fraction for v in (top.upper["x0"], top.lower["x0"]))
        base = trace.levels[-1]
        assert base.base_c == {"x0": 1} and type(base.base_c["x0"]) is Fraction
        assert base.values["x0"] == ((1, 3),)

    def test_base_case_ceiling(self):
        inst = make_instance(0, [Point.of()], {"x0": [exact("23/10")]})
        selector, _ = select_affine(inst)
        assert selector.c["x0"] == exact(3)
        assert selector.b["x0"].dim == 0

    def test_base_case_tight(self):
        inst = make_instance(0, [Point.of()], {"x0": [exact("23/10")]})
        selector, _ = select_affine(inst, SelectConfig(base="tight"))
        assert selector.c["x0"] == exact("23/10")

    def test_linear_sections_dominated(self):
        alpha = Fraction(-7, 3)
        pts = [Point.of(v) for v in (-3, "-1/2", 0, 2, 5)]
        inst = make_instance(1, pts, {"x0": [exact(alpha * p.coords[0].value) for p in pts]})
        selector, trace = select_affine(inst)
        assert verify_domination(inst, selector).passed
        assert verify_working_closure(trace, selector).passed

    def test_one_sided_bracket(self):
        inst = make_instance(1, [Point.of(3)], {"x0": [exact(6)]})
        selector, trace = select_affine(inst)
        assert trace.levels[0].rule == "upper-only"
        # binding at the only sample point: zero slack
        rep = verify_domination(inst, selector)
        assert rep.passed and rep.min_slack["x0"] == exact(0)

    def test_empty_sides_zero_rule(self):
        inst = make_instance(1, [Point.of(0)], {"x0": [exact(-2)]})
        selector, trace = select_affine(inst)
        assert trace.levels[0].rule == "zero"
        assert selector.b["x0"] == Point.of(0)
        assert verify_domination(inst, selector).passed

    def test_staged_config_still_exact(self):
        selector, trace = select_affine(WORKED, SelectConfig(sandwich_mode="staged"))
        assert verify_domination(WORKED, selector).passed
        assert verify_working_closure(trace, selector).passed

    def test_permutation_equivariance(self):
        pts = [Point.of(2, 1), Point.of(-1, -1), Point.of(0, 3), Point.of(1, -2)]
        vals = [exact(1), exact(0), exact(-2), exact("5/2")]
        a = make_instance(2, pts, {"x0": vals})
        order = [2, 0, 3, 1]
        b = make_instance(2, [pts[i] for i in order], {"x0": [vals[i] for i in order]})
        sa, _ = select_affine(a)
        sb, _ = select_affine(b)
        assert sa.b["x0"] == sb.b["x0"] and sa.c["x0"] == sb.c["x0"]

    def test_section_functoriality(self):
        pts = [Point.of(-1, 2), Point.of(1, 1), Point.of(0, -3)]
        row = [exact("1/2"), exact(-1), exact(4)]
        inst = make_instance(2, pts, {"x0": row, "x1": [exact(9), exact(0), exact(0)],
                                      "x2": row})
        selector, _ = select_affine(inst)
        assert selector.b["x0"] == selector.b["x2"]
        assert selector.c["x0"] == selector.c["x2"]

    def test_duplicate_points_merge_by_max(self):
        inst = make_instance(1, [Point.of(1), Point.of(1)], {"x0": [exact(2), exact(7)]})
        assert len(inst.ys) == 1
        assert inst.values["x0"] == (exact(7),)

    def test_recursion_depth_and_growth(self):
        rng = random.Random(11)
        pts = []
        seen = set()
        while len(pts) < 9:
            p = Point.of(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            if p.raw() not in seen:
                seen.add(p.raw())
                pts.append(p)
        inst = make_instance(3, pts, {"x0": [exact(rng.randint(-5, 5)) for _ in pts]})
        _, trace = select_affine(inst)
        dims = [rec.dim for rec in trace.levels]
        assert dims == [3, 2, 1, 0]
        for rec in trace.levels:
            if rec.dim >= 1:
                assert rec.n_intersections <= len(rec.plus) * len(rec.minus)


class TestBracketCheck:
    """sandwich() holds the one U <= L check of the recursion; a bracket
    forced to U > L on the two-sided top level of WORKED reaches it."""

    @pytest.fixture
    def inverted_bracket(self, monkeypatch):
        def bracket(level, b_rows, c_map, hull=None):
            xs = level.values
            return {x: Fraction(1) for x in xs}, {x: Fraction(0) for x in xs}
        monkeypatch.setattr(WorkingTable, "bracket", bracket)

    def test_select_affine_raises(self, inverted_bracket):
        with pytest.raises(BracketViolationError, match="x=x0"):
            select_affine(WORKED)

    def test_cli_exits_1_with_one_line(self, inverted_bracket, tmp_path, capsys):
        path = tmp_path / "worked.json"
        # the file of WORKED
        path.write_text(InstanceFile(n=1, xs=["x0"], y_rows=[[(-1, 1)], [(2, 1)]],
                                     f_rows=[[(0, 1), (1, 1)]]).dumps())
        assert cli.run(["select", "affine", str(path), "--verify"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bracket violated at x=x0\n"


class TestDegenerateInstances:
    def test_empty_sample_dim2(self):
        inst = Instance.build(2, ("x0",), [], {"x0": []})
        selector, trace = select_affine(inst)
        assert selector.b["x0"] == Point.of(0, 0)
        assert selector.c["x0"] == exact(1)
        assert [rec.dim for rec in trace.levels] == [2, 1, 0]

    def test_empty_sample_dim0_tight(self):
        inst = Instance.build(0, ("x0",), [], {"x0": []})
        selector, _ = select_affine(inst, SelectConfig(base="tight"))
        assert selector.c["x0"] == exact(0)

    def test_positive_side_only_feeds_empty_base(self):
        inst = make_instance(1, [Point.of(2), Point.of(5)], {"x0": [exact(1), exact(3)]})
        selector, trace = select_affine(inst)
        assert len(trace.levels[-1].points) == 0
        assert verify_domination(inst, selector).passed


def test_chord_sign_error():
    fx = {Point.of(2): exact(1), Point.of(-1): exact(0)}
    with pytest.raises(SignConditionError):
        chord_value(fx, Point.of(-1), Point.of(2))
