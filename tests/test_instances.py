import json
from fractions import Fraction

import pytest

from affsel.hyperplane import select_affine
from affsel.instances import (
    GenRanges,
    InstanceFile,
    InstanceFileError,
    gen_affine_dominated,
    gen_convex_sections,
    gen_meager_linear,
)
from affsel.numerics import Point, Scalar
from affsel.oracle import fm_feasible, verify_domination
from affsel.hyperplane import AffineSelector


def exact(v):
    return Scalar(Fraction(v))


class TestInstanceFile:
    def test_schema_field_names(self):
        doc = gen_affine_dominated(1, 1, 2, 3)
        data = json.loads(doc.dumps())
        assert set(data) == {"schema_version", "n", "X", "Y", "f", "meta"}
        doc2 = gen_convex_sections(1, 1, 2, 3, k=2, shifted=True)
        data2 = json.loads(doc2.dumps())
        assert {"schema_version", "n", "X", "Y", "f", "y0", "meta"} <= set(data2)

    def test_parse_serialize_parse_identity(self):
        doc = gen_affine_dominated(5, 2, 3, 6)
        text = doc.dumps()
        again = InstanceFile.loads(text)
        assert again.dumps() == text

    def test_rationals_normalized(self):
        raw = {"schema_version": 1, "n": 1, "X": ["x0"],
               "Y": [["2/6"]], "f": [["-4/2"]]}
        doc = InstanceFile.from_json_dict(raw)
        assert doc.y_rows == [["1/3"]]
        assert doc.f_rows == [["-2"]]

    def test_alignment_errors(self):
        with pytest.raises(InstanceFileError):
            InstanceFile.from_json_dict(
                {"schema_version": 1, "n": 1, "X": ["x0"], "Y": [["1"]], "f": [["1", "2"]]})
        with pytest.raises(InstanceFileError):
            InstanceFile.from_json_dict(
                {"schema_version": 1, "n": 2, "X": ["x0"], "Y": [["1"]], "f": [["1"]]})

    def test_duplicate_points_merge_on_load(self):
        raw = {"schema_version": 1, "n": 1, "X": ["x0"],
               "Y": [["1"], ["1"]], "f": [["2", "7"]]}
        inst = InstanceFile.from_json_dict(raw).to_instance()
        assert len(inst.ys) == 1
        assert inst.values["x0"] == (exact(7),)


class TestGenAffineDominated:
    def test_deterministic(self):
        assert gen_affine_dominated(7, 2, 3, 5).dumps() == gen_affine_dominated(7, 2, 3, 5).dumps()

    def test_zero_slack_exactly_affine(self):
        doc = gen_affine_dominated(3, 1, 2, 4, GenRanges(zero_slack=True))
        inst = doc.to_instance()
        for i, x in enumerate(doc.xs):
            b = Point(Scalar.parse(v) for v in doc.meta["witness"]["b"][x])
            c = Scalar.parse(doc.meta["witness"]["c"][x])
            for j, p in enumerate(inst.ys.points):
                assert inst.values[x][j] == b.dot(p) + c

    def test_planted_witness_feasible(self):
        doc = gen_affine_dominated(11, 2, 2, 6)
        inst = doc.to_instance()
        res = fm_feasible(inst.ys, inst.values, homogeneous=False)
        assert all(r.feasible for r in res.values())
        for x in inst.xs:
            b = Point(Scalar.parse(v) for v in doc.meta["witness"]["b"][x])
            c = Scalar.parse(doc.meta["witness"]["c"][x])
            sel = AffineSelector(n=inst.n, xs=(x,), b={x: b}, c={x: c})
            sub = inst.__class__.build(inst.n, (x,), list(inst.ys.points),
                                       {x: list(inst.values[x])})
            assert verify_domination(sub, sel).passed

    def test_small_denominators(self):
        doc = gen_affine_dominated(13, 3, 2, 8)
        for row in doc.y_rows:
            for cell in row:
                assert Fraction(cell).denominator <= 8

    def test_n_zero(self):
        doc = gen_affine_dominated(17, 0, 3, 5)
        assert doc.y_rows == [[]]
        inst = doc.to_instance()
        sel, _ = select_affine(inst)
        assert verify_domination(inst, sel).passed


class TestGenMeagerLinear:
    def test_values_are_linear(self):
        doc = gen_meager_linear(23, 2, 3, 5)
        inst = doc.to_instance()
        for x in inst.xs:
            alpha = Point(Scalar.parse(v) for v in doc.meta["witness"]["alpha"][x])
            for j, p in enumerate(inst.ys.points):
                assert inst.values[x][j] == alpha.dot(p)

    def test_homogeneous_feasible(self):
        doc = gen_meager_linear(29, 1, 2, 6)
        inst = doc.to_instance()
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert all(r.feasible for r in res.values())

    def test_deterministic(self):
        assert gen_meager_linear(31, 1, 2, 4).dumps() == gen_meager_linear(31, 1, 2, 4).dumps()


class TestGenConvexSections:
    def test_origin_present_with_zero_value(self):
        doc = gen_convex_sections(37, 2, 2, 6, k=3)
        inst = doc.to_instance()
        from affsel.numerics import origin_point
        j = inst.ys.index_of(origin_point(2))
        assert j is not None
        for x in inst.xs:
            assert inst.values[x][j] == exact(0)

    def test_values_match_max_of_slopes(self):
        doc = gen_convex_sections(41, 1, 2, 5, k=4)
        inst = doc.to_instance()
        for x in inst.xs:
            slopes = [Point(Scalar.parse(v) for v in s)
                      for s in doc.meta["witness"]["slopes"][x]]
            for j, p in enumerate(inst.ys.points):
                best = max(s.dot(p).value for s in slopes)
                assert inst.values[x][j].value == best

    def test_k_one_linear(self):
        doc = gen_convex_sections(43, 1, 1, 4, k=1)
        inst = doc.to_instance()
        slope = Point(Scalar.parse(v) for v in doc.meta["witness"]["slopes"]["x0"][0])
        for j, p in enumerate(inst.ys.points):
            assert inst.values["x0"][j] == slope.dot(p)

    def test_shifted_twin_shares_base_draw(self):
        plain = gen_convex_sections(47, 2, 2, 5, k=2)
        shifted = gen_convex_sections(47, 2, 2, 5, k=2, shifted=True)
        assert plain.meta["witness"] == shifted.meta["witness"]
        assert shifted.y0_rows is not None
        base = shifted.y0_table()["x0"]
        inst = shifted.to_instance()
        assert inst.ys.index_of(base) is not None
