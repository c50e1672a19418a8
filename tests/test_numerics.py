from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affsel.numerics import (
    NumericsError,
    Point,
    PointSet,
    PointTableBuilder,
    Scalar,
)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=64)


def exact(v):
    return Scalar(Fraction(v))


class TestScalar:
    @given(fractions_st)
    def test_serialize_roundtrip_exact(self, fr):
        s = Scalar(fr)
        assert Scalar.parse(s.serialize()) == s

    @given(fractions_st, fractions_st, fractions_st)
    def test_exact_arithmetic_laws(self, a, b, c):
        sa, sb, sc = exact(a), exact(b), exact(c)
        assert (sa + sb) == (sb + sa)
        assert ((sa + sb) + sc) == (sa + (sb + sc))
        assert (sa * sb) == (sb * sa)
        assert ((sa * sb) * sc) == (sa * (sb * sc))

    def test_exact_division_error_free(self):
        third = exact(1) / exact(3)
        assert third * exact(3) == exact(1)

    def test_le_bound_exact_is_strict(self):
        assert not (exact(1) + exact("1/10000000000000000")).le_bound(exact(1))

    def test_parse_normalizes(self):
        assert Scalar.parse("2/6").serialize() == "1/3"
        assert Scalar.parse("-4/2").serialize() == "-2"


class TestPoint:
    def test_norm_sq(self):
        assert Point.of(3, -4).norm_sq() == exact(25)
        assert Point.of().norm_sq() == exact(0)

    def test_dot(self):
        assert Point.of(1, 2).dot(Point.of(3, "1/2")) == exact(4)

    def test_dot_dim_mismatch(self):
        with pytest.raises(NumericsError):
            Point.of(1).dot(Point.of(1, 2))


class TestPointSet:
    def test_canonical_order(self):
        ps = PointSet(2, [Point.of(1, 1), Point.of(0, 5), Point.of(1, 0)])
        assert [p.raw() for p in ps.points] == sorted(p.raw() for p in ps.points)

    @given(st.lists(st.tuples(fractions_st, fractions_st), max_size=12))
    def test_order_independent(self, coords):
        pts = [Point.of(a, b) for a, b in coords]
        assert PointSet(2, pts) == PointSet(2, list(reversed(pts)))

    def test_exact_dedup(self):
        ps = PointSet(1, [Point.of("1/3"), Point.of("2/6")])
        assert len(ps) == 1

    def test_dim_mismatch(self):
        with pytest.raises(NumericsError):
            PointSet(2, [Point.of(1)])


class TestDedupInsert:
    def test_max_wins(self):
        t = PointTableBuilder(2, ("x",))
        t.insert(Point.of(1, 0), {"x": exact(3)})
        t.insert(Point.of(1, 0), {"x": exact(5)})
        _, rows = t.freeze()
        assert rows["x"] == (exact(5),)

    def test_smaller_ignored(self):
        t = PointTableBuilder(2, ("x",))
        t.insert(Point.of(1, 0), {"x": exact(3)})
        t.insert(Point.of(1, 0), {"x": exact(2)})
        _, rows = t.freeze()
        assert rows["x"] == (exact(3),)

    def test_rational_collision(self):
        t = PointTableBuilder(2, ("x",))
        t.insert(Point.of("1/3", 0), {"x": exact(1)})
        t.insert(Point.of("2/6", 0), {"x": exact(2)})
        ps, rows = t.freeze()
        assert len(ps) == 1
        assert rows["x"] == (exact(2),)

    def test_dimension_mismatch(self):
        t = PointTableBuilder(2, ("x",))
        with pytest.raises(NumericsError, match="dimension mismatch"):
            t.insert(Point.of(1), {"x": exact(0)})

    @given(st.permutations(list(range(6))))
    def test_order_independent(self, perm):
        inserts = [
            (Point.of(0), {"x": exact(1)}), (Point.of(0), {"x": exact(4)}),
            (Point.of(1), {"x": exact(2)}), (Point.of(2), {"x": exact(0)}),
            (Point.of(1), {"x": exact(-1)}), (Point.of(0), {"x": exact(4)}),
        ]
        t = PointTableBuilder(1, ("x",))
        for i in perm:
            t.insert(*inserts[i])
        ps, rows = t.freeze()
        assert [p.raw() for p in ps.points] == [(Fraction(0),), (Fraction(1),), (Fraction(2),)]
        assert rows["x"] == (exact(4), exact(2), exact(0))
