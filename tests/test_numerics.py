from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from affsel.hyperplane import Instance
from affsel.instances import parse_rational
from affsel.numerics import (
    NumericsError,
    Point,
    Scalar,
    primitive,
    rational_coords,
)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=64)


def exact(v):
    return Scalar(Fraction(v))


class TestScalar:
    @given(fractions_st)
    def test_serialize_roundtrip_exact(self, fr):
        s = Scalar(fr)
        assert Scalar(parse_rational(s.serialize())) == s

    def test_le_bound_exact_is_strict(self):
        assert not exact(1 + Fraction(1, 10 ** 16)).le_bound(exact(1))
        assert exact(1).le_bound(exact(1)) and exact(1).le_bound(1)

    @given(fractions_st, fractions_st)
    def test_difference_and_negation_are_exact(self, a, b):
        assert exact(a) - exact(b) == exact(a - b)
        assert exact(a) - 2 == exact(a - 2)
        assert -exact(a) == exact(-a)

    def test_parse_normalizes(self):
        assert Scalar(parse_rational("2/6")).serialize() == "1/3"
        assert Scalar(parse_rational("-4/2")).serialize() == "-2"


class TestPoint:
    def test_dot(self):
        assert Point.of(1, 2).dot(Point.of(3, "1/2")) == exact(4)

    def test_dot_dim_mismatch(self):
        with pytest.raises(NumericsError):
            Point.of(1).dot(Point.of(1, 2))


@given(st.lists(fractions_st, max_size=4))
def test_rational_coords_inverts_primitive(coords):
    assert rational_coords(primitive(coords)) == tuple(coords)


def pt(*values) -> tuple:
    return tuple(map(Fraction, values))


def build(n, entries):
    """Instance.build on (point, value) entries of the one parameter x."""
    return Instance.build(n, ("x",), [p for p, _ in entries],
                          {"x": [Fraction(v) for _, v in entries]})


# point tables are canonicalized by Instance.build alone
class TestPointSet:
    def test_canonical_order(self):
        inst = build(2, [(pt(1, 1), 0), (pt(0, 5), 1), (pt(1, 0), 2)])
        assert [p.raw() for p in inst.ys.points] == sorted(p.raw() for p in inst.ys.points)
        assert inst.values["x"] == (exact(1), exact(2), exact(0))

    @given(st.lists(st.tuples(fractions_st, fractions_st, fractions_st), max_size=12))
    def test_order_independent(self, entries):
        entries = [((a, b), v) for a, b, v in entries]
        assert build(2, entries) == build(2, list(reversed(entries)))

    def test_exact_dedup(self):
        inst = build(1, [(pt("1/3"), 0), (pt("2/6"), 0)])
        assert len(inst.ys) == 1

    def test_dim_mismatch(self):
        with pytest.raises(NumericsError, match="dimension mismatch"):
            build(2, [(pt(1), 0)])


class TestDedupInsert:
    def test_max_wins(self):
        inst = build(2, [(pt(1, 0), 3), (pt(1, 0), 5)])
        assert inst.values["x"] == (exact(5),)

    def test_smaller_ignored(self):
        inst = build(2, [(pt(1, 0), 3), (pt(1, 0), 2)])
        assert inst.values["x"] == (exact(3),)

    def test_rational_collision(self):
        inst = build(2, [(pt("1/3", 0), 1), (pt("2/6", 0), 2)])
        assert len(inst.ys) == 1
        assert inst.values["x"] == (exact(2),)

    def test_dimension_mismatch(self):
        with pytest.raises(NumericsError, match="dimension mismatch"):
            build(2, [(pt(1, 0), 0), (pt(1), 0)])

    @given(st.permutations(list(range(6))))
    def test_order_independent(self, perm):
        entries = [(pt(0), 1), (pt(0), 4), (pt(1), 2),
                   (pt(2), 0), (pt(1), -1), (pt(0), 4)]
        inst = build(1, [entries[i] for i in perm])
        assert inst.ys.points == (Point.of(0), Point.of(1), Point.of(2))
        assert inst.values["x"] == (exact(4), exact(2), exact(0))

    def test_rows_align_with_points(self):
        with pytest.raises(NumericsError, match="one value for each of 2 points"):
            Instance.build(1, ("x",), [pt(0), pt(1)], {"x": [Fraction(0)]})


# coordinates where a float key cannot decide the order: base + k 2^-80 ties
# as a float with base, +-(10^400 + k) overflows one, and 1/3 is also 2/6
TIE = Fraction(1, 2 ** 80)
HUGE = 10 ** 400
tie_coords = st.one_of(
    st.builds(lambda base, k: base + k * TIE,
              st.sampled_from([Fraction(0), Fraction(1), Fraction(-5, 3)]), st.integers(-2, 2)),
    st.builds(lambda sign, k: Fraction(sign * (HUGE + k)), st.sampled_from([-1, 1]),
              st.integers(-2, 2)),
    st.sampled_from([Fraction(1, 3), Fraction(2, 6)]),
)
tie_values = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def tie_tables(draw):
    """(n, entries): each entry a point of dimension n and its values under
    the parameters x and z; points repeat often."""
    n = draw(st.integers(0, 3))
    point = st.tuples(*[tie_coords] * n)
    return n, draw(st.lists(st.tuples(point, tie_values, tie_values), max_size=10))


def build_xz(n, entries):
    return Instance.build(n, ("x", "z"), [p for p, _, _ in entries],
                          {"x": [a for _, a, _ in entries], "z": [b for _, _, b in entries]})


class TestCanonicalFormWhereFloatsTie:
    @given(tie_tables(), st.randoms(use_true_random=False))
    @example((2, [((1 + TIE, Fraction(0)), 1, 0), ((Fraction(1), Fraction(5)), 2, 0)]), None)
    @example((2, [((Fraction(0), 1 + TIE), 1, 0), ((Fraction(0), Fraction(1)), 2, 0)]), None)
    @example((1, [((Fraction(HUGE + 1),), 1, 0), ((Fraction(HUGE),), 2, 0),
                  ((Fraction(-HUGE),), 0, 0), ((Fraction(-HUGE - 1),), 3, 0)]), None)
    @example((2, [((Fraction(1, 3), TIE), 1, 2), ((Fraction(2, 6), TIE), 2, 1)]), None)
    @example((0, [((), 1, 2), ((), 3, -1), ((), -1, 0)]), None)
    @example((0, []), None)
    @example((2, []), None)
    def test_sorted_order_max_merge_and_any_input_order(self, table, rnd):
        n, entries = table
        inst = build_xz(n, entries)
        best = {}
        for p, a, b in entries:
            kept = best.setdefault(p, (a, b))
            best[p] = (max(a, kept[0]), max(b, kept[1]))
        raws = sorted(best)
        # the integer form every reader takes from the instance
        assert inst.vectors == tuple(primitive(p) for p in raws)
        for i, x in enumerate(inst.xs):
            assert inst.pairs[x] == tuple(best[p][i].as_integer_ratio() for p in raws)
        # the views, read afterwards: the Points of the merged coordinates and
        # the Scalars of the pointwise max
        assert inst.ys.points == tuple(Point(map(Scalar, p)) for p in raws)
        for i, x in enumerate(inst.xs):
            assert inst.values[x] == tuple(Scalar(best[p][i]) for p in raws)
        shuffled = list(reversed(entries))
        if rnd is not None:
            rnd.shuffle(shuffled)
        assert build_xz(n, shuffled) == inst
