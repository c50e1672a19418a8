from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affsel.numerics import EXACT, Scalar
from affsel.sandwich import (
    BracketViolationError,
    FiniteFunction,
    GridError,
    SandwichConfig,
    SeparationError,
    _staged_limsup,
    ceiling_cover,
    dyadic_lower,
    insert_simple,
    sandwich,
    separate,
    staged_parameters,
)

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=32)


def exact(v):
    return Scalar(EXACT, Fraction(v))


def fn(mapping):
    return FiniteFunction(tuple(mapping), {k: exact(v) for k, v in mapping.items()})


class TestSeparate:
    def test_lower_strategy(self):
        assert separate({"x1"}, {"x1", "x2"}) == frozenset({"x1"})

    def test_empty(self):
        assert separate(set(), {"x1", "x2"}) == frozenset()

    def test_forced(self):
        both = {"x1", "x2"}
        assert separate(both, both) == frozenset(both)

    def test_hypothesis_violated(self):
        with pytest.raises(SeparationError, match="separation hypothesis violated"):
            separate({"x1", "x3"}, {"x1"})


class TestInsertSimple:
    def test_forced_equal(self):
        u = fn({"a": 1, "b": 2})
        grid = [exact(0), exact(1), exact(2)]
        f = insert_simple(u, u, grid)
        assert f.values == u.values

    def test_indicator_reduction(self):
        # u = 1_A, l = 1_C with A strictly inside C: lower strategy keeps 1_A
        u = fn({"x1": 1, "x2": 0})
        l = fn({"x1": 1, "x2": 1})
        f = insert_simple(u, l, [exact(0), exact(1)])
        assert f("x1") == exact(1) and f("x2") == exact(0)

    def test_layer_trace(self):
        u = fn({"a": 0, "b": 1})
        l = fn({"a": 2, "b": 2})
        f = insert_simple(u, l, [exact(0), exact(1), exact(2)])
        assert (f("a"), f("b")) == (exact(0), exact(1))

    def test_out_of_grid(self):
        with pytest.raises(GridError, match="not on the grid"):
            insert_simple(fn({"a": "1/2"}), fn({"a": 1}), [exact(0), exact(1)])

    def test_bracket_violated(self):
        with pytest.raises(BracketViolationError):
            insert_simple(fn({"a": 1}), fn({"a": 0}), [exact(0), exact(1)])

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=1))
    def test_level_sets_are_suffix_unions(self, table):
        # bracket + grid membership by construction; nesting {f >= y_k} = B'_k
        u = fn({x: min(a, b) for x, (a, b) in table.items()})
        l = fn({x: max(a, b) for x, (a, b) in table.items()})
        grid = [exact(i) for i in range(5)]
        f = insert_simple(u, l, grid)
        for k in range(5):
            level = {x for x in f.domain if f(x).value >= k}
            suffix_union = {x for x in u.domain if u(x).value >= k}  # B'_k with B = A
            assert level == suffix_union
        for x in u.domain:
            assert u(x).value <= f(x).value <= l(x).value


class TestDyadicLower:
    def test_example(self):
        f = dyadic_lower(fn({"a": "3/10"}), 3)
        assert f("a") == exact("1/4")

    def test_top(self):
        assert dyadic_lower(fn({"a": 1}), 5)("a") == exact(1)

    def test_bottom(self):
        assert dyadic_lower(fn({"a": 0}), 5)("a") == exact(0)

    def test_domain_error(self):
        with pytest.raises(GridError):
            dyadic_lower(fn({"a": "11/10"}), 3)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=997),
           st.integers(1, 10))
    def test_monotone_and_close(self, v, depth):
        u = fn({"a": v})
        lo = dyadic_lower(u, depth)("a")
        hi = dyadic_lower(u, depth + 1)("a")
        assert lo.value <= hi.value <= v
        assert v - lo.value < Fraction(1, 2 ** depth)


class TestSandwich:
    def test_forced_constant_both_modes(self):
        g = fn({"a": "3/10", "b": "3/10"})
        for mode in ("midpoint", "staged"):
            f = sandwich(g, g, SandwichConfig(mode=mode, depth=6))
            assert f.values == g.values

    def test_forced_varying_both_modes(self):
        g = fn({"a": "3/10", "b": "5/7"})
        for mode in ("midpoint", "staged"):
            f = sandwich(g, g, SandwichConfig(mode=mode, depth=6))
            assert f.values == g.values

    def test_midpoint(self):
        f = sandwich(fn({"a": 0}), fn({"a": 1}))
        assert f("a") == exact("1/2")

    def test_staged_frozen_example(self):
        u, l = fn({"a": "3/10"}), fn({"a": "2/5"})
        origin, rng, e = staged_parameters(u, l, 3)
        assert (origin, rng, e) == (exact("1/4"), exact(1), 0)
        raw = _staged_limsup(u, l, 3)("a")
        assert raw == exact("1/4")
        f = sandwich(u, l, SandwichConfig(mode="staged", depth=3))("a")
        assert f == exact("3/10")
        # relaxed-bound window the construction promises
        assert Fraction(3, 10) - Fraction(1, 8) <= raw.value <= Fraction(2, 5) + Fraction(1, 8)

    def test_bracket_violated_names_x(self):
        with pytest.raises(BracketViolationError, match="x=b"):
            sandwich(fn({"a": 0, "b": 2}), fn({"a": 1, "b": 1}))

    @given(st.dictionaries(st.sampled_from("abcd"),
                           st.tuples(fractions_st, fractions_st), min_size=1),
           st.sampled_from(["midpoint", "staged"]))
    def test_bracket_guarantee(self, table, mode):
        u = fn({x: min(a, b) for x, (a, b) in table.items()})
        l = fn({x: max(a, b) for x, (a, b) in table.items()})
        f = sandwich(u, l, SandwichConfig(mode=mode, depth=8))
        for x in u.domain:
            assert u(x).value <= f(x).value <= l(x).value

    @given(st.sampled_from(["midpoint", "staged"]))
    def test_section_functoriality(self, mode):
        u = fn({"a": "1/3", "b": "1/3", "c": 0})
        l = fn({"a": "7/2", "b": "7/2", "c": 1})
        f = sandwich(u, l, SandwichConfig(mode=mode, depth=6))
        assert f("a") == f("b")

    def test_staged_dyadic_exactness(self):
        # depth-4 dyadic inputs pass through depth >= 4 stages unchanged
        u = fn({"a": "3/16", "b": "5/8"})
        l = fn({"a": "9/16", "b": "5/8"})
        raw = _staged_limsup(u, l, 4)
        for x in u.domain:
            assert raw(x) == u(x)


class TestCeilingCover:
    def test_fractional(self):
        assert ceiling_cover(fn({"a": "23/10"}))("a") == exact(3)

    def test_floor_at_one(self):
        assert ceiling_cover(fn({"a": -5}))("a") == exact(1)

    def test_integer_fixed_point(self):
        assert ceiling_cover(fn({"a": 3}))("a") == exact(3)

    @given(fractions_st)
    def test_bounds(self, v):
        f = ceiling_cover(fn({"a": v}))("a")
        assert f.value.denominator == 1 and f.value >= 1
        assert f.value >= v
        if v >= 1:
            assert f.value - v < 1
