from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affsel.numerics import AffselError
from affsel.sandwich import (
    BracketViolationError,
    ceiling_cover,
    sandwich,
)

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=32)


def fn(mapping):
    return {k: Fraction(v) for k, v in mapping.items()}


class TestSandwich:
    def test_forced_constant_both_modes(self):
        g = fn({"a": "3/10", "b": "3/10"})
        for mode in ("midpoint", "staged"):
            assert sandwich(g, g, mode) == g

    def test_forced_varying_both_modes(self):
        g = fn({"a": "3/10", "b": "5/7"})
        for mode in ("midpoint", "staged"):
            assert sandwich(g, g, mode) == g

    def test_midpoint(self):
        f = sandwich(fn({"a": 0}), fn({"a": 1}))
        assert f["a"] == Fraction(1, 2)

    def test_staged_frozen_example(self):
        u, l = fn({"a": "3/10"}), fn({"a": "2/5"})
        assert sandwich(u, l, "staged")["a"] == Fraction(3, 10)

    def test_bracket_violated_names_x(self):
        with pytest.raises(BracketViolationError, match="x=b"):
            sandwich(fn({"a": 0, "b": 2}), fn({"a": 1, "b": 1}))

    @pytest.mark.parametrize("l_ids", [("a", "c"), ("b", "a"), ("a",)])
    def test_domain_mismatch_compares_ids_in_order(self, l_ids):
        u = fn({"a": 0, "b": 0})
        with pytest.raises(AffselError, match="domain mismatch"):
            sandwich(u, fn(dict.fromkeys(l_ids, 1)))

    @given(st.dictionaries(st.sampled_from("abcd"),
                           st.tuples(fractions_st, fractions_st), min_size=1),
           st.sampled_from(["midpoint", "staged"]))
    def test_bracket_guarantee(self, table, mode):
        u = {x: min(a, b) for x, (a, b) in table.items()}
        l = {x: max(a, b) for x, (a, b) in table.items()}
        f = sandwich(u, l, mode)
        assert list(f) == list(u)
        for x in u:
            assert u[x] <= f[x] <= l[x]

    @given(st.sampled_from(["midpoint", "staged"]))
    def test_section_functoriality(self, mode):
        u = fn({"a": "1/3", "b": "1/3", "c": 0})
        l = fn({"a": "7/2", "b": "7/2", "c": 1})
        f = sandwich(u, l, mode)
        assert f["a"] == f["b"]

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.tuples(fractions_st, fractions_st, st.booleans()),
                           min_size=1))
    def test_staged_is_lower_end(self, table):
        # degenerate brackets (u(x) = l(x)) drawn on purpose, not only by chance
        u = {x: min(a, b) for x, (a, b, _) in table.items()}
        l = {x: min(a, b) if tight else max(a, b) for x, (a, b, tight) in table.items()}
        f = sandwich(u, l, "staged")
        assert list(f) == list(u) and f == u

    def test_unknown_mode(self):
        with pytest.raises(AffselError, match="unknown sandwich mode"):
            sandwich(fn({"a": 0}), fn({"a": 1}), "upper")


class TestCeilingCover:
    def test_fractional(self):
        assert ceiling_cover(Fraction(23, 10)) == 3

    def test_floor_at_one(self):
        assert ceiling_cover(Fraction(-5)) == 1

    def test_integer_fixed_point(self):
        assert ceiling_cover(Fraction(3)) == 3

    @given(fractions_st)
    def test_bounds(self, v):
        f = ceiling_cover(v)
        assert isinstance(f, Fraction)
        assert f.denominator == 1 and f >= 1
        assert f >= v
        if v >= 1:
            assert f - v < 1
