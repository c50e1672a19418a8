"""The exact envelope and bracket against brute-force references.

The references use only the geometry of ``reference_geometry``
(``intersection_point``, ``chord_value``, the -|t|^2 extension behind
``extended_value``) and plain Fraction arithmetic, never the integer kernel.
"""

from contextlib import nullcontext
from copy import deepcopy
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from affsel import hyperplane
from affsel.hyperplane import (Instance, SelectConfig, build_envelope, extend_domain,
                               select_affine, select_table)
from affsel.numerics import Point
from reference_geometry import chord_value, extended_value, intersection_point

XS = ("x0", "x1", "x2")
coord_st = st.fractions(min_value=-3, max_value=3, max_denominator=3)
value_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def working_instances(draw, dims=st.integers(1, 3), side=(0, 5)):
    """Instances whose top working tables have zero-side points, colliding
    crossings (coordinates come from a small grid), and crossings that land
    on stored points."""
    dim = draw(dims)
    head = st.lists(coord_st, min_size=dim - 1, max_size=dim - 1)
    positive = st.fractions(min_value="1/3", max_value=3 * side[1], max_denominator=3)
    points = set()
    for sign in (1, -1):
        lasts = st.lists(positive, min_size=side[0], max_size=side[1], unique=True)
        for last in draw(lasts):
            points.add(tuple(draw(head)) + (sign * last,))
    for _ in range(draw(st.integers(0, 3))):
        points.add(tuple(draw(head)) + (Fraction(0),))
    plus = sorted(p for p in points if p[-1] > 0)
    minus = sorted(p for p in points if p[-1] < 0)
    if plus and minus:
        for _ in range(draw(st.integers(0, 3))):
            y = Point.of(*draw(st.sampled_from(plus)))
            yp = Point.of(*draw(st.sampled_from(minus)))
            points.add(intersection_point(y, yp).raw())
    xs = XS[:draw(st.integers(1, 3))]
    rows = {x: [draw(value_st) for _ in points] for x in xs}
    return Instance.build(dim, xs, points, rows)


def working_tables(dims=st.integers(1, 3), side=(0, 5)):
    return working_instances(dims, side).map(extend_domain)


def as_point(vector):
    """The point a / d of an integer vector (a_1, .., a_k, d)."""
    return Point.of(*[Fraction(a, vector[-1]) for a in vector[:-1]])


def reference_envelope(table):
    """{dropped point: {x: value}} and the number of distinct crossings."""
    points = [as_point(v) for v in table.points]
    plus = [p for p in points if p.coords[-1].value > 0]
    minus = [p for p in points if p.coords[-1].value < 0]
    out = {}
    for j, p in enumerate(points):
        if p.coords[-1].value == 0:
            out[Point(p.coords[:-1])] = {x: extended_value(table, x, p) for x in table.values}
    crossings = set()
    for y in plus:
        for yp in minus:
            t = intersection_point(y, yp)
            child = Point(t.coords[:-1])
            crossings.add(child)
            if child not in out:
                out[child] = {x: extended_value(table, x, t) for x in table.values}
            best = out[child]
            for x in table.values:
                fx = {y: extended_value(table, x, y), yp: extended_value(table, x, yp)}
                chord = chord_value(fx, y, yp)
                if chord.value > best[x].value:
                    best[x] = chord
    return out, len(crossings)


def assert_envelope_matches(table):
    before = deepcopy(table)
    child, n_intersections, _ = table.envelope()
    ref, n_crossings = reference_envelope(table)
    points = [as_point(v) for v in child.points]
    assert points == sorted(ref, key=Point.raw)
    # primitive vectors: equal points must give equal dict keys one level down
    assert all(v[-1] > 0 and gcd(*v) == 1 for v in child.points)
    for i, p in enumerate(points):
        for x in table.values:
            assert child.values[x][i] == ref[p][x].value.as_integer_ratio()
    assert n_intersections == n_crossings
    assert child == build_envelope(table)
    assert table == before      # the count is filled in by _select_level, not here


@given(st.one_of(working_tables(), working_tables(dims=st.just(2), side=(6, 12))))
def test_envelope_matches_reference(table):
    # dimension two builds its crossing plan on the line; the large draws
    # (36-144 pairs) share crossings and land them on stored points
    assert_envelope_matches(table)


@given(working_instances())
def test_every_level_holds_reduced_pairs_of_the_reference_values(inst):
    # each level's table against the reference envelope of the level above,
    # the top level against the instance: every value is the pair (p, q)
    # with q > 0 and gcd(p, q) == 1, so equal values are equal pairs
    _, trace = select_affine(inst)
    want = {p: {x: inst.values[x][j] for x in inst.xs} for j, p in enumerate(inst.ys.points)}
    for above, level in zip([None, *trace.levels], trace.levels):
        if above is not None:
            want, _ = reference_envelope(above)
        points = [as_point(v) for v in level.points]
        assert set(points) == set(want)
        for x, row in level.values.items():
            for p, (num, den) in zip(points, row):
                assert den > 0 and gcd(num, den) == 1
                assert Fraction(num, den) == want[p][x].value


def uncertified(refuse: bool):
    """Where ``refuse`` holds, no float hull is certified, so every
    dimension-one hull comes from the exact chain on Fractions."""
    if refuse:
        return mock.patch.object(hyperplane, "_is_upper_hull", return_value=False)
    return nullcontext()


@given(st.one_of(working_tables(dims=st.just(1), side=(1, 8)),
                 working_tables(dims=st.just(1), side=(9, 14))), st.booleans())
def test_envelope_hull_path_matches_reference(table, refuse):
    # dimension one takes every value from the hull bridge; the reference
    # enumerates every crossing pair.  Small levels (1-64 pairs) and large
    # ones (81 or more) are both drawn; the reference still counts the one
    # shared crossing
    with uncertified(refuse):
        assert_envelope_matches(table)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(st.lists(coord_st, min_size=n, max_size=n).map(tuple),
                        min_size=1, max_size=7 if n == 3 else 10, unique=True))
    xs = XS[:draw(st.integers(1, 3))]
    rows = {x: [draw(value_st) for _ in pts] for x in xs}
    return Instance.build(n, xs, pts, rows)


def assert_bracket_matches_formula(inst, config=SelectConfig()):
    """U and L of every level against the maximum and minimum over every
    plus and minus point."""
    selector, trace = select_affine(inst, config)
    for record in trace.levels:
        k = record.dim
        if k == 0:
            continue
        for x in inst.xs:
            b = [s.value for s in selector.b[x].coords[:k - 1]]
            c = selector.c[x].value
            slopes = {1: [], -1: []}
            for j, v in enumerate(record.points):
                y = as_point(v).raw()
                if y[-1] == 0:
                    continue
                rest = Fraction(*record.values[x][j]) - c - sum(bi * yi for bi, yi in zip(b, y))
                slopes[1 if y[-1] > 0 else -1].append(rest / y[-1])
            assert record.upper[x] == (max(slopes[1]) if slopes[1] else None)
            assert record.lower[x] == (min(slopes[-1]) if slopes[-1] else None)


@given(instances())
def test_bracket_matches_fraction_formula(inst):
    assert_bracket_matches_formula(inst)


@given(working_instances(dims=st.just(1), side=(9, 14)), st.sampled_from(["novikov", "tight"]),
       st.booleans())
def test_hull_bracket_matches_fraction_formula_on_large_levels(inst, base, refuse):
    # U and L are taken over the upper hull vertices only; the base constant
    # C is at least the bridge chord H(0), and under "tight" it is H(0)
    # itself wherever no zero-side point lies above it
    with uncertified(refuse):
        assert_bracket_matches_formula(inst, SelectConfig(base=base))


def test_child_order_is_exact_where_floats_tie():
    # the first coordinates differ by 2^-80, below float resolution
    tiny = Fraction(1, 3) + Fraction(1, 2 ** 80)
    pts = [(Fraction(1, 3), Fraction(1), Fraction(0)), (tiny, Fraction(0), Fraction(0)),
           (Fraction(0), Fraction(0), Fraction(1))]
    table = extend_domain(Instance.build(3, ("x0",), pts, {"x0": [Fraction(0)] * 3}))
    child = build_envelope(table)
    assert [as_point(v).raw()[0] for v in child.points] == [Fraction(1, 3), tiny]


def test_child_order_is_exact_where_float_keys_overflow():
    # the crossings with the minus point (0, -1) lie at a / (h + 1) for the
    # plus point (a, h): -10^400, -2*10^400, 2*10^400 and 10^400 in the order
    # the pairs are met.  Their float keys are -inf, -inf, inf and inf
    big = 10 ** 400
    pts = [(Fraction(-5 * big), Fraction(4)), (Fraction(-4 * big), Fraction(1)),
           (Fraction(4 * big), Fraction(1)), (Fraction(5 * big), Fraction(4)),
           (Fraction(0), Fraction(-1))]
    table = extend_domain(Instance.build(2, ("x0",), pts, {"x0": [Fraction(0)] * 5}))
    child = build_envelope(table)
    assert [as_point(v).raw()[0] for v in child.points] == [-2 * big, -big, big, 2 * big]
    assert_envelope_matches(table)


# coordinates that differ by multiples of 2^-80: equal as floats, not exactly
TINY = Fraction(1, 2 ** 80)
tied_coord_st = st.builds(lambda base, k: base + k * TINY,
                          st.sampled_from([Fraction(-2, 7), Fraction(1, 3), Fraction(1)]),
                          st.integers(-2, 2))


@st.composite
def float_tied_tables(draw):
    """Dimension-2 and -3 tables whose child points tie as floats in the
    first and in the second coordinate: zero-side points on a grid of tied
    coordinates, and off-zero points whose crossings land near them."""
    dim = draw(st.sampled_from([2, 3]))
    head = st.lists(tied_coord_st, min_size=dim - 1, max_size=dim - 1).map(tuple)
    points = {h + (Fraction(0),) for h in draw(st.lists(head, min_size=2, max_size=8))}
    lasts = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])
    for sign in (1, -1):
        for h in draw(st.lists(head, max_size=3)):
            points.add(h + (sign * draw(lasts),))
    xs = XS[:draw(st.integers(1, 2))]
    rows = {x: [draw(value_st) for _ in points] for x in xs}
    return extend_domain(Instance.build(dim, xs, points, rows))


@given(float_tied_tables())
def test_child_order_is_exact_where_floats_tie_in_any_coordinate(table):
    child = build_envelope(table)
    coords = [as_point(v).raw() for v in child.points]
    assert all(a < b for a, b in zip(coords, coords[1:]))
    assert_envelope_matches(table)


def dim1_instance(values, coords=(-1, Fraction(1, 2), 1)):
    return Instance.build(1, ("x0",), [(Fraction(c),) for c in coords], {"x0": values})


def dim1_table(values, coords=(-1, Fraction(1, 2), 1)):
    return extend_domain(dim1_instance(values, coords))


def test_bridge_falls_back_to_the_exact_hull_where_floats_cannot_tell(exact_hull_calls):
    # 1 + 2^-80 rounds to 1.0: in floats the middle point lies on the line
    # through its neighbours and the chain drops it, but it lies above that
    # line, so the certificate fails and the exact hull finds the bridge
    table = dim1_table([Fraction(1), 1 + TINY, Fraction(1)])
    assert_envelope_matches(table)
    assert exact_hull_calls
    assert build_envelope(table).values["x0"] == ((1 + TINY * 2 / 3).as_integer_ratio(),)


def test_bridge_certified_from_floats_runs_no_exact_hull(exact_hull_calls):
    table = dim1_table([Fraction(0), Fraction(1), Fraction(0)])
    assert_envelope_matches(table)
    assert not exact_hull_calls


def test_hull_falls_back_to_the_exact_chain_off_the_bridge(exact_hull_calls):
    # the bridge (-1, 1) is right in floats, but the plus vertex (2, 1 + 2^-80)
    # sits 2^-80 above the chord from (1, 1) to (3, 1): floats drop it, the
    # certificate of the whole hull fails there, and the exact chain keeps it.
    # C = 1 and every other plus point has slope (f - C) / y = 0, so U = 2^-81
    # is attained at that vertex alone
    coords, values = (-1, 1, 2, 3), [Fraction(-1), Fraction(1), 1 + TINY, Fraction(1)]
    assert_envelope_matches(dim1_table(values, coords))
    assert exact_hull_calls
    _, trace = select_affine(dim1_instance(values, coords))
    assert trace.levels[0].upper["x0"] == TINY / 2
    assert_bracket_matches_formula(dim1_instance(values, coords))


def test_hull_falls_back_to_the_exact_chain_where_floats_turn_the_wrong_way(exact_hull_calls):
    # -13/63 is the chord at 2/3 from (-1, -1) to (2, 3/7); 2^-80 below it the
    # point at 2/3 is no hull vertex, but the float chain keeps it and is not
    # concave.  With no point between its vertices, only the concavity test
    # rejects it: the bridge it proposes, (-1, 2/3), is not the hull's
    coords, values = (-1, Fraction(2, 3), 2), [Fraction(-1), Fraction(-13, 63) - TINY, Fraction(3, 7)]
    assert_envelope_matches(dim1_table(values, coords))
    assert exact_hull_calls


@st.composite
def duplicated_rows(draw):
    """An instance of distinct rows, and one holding those rows plus copies
    of some of them, in any order; ``source`` maps each id of the second to
    the id of the first whose row it holds."""
    inst = draw(instances())
    points = [p.raw() for p in inst.ys.points]
    rows = {}
    for x in inst.xs:
        row = [s.value for s in inst.values[x]]
        if row not in rows.values():
            rows[x] = row
    distinct = Instance.build(inst.n, tuple(rows), points, rows)
    copies = draw(st.lists(st.sampled_from(distinct.xs), min_size=1, max_size=4))
    source = {x: x for x in distinct.xs}
    source.update({f"d{i}": x for i, x in enumerate(copies)})
    xs = draw(st.permutations(list(source)))
    return distinct, Instance.build(inst.n, xs, points, {x: rows[source[x]] for x in xs}), source


def traced_bridges(inst):
    calls = []
    bridge = hyperplane._bridge

    def counted(*args):
        calls.append(None)
        return bridge(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hyperplane, "_bridge", counted)
        selector, trace = select_affine(inst)
    return selector, trace, len(calls)


@given(duplicated_rows())
def test_each_distinct_row_is_solved_once(case):
    distinct, inst, source = case
    want, want_trace, want_bridges = traced_bridges(distinct)
    got, trace, bridges = traced_bridges(inst)
    one = want_trace.levels[-2]     # dimension one
    assert want_bridges == (len(distinct.xs) if one.plus and one.minus else 0)
    assert bridges == want_bridges
    for x in inst.xs:
        assert got.b[x] == want.b[source[x]] and got.c[x] == want.c[source[x]]
    assert len(trace.levels) == len(want_trace.levels)
    for level, ref in zip(trace.levels, want_trace.levels):
        assert level.summary() == ref.summary()
        assert list(level.values) == list(inst.xs)
        for name in ("values", "upper", "lower", "base_c"):
            table, ref_table = getattr(level, name), getattr(ref, name)
            if ref_table is None:
                assert table is None
            else:
                assert list(table) == list(inst.xs)
                assert all(table[x] == ref_table[source[x]] for x in inst.xs)


@given(duplicated_rows())
def test_only_select_affine_copies_the_trace_to_every_row(case):
    # select_table's tables hold each distinct row once, under the first x
    # that holds it; select_affine gives every x that x's tables
    _, inst, source = case
    first = {}
    for x in inst.xs:
        first.setdefault(source[x], x)
    _, table_trace, rep = select_table(inst.n, inst.xs, extend_domain(inst), SelectConfig())
    assert rep == {x: first[source[x]] for x in inst.xs}
    _, trace = select_affine(inst)
    for own, level in zip(table_trace.levels, trace.levels, strict=True):
        for name in ("values", "upper", "lower", "base_c"):
            table, full = getattr(own, name), getattr(level, name)
            if table is not None:
                assert list(table) == list(first.values())
                assert list(full) == list(inst.xs)
                assert all(full[x] == table[first[source[x]]] for x in inst.xs)


@st.composite
def points_below_the_hull(draw):
    """Two copies of an instance with one more point q, a convex combination
    with rational weights of 2 to n + 1 of its points that is not one of
    them; each copy gives q, in every section, a value strictly below the
    same combination of the points' values."""
    n = draw(st.integers(1, 3))
    points = draw(st.lists(st.lists(coord_st, min_size=n, max_size=n).map(tuple),
                           min_size=2, max_size=7 if n == 3 else 10, unique=True))
    xs = XS[:draw(st.integers(1, 3))]
    rows = {x: [draw(value_st) for _ in points] for x in xs}
    picked = draw(st.lists(st.sampled_from(range(len(points))), min_size=2,
                           max_size=min(n + 1, len(points)), unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(picked), max_size=len(picked)))
    weights = [Fraction(w, sum(weights)) for w in weights]
    q = tuple(sum(w * points[i][k] for w, i in zip(weights, picked)) for k in range(n))
    assume(q not in points)
    below = st.integers(1, 12).map(lambda k: Fraction(k, 4))
    return [Instance.build(n, xs, points + [q],
                           {x: row + [sum(w * row[i] for w, i in zip(weights, picked)) - draw(below)]
                            for x, row in rows.items()})
            for _ in range(2)]


@given(points_below_the_hull(), st.sampled_from(["novikov", "tight"]))
def test_a_point_below_the_hull_does_not_move_the_selector(pair, base):
    # domination by an affine functional depends on a section only through
    # its upper concave envelope, so no value under it may decide B or C
    first, second = (select_affine(inst, SelectConfig(base=base))[0].serialize()
                     for inst in pair)
    assert first == second
