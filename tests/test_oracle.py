import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from affsel import oracle
from affsel.conelift import LinearSelector
from affsel.hyperplane import AffineSelector, Instance, select_affine
from affsel.instances import gen_affine_dominated
from affsel.numerics import AffselError, Point, PointSet, Scalar, primitive
from affsel.oracle import (
    DominationReport,
    check_domination,
    fm_feasible,
    verify_domination,
    verify_feature_domination,
    verify_subgradient_domination,
    verify_working_closure,
)
from affsel.subgradient import ConvexSectionInstance, SubgradientSelector, shift_to_origin
from conftest import make_instance


def exact(v):
    return Scalar(Fraction(v))


WORKED = make_instance(1, [Point.of(-1), Point.of(2)], {"x0": [exact(0), exact(1)]})


def affine(n, b, c):
    return AffineSelector(n=n, xs=("x0",), b={"x0": Point.of(*b)}, c={"x0": exact(c)})


class TestVerifyDomination:
    def test_worked_slacks(self):
        rep = verify_domination(WORKED, affine(1, ["1/2"], 1))
        assert rep.passed
        assert rep.min_slack["x0"] == exact("1/2")

    def test_trivial_dominator(self):
        rep = verify_domination(WORKED, affine(1, [0], 1))  # C = max f
        assert rep.passed

    def test_max_minus_one_fails(self):
        rep = verify_domination(WORKED, affine(1, [0], 0))  # C = max f - 1
        assert not rep.passed
        xs = {x for x, p, s in rep.failures}
        slacks = {s.value for x, p, s in rep.failures}
        assert xs == {"x0"} and min(slacks) == Fraction(-1)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception, match="dimension mismatch"):
            verify_domination(WORKED, affine(2, [0, 0], 5))


class TestOtherDominationChecks:
    def test_closure_names_failing_level_point(self):
        selector, trace = select_affine(WORKED)
        low = AffineSelector(n=1, xs=("x0",), b=selector.b, c={"x0": selector.c["x0"] - 1})
        rep = verify_working_closure(trace, low)
        assert not rep.passed
        assert rep.min_slack["x0"] == verify_working_closure(trace, selector).min_slack["x0"] - 1
        level_points = {as_point(v) for record in trace.levels for v in record.points}
        assert rep.failures and all(isinstance(p, Point) and p in level_points and s.value < 0
                                    for _, p, s in rep.failures)

    def test_feature_failure_names_sample_point(self):
        # phi(y) = (2y, 1); A = (1/2, -1) gives A.phi(y) = y - 1
        phi = {Point.of(-1): Point.of(-2, 1), Point.of(2): Point.of(4, 1)}
        sel = LinearSelector(n=2, xs=("x0",), a={"x0": Point.of("1/2", -1)},
                             epsilon={"x0": exact(0)}, exact={"x0": False},
                             lambda_max=1, cone_c={})
        rep = verify_feature_domination(WORKED, sel, phi)
        assert not rep.passed
        assert rep.failures == [("x0", Point.of(-1), exact(-2))]
        assert rep.min_slack == {"x0": exact(-2)}
        assert rep.serialize()["failures"] == [{"x": "x0", "y": ["-1"], "slack": "-2"}]

    def test_subgradient_failure_slack_includes_epsilon(self):
        # g = [1, 0, 2] at y = -1, 0, 2; p = 2, epsilon = 1: g - p.y + epsilon
        (bad,) = shift_to_origin(ConvexSectionInstance(instance=make_instance(
            1, [Point.of(-1), Point.of(0), Point.of(2)],
            {"x0": [exact(1), exact(0), exact(2)]}))).groups
        (good,) = shift_to_origin(ConvexSectionInstance(instance=make_instance(
            1, [Point.of(0)], {"x1": [exact(0)]}))).groups
        sel = SubgradientSelector(xs=("x0", "x1"), p={"x0": Point.of(2), "x1": Point.of(5)},
                                  epsilon={"x0": exact(1), "x1": exact(0)}, backend="exact")
        rep = verify_subgradient_domination([bad, good], sel)
        assert not rep.passed
        assert rep.failures == [("x0", Point.of(2), exact(-1))]
        assert rep.min_slack == {"x0": exact(-1), "x1": exact(0)}


def as_vector(coords):
    """(a_1, .., a_k, d) with coords = a / d over the least common denominator."""
    d = lcm(*(c.denominator for c in coords))
    return (*(c.numerator * (d // c.denominator) for c in coords), d)


def as_point(vector):
    return Point.of(*[Fraction(a, vector[-1]) for a in vector[:-1]])


def reference_check_domination(kind, xs, points, rows, const, coeffs, at=None):
    """The plain-Fraction loop that check_domination replaced, kept as its
    reference; ``at`` holds raw coordinates, not integer vectors."""
    if at is None:
        at = [p.raw() for p in points]
    min_slack = {}
    failures = []
    for x in xs:
        cx, bx, row = const[x], coeffs[x], rows[x]
        worst = None
        for j, praw in enumerate(at):
            rhs = cx
            for coeff, coord in zip(bx, praw):
                rhs = rhs + coeff * coord
            slack = rhs - row[j]
            if worst is None or slack < worst:
                worst = slack
            if slack < 0:
                failures.append((x, points[j], Scalar(slack)))
        min_slack[x] = None if worst is None else Scalar(worst)
    return DominationReport(kind=kind, passed=not failures, min_slack=min_slack,
                            failures=failures)


def as_pairs(rows):
    """Fraction rows as the reduced integer pairs ``check_domination`` takes."""
    return {x: [v.as_integer_ratio() for v in row] for x, row in rows.items()}


def assert_same_report(got, want):
    assert got.serialize() == want.serialize()
    assert got.failures == want.failures
    assert got.min_slack == want.min_slack


# small pool so that ties and zero slacks are common; large denominators too
RATIONALS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(max_denominator=10 ** 12),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
)


@st.composite
def domination_problems(draw):
    # dimension up to 5: an n=5 level carries six-entry vectors (a_1, .., a_5, d)
    dim = draw(st.integers(0, 5))
    at_dim = draw(st.sampled_from([dim, dim + 1, max(dim - 1, 0)]))
    # the tiny tables the cone lift checks (1-4 points) and larger levels
    count = draw(st.one_of(st.integers(0, 4), st.integers(5, 40)))
    points = [Point.of(*draw(st.lists(RATIONALS, min_size=dim, max_size=dim)))
              for _ in range(count)]
    at = None
    if at_dim != dim or draw(st.booleans()):
        at = [tuple(draw(st.lists(RATIONALS, min_size=at_dim, max_size=at_dim)))
              for _ in range(count)]
    width = dim if at is None else at_dim
    xs = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    const = {x: draw(RATIONALS) for x in xs}
    coeffs = {x: tuple(draw(st.lists(RATIONALS, min_size=width, max_size=width))) for x in xs}
    rows = {}
    for i, x in enumerate(xs):
        if i and draw(st.booleans()):
            # the section repeats an earlier section's row, as a parameter
            # whose values equal another's does
            rows[x] = list(rows[xs[draw(st.integers(0, i - 1))]])
            continue
        evaluate = at if at is not None else [p.raw() for p in points]
        row = []
        for coords in evaluate:
            exact_rhs = const[x] + sum((c * v for c, v in zip(coeffs[x], coords)), Fraction(0))
            # on the functional (zero slack), or off it by a drawn amount
            row.append(exact_rhs - draw(st.one_of(st.just(Fraction(0)), RATIONALS)))
        rows[x] = row
    return xs, points, rows, const, coeffs, at


class TestIntegerKernel:
    @given(domination_problems())
    def test_matches_fraction_loop(self, problem):
        xs, points, rows, const, coeffs, at = problem
        vectors = None if at is None else [as_vector(coords) for coords in at]
        assert_same_report(check_domination("closure", xs, points, as_pairs(rows), const,
                                            coeffs, vectors),
                           reference_check_domination("closure", xs, points, rows, const,
                                                      coeffs, at))

    @given(domination_problems(), st.data())
    def test_unreduced_pairs_give_the_reduced_report(self, problem, data):
        # a row value may be any pair (k p, k q) with k > 0, (2p, 2q) among them
        xs, points, rows, const, coeffs, at = problem
        vectors = None if at is None else [as_vector(coords) for coords in at]
        factor = st.one_of(st.just(2), st.integers(1, 10 ** 12))
        scaled = {}
        for x, row in as_pairs(rows).items():
            ks = data.draw(st.lists(factor, min_size=len(row), max_size=len(row)))
            scaled[x] = [(k * p, k * q) for k, (p, q) in zip(ks, row)]
        got = check_domination("closure", xs, points, scaled, const, coeffs, vectors)
        assert_same_report(got, check_domination("closure", xs, points, as_pairs(rows),
                                                 const, coeffs, vectors))
        assert_same_report(got, reference_check_domination("closure", xs, points, rows,
                                                           const, coeffs, at))
        assert all(type(s.value) is Fraction for s in got.min_slack.values() if s is not None)

    def test_empty_points_and_dim0(self):
        rep = check_domination("sample", ["x0"], [], {"x0": []}, {"x0": Fraction(1)},
                               {"x0": ()})
        assert rep.passed and rep.min_slack == {"x0": None}
        rows = {"x0": [(5, 2)]}
        rep = check_domination("closure", ["x0"], [Point.of()], rows, {"x0": Fraction(2)},
                               {"x0": ()})
        assert rep.failures == [("x0", Point.of(), exact("-1/2"))]
        assert rep.min_slack == {"x0": exact("-1/2")}

    def test_least_slack_tie_keeps_reduced_value(self):
        # the first two slacks tie at 1/2, computed as 9/18 and 25/50; the third is 1
        pts = [Point.of("1/3"), Point.of("1/5"), Point.of(0)]
        rows = {"x0": [(1, 3), (1, 5), (-1, 2)]}
        rep = check_domination("sample", ["x0"], pts, rows, {"x0": Fraction(1, 2)},
                               {"x0": (Fraction(1),)})
        assert rep.min_slack["x0"].serialize() == "1/2"

    @pytest.mark.parametrize("b", [(0, 10), ()])
    def test_coefficients_of_the_wrong_width_are_refused(self, b):
        # y = 1 and y = 2, both with value 5, under the constant 0: a second
        # coefficient would multiply the denominator d and pass with slack 5,
        # a missing one would read as 0
        pts = [Point.of(1), Point.of(2)]
        rows = {"x0": [(5, 1), (5, 1)]}
        with pytest.raises(AffselError, match=rf"^section x0: {len(b)} coefficients "
                                              r"for points of dimension 1$"):
            check_domination("sample", ["x0"], pts, rows, {"x0": Fraction(0)}, {"x0": b})
        rep = check_domination("sample", ["x0"], pts, rows, {"x0": Fraction(0)},
                               {"x0": (Fraction(0),)})
        assert len(rep.failures) == 2 and rep.min_slack == {"x0": exact(-5)}

    def test_vectors_of_different_widths_are_refused(self):
        # read as columns, a one-coordinate vector would cut the others to its
        # width, and their last coordinate would pass for their denominator
        at = [(1, 2, 1), (3, 1)]
        with pytest.raises(ValueError):
            check_domination("feature", ["x0"], [Point.of(0), Point.of(1)],
                             {"x0": [(0, 1), (0, 1)]}, {"x0": Fraction(0)},
                             {"x0": (Fraction(1), Fraction(1))}, at=at)

    @pytest.mark.parametrize("a", [("1/2",), ("1/2", -1, 3)])
    def test_feature_selector_of_the_wrong_width_is_refused(self, a):
        phi = {Point.of(-1): Point.of(-2, 1), Point.of(2): Point.of(4, 1)}
        sel = LinearSelector(n=len(a), xs=("x0",), a={"x0": Point.of(*a)},
                             epsilon={"x0": exact(0)}, exact={"x0": False},
                             lambda_max=1, cone_c={})
        with pytest.raises(AffselError, match=rf"^section x0: {len(a)} coefficients "
                                              r"for points of dimension 2$"):
            verify_feature_domination(WORKED, sel, phi)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closure_on_selector_traces_with_lowered_c(self, n):
        # n=4 on one small file, of levels 8 -> 16 -> 63 -> 945 -> 0 points
        sizes = [(seed, 3, 6 + 2 * n) for seed in range(3)] if n < 4 else [(0, 2, 8)]
        for seed, nx, ny in sizes:
            inst = gen_affine_dominated(seed, n, nx, ny).to_instance()
            selector, trace = select_affine(inst)
            good = verify_working_closure(trace, selector)
            assert good.passed
            for drop in (Fraction(1, 7), Fraction(3)):
                # below the least closure slack by ``drop``, so every section fails
                low = AffineSelector(n=n, xs=selector.xs, b=selector.b, c={
                    x: exact(selector.c[x].value - good.min_slack[x].value - drop)
                    for x in selector.xs})
                rep = verify_working_closure(trace, low)
                assert not rep.passed
                reference = [reference_check_domination(
                    "closure", low.xs, [as_point(v) for v in record.points],
                    {x: [Fraction(*v) for v in row] for x, row in record.values.items()},
                    {x: low.c[x].value for x in low.xs},
                    {x: low.b[x].raw()[:record.dim] for x in low.xs})
                    for record in trace.levels]
                assert rep.failures == [f for r in reference for f in r.failures]
                for x in low.xs:
                    assert rep.min_slack[x].value == min(
                        r.min_slack[x].value for r in reference if r.min_slack[x] is not None)
                    assert rep.min_slack[x].value == -drop


class TestFmFeasible:
    def test_affine_always_feasible(self):
        res = fm_feasible(WORKED.ys, WORKED.values, homogeneous=False)
        assert res["x0"].feasible
        # witness dominates with zero slack
        w = res["x0"].witness
        sel = AffineSelector(n=1, xs=("x0",), b={"x0": Point(w[:-1])}, c={"x0": w[-1]})
        assert verify_domination(WORKED, sel).passed

    def test_homogeneous_origin_positive_infeasible(self):
        inst = make_instance(1, [Point.of(0)], {"x0": [exact(1)]})
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert not res["x0"].feasible
        cert = res["x0"].certificate
        assert cert.replays_to_contradiction()
        combined, rhs = cert.replay()
        assert all(c == 0 for c in combined) and rhs > 0

    def test_interval_midpoint(self):
        inst = make_instance(1, [Point.of(1), Point.of(-1)],
                             {"x0": [exact(2), exact(-3)]})
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert res["x0"].witness == (exact("5/2"),)

    def test_pinned_interval(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)],
                             {"x0": [exact(-2), exact(4)]})   # f = 2y
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert res["x0"].witness == (exact(2),)

    def test_unbounded_both_ways(self):
        inst = make_instance(1, [Point.of(0)], {"x0": [exact(0)]})
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert res["x0"].feasible and res["x0"].witness == (exact(0),)

    def test_permutation_determinism(self):
        pts = [Point.of(1, 2), Point.of(-1, 0), Point.of(3, -2), Point.of(0, 1)]
        vals = [exact(1), exact(-1), exact(2), exact(0)]
        a = make_instance(2, pts, {"x0": vals})
        order = [3, 1, 0, 2]
        b = make_instance(2, [pts[i] for i in order], {"x0": [vals[i] for i in order]})
        ra = fm_feasible(a.ys, a.values, homogeneous=False)
        rb = fm_feasible(b.ys, b.values, homogeneous=False)
        assert ra["x0"].witness == rb["x0"].witness

    @given(st.integers(0, 10 ** 6))
    def test_planted_feasible_witness_dominates(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 3)
        pts, seen = [], set()
        for _ in range(rng.randint(1, 7)):
            p = Point.of(*[Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                           for _ in range(n)])
            if p.raw() not in seen:
                seen.add(p.raw())
                pts.append(p)
        b = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
        c = Fraction(rng.randint(-8, 8))
        rows = {"x0": [exact(sum((coef * coord.value for coef, coord in zip(b, p.coords)),
                                 start=c) - Fraction(rng.randint(0, 9), 2)) for p in pts]}
        inst = make_instance(n, pts, rows)
        res = fm_feasible(inst.ys, inst.values, homogeneous=False)
        assert res["x0"].feasible
        w = res["x0"].witness
        sel = AffineSelector(n=n, xs=("x0",), b={"x0": Point(w[:-1])}, c={"x0": w[-1]})
        assert verify_domination(inst, sel).passed
        worst = verify_domination(inst, sel).min_slack["x0"]
        assert worst.value >= 0


class TestExactLinearSelect:
    """Exact linear selection: the witness of the homogeneous system."""

    def test_pinned(self):
        inst = make_instance(1, [Point.of(-1), Point.of(2)],
                             {"x0": [exact(-2), exact(4)]})
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert res["x0"].feasible and res["x0"].witness == (exact(2),)

    def test_infeasible_error_lists_sections(self):
        inst = make_instance(1, [Point.of(0)], {"x0": [exact(1)], "x1": [exact(0)]})
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert {x for x, r in res.items() if not r.feasible} == {"x0"}
        assert res["x0"].certificate.replays_to_contradiction()

    def test_agreement_with_select_affine(self):
        selector, _ = select_affine(WORKED)
        assert verify_domination(WORKED, selector).passed
        res = fm_feasible(WORKED.ys, WORKED.values, homogeneous=False)
        assert res["x0"].feasible


class TestEmptySamples:
    def test_empty_constraints_witness_arity(self):
        for n in (2, 3):
            ps = PointSet(n, [])
            res = fm_feasible(ps, {"x0": []}, homogeneous=True)
            assert res["x0"].feasible
            assert res["x0"].witness == (exact(0),) * n
            res_aff = fm_feasible(ps, {"x0": []}, homogeneous=False)
            assert res_aff["x0"].witness == (exact(0),) * (n + 1)

    def test_exact_linear_select_empty(self):
        # the linear selection an instance with no samples gets from the
        # elimination witness is the zero point
        inst = Instance.build(3, ("x0",), [], {"x0": []})
        res = fm_feasible(inst.ys, inst.values, homogeneous=True)
        assert res["x0"].feasible
        assert Point(res["x0"].witness) == Point.of(0, 0, 0)


# ---------------------------------------------------------------------------
# Fourier-Motzkin against the plain-Fraction elimination it replaced
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ineq:
    """coeffs . v >= rhs, tracked as a nonnegative combination of originals."""

    coeffs: tuple
    rhs: Fraction
    combo: tuple

    def normalized(self):
        denom = lcm(*(c.denominator for c in self.coeffs), self.rhs.denominator)
        scaled = [c * denom for c in self.coeffs]
        rhs = self.rhs * denom
        g = 0
        for c in scaled:
            g = gcd(g, abs(c.numerator))
        g = gcd(g, abs(rhs.numerator))
        factor = Fraction(denom)
        if g > 1:
            scaled = [c / g for c in scaled]
            rhs = rhs / g
            factor = Fraction(denom, g)
        return _Ineq(tuple(scaled), rhs, tuple((i, m * factor) for i, m in self.combo))

    def trivial(self):
        return all(c == 0 for c in self.coeffs) and self.rhs <= 0

    def contradiction(self):
        return all(c == 0 for c in self.coeffs) and self.rhs > 0


def _dedup_keep_first(ineqs):
    seen, out = set(), []
    for q in ineqs:
        if (q.coeffs, q.rhs) not in seen:
            seen.add((q.coeffs, q.rhs))
            out.append(q)
    return out


def _reference_eliminate(ineqs, var):
    lower = [q for q in ineqs if q.coeffs[var] > 0]
    upper = [q for q in ineqs if q.coeffs[var] < 0]
    out = [q for q in ineqs if q.coeffs[var] == 0]
    for p in lower:
        for q in upper:
            mp, mq = -q.coeffs[var], p.coeffs[var]
            combo = {}
            for i, m in p.combo:
                combo[i] = combo.get(i, Fraction(0)) + mp * m
            for i, m in q.combo:
                combo[i] = combo.get(i, Fraction(0)) + mq * m
            out.append(_Ineq(tuple(mp * a + mq * b for a, b in zip(p.coeffs, q.coeffs)),
                             mp * p.rhs + mq * q.rhs, tuple(sorted(combo.items())))
                       .normalized())
    return _dedup_keep_first([q for q in out if not q.trivial()])


def reference_solve_system(constraints, width):
    """The elimination fm_feasible ran before it moved to integers and
    Chernikov's rule: (feasible, witness Fractions or None, certificate
    multipliers or None)."""
    canon = sorted(constraints)
    system = _dedup_keep_first([q for q in (
        _Ineq(c, r, ((i, Fraction(1)),)).normalized() for i, (c, r) in enumerate(canon))
        if not q.trivial()])
    stages = [system]
    for var in range(width - 1, -1, -1):
        stages.append(_reference_eliminate(stages[-1], var))
    for stage in stages:
        bad = next((q for q in stage if q.contradiction()), None)
        if bad is not None:
            return False, None, dict(bad.combo)
    values = []
    for var in range(width):
        lo = hi = None
        for q in stages[width - 1 - var]:
            s = q.coeffs[var]
            if s == 0:
                continue
            bound = (q.rhs - sum((c * v for c, v in zip(q.coeffs, values)), Fraction(0))) / s
            if s > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            values.append((lo + hi) / 2)
        else:
            values.append(lo if lo is not None else hi if hi is not None else Fraction(0))
    return True, tuple(values), None


def fm_constraints(points, row, homogeneous):
    """The system fm_feasible builds for one section: a . y (+ c) >= f(y)."""
    return [(p.raw() + (() if homogeneous else (Fraction(1),)), v.value)
            for p, v in zip(points.points, row)]


def assert_matches_reference(points, row, homogeneous):
    got = fm_feasible(points, {"x0": row}, homogeneous)["x0"]
    width = points.dim + (0 if homogeneous else 1)
    feasible, witness, _ = reference_solve_system(
        fm_constraints(points, row, homogeneous), width)
    assert got.feasible == feasible
    if feasible:
        assert tuple(s.value for s in got.witness) == witness
    else:
        cert = got.certificate
        assert all(m >= 0 for m in cert.multipliers.values())
        assert cert.replays_to_contradiction()
    return got


# a small pool, so that eliminations build many equal rows
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def fm_problems(draw):
    n = draw(st.integers(0, 3))
    homogeneous = draw(st.booleans())
    coords = draw(st.lists(st.tuples(*[SMALL] * n), max_size=8, unique=True))
    points = PointSet(n, [Point.of(*c) for c in sorted(coords)])
    if draw(st.booleans()):
        # planted below a linear functional: feasible
        a = draw(st.tuples(*[SMALL] * n))
        row = [exact(sum((x * y for x, y in zip(a, p.raw())), Fraction(0))
                     - draw(st.sampled_from([0, Fraction(1, 2), 2]))) for p in points.points]
    else:
        # free values: homogeneous systems are often infeasible
        row = [exact(draw(SMALL)) for _ in points.points]
    return points, row, homogeneous


class TestFmAgainstReference:
    @given(fm_problems())
    def test_matches_fraction_elimination(self, problem):
        assert_matches_reference(*problem)

    def test_equal_rows_keep_the_smaller_support(self):
        # infeasible; keeping the first of two equal derived rows, whatever
        # their supports, prunes a later combination and labels it feasible
        # with a witness that breaks the first row
        inst = make_instance(3, [Point.of(0, 0, 2), Point.of(1, 1, 0), Point.of(-1, 0, -2),
                                 Point.of(-1, 1, 2), Point.of(1, -1, -1)],
                             {"x0": [exact(v) for v in (0, 2, 2, -2, 2)]})
        got = assert_matches_reference(inst.ys, inst.values["x0"], homogeneous=True)
        assert not got.feasible

    def test_pruning_runs_before_dedup(self):
        # a subgradient-fm system (seed 1, job 844); pruning a stage after
        # dropping equal rows can drop the only copy of a needed row, and
        # then gives a witness that breaks the system
        coords = [("-34/7", -3, "-4/3"), ("-5/2", "-6/7", 5), ("-13/6", "-4/5", "-1/2"),
                  (0, 0, 0), (1, "7/2", 2), ("7/2", "4/5", "20/7")]
        rhs = ["499/35", "-767/70", "383/75", 0, "-133/10", "-4729/350"]
        inst = make_instance(3, [Point.of(*c) for c in coords], {"x0": [exact(v) for v in rhs]})
        got = assert_matches_reference(inst.ys, inst.values["x0"], homogeneous=True)
        assert got.witness == (exact(-1), exact("-9/5"), exact(-3))

    def test_certificate_multipliers_are_exact(self):
        # the combination is exactly 0 >= 1, as in the reference
        inst = make_instance(1, [Point.of(-1), Point.of(1)], {"x0": [exact(1), exact(2)]})
        cert = fm_feasible(inst.ys, inst.values, homogeneous=True)["x0"].certificate
        assert cert.replay() == ((Fraction(0),), Fraction(1))
        assert cert.multipliers == {0: Fraction(1, 3), 1: Fraction(1, 3)}

    def test_rows_obey_chernikovs_bound(self, monkeypatch):
        # after t eliminations no row combines more than t + 1 originals
        real, seen = oracle._eliminate, []

        def checked(rows, var, t):
            out, bad = real(rows, var, t)
            seen.extend(row[2].bit_count() - (t + 1) for row in out)
            return out, bad

        monkeypatch.setattr(oracle, "_eliminate", checked)
        points = PointSet(3, [Point.of(a, b, c) for a in (-1, 1, 2) for b in (-1, 1, 3)
                              for c in (-2, 1)])
        row = [exact(-a.value - 2 * b.value + c.value - 1) for a, b, c in
               (p.coords for p in points.points)]
        assert fm_feasible(points, {"x0": row}, homogeneous=True)["x0"].feasible
        # some rows sit on the bound
        assert max(seen) == 0


# sample coordinates; values take RATIONALS, large denominators included
COORDS = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@st.composite
def shifted_sections(draw):
    """A canonical sample without duplicate points (n = 0..3, at most 12
    points, the origin often among them) and one value row with value zero
    at the origin: convex (a max of linear functions, so the negated system
    is feasible), concave (a min of them: infeasible unless they agree on the
    sample), or free values."""
    n = draw(st.integers(0, 3))
    origin = (Fraction(0),) * n
    coords = set(draw(st.lists(st.tuples(*[COORDS] * n), max_size=11, unique=True)))
    if draw(st.booleans()):
        coords.add(origin)
    points = PointSet(n, [Point.of(*c) for c in sorted(coords)])
    kind = draw(st.sampled_from(["convex", "concave", "free"]))
    if kind == "free":
        row = [Fraction(0) if p.raw() == origin else draw(RATIONALS) for p in points]
    else:
        slopes = draw(st.lists(st.tuples(*[RATIONALS] * n), min_size=1, max_size=3))
        pick = max if kind == "convex" else min
        row = [pick(sum((a * y for a, y in zip(s, p.raw())), Fraction(0)) for s in slopes)
               for p in points]
    return points, [exact(v) for v in row]


class TestIntegerEntry:
    """``solve_rows`` on integer vectors and value pairs against the Fraction
    paths: ``fm_feasible`` on the same values (negated, as the subgradient
    backend asks) and the reference elimination."""

    @given(shifted_sections(), st.booleans())
    def test_matches_fraction_paths(self, section, negate):
        points, row = section
        sign = -1 if negate else 1
        signed = [exact(sign * v.value) for v in row]
        got = oracle.solve_rows([primitive(p.raw()) for p in points],
                                [v.value.as_integer_ratio() for v in row], points.dim,
                                negate=negate)
        want = fm_feasible(points, {"x0": signed}, homogeneous=True)["x0"]
        assert got.feasible == want.feasible
        if got.feasible:
            assert got.witness == want.witness
            assert got.certificate is None
        else:
            assert got.witness is None
            assert got.certificate.multipliers == want.certificate.multipliers
            assert got.certificate.constraints == want.certificate.constraints
            assert got.certificate.replays_to_contradiction()
            assert want.certificate.replays_to_contradiction()
        # last, as it costs the most: about a second on 12 points at n = 3,
        # which a failing example's shrinking would pay many times over
        feasible, witness, _ = reference_solve_system(
            fm_constraints(points, signed, True), points.dim)
        assert got.feasible == feasible
        if feasible:
            assert tuple(s.value for s in got.witness) == witness

    def test_proportional_constraints_enter_the_elimination_once(self, monkeypatch):
        # y = 1, 2, 3 with values 2, 4, 6 (negated) are one constraint a >= -2
        # once each row is divided by its gcd; -1 with value 5 is a second
        real, seen = oracle._eliminate, []

        def recorded(rows, var, t):
            seen.append([row[:2] for row in rows])
            return real(rows, var, t)

        monkeypatch.setattr(oracle, "_eliminate", recorded)
        got = oracle.solve_rows([(-1, 1), (1, 1), (2, 1), (3, 1)],
                                [(5, 1), (2, 1), (4, 1), (6, 1)], 1, negate=True)
        assert seen == [[((-1,), -5), ((1,), -2)]]
        assert got.witness == (exact(Fraction(3, 2)),)

    def test_concave_at_the_origin_is_infeasible(self):
        # -|y| on {-1, 0, 1}: no p with p.y <= g(y) on both sides
        points = PointSet(1, [Point.of(-1), Point.of(0), Point.of(1)])
        got = oracle.solve_rows([primitive(p.raw()) for p in points],
                                [(-1, 1), (0, 1), (-1, 1)], 1, negate=True)
        assert not got.feasible
        assert got.certificate.multipliers == {0: Fraction(1, 2), 2: Fraction(1, 2)}
        assert got.certificate.constraints == [((Fraction(-1),), Fraction(1)),
                                               ((Fraction(0),), Fraction(0)),
                                               ((Fraction(1),), Fraction(1))]
        assert got.certificate.replays_to_contradiction()
