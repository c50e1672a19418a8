"""Independent verification: zero-slack domination checks and an exact
feasibility decision procedure.

The domination check, ``check_domination``, runs in integers.  It reads the
points as primitive integer vectors one coordinate column at a time: the
affine part of every point in a section comes from C-level maps over the
columns, and one loop then takes the least slack and the failures in point
order.

The feasibility oracle decides, by Fourier-Motzkin elimination, whether a
finite value table admits an affine (or linear) dominator, and
back-substitutes a deterministic witness or replays an infeasibility
certificate.  The elimination runs in integers from its input to its answer.
Its entry, ``solve_rows``, takes the constraints as integer rows already in
canonical order: each point as its primitive integer vector and each value as
an integer pair, negated on request, which is how the subgradient backend
hands over a shifted group.  ``fm_feasible`` is the Fraction adapter in
front of it: it sorts the constraints and converts them.  Each row of the
elimination is a primitive integer inequality, and its combination of the
input constraints is held as integer multipliers over one integer scale;
Fractions are built only for the witness and for a certificate.  Chernikov's
rule (after t eliminations, a row that combines more than t + 1 input
constraints is implied by the others) keeps the rows from multiplying.  The
oracle imports only ``numerics`` and shares no code path with the recursive
selector, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .numerics import AffselError, Point, PointSet, Scalar, primitive


class InfeasibleSectionsError(AffselError):
    def __init__(self, infeasible: dict):
        self.infeasible = infeasible
        super().__init__(
            "no linear dominator exists for sections: " + ", ".join(sorted(infeasible)))


# ---------------------------------------------------------------------------
# domination reports
# ---------------------------------------------------------------------------


@dataclass
class DominationReport:
    kind: str
    passed: bool
    min_slack: Dict[str, Optional[Scalar]]
    failures: List[tuple] = field(default_factory=list)   # (x, point, slack)

    def serialize(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "min_slack": {x: (s.serialize() if s is not None else None)
                          for x, s in self.min_slack.items()},
            "failures": [
                {"x": x, "y": p.serialize(), "slack": s.serialize()}
                for x, p, s in self.failures
            ],
        }


def check_domination(kind: str, xs: Sequence[str], points: Sequence,
                     rows: Mapping[str, Sequence[Tuple[int, int]]],
                     const: Mapping[str, Fraction], coeffs: Mapping[str, Sequence[Fraction]],
                     at: Optional[Sequence[tuple]] = None) -> DominationReport:
    """Check rows[x][j] <= const[x] + coeffs[x] . y_j for every section x and
    sample index j, with zero tolerance.

    rows[x][j] is the value p / q as the integer pair (p, q) with q > 0,
    reduced (``pair_rows``) or not.  ``at`` holds each y_j as its integer
    vector (a_1, .., a_k, d) with y_j = a / d (``numerics.primitive``) and
    defaults to the vectors of ``points``; coeffs[x] must have k entries,
    or AffselError names the section and both widths.
    Failures name points[j].

    The vectors are read once, as k + 1 columns: a_1 .. a_k of every point,
    then d.  With the section's (const, coeffs) = (c0, b) / d_x, its affine
    parts c0 d + b . a come from maps over those columns, and one loop over
    the points takes the slack ((c0 d + b . a) q - p d_x d) / (d_x d q)
    over a positive denominator.  A Fraction is built only for the least
    slack and for failures; being reduced, it equals the plain Fraction
    difference.  Vectors of different lengths, or a row or point list of
    another length than the vectors', raise ValueError.
    """
    if at is None:
        at = [primitive(p.raw()) for p in points]
    *cols, ds = zip(*at, strict=True) if at else ((),)
    min_slack: Dict[str, Optional[Scalar]] = {}
    failures: List[tuple] = []
    for x in xs:
        c0, *b, d_x = primitive((const[x], *coeffs[x]))
        if len(b) != len(cols) and at:
            raise AffselError(f"section {x}: {len(b)} coefficients for points "
                              f"of dimension {len(cols)}")
        parts = map(mul, repeat(c0), ds)
        for c, col in zip(b, cols):
            parts = map(add, parts, map(mul, repeat(c), col))
        worst_num, worst_den = 0, 0          # worst_den == 0: no slack seen yet
        for part, (p, q), d, y in zip(parts, rows[x], ds, points, strict=True):
            den = d_x * d
            num = part * q - p * den
            den *= q
            if not worst_den or num * worst_den < worst_num * den:
                worst_num, worst_den = num, den
            if num < 0:
                failures.append((x, y, Scalar(Fraction(num, den))))
        min_slack[x] = Scalar(Fraction(worst_num, worst_den)) if worst_den else None
    return DominationReport(kind=kind, passed=not failures, min_slack=min_slack,
                            failures=failures)


def _merged(kind: str, xs: Sequence[str], reports) -> DominationReport:
    """One report for several checks: failures in check order, the least
    slack per section."""
    min_slack: Dict[str, Optional[Scalar]] = {x: None for x in xs}
    failures: List[tuple] = []
    for rep in reports:
        failures.extend(rep.failures)
        for x, s in rep.min_slack.items():
            if s is not None and (min_slack[x] is None or s.value < min_slack[x].value):
                min_slack[x] = s
    return DominationReport(kind=kind, passed=not failures, min_slack=min_slack,
                            failures=failures)


def pair_rows(inst) -> Dict[str, List[Tuple[int, int]]]:
    """The instance's values as the rows ``check_domination`` takes: each
    value as its reduced integer pair."""
    return {x: [(s.value.numerator, s.value.denominator) for s in inst.values[x]]
            for x in inst.xs}


def verify_domination(inst, selector, kind: str = "affine") -> DominationReport:
    """Check f(x, y) <= B(x).y + C(x) (affine) or f(x, y) <= A(x).y + epsilon(x)
    (linear) for every sample point, with zero tolerance."""
    if kind not in ("affine", "linear"):
        raise AffselError(f"unknown verification kind {kind!r}")
    if selector.n != inst.n:
        raise AffselError(f"dimension mismatch: selector n={selector.n}, instance n={inst.n}")
    const, coeffs = (selector.c, selector.b) if kind == "affine" else (selector.epsilon, selector.a)
    return check_domination(kind, inst.xs, inst.ys.points, pair_rows(inst),
                            {x: const[x].value for x in inst.xs},
                            {x: coeffs[x].raw() for x in inst.xs})


def verify_working_closure(trace, selector) -> DominationReport:
    """Check domination on every working point recorded by the recursion.

    A level of dimension k embeds into the full space with trailing zeros, so
    the first k coefficients of the selector plus the constant must dominate
    the level's table.
    """
    xs = selector.xs
    const = {x: selector.c[x].value for x in xs}
    b = {x: selector.b[x].raw() for x in xs}
    report = _merged("closure", xs, (
        check_domination("closure", xs, level.points, level.values, const,
                         {x: b[x][:level.dim] for x in xs}, at=level.points)
        for level in trace.levels))
    # a level holds integer vectors (a, d); a failure names the point a / d
    report.failures = [(x, Point(Scalar(Fraction(c, v[-1])) for c in v[:-1]), s)
                       for x, v, s in report.failures]
    return report


def verify_feature_domination(inst, selector, phi: Mapping[Point, Point]) -> DominationReport:
    """Check f(x, y) <= A(x).phi(y) + epsilon(x) for every sample point y;
    failures name y, not its feature image."""
    return check_domination("feature", inst.xs, inst.ys.points, pair_rows(inst),
                            {x: selector.epsilon[x].value for x in inst.xs},
                            {x: selector.a[x].raw() for x in inst.xs},
                            at=[primitive(phi[p].raw()) for p in inst.ys.points])


def verify_subgradient_domination(groups, selector) -> DominationReport:
    """Check p(x).y - epsilon(x) <= g(x, y) on every shifted section group
    (``subgradient.ShiftGroup``), as -g <= epsilon + (-p).y, whose slack
    g - p.y + epsilon is the same.  It reads each group's value pairs and
    integer vectors, and its ``instance`` only to name a failing point."""
    reports = []
    for g in groups:
        neg = [(-p, q) for p, q in g.pairs]
        report = check_domination(
            "subgradient", g.xs, range(len(neg)), dict.fromkeys(g.xs, neg),
            {x: selector.epsilon[x].value for x in g.xs},
            {x: [-c for c in selector.p[x].raw()] for x in g.xs}, at=g.vectors)
        if report.failures:
            points = g.instance.ys.points
            report.failures = [(x, points[j], s) for x, j, s in report.failures]
        reports.append(report)
    return _merged("subgradient", [x for r in reports for x in r.min_slack], reports)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


@dataclass
class InfeasibilityCertificate:
    """Nonnegative multipliers on the original constraints whose combination
    has zero coefficients and a strictly positive right-hand side: replaying
    it shows 0 >= positive, i.e. 0 <= negative constant."""

    multipliers: Dict[int, Fraction]
    constraints: List[Tuple[Tuple[Fraction, ...], Fraction]]

    def replay(self) -> Tuple[Tuple[Fraction, ...], Fraction]:
        width = len(self.constraints[0][0]) if self.constraints else 0
        combined = [Fraction(0)] * width
        rhs = Fraction(0)
        for idx, mult in self.multipliers.items():
            if mult < 0:
                raise AffselError("certificate multiplier is negative")
            coeffs, c_rhs = self.constraints[idx]
            for i, c in enumerate(coeffs):
                combined[i] += mult * c
            rhs += mult * c_rhs
        return tuple(combined), rhs

    def replays_to_contradiction(self) -> bool:
        combined, rhs = self.replay()
        return all(c == 0 for c in combined) and rhs > 0


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: Optional[Tuple[Scalar, ...]] = None
    certificate: Optional[InfeasibilityCertificate] = None


# A row of the elimination is a tuple (coeffs, rhs, support, combo, scale):
# the primitive integer inequality coeffs . v >= rhs, the bit set of the
# original constraints it combines, and its combination, int multipliers over
# one positive int scale: the row equals the sum over (i, m) in combo of
# m / scale times constraint i.  Combination and scale share no common factor.


def _eliminate(rows: list, var: int, t: int) -> Tuple[list, Optional[tuple]]:
    """The rows without ``var``, or a contradiction 0 >= 1 as soon as one is
    built.  This is elimination number t.

    Chernikov's rule: after t eliminations a row that combines more than t + 1
    original constraints is implied by the others, so it is never built.  A
    row equal to a kept one built from a subset of its originals is dropped;
    keeping the first of two equal rows whatever their supports could later
    prune a combination that only the dropped one would have kept.
    """
    lower, upper, out = [], [], []
    for row in rows:
        s = row[0][var]
        (lower if s > 0 else upper if s < 0 else out).append(row)
    seen: Dict[tuple, List[int]] = {}
    for k, row in enumerate(out):
        seen.setdefault(row[:2], []).append(k)
    limit = t + 1
    for p_coeffs, p_rhs, p_support, p_combo, p_scale in lower:
        ap = p_coeffs[var]
        for q_coeffs, q_rhs, q_support, q_combo, q_scale in upper:
            support = p_support | q_support
            if support.bit_count() > limit:
                continue
            aq = -q_coeffs[var]
            h = gcd(ap, aq)
            mp, mq = aq // h, ap // h      # both positive
            coeffs = tuple(mp * a + mq * b for a, b in zip(p_coeffs, q_coeffs))
            rhs = mp * p_rhs + mq * q_rhs
            g = gcd(*coeffs, rhs)
            if g > 1:
                coeffs = tuple(c // g for c in coeffs)
                rhs //= g
            constant = not any(coeffs)
            if constant and rhs <= 0:
                continue                   # 0 >= 0 or 0 >= negative
            wp, wq = mp * q_scale, mq * p_scale
            combo = {i: wp * m for i, m in p_combo}
            for i, m in q_combo:
                combo[i] = combo.get(i, 0) + wq * m
            scale = p_scale * q_scale * g
            r = gcd(scale, *combo.values())
            row = (coeffs, rhs, support,
                   tuple((i, m // r) for i, m in sorted(combo.items())), scale // r)
            if constant:
                return out, row
            places = seen.setdefault((coeffs, rhs), [])
            if any(out[k][2] & support == out[k][2] for k in places):
                continue
            places.append(len(out))
            out.append(row)
    return out, None


def _certificate(row: tuple, at, pairs, sign: int) -> FeasibilityResult:
    _, _, _, combo, scale = row
    multipliers = {i: Fraction(m, scale) for i, m in combo}
    constraints = [(tuple([Fraction(a, v[-1]) for a in v[:-1]]), Fraction(sign * p, q))
                   for v, (p, q) in zip(at, pairs)]
    return FeasibilityResult(feasible=False,
                             certificate=InfeasibilityCertificate(multipliers, constraints))


def solve_rows(at: Sequence[tuple], pairs: Sequence[Tuple[int, int]], width: int,
               negate: bool = False) -> FeasibilityResult:
    """Decide {v : y_i . v >= r_i} nonempty, with a deterministic witness.

    y_i has ``width`` coordinates and is given as its primitive integer
    vector at[i] = (a_1, .., a_width, d), y_i = a / d (``numerics.primitive``);
    r_i is p / q, or -p / q with ``negate``, for the integer pair
    pairs[i] = (p, q), q > 0.  The constraints come in canonical order:
    sorted, as a canonical sample with one value per point is.  Fractions are
    built only for the witness and a certificate, which indexes the
    constraints in this order.
    """
    sign = -1 if negate else 1
    rows, seen = [], set()
    for i, (vec, (p, q)) in enumerate(zip(at, pairs, strict=True)):
        # the constraint times m = lcm(d, q), then divided by the gcd g of the
        # integer row: the row is m / g times the constraint
        d = vec[-1]
        m = lcm(d, q)
        u = m // d
        coeffs = vec[:-1] if u == 1 else tuple([a * u for a in vec[:-1]])
        rhs = sign * p * (m // q)
        if rhs <= 0 and not any(coeffs):
            continue                     # 0 >= 0 or 0 >= negative
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs, rhs = tuple([c // g for c in coeffs]), rhs // g
        h = gcd(m, g)
        row = (coeffs, rhs, 1 << i, ((i, m // h),), g // h)
        if not any(coeffs):
            return _certificate(row, at, pairs, sign)
        if (coeffs, rhs) not in seen:
            seen.add((coeffs, rhs))
            rows.append(row)

    stages = [rows]                      # stages[j] has vars 0..width-1-j live
    for t, var in enumerate(range(width - 1, -1, -1), start=1):
        rows, bad = _eliminate(rows, var, t)
        if bad is not None:
            return _certificate(bad, at, pairs, sign)
        stages.append(rows)

    # back-substitution: variable j is chosen from the stage where it is the
    # last live variable, with all earlier variables already fixed.  The fixed
    # values are nums[i] / den, so each bound is an integer over s * den.
    nums, den = [], 1
    for var in range(width):
        lo = hi = None                   # (num, d): the bound num / (d * den), d > 0
        for coeffs, rhs, *_ in stages[width - 1 - var]:
            s = coeffs[var]
            if not s:
                continue
            rest = rhs * den - sum(map(mul, coeffs, nums))
            if s > 0:
                if lo is None or rest * lo[1] > lo[0] * s:
                    lo = (rest, s)
            elif hi is None or rest * hi[1] > hi[0] * s:
                hi = (-rest, -s)
        # the value num / v_den, reduced
        if lo is not None and hi is not None:
            num, v_den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1] * den
        elif lo is not None or hi is not None:
            num, v_den = lo or hi
            v_den *= den
        else:
            num, v_den = 0, 1
        r = gcd(num, v_den)
        num, v_den = num // r, v_den // r
        grown = lcm(den, v_den)
        nums = [m * (grown // den) for m in nums] + [num * (grown // v_den)]
        den = grown
    return FeasibilityResult(feasible=True,
                             witness=tuple(Scalar(Fraction(m, den)) for m in nums))


def fm_feasible(points: PointSet, values: Mapping[str, Sequence[Scalar]],
                homogeneous: bool) -> Dict[str, FeasibilityResult]:
    """Per section, decide existence of coefficients with f(x, y) <= b.y + c
    (affine) or f(x, y) <= a.y (homogeneous), over exact rationals, with a
    deterministic witness.

    Unknown order is (b_1 .. b_n, c); variables are eliminated last-to-first,
    so the constant goes first in the affine case.  The witness depends on
    the constraint set only; sorting the constraints into canonical order
    makes the certificate independent of input order too.
    """
    width = points.dim if homogeneous else points.dim + 1
    coeffs = [p.raw() if homogeneous else p.raw() + (Fraction(1),) for p in points.points]
    results = {}
    for x, row in values.items():
        canon = sorted(zip(coeffs, [v.value for v in row], strict=True))
        results[x] = solve_rows([primitive(c) for c, _ in canon],
                                [v.as_integer_ratio() for _, v in canon], width)
    return results
