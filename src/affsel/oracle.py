"""Independent verification: zero-slack domination checks and an exact
feasibility decision procedure.

The domination check, ``check_domination``, runs in integers.  It reads the
points as primitive integer vectors one coordinate column at a time: the
affine part of every point in a section comes from C-level maps over the
columns, and one loop then takes the least slack and the failures in point
order.  It reads the vectors and value pairs an instance is stored as, a
recursion level's table, or a shifted group's rows, and names a failure by
its sample index; each verifier builds a Point only for a failure.

The feasibility oracle decides, by Fourier-Motzkin elimination, whether a
finite value table admits an affine (or linear) dominator, and
back-substitutes a deterministic witness or replays an infeasibility
certificate.  The elimination runs in integers from its input to its answer.
Its entry, ``solve_rows``, takes the constraints as integer rows already in
canonical order: each point as its primitive integer vector and each value as
an integer pair, negated on request, which is how the subgradient selection
hands over a shifted group.  Where the group has no subgradient, the
selection hands over the points (1, y) as the vectors (d, a, d), so that
epsilon is the first unknown, which is fixed first and at its least value.
``fm_feasible`` is the adapter in front of it for a ``PointSet`` and Scalar
rows: it reads the set's vectors and converts the values.  Each row of the
elimination is a primitive integer inequality that points to the two rows it
was built from; only a certificate walks those pointers back to the input
constraints, and Fractions are built only for the witness and a certificate.
Back-substitution fixes the first unknown first and finds there whether the
system is empty, so that unknown is eliminated only to build a certificate.
Chernikov's rule (after t eliminations, a row that combines more than t + 1
input constraints is implied by the others) keeps the rows from multiplying.
The oracle imports only ``numerics`` and shares no code path with the
recursive selector, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .numerics import AffselError, Point, PointSet, Scalar, primitive, rational_coords


# ---------------------------------------------------------------------------
# domination reports
# ---------------------------------------------------------------------------


@dataclass
class DominationReport:
    """``slacks[x]`` is the least slack of section x as the integer pair
    (p, q), q > 0, that the check computes, not always reduced, or None where
    it saw no point; ``min_slack`` is its view in Scalars, built on first
    read, so a caller that reads only ``passed`` or ``failures`` builds none."""
    kind: str
    passed: bool
    slacks: Dict[str, Optional[Tuple[int, int]]]
    failures: List[tuple] = field(default_factory=list)   # (x, point, slack)

    @cached_property
    def min_slack(self) -> Dict[str, Optional[Scalar]]:
        return {x: None if s is None else Scalar(Fraction(*s)) for x, s in self.slacks.items()}

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


def check_domination(kind: str, xs: Sequence[str],
                     rows: Mapping[str, Sequence[Tuple[int, int]]],
                     const: Mapping[str, Fraction], coeffs: Mapping[str, Sequence[Fraction]],
                     at: Sequence[tuple]) -> DominationReport:
    """Check rows[x][j] <= const[x] + coeffs[x] . y_j for every section x and
    sample index j, with zero tolerance.

    rows[x][j] is the value p / q as the integer pair (p, q) with q > 0,
    reduced (``Instance.pairs``) or not.  ``at`` holds each y_j as its
    integer vector (a_1, .., a_k, d) with y_j = a / d (``Instance.vectors``);
    coeffs[x] must have k entries, or AffselError names the section and both
    widths.  Failures name the sample index j; each verifier turns it into
    a point (``_named``), so no point is built while the check passes.

    The vectors are read once, as k + 1 columns: a_1 .. a_k of every point,
    then d.  With the section's (const, coeffs) = (c0, b) / d_x, its affine
    parts c0 d + b . a come from maps over those columns, and one loop over
    the points takes the slack ((c0 d + b . a) q - p d_x d) / (d_x d q)
    over a positive denominator.  The least slack is kept as that integer
    pair, and a Fraction is built only for failures and where ``min_slack``
    is read; being reduced, it equals the plain Fraction difference.  Vectors of different lengths, or a row of another length
    than the vectors', raise ValueError.
    """
    *cols, ds = zip(*at, strict=True) if at else ((),)
    slacks: Dict[str, Optional[Tuple[int, int]]] = {}
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
        for j, (part, (p, q), d) in enumerate(zip(parts, rows[x], ds, strict=True)):
            den = d_x * d
            num = part * q - p * den
            den *= q
            if not worst_den or num * worst_den < worst_num * den:
                worst_num, worst_den = num, den
            if num < 0:
                failures.append((x, j, Scalar(Fraction(num, den))))
        slacks[x] = (worst_num, worst_den) if worst_den else None
    return DominationReport(kind=kind, passed=not failures, slacks=slacks, failures=failures)


def _named(report: DominationReport, at: Sequence[tuple]) -> DominationReport:
    """The report with each failure's sample index j replaced by the point
    of the integer vector at[j]."""
    report.failures = [(x, Point(map(Scalar, rational_coords(at[j]))), s)
                       for x, j, s in report.failures]
    return report


def _merged(kind: str, xs: Sequence[str], reports) -> DominationReport:
    """One report for several checks: failures in check order, the least
    slack per section."""
    slacks: Dict[str, Optional[Tuple[int, int]]] = dict.fromkeys(xs)
    failures: List[tuple] = []
    for rep in reports:
        failures.extend(rep.failures)
        for x, s in rep.slacks.items():
            least = slacks[x]
            if s is not None and (least is None or s[0] * least[1] < least[0] * s[1]):
                slacks[x] = s
    return DominationReport(kind=kind, passed=not failures, slacks=slacks, failures=failures)


def verify_domination(inst, selector, kind: str = "affine") -> DominationReport:
    """Check f(x, y) <= B(x).y + C(x) (affine) or f(x, y) <= A(x).y + epsilon(x)
    (linear) for every sample point, with zero tolerance."""
    if kind not in ("affine", "linear"):
        raise AffselError(f"unknown verification kind {kind!r}")
    if selector.n != inst.n:
        raise AffselError(f"dimension mismatch: selector n={selector.n}, instance n={inst.n}")
    const, coeffs = (selector.c, selector.b) if kind == "affine" else (selector.epsilon, selector.a)
    return _named(check_domination(kind, inst.xs, inst.pairs,
                                   {x: const[x].value for x in inst.xs},
                                   {x: coeffs[x].raw() for x in inst.xs}, at=inst.vectors),
                  inst.vectors)


def verify_working_closure(trace, selector) -> DominationReport:
    """Check domination on every working point recorded by the recursion.

    A level of dimension k embeds into the full space with trailing zeros, so
    the first k coefficients of the selector plus the constant must dominate
    the level's table.
    """
    xs = selector.xs
    const = {x: selector.c[x].value for x in xs}
    b = {x: selector.b[x].raw() for x in xs}
    return _merged("closure", xs, (
        _named(check_domination("closure", xs, level.values, const,
                                {x: b[x][:level.dim] for x in xs}, at=level.points),
               level.points)
        for level in trace.levels))


def verify_feature_domination(inst, selector, phi: Mapping[Point, Point]) -> DominationReport:
    """Check f(x, y) <= A(x).phi(y) + epsilon(x) for every sample point y;
    failures name y, not its feature image."""
    return _named(check_domination("feature", inst.xs, inst.pairs,
                                   {x: selector.epsilon[x].value for x in inst.xs},
                                   {x: selector.a[x].raw() for x in inst.xs},
                                   at=[primitive(phi[p].raw()) for p in inst.ys.points]),
                  inst.vectors)


def verify_subgradient_domination(groups, selector) -> DominationReport:
    """Check p(x).y - epsilon(x) <= g(x, y) on every shifted section group
    (``subgradient.ShiftGroup``), as -g <= epsilon + (-p).y, whose slack
    g - p.y + epsilon is the same.  It reads each group's value pairs and
    integer vectors."""
    reports = [_named(check_domination(
        "subgradient", g.xs, dict.fromkeys(g.xs, [(-p, q) for p, q in g.pairs]),
        {x: selector.epsilon[x].value for x in g.xs},
        {x: [-c for c in selector.p[x].raw()] for x in g.xs}, at=g.vectors), g.vectors)
        for g in groups]
    return _merged("subgradient", [x for r in reports for x in r.slacks], reports)


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


# A row of the elimination is a tuple (coeffs, rhs, support, parents): the
# primitive integer inequality coeffs . v >= rhs, the bit set of the original
# constraints it combines, and its parents: (i, m, g) for an input row, which
# is m / g times constraint i, and (p_row, q_row, mp, mq, g) for a derived
# row, which is (mp P + mq Q) / g.


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
    for p in lower:
        p_coeffs, p_rhs, p_support, _ = p
        ap = p_coeffs[var]
        for q in upper:
            q_coeffs, q_rhs, q_support, _ = q
            support = p_support | q_support
            if support.bit_count() > limit:
                continue
            aq = -q_coeffs[var]
            h = gcd(ap, aq)
            mp, mq = aq // h, ap // h      # both positive
            coeffs = tuple([mp * a + mq * b for a, b in zip(p_coeffs, q_coeffs)])
            rhs = mp * p_rhs + mq * q_rhs
            g = gcd(*coeffs, rhs)
            if g > 1:
                coeffs = tuple([c // g for c in coeffs])
                rhs //= g
            if not any(coeffs):
                if rhs <= 0:
                    continue               # 0 >= 0 or 0 >= negative
                return out, (coeffs, rhs, support, (p, q, mp, mq, g))
            places = seen.setdefault((coeffs, rhs), [])
            if any(out[k][2] & support == out[k][2] for k in places):
                continue
            places.append(len(out))
            out.append((coeffs, rhs, support, (p, q, mp, mq, g)))
    return out, None


def _certificate(row: tuple, at, pairs, sign: int) -> FeasibilityResult:
    combination: Dict[int, Fraction] = {}
    walk = [(row[3], Fraction(1))]
    while walk:
        parents, weight = walk.pop()
        if len(parents) == 3:
            i, m, g = parents
            combination[i] = combination.get(i, 0) + weight * m / g
        else:
            p_row, q_row, mp, mq, g = parents
            walk += (p_row[3], weight * mp / g), (q_row[3], weight * mq / g)
    multipliers = {i: combination[i] for i in sorted(combination)}
    constraints = [(rational_coords(v), Fraction(sign * p, q))
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

    Variables width .. 2 are eliminated.  Back-substitution fixes v_1 first,
    at the midpoint of its bounds or at its one bound: at the largest lower
    bound when every row's v_1 coefficient is positive, which is then the
    least v_1 of any solution.  Where its bounds cross the system is empty,
    and only then is v_1 eliminated, to build the certificate's contradiction.
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
        row = (coeffs, rhs, 1 << i, (i, m, g))
        if not any(coeffs):
            return _certificate(row, at, pairs, sign)
        if (coeffs, rhs) not in seen:
            seen.add((coeffs, rhs))
            rows.append(row)

    stages = [rows]                      # stages[j] has vars 0..width-1-j live
    for t, var in enumerate(range(width - 1, 0, -1), start=1):
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
            if not var and lo[0] * hi[1] > hi[0] * lo[1]:      # lo > hi: empty
                return _certificate(_eliminate(stages[-1], 0, width)[1], at, pairs, sign)
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
    the constraint set only, and the certificate indexes the constraints in
    the canonical order of ``points``, whose vectors (a, d) are read as they
    stand, or as (a, d, d) with the constant's coordinate 1 appended.
    """
    width = points.dim if homogeneous else points.dim + 1
    at = points.vectors if homogeneous else [(*v, v[-1]) for v in points.vectors]
    return {x: solve_rows(at, [v.value.as_integer_ratio() for v in row], width)
            for x, row in values.items()}
