"""Independent verification: zero-slack domination checks and an exact
feasibility decision procedure.

The feasibility oracle decides, by Fourier-Motzkin elimination over exact
rationals, whether a finite value table admits an affine (or linear)
dominator, and back-substitutes a deterministic witness or replays an
infeasibility certificate.  It shares no code path with the recursive
selector, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .numerics import AffselError, Point, PointSet, Scalar


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


def check_domination(kind: str, xs: Sequence[str], points: Sequence[Point],
                     rows: Mapping[str, Sequence[Scalar]], const: Mapping[str, Fraction],
                     coeffs: Mapping[str, Sequence[Fraction]],
                     at: Optional[Sequence[Sequence[Fraction]]] = None) -> DominationReport:
    """Check rows[x][j] <= const[x] + coeffs[x] . at[j] for every section x and
    sample index j, with zero tolerance.

    ``at`` holds the raw coordinates the functional is evaluated at and
    defaults to those of ``points``; failures name points[j].

    The loop runs in integers: with at[j] = a_j / d_j, the section's
    (const, coeffs) = (c0, b) / d_x and rows[x][j] = p / q, the slack is
    ((c0 d_j + b . a_j) q - p d_x d_j) / (d_x d_j q) over a positive
    denominator.  A Fraction is built only for the least slack and for
    failures; being reduced, it equals the plain Fraction difference.
    """
    if at is None:
        at = [p.raw() for p in points]
    scaled = [_over_common_denominator(coords) for coords in at]
    min_slack: Dict[str, Optional[Scalar]] = {}
    failures: List[tuple] = []
    for x in xs:
        (c0, *b), d_x = _over_common_denominator((const[x], *coeffs[x]))
        row = rows[x]
        worst_num, worst_den = 0, 0          # worst_den == 0: no slack seen yet
        for j, (a, d) in enumerate(scaled):
            value = row[j].value
            q, den = value.denominator, d_x * d
            num = (c0 * d + sum(map(mul, b, a))) * q - value.numerator * den
            den *= q
            if not worst_den or num * worst_den < worst_num * den:
                worst_num, worst_den = num, den
            if num < 0:
                failures.append((x, points[j], Scalar(Fraction(num, den))))
        min_slack[x] = Scalar(Fraction(worst_num, worst_den)) if worst_den else None
    return DominationReport(kind=kind, passed=not failures, min_slack=min_slack,
                            failures=failures)


def _over_common_denominator(values) -> Tuple[List[int], int]:
    """Integers a_i and the least positive d with values[i] == a_i / d."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


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


def verify_domination(inst, selector, kind: str = "affine") -> DominationReport:
    """Check f(x, y) <= B(x).y + C(x) (affine) or f(x, y) <= A(x).y + epsilon(x)
    (linear) for every sample point, with zero tolerance."""
    if kind not in ("affine", "linear"):
        raise AffselError(f"unknown verification kind {kind!r}")
    if selector.n != inst.n:
        raise AffselError(f"dimension mismatch: selector n={selector.n}, instance n={inst.n}")
    const, coeffs = (selector.c, selector.b) if kind == "affine" else (selector.epsilon, selector.a)
    return check_domination(kind, inst.xs, inst.ys.points, inst.values,
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
    return _merged("closure", xs, (
        check_domination("closure", xs, level.points.points, level.values, const,
                         {x: b[x][:level.dim] for x in xs})
        for level in trace.levels))


def verify_feature_domination(inst, selector, phi: Mapping[Point, Point]) -> DominationReport:
    """Check f(x, y) <= A(x).phi(y) + epsilon(x) for every sample point y;
    failures name y, not its feature image."""
    return check_domination("feature", inst.xs, inst.ys.points, inst.values,
                            {x: selector.epsilon[x].value for x in inst.xs},
                            {x: selector.a[x].raw() for x in inst.xs},
                            at=[phi[p].raw() for p in inst.ys.points])


def verify_subgradient_domination(groups, selector) -> DominationReport:
    """Check p(x).y - epsilon(x) <= g(x, y) on every shifted section group
    (objects with ``instance`` and ``xs``), as -g <= epsilon + (-p).y, whose
    slack g - p.y + epsilon is the same."""
    groups = list(groups)
    return _merged("subgradient", [x for g in groups for x in g.xs], (
        check_domination("subgradient", g.xs, g.instance.ys.points,
                         {x: [-v for v in g.instance.values[x]] for x in g.xs},
                         {x: selector.epsilon[x].value for x in g.xs},
                         {x: [-c for c in selector.p[x].raw()] for x in g.xs})
        for g in groups))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ineq:
    """coeffs . v >= rhs, tracked as a nonnegative combination of originals."""

    coeffs: Tuple[Fraction, ...]
    rhs: Fraction
    combo: Tuple[Tuple[int, Fraction], ...]

    def normalized(self) -> "_Ineq":
        """Scale to a primitive integer row; the multiplier is positive, so
        the inequality direction and the combination tracking survive."""
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
        combo = tuple((i, m * factor) for i, m in self.combo)
        return _Ineq(tuple(scaled), rhs, combo)


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


def _dedup_keep_first(ineqs: List[_Ineq]) -> List[_Ineq]:
    seen = set()
    out = []
    for q in ineqs:
        key = (q.coeffs, q.rhs)
        if key in seen:
            continue
        seen.add(key)
        out.append(q)
    return out


def _eliminate(ineqs: List[_Ineq], var: int) -> List[_Ineq]:
    lower, upper, free = [], [], []
    for q in ineqs:
        s = q.coeffs[var]
        if s > 0:
            lower.append(q)
        elif s < 0:
            upper.append(q)
        else:
            free.append(q)
    out = list(free)
    for p in lower:
        ap = p.coeffs[var]
        for q in upper:
            aq = q.coeffs[var]
            mp, mq = -aq, ap      # both positive
            coeffs = tuple(mp * a + mq * b for a, b in zip(p.coeffs, q.coeffs))
            rhs = mp * p.rhs + mq * q.rhs
            combo: Dict[int, Fraction] = {}
            for i, m in p.combo:
                combo[i] = combo.get(i, Fraction(0)) + mp * m
            for i, m in q.combo:
                combo[i] = combo.get(i, Fraction(0)) + mq * m
            out.append(_Ineq(coeffs, rhs, tuple(sorted(combo.items()))).normalized())
    # drop trivially satisfied rows, keep contradictions
    pruned = []
    for q in out:
        if all(c == 0 for c in q.coeffs) and q.rhs <= 0:
            continue
        pruned.append(q)
    return _dedup_keep_first(pruned)


def _find_contradiction(ineqs: List[_Ineq]) -> Optional[_Ineq]:
    for q in ineqs:
        if all(c == 0 for c in q.coeffs) and q.rhs > 0:
            return q
    return None


def _solve_system(constraints: List[Tuple[Tuple[Fraction, ...], Fraction]],
                  width: int) -> FeasibilityResult:
    """Decide {v : coeffs_i . v >= rhs_i} nonempty; deterministic witness."""
    if not constraints:
        return FeasibilityResult(
            feasible=True, witness=tuple(Scalar(Fraction(0)) for _ in range(width)))
    # canonical order makes the witness independent of input permutation
    order = sorted(range(len(constraints)), key=lambda i: (constraints[i][0], constraints[i][1]))
    canon = [constraints[i] for i in order]
    system = [
        _Ineq(c, r, ((i, Fraction(1)),)).normalized()
        for i, (c, r) in enumerate(canon)
    ]
    system = _dedup_keep_first(
        [q for q in system if not (all(c == 0 for c in q.coeffs) and q.rhs <= 0)])

    stages: List[List[_Ineq]] = [list(system)]   # stages[j] has vars 0..width-1-j live
    for var in range(width - 1, -1, -1):
        bad = _find_contradiction(stages[-1])
        if bad is not None:
            cert = InfeasibilityCertificate(dict(bad.combo), canon)
            return FeasibilityResult(feasible=False, certificate=cert)
        stages.append(_eliminate(stages[-1], var))
    bad = _find_contradiction(stages[-1])
    if bad is not None:
        cert = InfeasibilityCertificate(dict(bad.combo), canon)
        return FeasibilityResult(feasible=False, certificate=cert)

    # back-substitution: variable j is chosen from the stage where it is the
    # last live variable, with all earlier variables already fixed
    values: List[Fraction] = [Fraction(0)] * width
    for var in range(width):
        stage = stages[width - 1 - var]   # vars 0..var live
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for q in stage:
            s = q.coeffs[var]
            if s == 0:
                continue
            rest = q.rhs
            for i in range(var):
                rest -= q.coeffs[i] * values[i]
            bound = rest / s
            if s > 0:
                if lo is None or bound > lo:
                    lo = bound
            else:
                if hi is None or bound < hi:
                    hi = bound
        if lo is not None and hi is not None:
            values[var] = (lo + hi) / 2
        elif lo is not None:
            values[var] = lo
        elif hi is not None:
            values[var] = hi
        else:
            values[var] = Fraction(0)
    witness = tuple(Scalar(v) for v in values)
    return FeasibilityResult(feasible=True, witness=witness)


def fm_feasible(points: PointSet, values: Mapping[str, Sequence[Scalar]],
                homogeneous: bool) -> Dict[str, FeasibilityResult]:
    """Per section, decide existence of coefficients with f(x, y) <= b.y + c
    (affine) or f(x, y) <= a.y (homogeneous), over exact rationals.

    Unknown order is (b_1 .. b_n, c); variables are eliminated last-to-first,
    so the constant goes first in the affine case.
    """
    n = points.dim
    width = n if homogeneous else n + 1
    results: Dict[str, FeasibilityResult] = {}
    for x, row in values.items():
        constraints = []
        for j, p in enumerate(points.points):
            v = row[j]
            coeffs = [c.value for c in p.coords]
            if not homogeneous:
                coeffs.append(Fraction(1))
            constraints.append((tuple(coeffs), v.value))
        results[x] = _solve_system(constraints, width)
    return results


def exact_linear_select(inst) -> Dict[str, Point]:
    """Deterministic linear dominator per section from the elimination witness.

    Raises with per-section certificates when any section is infeasible.
    """
    results = fm_feasible(inst.ys, inst.values, homogeneous=True)
    bad = {x: r.certificate for x, r in results.items() if not r.feasible}
    if bad:
        raise InfeasibleSectionsError(bad)
    return {x: Point(results[x].witness) for x in inst.xs}
