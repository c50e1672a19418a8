"""Subgradient selection at a base point for parameter-dependent convex
sections, by reduction to linear selection on the negated values.

The exact backend asks the feasibility oracle for a zero-residual answer;
the cone backend runs the lift-based linear selection and inherits its
certified residual.  Sections are grouped by shape (identical shifted
point/value data), so equal sections get bitwise-equal answers for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from .numerics import AffselError, Point, PointSet, Scalar, origin_point
from .hyperplane import Instance
from .conelift import LinearConfig, select_linear
from .oracle import InfeasibleSectionsError, exact_linear_select


class NotNormalizedError(AffselError):
    pass


class ShiftDomainError(AffselError):
    pass


@dataclass(frozen=True)
class ConvexSectionInstance:
    """Value table g with per-parameter base points y0 (default: the origin).

    Convexity of the sections is a promise of the generator, not re-verified
    here; ``check_midpoint_convexity`` exists for spot checks.
    """

    instance: Instance
    y0: Optional[Mapping[str, Point]] = None

    def base_point(self, x: str) -> Point:
        if self.y0 is None:
            return origin_point(self.instance.n)
        return self.y0[x]


@dataclass(frozen=True)
class ShiftGroup:
    instance: Instance            # single shared section shape, one or more xs
    xs: Tuple[str, ...]


@dataclass(frozen=True)
class ShiftedSections:
    groups: Tuple[ShiftGroup, ...]


def shift_to_origin(csi: ConvexSectionInstance) -> ShiftedSections:
    """Translate each section so its base point is the origin and its value
    there is zero.  Sections with identical shifted data share one group.

    The sample is shifted once per distinct base point.  Translation keeps the
    lexicographic order and merges no points, so the shifted sample is a
    canonical point set as it stands; and translates of one finite set are
    equal only under equal bases, so sections are grouped by (base, shifted
    values).
    """
    inst = csi.instance
    shifted: Dict[tuple, Tuple[int, PointSet]] = {}     # base -> (index, sample)
    groups: Dict[tuple, list] = {}
    for x in inst.xs:
        base = csi.base_point(x).raw()
        entry = shifted.get(base)
        if entry is None:
            j0 = inst.ys.index_of(base)
            if j0 is None:
                raise ShiftDomainError(f"base point of x={x} is not a sample point")
            ys = inst.ys
            if any(base):
                ys = PointSet(inst.n, [Point(Scalar(c - b) for c, b in zip(p.raw(), base))
                                       for p in ys.points])
            entry = shifted[base] = (j0, ys)
        j0, ys = entry
        row = inst.values[x]
        g0 = row[j0].value
        values = tuple([Scalar(v.value - g0) for v in row]) if g0 else tuple(row)
        # numerator/denominator pairs hash much faster than Fractions
        key = (j0, tuple((v.value.numerator, v.value.denominator) for v in values))
        groups.setdefault(key, (ys, values, []))[2].append(x)
    return ShiftedSections(groups=tuple(
        ShiftGroup(instance=Instance(n=inst.n, xs=tuple(xs), ys=ys,
                                     values=dict.fromkeys(xs, values)),
                   xs=tuple(xs))
        for ys, values, xs in groups.values()))


@dataclass(frozen=True)
class SubgradientConfig:
    backend: str = "exact"        # "exact" | "cone"
    linear: LinearConfig = LinearConfig()
    check_convexity: bool = False


@dataclass
class SubgradientSelector:
    xs: Tuple[str, ...]
    p: Mapping[str, Point]
    epsilon: Mapping[str, Scalar]
    backend: str
    exact: Mapping[str, bool] = field(default_factory=dict)

    def serialize(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "subgradient",
            "X": list(self.xs),
            "p": [self.p[x].serialize() for x in self.xs],
            "epsilon": [self.epsilon[x].serialize() for x in self.xs],
            "backend": self.backend,
        }


def check_midpoint_convexity(inst: Instance) -> List[tuple]:
    """Midpoint convexity on sample triples: whenever the midpoint of two
    sample points is itself a sample point, its value may not exceed the
    average.  Returns the violations found, each as (x, one point, the
    midpoint, the other point, the value at the midpoint, the average), the
    two values as Fractions."""
    violations = []
    pts = inst.ys.points
    coords = [p.raw() for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            k = inst.ys.index_of(tuple([(a + b) / 2 for a, b in zip(coords[i], coords[j])]))
            if k is None:
                continue
            for x in inst.xs:
                row = inst.values[x]
                avg = (row[i].value + row[j].value) / 2
                if row[k].value > avg:
                    violations.append((x, pts[i], pts[k], pts[j], row[k].value, avg))
    return violations


def select_subgradient(csi: ConvexSectionInstance,
                       config: SubgradientConfig = SubgradientConfig(),
                       shift: bool = False) -> SubgradientSelector:
    """Select p(x) with g(x, y) >= p(x).y - epsilon(x) at the (shifted) origin.

    With ``shift``, or whenever the instance carries base points, sections
    are translated to their base points first, which normalizes them by
    construction (base points at the origin give the unshifted groups on a
    normalized file and normalize any other).  Otherwise each section must
    already be normalized: the origin is a sample point with value zero.
    """
    inst = csi.instance
    if not (shift or csi.y0 is not None):
        j0 = inst.ys.index_of((Fraction(0),) * inst.n)
        if j0 is None:
            raise NotNormalizedError("not normalized: origin is not a sample point")
        for x in inst.xs:
            if inst.values[x][j0].value != 0:
                raise NotNormalizedError(f"not normalized: g({x}, 0) != 0")
    sections = shift_to_origin(csi)

    if config.check_convexity:
        for group in sections.groups:
            bad = check_midpoint_convexity(group.instance)
            if bad:
                x, a, m, b, got, avg = bad[0]
                raise AffselError(
                    f"midpoint convexity fails for x={x}: value {got} at "
                    f"{m!r} exceeds average {avg}")

    p_map: Dict[str, Point] = {}
    eps_map: Dict[str, Scalar] = {}
    exact_map: Dict[str, bool] = {}
    for group in sections.groups:
        # every section of a group has the same data: solve the first, negated
        rep, gi = group.xs[0], group.instance
        single = Instance(n=gi.n, xs=(rep,), ys=gi.ys,
                          values={rep: tuple([Scalar(-v.value) for v in gi.values[rep]])})
        if config.backend == "exact":
            try:
                witness = exact_linear_select(single)[rep]
            except InfeasibleSectionsError as exc:
                raise InfeasibleSectionsError(
                    dict.fromkeys(group.xs, exc.infeasible[rep])) from None
            eps, exact = Scalar(Fraction(0)), True
        elif config.backend == "cone":
            sel = select_linear(single, config.linear)
            witness, eps, exact = sel.a[rep], sel.epsilon[rep], sel.exact[rep]
        else:
            raise AffselError(f"unknown backend {config.backend!r}")
        p_rep = Point(Scalar(-c) for c in witness.raw())
        for x in group.xs:
            p_map[x], eps_map[x], exact_map[x] = p_rep, eps, exact
    return SubgradientSelector(xs=inst.xs, p=p_map, epsilon=eps_map,
                               backend=config.backend, exact=exact_map)
