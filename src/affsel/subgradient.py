"""Subgradient selection at a base point for parameter-dependent convex
sections, by reduction to linear selection on the negated values.

Sections are shifted so that the base point is the origin and the value there
is zero, and grouped by shape (identical shifted point/value data), so equal
sections get bitwise-equal answers for free.  The shift runs in integers on
the instance's vectors and value pairs, the form an instance is stored in: a
group holds its value row as reduced integer pairs and its sample as a
``PointSet`` of primitive vectors, one translate shared by the groups of a
base point, and builds its ``Instance`` only when a caller reads it.

The selection hands each group's integer rows, negation folded in, to the
feasibility oracle's Fourier-Motzkin elimination.  Where a subgradient exists
on the sample it is the oracle's witness, with epsilon = 0.  Where none
exists (a section that is not convex at its base point), the oracle solves
again for (epsilon, -p) and fixes epsilon first, at the least value any p
reaches: epsilon* = min over p of max over the sample of p.y - g(y).  The
convexity check makes the same solve at every sample point, and names the
points that break convexity from an infeasible one's certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .numerics import AffselError, Point, PointSet, Scalar, origin_point, rational_coords
from .hyperplane import Instance
from .oracle import solve_rows


class NotNormalizedError(AffselError):
    pass


class ShiftDomainError(AffselError):
    pass


@dataclass(frozen=True)
class ConvexSectionInstance:
    """Value table g with per-parameter base points y0 (default: the origin).

    Convexity of the sections is a promise of the generator; the selection
    decides it on the sample on request (``SubgradientConfig.check_convexity``,
    ``convexity_violation``).
    """

    instance: Instance
    y0: Optional[Mapping[str, Point]] = None

    def base_point(self, x: str) -> Point:
        if self.y0 is None:
            return origin_point(self.instance.n)
        return self.y0[x]


def _translate(vectors: Sequence[tuple], j0: int) -> List[tuple]:
    """The primitive vectors translated so that vectors[j0] is the origin, in
    the same order: translation keeps a canonical sample canonical."""
    *c, e = vectors[j0]
    out = []
    for *a, d in vectors:
        # a / d - c / e = (a e - c d) / (d e), made primitive
        v = [ai * e - ci * d for ai, ci in zip(a, c)]
        v.append(d * e)
        g = gcd(*v)
        out.append(tuple([t // g for t in v]) if g > 1 else tuple(v))
    return out


def _lower(pairs: Tuple[Tuple[int, int], ...], j0: int) -> Tuple[Tuple[int, int], ...]:
    """The reduced value pairs minus the value at j0, so that it is zero."""
    p0, q0 = pairs[j0]
    if not p0:
        return pairs
    shifted = []
    for p, q in pairs:
        num, den = p * q0 - p0 * q, q * q0
        g = gcd(num, den)
        shifted.append((num // g, den // g))
    return tuple(shifted)


class ShiftGroup:
    """Sections that share one shifted shape: the translated sample ``ys``,
    shared by the groups of one base point, and the one value row they all
    have on it, ``pairs``, as reduced integer pairs (p, q) of p / q.

    The selection reads ``vectors`` and ``pairs``.  ``instance`` is the same
    data as an ``Instance``, whose Points and Scalars are built on first read.
    """

    def __init__(self, xs, ys: PointSet, pairs: Tuple[Tuple[int, int], ...]):
        self.xs, self.ys, self.pairs = tuple(xs), ys, pairs

    @property
    def vectors(self) -> Tuple[tuple, ...]:
        return self.ys.vectors

    @cached_property
    def instance(self) -> Instance:
        return Instance(n=self.ys.dim, xs=self.xs, ys=self.ys,
                        pairs=dict.fromkeys(self.xs, self.pairs))


@dataclass(frozen=True)
class ShiftedSections:
    groups: Tuple[ShiftGroup, ...]


def shift_to_origin(csi: ConvexSectionInstance) -> ShiftedSections:
    """Translate each section so its base point is the origin and its value
    there is zero.  Sections with identical shifted data share one group.

    The sample is translated once per distinct base point (``_translate``)
    and each row lowered by its value there (``_lower``), in integers.
    Translates of one finite set are equal only under equal bases, so
    sections are grouped by (base, shifted values).  A section whose base is
    the origin keeps the sample, and one whose value there is zero keeps its row.
    """
    inst = csi.instance
    zero = (0,) * inst.n
    samples: Dict[tuple, Tuple[int, PointSet]] = {}     # base -> (index, sample)
    groups: Dict[tuple, tuple] = {}     # (index, pairs) -> (sample, pairs, xs)
    for x in inst.xs:
        base = zero if csi.y0 is None else csi.y0[x].raw()
        entry = samples.get(base)
        if entry is None:
            j0 = inst.ys.index_of(base)
            if j0 is None:
                raise ShiftDomainError(f"base point of x={x} is not a sample point")
            entry = samples[base] = (j0, PointSet(inst.n, _translate(inst.vectors, j0))
                                     if any(base) else inst.ys)
        j0, sample = entry
        pairs = _lower(inst.pairs[x], j0)
        groups.setdefault((j0, pairs), (sample, pairs, []))[2].append(x)
    return ShiftedSections(groups=tuple(
        ShiftGroup(xs, sample, pairs) for sample, pairs, xs in groups.values()))


@dataclass(frozen=True)
class SubgradientConfig:
    check_convexity: bool = False


@dataclass
class SubgradientSelector:
    xs: Tuple[str, ...]
    p: Mapping[str, Point]
    epsilon: Mapping[str, Scalar]

    def serialize(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "subgradient",
            "X": list(self.xs),
            "p": [self.p[x].serialize() for x in self.xs],
            "epsilon": [self.epsilon[x].serialize() for x in self.xs],
            # schema 1 names the one backend
            "backend": "exact",
        }


def convexity_violation(inst: Instance, xs: Sequence[str]) -> Optional[tuple]:
    """The first sample point, in canonical order, where a section x in ``xs``
    has no subgradient on the sample, or None: g is the restriction of a
    convex function exactly when there is none.  The result is (x, the point,
    g there, terms), the terms being the infeasible solve's certificate
    normalized, (weight, point, g there) in sample order: positive weights
    summing to 1 whose points average to the point, their values to less."""
    for j in range(len(inst.vectors)):
        at = _translate(inst.vectors, j)
        for x in xs:
            result = solve_rows(at, _lower(inst.pairs[x], j), inst.n, negate=True)
            if not result.feasible:
                weights = result.certificate.multipliers
                total = sum(weights.values())
                row = inst.pairs[x]
                return (x, rational_coords(inst.vectors[j]), Fraction(*row[j]),
                        [(w / total, rational_coords(inst.vectors[i]), Fraction(*row[i]))
                         for i, w in weights.items()])
    return None


def _shown(point: tuple) -> str:
    return "(" + ", ".join(map(str, point)) + ")"


def select_subgradient(csi: ConvexSectionInstance,
                       config: SubgradientConfig = SubgradientConfig(),
                       shift: bool = False) -> SubgradientSelector:
    """Select p(x) with g(x, y) >= p(x).y - epsilon(x) at the (shifted) origin,
    epsilon(x) the least for which any p(x) exists: 0 where the sample admits
    a subgradient.

    With ``shift``, or whenever the instance carries base points, sections
    are translated to their base points first, which normalizes them by
    construction (base points at the origin give the unshifted groups on a
    normalized file and normalize any other).  Otherwise each section must
    already be normalized: the origin is a sample point with value zero.
    """
    inst = csi.instance
    if not (shift or csi.y0 is not None):
        j0 = inst.ys.index_of((0,) * inst.n)
        if j0 is None:
            raise NotNormalizedError("not normalized: origin is not a sample point")
        for x in inst.xs:
            if inst.pairs[x][j0][0] != 0:
                raise NotNormalizedError(f"not normalized: g({x}, 0) != 0")
    sections = shift_to_origin(csi)

    if config.check_convexity:
        bad = convexity_violation(inst, [group.xs[0] for group in sections.groups])
        if bad:
            x, y, value, terms = bad
            raise AffselError(f"convexity fails for x={x}: value {value} at {_shown(y)} exceeds "
                              f"{sum(w * v for w, _, v in terms)}, the average of "
                              + ", ".join(f"{w} at {_shown(p)}" for w, p, _ in terms))

    p_map: Dict[str, Point] = {}
    eps_map: Dict[str, Scalar] = {}
    for group in sections.groups:
        # every section of a group has the same data: solve it once, negated
        result = solve_rows(group.vectors, group.pairs, inst.n, negate=True)
        if result.feasible:
            eps, witness = Fraction(0), [c.value for c in result.witness]
        else:
            # no subgradient: solve for (epsilon, -p) on the points (1, y),
            # whose rows have only lower bounds on epsilon, and back-substitution
            # fixes epsilon first, at its least value
            lifted = [(v[-1], *v) for v in group.vectors]
            result = solve_rows(lifted, group.pairs, inst.n + 1, negate=True)
            eps, *witness = [c.value for c in result.witness]
        p_rep = Point([Scalar(-c) for c in witness])
        eps_rep = Scalar(eps)
        for x in group.xs:
            p_map[x], eps_map[x] = p_rep, eps_rep
    return SubgradientSelector(xs=inst.xs, p=p_map, epsilon=eps_map)
