"""Linear-functional selection through a cone lift, plus the feature-map
reduction.

A linear domination problem embeds into an affine one on the sampled cone
{lambda * y}: lifted values are positively homogeneous along each sampled
ray, and the affine constant C picked up by the recursive selector turns
into a certified residual epsilon = max(0, C) / lambda_max.  Driving
lambda_max up shrinks the residual; an exactness flag records whether the
residual was actually needed.

The lifted recursion runs the ``tight`` base (``LinearConfig.select``): C is
the value of the dimension-zero envelope itself, not rounded up to a
positive integer as the ``novikov`` base of ``select affine`` does.  Either
way B.z + C dominates every lifted point z, and every sample point y has a
copy lambda_max y whose value is at least lambda_max f(x, y) (the origin's
copies merge to the larger of f(x, 0) and lambda_max f(x, 0)), so
f(x, y) <= B.y + C / lambda_max <= B.y + max(0, C) / lambda_max.
Where C <= 0 the residual is 0 and the section is exact at the first
attempt.  A positive C has been seen only where, at some level, the -|y|^2
extension at a crossing lies above a.y for the section's Fourier-Motzkin
witness a; such a crossing was there at every lambda_max tried, so the
retries did not make those sections exact.

The lift samples the cone at the two rungs lambda in {1, lambda_max}: at a
lifted point lambda * y with value lambda * v, domination reads
lambda * (b.y - v) + C >= 0, linear in lambda, so holding at both ends it
holds at every scale between; further rungs would add points, no constraints.

The lift runs in integers, and what does not depend on the ladder is read
once per selection from the instance's vectors and value pairs
(``_read_rays``).  The oracle is called only to certify the exact flags.
A sample point y = a / d (``numerics.primitive``) lies at t = gcd(a) / d on
the ray of the primitive direction a / gcd(a), and its unit-rung value is t
M(x, ray), M being the largest f / t over the ray's sample points (at the
origin, f(x, 0)), held as a reduced integer pair.  An attempt only scales: at
rung lambda the copy of y is the vector (lambda a, d) / gcd(lambda, d) and its
value the pair (lambda p, q) / gcd(lambda, q), both still reduced.  The copies
are merged and sorted by ``merge_table``, the accumulator ``Instance.from_pairs``
uses, straight into the top ``WorkingTable`` of the affine recursion; no
Fraction, ``Scalar`` or ``Point`` is built for them.  ``lift_to_cone`` wraps
that table as an instance, whose views are built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import ClassVar, Dict, List, Mapping, NamedTuple, Tuple

from .numerics import AffselError, Point, PointSet, Scalar
from .hyperplane import (Instance, SelectConfig, WorkingTable, float_key, max_pair,
                         merge_table, select_table)
from .oracle import check_domination


class LadderError(AffselError):
    pass


class FeatureMapError(AffselError):
    pass


def power_ladder(lambda_max: int) -> Tuple[int, ...]:
    """Powers of two up to lambda_max (lambda_max appended if not one itself);
    selection lifts onto {1, lambda_max}, so only the benchmark replays this."""
    if lambda_max < 1:
        raise LadderError("lambda_max must be >= 1")
    rungs = []
    v = 1
    while v <= lambda_max:
        rungs.append(v)
        v *= 2
    if rungs[-1] != lambda_max:
        rungs.append(lambda_max)
    return tuple(rungs)


@dataclass(frozen=True)
class ConeInstance:
    """Instance lifted onto the sampled cone.

    Lifted values are defined per ray: every scaled copy of a sample ray
    carries the ray's best value scaled proportionally, which realizes the
    supremum over ray contributions and keeps the table positively
    homogeneous across collinear sample points.
    """

    instance: Instance


class _Rays(NamedTuple):
    """What the lift and the exactness check read of a sample, whatever the
    ladder: its dimension, value pairs and vectors, and each point's copy at
    rung 1 as (vector, ``float_key`` of it, unit-rung values per x)."""
    dim: int
    rows: Mapping[str, Tuple[Tuple[int, int], ...]]
    vecs: List[tuple]
    copies: List[tuple]


def _read_rays(inst: Instance) -> _Rays:
    rows, vecs = inst.pairs, inst.vectors
    cols = list(rows.values())
    rays = []                   # per point (g, ray): t = g / d, g = 0 at the origin
    best: Dict[tuple, list] = {}    # ray -> per x, the largest f / t on it
    for j, v in enumerate(vecs):
        g = gcd(*v[:-1])
        ray = tuple([c // g for c in v[:-1]]) if g else None
        rays.append((g, ray))
        if g:
            slopes = [(col[j][0] * v[-1], col[j][1] * g) for col in cols]
            kept = best.get(ray)
            best[ray] = slopes if kept is None else list(map(max_pair, kept, slopes))
    copies = []
    for j, (v, (g, ray)) in enumerate(zip(vecs, rays)):
        values = tuple([col[j] for col in cols])
        if g:
            values = tuple([(g * m // h, v[-1] * w // h) for m, w in best[ray]
                            for h in [gcd(g * m, v[-1] * w)]])
        copies.append((v, float_key(v), values))
    return _Rays(inst.n, rows, vecs, copies)


def _check_ladder(lambdas: tuple) -> None:
    if not lambdas or lambdas[0] != 1:
        raise LadderError("scale ladder must start at 1")
    prev = 0
    for lam in lambdas:
        if lam <= 0:
            raise LadderError("scales must be positive")
        if lam <= prev:
            raise LadderError("scale ladder must be strictly increasing")
        prev = lam


def _lift(rays: _Rays, lambdas) -> WorkingTable:
    """The top working table of the lift onto the ladder ``lambdas``, which is
    checked first: the copy of every sample point at every rung, merged and
    sorted by ``merge_table``, as ``Instance.from_pairs`` merges and sorts.  Off
    the origin, equal copies carry equal values, since the value at a lifted
    point z is t(z) M(x, ray)."""
    lambdas = tuple(lambdas)
    _check_ladder(lambdas)
    entries = []
    for lam in lambdas:
        for v, key, values in rays.copies:
            if lam > 1:
                g = gcd(lam, v[-1])
                v = (*[lam // g * c for c in v[:-1]], v[-1] // g)
                key = float_key(v)
                values = tuple([(lam // h * p, q // h) for p, q in values
                                for h in [gcd(lam, q)]])
            entries.append((v, key, values))
    points, values = merge_table(tuple(rays.rows), entries)
    return WorkingTable(dim=rays.dim, points=points, values=values)


def lift_to_cone(inst: Instance, lambdas) -> ConeInstance:
    """The instance lifted onto any valid ladder (1, ..): the table ``_lift``
    builds, as an instance."""
    table = _lift(_read_rays(inst), lambdas)
    return ConeInstance(instance=Instance(n=inst.n, xs=inst.xs, ys=PointSet(inst.n, table.points),
                                          pairs=table.values))


@dataclass(frozen=True)
class LinearConfig:
    lambda_max: int = 2 ** 20
    doublings: int = 3
    # the affine settings of the lifted selection; a constant, not an option
    select: ClassVar[SelectConfig] = SelectConfig(base="tight")


@dataclass
class AttemptRecord:
    lambda_max: int
    exact: Dict[str, bool]


@dataclass
class LinearSelector:
    """Per-parameter linear functional with a certified residual.

    f(x, y) <= A(x).y + epsilon(x) holds on the sample for every x; the
    exact flag marks sections where the residual was not needed.
    """

    n: int
    xs: Tuple[str, ...]
    a: Mapping[str, Point]
    epsilon: Mapping[str, Scalar]
    exact: Mapping[str, bool]
    lambda_max: int
    cone_c: Mapping[str, Scalar]
    attempts: List[AttemptRecord] = field(default_factory=list)

    def serialize(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "linear",
            "n": self.n,
            "X": list(self.xs),
            "A": [self.a[x].serialize() for x in self.xs],
            "epsilon": [self.epsilon[x].serialize() for x in self.xs],
            "exact": [self.exact[x] for x in self.xs],
            "lambda_max": self.lambda_max,
        }


def _attempt(rays: _Rays, lambda_max: int, config: LinearConfig):
    xs = tuple(rays.rows)
    top = _lift(rays, (1,) if lambda_max == 1 else (1, lambda_max))
    selector, *_ = select_table(rays.dim, xs, top, config.select)
    eps_map = {x: Scalar(Fraction(max(c.value, 0), lambda_max)) for x, c in selector.c.items()}
    report = check_domination("linear", xs, rays.rows, dict.fromkeys(xs, 0),
                              {x: selector.b[x].raw() for x in xs}, at=rays.vecs)
    failed = {x for x, _, _ in report.failures}
    exact_map = {x: x not in failed for x in xs}
    return selector.b, eps_map, exact_map, selector.c


def select_linear(inst: Instance, config: LinearConfig = LinearConfig()) -> LinearSelector:
    """Certified linear selection: always returns A and a residual epsilon
    with f <= A.y + epsilon on the sample; retries with a doubled ladder
    while any section stays inexact and retries remain."""
    attempts: List[AttemptRecord] = []
    lambda_max = config.lambda_max
    retries = config.doublings
    rays = _read_rays(inst)
    while True:
        a_map, eps_map, exact_map, c_map = _attempt(rays, lambda_max, config)
        attempts.append(AttemptRecord(lambda_max=lambda_max, exact=exact_map))
        if all(exact_map.values()) or retries <= 0:
            return LinearSelector(
                n=rays.dim, xs=tuple(rays.rows), a=a_map, epsilon=eps_map, exact=exact_map,
                lambda_max=lambda_max, cone_c=c_map, attempts=attempts,
            )
        retries -= 1
        lambda_max *= 2


def push_through_features(inst: Instance, phi: Mapping[Point, Point]) -> Instance:
    """Group the sample by feature image; pushed values take the max over
    each preimage, so dominating the pushed instance dominates the original."""
    missing = [p for p in inst.ys.points if p not in phi]
    if missing:
        raise FeatureMapError(f"feature map not total: missing {missing[0]!r}")
    images = [[c.as_integer_ratio() for c in phi[p].raw()] for p in inst.ys.points]
    m = len(images[0]) if images else 0
    return Instance.from_pairs(m, inst.xs, images, inst.pairs)


def feature_select(inst: Instance, phi: Mapping[Point, Point],
                   config: LinearConfig = LinearConfig()) -> LinearSelector:
    """Linear selection in feature space: f(x, y) <= A(x).phi(y) + epsilon(x)."""
    pushed = push_through_features(inst, phi)
    return select_linear(pushed, config)
