"""Linear-functional selection through a cone lift, plus the feature-map
reduction.

A linear domination problem embeds into an affine one on the sampled cone
{lambda * y}: lifted values are positively homogeneous along each sampled
ray, and the affine constant C picked up by the recursive selector turns
into a certified residual epsilon = max(0, C) / lambda_max.  Driving
lambda_max up shrinks the residual; an exactness flag records whether the
residual was actually needed.

The lift samples the cone at the two rungs lambda in {1, lambda_max}: at a
lifted point lambda * y with value lambda * v, domination reads
lambda * (b.y - v) + C >= 0, linear in lambda, so holding at both ends it
holds at every scale between; further rungs would add points, no constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .numerics import AffselError, Point, PointTableBuilder, Scalar
from .hyperplane import Instance, SelectConfig, select_affine
from .oracle import check_domination


class LadderError(AffselError):
    pass


class FeatureMapError(AffselError):
    pass


def _ray_key(point: Point) -> Optional[Tuple[tuple, object]]:
    """Canonical (direction, scale) for the open ray through a point; the
    origin has no ray and returns None."""
    for c in point.coords:
        if c.sign() != 0:
            scale = abs(c)
            direction = tuple((coord / scale).value for coord in point.coords)
            return direction, scale.value
    return None


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


def lift_to_cone(inst: Instance, lambdas) -> ConeInstance:
    lambdas = tuple(lambdas)
    if not lambdas or lambdas[0] != 1:
        raise LadderError("scale ladder must start at 1")
    prev = 0
    for lam in lambdas:
        if lam <= 0:
            raise LadderError("scales must be positive")
        if lam <= prev:
            raise LadderError("scale ladder must be strictly increasing")
        prev = lam

    # per-ray best slope: M(x, ray) = max f(x, y) / s(y) over ray members
    ray_best: Dict[tuple, Dict[str, object]] = {}
    origin_rows: Optional[Dict[str, object]] = None
    for j, p in enumerate(inst.ys.points):
        key = _ray_key(p)
        if key is None:
            origin_rows = {x: inst.values[x][j].value for x in inst.xs}
            continue
        direction, scale = key
        slot = ray_best.setdefault(direction, {})
        for x in inst.xs:
            slope = inst.values[x][j].value / scale
            if x not in slot or slot[x] < slope:
                slot[x] = slope

    builder = PointTableBuilder(inst.n, inst.xs)
    lam_scalars = [Scalar.exact(l) for l in lambdas]
    for j, p in enumerate(inst.ys.points):
        key = _ray_key(p)
        for lam, lam_s in zip(lambdas, lam_scalars):
            z = p.scale(lam_s)
            if key is None:
                # origin: contributions lambda * f(x, 0) collide at 0; max rule
                vals = {x: Scalar(lam * origin_rows[x]) for x in inst.xs}
            else:
                direction, scale = key
                zscale = lam * scale
                vals = {x: Scalar(zscale * ray_best[direction][x]) for x in inst.xs}
            builder.insert(z, vals)
    ps, rows = builder.freeze()
    lifted = Instance(n=inst.n, xs=inst.xs, ys=ps, values=rows)
    return ConeInstance(instance=lifted)


@dataclass(frozen=True)
class LinearConfig:
    lambda_max: int = 2 ** 20
    doublings: int = 3
    select: SelectConfig = SelectConfig()


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


def _attempt(inst: Instance, lambda_max: int, config: LinearConfig):
    cone = lift_to_cone(inst, (1,) if lambda_max == 1 else (1, lambda_max))
    selector, trace = select_affine(cone.instance, config.select)
    lam = Scalar.exact(lambda_max)
    zero = Scalar.zero()
    eps_map = {x: (c if c.value > 0 else zero) / lam for x, c in selector.c.items()}
    report = check_domination("linear", inst.xs, inst.ys.points, inst.values,
                              {x: 0 for x in inst.xs},
                              {x: selector.b[x].raw() for x in inst.xs})
    failed = {x for x, _, _ in report.failures}
    exact_map = {x: x not in failed for x in inst.xs}
    return selector.b, eps_map, exact_map, selector.c, trace


def select_linear(inst: Instance, config: LinearConfig = LinearConfig()) -> LinearSelector:
    """Certified linear selection: always returns A and a residual epsilon
    with f <= A.y + epsilon on the sample; retries with a doubled ladder
    while any section stays inexact and retries remain."""
    attempts: List[AttemptRecord] = []
    lambda_max = config.lambda_max
    retries = config.doublings
    while True:
        a_map, eps_map, exact_map, c_map, _ = _attempt(inst, lambda_max, config)
        attempts.append(AttemptRecord(lambda_max=lambda_max, exact=exact_map))
        if all(exact_map.values()) or retries <= 0:
            return LinearSelector(
                n=inst.n, xs=inst.xs, a=a_map, epsilon=eps_map, exact=exact_map,
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
    dims = {phi[p].dim for p in inst.ys.points}
    if len(dims) > 1:
        raise FeatureMapError("feature images have mixed dimensions")
    m = dims.pop() if dims else 0
    builder = PointTableBuilder(m, inst.xs)
    for j, p in enumerate(inst.ys.points):
        builder.insert(phi[p], {x: inst.values[x][j] for x in inst.xs})
    ps, rows = builder.freeze()
    return Instance(n=m, xs=inst.xs, ys=ps, values=rows)


def feature_select(inst: Instance, phi: Mapping[Point, Point],
                   config: LinearConfig = LinearConfig()) -> LinearSelector:
    """Linear selection in feature space: f(x, y) <= A(x).phi(y) + epsilon(x)."""
    pushed = push_through_features(inst, phi)
    return select_linear(pushed, config)
