"""The crossing geometry of one recursion level and the cone lift, in plain
Fraction arithmetic on points: the references the integer kernel of
``WorkingTable`` (test_kernel.py) and the integer lift of ``conelift``
(test_conelift.py) are compared against, and whose formulas
test_hyperplane.py pins.
"""

from fractions import Fraction

from affsel.hyperplane import Instance
from affsel.numerics import Point, PointSet, Scalar, primitive


class SignConditionError(Exception):
    pass


def _check_signs(y: Point, yprime: Point, what: str) -> None:
    if not y.coords[-1].value > 0 > yprime.coords[-1].value:
        raise SignConditionError(f"{what} requires last coordinates of opposite strict signs")


def intersection_point(y: Point, yprime: Point) -> Point:
    """Where the segment from yprime (last coord < 0) to y (last coord > 0)
    crosses the hyperplane {last coordinate = 0}; the last coordinate of the
    result cancels exactly."""
    _check_signs(y, yprime, "intersection")
    yn, ypn = y.coords[-1].value, yprime.coords[-1].value
    return Point(Scalar((yn * b - ypn * a) / (yn - ypn))
                 for a, b in zip(y.raw(), yprime.raw()))


def chord_value(fx, y: Point, yprime: Point) -> Scalar:
    """Value at the crossing point of the affine chord through (y, fx[y]) and
    (yprime, fx[yprime])."""
    _check_signs(y, yprime, "chord")
    fy, fyp = fx[y].value, fx[yprime].value
    yn, ypn = y.coords[-1].value, yprime.coords[-1].value
    return Scalar((yn * fyp - ypn * fy) / (yn - ypn))


def extended_value(table, x: str, point: Point) -> Scalar:
    """The value of a working table at ``point``, read from its integer
    pair; off its points, -|point|^2."""
    key = primitive(point.raw())
    if key in table.points:
        return Scalar(Fraction(*table.values[x][table.points.index(key)]))
    return Scalar(-sum((c * c for c in point.raw()), Fraction(0)))


def _ray_key(coords: tuple):
    """Canonical (direction, scale) for the open ray through a point given
    by its coordinates; the origin has no ray and returns None."""
    for c in coords:
        if c:
            scale = abs(c)
            return tuple([coord / scale for coord in coords]), scale
    return None


def reference_lift(inst: Instance, lambdas) -> Instance:
    """The instance lifted onto the ladder ``lambdas`` (not checked here):
    every sample point at every rung, with the value lam * |y_first| times the
    largest f / |y_first| over the point's ray (lam * f(x, 0) at the origin),
    equal points merged by the max of their Fraction values and sorted as
    Fraction tuples, sharing no code with the library's accumulator."""
    # per-ray best slope: M(x, ray) = max f(x, y) / s(y) over ray members
    coords = [p.raw() for p in inst.ys.points]
    keys = [_ray_key(c) for c in coords]
    ray_best = {}
    origin_rows = None
    for j, key in enumerate(keys):
        if key is None:
            origin_rows = {x: inst.values[x][j].value for x in inst.xs}
            continue
        direction, scale = key
        slot = ray_best.setdefault(direction, {})
        for x in inst.xs:
            slope = inst.values[x][j].value / scale
            if x not in slot or slot[x] < slope:
                slot[x] = slope

    best = {}       # lifted point -> {x: the largest value lifted onto it}
    for p, key in zip(coords, keys):
        for lam in lambdas:
            slot = best.setdefault(tuple([lam * c for c in p]), {})
            for x in inst.xs:
                if key is None:
                    # origin: contributions lambda * f(x, 0) collide at 0; max rule
                    value = lam * origin_rows[x]
                else:
                    direction, scale = key
                    value = lam * scale * ray_best[direction][x]
                if x not in slot or slot[x] < value:
                    slot[x] = value
    points = sorted(best)
    return Instance(n=inst.n, xs=tuple(inst.xs),
                    ys=PointSet(inst.n, [primitive(p) for p in points]),
                    pairs={x: tuple([best[p][x].as_integer_ratio() for p in points])
                           for x in inst.xs})
