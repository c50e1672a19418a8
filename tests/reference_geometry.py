"""The crossing geometry of one recursion level, in plain Fraction arithmetic
on points: the reference the integer kernel of ``WorkingTable`` is compared
against (test_kernel.py) and whose formulas test_hyperplane.py pins.
"""

from fractions import Fraction

from affsel.numerics import Point, Scalar, primitive


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
