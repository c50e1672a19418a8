"""Exact rational scalars, points, point sets, and the integer-vector form
of a rational point.

An instance is stored once, in its integer form: each point as its
``primitive`` vector and each value as its reduced integer pair, which
``Instance.from_pairs`` makes and the recursion, the checks and the shift read.
``Scalar`` and ``Point`` are what selectors and reports hold; an instance's
own Points and Scalars are views, built from the integer form on first read
(``PointSet.points``, ``Instance.values``).  Values are arbitrary-precision
rationals, so every comparison is error-free and domination checks hold
with zero slack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

# the one arithmetic; the only value accepted where an API takes a mode
EXACT = "exact"


class AffselError(Exception):
    """Base class for all library errors."""


class NumericsError(AffselError):
    pass


def check_mode(mode: str) -> None:
    if mode != EXACT:
        raise NumericsError(f"unknown scalar mode {mode!r}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, (Fraction, int, float, str)):
        return Fraction(value)
    raise NumericsError(f"cannot coerce {value!r} to a rational")


class Scalar:
    """An exact rational number, as instances, selectors and reports hold it.
    The library computes on ``value``; the operators left are the ones the
    benchmark reads."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value

    @staticmethod
    def _raw(other) -> Fraction:
        if isinstance(other, Scalar):
            return other.value
        if isinstance(other, int):
            return Fraction(other)
        raise NumericsError(f"cannot mix Scalar with {type(other).__name__}")

    def __sub__(self, other):
        return Scalar(self.value - self._raw(other))

    def __neg__(self):
        return Scalar(-self.value)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def le_bound(self, other) -> bool:
        return self.value <= self._raw(other)

    def serialize(self) -> str:
        try:
            return str(self.value)
        except ValueError:      # a numerator or denominator past the int-to-str limit
            raise NumericsError("output too large: a value has more digits than "
                                "Python's int-to-str limit") from None

    def __repr__(self):
        return f"Scalar({self.value})"


class Point:
    """Immutable point in k-dimensional rational space; k = 0 allowed."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Scalar]):
        self.coords = tuple(coords)

    @classmethod
    def of(cls, *values) -> "Point":
        return cls(Scalar(_as_fraction(v)) for v in values)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def raw(self) -> tuple:
        return tuple(s.value for s in self.coords)

    def dot(self, other: "Point") -> Scalar:
        if other.dim != self.dim:
            raise NumericsError(f"dot of dim {self.dim} with dim {other.dim}")
        return Scalar(sum((a.value * b.value for a, b in zip(self.coords, other.coords)),
                          Fraction(0)))

    def serialize(self) -> list:
        return [c.serialize() for c in self.coords]

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.raw() == other.raw()

    def __hash__(self):
        return hash(self.raw())

    def __repr__(self):
        return "Point(" + ", ".join(s.serialize() for s in self.coords) + ")"


def primitive(coords) -> tuple:
    """Rationals as one integer vector (a_1, .., a_k, d): d > 0 is their least
    common denominator and coords[i] == a_i / d, so gcd(a_1, .., a_k, d) == 1
    and equal coordinates always give equal vectors."""
    d = math.lcm(*[c.denominator for c in coords])
    return (*[c.numerator * (d // c.denominator) for c in coords], d)


def rational_coords(vector) -> tuple:
    """The coordinates a_i / d of an integer vector (a_1, .., a_k, d), d > 0,
    as Fractions: the inverse of ``primitive``."""
    return tuple([Fraction(a, vector[-1]) for a in vector[:-1]])


def origin_point(dim: int) -> Point:
    return Point(Scalar(Fraction(0)) for _ in range(dim))


class PointSet:
    """Duplicate-free points of one dimension in canonical (lexicographic)
    order, held as their primitive vectors.  The constructor wraps vectors
    that are already so; ``Instance.from_pairs`` is what puts a table of points
    in that form.  Length, equality and ``index_of`` read the vectors; the
    ``Point``s are built on first read of ``points`` or on iteration."""

    __slots__ = ("dim", "vectors", "_points", "_index")

    def __init__(self, dim: int, vectors: Iterable[tuple]):
        self.dim = dim
        self.vectors = tuple(vectors)
        self._points = None
        self._index = None      # vector -> position, built on first lookup

    @property
    def points(self) -> tuple:
        if self._points is None:
            self._points = tuple([Point(map(Scalar, rational_coords(v))) for v in self.vectors])
        return self._points

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.points)

    def index_of(self, coords: tuple) -> Optional[int]:
        """The position of the point with these coordinates (rationals), if any."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vectors)}
        return self._index.get(primitive(coords))

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.dim == other.dim and self.vectors == other.vectors

    def __repr__(self):
        return f"PointSet(dim={self.dim}, vectors={list(self.vectors)!r})"
