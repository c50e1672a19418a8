"""Dual-mode scalar arithmetic, points, and point-set hygiene.

Everything downstream (envelopes, brackets, oracles) runs on these types.
Exact mode is the default: values are arbitrary-precision rationals and
every comparison is error-free.  Float mode exists for performance
experiments; comparisons against bounds then use a relative tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

EXACT = "exact"
FLOAT = "float"

# float mode: a <= b is accepted iff a <= b + REL_TOL * (1 + |b|)
REL_TOL = 1e-9
# float mode: point coordinates within this absolute gap collapse on insert
DEDUP_TOL = 1e-12

RawValue = Union[Fraction, float]


class AffselError(Exception):
    """Base class for all library errors."""


class NumericsError(AffselError):
    pass


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise NumericsError(f"cannot coerce {value!r} to a rational")


class Scalar:
    """A number in one of two modes: exact rational or 64-bit float.

    Raw comparisons (<, <=, ==) are exact in both modes; ``le_bound`` is the
    tolerant bound check used wherever a value is tested against a bound.
    """

    __slots__ = ("mode", "value")

    def __init__(self, mode: str, value: RawValue):
        if mode == FLOAT:
            value = float(value)
            if value == 0.0:
                value = 0.0  # normalize -0.0
        elif mode != EXACT:
            raise NumericsError(f"unknown scalar mode {mode!r}")
        self.mode = mode
        self.value = value

    @classmethod
    def exact(cls, numerator, denominator: int = 1) -> "Scalar":
        return cls(EXACT, Fraction(numerator, denominator))

    @classmethod
    def from_fraction(cls, fr: Fraction, mode: str = EXACT) -> "Scalar":
        if mode == FLOAT:
            return cls(FLOAT, float(fr))
        return cls(EXACT, fr)

    @classmethod
    def from_float(cls, v: float) -> "Scalar":
        return cls(FLOAT, v)

    @classmethod
    def zero(cls, mode: str = EXACT) -> "Scalar":
        return cls(mode, Fraction(0) if mode == EXACT else 0.0)

    @classmethod
    def one(cls, mode: str = EXACT) -> "Scalar":
        return cls(mode, Fraction(1) if mode == EXACT else 1.0)

    @classmethod
    def parse(cls, text: str, mode: str = EXACT) -> "Scalar":
        """Parse 'p/q' or 'p' (exact) or any float literal (float mode)."""
        if mode == EXACT:
            return cls(EXACT, Fraction(text))
        return cls(FLOAT, float(Fraction(text)) if "/" in text else float(text))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, int):
            return Scalar(self.mode, Fraction(other) if self.mode == EXACT else float(other))
        raise NumericsError(f"cannot mix Scalar with {type(other).__name__}")

    def _binary(self, other, op):
        other = self._coerce(other)
        if self.mode == EXACT and other.mode == EXACT:
            return Scalar(EXACT, op(self.value, other.value))
        return Scalar(FLOAT, op(float(self.value), float(other.value)))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._coerce(other)._binary(self, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._coerce(other)._binary(self, lambda a, b: a / b)

    def __neg__(self):
        return Scalar(self.mode, -self.value)

    def __abs__(self):
        return Scalar(self.mode, abs(self.value))

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.value == other.value
        if isinstance(other, (int, Fraction, float)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other):
        other = self._coerce(other)
        return self.value < other.value

    def __le__(self, other):
        other = self._coerce(other)
        return self.value <= other.value

    def __gt__(self, other):
        return self._coerce(other) < self

    def __ge__(self, other):
        return self._coerce(other) <= self

    def le_bound(self, bound: "Scalar") -> bool:
        """Tolerant `self <= bound`: exact in exact mode, relative slack in float mode."""
        bound = self._coerce(bound)
        if self.mode == EXACT and bound.mode == EXACT:
            return self.value <= bound.value
        a, b = float(self.value), float(bound.value)
        return a <= b + REL_TOL * (1.0 + abs(b))

    def sign(self) -> int:
        if self.value > 0:
            return 1
        if self.value < 0:
            return -1
        return 0

    # -- misc ------------------------------------------------------------

    def ceil_int(self) -> int:
        return math.ceil(self.value)

    def as_fraction(self) -> Fraction:
        return self.value if self.mode == EXACT else Fraction(self.value)

    def __float__(self):
        return float(self.value)

    def serialize(self) -> str:
        if self.mode == EXACT:
            return str(self.value)
        return repr(self.value)

    def __repr__(self):
        return f"Scalar({self.mode}, {self.value})"


class Point:
    """Immutable point in k-dimensional rational (or float) space; k = 0 allowed."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Scalar]):
        self.coords = tuple(coords)

    @classmethod
    def of(cls, *values, mode: str = EXACT) -> "Point":
        return cls(Scalar(mode, _as_fraction(v) if mode == EXACT else float(v)) for v in values)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def raw(self) -> tuple:
        return tuple(s.value for s in self.coords)

    def norm_sq(self) -> Scalar:
        mode = self.mode
        total = Fraction(0) if mode == EXACT else 0.0
        for s in self.coords:
            total = total + s.value * s.value
        return Scalar(mode, total)

    @property
    def mode(self) -> str:
        for s in self.coords:
            return s.mode
        return EXACT

    def dot(self, other: "Point") -> Scalar:
        if other.dim != self.dim:
            raise NumericsError(f"dot of dim {self.dim} with dim {other.dim}")
        mode = FLOAT if FLOAT in (self.mode, other.mode) else EXACT
        total = Fraction(0) if mode == EXACT else 0.0
        for a, b in zip(self.coords, other.coords):
            total = total + a.value * b.value
        return Scalar(mode, total)

    def add(self, other: "Point") -> "Point":
        return Point(a + b for a, b in zip(self.coords, other.coords))

    def sub(self, other: "Point") -> "Point":
        return Point(a - b for a, b in zip(self.coords, other.coords))

    def scale(self, factor: Scalar) -> "Point":
        return Point(c * factor for c in self.coords)

    def serialize(self) -> list:
        return [c.serialize() for c in self.coords]

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.raw() == other.raw()

    def __hash__(self):
        return hash(self.raw())

    def __lt__(self, other):
        return self.raw() < other.raw()

    def __repr__(self):
        return "Point(" + ", ".join(s.serialize() for s in self.coords) + ")"


def origin_point(dim: int, mode: str = EXACT) -> Point:
    return Point(Scalar.zero(mode) for _ in range(dim))


def _coords_close(a: Point, b: Point) -> bool:
    return all(abs(float(x.value) - float(y.value)) <= DEDUP_TOL
               for x, y in zip(a.coords, b.coords))


class PointSet:
    """Ordered, duplicate-free point collection with canonical (lexicographic) order.

    Exact mode dedups by exact equality; float mode merges points whose
    coordinates all agree within DEDUP_TOL.
    """

    __slots__ = ("dim", "points", "mode", "_index")

    def __init__(self, dim: int, points: Iterable[Point], mode: str = EXACT):
        pts = list(points)
        for p in pts:
            if p.dim != dim:
                raise NumericsError(f"point of dim {p.dim} in set of dim {dim}")
        pts = self._dedup_sorted(pts, mode)
        self.dim = dim
        self.mode = mode
        self.points = tuple(pts)
        self._index = None      # raw key -> position, built on first lookup

    @classmethod
    def presorted(cls, dim: int, points: Iterable[Point], mode: str = EXACT) -> "PointSet":
        """Wrap points that are already duplicate-free and in canonical order."""
        ps = cls.__new__(cls)
        ps.dim, ps.mode, ps.points, ps._index = dim, mode, tuple(points), None
        return ps

    @staticmethod
    def _dedup_sorted(pts: list, mode: str) -> list:
        pts = sorted(pts, key=Point.raw)
        if mode == EXACT:
            out, seen = [], set()
            for p in pts:
                k = p.raw()
                if k not in seen:
                    seen.add(k)
                    out.append(p)
            return out
        out: list = []
        for p in pts:
            dup = False
            for q in reversed(out):
                if p.dim and abs(float(p.coords[0].value) - float(q.coords[0].value)) > DEDUP_TOL:
                    break
                if _coords_close(p, q):
                    dup = True
                    break
            if not dup:
                out.append(p)
        return out

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point: Point):
        return self.index_of(point) is not None

    def index_of(self, point: Point) -> Optional[int]:
        if self._index is None:
            self._index = {p.raw(): i for i, p in enumerate(self.points)}
        i = self._index.get(point.raw())
        if i is not None or self.mode == EXACT:
            return i
        for j, q in enumerate(self.points):
            if _coords_close(point, q):
                return j
        return None

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.dim == other.dim and self.points == other.points

    def __repr__(self):
        return f"PointSet(dim={self.dim}, points={list(self.points)!r})"


class SplitResult(NamedTuple):
    plus: PointSet
    minus: PointSet
    zero: PointSet           # last coordinate dropped (dim n-1)
    zero_to_source: dict     # dropped point -> full point with trailing zero


def drop_last(point: Point) -> Point:
    """Strip a trailing zero coordinate; (0,) drops to the empty tuple."""
    if point.dim < 1:
        raise NumericsError("no last coordinate to drop")
    if point.coords[-1].sign() != 0:
        raise NumericsError(f"cannot drop nonzero last coordinate of {point!r}")
    return Point(point.coords[:-1])


def split_by_last_coordinate(ws: PointSet) -> SplitResult:
    """Partition a working set by the sign of the last coordinate.

    Points on the hyperplane come back with the last coordinate dropped,
    alongside a back-reference to their full-dimensional originals.
    """
    if ws.dim < 1:
        raise NumericsError("no last coordinate")
    plus, minus, zero, back = [], [], [], {}
    for p in ws.points:
        s = p.coords[-1].sign()
        if s > 0:
            plus.append(p)
        elif s < 0:
            minus.append(p)
        else:
            d = drop_last(p)
            zero.append(d)
            back[d] = p
    return SplitResult(
        plus=PointSet(ws.dim, plus, ws.mode),
        minus=PointSet(ws.dim, minus, ws.mode),
        zero=PointSet(ws.dim - 1, zero, ws.mode),
        zero_to_source=back,
    )


class PointTableBuilder:
    """Accumulates (point, values) rows; colliding points keep the larger value.

    The max rule realizes the pointwise supremum when generated points
    collide, and makes insertion order irrelevant.
    """

    def __init__(self, dim: int, xs: Optional[tuple] = None, mode: str = EXACT):
        self.dim = dim
        self.xs = tuple(xs) if xs is not None else None
        self.mode = mode
        self._entries: dict = {}   # raw key -> (Point, {x: Scalar})

    def insert(self, point: Point, values) -> None:
        if point.dim != self.dim:
            raise NumericsError(f"dimension mismatch: point dim {point.dim}, table dim {self.dim}")
        if isinstance(values, Scalar):
            if self.xs is not None and len(self.xs) != 1:
                raise NumericsError("scalar insert requires a single-section table")
            values = {(self.xs[0] if self.xs else None): values}
        key = self._key(point)
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = (point, dict(values))
            return
        _, stored = entry
        for x, v in values.items():
            old = stored.get(x)
            stored[x] = v if old is None or old < v else old

    def _key(self, point: Point):
        if self.mode == EXACT:
            return point.raw()
        for k, (p, _) in self._entries.items():
            if _coords_close(point, p):
                return k
        return point.raw()

    def freeze(self):
        """Canonicalize into a PointSet plus rows aligned with its order."""
        pts = [p for p, _ in self._entries.values()]
        ps = PointSet(self.dim, pts, self.mode)
        xs = self.xs if self.xs is not None else self._collect_xs()
        rows = {x: [] for x in xs}
        by_key = {p.raw(): vals for p, vals in self._entries.values()}
        for p in ps.points:
            vals = by_key[p.raw()]
            for x in xs:
                if x not in vals:
                    raise NumericsError(f"missing value for section {x!r} at {p!r}")
                rows[x].append(vals[x])
        return ps, {x: tuple(row) for x, row in rows.items()}

    def _collect_xs(self):
        seen: dict = {}
        for _, vals in self._entries.values():
            for x in vals:
                seen.setdefault(x, None)
        return tuple(seen)
