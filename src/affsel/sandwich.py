"""Finite bracket-insertion machinery.

Given functions u <= l on a finite parameter set, produce an interpolant
u <= f <= l.  The midpoint rule is the robust default; the staged rule runs
the layered construction (indicator separation, simple-function insertion,
dyadic stages, pointwise limsup) and exists to exercise that construction
end to end.  The ceiling cover supplies the minimal positive-integer
dominator used by the base case of the main recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .numerics import EXACT, AffselError, Scalar


class SeparationError(AffselError):
    pass


class GridError(AffselError):
    pass


class BracketViolationError(AffselError):
    pass


@dataclass(frozen=True)
class FiniteFunction:
    """Total function from a finite parameter set to scalars."""

    domain: Tuple[str, ...]
    values: Mapping[str, Scalar]

    def __post_init__(self):
        missing = [x for x in self.domain if x not in self.values]
        if missing:
            raise AffselError(f"function not total: missing {missing}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, Scalar]]) -> "FiniteFunction":
        vals = dict(pairs)
        return cls(tuple(vals), vals)

    def __call__(self, x: str) -> Scalar:
        return self.values[x]

    def map_values(self, fn) -> "FiniteFunction":
        return FiniteFunction(self.domain, {x: fn(self.values[x]) for x in self.domain})

    def combine(self, other: "FiniteFunction", fn) -> "FiniteFunction":
        if self.domain != other.domain:
            raise AffselError("domain mismatch")
        return FiniteFunction(self.domain, {x: fn(self.values[x], other.values[x]) for x in self.domain})

    def min_value(self) -> Scalar:
        return min((self.values[x] for x in self.domain), key=lambda s: s.value)

    def max_value(self) -> Scalar:
        return max((self.values[x] for x in self.domain), key=lambda s: s.value)

    def serialize(self) -> dict:
        return {"X": list(self.domain), "values": [self.values[x].serialize() for x in self.domain]}


@dataclass(frozen=True)
class SeparationChoice:
    """Deterministic rule for picking B with A ⊆ B ⊆ C."""

    strategy: str = "lower"


LOWER = SeparationChoice("lower")


def separate(a: frozenset, c: frozenset, choice: SeparationChoice = LOWER) -> frozenset:
    """Pick a separator B with A ⊆ B ⊆ C.  The lower strategy returns A itself."""
    a, c = frozenset(a), frozenset(c)
    if not a <= c:
        raise SeparationError(f"separation hypothesis violated: {sorted(a - c)} outside the cover")
    if choice.strategy != "lower":
        raise SeparationError(f"unknown separation strategy {choice.strategy!r}")
    return a


def insert_simple(u: FiniteFunction, l: FiniteFunction,
                  grid: Sequence[Scalar]) -> FiniteFunction:
    """Insert between grid-valued u <= l via nested level-set separators.

    Builds the suffix unions B'_k of the per-level separators and assigns
    each parameter the grid value of the difference layer it lands in.  With
    the lower separation strategy the output reproduces u.
    """
    if u.domain != l.domain:
        raise AffselError("domain mismatch")
    grid = list(grid)
    for i in range(1, len(grid)):
        if not grid[i - 1] < grid[i]:
            raise GridError("grid must be strictly increasing")
    index = {g.value: i for i, g in enumerate(grid)}

    def grid_index(s: Scalar, who: str, x: str) -> int:
        i = index.get(s.value)
        if i is None:
            raise GridError(f"{who}({x}) = {s.serialize()} is not on the grid")
        return i

    xs = u.domain
    for x in xs:
        if u(x) > l(x):
            raise BracketViolationError(f"bracket violated at x={x}")
    iu = {x: grid_index(u(x), "u", x) for x in xs}
    il = {x: grid_index(l(x), "l", x) for x in xs}

    n = len(grid)
    level_a = [frozenset(x for x in xs if iu[x] >= i) for i in range(n)]
    level_c = [frozenset(x for x in xs if il[x] >= i) for i in range(n)]
    level_b = [separate(level_a[i], level_c[i]) for i in range(n)]

    # suffix unions are nested decreasing; difference layers partition X
    suffix: list = [None] * n
    acc: frozenset = frozenset()
    for i in range(n - 1, -1, -1):
        acc = acc | level_b[i]
        suffix[i] = acc

    values: Dict[str, Scalar] = {}
    for x in xs:
        layer = 0
        for i in range(n - 1, -1, -1):
            if x in suffix[i]:
                layer = i
                break
        values[x] = grid[layer]
    return FiniteFunction(xs, values)


def _check_unit_interval(u: FiniteFunction) -> None:
    for x in u.domain:
        v = u(x)
        if not 0 <= v.value <= 1:
            raise GridError(f"value {v.serialize()} at x={x} outside [0, 1]")


def _dyadic_floor_raw(value: Fraction, depth: int) -> Fraction:
    scale = 1 << depth
    return Fraction(math.floor(value * scale), scale)


def _dyadic_ceil_raw(value: Fraction, depth: int) -> Fraction:
    scale = 1 << depth
    return Fraction(math.ceil(value * scale), scale)


def dyadic_lower(u: FiniteFunction, depth: int) -> FiniteFunction:
    """Largest depth-N dyadic function below u; values must lie in [0, 1]."""
    _check_unit_interval(u)
    return u.map_values(lambda s: Scalar(EXACT, _dyadic_floor_raw(s.value, depth)))


def _dyadic_upper(l: FiniteFunction, depth: int) -> FiniteFunction:
    _check_unit_interval(l)
    return l.map_values(lambda s: Scalar(EXACT, _dyadic_ceil_raw(s.value, depth)))


@dataclass(frozen=True)
class SandwichConfig:
    mode: str = "midpoint"   # "midpoint" | "staged"
    depth: int = 24


def staged_parameters(u: FiniteFunction, l: FiniteFunction, depth: int):
    """Rescale origin and power-of-two range used by the staged construction.

    Returns (origin, range, exponent): the origin is the depth-N dyadic floor
    of the global min, the range 2^e is the smallest power of two reaching the
    global max.  Anchoring to the absolute dyadic grid keeps depth-N dyadic
    inputs exactly representable through the stages.
    """
    m = u.min_value()
    top = l.max_value()
    origin = Scalar(EXACT, _dyadic_floor_raw(m.value, depth))
    e = 0
    while origin.value + (1 << e) < top.value:
        e += 1
    rng = Scalar.exact(1 << e)
    return origin, rng, e


def _insert_simple_dyadic(u_d: FiniteFunction, l_d: FiniteFunction, depth: int) -> FiniteFunction:
    # same construction as insert_simple on the depth-d dyadic grid; the
    # nested suffix unions collapse to u_d under the lower strategy, so the
    # grid (2^d + 1 values) is never materialized
    for x in u_d.domain:
        if u_d(x) > l_d(x):
            raise BracketViolationError(f"bracket violated at x={x}")
    return u_d


def _staged_limsup(u: FiniteFunction, l: FiniteFunction, depth: int) -> FiniteFunction:
    """Raw staged interpolant: dyadic stages through the insertion step,
    pointwise limsup, rescaled back.  May undershoot u by < 2^-N * R."""
    origin, rng, e = staged_parameters(u, l, depth)
    u_hat = u.map_values(lambda s: (s - origin) / rng)
    l_hat = l.map_values(lambda s: (s - origin) / rng)
    acc = None
    for stage in range(1, depth + 1):
        d = e + stage
        f_d = _insert_simple_dyadic(dyadic_lower(u_hat, d), _dyadic_upper(l_hat, d), d)
        acc = f_d if acc is None else acc.combine(f_d, lambda a, b: a if a.value >= b.value else b)
    assert acc is not None
    return acc.map_values(lambda s: origin + s * rng)


def sandwich(u: FiniteFunction, l: FiniteFunction,
             config: SandwichConfig = SandwichConfig()) -> FiniteFunction:
    """Produce f with u <= f <= l pointwise, exactly.

    midpoint: f = (u + l) / 2.
    staged:   run the dyadic stages and limsup, then snap any residual
              undershoot back onto the bracket so degenerate brackets
              (u(x) = l(x)) are honored exactly.
    """
    if u.domain != l.domain:
        raise AffselError("domain mismatch")
    for x in u.domain:
        if u(x) > l(x):
            raise BracketViolationError(f"bracket violated at x={x}")
    if config.mode == "midpoint":
        return u.combine(l, lambda a, b: (a + b) / 2)
    if config.mode != "staged":
        raise AffselError(f"unknown sandwich mode {config.mode!r}")
    if not u.domain or u.min_value().value == l.max_value().value:
        return FiniteFunction(u.domain, dict(u.values))
    raw = _staged_limsup(u, l, config.depth)
    repaired = {}
    for x in u.domain:
        v = raw(x)
        if v.value < u(x).value:
            v = u(x)
        if v.value > l(x).value:   # cannot happen: stages never exceed u
            v = l(x)
        repaired[x] = v
    return FiniteFunction(u.domain, repaired)


def ceiling_cover(u: FiniteFunction) -> FiniteFunction:
    """Pointwise-minimal positive-integer function dominating u."""
    return u.map_values(lambda s: Scalar.exact(max(1, s.ceil_int())))
