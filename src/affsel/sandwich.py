"""Finite bracket-insertion machinery.

Given functions u <= l on a finite parameter set, produce an interpolant
u <= f <= l.  The midpoint rule is the robust default.  The staged rule is
the paper's Borel insertion: on a finite parameter set, Lusin separation
with the lower strategy picks B = A at every level, the simple-function
insertion then reproduces the dyadic floor of u, the limsup over stages is
the finest floor, and the repair onto the bracket snaps it back to u.  So
the staged rule is the lower end u itself, for any number of stages.  The
ceiling cover supplies the minimal positive-integer dominator used by the
base case of the main recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple

from .numerics import AffselError, Scalar


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


def staged_parameters(u: FiniteFunction, l: FiniteFunction, depth: int):
    """Rescale origin and power-of-two range of the staged construction.

    Returns (origin, range, exponent): the origin is the depth-N dyadic floor
    of the global min, the range 2^e is the smallest power of two reaching the
    global max.  2^-N times the range bounds the undershoot of the raw stages
    before the repair.
    """
    scale = 1 << depth
    origin = Scalar(Fraction(math.floor(u.min_value().value * scale), scale))
    top = l.max_value()
    e = 0
    while origin.value + (1 << e) < top.value:
        e += 1
    return origin, Scalar.exact(1 << e), e


def sandwich(u: FiniteFunction, l: FiniteFunction, mode: str = "midpoint") -> FiniteFunction:
    """Produce f with u <= f <= l pointwise, exactly.

    midpoint: f = (u + l) / 2.
    staged:   f = u, the lower end (see the module docstring).
    """
    if u.domain != l.domain:
        raise AffselError("domain mismatch")
    for x in u.domain:
        if u(x) > l(x):
            raise BracketViolationError(f"bracket violated at x={x}")
    if mode == "midpoint":
        return u.combine(l, lambda a, b: (a + b) / 2)
    if mode != "staged":
        raise AffselError(f"unknown sandwich mode {mode!r}")
    return u


def ceiling_cover(u: FiniteFunction) -> FiniteFunction:
    """Pointwise-minimal positive-integer function dominating u."""
    return u.map_values(lambda s: Scalar.exact(max(1, s.ceil_int())))
