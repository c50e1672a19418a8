"""Finite bracket insertion.

Given u <= l on a finite parameter set (dicts from parameter ids to
Fractions), produce an interpolant u <= f <= l.  The midpoint rule is the
robust default.  The staged rule is the paper's Borel insertion: on a
finite parameter set, Lusin separation with the lower strategy picks B = A
at every level, the simple-function insertion then reproduces the dyadic
floor of u, the limsup over stages is the finest floor, and the repair onto
the bracket snaps it back to u.  So the staged rule is the lower end u
itself, for any number of stages.  The ceiling cover supplies the minimal
positive-integer dominator used by the base case of the main recursion.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numerics import AffselError


class BracketViolationError(AffselError):
    pass


def sandwich(u: dict, l: dict, mode: str = "midpoint") -> dict:
    """Produce f with u <= f <= l pointwise, exactly; u and l must list the
    same ids in the same order.

    midpoint: f = (u + l) / 2.
    staged:   f = u, the lower end (see the module docstring).
    """
    if list(u) != list(l):
        raise AffselError("domain mismatch")
    for x, ux in u.items():
        if ux > l[x]:
            raise BracketViolationError(f"bracket violated at x={x}")
    if mode == "midpoint":
        return {x: (ux + l[x]) / 2 for x, ux in u.items()}
    if mode != "staged":
        raise AffselError(f"unknown sandwich mode {mode!r}")
    return u


def ceiling_cover(value: Fraction) -> Fraction:
    """The least positive integer >= value."""
    return Fraction(max(1, math.ceil(value)))
