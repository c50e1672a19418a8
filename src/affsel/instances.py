"""Seeded instance generation and bit-exact JSON serialization.

Generators are pure functions of (seed, parameters); coefficients are drawn
from small-denominator rationals so that intersection points and elimination
steps stay compact at desk scale.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from .numerics import EXACT, AffselError, Point, Scalar, check_mode, origin_point
from .hyperplane import Instance

SCHEMA_VERSION = 1


class InstanceFileError(AffselError):
    pass


@dataclass
class InstanceFile:
    """On-disk instance: rationals as 'p/q' strings (bare 'p' for integers),
    one value row per parameter, aligned with the point order."""

    n: int
    xs: List[str]
    y_rows: List[List[str]]
    f_rows: List[List[str]]
    phi_rows: Optional[List[List[str]]] = None
    y0_rows: Optional[List[List[str]]] = None
    meta: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "X": list(self.xs),
            "Y": [list(r) for r in self.y_rows],
            "f": [list(r) for r in self.f_rows],
        }
        if self.phi_rows is not None:
            out["phi"] = [list(r) for r in self.phi_rows]
        if self.y0_rows is not None:
            out["y0"] = [list(r) for r in self.y0_rows]
        if self.meta is not None:
            out["meta"] = self.meta
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "InstanceFile":
        if not isinstance(data, dict):
            raise InstanceFileError("an instance file must hold a JSON object")
        check_schema_version(data, "instance file")
        try:
            n = parse_dimension(data["n"])
            if not isinstance(data["X"], list):
                raise InstanceFileError("X must be a list of parameter ids")
            xs = [str(x) for x in data["X"]]
            y_rows = _rational_rows(data, "Y")
            f_rows = _rational_rows(data, "f")
            phi = _rational_rows(data, "phi") if data.get("phi") is not None else None
            y0 = _rational_rows(data, "y0") if data.get("y0") is not None else None
        except KeyError as exc:
            raise InstanceFileError(f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InstanceFileError(f"malformed instance file: {exc}") from exc
        if len(set(xs)) != len(xs):
            dup = next(x for x in xs if xs.count(x) > 1)
            raise InstanceFileError(f"duplicate parameter id {dup!r} in X")
        if len(f_rows) != len(xs):
            raise InstanceFileError("f must have one row per parameter")
        for row in y_rows:
            if len(row) != n:
                raise InstanceFileError(f"point of dimension {len(row)}, expected {n}")
        for row in y0 or ():
            if len(row) != n:
                raise InstanceFileError(f"y0 point of dimension {len(row)}, expected {n}")
        for row in f_rows:
            if len(row) != len(y_rows):
                raise InstanceFileError("f rows must align with Y")
        if phi is not None and len(phi) != len(y_rows):
            raise InstanceFileError("phi must align with Y")
        if y0 is not None and len(y0) != len(xs):
            raise InstanceFileError("y0 must align with X")
        return cls(n=n, xs=xs, y_rows=y_rows, f_rows=f_rows, phi_rows=phi,
                   y0_rows=y0, meta=data.get("meta"))

    @classmethod
    def loads(cls, text: str) -> "InstanceFile":
        return cls.from_json_dict(json.loads(text))

    # -- conversion ------------------------------------------------------

    def to_instance(self, mode: str = EXACT) -> Instance:
        check_mode(mode)
        points = [Point(Scalar.parse(c) for c in row) for row in self.y_rows]
        rows = {x: [Scalar.parse(c) for c in self.f_rows[i]]
                for i, x in enumerate(self.xs)}
        return Instance.build(self.n, self.xs, points, rows)

    def phi_table(self) -> Optional[Dict[Point, Point]]:
        if self.phi_rows is None:
            return None
        table = {}
        for yrow, zrow in zip(self.y_rows, self.phi_rows):
            y = Point(Scalar.parse(c) for c in yrow)
            z = Point(Scalar.parse(c) for c in zrow)
            if table.setdefault(y, z) != z:
                raise InstanceFileError(
                    f"Y repeats the point {y.serialize()} with different phi rows")
        return table

    def y0_table(self, mode: str = EXACT) -> Optional[Dict[str, Point]]:
        check_mode(mode)
        if self.y0_rows is None:
            return None
        return {x: Point(Scalar.parse(c) for c in row)
                for x, row in zip(self.xs, self.y0_rows)}

    @classmethod
    def from_instance(cls, inst: Instance, meta: Optional[dict] = None,
                      y0: Optional[Mapping[str, Point]] = None) -> "InstanceFile":
        y_rows = [p.serialize() for p in inst.ys.points]
        f_rows = [[inst.values[x][j].serialize() for j in range(len(inst.ys))]
                  for x in inst.xs]
        y0_rows = None
        if y0 is not None:
            y0_rows = [y0[x].serialize() for x in inst.xs]
        return cls(n=inst.n, xs=list(inst.xs), y_rows=y_rows, f_rows=f_rows,
                   y0_rows=y0_rows, meta=meta)


def _normalize_rational(text) -> str:
    try:
        return str(Fraction(str(text)))
    except (ValueError, ZeroDivisionError):
        raise InstanceFileError(f"not a finite rational: {text!r}") from None


def _rational_rows(data: dict, field: str) -> List[List[str]]:
    rows = data[field]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InstanceFileError(f"{field} must be a list of rows")
    return [[_normalize_rational(c) for c in row] for row in rows]


def check_schema_version(data: dict, source: str) -> None:
    """A file without ``schema_version`` reads as version 1; any value but
    the JSON integer 1 is an error."""
    version = data.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InstanceFileError(
            f"{source}: schema_version must be the integer {SCHEMA_VERSION}, got {version!r}")


def parse_dimension(value) -> int:
    """n as a JSON integer or a string of one; anything else is an error,
    never a silent truncation."""
    if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InstanceFileError(f"n must be a non-negative integer, got {value!r}")
    return value


def load_instance_file(path) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return InstanceFile.loads(fh.read())


def save_instance_file(doc: InstanceFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc.dumps())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenRanges:
    coeff_low: int = -5
    coeff_high: int = 5
    max_denominator: int = 8
    slack_high: int = 5
    zero_slack: bool = False


def _rand_fraction(rng: random.Random, ranges: GenRanges,
                   low: Optional[int] = None, high: Optional[int] = None) -> Fraction:
    low = ranges.coeff_low if low is None else low
    high = ranges.coeff_high if high is None else high
    q = rng.randint(1, ranges.max_denominator)
    p = rng.randint(low * q, high * q)
    return Fraction(p, q)


def _rand_point(rng: random.Random, n: int, ranges: GenRanges) -> Point:
    return Point(Scalar(_rand_fraction(rng, ranges)) for _ in range(n))


def _distinct_points(rng: random.Random, n: int, count: int,
                     ranges: GenRanges, seed_points: Tuple[Point, ...] = ()) -> List[Point]:
    points = list(seed_points)
    seen = {p.raw() for p in points}
    attempts = 0
    while len(points) < count and attempts < count * 200:
        p = _rand_point(rng, n, ranges)
        attempts += 1
        if p.raw() in seen:
            continue
        seen.add(p.raw())
        points.append(p)
    return points


def gen_affine_dominated(seed: int, n: int, nx: int, ny: int,
                         ranges: GenRanges = GenRanges()) -> InstanceFile:
    """Instances with a planted affine dominator: f(x, y) = b.y + c - slack."""
    if nx < 1 or ny < 1:
        raise InstanceFileError("sizes must be >= 1")
    if n < 0:
        raise InstanceFileError("n must be >= 0")
    rng = random.Random(seed)
    if n == 0:
        ny = 1
    xs = [f"x{i}" for i in range(nx)]
    points = _distinct_points(rng, n, ny, ranges)
    witness_b: Dict[str, List[str]] = {}
    witness_c: Dict[str, str] = {}
    rows: Dict[str, List[Scalar]] = {}
    for x in xs:
        b = [_rand_fraction(rng, ranges) for _ in range(n)]
        c = _rand_fraction(rng, ranges)
        witness_b[x] = [str(v) for v in b]
        witness_c[x] = str(c)
        row = []
        for p in points:
            slack = Fraction(0) if ranges.zero_slack else \
                _rand_fraction(rng, ranges, low=0, high=ranges.slack_high)
            val = c - slack
            for coeff, coord in zip(b, p.coords):
                val += coeff * coord.value
            row.append(Scalar(val))
        rows[x] = row
    inst = Instance.build(n, xs, points, rows)
    meta = {
        "generator": "affine_dominated",
        "seed": seed,
        "witness": {"b": witness_b, "c": witness_c},
        "zero_slack": ranges.zero_slack,
    }
    return InstanceFile.from_instance(inst, meta=meta)


def gen_meager_linear(seed: int, n: int, nx: int, ny: int,
                      ranges: GenRanges = GenRanges()) -> InstanceFile:
    """Exactly linear sections f(x, y) = alpha(x).y; alpha recorded as witness."""
    if nx < 1 or ny < 1:
        raise InstanceFileError("sizes must be >= 1")
    if n < 0:
        raise InstanceFileError("n must be >= 0")
    rng = random.Random(seed)
    if n == 0:
        ny = 1
    xs = [f"x{i}" for i in range(nx)]
    points = _distinct_points(rng, n, ny, ranges)
    alphas: Dict[str, List[Fraction]] = {}
    rows: Dict[str, List[Scalar]] = {}
    for x in xs:
        alpha = [_rand_fraction(rng, ranges) for _ in range(n)]
        alphas[x] = alpha
        row = []
        for p in points:
            val = Fraction(0)
            for coeff, coord in zip(alpha, p.coords):
                val += coeff * coord.value
            row.append(Scalar(val))
        rows[x] = row
    inst = Instance.build(n, xs, points, rows)
    meta = {
        "generator": "meager_linear",
        "seed": seed,
        "witness": {"alpha": {x: [str(v) for v in alphas[x]] for x in xs}},
    }
    return InstanceFile.from_instance(inst, meta=meta)


def gen_convex_sections(seed: int, n: int, nx: int, ny: int, k: int,
                        shifted: bool = False,
                        ranges: GenRanges = GenRanges()) -> InstanceFile:
    """Max-of-affine convex sections vanishing at the origin.

    g(x, y) = max_j p_j(x).y, so every planted slope is a valid subgradient
    at the origin.  With ``shifted``, the whole sample is translated by a
    base point and per-parameter offsets are added, for the shifted-origin
    workflow; the same seed without ``shifted`` is the pre-shifted twin.
    """
    if nx < 1 or ny < 1 or k < 1:
        raise InstanceFileError("sizes must be >= 1")
    if n < 0:
        raise InstanceFileError("n must be >= 0")
    rng = random.Random(seed)
    xs = [f"x{i}" for i in range(nx)]
    origin = origin_point(n)
    points = _distinct_points(rng, n, ny, ranges, seed_points=(origin,))
    slopes: Dict[str, List[List[Fraction]]] = {}
    rows: Dict[str, List[Scalar]] = {}
    for x in xs:
        px = [[_rand_fraction(rng, ranges) for _ in range(n)] for _ in range(k)]
        slopes[x] = px
        row = []
        for p in points:
            best = None
            for slope in px:
                val = Fraction(0)
                for coeff, coord in zip(slope, p.coords):
                    val += coeff * coord.value
                if best is None or val > best:
                    best = val
            row.append(Scalar(best))
        rows[x] = row
    meta = {
        "generator": "convex_sections",
        "seed": seed,
        "k": k,
        "witness": {"slopes": {x: [[str(v) for v in s] for s in slopes[x]] for x in xs}},
        "shifted": shifted,
    }
    y0 = None
    if shifted:
        base = _rand_point(rng, n, ranges)
        offsets = {x: _rand_fraction(rng, ranges) for x in xs}
        points = [p.add(base) for p in points]
        rows = {x: [v + Scalar(offsets[x]) for v in rows[x]] for x in xs}
        y0 = {x: base for x in xs}
        meta["offsets"] = {x: str(offsets[x]) for x in xs}
    inst = Instance.build(n, xs, points, rows)
    return InstanceFile.from_instance(inst, meta=meta, y0=y0)
