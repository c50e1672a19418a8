"""Seeded instance generation and bit-exact JSON serialization.

Generators are pure functions of (seed, parameters); coefficients are drawn
from small-denominator rationals so that intersection points and elimination
steps stay compact at desk scale.  They draw and compute on integers over one
denominator, _DEN = 840 (values over _DEN ** 2), and reduce each to its
integer pair as they fill the ``InstanceFile``, which lists the distinct
points in exact lexicographic order.  They build no ``Instance``;
``to_instance`` makes one.  A file's coordinates and values are read
(``parse_pair``) into and written from reduced integer pairs, the form
``Instance.pairs`` holds, so no Fraction stands between the JSON text and
the kernel.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Dict, List, Mapping, Optional, Tuple

from .numerics import EXACT, AffselError, Point, Scalar, check_mode
from .hyperplane import Instance

SCHEMA_VERSION = 1

# a rational as its integer pair (p, q): q > 0 and the value is p / q
Pair = Tuple[int, int]

# the most digits a run of digits in a file, a numerator or a denominator
# may have: Python's default int-to-str limit, so every value read can be written
MAX_DIGITS = 4300
_LIMIT = 10 ** MAX_DIGITS

# "p/q" or an integer, or a decimal with a point or an exponent, in ASCII
# digits: the grammar of Fraction() differs between Python versions
_RATIONAL = re.compile(r"""
    (?P<sign>[-+]?)
    (?: (?P<num>\d+) (?: / (?P<den>0*[1-9]\d*) )?
      | (?=\.?\d) (?P<int>\d*) (?: \.(?P<frac>\d*) )? (?: [eE](?P<exp>[-+]?\d+) )? )
    """, re.ASCII | re.VERBOSE)


class InstanceFileError(AffselError):
    pass


def _lowest(p: int, q: int) -> Pair:
    """p / q (q > 0) in lowest terms."""
    g = gcd(p, q)
    return p // g, q // g


def pair_text(pair: Pair) -> str:
    """A reduced pair (p, q) as files hold it: "p/q", or bare "p" for q = 1."""
    p, q = pair
    return str(p) if q == 1 else f"{p}/{q}"


def parse_pair(value) -> Pair:
    """The one reader of rationals in files, as the reduced integer pair
    (p, q), q > 0: a JSON number, or a string holding "p/q" or a decimal
    such as "-1.5e3".  Each run of digits, and the numerator and the
    denominator in lowest terms, may have at most MAX_DIGITS digits; sizes
    are checked before any large integer is built.

    Plain ASCII "p", "-p" and "p/q" of at most MAX_DIGITS characters, all
    that ``gen`` writes, are read without the regex: ASCII text is digits
    exactly where ``str.isdigit`` says so.  Every other form, and every
    error, goes through the regex."""
    if type(value) is int:      # read_json bounds the size of JSON integers
        return value, 1
    if type(value) is str and value.isascii() and len(value) <= MAX_DIGITS:
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return int(num), 1
            if den.isdigit() and (q := int(den)):
                p = int(num)
                g = gcd(p, q)
                return p // g, q // g
    text = (value if isinstance(value, str) else str(value) if type(value) is float else "").strip()
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise InstanceFileError(f"not a finite rational: {value!r}")
    sign, num, den, whole, frac, exp = m.groups("")
    if num:     # "p/q" or an integer: runs within the limit keep lowest terms within it
        if len(num) <= MAX_DIGITS and len(den) <= MAX_DIGITS:
            return _lowest(int(sign + num), int(den or 1))
    elif max(len(whole), len(frac), len(exp)) <= MAX_DIGITS:
        # whole.frac * 10^exp; zero at any exponent
        num = int(whole or "0") * 10 ** len(frac) + int(frac or "0")
        shift = int(exp or "0") - len(frac) if num else 0
        # past 3 * MAX_DIGITS no reduction brings the value back under the limit
        if abs(shift) <= 3 * MAX_DIGITS:
            num = -num if sign == "-" else num
            p, q = _lowest(num * 10 ** max(shift, 0), 10 ** max(-shift, 0))
            if abs(p) < _LIMIT and q < _LIMIT:
                return p, q
    shown = text if len(text) <= 40 else text[:20] + "..."
    raise InstanceFileError(f"{shown!r} exceeds the limit of {MAX_DIGITS} digits")


def parse_rational(value) -> Fraction:
    """``parse_pair`` as a Fraction, for function and selector files."""
    return Fraction(*parse_pair(value))


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise InstanceFileError(f"a JSON integer exceeds the limit of {MAX_DIGITS} digits")
    return int(text)


def parse_ids(xs, source: str) -> List[str]:
    """X as distinct parameter ids: each a JSON string or number, read as its text."""
    if not isinstance(xs, list):
        raise InstanceFileError(f"{source}: X must be a list of parameter ids")
    for x in xs:
        if type(x) not in (str, int, float):
            raise InstanceFileError(
                f"{source}: a parameter id must be a JSON string or number, got {x!r}")
    ids = [str(x) for x in xs]
    if len(set(ids)) != len(ids):
        dup = next(x for x in ids if ids.count(x) > 1)
        raise InstanceFileError(f"{source}: duplicate parameter id {dup!r} in X")
    return ids


def read_json(path):
    """The JSON document in a UTF-8 file; text that is not JSON, nests too
    deeply or holds an integer of more than MAX_DIGITS digits is an
    InstanceFileError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except RecursionError:
        raise InstanceFileError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:
        raise InstanceFileError(f"{path}: not readable JSON: {exc}") from None


def _text_rows(rows) -> List[List[str]]:
    return [list(map(pair_text, row)) for row in rows]


def _point(row) -> Point:
    return Point([Scalar(Fraction(p, q)) for p, q in row])


@dataclass
class InstanceFile:
    """On-disk instance: every coordinate and value as its reduced integer
    pair (p, q), q > 0, one value row per parameter, aligned with the point
    order; read into pairs by ``parse_pair`` and written from them as "p/q"
    strings (bare "p" for integers)."""

    n: int
    xs: List[str]
    y_rows: List[List[Pair]]
    f_rows: List[List[Pair]]
    phi_rows: Optional[List[List[Pair]]] = None
    y0_rows: Optional[List[List[Pair]]] = None
    meta: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "X": list(self.xs),
            "Y": _text_rows(self.y_rows),
            "f": _text_rows(self.f_rows),
        }
        if self.phi_rows is not None:
            out["phi"] = _text_rows(self.phi_rows)
        if self.y0_rows is not None:
            out["y0"] = _text_rows(self.y0_rows)
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
            xs = parse_ids(data["X"], "instance file")
            y_rows = _pair_rows(data, "Y")
            f_rows = _pair_rows(data, "f")
            phi = _pair_rows(data, "phi") if data.get("phi") is not None else None
            y0 = _pair_rows(data, "y0") if data.get("y0") is not None else None
        except KeyError as exc:
            raise InstanceFileError(f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InstanceFileError(f"malformed instance file: {exc}") from exc
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
        for i, row in enumerate(phi or ()):
            if len(row) != len(phi[0]):
                raise InstanceFileError(
                    f"phi row {i} has {len(row)} entries, the first row has {len(phi[0])}")
        if y0 is not None and len(y0) != len(xs):
            raise InstanceFileError("y0 must align with X")
        return cls(n=n, xs=xs, y_rows=y_rows, f_rows=f_rows, phi_rows=phi,
                   y0_rows=y0, meta=data.get("meta"))

    # -- conversion ------------------------------------------------------

    def to_instance(self, mode: str = EXACT) -> Instance:
        check_mode(mode)
        return Instance.from_pairs(self.n, self.xs, self.y_rows, dict(zip(self.xs, self.f_rows)))

    def phi_table(self) -> Optional[Dict[Point, Point]]:
        if self.phi_rows is None:
            return None
        table = {}
        for yrow, zrow in zip(self.y_rows, self.phi_rows):
            y = _point(yrow)
            z = _point(zrow)
            if table.setdefault(y, z) != z:
                raise InstanceFileError(
                    f"Y repeats the point {y.serialize()} with different phi rows")
        return table

    def y0_table(self, mode: str = EXACT) -> Optional[Dict[str, Point]]:
        check_mode(mode)
        if self.y0_rows is None:
            return None
        return {x: _point(row) for x, row in zip(self.xs, self.y0_rows)}


def _pair_rows(data: dict, field: str) -> List[List[Pair]]:
    rows = data[field]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InstanceFileError(f"{field} must be a list of rows")
    return [list(map(parse_pair, row)) for row in rows]


def check_schema_version(data: dict, source: str) -> None:
    """A file without ``schema_version`` reads as version 1; any value but
    the JSON integer 1 is an error."""
    version = data.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InstanceFileError(
            f"{source}: schema_version must be the integer {SCHEMA_VERSION}, got {version!r}")


def parse_dimension(value) -> int:
    """n as a JSON integer or a string of one; anything else is an error,
    never a silent truncation; a string holds one optional sign and ASCII
    digits."""
    if isinstance(value, str) and re.fullmatch(r"\s*[-+]?[0-9]+\s*", value):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InstanceFileError(f"n must be a non-negative integer, got {value!r}")
    return value


def load_instance_file(path) -> InstanceFile:
    return InstanceFile.from_json_dict(read_json(path))


def save_instance_file(doc: InstanceFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc.dumps())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


# coefficients and slacks are drawn as p/q with 1 <= q <= MAX_DENOMINATOR and
# held as their numerators over one denominator, _DEN = lcm(1..MAX_DENOMINATOR)
COEFF_LOW, COEFF_HIGH = -5, 5
SLACK_HIGH = 5
MAX_DENOMINATOR = 8
_DEN = lcm(*range(1, MAX_DENOMINATOR + 1))
# the numerators of the _GRID (221) distinct values _rand_fraction draws, so
# a sample of dimension n has at most _GRID ** n distinct points
_VALUES = sorted({p * (_DEN // q) for q in range(1, MAX_DENOMINATOR + 1)
                  for p in range(COEFF_LOW * q, COEFF_HIGH * q + 1)})
_GRID = len(_VALUES)


def _rand_fraction(rng: random.Random, low: int = COEFF_LOW, high: int = COEFF_HIGH) -> int:
    q = rng.randint(1, MAX_DENOMINATOR)
    return rng.randint(low * q, high * q) * (_DEN // q)


def _rand_point(rng: random.Random, n: int) -> tuple:
    return tuple(_rand_fraction(rng) for _ in range(n))


def _distinct_points(rng: random.Random, n: int, count: int,
                     seed_points: Tuple[tuple, ...] = ()) -> List[tuple]:
    """``count`` distinct points, the seed points first; all of the grid
    where it has fewer.  Drawn one at a time, repeats dropped, a point takes
    about two draws up to a quarter of the grid, 6.5 at three quarters and
    more near all of it (a coupon collection), so past a quarter the points
    are grid cells drawn without replacement, each cell's base-_GRID digits
    indexing _VALUES.  A dimension-zero point is drawn from no randomness."""
    grid = _GRID ** n
    count = min(count, grid)     # no draw adds a point once every one is there
    points = list(seed_points)
    seen = set(points)
    if n and 4 * count > grid:
        for cell in rng.sample(range(grid), count):
            p = tuple([_VALUES[cell // _GRID ** i % _GRID] for i in range(n)])
            if p not in seen:
                points.append(p)
        return points[:count]
    attempts = 0
    while len(points) < count and attempts < count * 200:
        p = _rand_point(rng, n)
        attempts += 1
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def _sorted_file(n: int, xs: List[str], points: List[tuple], rows: Mapping[str, list],
                 meta: dict, base: Optional[tuple] = None) -> InstanceFile:
    """The file of distinct points and their rows, the points in exact
    lexicographic order, as ``Instance.from_pairs`` orders them: coordinates
    are numerators over _DEN, which sort as integers, and values over
    _DEN ** 2; each is reduced to the file's pair here.  ``base`` is every
    x's base point."""
    order = sorted(range(len(points)), key=points.__getitem__)
    y0_rows = None if base is None else [[_lowest(c, _DEN) for c in base] for _ in xs]
    return InstanceFile(n=n, xs=xs, y_rows=[[_lowest(c, _DEN) for c in points[j]] for j in order],
                        f_rows=[[_lowest(rows[x][j], _DEN ** 2) for j in order] for x in xs],
                        y0_rows=y0_rows, meta=meta)


def _text(v: int) -> str:
    """A numerator over _DEN as the text of its value, for a generator's meta."""
    return pair_text(_lowest(v, _DEN))


def _sample(seed: int, n: int, nx: int, ny: int, seed_points: Tuple[tuple, ...] = ()):
    """What every generator checks and draws first: (rng, xs, points)."""
    if nx < 1 or ny < 1:
        raise InstanceFileError("sizes must be >= 1")
    if n < 0:
        raise InstanceFileError("n must be >= 0")
    rng = random.Random(seed)
    return rng, [f"x{i}" for i in range(nx)], _distinct_points(rng, n, ny, seed_points)


def _dot(coeffs, p, start: int = 0) -> int:
    """coeffs . p + start over _DEN ** 2, coeffs and p numerators over _DEN."""
    return sum(map(mul, coeffs, p), start)


def gen_affine_dominated(seed: int, n: int, nx: int, ny: int, *,
                         zero_slack: bool = False) -> InstanceFile:
    """Instances with a planted affine dominator: f(x, y) = b.y + c - slack."""
    rng, xs, points = _sample(seed, n, nx, ny)
    witness_b, witness_c, rows = {}, {}, {}
    for x in xs:
        b = [_rand_fraction(rng) for _ in range(n)]
        c = _rand_fraction(rng)
        witness_b[x], witness_c[x] = list(map(_text, b)), _text(c)
        row = []
        for p in points:
            slack = 0 if zero_slack else _rand_fraction(rng, 0, SLACK_HIGH)
            row.append(_dot(b, p, _DEN * (c - slack)))
        rows[x] = row
    meta = {
        "generator": "affine_dominated",
        "seed": seed,
        "witness": {"b": witness_b, "c": witness_c},
        "zero_slack": zero_slack,
    }
    return _sorted_file(n, xs, points, rows, meta)


def gen_meager_linear(seed: int, n: int, nx: int, ny: int) -> InstanceFile:
    """Exactly linear sections f(x, y) = alpha(x).y; alpha recorded as witness."""
    rng, xs, points = _sample(seed, n, nx, ny)
    alphas = {x: [_rand_fraction(rng) for _ in range(n)] for x in xs}
    rows = {x: [_dot(alphas[x], p) for p in points] for x in xs}
    meta = {
        "generator": "meager_linear",
        "seed": seed,
        "witness": {"alpha": {x: list(map(_text, alphas[x])) for x in xs}},
    }
    return _sorted_file(n, xs, points, rows, meta)


def gen_convex_sections(seed: int, n: int, nx: int, ny: int, k: int,
                        shifted: bool = False) -> InstanceFile:
    """Max-of-affine convex sections vanishing at the origin.

    g(x, y) = max_j p_j(x).y, so every planted slope is a valid subgradient
    at the origin.  With ``shifted``, the whole sample is translated by a
    base point and per-parameter offsets are added, for the shifted-origin
    workflow; the same seed without ``shifted`` is the pre-shifted twin.
    """
    if k < 1:
        raise InstanceFileError("sizes must be >= 1")
    rng, xs, points = _sample(seed, n, nx, ny, ((0,) * n,))
    slopes = {x: [[_rand_fraction(rng) for _ in range(n)] for _ in range(k)] for x in xs}
    rows = {x: [max(_dot(s, p) for s in slopes[x]) for p in points] for x in xs}
    meta = {
        "generator": "convex_sections",
        "seed": seed,
        "k": k,
        "witness": {"slopes": {x: [list(map(_text, s)) for s in slopes[x]] for x in xs}},
        "shifted": shifted,
    }
    base = None
    if shifted:
        base = _rand_point(rng, n)
        offsets = {x: _rand_fraction(rng) for x in xs}
        points = [tuple(map(add, p, base)) for p in points]
        rows = {x: [v + _DEN * offsets[x] for v in rows[x]] for x in xs}
        meta["offsets"] = {x: _text(offsets[x]) for x in xs}
    return _sorted_file(n, xs, points, rows, meta, base)
