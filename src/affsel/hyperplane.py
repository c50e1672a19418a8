"""Per-parameter dominating affine functionals by recursion on the dimension.

Each level extends the value table by -|y|^2 off the sample, splits the
working set by the sign of the last coordinate, collapses crossing chords
into an envelope on the separating hyperplane, recurses one dimension down,
and finally inserts the last coefficient inside the bracket [U, L] implied
by the lower-dimensional solution.  All choices are deterministic functions
of the value section, so equal sections always produce equal selectors.

Exact mode runs each level on an integer kernel (``_ExactLevel``).  A point
y in Q^k is held as its primitive integer vector (a_1, .., a_k, d): d > 0 is
the least common denominator of the coordinates, y = a / d, and
gcd(a_1, .., a_k, d) = 1.  That vector is unique for each point, so equal
integer keys mean equal points and a dict keyed by them indexes points
exactly.  The sign split, the crossing points and their chord weights
depend only on the point set; they are computed once per level and shared
by every section.  Values stay (numerator, denominator) pairs compared by
cross-multiplication, and a Fraction is built once per result.  Float mode
keeps generic loops over ``Scalar`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

from .numerics import (
    EXACT,
    FLOAT,
    AffselError,
    Point,
    PointSet,
    PointTableBuilder,
    Scalar,
    drop_last,
    split_by_last_coordinate,
)
from .sandwich import FiniteFunction, SandwichConfig, ceiling_cover, sandwich

ORIGINAL = "original"
GENERATED = "generated"

# above this many crossing pairs at dimension one, the single envelope value
# is taken from the upper hull bridge instead of the full pair enumeration
_HULL_CUTOFF = 64


class SignConditionError(AffselError):
    pass


class InvariantBreachError(AffselError):
    def __init__(self, message: str, detail: Optional[dict] = None):
        super().__init__(message)
        self.detail = detail or {}


@dataclass(frozen=True)
class Instance:
    """Finite selection instance: parameter ids, a point cloud, and a value table.

    Rows are aligned with the canonical order of ``ys``; duplicate points
    supplied at build time are merged by pointwise max.
    """

    n: int
    xs: Tuple[str, ...]
    ys: PointSet
    values: Mapping[str, Tuple[Scalar, ...]]

    @property
    def mode(self) -> str:
        return self.ys.mode

    @classmethod
    def build(cls, n: int, xs, points, rows: Mapping, mode: str = EXACT) -> "Instance":
        """Canonicalize: dedup/sort points, realign rows, merge duplicates by max."""
        xs = tuple(xs)
        points = list(points)
        builder = PointTableBuilder(n, xs, mode)
        for j, p in enumerate(points):
            builder.insert(p, {x: rows[x][j] for x in xs})
        ps, aligned = builder.freeze()
        return cls(n=n, xs=xs, ys=ps, values=aligned)

    def value(self, x: str, index: int) -> Scalar:
        return self.values[x][index]

    def section_fingerprint(self, x: str) -> tuple:
        return tuple(s.value for s in self.values[x])

    def to_mode(self, mode: str) -> "Instance":
        if mode == self.mode:
            return self
        conv = lambda s: Scalar(mode, s.value)
        points = [Point(conv(c) for c in p.coords) for p in self.ys.points]
        rows = {x: [conv(s) for s in self.values[x]] for x in self.xs}
        return Instance.build(self.n, self.xs, points, rows, mode)


@dataclass
class EnvelopeStats:
    n_plus: int = 0
    n_minus: int = 0
    n_zero: int = 0
    n_intersections: int = 0


@dataclass
class WorkingTable:
    """One recursion level: a working set with per-parameter values and origin tags.

    Off-set queries fall back to -|w|^2 in the current level's coordinates.
    """

    dim: int
    ys: PointSet
    values: Mapping[str, Tuple[Scalar, ...]]
    tags: Tuple[str, ...]
    mode: str = EXACT
    envelope_stats: Optional[EnvelopeStats] = None

    def extended_value(self, x: str, point: Point) -> Scalar:
        idx = self.ys.index_of(point)
        if idx is not None:
            return self.values[x][idx]
        return -point.norm_sq()


def extend_domain(inst: Instance) -> WorkingTable:
    """Wrap an instance as the top working table; every point is original."""
    return WorkingTable(
        dim=inst.n,
        ys=inst.ys,
        values=inst.values,
        tags=tuple(ORIGINAL for _ in inst.ys.points),
        mode=inst.mode,
    )


def intersection_point(y: Point, yprime: Point) -> Point:
    """Where the segment from yprime (last coord < 0) to y (last coord > 0)
    crosses the hyperplane {last coordinate = 0}; the last coordinate of the
    result cancels exactly."""
    if y.coords[-1].sign() <= 0 or yprime.coords[-1].sign() >= 0:
        raise SignConditionError(
            "intersection requires last coordinates of opposite strict signs")
    yn = y.coords[-1].value
    ypn = yprime.coords[-1].value
    den = yn - ypn
    coords = []
    for a, b in zip(y.coords, yprime.coords):
        coords.append(Scalar(a.mode, (yn * b.value - ypn * a.value) / den))
    return Point(coords)


def _chord_raw(yn, ypn, fy, fyp):
    return (yn * fyp - ypn * fy) / (yn - ypn)


def chord_value(fx: Mapping[Point, Scalar], y: Point, yprime: Point) -> Scalar:
    """Value at the crossing point of the affine chord through (y, fx[y]) and
    (yprime, fx[yprime])."""
    if y.coords[-1].sign() <= 0 or yprime.coords[-1].sign() >= 0:
        raise SignConditionError(
            "chord requires last coordinates of opposite strict signs")
    fy, fyp = fx[y], fx[yprime]
    yn, ypn = y.coords[-1], yprime.coords[-1]
    mode = FLOAT if FLOAT in (fy.mode, fyp.mode, yn.mode) else EXACT
    return Scalar(mode, _chord_raw(yn.value, ypn.value, fy.value, fyp.value))


def _cross_nonneg_int(o, a, b) -> bool:
    """Whether (a.c - o.c)(b.v - o.v) - (a.v - o.v)(b.c - o.c) >= 0 for points
    given as (cn, cd, vn, vd) integer quadruples with positive denominators.
    Pure integer arithmetic: no rational normalization in the hull loop."""
    ocn, ocd, ovn, ovd = o
    acn, acd, avn, avd = a
    bcn, bcd, bvn, bvd = b
    d1 = acn * ocd - ocn * acd
    d2 = bvn * ovd - ovn * bvd
    d3 = avn * ovd - ovn * avd
    d4 = bcn * ocd - ocn * bcd
    # shared positive factor ocd*ovd cancels from both sides
    return d1 * d2 * avd * bcd >= d3 * d4 * acd * bvd


def build_envelope(table: WorkingTable) -> WorkingTable:
    """Collapse one dimension: chord envelope at crossing points, merged with
    the extended values, on the dropped-coordinate point set."""
    if table.dim < 1:
        raise AffselError("cannot build an envelope at dimension zero")
    return _level(table).envelope()


def _level(table: WorkingTable):
    return _ExactLevel(table) if table.mode == EXACT else _FloatLevel(table)


# ---------------------------------------------------------------------------
# exact mode: the integer kernel
# ---------------------------------------------------------------------------


def _primitive(point: Point) -> tuple:
    """The point as (a_1, .., a_k, d): integers with d > 0, gcd 1, point = a/d."""
    raw = point.raw()
    d = lcm(*[c.denominator for c in raw])
    return tuple([c.numerator * (d // c.denominator) for c in raw]) + (d,)


def _order_key(key: tuple, point: Point) -> tuple:
    """Sort key for the lexicographic order of a point's coordinates: each
    coordinate as a correctly rounded float (monotone, cheap to compare),
    followed by the exact value, which decides only where the floats tie."""
    den = key[-1]
    out = []
    for c, s in zip(key, point.coords):
        out += (c / den, s.value)
    return tuple(out)


def _max_chord(pairs, num, den, bn, bd):
    """Largest of bn/bd and the chords of ``pairs`` at their shared crossing,
    as an integer pair; None when no chord beats bn/bd."""
    won = False
    for ip, im, wp, wm, w in pairs:
        dp = den[ip]
        dm = den[im]
        cn = wp * num[im] * dp + wm * num[ip] * dm
        cd = w * dp * dm
        if cn * bd > bn * cd:
            bn, bd, won = cn, cd, True
    return (bn, bd) if won else None


class _ExactLevel:
    """One exact level: the section-independent geometry, computed once and
    shared by the envelope and the bracket of every section.

    A point is held as its primitive integer vector (see ``_primitive``); a
    plus point (a, d_a) and a minus point (b, d_b) cross the hyperplane at
    (a_k b_i - b_k a_i) / (a_k d_b - b_k d_a), and the chord there is
    (w+ f(minus) + w- f(plus)) / (w+ + w-) with w+ = a_k d_b, w- = -b_k d_a.
    Values stay integer pairs (num, den) until each section's result is
    built as one Fraction.
    """

    def __init__(self, table: WorkingTable):
        self.table = table
        self.vecs = [_primitive(p) for p in table.ys.points]
        self.plus, self.minus, self.zero = [], [], []
        for j, v in enumerate(self.vecs):
            last = v[-2]
            (self.plus if last > 0 else self.minus if last < 0 else self.zero).append(j)

    def envelope(self, hull: Optional[bool] = None) -> WorkingTable:
        table, vecs = self.table, self.vecs
        n_pairs = len(self.plus) * len(self.minus)
        if hull is None:
            hull = table.dim == 1 and n_pairs > _HULL_CUTOFF
        stats = EnvelopeStats(n_plus=len(self.plus), n_minus=len(self.minus),
                              n_zero=len(self.zero))

        # child key -> stored zero-side index; child key -> crossing pairs
        stored: Dict[tuple, int] = {}
        for j in self.zero:
            v = vecs[j]
            stored[v[:-2] + v[-1:]] = j
        crossings: Dict[tuple, list] = {}
        if hull and n_pairs:
            crossings[(1,)] = []      # every pair meets at the origin of the line
        elif n_pairs:
            for ip in self.plus:
                a = vecs[ip]
                ak, da, head = a[-2], a[-1], a[:-2]
                for im in self.minus:
                    b = vecs[im]
                    wp = ak * b[-1]
                    wm = -b[-2] * da
                    w = wp + wm
                    t = [ak * bi - b[-2] * ai for ai, bi in zip(head, b)]
                    g = gcd(w, *t)
                    key = tuple([c // g for c in t]) + (w // g,) if g > 1 else (*t, w)
                    pairs = crossings.get(key)
                    if pairs is None:
                        crossings[key] = pairs = []
                    pairs.append((ip, im, wp, wm, w))
        stats.n_intersections = len(crossings)

        # child points, (sort key, point, stored index or None, pairs, ext),
        # sorted into canonical order
        children = []
        for key, j in stored.items():
            point = Point(table.ys.points[j].coords[:-1])
            children.append((_order_key(key, point), point, j, crossings.pop(key, ()), None))
        for key, pairs in crossings.items():
            den = key[-1]
            ext = Scalar(EXACT, Fraction(-sum([c * c for c in key[:-1]]), den * den))
            point = Point([Scalar(EXACT, Fraction(c, den)) for c in key[:-1]])
            children.append((_order_key(key, point), point, None, pairs, ext))
        del stored, crossings     # the key maps end here; only the plan is kept
        children.sort(key=itemgetter(0))
        # dimension one: the off-zero points, already sorted by coordinate
        coords = None
        if hull and n_pairs:
            coords = [(v[0], v[1], j) for j, v in enumerate(vecs) if v[0]]

        values = {}
        for x, row in table.values.items():
            num = [s.value.numerator for s in row]
            den = [s.value.denominator for s in row]
            out = []
            for _, _, j, pairs, ext in children:
                if coords:
                    pairs = (self._bridge(coords, num, den),)
                if j is None:
                    base = ext.value
                    best = _max_chord(pairs, num, den, base.numerator, base.denominator)
                    out.append(ext if best is None else Scalar(EXACT, Fraction(*best)))
                else:
                    best = _max_chord(pairs, num, den, num[j], den[j])
                    out.append(row[j] if best is None else Scalar(EXACT, Fraction(*best)))
            values[x] = tuple(out)
        tags = tuple(GENERATED if entry[2] is None else table.tags[entry[2]]
                     for entry in children)
        return WorkingTable(
            dim=table.dim - 1,
            ys=PointSet.presorted(table.dim - 1, [entry[1] for entry in children], EXACT),
            values=values,
            tags=tags,
            mode=EXACT,
            envelope_stats=stats,
        )

    def _bridge(self, coords, num, den) -> tuple:
        """The crossing pair on the upper hull edge over zero: its chord is
        the largest of all crossing chords at dimension one."""
        quads = [(cn, cd, num[j], den[j]) for cn, cd, j in coords]
        hull: list = []
        for i, q in enumerate(quads):
            while len(hull) >= 2 and _cross_nonneg_int(quads[hull[-2]], quads[hull[-1]], q):
                hull.pop()
            hull.append(i)
        for p, q in zip(hull, hull[1:]):
            if coords[p][0] < 0 < coords[q][0]:
                (bk, db, im), (ak, da, ip) = coords[p], coords[q]
                wp, wm = ak * db, -bk * da
                return ip, im, wp, wm, wp + wm
        raise AffselError("hull does not span zero")  # unreachable with both signs present

    def bracket(self, b_rows, c_map):
        """U = max over plus points and L = min over minus points of
        (f - c - b.y) / y_k, with c and b over one common denominator e."""
        upper: Dict[str, Optional[Scalar]] = {}
        lower: Dict[str, Optional[Scalar]] = {}
        for x, row in self.table.values.items():
            c = c_map[x].value
            bs = [s.value for s in b_rows[x]]
            e = lcm(c.denominator, *[b.denominator for b in bs])
            cq = c.numerator * (e // c.denominator)
            bq = [b.numerator * (e // b.denominator) for b in bs]
            upper[x] = self._extreme(self.plus, row, cq, bq, e, 1)
            lower[x] = self._extreme(self.minus, row, cq, bq, e, -1)
        return upper, lower

    def _extreme(self, indices, row, cq, bq, e, sign) -> Optional[Scalar]:
        # residual * e = (f.num e d - f.den (cq d + bq.a)) / (f.den a_k); sign
        # is +1 on the plus side (max) and -1 on the minus side (min), and
        # multiplying through by it keeps the denominator positive
        bn = bd = None
        for j in indices:
            v = self.vecs[j]
            d = v[-1]
            s = cq * d
            for b, a in zip(bq, v):
                s += b * a
            f = row[j].value
            fd = f.denominator
            rn = (f.numerator * e * d - fd * s) * sign
            rd = fd * v[-2] * sign
            if bn is None or sign * (rn * bd - bn * rd) > 0:
                bn, bd = rn, rd
        if bn is None:
            return None
        return Scalar(EXACT, Fraction(bn, bd * e))


# ---------------------------------------------------------------------------
# float mode: generic Scalar loops
# ---------------------------------------------------------------------------


def _upper_hull_value_at_zero(pts_sorted):
    """Max crossing-chord value at coordinate 0 for 1-d points (coord, value).

    Equals the upper convex hull of the 2-d cloud evaluated at abscissa zero;
    the hull edge spanning zero joins one point of each sign, so the bridge
    realizes the pairwise maximum exactly.
    """
    hull = []
    for c, v in pts_sorted:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (v - oy) - (ay - oy) * (c - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append((c, v))
    for (px, pv), (qx, qv) in zip(hull, hull[1:]):
        if px < 0 and qx > 0:
            return _chord_raw(qx, px, qv, pv)
    raise AffselError("hull does not span zero")  # unreachable with both signs present


class _FloatLevel:
    """One float level: today's loops over Scalar values, which are the only
    path that serves float inputs."""

    def __init__(self, table: WorkingTable):
        self.table = table
        self.split = split_by_last_coordinate(table.ys)
        self.plus = [(p, table.ys.index_of(p)) for p in self.split.plus.points]
        self.minus = [(p, table.ys.index_of(p)) for p in self.split.minus.points]

    def envelope(self) -> WorkingTable:
        table, split = self.table, self.split
        xs = tuple(table.values)
        raw_rows = {x: [s.value for s in table.values[x]] for x in xs}
        mode = table.mode

        # child accumulator: raw key -> [point, {x: raw value}, tag]
        acc: Dict[tuple, list] = {}

        def merge(point: Point, vals: dict, tag: str):
            key = point.raw()
            entry = acc.get(key)
            if entry is None:
                acc[key] = [point, vals, tag]
                return
            stored = entry[1]
            for x, v in vals.items():
                if x not in stored or stored[x] < v:
                    stored[x] = v
            if tag == ORIGINAL:
                entry[2] = ORIGINAL

        for dropped in split.zero.points:
            src = split.zero_to_source[dropped]
            i = table.ys.index_of(src)
            merge(dropped, {x: raw_rows[x][i] for x in xs}, table.tags[i])

        n_pairs = len(self.plus) * len(self.minus)
        stats = EnvelopeStats(n_plus=len(self.plus), n_minus=len(self.minus),
                              n_zero=len(split.zero))
        if n_pairs:
            if table.dim == 1 and n_pairs > _HULL_CUTOFF:
                stats.n_intersections = 1
                self._envelope_dim1_hull(raw_rows, merge)
            else:
                stats.n_intersections = self._envelope_pairs(raw_rows, merge)

        child_points = [entry[0] for entry in acc.values()]
        child_ps = PointSet(table.dim - 1, child_points, mode)
        rows = {x: [] for x in xs}
        tags = []
        for p in child_ps.points:
            entry = acc[p.raw()]
            tags.append(entry[2])
            for x in xs:
                rows[x].append(Scalar(mode, entry[1][x]))
        return WorkingTable(
            dim=table.dim - 1,
            ys=child_ps,
            values={x: tuple(rows[x]) for x in xs},
            tags=tuple(tags),
            mode=mode,
            envelope_stats=stats,
        )

    def _envelope_pairs(self, raw_rows, merge) -> int:
        table = self.table
        xs = tuple(raw_rows)
        seen = set()
        zero = Scalar.zero(table.mode)
        for y, iy in self.plus:
            yn = y.coords[-1].value
            for yp, ip in self.minus:
                ypn = yp.coords[-1].value
                den = yn - ypn
                tpoint = drop_last(intersection_point(y, yp))
                seen.add(tpoint.raw())
                full = Point(list(tpoint.coords) + [zero])
                stored = table.ys.index_of(full)
                if stored is None:
                    ext_base = -tpoint.norm_sq().value   # shared across sections
                chords = {}
                for x in xs:
                    row = raw_rows[x]
                    chord = (yn * row[ip] - ypn * row[iy]) / den
                    ext = row[stored] if stored is not None else ext_base
                    chords[x] = ext if ext > chord else chord
                merge(tpoint, chords, GENERATED)
        return len(seen)

    def _envelope_dim1_hull(self, raw_rows, merge) -> None:
        # at dimension one every crossing pair meets the hyperplane at the same
        # point, so the envelope is a single max taken from the hull bridge
        table = self.table
        coords = [(p.coords[0].value, i) for p, i in self.plus + self.minus]
        coords.sort(key=lambda t: t[0])
        zero = Point([Scalar.zero(table.mode)])
        stored = table.ys.index_of(zero)
        vals = {}
        for x, row in raw_rows.items():
            h = _upper_hull_value_at_zero([(c, row[i]) for c, i in coords])
            ext = row[stored] if stored is not None else -zero.norm_sq().value
            vals[x] = h if h > ext else ext
        merge(Point(()), vals, GENERATED)

    def bracket(self, b_rows, c_map):
        mode = self.table.mode
        upper: Dict[str, Optional[Scalar]] = {}
        lower: Dict[str, Optional[Scalar]] = {}
        for x, values in self.table.values.items():
            row = [s.value for s in values]
            bc = [s.value for s in b_rows[x]]
            cval = c_map[x].value

            def residual_slope(point: Point, idx: int):
                rest = cval
                for coeff, coord in zip(bc, point.coords):
                    rest = rest + coeff * coord.value
                return (row[idx] - rest) / point.coords[-1].value

            upper[x] = lower[x] = None
            if self.plus:
                upper[x] = Scalar(mode, max(residual_slope(p, i) for p, i in self.plus))
            if self.minus:
                lower[x] = Scalar(mode, min(residual_slope(p, i) for p, i in self.minus))
        return upper, lower


@dataclass(frozen=True)
class SelectConfig:
    sandwich_mode: str = "midpoint"   # "midpoint" | "staged"
    depth: int = 24
    base: str = "novikov"             # "novikov" | "tight"


@dataclass(frozen=True)
class AffineSelector:
    """Per-parameter dominating affine functional y -> B(x)·y + C(x)."""

    n: int
    xs: Tuple[str, ...]
    b: Mapping[str, Point]
    c: Mapping[str, Scalar]

    def evaluate(self, x: str, point: Point) -> Scalar:
        total = self.c[x]
        for coeff, coord in zip(self.b[x].coords, point.coords):
            total = total + coeff * coord
        return total

    def serialize(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "affine",
            "n": self.n,
            "X": list(self.xs),
            "B": [self.b[x].serialize() for x in self.xs],
            "C": [self.c[x].serialize() for x in self.xs],
        }


@dataclass
class LevelRecord:
    """Diagnostics for one recursion node."""

    dim: int
    n_points: int
    n_plus: int = 0
    n_minus: int = 0
    n_zero: int = 0
    n_intersections: int = 0
    points: Optional[PointSet] = None
    tags: Tuple[str, ...] = ()
    values: Optional[Mapping[str, Tuple[Scalar, ...]]] = None
    upper: Optional[Dict[str, Optional[Scalar]]] = None   # U per x (None: no positive side)
    lower: Optional[Dict[str, Optional[Scalar]]] = None   # L per x (None: no negative side)
    rule: str = ""                                        # sandwich | lower-only | upper-only | zero | base
    sandwich_mode: Optional[str] = None
    base_rule: Optional[str] = None
    base_c: Optional[Dict[str, Scalar]] = None

    def summary(self) -> dict:
        out = {"dim": self.dim, "points": self.n_points}
        if self.dim >= 1:
            out.update({
                "plus": self.n_plus, "minus": self.n_minus, "zero": self.n_zero,
                "intersections": self.n_intersections, "rule": self.rule,
            })
        else:
            out["base_rule"] = self.base_rule
        return out


@dataclass
class RecursionTrace:
    levels: List[LevelRecord] = field(default_factory=list)

    def summary(self) -> dict:
        return {"levels": [rec.summary() for rec in self.levels]}


def select_affine(inst: Instance, config: SelectConfig = SelectConfig()):
    """Select a dominating affine functional per parameter.

    Returns (selector, trace); domination holds with zero slack on the full
    working closure in exact mode.
    """
    working = extend_domain(inst)
    trace = RecursionTrace()
    b_rows, c_map = _select_level(working, config, trace.levels)
    selector = AffineSelector(
        n=inst.n,
        xs=inst.xs,
        b={x: Point(b_rows[x]) for x in inst.xs},
        c=c_map,
    )
    return selector, trace


def _base_case(working: WorkingTable, config: SelectConfig, levels) -> Dict[str, Scalar]:
    xs = tuple(working.values)
    mode = working.mode
    record = LevelRecord(dim=0, n_points=len(working.ys), points=working.ys,
                        tags=working.tags, values=working.values,
                        rule="base", base_rule=config.base)
    if len(working.ys):
        base_vals = FiniteFunction(xs, {x: working.values[x][0] for x in xs})
        if config.base == "tight":
            c_map = dict(base_vals.values)
        else:
            c_map = dict(ceiling_cover(base_vals).values)
    else:
        fallback = Scalar.one(mode) if config.base != "tight" else Scalar.zero(mode)
        c_map = {x: fallback for x in xs}
    record.base_c = c_map
    levels.append(record)
    return c_map


def _select_level(working: WorkingTable, config: SelectConfig, levels):
    k = working.dim
    xs = tuple(working.values)
    if k == 0:
        c_map = _base_case(working, config, levels)
        return {x: [] for x in xs}, c_map

    level = _level(working)
    child = level.envelope()
    stats = child.envelope_stats
    record = LevelRecord(
        dim=k, n_points=len(working.ys), points=working.ys, tags=working.tags,
        values=working.values, n_plus=stats.n_plus, n_minus=stats.n_minus,
        n_zero=stats.n_zero, n_intersections=stats.n_intersections,
    )
    levels.append(record)
    b_rows, c_map = _select_level(child, config, levels)

    upper, lower = level.bracket(b_rows, c_map)
    for x in xs:
        u_val, l_val = upper[x], lower[x]
        if u_val is not None and l_val is not None and not u_val.le_bound(l_val):
            raise InvariantBreachError(
                f"invariant breach: bracket violated at x={x} (dim {k})",
                detail={"x": x, "dim": k, "U": u_val.serialize(), "L": l_val.serialize(),
                        "levels": [rec.summary() for rec in levels]},
            )
    record.upper = upper
    record.lower = lower

    if level.plus and level.minus:
        record.rule = "sandwich"
        record.sandwich_mode = config.sandwich_mode
        u_fn = FiniteFunction(xs, {x: upper[x] for x in xs})
        l_fn = FiniteFunction(xs, {x: lower[x] for x in xs})
        last = sandwich(u_fn, l_fn, SandwichConfig(config.sandwich_mode, config.depth))
        picks = {x: last(x) for x in xs}
    elif level.minus:
        record.rule = "lower-only"
        picks = {x: lower[x] for x in xs}
    elif level.plus:
        record.rule = "upper-only"
        picks = {x: upper[x] for x in xs}
    else:
        record.rule = "zero"
        picks = {x: Scalar.zero(working.mode) for x in xs}

    for x in xs:
        b_rows[x].append(picks[x])
    return b_rows, c_map
