"""Per-parameter dominating affine functionals by recursion on the dimension.

Each level extends the value table by -|y|^2 off the sample, splits the
working set by the sign of the last coordinate, collapses crossing chords
into an envelope on the separating hyperplane, recurses one dimension down,
and finally inserts the last coefficient inside the bracket [U, L] implied
by the lower-dimensional solution.  All choices are deterministic functions
of the value section, so equal sections always produce equal selectors.

The recursion runs on integers (``WorkingTable``).  A point y in Q^k is held
as its primitive integer vector (a_1, .., a_k, d): d > 0 is the least common
denominator of the coordinates, y = a / d, and gcd(a_1, .., a_k, d) = 1
(``numerics.primitive``).  That vector is unique for each point, so equal
vectors mean equal points and a dict keyed by them indexes points exactly.
The sign split, the crossing points and their chord weights depend only on
the point set; they are computed once per level and shared by every section.
A dimension-two level builds them on the line, where each crossing is the
point t / w of a reduced integer pair (t, w).
A value is a reduced integer pair (p, q): q > 0, gcd(p, q) = 1 and the value
is p / q, the integers a Fraction of it holds.  Pairs are compared by
cross-multiplication, and no table value is ever a Fraction: only the
bracket, the picks and the base constants, which leave the kernel, are.
Floats only guide: they sort an instance's and each child's points, with an
exact re-sort where they tie, and propose each section's upper hull at
dimension one, which one exact pass certifies; where it does not, the same
chain runs on Fractions.
The hull serves both the bridge (the largest chord over zero) and the
bracket, which only hull vertices can attain.
Integers decide every result, and no float is stored in a table or reaches a
selector.  An ``Instance`` is stored in the same integers:
``Instance.from_pairs``, which reads an instance file's integer pairs as
they are and to which ``Instance.build`` hands its rationals as pairs, and
the cone lift make their top tables with one accumulator,
``merge_table``, which merges equal vectors by the pointwise max and sorts
them with ``sort_exact``.  ``select_table`` runs the recursion from a top
table, which ``select_affine`` takes from the instance as it is stored
(``extend_domain``), and solves each distinct value row once; only
``select_affine``, whose trace the closure check reads, copies the trace
tables out to every parameter.  ``Scalar`` and ``Point`` appear only on the
selector that comes out, and in an instance's views, which a caller builds
by reading them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import gcd, inf, lcm
from operator import eq, itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .numerics import (AffselError, NumericsError, Point, PointSet, Scalar, primitive,
                       rational_coords)
from .sandwich import ceiling_cover, sandwich


@dataclass(frozen=True)
class Instance:
    """Finite selection instance: parameter ids, a point cloud, and a value
    table, stored once, in integers.

    ``ys`` holds each point's primitive vector in canonical order, and
    ``pairs[x][j]`` the value at ys[j] as its reduced integer pair; the top
    working table shares both, so they are immutable.  ``values``, the rows
    as Scalars, is a view of ``pairs`` made on first read, as ``ys.points``
    is of the vectors.
    """

    n: int
    xs: Tuple[str, ...]
    ys: PointSet
    pairs: Mapping[str, Tuple[Tuple[int, int], ...]]

    @classmethod
    def build(cls, n: int, xs, points, rows: Mapping) -> "Instance":
        """An instance from rationals: ``points`` are tuples of rationals and
        ``rows[x][j]`` is the rational at ``points[j]``; ``from_pairs`` on
        their reduced integer pairs."""
        xs = tuple(xs)
        return cls.from_pairs(n, xs, [[c.as_integer_ratio() for c in p] for p in points],
                              {x: [v.as_integer_ratio() for v in rows[x]] for x in xs})

    @classmethod
    def from_pairs(cls, n: int, xs, points, rows: Mapping) -> "Instance":
        """The one place an instance is made: ``points[j]`` holds the reduced
        integer pairs (p, q) of a point's coordinates and ``rows[x][j]`` the
        reduced pair of the value at it, as an instance file is read.
        Checks that every point has dimension n, and makes each point's
        primitive vector with one lcm; ``merge_table`` merges and sorts the
        vectors, with the value pairs as they are, into the canonical table."""
        xs = tuple(xs)
        cols = [rows[x] for x in xs]
        if any(len(col) != len(points) for col in cols):
            raise NumericsError(f"every row must hold one value for each of {len(points)} points")
        entries = []
        for p, values in zip(points, zip(*cols) if cols else repeat((), len(points))):
            if len(p) != n:
                raise NumericsError(f"dimension mismatch: point dim {len(p)}, table dim {n}")
            d = lcm(*[q for _, q in p])
            v = (*[a * (d // q) for a, q in p], d)
            entries.append((v, float_key(v), values))
        vectors, pairs = merge_table(xs, entries)
        return cls(n=n, xs=xs, ys=PointSet(n, vectors), pairs=pairs)

    @property
    def vectors(self) -> Tuple[tuple, ...]:
        return self.ys.vectors

    @cached_property
    def values(self) -> Mapping[str, Tuple[Scalar, ...]]:
        views: Dict[tuple, tuple] = {}      # equal rows share one view
        for row in self.pairs.values():
            if row not in views:
                views[row] = tuple([Scalar(Fraction(p, q)) for p, q in row])
        return {x: views[row] for x, row in self.pairs.items()}

    def section_fingerprint(self, x: str) -> tuple:
        return self.pairs[x]


def max_pair(a: tuple, b: tuple) -> tuple:
    return b if b[0] * a[1] > a[0] * b[1] else a


def merge_table(xs: Sequence[str], entries) -> Tuple[list, Dict[str, tuple]]:
    """The one accumulator of a point table, for ``Instance.from_pairs`` and
    the cone lift: ``entries`` are (primitive vector, its ``float_key``, one
    reduced value pair per x in ``xs``).  Equal vectors merge by the
    pointwise max of their pairs (the supremum, so the order of the entries
    does not matter), and the merged table is sorted into exact
    lexicographic order (``sort_exact``).  Returns the vectors and each x's
    column of pairs, in that order."""
    merged: Dict[tuple, tuple] = {}     # vector -> (float key, vector, pairs)
    for v, key, values in entries:
        kept = merged.get(v)
        if kept is not None:
            values = tuple(map(max_pair, kept[2], values))
        merged[v] = (key, v, values)
    entries = list(merged.values())
    sort_exact(entries)
    cols = list(zip(*[e[2] for e in entries])) or [()] * len(xs)
    return [e[1] for e in entries], dict(zip(xs, cols))


def extend_domain(inst: Instance) -> WorkingTable:
    """The top working table: the instance's vectors and value pairs."""
    return WorkingTable(inst.n, inst.vectors, dict(inst.pairs))


def build_envelope(table: WorkingTable) -> WorkingTable:
    """Collapse one dimension: chord envelope at crossing points, merged with
    the extended values, on the dropped-coordinate point set.  ``table`` is
    left unchanged."""
    if table.dim < 1:
        raise AffselError("cannot build an envelope at dimension zero")
    return table.envelope()[0]


# ---------------------------------------------------------------------------
# the integer kernel
# ---------------------------------------------------------------------------


def _ratio(n: int, d: int) -> float:
    """n / d (d > 0) as a correctly rounded float, or an infinity of the
    same sign where it overflows: monotone in n / d, as a guide needs."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def float_key(key: tuple) -> tuple:
    """The coordinates of an integer vector (a_1, .., a_k, d) as floats.
    Their order agrees with the exact lexicographic order wherever the
    first coordinates differ as floats; ``sort_exact`` decides the rest."""
    den = key[-1]
    try:
        return tuple([c / den for c in key[:-1]])
    except OverflowError:
        return tuple([_ratio(c, den) for c in key[:-1]])


def sort_exact(children: list) -> None:
    """Sort entries (float key, integer vector, ...) of distinct vectors, an
    envelope's children or a cone lift's copies, into exact lexicographic
    order: by float keys, then exactly within each run whose first float
    coordinate ties.  A tie in any later float coordinate sits inside such a
    run, so the runs are all that floats can misorder."""
    children.sort(key=itemgetter(0))
    if len(children) < 2:
        return      # a dimension-zero table has one point and no coordinates
    firsts = [entry[0][0] for entry in children]
    end = 0
    for t in compress(range(1, len(firsts)), map(eq, firsts[1:], firsts)):
        if t < end:
            continue        # inside the run already re-sorted
        end = t + 1
        while end < len(firsts) and firsts[end] == firsts[t]:
            end += 1
        children[t - 1:end] = sorted(children[t - 1:end], key=lambda e: rational_coords(e[1]))


def _chain(ys, fs) -> list:
    """Positions of the upper hull vertices of the points (ys[i], fs[i]),
    taken in the order of ys, by a monotone chain that drops collinear
    points.  On floats it proposes a hull only; on Fractions it is exact."""
    hull: list = []     # (coordinate, value, position)
    for i, y3 in enumerate(fs):
        x3 = ys[i]
        while len(hull) >= 2:
            x1, y1, _ = hull[-2]
            x2, y2, _ = hull[-1]
            if (x2 - x1) * (y3 - y1) < (y2 - y1) * (x3 - x1):
                break
            hull.pop()
        hull.append((x3, y3, i))
    return [i for _, _, i in hull]


def _exact_hull(coords, num, den) -> list:
    """``_chain`` on the exact coordinates and values, as Fractions: the
    fallback of ``_upper_hull``."""
    return _chain([Fraction(a, d) for a, d, _ in coords],
                  [Fraction(num[j], den[j]) for _, _, j in coords])


def _is_upper_hull(coords, num, den, hull) -> bool:
    """Whether the chain through positions ``hull`` is the upper hull of all
    the points, in exact integers: it is concave, and every point lies on or
    below the piece over its own coordinate.

    The piece from p to q is the line A f = B y + C with A and B the
    differences y_q - y_p > 0 and f_q - f_p scaled by one positive integer
    and C = A f_p - B y_p.  Its slope is B / A, so the chain is concave iff
    B_2 A_1 <= B_1 A_2 for consecutive pieces, and a point (a/d, v/w) is on
    or below it iff A v d <= (B a + C d) w.  The ends p and q lie on it, so
    only the points strictly between them are checked."""
    a1 = b1 = None
    for p, q in zip(hull, hull[1:]):
        ap, dp, jp = coords[p]
        aq, dq, jq = coords[q]
        vp, wp, vq, wq = num[jp], den[jp], num[jq], den[jq]
        yn = aq * dp - ap * dq          # (y_q - y_p) dp dq
        fn = vq * wp - vp * wq          # (f_q - f_p) wp wq
        a, b = yn * wp * wq, fn * dp * dq
        if a1 is not None and b * a1 > b1 * a:
            return False
        a1, b1 = a, b
        if q - p > 1:
            c = yn * wq * vp - fn * dq * ap
            g = gcd(a, b, c)
            a, b, c = a // g, b // g, c // g
            if not all([a * num[j] * d <= (b * y + c * d) * den[j]
                        for y, d, j in coords[p + 1:q]]):
                return False
    return True


def _upper_hull(coords, fys, num, den) -> list:
    """Positions in ``coords`` of the upper hull vertices, in coordinate
    order; collinear points may be among them.

    The chain (``_chain``) proposes the hull on floats, and one exact pass
    certifies it (``_is_upper_hull``).  It runs again on Fractions only where
    the certificate fails or a coordinate or value overflows a float (``fys``
    is None): a float error can cost time, never change the hull."""
    try:
        fvs = fys and [num[j] / den[j] for _, _, j in coords]
    except OverflowError:
        fvs = None
    hull = fvs and _chain(fys, fvs)
    if hull and _is_upper_hull(coords, num, den, hull):
        return hull
    return _exact_hull(coords, num, den)


def _bridge(coords, hull) -> tuple:
    """The crossing pair on the upper hull edge over zero, the one edge from
    a minus to a plus point (the chain keeps both end points).  Its line
    supports the upper hull there, so its chord is exactly the largest of all
    crossing chords at dimension one, whichever pair on it was picked."""
    for p, q in zip(hull, hull[1:]):
        if coords[p][0] < 0 < coords[q][0]:
            (bk, db, im), (ak, da, ip) = coords[p], coords[q]
            wp, wm = ak * db, -bk * da
            return ip, im, wp, wm, wp + wm
    raise AffselError("hull does not span zero")  # unreachable with both signs present


@dataclass
class WorkingTable:
    """One recursion level: a working set with per-parameter values, its sign
    split, and what ``_select_level`` records there (the number of distinct
    crossing points, the bracket [U, L] and the rule that picked the last
    coefficient, or the base rule and constants at dimension zero).

    ``points`` holds primitive integer vectors in canonical (lexicographic)
    order and ``values[x][j]`` the value at points[j] as its reduced integer
    pair.  ``plus``, ``minus`` and ``zero`` index the points by the sign of
    the last coordinate; all three are empty at dimension zero.

    A plus point (a, d_a) and a minus point (b, d_b) cross the hyperplane at
    (a_k b_i - b_k a_i) / (a_k d_b - b_k d_a), and the chord there is
    (w+ f(minus) + w- f(plus)) / (w+ + w-) with w+ = a_k d_b, w- = -b_k d_a.
    At dimension two the crossing is the point t / w of a line, with
    t = a_k b_0 - b_k a_0 and w = w+ + w-, and its vector is (t, w) / gcd(t, w).
    """

    dim: int
    points: Sequence[tuple]
    values: Mapping[str, Tuple[Tuple[int, int], ...]]
    plus: List[int] = field(init=False)
    minus: List[int] = field(init=False)
    zero: List[int] = field(init=False)
    n_intersections: int = 0
    upper: Optional[Dict[str, Optional[Fraction]]] = None  # U per x (None: no positive side)
    lower: Optional[Dict[str, Optional[Fraction]]] = None  # L per x (None: no negative side)
    rule: str = ""                                         # sandwich | lower-only | upper-only | zero | base
    base_rule: Optional[str] = None
    base_c: Optional[Dict[str, Fraction]] = None

    def __post_init__(self):
        self.plus, self.minus, self.zero = [], [], []
        if self.dim:
            for j, v in enumerate(self.points):
                last = v[-2]
                (self.plus if last > 0 else self.minus if last < 0 else self.zero).append(j)

    def summary(self) -> dict:
        out = {"dim": self.dim, "points": len(self.points)}
        if self.dim >= 1:
            out.update({
                "plus": len(self.plus), "minus": len(self.minus), "zero": len(self.zero),
                "intersections": self.n_intersections, "rule": self.rule,
            })
        else:
            out["base_rule"] = self.base_rule
        return out

    def envelope(self) -> Tuple[WorkingTable, int, Optional[Dict[str, List[int]]]]:
        """The child level one dimension down, the number of distinct
        crossing points, and at dimension one with both sides present the
        indices of each section's upper hull vertices (else None); this
        table is left unchanged."""
        vecs = self.points
        n_pairs = len(self.plus) * len(self.minus)

        # child key -> stored zero-side index; child key -> crossing pairs
        stored: Dict[tuple, int] = {}
        for j in self.zero:
            v = vecs[j]
            stored[v[:-2] + v[-1:]] = j
        crossings: Dict[tuple, list] = {}
        # dimension one: every pair crosses at the origin of the line, and the
        # upper hull bridge over the off-zero points (already sorted by
        # coordinate) gives each section's largest chord there
        coords = fys = None
        if n_pairs and self.dim == 1:
            crossings[(1,)] = []
            coords = [(v[0], v[1], j) for j, v in enumerate(vecs) if v[0]]
            try:
                fys = [a / d for a, d, _ in coords]
            except OverflowError:
                pass        # the exact hull finds every bridge
        elif n_pairs and self.dim == 2:
            # dimension two: every point is (a_0, a_k, d) and every crossing
            # the point t / w on a line, keyed by two integers
            for ip in self.plus:
                a0, ak, da = vecs[ip]
                for im in self.minus:
                    b0, bk, db = vecs[im]
                    wp = ak * db
                    wm = -bk * da
                    w = wp + wm
                    t = ak * b0 - bk * a0
                    g = gcd(t, w)
                    key = (t // g, w // g) if g > 1 else (t, w)
                    pairs = crossings.get(key)
                    if pairs is None:
                        crossings[key] = pairs = []
                    pairs.append((ip, im, wp, wm, w))
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
        n_crossings = len(crossings)

        # child points, (float key, integer vector, stored index or None,
        # pairs, ext), sorted into canonical order; ext is the -|y|^2
        # extension as a reduced pair, one tuple shared by every section
        children = []
        for key, j in stored.items():
            children.append((float_key(key), key, j, crossings.pop(key, ()), None))
        if self.dim == 2:
            # gcd(t, w) = 1, so (-t^2, w^2) is reduced, and t / w is the
            # correctly rounded float that float_key gives
            for key, pairs in crossings.items():
                t, w = key
                children.append(((_ratio(t, w),), key, None, pairs, (-t * t, w * w)))
        else:
            for key, pairs in crossings.items():
                en, ed = -sum([c * c for c in key[:-1]]), key[-1] * key[-1]
                g = gcd(en, ed)
                children.append((float_key(key), key, None, pairs, (en // g, ed // g)))
        del stored, crossings     # the key maps end here; only the plan is kept
        sort_exact(children)

        values = {}
        hulls = {} if coords else None
        for x, row in self.values.items():
            num, den = zip(*row) if row else ((), ())
            bridge = None
            if coords:
                hull = _upper_hull(coords, fys, num, den)
                hulls[x] = [coords[i][2] for i in hull]
                bridge = (_bridge(coords, hull),)
            out = []
            for _, _, j, pairs, ext in children:
                value = ext if j is None else row[j]
                bn, bd = value
                won = False
                for ip, im, wp, wm, w in bridge or pairs:
                    dp = den[ip]
                    dm = den[im]
                    cn = wp * num[im] * dp + wm * num[ip] * dm
                    cd = w * dp * dm
                    if cn * bd > bn * cd:
                        bn, bd, won = cn, cd, True
                if won:
                    g = gcd(bn, bd)
                    value = (bn // g, bd // g)
                out.append(value)
            values[x] = tuple(out)
        child = WorkingTable(dim=self.dim - 1, points=[entry[1] for entry in children],
                             values=values)
        return child, n_crossings, hulls

    def bracket(self, b_rows, c_map, hull=None):
        """U = max over plus points and L = min over minus points of
        (f - c - b.y) / y_k, with c and b over one common denominator e.

        Where ``hull`` holds each section's upper hull vertices (``envelope``
        gives them at dimension one), only those are searched.  A point below
        the hull has a smaller slope (f - C) / y than the hull over it, and on
        a hull edge with line a + b y the slope b + (a - C) / y is monotone in
        y > 0.  On the edge over zero a = H(0), the bridge chord, and the base
        constant C is at least that, so the slope rises towards the edge's
        plus end.  So U is attained at a plus vertex, and L, likewise, at a
        minus vertex."""
        upper: Dict[str, Optional[Fraction]] = {}
        lower: Dict[str, Optional[Fraction]] = {}
        for x, row in self.values.items():
            cq, *bq, e = primitive((c_map[x], *b_rows[x]))
            plus, minus = self.plus, self.minus
            if hull is not None:
                vertices = hull[x]
                plus = [j for j in vertices if self.points[j][-2] > 0]
                minus = [j for j in vertices if self.points[j][-2] < 0]
            upper[x] = self._extreme(plus, row, cq, bq, e, 1)
            lower[x] = self._extreme(minus, row, cq, bq, e, -1)
        return upper, lower

    def _extreme(self, indices, row, cq, bq, e, sign) -> Optional[Fraction]:
        # with f = fn / fd, residual * e = (fn e d - fd (cq d + bq.a)) / (fd a_k); sign
        # is +1 on the plus side (max) and -1 on the minus side (min), and
        # multiplying through by it keeps the denominator positive
        bn = bd = None
        for j in indices:
            v = self.points[j]
            d = v[-1]
            s = cq * d
            for b, a in zip(bq, v):
                s += b * a
            fn, fd = row[j]
            rn = (fn * e * d - fd * s) * sign
            rd = fd * v[-2] * sign
            if bn is None or sign * (rn * bd - bn * rd) > 0:
                bn, bd = rn, rd
        if bn is None:
            return None
        return Fraction(bn, bd * e)


@dataclass(frozen=True)
class SelectConfig:
    sandwich_mode: str = "midpoint"   # "midpoint" | "staged"
    base: str = "novikov"             # "novikov" | "tight"


@dataclass(frozen=True)
class AffineSelector:
    """Per-parameter dominating affine functional y -> B(x)·y + C(x)."""

    n: int
    xs: Tuple[str, ...]
    b: Mapping[str, Point]
    c: Mapping[str, Scalar]

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
class RecursionTrace:
    levels: List[WorkingTable] = field(default_factory=list)

    def summary(self) -> dict:
        return {"levels": [level.summary() for level in self.levels]}


def select_affine(inst: Instance, config: SelectConfig = SelectConfig()):
    """Select a dominating affine functional per parameter.

    Returns (selector, trace); domination holds with zero slack on the full
    working closure.  Each distinct value row is solved once, and parameters
    with equal rows share its selector and its trace tables.
    """
    selector, trace, rep = select_table(inst.n, inst.xs, extend_domain(inst), config)
    for level in trace.levels:      # the trace holds every x, in xs order, as reports do
        for name in ("values", "upper", "lower", "base_c"):
            table = getattr(level, name)
            if table is not None:
                setattr(level, name, {x: table[rep[x]] for x in inst.xs})
    return selector, trace


def select_table(n: int, xs: Tuple[str, ...], top: WorkingTable,
                 config: SelectConfig = SelectConfig()):
    """The recursion from its top working table: ``top`` holds the points of
    an n-dimensional instance and a value row for each x in ``xs``, as
    ``extend_domain`` makes them.  ``top.values`` is cut to the distinct rows.

    Returns (selector, trace, rep): the selector holds every x, and the
    trace's tables hold the distinct rows only, each under the first x with
    that row, which is rep[x] for every x with it."""
    trace = RecursionTrace()
    # equal rows give equal selectors, so the recursion runs once per distinct
    # row, on the first x that holds it, and every x reads that x's results
    first: Dict[tuple, str] = {}
    rep = {x: first.setdefault(top.values[x], x) for x in xs}
    top.values = {x: top.values[x] for x in first.values()}
    b_rows, c_map = _select_level(top, config, trace.levels)
    selector = AffineSelector(
        n=n,
        xs=xs,
        b={x: Point(map(Scalar, b_rows[rep[x]])) for x in xs},
        c={x: Scalar(c_map[rep[x]]) for x in xs},
    )
    return selector, trace, rep


def _base_case(working: WorkingTable, config: SelectConfig) -> Dict[str, Fraction]:
    xs = tuple(working.values)
    if working.points:
        c_map = {x: Fraction(*working.values[x][0]) for x in xs}
        if config.base != "tight":
            c_map = {x: ceiling_cover(v) for x, v in c_map.items()}
    else:
        c_map = dict.fromkeys(xs, Fraction(0 if config.base == "tight" else 1))
    working.rule, working.base_rule, working.base_c = "base", config.base, c_map
    return c_map


def _select_level(working: WorkingTable, config: SelectConfig, levels):
    xs = tuple(working.values)
    levels.append(working)
    if working.dim == 0:
        return {x: [] for x in xs}, _base_case(working, config)

    child, working.n_intersections, hull = working.envelope()
    b_rows, c_map = _select_level(child, config, levels)

    # sandwich() raises BracketViolationError where U > L
    upper, lower = working.bracket(b_rows, c_map, hull)
    working.upper, working.lower = upper, lower
    if working.plus and working.minus:
        working.rule = "sandwich"
        picks = sandwich(upper, lower, config.sandwich_mode)
    elif working.minus:
        working.rule = "lower-only"
        picks = lower
    elif working.plus:
        working.rule = "upper-only"
        picks = upper
    else:
        working.rule = "zero"
        picks = dict.fromkeys(xs, Fraction(0))

    for x in xs:
        b_rows[x].append(picks[x])
    return b_rows, c_map
