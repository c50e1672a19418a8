"""Acceptance suite: each test prints one pass/fail line for its criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy batch (500
seeded instances) is shared between the domination and bracket criteria and
keeps only summaries, not full traces.
"""

import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import make_instance, subprocess_env

from affsel.conelift import LinearConfig, select_linear
from affsel.hyperplane import AffineSelector, Instance, select_affine
from affsel.instances import (
    InstanceFile,
    gen_affine_dominated,
    gen_convex_sections,
    gen_meager_linear,
)
from affsel.numerics import EXACT, Point, Scalar, origin_point
from affsel.oracle import fm_feasible, verify_domination, verify_working_closure
from affsel.sandwich import ceiling_cover, sandwich
from affsel.subgradient import ConvexSectionInstance, select_subgradient


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def exact(v):
    return Scalar(Fraction(v))


# ---------------------------------------------------------------------------
# criteria 1 and 2: shared 500-instance batch
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def affine_batch():
    rng = random.Random(20260808)
    sizes = []
    for _ in range(50):
        sizes.append((0, rng.randint(1, 16), 1))
    for n in (1, 2, 3):
        for _ in range(150):
            sizes.append((n, rng.randint(1, 16), rng.randint(1, 20)))
    # pin the corners of the size envelope
    sizes[0], sizes[1], sizes[2] = (3, 16, 20), (2, 16, 20), (1, 16, 20)
    assert len(sizes) == 500

    passed = 0
    bracket_nodes = 0
    bracket_violations = 0
    start = time.perf_counter()
    for i, (n, nx, ny) in enumerate(sizes):
        doc = gen_affine_dominated(seed=777000 + i, n=n, nx=nx, ny=ny)
        inst = doc.to_instance(EXACT)
        selector, trace = select_affine(inst)
        ok = verify_domination(inst, selector, kind="affine").passed
        ok = ok and verify_working_closure(trace, selector).passed
        if ok:
            passed += 1
        for record in trace.levels:
            if record.upper is None or record.lower is None:
                continue
            for x in inst.xs:
                u, l = record.upper[x], record.lower[x]
                if u is not None and l is not None:
                    bracket_nodes += 1
                    if u > l:
                        bracket_violations += 1
    elapsed = time.perf_counter() - start
    return {"passed": passed, "elapsed": elapsed,
            "bracket_nodes": bracket_nodes, "violations": bracket_violations}


def test_criterion_1_exact_domination(affine_batch):
    ok = affine_batch["passed"] == 500 and affine_batch["elapsed"] < 120.0
    _report(1, "exact domination on sample and working closure, 500 seeded runs",
            ok, f"{affine_batch['passed']}/500 in {affine_batch['elapsed']:.1f}s")


def test_criterion_2_bracket_invariant(affine_batch):
    ok = affine_batch["violations"] == 0 and affine_batch["bracket_nodes"] > 0
    _report(2, "U <= L at every recursion node with a two-sided bracket", ok,
            f"{affine_batch['bracket_nodes']} nodes, {affine_batch['violations']} violations")


# ---------------------------------------------------------------------------
# criterion 3: section functoriality with duplicated sections
# ---------------------------------------------------------------------------


def _with_duplicated_section(doc: InstanceFile):
    """Copy the first parameter's value row onto the last one."""
    doc.f_rows[-1] = list(doc.f_rows[0])
    return doc, (doc.xs[0], doc.xs[-1])


def test_criterion_3_section_functoriality():
    rng = random.Random(33)
    failures = 0
    total = 0

    for i in range(40):   # affine pipeline
        n = rng.choice([1, 2])
        doc = gen_affine_dominated(5000 + i, n, rng.randint(2, 6), rng.randint(2, 10))
        doc, (xa, xb) = _with_duplicated_section(doc)
        inst = doc.to_instance(EXACT)
        sel, _ = select_affine(inst)
        total += 1
        if sel.b[xa] != sel.b[xb] or sel.c[xa] != sel.c[xb]:
            failures += 1

    cfg = LinearConfig(lambda_max=2 ** 8, doublings=0)
    for i in range(30):   # linear pipeline
        n = rng.choice([1, 2])
        doc = gen_meager_linear(6000 + i, n, rng.randint(2, 4), rng.randint(2, 6))
        doc, (xa, xb) = _with_duplicated_section(doc)
        inst = doc.to_instance(EXACT)
        sel = select_linear(inst, cfg)
        total += 1
        if (sel.a[xa] != sel.a[xb] or sel.epsilon[xa] != sel.epsilon[xb]
                or sel.exact[xa] != sel.exact[xb]):
            failures += 1

    for i in range(30):   # subgradient pipeline
        n = rng.choice([1, 2, 3])
        doc = gen_convex_sections(7000 + i, n, rng.randint(2, 5), rng.randint(2, 8),
                                  k=rng.randint(1, 4))
        doc, (xa, xb) = _with_duplicated_section(doc)
        inst = doc.to_instance(EXACT)
        sel = select_subgradient(ConvexSectionInstance(instance=inst))
        total += 1
        if sel.p[xa] != sel.p[xb] or sel.epsilon[xa] != sel.epsilon[xb]:
            failures += 1

    _report(3, "duplicated sections yield bitwise-equal selectors",
            failures == 0 and total == 100, f"{total - failures}/{total}")


# ---------------------------------------------------------------------------
# criterion 4: hand-trace fixture
# ---------------------------------------------------------------------------


def test_criterion_4_hand_trace_fixture():
    inst = Instance.build(1, ["x0"], [(Fraction(-1),), (Fraction(2),)],
                          {"x0": [Fraction(0), Fraction(1)]})
    selector, _ = select_affine(inst)
    ok = selector.b["x0"] == Point.of("1/2") and selector.c["x0"] == exact(1)
    _report(4, "n=1 fixture yields exactly B=1/2, C=1 under defaults", ok,
            f"B={selector.b['x0'].serialize()}, C={selector.c['x0'].serialize()}")


# ---------------------------------------------------------------------------
# criterion 5: sandwich guarantees
# ---------------------------------------------------------------------------


def _random_bracket(rng, dyadic10: bool):
    xs = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
    uvals, lvals = {}, {}
    for x in xs:
        if dyadic10:
            a = Fraction(rng.randint(-4 * 1024, 4 * 1024), 2 ** rng.randint(0, 10))
            b = Fraction(rng.randint(-4 * 1024, 4 * 1024), 2 ** rng.randint(0, 10))
        else:
            a = Fraction(rng.randint(-400, 400), rng.randint(1, 97))
            b = Fraction(rng.randint(-400, 400), rng.randint(1, 97))
        uvals[x] = min(a, b)
        lvals[x] = max(a, b)
    return uvals, lvals


def test_criterion_5_sandwich_guarantees():
    rng = random.Random(55)
    bad = 0
    for i in range(200):
        dyadic10 = i % 2 == 1
        u, l = _random_bracket(rng, dyadic10)
        mid = sandwich(u, l, "midpoint")
        staged = sandwich(u, l, "staged")
        for x in u:
            if not (u[x] <= mid[x] <= l[x]):
                bad += 1
            if not (u[x] <= staged[x] <= l[x]):
                bad += 1
    _report(5, "midpoint and staged exactly inside the bracket, dyadic or not",
            bad == 0, f"{200 - bad if bad == 0 else bad} pairs")


# ---------------------------------------------------------------------------
# criterion 6: ceiling cover
# ---------------------------------------------------------------------------


def test_criterion_6_ceiling_cover():
    rng = random.Random(66)
    bad = 0
    for i in range(1000):
        if i % 2:
            v = Fraction(rng.uniform(-50, 50))
        else:
            v = Fraction(rng.randint(-5000, 5000), rng.randint(1, 100))
        f = ceiling_cover(v)
        top = max(1, math.ceil(v))
        if not (f.denominator == 1 and f >= 1 and f >= v and f <= top):
            bad += 1
    _report(6, "ceiling cover is the minimal positive-integer dominator",
            bad == 0, f"{1000 - bad}/1000")


# ---------------------------------------------------------------------------
# criterion 7: linear certificates
# ---------------------------------------------------------------------------


def _with_positive_origin(doc: InstanceFile) -> Instance:
    inst = doc.to_instance(EXACT)
    points = list(inst.ys.points) + [origin_point(inst.n)]
    rows = {x: list(inst.values[x]) + [exact(1)] for x in inst.xs}
    return make_instance(inst.n, points, rows, xs=inst.xs)


def test_criterion_7_linear_certificates():
    rng = random.Random(77)
    bad = []

    for i in range(120):   # plain meager family
        n = rng.choice([1, 1, 2])
        doc = gen_meager_linear(8000 + i, n, rng.randint(1, 4), rng.randint(1, 6))
        inst = doc.to_instance(EXACT)
        sel = select_linear(inst, LinearConfig(lambda_max=2 ** 8, doublings=0))
        if not verify_domination(inst, sel, kind="linear").passed:
            bad.append(("domination", i))
        for x in inst.xs:
            expected = max(sel.cone_c[x].value, 0) / sel.lambda_max
            if sel.epsilon[x].value != expected:
                bad.append(("epsilon-formula", i, x))
        fm = fm_feasible(inst.ys, inst.values, homogeneous=True)
        if not all(r.feasible for r in fm.values()):
            bad.append(("fm-label-feasible", i))

    for i in range(80):   # planted f(x, 0) = 1 > 0: no linear dominator exists
        n = rng.choice([1, 2])
        doc = gen_meager_linear(9000 + i, n, rng.randint(1, 3), rng.randint(1, 5))
        inst = _with_positive_origin(doc)
        sel = select_linear(inst, LinearConfig(lambda_max=2 ** 4, doublings=2))
        if len(sel.attempts) != 3:
            bad.append(("attempts", i))
        for att in sel.attempts:
            if any(att.exact.values()):
                bad.append(("exact-flag", i, att.lambda_max))
        if not verify_domination(inst, sel, kind="linear").passed:
            bad.append(("domination-positive-origin", i))
        fm = fm_feasible(inst.ys, inst.values, homogeneous=True)
        if any(r.feasible for r in fm.values()):
            bad.append(("fm-label-infeasible", i))

    _report(7, "certified linear residuals, flags, and oracle labels on 200 runs",
            not bad, f"{len(bad)} deviations" if bad else "200/200")


# ---------------------------------------------------------------------------
# criterion 8: subgradient exactness
# ---------------------------------------------------------------------------


def test_criterion_8_subgradient_exactness():
    rng = random.Random(88)
    bad = []
    for i in range(100):   # plain generated instances
        n = rng.randint(1, 3)
        doc = gen_convex_sections(10_000 + i, n, rng.randint(1, 6), rng.randint(1, 8),
                                  k=rng.randint(1, 5))
        inst = doc.to_instance(EXACT)
        sel = select_subgradient(ConvexSectionInstance(instance=inst))
        for x in inst.xs:
            if sel.epsilon[x].value != 0:
                bad.append(("epsilon", i, x))
            for j, y in enumerate(inst.ys.points):
                if sel.p[x].dot(y).value > inst.values[x][j].value:
                    bad.append(("slack", i, x))
                    break

    for i in range(100):   # shifted variant against its pre-shifted twin
        n = rng.randint(1, 3)
        nx, ny, k = rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 5)
        plain = gen_convex_sections(11_000 + i, n, nx, ny, k=k)
        shifted = gen_convex_sections(11_000 + i, n, nx, ny, k=k, shifted=True)
        a = select_subgradient(ConvexSectionInstance(instance=plain.to_instance(EXACT)))
        b = select_subgradient(
            ConvexSectionInstance(instance=shifted.to_instance(EXACT),
                                  y0=shifted.y0_table(EXACT)), shift=True)
        if a.serialize() != b.serialize():
            bad.append(("shift-twin", i))
        if any(b.epsilon[x].value != 0 for x in b.xs):
            bad.append(("shift-epsilon", i))

    _report(8, "exact backend: zero residual, zero slack, shift coherence",
            not bad, f"{len(bad)} deviations" if bad else "200/200")


# ---------------------------------------------------------------------------
# criterion 9: oracle self-test
# ---------------------------------------------------------------------------


def _random_system(rng):
    """(instance, homogeneous, expect_feasible) with n + 1 <= 5 unknowns."""
    kind = rng.randint(0, 2)
    n = rng.randint(0, 4) if kind == 0 else rng.randint(1, 4)
    pts, seen = [], set()
    for _ in range(rng.randint(1, 6)):
        p = Point.of(*[Fraction(rng.randint(-10, 10), rng.randint(1, 4))
                       for _ in range(n)])
        if p.raw() not in seen:
            seen.add(p.raw())
            pts.append(p)
    if kind == 0:
        # affine with planted dominator: feasible
        b = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        c = Fraction(rng.randint(-6, 6))
        rows = [exact(sum((bi * p.coords[i].value for i, bi in enumerate(b)),
                          start=c) - Fraction(rng.randint(0, 8), 2)) for p in pts]
        return make_instance(n, pts, {"x": rows}), False, True
    if kind == 1:
        # homogeneous with planted dominator: feasible
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        rows = [exact(sum((ai * p.coords[i].value for i, ai in enumerate(a)),
                          start=Fraction(0)) - Fraction(rng.randint(0, 8), 2))
                for p in pts]
        return make_instance(n, pts, {"x": rows}), True, True
    # homogeneous made infeasible by an opposite pair with positive value sum
    y = Point.of(*[Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)])
    neg = Point(-c for c in y.coords)
    v1 = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
    v2 = -v1 + Fraction(rng.randint(1, 5), rng.randint(1, 3))
    pts = [p for p in pts if p.raw() not in (y.raw(), neg.raw())]
    all_pts = pts + [y, neg]
    rows = [exact(Fraction(rng.randint(-6, 6))) for _ in pts] + [exact(v1), exact(v2)]
    return make_instance(n, all_pts, {"x": rows}), True, False


def test_criterion_9_oracle_self_test():
    rng = random.Random(99)
    bad = []
    for i in range(1000):
        inst, homogeneous, expect_feasible = _random_system(rng)
        res = fm_feasible(inst.ys, inst.values, homogeneous=homogeneous)["x"]
        if res.feasible != expect_feasible:
            bad.append(("label", i))
            continue
        if res.feasible:
            w = res.witness
            if homogeneous:
                sel = AffineSelector(n=inst.n, xs=("x",), b={"x": Point(w)},
                                     c={"x": exact(0)})
            else:
                sel = AffineSelector(n=inst.n, xs=("x",), b={"x": Point(w[:-1])},
                                     c={"x": w[-1]})
            if not verify_domination(inst, sel, kind="affine").passed:
                bad.append(("witness-slack", i))
        else:
            cert = res.certificate
            combined, rhs = cert.replay()
            if not (all(c == 0 for c in combined) and rhs > 0):
                bad.append(("certificate", i))
    _report(9, "oracle witnesses dominate; certificates replay to contradictions",
            not bad, f"{len(bad)} deviations" if bad else "1000/1000")


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism
# ---------------------------------------------------------------------------


_WALL = re.compile(rb'"wall_time_s": [0-9.e+-]+')


def _cli(*args, cwd):
    res = subprocess.run([sys.executable, "-m", "affsel", *args],
                         capture_output=True, env=subprocess_env(), cwd=cwd)
    return res.returncode, _WALL.sub(b'"wall_time_s": X', res.stdout)


def test_criterion_10_cli_determinism(tmp_path):
    bad = []
    inst = tmp_path / "inst.json"
    conv = tmp_path / "conv.json"
    runs = [
        ("gen", "affine", "--seed", "12", "--n", "2", "--nx", "3", "--ny", "6",
         "-o", str(inst)),
        ("select", "affine", str(inst), "--verify", "--trace"),
        ("select", "linear", str(inst), "--lambda-max", "2^6", "--doublings", "0",
         "--verify"),
        ("gen", "convex", "--seed", "13", "--n", "1", "--nx", "2", "--ny", "4",
         "--k", "2", "-o", str(conv)),
        ("select", "subgradient", str(conv), "--verify"),
    ]
    for args in runs:
        code_a, out_a = _cli(*args, cwd=tmp_path)
        file_a = inst.read_bytes() if inst.exists() else b""
        code_b, out_b = _cli(*args, cwd=tmp_path)
        file_b = inst.read_bytes() if inst.exists() else b""
        if code_a != code_b or out_a != out_b or file_a != file_b:
            bad.append(args[0:2])
    _report(10, "repeated CLI runs are byte-identical modulo wall time",
            not bad, f"{len(runs) - len(bad)}/{len(runs)} commands")
