"""Workload corpora and the per-job pipelines the benchmark times.

A workload is a fixed list of instance sizes (its stated sizes) plus the
family and CLI pipeline that every job uses.  ``--seed`` decides the
instance contents: each job's generator seed is drawn from it, so the same
seed always gives the same files, and a held-out seed gives new files of the
same sizes.  Sizes come from a fixed generator so that a run's cost does not
swing with the seed's size draw; the seed still changes every point and value.

Each job replays what ``affsel select <pipeline> FILE --verify`` does in
process: load the file, build the instance, select, verify, build the report
and serialize it.  Every call is a public library call, so spans recorded
around them here (never inside the library) give the per-module split.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from affsel.conelift import LinearConfig, lift_to_cone, power_ladder, select_linear
from affsel.hyperplane import (
    Instance,
    SelectConfig,
    build_envelope,
    extend_domain,
    select_affine,
)
from affsel.instances import (
    gen_affine_dominated,
    gen_convex_sections,
    gen_meager_linear,
    load_instance_file,
    save_instance_file,
)
from affsel.numerics import EXACT, origin_point
from affsel.oracle import fm_feasible, verify_domination, verify_working_closure
from affsel.subgradient import (
    ConvexSectionInstance,
    NotNormalizedError,
    SubgradientConfig,
    select_subgradient,
    shift_to_origin,
)

# CLI defaults: `select linear` parses --lambda-max 2^20 and --doublings 3
LINEAR_CONFIG = LinearConfig(lambda_max=2 ** 20, doublings=3)


@dataclass(frozen=True)
class Job:
    index: int
    seed: int
    n: int
    nx: int
    ny: int
    k: int = 0
    shifted: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str           # affine | linear | subgradient, as in `affsel select`
    sizes: Callable[[random.Random], list]

    def plan(self, seed: int) -> List[Job]:
        sizes = self.sizes(random.Random(f"{self.name}/sizes"))
        rng = random.Random(f"{self.name}/{seed}")
        jobs = [Job(i, rng.randrange(2 ** 31), *size) for i, size in enumerate(sizes)]
        if self.pipeline == "linear":
            jobs = [_surrounding(job) if job.n == 2 else job for job in jobs]
        return jobs


def _affine_batch_sizes(rng):
    # criterion-1 mix: n in {1,2,3}, nx in [1,16], ny in [1,20], the three
    # (n, 16, 20) corners pinned
    sizes = [(n, rng.randint(1, 16), rng.randint(1, 20))
             for _ in range(70) for n in (1, 2, 3)]
    sizes[:3] = [(3, 16, 20), (2, 16, 20), (1, 16, 20)]
    return sizes


def _affine_deep_sizes(rng):
    # n=4 instances cost 0.4-5.7 s at one size depending on the seed; at
    # n=3, ny=18 the cost is as geometry-bound and varies about 20 %
    return [(3, 4, 18) for _ in range(40)]


def _linear_cone_sizes(rng):
    # 55 cheap n=1 jobs and 20 n=2 jobs, all n=2 at ny=3 and with points
    # that surround the origin (see _surrounding): the median falls inside
    # the n=1 group and the tail percentile inside the n=2 group, never
    # between sizes
    return ([(1, rng.randint(1, 4), rng.randint(1, 8)) for _ in range(55)]
            + [(2, rng.randint(1, 4), 3) for _ in range(20)])


def _subgradient_fm_sizes(rng):
    # Fourier-Motzkin cost at n=3 swings with the values (0.5-1.8 s for one
    # size at ny=10), so n=3 stops at ny=8, where more, cheaper jobs
    # average the swing out within a run
    return [(n, rng.randint(1, 6), rng.randint(1, 10 if n < 3 else 8),
             rng.randint(1, 5), shifted)
            for _ in range(200) for n in (1, 2, 3) for shifted in (False, True)]


WORKLOADS = {w.name: w for w in (
    Workload("affine-batch", "affine", _affine_batch_sizes),
    Workload("affine-deep", "affine", _affine_deep_sizes),
    Workload("linear-cone", "linear", _linear_cone_sizes),
    Workload("subgradient-fm", "subgradient", _subgradient_fm_sizes),
)}


def surrounds_origin(doc) -> bool:
    """Whether no closed half-plane through the origin holds every point of a
    2-d instance file."""
    points = [q.coords for q in doc.to_instance(EXACT).ys.points]
    points = [(a.value, b.value) for a, b in points if a.value or b.value]
    for px, py in points:
        crosses = [px * qy - py * qx for qx, qy in points]
        if min(crosses) >= 0 or max(crosses) <= 0:
            return False
    return bool(points)


def _surrounding(job: Job) -> Job:
    """The job with the first generator seed, counting up from its own, whose
    points surround the origin.  An n=2 linear job costs 0.03 s or 0.4-1 s
    depending on the layout of its points, and the mix moved jobs_per_s by
    half from seed to seed; surrounding points are the layout that makes the
    ladder cover the plane.  The search runs here, not in set-up, so that
    setup_s does not vary with the number of draws."""
    seed = job.seed
    while not surrounds_origin(gen_meager_linear(seed, job.n, job.nx, job.ny)):
        seed += 1
    return replace(job, seed=seed)


def write_corpus(workload: Workload, jobs: List[Job], directory) -> list:
    """Generate every job's instance file; returns the paths in job order."""
    paths = []
    for job in jobs:
        if workload.pipeline == "affine":
            doc = gen_affine_dominated(job.seed, job.n, job.nx, job.ny)
            if job.nx >= 2 and workload.name == "affine-batch":
                # criterion 3: the last parameter repeats the first's section
                doc.f_rows[-1] = list(doc.f_rows[0])
        elif workload.pipeline == "linear":
            doc = gen_meager_linear(job.seed, job.n, job.nx, job.ny)
        else:
            doc = gen_convex_sections(job.seed, job.n, job.nx, job.ny, job.k,
                                      shifted=job.shifted)
        path = directory / f"job{job.index:04d}.json"
        save_instance_file(doc, path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


class NoSpans:
    """Stand-in tracer for untraced runs."""

    _null = nullcontext()

    def span(self, name):
        return self._null


@dataclass
class Outcome:
    """A finished job: the selector as the CLI report prints it, and the
    first section that failed a check (None when every check passed)."""

    selector: dict
    failed_x: Optional[str] = None
    reason: str = ""
    inst: Optional[Instance] = None
    # the trace (affine), the selector (linear), the sections' instance (subgradient)
    detail: object = None

    def digest_text(self) -> str:
        return json.dumps(self.selector, sort_keys=True)


def _min_slack(rep) -> dict:
    return {x: s.serialize() if s is not None else None for x, s in rep.min_slack.items()}


def run_affine(path, tr) -> Outcome:
    with tr.span("instances.load"):
        inst = load_instance_file(path).to_instance(EXACT)
    with tr.span("hyperplane.select_affine"):
        selector, trace = select_affine(inst, SelectConfig())
    with tr.span("oracle.verify_domination"):
        rep = verify_domination(inst, selector, kind="affine")
    with tr.span("oracle.verify_working_closure"):
        closure = verify_working_closure(trace, selector)
    with tr.span("cli.emit"):
        selector_doc = selector.serialize()
        report = {"command": "select-affine", "selector": selector_doc,
                  "verification": {"passed": rep.passed and closure.passed,
                                   "min_slack": _min_slack(rep),
                                   "closure_passed": closure.passed}}
        json.dumps(report, indent=2)
    out = Outcome(selector=selector_doc, inst=inst, detail=trace)
    bad = rep.failures or closure.failures
    if bad:
        out.failed_x, out.reason = bad[0][0], "domination check failed"
    return out


def _linear_report(selector) -> dict:
    """The `selector` block of `affsel select linear`: attempts included."""
    out = selector.serialize()
    out["attempts"] = [{"lambda_max": a.lambda_max,
                        "exact": [a.exact[x] for x in selector.xs]}
                       for a in selector.attempts]
    return out


def run_linear(path, tr) -> Outcome:
    with tr.span("instances.load"):
        inst = load_instance_file(path).to_instance(EXACT)
    with tr.span("conelift.select_linear"):
        selector = select_linear(inst, LINEAR_CONFIG)
    with tr.span("oracle.verify_domination"):
        rep = verify_domination(inst, selector, kind="linear")
    with tr.span("cli.emit"):
        selector_doc = _linear_report(selector)
        report = {"command": "select-linear", "selector": selector_doc,
                  "verification": {"passed": rep.passed, "min_slack": _min_slack(rep)}}
        json.dumps(report, indent=2)
    out = Outcome(selector=selector_doc, inst=inst, detail=selector)
    if rep.failures:
        out.failed_x, out.reason = rep.failures[0][0], "domination check failed"
        return out
    # certified residual: epsilon = max(0, C) / lambda_max at the top rung
    for x in inst.xs:
        c = selector.cone_c[x].value
        if selector.epsilon[x].value != max(c, 0) / selector.lambda_max:
            out.failed_x, out.reason = x, "epsilon is not max(0, C)/lambda_max"
            return out
    return out


def run_subgradient(path, tr) -> Outcome:
    with tr.span("instances.load"):
        doc = load_instance_file(path)
        inst = doc.to_instance(EXACT)
        y0 = doc.y0_table(EXACT)
    csi = ConvexSectionInstance(instance=inst, y0=y0)
    with tr.span("subgradient.select_subgradient"):
        selector = select_subgradient(csi, SubgradientConfig(), shift=None)
    with tr.span("subgradient.verify"):
        # the sections `affsel select subgradient --verify` checks
        sections = shift_to_origin(csi)
        failures = []
        for group in sections.groups:
            gi = group.instance
            for x in group.xs:
                for j, p in enumerate(gi.ys.points):
                    lower = selector.p[x].dot(p) - selector.epsilon[x]
                    if not lower.le_bound(gi.values[x][j]):
                        failures.append(x)
    with tr.span("cli.emit"):
        selector_doc = selector.serialize()
        report = {"command": "select-subgradient", "selector": selector_doc,
                  "verification": {"passed": not failures, "failures": failures}}
        json.dumps(report, indent=2)
    out = Outcome(selector=selector_doc, inst=inst, detail=csi)
    if failures:
        out.failed_x, out.reason = failures[0], "p(x).y <= g fails on the shifted sample"
    else:
        for x in inst.xs:
            if selector.epsilon[x].value != 0:
                out.failed_x, out.reason = x, "exact backend returned epsilon != 0"
                break
    return out


PIPELINES = {"affine": run_affine, "linear": run_linear, "subgradient": run_subgradient}


def is_known_defect(pipeline: str, path, exc: Exception) -> bool:
    """The one failure kept in the corpus on purpose: a shifted `gen convex`
    file whose base points are all the origin makes auto-detection skip the
    shift, so `select subgradient` raises NotNormalizedError on a valid file."""
    if pipeline != "subgradient" or not isinstance(exc, NotNormalizedError):
        return False
    doc = load_instance_file(path)
    y0 = doc.y0_table(EXACT)
    origin = origin_point(doc.to_instance(EXACT).n)
    return y0 is not None and all(p == origin for p in y0.values())


# ---------------------------------------------------------------------------
# derived replays (traced run only, outside the job span)
# ---------------------------------------------------------------------------


def count_levels(tr, trace) -> None:
    """Per-level counters, exactly the `trace_summary` of `select affine --trace`."""
    for level in trace.summary()["levels"]:
        d = level["dim"]
        tr.count("hyperplane.working_points_max", level["points"])
        tr.count(f"hyperplane.dim{d}.points", level["points"])
        if d >= 1:
            for key in ("plus", "minus", "zero", "intersections"):
                tr.count(f"hyperplane.dim{d}.{key}", level[key])
            tr.count("hyperplane.crossing_pairs", level["plus"] * level["minus"])


def replay_envelopes(tr, inst) -> None:
    # the extend_domain -> build_envelope chain select_affine runs first
    with tr.span("hyperplane.extend_domain"):
        table = extend_domain(inst)
    while table.dim >= 1:
        with tr.span(f"hyperplane.dim{table.dim}.build_envelope"):
            table = build_envelope(table)


def replay_affine(tr, out: Outcome) -> None:
    trace = out.detail
    count_levels(tr, trace)
    xs = len(out.inst.xs)
    for record in trace.levels:
        tr.count("oracle.closure_checks", len(record.points) * xs)
    replay_envelopes(tr, out.inst)


def replay_linear(tr, out: Outcome) -> None:
    selector = out.detail
    tr.count("conelift.jobs")
    for attempt in selector.attempts:
        ladder = power_ladder(attempt.lambda_max)
        tr.count("conelift.attempts")
        tr.count("conelift.rungs", len(ladder))
        with tr.span("conelift.lift_to_cone"):
            cone = lift_to_cone(out.inst, ladder)
        tr.count("conelift.lifted_points", len(cone.instance.ys))
        with tr.span("hyperplane.select_affine"):
            _, trace = select_affine(cone.instance, LINEAR_CONFIG.select)
        count_levels(tr, trace)
        replay_envelopes(tr, cone.instance)


def replay_subgradient(tr, out: Outcome) -> None:
    csi = out.detail
    inst = csi.instance
    # the shift decision select_subgradient makes with shift=None
    origin = origin_point(inst.n)
    if not (csi.y0 is not None and any(csi.base_point(x) != origin for x in inst.xs)):
        csi = ConvexSectionInstance(instance=inst, y0=None)
    with tr.span("subgradient.shift_to_origin"):
        groups = shift_to_origin(csi).groups
    tr.count("subgradient.sections", len(inst.xs))
    tr.count("subgradient.groups", len(groups))
    for group in groups:
        # exact_linear_select runs one elimination per row of the negated group
        neg = {x: [-v for v in group.instance.values[x]] for x in group.xs}
        tr.count("oracle.fm_systems", len(neg))
        with tr.span("oracle.fm_feasible"):
            fm_feasible(group.instance.ys, neg, homogeneous=True)


REPLAYS = {"affine": replay_affine, "linear": replay_linear,
           "subgradient": replay_subgradient}
