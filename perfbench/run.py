"""affsel benchmark: one workload, one process, one job at a time.

Run from the repository root:

    python3 perfbench/run.py --workload affine-batch --seed 1 --seconds 15 --trace 0

Set-up generates the workload's corpus from ``--seed`` with the library's
generators and writes it to ``.bench_work/`` (several times; the median is
``setup_s``), then checks that the first job gives the same selector through
the ``affsel`` CLI as in process.  The timed phase runs whole passes over the
corpus, closed loop, for about ``--seconds``, scales each job's wall time to
nominal machine speed (see clock.py) and checks every output.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
each job inside spans (every fourth also untraced, for the overhead),
replays the public sub-steps of each job after its span, prints the per-module metrics, and writes every span to
``.bench_out/``.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  ``attempted`` is the number of jobs in
the corpus and ``failed`` the number of them that failed, so both depend on
the seed only, not on how many passes fit in ``--seconds``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
PARITY_TIMEOUT_S = 150
OVERHEAD_EVERY = 4


def parse_args(workloads, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def line(name, value, unit, note=""):
    print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def set_up(workload, jobs, work, write_corpus, clock):
    """Generate the corpus at least SETUP_REPEATS times and for at least
    SETUP_MIN_S seconds in all; setup_s is the median scaled generation time.
    Each file's generation is scaled on its own, like a job's."""
    times, raw = [], []
    while len(times) < SETUP_REPEATS or sum(raw) < SETUP_MIN_S:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        paths, runs = [], []
        for job in jobs:
            clock.tick()
            t0 = perf_counter()
            paths += write_corpus(workload, [job], work)
            runs.append((t0, perf_counter() - t0))
        clock.sample()
        raw.append(sum(elapsed for _, elapsed in runs))
        times.append(sum(clock.scaled(*run) for run in runs))
    return statistics.median(times), statistics.median(raw), len(times), paths


def cli_parity(workload, path, run_job):
    """Run one job through `python -m affsel select ... --verify`; return an
    error message if the CLI disagrees with the in-process pipeline."""
    cmd = [sys.executable, "-m", "affsel", "select", workload.pipeline, str(path),
           "--verify"]
    if workload.pipeline == "affine":
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=PARITY_TIMEOUT_S)
    try:
        out = run_job(path)
    except Exception as exc:  # the CLI must fail on the same input
        if proc.returncode != 1:
            return f"in process raised {exc!r}, CLI exited {proc.returncode}"
        return None
    if proc.returncode != (0 if out.failed_x is None else 2):
        return f"CLI exited {proc.returncode}: {proc.stderr.strip()[:200]}"
    report = json.loads(proc.stdout)
    if report["selector"] != out.selector:
        return "CLI selector differs from the in-process selector"
    if workload.pipeline == "affine" and report["trace_summary"] != out.detail.summary():
        return "CLI trace_summary differs from the in-process trace"
    return None


class Tally:
    """Outcomes of every job run: failures, digests, per-job times.  Failures
    are counted per job, not per run: a job that fails fails in every pass,
    or the passes' digests differ."""

    def __init__(self, workload, n_jobs, is_known_defect):
        self.workload = workload
        self.is_known_defect = is_known_defect
        self.runs = [[] for _ in range(n_jobs)]     # (start, elapsed) per pass
        self.failed_jobs = set()
        self.wrong = 0            # outputs that failed a check
        self.raised = {}          # job index -> exception name, outside the known defect
        self.digests = []
        self._hash = None
        self.inexact = 0
        self.sections = 0
        self.eps_max = 0.0

    def start_pass(self):
        self._hash = hashlib.sha256()

    def end_pass(self):
        self.digests.append(self._hash.hexdigest())

    def record(self, job, path, start, elapsed, out, exc):
        first_pass = not self.digests
        self.runs[job.index].append((start, elapsed))
        if exc is not None or out.failed_x is not None:
            self.failed_jobs.add(job.index)
            if exc is None:
                self.wrong += 1
            elif first_pass and not self.is_known_defect(path, exc):
                self.raised[job.index] = type(exc).__name__
            if first_pass:
                x = out.failed_x if exc is None else "-"
                reason = out.reason if exc is None else f"{type(exc).__name__}: {exc}"
                print(f"FAIL workload={self.workload} job={job.index} x={x}: {reason}",
                      file=sys.stderr)
        if exc is not None:
            self._hash.update(f"failed:{type(exc).__name__}\n".encode())
            return
        self._hash.update(out.digest_text().encode() + b"\n")
        if first_pass and "exact" in out.selector and "epsilon" in out.selector:
            self.sections += len(out.selector["exact"])
            self.inexact += out.selector["exact"].count(False)
            eps = [float(Fraction(e)) for e in out.selector["epsilon"]]
            self.eps_max = max([self.eps_max] + eps)

    def job_times(self, clock=None):
        """Each job's median time over the passes, scaled by the clock if given."""
        return [statistics.median(clock.scaled(*run) if clock else run[1] for run in runs)
                for runs in self.runs]


def run_one(run_job, path, tr):
    """Run one job; returns (start, seconds, outcome, exception)."""
    t0 = perf_counter()
    try:
        out, error = run_job(path, tr), None
    except Exception as exc:  # a failing job counts in failed_frac, never stops the run
        out, error = None, exc
    return t0, perf_counter() - t0, out, error


def another_pass_overruns(start, passes, seconds) -> bool:
    """Whole passes keep the job mix fixed; start another one only if it is
    expected to end within the measuring time."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / passes > seconds


def timed_phase(jobs, paths, seconds, run_job, tr, clock, tally):
    start = perf_counter()
    while True:
        tally.start_pass()
        for job, path in zip(jobs, paths):
            clock.tick()
            tally.record(job, path, *run_one(run_job, path, tr))
        tally.end_pass()
        if another_pass_overruns(start, len(tally.digests), seconds):
            clock.sample()
            return perf_counter() - start


def traced_phase(jobs, paths, seconds, run_job, replay, tracer, no_spans, tally):
    """Returns, over the jobs also run untraced, the summed (untraced,
    traced) job times: the tracing overhead."""
    overhead = [0.0, 0.0]
    start = perf_counter()
    while True:
        tally.start_pass()
        for job, path in zip(jobs, paths):
            twin = job.index % OVERHEAD_EVERY == 0
            if twin:
                overhead[0] += run_one(run_job, path, no_spans)[1]
            tracer.job = job.index
            with tracer.span("job"):
                t0, elapsed, out, error = run_one(run_job, path, tracer)
            if twin:
                overhead[1] += elapsed
            tally.record(job, path, t0, elapsed, out, error)
            if out is not None:
                xs = out.inst.xs
                tracer.count("instances.sections", len(xs))
                tracer.count("instances.distinct_sections",
                             len({out.inst.section_fingerprint(x) for x in xs}))
                tracer.derived = True
                replay(tracer, out)
                tracer.derived = False
        tally.end_pass()
        if another_pass_overruns(start, len(tally.digests), seconds):
            tracer.job = None
            return overhead


def _ratio(a, b):
    return a / b if b else 0.0


def end_to_end(tally, wall, setup, clock):
    times = tally.job_times(clock)
    raw = sum(tally.job_times())
    done = len(times) - len(tally.failed_jobs)
    # failed jobs rank as infinitely slow
    lat = sorted(float("inf") if i in tally.failed_jobs else t for i, t in enumerate(times))
    # the tail: the jobs from the highest percentile between p50 and p90 that
    # has at least ten jobs beyond it; its mean varies less from seed to seed
    # than the percentile itself (figures in README.md)
    rank = math.ceil(max(0.5, min(0.9, 1 - 10 / len(lat))) * len(lat))
    tail = [t for t in lat[rank - 1:] if t != float("inf")]
    setup_s, setup_raw, setups = setup
    passes = len(tally.digests)
    return {
        "setup_s": (setup_s, "s", f"median of {setups} set-ups; raw {setup_raw:.4f} s"),
        "jobs_per_s": (done / sum(times), "1/s",
                       f"{done} jobs in {sum(times):.3f} s; raw {done / raw:.4g}/s, "
                       f"{passes} passes in {wall:.3f} s wall"),
        "job_p50_s": (statistics.median(lat), "s", f"median of {len(lat)} jobs"),
        "job_tail_s": (statistics.mean(tail) if tail else float("inf"), "s",
                       f"mean of the {len(tail)} passing jobs from "
                       f"p{100 * rank // len(lat)} of {len(lat)} jobs up"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB", "ru_maxrss of this process"),
    }


def quality_lines(tally):
    failed, attempted = len(tally.failed_jobs), len(tally.runs)
    line("failed_frac", _ratio(failed, attempted), "ratio", f"{failed}/{attempted} jobs")
    if tally.sections:
        line("inexact_frac", _ratio(tally.inexact, tally.sections), "ratio",
             f"{tally.inexact}/{tally.sections} sections")
        line("eps_max", tally.eps_max, "1", "largest certified residual")
    print(f"digest {tally.digests[0]}  (sha256 of the serialized selectors in job order)")


DIMS = (1, 2, 3)     # recursion levels above the base case; no workload has n > 3
SELECT_SPANS = ("hyperplane.select_affine", "conelift.select_linear",
                "subgradient.select_subgradient")
VERIFY_SPANS = ("oracle.verify_domination", "oracle.verify_working_closure",
                "subgradient.verify")


def per_layer(tracer, tally, overhead):
    """Per-module metrics, each a per-pass sum unless it is a ratio."""
    c = tracer.counts
    s = tracer.seconds
    passes = len(tally.digests)

    def per_pass(v):
        return v / passes

    envelope = {d: s(f"hyperplane.dim{d}.build_envelope") for d in DIMS}
    envelope_s = s("hyperplane.extend_domain") + sum(envelope.values())
    reported = {
        "instances.load_s": (per_pass(s("instances.load")), "s"),
        "pipeline.select_s": (per_pass(sum(s(n, derived=False) for n in SELECT_SPANS)), "s"),
        "pipeline.verify_s": (per_pass(sum(s(n, derived=False) for n in VERIFY_SPANS)), "s"),
        "cli.emit_s": (per_pass(s("cli.emit")), "s"),
        "hyperplane.section_share": (_ratio(c["instances.distinct_sections"],
                                            c["instances.sections"]), "ratio"),
        "hyperplane.working_points_max": (c["hyperplane.working_points_max"], "count"),
        "hyperplane.pair_yield": (_ratio(sum(c[f"hyperplane.dim{d}.intersections"]
                                             for d in DIMS),
                                         c["hyperplane.crossing_pairs"]), "ratio"),
        "hyperplane.dim0.points": (per_pass(c["hyperplane.dim0.points"]), "count"),
    }
    for d in DIMS:
        for key in ("points", "plus", "minus", "zero", "intersections"):
            name = f"hyperplane.dim{d}.{key}"
            reported[name] = (per_pass(c[name]), "count")
    reported.update({
        "oracle.closure_checks": (per_pass(c["oracle.closure_checks"]), "count"),
        "oracle.fm_systems": (per_pass(c["oracle.fm_systems"]), "count"),
        "conelift.lifted_points": (per_pass(c["conelift.lifted_points"]), "count"),
        "conelift.attempts_per_job": (_ratio(c["conelift.attempts"], c["conelift.jobs"]),
                                      "1/job"),
        "conelift.rungs": (per_pass(c["conelift.rungs"]), "count"),
        "conelift.inexact_frac": (_ratio(tally.inexact, tally.sections), "ratio"),
        "conelift.eps_max": (tally.eps_max, "1"),
        "subgradient.group_share": (_ratio(c["subgradient.groups"],
                                           c["subgradient.sections"]), "ratio"),
    })
    # module times that are zero on the workloads that bypass the module:
    # printed, written with the spans, but not part of the result line
    hyper_select = s("hyperplane.select_affine")
    printed = {
        "hyperplane.select_s": per_pass(hyper_select),
        "hyperplane.envelope_s": per_pass(envelope_s),
        **{f"hyperplane.dim{d}.envelope_s": per_pass(v) for d, v in envelope.items()},
        "hyperplane.bracket_s": per_pass(hyper_select - envelope_s),
        "oracle.verify_sample_s": per_pass(s("oracle.verify_domination")),
        "oracle.verify_closure_s": per_pass(s("oracle.verify_working_closure")),
        "oracle.fm_s": per_pass(s("oracle.fm_feasible")),
        "conelift.select_s": per_pass(s("conelift.select_linear")),
        "conelift.lift_s": per_pass(s("conelift.lift_to_cone")),
        "subgradient.select_s": per_pass(s("subgradient.select_subgradient")),
        "subgradient.shift_s": per_pass(s("subgradient.shift_to_origin")),
        "subgradient.verify_s": per_pass(s("subgradient.verify")),
        "trace.overhead_s": per_pass(overhead[1] - overhead[0]),
    }
    return reported, printed, _ratio(overhead[1] - overhead[0], overhead[0])


def main(argv=None) -> int:
    if not (ROOT / "src" / "affsel" / "__init__.py").is_file():
        print(f"error: no affsel sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from clock import Clock
    from tracing import Tracer
    from workloads import (PIPELINES, REPLAYS, WORKLOADS, NoSpans, is_known_defect,
                           write_corpus)

    args = parse_args(WORKLOADS, argv)
    workload = WORKLOADS[args.workload]
    jobs = workload.plan(args.seed)
    run_job = PIPELINES[workload.pipeline]
    no_spans = NoSpans()
    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"jobs {len(jobs)} pipeline {workload.pipeline}")
    try:
        clock = Clock()
        *setup, paths = set_up(workload, jobs, work, write_corpus, clock)
        mismatch = cli_parity(workload, paths[0], lambda p: run_job(p, no_spans))
        if mismatch is not None:
            print(f"error: CLI parity check failed on job 0: {mismatch}", file=sys.stderr)
            return 1
        tally = Tally(workload.name, len(jobs),
                      lambda path, exc: is_known_defect(workload.pipeline, path, exc))
        if args.trace:
            tracer = Tracer()
            overhead = traced_phase(jobs, paths, args.seconds, run_job,
                                    REPLAYS[workload.pipeline], tracer, no_spans, tally)
            reported, printed, overhead = per_layer(tracer, tally, overhead)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
            for name, (value, unit) in reported.items():
                line(name, value, unit)
            for name, value in printed.items():
                line(name, value, "s", "not in the result line")
            line("trace.overhead_frac", overhead, "ratio",
                 f"traced / untraced time - 1, every {OVERHEAD_EVERY}th job run both ways")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            wall = timed_phase(jobs, paths, args.seconds, run_job, no_spans, clock, tally)
            e2e = end_to_end(tally, wall, setup, clock)
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
            for name, (value, unit, note) in e2e.items():
                line(name, value, unit, note)
        quality_lines(tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass     # another run still uses it
    stable = len(set(tally.digests)) == 1
    if not stable:
        print("error: selectors differ between passes", file=sys.stderr)
    for index, name in sorted(tally.raised.items()):
        print(f"error: job {index} raised {name}, which is not the known defect",
              file=sys.stderr)
    correct = tally.wrong == 0 and not tally.raised and stable
    result = {"correct": correct, "attempted": len(tally.runs),
              "failed": len(tally.failed_jobs), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
