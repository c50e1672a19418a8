"""Replayable mutants: small deliberate faults in the library, each with the
tests that are expected to catch it.

    python tests/mutants.py [NAME ...]

For each mutant (all of them, or the ones named) the runner copies ``src``,
``tests`` and ``pyproject.toml`` into a temporary directory and runs the
mutant's tests there twice, with ``-x`` and a fixed Hypothesis seed: first on
the copy as it is, then with the mutant's snippet replaced.  It never writes
to the working tree.  A mutant is

- killed when the tests pass on the copy and fail on the mutant;
- survived when they pass on both;
- stale when its snippet does not occur exactly once in its file, or the
  tests do not pass on the unmutated copy, or do not run at all.

The exit status is 1 if any mutant survived or is stale.  The runner uses the
standard library only, and pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


class Mutant(NamedTuple):
    name: str
    path: str               # relative to the repository root
    snippet: str            # must occur exactly once in the file
    replacement: str
    tests: Tuple[str, ...]  # pytest node ids expected to kill it


MUTANTS = (
    # the accumulator of Instance.build and the cone lift (merge_table) orders
    # points whose first coordinates tie as floats by the float keys alone
    Mutant("build-float-only-sort", "src/affsel/hyperplane.py",
           "    sort_exact(entries)\n", "    entries.sort(key=itemgetter(0))\n",
           ("tests/test_numerics.py::TestCanonicalFormWhereFloatsTie",)),
    # the accumulator keeps the first values seen at an equal point instead
    # of the pointwise max; in the lift, where the origin's copies merge
    Mutant("build-keep-first-merge", "src/affsel/hyperplane.py",
           "values = tuple(map(max_pair, kept[2], values))", "values = kept[2]",
           ("tests/test_numerics.py::TestCanonicalFormWhereFloatsTie",
            "tests/test_numerics.py::TestDedupInsert",
            "tests/test_conelift.py::TestIntegerLift::test_equals_the_reference_lift",
            "tests/test_conelift.py::TestIntegerLift::test_origin_copies_merge_by_max")),
    # a point set looks up the coordinates themselves, not their primitive
    # vector, so no base point of a shift is found
    Mutant("point-set-index-without-primitive", "src/affsel/numerics.py",
           "return self._index.get(primitive(coords))", "return self._index.get(coords)",
           ("tests/test_subgradient.py::TestShiftToOrigin::test_arithmetic_shift",)),
    # the reader's fast path takes any Unicode digits that str.isdigit and
    # int() accept, so Arabic-Indic digits read as a number
    Mutant("parse-pair-fast-path-non-ascii", "src/affsel/instances.py",
           "type(value) is str and value.isascii() and len(value) <= MAX_DIGITS",
           "type(value) is str and len(value) <= MAX_DIGITS",
           ("tests/test_instances.py::TestParseRational::test_not_a_rational",)),
    # the reader's fast path returns "p/q" as written, not in lowest terms
    Mutant("parse-pair-unreduced", "src/affsel/instances.py",
           "                g = gcd(p, q)\n                return p // g, q // g\n",
           "                return p, q\n",
           ("tests/test_instances.py::TestParsePair::test_a_file_reads_into_reduced_pairs",
            "tests/test_instances.py::TestInstanceFile::test_rationals_normalized")),
    # the shifted convex generator adds each offset, a numerator over 840, to
    # values over 840 ** 2 without scaling it
    Mutant("gen-shifted-offset-unscaled", "src/affsel/instances.py",
           "[v + _DEN * offsets[x] for v in rows[x]]", "[v + offsets[x] for v in rows[x]]",
           ("tests/test_instances.py::TestGenConvexSections::test_values_match_max_of_slopes",)),
    # the convex generator takes its max over the first planted slope only
    Mutant("gen-convex-first-slope-only", "src/affsel/instances.py",
           "max(_dot(s, p) for s in slopes[x])", "max(_dot(s, p) for s in slopes[x][:1])",
           ("tests/test_instances.py::TestGenConvexSections::test_values_match_max_of_slopes",)),
    # the least-epsilon system puts epsilon last, so that it is fixed last,
    # given p, and is not the least: on values -1, 0, -1, -3 at -1, 0, 1, 2
    # it is 3, not 5/3
    Mutant("least-epsilon-column-last", "src/affsel/subgradient.py",
           "            lifted = [(v[-1], *v) for v in group.vectors]\n"
           "            result = solve_rows(lifted, group.pairs, inst.n + 1, negate=True)\n"
           "            eps, *witness = [c.value for c in result.witness]\n",
           "            lifted = [(*v, v[-1]) for v in group.vectors]\n"
           "            result = solve_rows(lifted, group.pairs, inst.n + 1, negate=True)\n"
           "            *witness, eps = [c.value for c in result.witness]\n",
           ("tests/test_subgradient.py::TestLeastEpsilon",)),
    # the convexity check looks for a subgradient at the first sample point
    # only, a vertex of the sample's hull, where one always exists
    Mutant("convexity-one-point-only", "src/affsel/subgradient.py",
           "    for j in range(len(inst.vectors)):\n", "    for j in range(len(inst.vectors))[:1]:\n",
           ("tests/test_subgradient.py::TestConvexityCheck"
            "::test_agrees_with_nondecreasing_slopes_at_n1",)),
    # the convexity check names the certificate's multipliers as they come,
    # not divided by their sum
    Mutant("convexity-weights-unnormalized", "src/affsel/subgradient.py",
           "total = sum(weights.values())", "total = 1",
           ("tests/test_subgradient.py::TestConvexityCheck::test_certificate_replays",)),
    # a group with no subgradient is reported with epsilon 0
    Mutant("least-epsilon-reported-zero", "src/affsel/subgradient.py",
           "eps_rep = Scalar(eps)", "eps_rep = Scalar(Fraction(0))",
           ("tests/test_subgradient.py::TestLeastEpsilon",)),
    # the domination check pairs each coefficient with the wrong column
    Mutant("domination-reversed-columns", "src/affsel/oracle.py",
           "for c, col in zip(b, cols):", "for c, col in zip(b, cols[::-1]):",
           ("tests/test_oracle.py::TestIntegerKernel",)),
    # the domination check reads the first three coordinates only
    Mutant("domination-first-three-coordinates", "src/affsel/oracle.py",
           "for c, col in zip(b, cols):", "for c, col in zip(b[:3], cols[:3]):",
           ("tests/test_oracle.py::TestIntegerKernel",)),
    # back-substitution never compares the bounds of the first unknown, so an
    # empty system gets a witness between crossed bounds
    Mutant("fm-crossed-bounds-ignored", "src/affsel/oracle.py",
           "if not var and lo[0] * hi[1] > hi[0] * lo[1]:", "if False:",
           ("tests/test_oracle.py::TestLastElimination::test_contradiction_at_the_first_unknown",
            "tests/test_oracle.py::TestIntegerEntry::test_concave_at_the_origin_is_infeasible")),
    # the certificate walk gives each parent row the other one's multiplier
    Mutant("certificate-walk-swapped-multipliers", "src/affsel/oracle.py",
           "walk += (p_row[3], weight * mp / g), (q_row[3], weight * mq / g)",
           "walk += (p_row[3], weight * mq / g), (q_row[3], weight * mp / g)",
           ("tests/test_oracle.py::TestLastElimination"
            "::test_contradiction_at_an_intermediate_elimination",
            "tests/test_oracle.py::TestLastElimination::test_contradiction_at_the_first_unknown")),
    # solve_rows ignores ``negate``: the subgradient system is solved on g,
    # not on -g
    Mutant("solve-rows-negation-dropped", "src/affsel/oracle.py",
           "sign = -1 if negate else 1", "sign = 1",
           ("tests/test_oracle.py::TestIntegerEntry::test_concave_at_the_origin_is_infeasible",)),
    # a row's coefficients are not scaled by lcm(d, q) / d with its value
    Mutant("solve-rows-lcm-scaling-dropped", "src/affsel/oracle.py",
           "coeffs = vec[:-1] if u == 1 else tuple([a * u for a in vec[:-1]])",
           "coeffs = vec[:-1]",
           ("tests/test_oracle.py::TestFmAgainstReference::test_pruning_runs_before_dedup",)),
    # a certificate lists the constraints with their values un-negated
    Mutant("certificate-sign-dropped", "src/affsel/oracle.py",
           "Fraction(sign * p, q))", "Fraction(p, q))",
           ("tests/test_oracle.py::TestIntegerEntry::test_concave_at_the_origin_is_infeasible",)),
)


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant) -> Tuple[str, str]:
    """(status, detail) of one mutant, run in a temporary copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="affsel-mutant-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=SKIP)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=SKIP)
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        found = text.count(mutant.snippet)
        if found != 1:
            return "stale", f"snippet occurs {found} times in {mutant.path}"
        code = _pytest(tree, mutant.tests)
        if code != 0:
            return "stale", f"pytest exits {code} on the unmutated copy"
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        code = _pytest(tree, mutant.tests)
    if code == 0:
        return "survived", "every named test passes"
    if code == 1:
        return "killed", "a named test fails"
    return "stale", f"pytest exits {code} on the mutant"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    statuses, start = [], time.perf_counter()
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        status, detail = run(mutant)
        statuses.append(status)
        print(f"{mutant.name}: {status} ({detail})", flush=True)
    print(f"{len(statuses)} mutants in {time.perf_counter() - start:.0f} s")
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
