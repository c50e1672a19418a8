"""Every name a module under src/affsel or tests imports is used in that
module, and every name the benchmark imports from the package still exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

from affsel.hyperplane import build_envelope, extend_domain, select_affine
from affsel.instances import gen_affine_dominated

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "affsel"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def test_detects_unused_import():
    assert unused_imports("import math\nfrom typing import Dict, List\nx: List = []\n") == [
        (1, "math"), (2, "Dict")]


def package_imports(source: str) -> set:
    """Modules of the package that ``source`` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module.split(".")[0] if node.module else None
                found.update([base] if base else (alias.name for alias in node.names))
            elif node.module and node.module.split(".")[0] == "affsel":
                parts = node.module.split(".")
                found.update(parts[1:2] or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "affsel":
                    found.add(rest.split(".")[0] or "affsel")   # the whole package
    return found


def test_oracle_shares_no_code_with_the_selector():
    # the independent check may lean on the number types, nothing else
    assert package_imports((SRC / "oracle.py").read_text(encoding="utf-8")) <= {"numerics"}


def oracle_imports(source: str) -> list:
    """The import statements of ``source`` that reach the oracle module."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "oracle" in package_imports(ast.unparse(node))]


def test_the_selector_calls_the_oracle_only_to_certify_exact_flags():
    # the kernel never reads the oracle; the cone lift calls it only to check
    # whether a section's residual was needed, and reads its samples itself
    assert oracle_imports((SRC / "hyperplane.py").read_text(encoding="utf-8")) == []
    assert oracle_imports((SRC / "conelift.py").read_text(encoding="utf-8")) == [
        "from .oracle import check_domination"]


def test_detects_package_imports():
    assert package_imports("from . import hyperplane\nfrom .numerics import Scalar\n"
                           "import affsel.conelift\nfrom affsel import sandwich\n"
                           "from affsel.subgradient import x\nimport json, affsel\n") == {
        "hyperplane", "numerics", "conelift", "sandwich", "subgradient", "affsel"}


def affsel_names(source: str) -> list:
    """(module, name) for every ``from affsel[.module] import name`` in source."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and not node.level
            and node.module and node.module.split(".")[0] == "affsel"
            for alias in node.names]


def test_names_the_benchmark_imports_exist():
    # the benchmark runs from its own checkout and may not change with the library
    names = [pair for path in sorted(PERFBENCH.glob("*.py"))
             for pair in affsel_names(path.read_text(encoding="utf-8"))]
    assert ("affsel.hyperplane", "build_envelope") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_benchmark_replay_chain_matches_the_trace(n):
    # perfbench replays extend_domain -> build_envelope down to dimension
    # zero, reads .dim on each table, and counts len(trace.levels[i].points)
    inst = gen_affine_dominated(1, n, 2, 4 + 2 * n).to_instance()
    _, trace = select_affine(inst)
    table = extend_domain(inst)
    replayed = [table]
    while table.dim >= 1:
        table = build_envelope(table)
        replayed.append(table)
    assert [t.dim for t in replayed] == [level.dim for level in trace.levels] == list(
        range(n, -1, -1))
    assert [len(t.points) for t in replayed] == [len(level.points) for level in trace.levels]
    for level in trace.summary()["levels"]:
        keys = {"dim", "points", "plus", "minus", "zero", "intersections"}
        assert keys <= set(level) if level["dim"] else "base_rule" in level


def test_the_benchmark_pipelines_and_replays_run(tmp_path, monkeypatch):
    # the names above exist; this runs what the benchmark reads of them
    # (Scalar's le_bound, minus and value, Point.dot, lift_to_cone on the
    # power ladder, ...) on one job per (n, shifted) of each workload at
    # seed 1, through its own unchanged modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracing").Tracer()
    for workload in workloads.WORKLOADS.values():
        jobs = {}
        for job in workload.plan(1):
            jobs.setdefault((job.n, job.shifted), job)
        directory = tmp_path / workload.name
        directory.mkdir()
        paths = workloads.write_corpus(workload, list(jobs.values()), directory)
        for job, path in zip(jobs.values(), paths):
            out = workloads.PIPELINES[workload.pipeline](path, tracer)
            assert out.failed_x is None, (workload.name, job, out.reason)
            workloads.REPLAYS[workload.pipeline](tracer, out)
    assert tracer.counts["conelift.lifted_points"] and tracer.counts["oracle.fm_systems"]
