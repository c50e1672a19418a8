"""Summarize or compare saved benchmark runs.

Save the standard output of each run of ``perfbench/run.py`` (or of
``perfbench/suite.py``) as one file per run, one directory per commit, then:

    python3 perfbench/compare.py RUNS            # medians, quartiles, spread
    python3 perfbench/compare.py PARENT CHANGE   # verdict per (workload, metric)

Rows cover every end-to-end metric of BENCHMARK.json, plus failed_frac and,
on linear-cone, the deterministic quality metrics inexact_frac and eps_max.
Bounds come from BENCHMARK.json.  Verdicts, per (workload, metric):

  improved    the change wins at least 9/10 of the pairs (runs on the same
              seed) and its median beats the parent's by more than the
              parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the bound (for the quality metrics: worse on any seed)
  unresolved  either side's interquartile range exceeds the bound
  unchanged   none of the above
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# deterministic per seed; lower is better; no bound: any worsening counts
QUALITY = ("failed_frac", "inexact_frac", "eps_max")


def parse_run(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split()
    if len(head) < 6 or head[0] != "workload":
        raise ValueError(f"{path}: not a run.py output")
    info = {"workload": head[1], "seed": int(head[3]), "trace": int(head[5])}
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for text in lines[1:-1]:
        parts = text.split()
        if len(parts) >= 2 and parts[0] in QUALITY:
            values[parts[0]] = float(parts[1])
        if parts and parts[0] == "digest":
            info["digest"] = parts[1]
    return info, values


def load_dir(directory: Path):
    """For the untraced runs in a directory: {(workload, metric): {seed: value}}
    and {(workload, seed): selector digest}."""
    table: dict = {}
    digests: dict = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        info, values = parse_run(path)
        if info["trace"]:
            continue
        for name, value in values.items():
            table.setdefault((info["workload"], name), {})[info["seed"]] = value
        digests[(info["workload"], info["seed"])] = info.get("digest")
    return table, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _fmt(v) -> str:
    return f"{v:.5g}"


def summarize(table, metrics) -> None:
    print(f"{'workload':16} {'metric':14} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  status")
    for (workload, name), by_seed in sorted(table.items()):
        values = list(by_seed.values())
        q1, q2, q3 = quartiles(values)
        bound = metrics.get(name, {}).get("bound")
        s = spread(values)
        status = ""
        if bound is not None:
            status = "wide" if s > bound else ("ok" if s < bound / 3 else "ok (> bound/3)")
        print(f"{workload:16} {name:14} {len(values):3d} {_fmt(q2):>11} {_fmt(q1):>11} "
              f"{_fmt(q3):>11} {s:7.3f} {bound if bound is not None else '-':>6}  {status}")


def verdict(name, meta, parent: dict, change: dict) -> str:
    if name in QUALITY:
        seeds = sorted(set(parent) & set(change))
        return "worse" if any(change[s] > parent[s] for s in seeds) else "unchanged"
    lower = meta["better"] == "lower"
    p, c = list(parent.values()), list(change.values())
    pq1, pm, pq3 = quartiles(p)
    _, cm, _ = quartiles(c)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds
               if (change[s] < parent[s] if lower else change[s] > parent[s]))
    gain = (pm - cm) if lower else (cm - pm)
    if seeds and wins >= 0.9 * len(seeds) and gain > pq3 - pq1:
        return "improved"
    if -gain > meta["bound"] * abs(pm):
        return "worse"
    if spread(p) > meta["bound"] or spread(c) > meta["bound"]:
        return "unresolved"
    return "unchanged"


def compare(parent, change, metrics, parent_digests, change_digests) -> None:
    print(f"{'workload':16} {'metric':14} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        meta = metrics.get(name)
        if meta is None and name not in QUALITY:
            continue
        cells = []
        for side in (parent[key], change[key]):
            q1, q2, q3 = quartiles(list(side.values()))
            cells.append(f"{_fmt(q2)} [{_fmt(q1)}, {_fmt(q3)}] n={len(side)}")
        print(f"{workload:16} {name:14} {cells[0]:>36} {cells[1]:>36}  "
              f"{verdict(name, meta, parent[key], change[key])}")
    same = [k for k in parent_digests if k in change_digests]
    equal = sum(1 for k in same if parent_digests[k] == change_digests[k])
    print(f"selector digests identical on {equal}/{len(same)} (workload, seed) runs")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    first, first_digests = load_dir(Path(argv[0]))
    if len(argv) == 1:
        summarize(first, metrics)
        return 0
    second, second_digests = load_dir(Path(argv[1]))
    compare(first, second, metrics, first_digests, second_digests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
