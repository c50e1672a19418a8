"""Run every workload, each in its own process, untraced and then traced.

    python3 perfbench/suite.py --seeds 1 2 3 --out runs/parent

Every workload of BENCHMARK.json runs for each seed with ``--trace 0`` and
then ``--trace 1``, for ``run_seconds``.  Each run's standard output is saved
as OUT/<workload>-seed<seed>-trace<t>.out and echoed; ``perfbench/compare.py``
reads such directories.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in args.seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                sys.stderr.write(proc.stderr)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}",
                          file=sys.stderr)
                    status = 1
                    continue
                (args.out / f"{workload}-seed{seed}-trace{trace}.out").write_text(proc.stdout)
                print(proc.stdout, end="", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
