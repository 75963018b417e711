"""sweepctrl benchmark.

    python3 bench/run.py --workload {search,jostle,certify,project,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/` of
that checkout.  One workload per call prints a table of its metrics and, as
the last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  `--workload all` runs every workload in its own process and
prints one row per workload.  Full records (environment, every metric, the
first failure messages) go to `.bench_out/`, spans of traced runs too.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("search", "jostle", "certify", "project")  # as in workloads.py, which needs the package

# One BLAS thread: set before numpy is first imported, inherited by children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def _args(argv):
    ap = argparse.ArgumentParser(description="sweepctrl benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def _result_path(workload: str, seed: int, trace: int) -> Path:
    return ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"


def run_one(args) -> int:
    src = ROOT / "src" / "sweepctrl" / "__init__.py"
    if not src.is_file():
        print(f"error: no sweepctrl sources at {src.parent}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import sweepctrl

    if Path(sweepctrl.__file__).resolve() != src.resolve():
        print(f"error: imported sweepctrl from {sweepctrl.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    rec = harness.run(ROOT, out, args.workload, args.seed, args.seconds, bool(args.trace))
    path = _result_path(args.workload, args.seed, args.trace)
    path.write_text(json.dumps(rec, indent=1) + "\n")

    env = rec["env"]
    print(f"sweepctrl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} tasks={env['tasks']}"
          + (f" tail=p{env['tail_percentile']}" if "tail_percentile" in env else ""))
    for name, m in rec["table"].items():
        print(f"  {name:36s} {_fmt(m['value']):>14s}  {m['unit']}")
    print(f"  env: nproc={env['nproc']} cpu='{env['cpu']}' python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas_threads=1 "
          f"commit={env['git_commit']} source={env['source_sha256']}")
    if not rec["correct"]:
        print(f"FAIL: {rec['failed']} of {rec['attempted']} tasks failed")
        for msg in rec["failures"]:
            print(f"  {msg}")
    line = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one row per workload."""
    rows = {}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
        rec = json.loads(_result_path(wl, args.seed, args.trace).read_text())
        rows[wl] = rec["table"]
        total["correct"] &= rec["correct"]
        total["attempted"] += rec["attempted"]
        total["failed"] += rec["failed"]
        total["metrics"].update({f"{wl}.{k}": v for k, v in rec["metrics"].items()})
    names = list(rows[WORKLOADS[0]])
    print()
    print(f"{'metric':36s}" + "".join(f"{wl:>14s}" for wl in WORKLOADS) + "  unit")
    for name in names:
        unit = rows[WORKLOADS[0]][name]["unit"]
        print(f"{name:36s}" + "".join(f"{_fmt(rows[wl][name]['value']):>14s}" for wl in WORKLOADS)
              + f"  {unit}")
    if not total["correct"]:
        print(f"FAIL: {total['failed']} of {total['attempted']} tasks failed")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
