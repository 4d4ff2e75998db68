"""Run one workload on consecutive seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--first-seed 1] [--runs 10]

For each metric it prints the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median, plus every run's attempted and
failed counts: the figures the bounds in BENCHMARK.json were set from.  The
unscaled figures from each run's file in .perfbench_out/ are reported the
same way, with the prefix "unscaled.".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        run_file = json.loads((ROOT / ".perfbench_out" / f"{args.workload}-run.json").read_text())
        row = {k: v["value"] for k, v in res["metrics"].items()}
        row.update({f"unscaled.{k}": v for k, v in run_file["unscaled"].items()})
        for name, value in row.items():
            values.setdefault(name, []).append(value)
        shown = {k: round(v, 4) for k, v in row.items()}
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']} {shown}", flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{args.workload} {name}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
              f"spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
