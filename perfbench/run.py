"""gapkit's benchmark: fresh-process operations, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gapkit checkout (it imports ``src/gapkit``).
NAME is one of WORKLOADS, or ``all`` to run each in turn.  Every operation
runs in its own interpreter (``worker.py``), so import and cold caches are
part of what is measured.  A run repeats whole rounds of the workload's
operations until the next round would end after S seconds (at least one
round), between set-up-only interpreters that bring the run's set-up
samples up to SETUP_SAMPLES.  The outputs of every operation are checked
against ``oracles.py``.

With ``--trace 0`` the run reports the end-to-end metrics:

    round_cpu_s   median over rounds of the CPU time of the round's
                  interpreters, from start to "done"
    setup_s       median over all interpreters of the run of the CPU time
                  from start to "gapkit imported and the input built and
                  validated"
    op_geomean_s  geometric mean over operations of the CPU time after
                  set-up
    peak_rss_mb   largest peak RSS of any interpreter of the run

The interpreters all run on one CPU, beside ``gauge.py``, and the three
times are scaled to the gauge's nominal speed: each interval's CPU time is
divided by its slowdown, the median time of the gauge bursts in it over
GAUGE_NOMINAL_S.  A shared machine's speed drifts by tens of per cent over
minutes; the gauge runs on the same CPU at the same moments, so the scaled
times keep gapkit's own changes and shed most of that drift.  The unscaled
figures are printed before the result line and kept in the run file.

With ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics (PER_LAYER); spans go to .perfbench_out/spans/.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ["d12-census", "thue-tall", "thue-wide", "cli-session"]
DEFAULT_SEED = 1
SETUP_SAMPLES = 8
# the median CPU time of one gauge burst on the machine the bounds were set
# on; the time metrics are scaled to this speed
GAUGE_NOMINAL_S = 0.0024
GAUGE_MIN_SAMPLES = 5
OP_TIMEOUT_S = 170

END_TO_END = [("round_cpu_s", "s"), ("setup_s", "s"), ("op_geomean_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("thue.enumerate_primitive.s", "s"), ("binforms.BinForm.value.calls", "count"),
    ("thue.assign_root.s", "s"), ("thue.assign_root.calls", "count"),
    ("isolation.isolate_roots.s", "s"), ("isolation.isolate_roots.calls", "count"),
    ("thue.census.self_s", "s"),
    ("thue.c5.s", "s"), ("gap.c16.s", "s"), ("minpair.c12_closed_form.s", "s"),
    ("minpair.c13_formula.s", "s"), ("algnum.liouville_c6.s", "s"),
    ("thue.lewis_mahler_c10.s", "s"), ("isolation.mahler_measure.s", "s"),
    ("rounding.pow_up.s", "s"), ("rounding.pow_up.calls", "count"),
    ("rounding.pow_up.max_result_bits", "bits"), ("rounding.root_up.s", "s"),
    ("rounding.tidy_up.s", "s"), ("rounding.exp_interval.s", "s"),
    ("autgroup.aut_prime.s", "s"), ("autgroup.membership_scale.calls", "count"),
    ("autgroup.membership_scale.accepted", "count"),
    ("autgroup.root_orbit_partition.s", "s"), ("autgroup.root_orbit_partition.calls", "count"),
    ("thue.galois_status.s", "s"),
    ("cli.import_s", "s"), ("cli.import_sympy_s", "s"),
    ("cli.main.self_s", "s"), ("gap.check_gap_dichotomy.s", "s"),
    ("gap.check_gap_dichotomy.calls", "count"), ("minpair.find_pair.s", "s"),
    ("gap.archimedean_constants.s", "s"), ("gap.nonarchimedean_constants.s", "s"),
    ("thue.convergents.s", "s"), ("padic.hensel_root.s", "s"),
    ("gap.thue_siegel_params.s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
]


def spawn(spec: dict, importtime: bool = False, cpu: int | None = None) -> dict:
    """Run one worker, on CPU ``cpu`` alone if given; returns its record
    with the parent's spawn and exit stamps, or with "error" when it
    failed."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "worker.py"), json.dumps(spec)]
    # a fixed hash seed keeps set and dict orders, and so the work done,
    # the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        return {"spawn": t0, "exit": perf_counter(), "error": "timed out"}
    rec = {"spawn": t0, "exit": perf_counter()}
    if proc.returncode != 0:
        rec["error"] = f"exit {proc.returncode}: {proc.stderr[-1500:]}"
        return rec
    rec.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    code = rec.get("result", {}).get("exit", 0)
    if code != 0:
        rec["error"] = f"gapkit exit code {code}: {rec['result']['stderr'][-1500:]}"
    if importtime:
        rec["import_sympy_s"] = _import_cumulative(proc.stderr, "sympy")
    return rec


def _import_cumulative(log: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime``."""
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def run_round(wl, trace_dir: Path | None = None, number: int = 0,
              cpu: int | None = None) -> tuple[float, list[dict]]:
    recs = []
    for i, spec in enumerate(wl.ops):
        if trace_dir is not None:
            spec = dict(spec, trace_path=str(trace_dir / f"round{number}-op{i}.json"))
        recs.append(spawn(spec, cpu=cpu))
    return recs[-1]["exit"] - recs[0]["spawn"], recs


def check_round(wl, recs: list[dict], tally: dict) -> None:
    for i, rec in enumerate(recs):
        tally["attempted"] += 1
        if "error" in rec:
            tally["failed"] += 1
            print(f"  op {i} failed: {rec['error']}", file=sys.stderr)
            continue
        errors = wl.check(i, rec["result"])
        if errors:
            tally["correct"] = False
            print(f"  op {i} is wrong: {errors[:3]}", file=sys.stderr)


def _probe(wl, n: int, cpu: int) -> list[dict]:
    return [spawn(dict(wl.ops[i % len(wl.ops)], setup_only=True), cpu=cpu) for i in range(n)]


class Gauge:
    """``gauge.py`` on one CPU, from ``start`` to ``stop``; ``slowdown``
    then gives how much slower than nominal that CPU ran in an interval."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[list[float]] = []
        self.proc: subprocess.Popen | None = None

    def start(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "gauge.py"), str(self.cpu)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.proc.wait(timeout=30)
            self.samples = json.loads(out) if out else []
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc = None

    def slowdown(self, t0: float, t1: float) -> float:
        """Median burst time over nominal, of the bursts that started in
        [t0, t1], or of the GAUGE_MIN_SAMPLES nearest if fewer did."""
        def distance(sample):
            return max(t0 - sample[0], sample[0] - t1, 0.0)
        inside = sum(1 for smp in self.samples if distance(smp) == 0.0)
        near = sorted(self.samples, key=distance)[:max(inside, GAUGE_MIN_SAMPLES)]
        return statistics.median(d for _, d in near) / GAUGE_NOMINAL_S


def measure(wl, seconds: float, tally: dict) -> dict:
    # every interpreter of the run and the gauge share one CPU; the other
    # CPUs are left to this process and to the rest of the machine
    cpu = max(os.sched_getaffinity(0))
    gauge = Gauge(cpu)
    gauge.start()
    try:
        # set-up-only interpreters top the run's set-up samples up to
        # SETUP_SAMPLES; about half open the run and the rest close it, so
        # that the set-up median spans the whole run and not only its first
        # seconds.  The first interpreter of a run starts slower than the
        # rest; it warms up and is not counted.
        n_ops = len(wl.ops)
        before = max(0, SETUP_SAMPLES - n_ops) // 2
        start = perf_counter()
        _probe(wl, 1, cpu)
        probes = _probe(wl, before, cpu)
        per_probe = (perf_counter() - start) / (before + 1)
        rounds = []
        while True:
            rounds.append(run_round(wl, cpu=cpu))
            check_round(wl, rounds[-1][1], tally)
            longest = max(w for w, _ in rounds)
            after = max(0, SETUP_SAMPLES - before - n_ops * (len(rounds) + 1))
            if perf_counter() - start + longest + after * per_probe > seconds:
                break
        probes += _probe(wl, max(0, SETUP_SAMPLES - before - n_ops * len(rounds)), cpu)
    finally:
        gauge.stop()
    ops = [r for _, recs in rounds for r in recs if "error" not in r]
    alive = [r for r in probes + ops if "error" not in r]
    if not ops:
        raise RuntimeError("every operation failed")
    if not gauge.samples:
        raise RuntimeError("the gauge reported no samples")
    for r in alive:
        r["setup_slowdown"] = gauge.slowdown(r["spawn"], r["ready"])
        if "done" in r:
            r["op_slowdown"] = gauge.slowdown(r["ready"], r["done"])
    unscaled = {
        "round_cpu_s": statistics.median(
            sum(r["cpu_done"] for r in recs if "error" not in r) for _, recs in rounds),
        "setup_s": statistics.median(r["cpu_ready"] for r in alive),
        "op_geomean_s": math.exp(statistics.fmean(
            math.log(r["cpu_done"] - r["cpu_ready"]) for r in ops)),
        "round_wall_s": statistics.median(w for w, _ in rounds),
        "gauge_burst_s": statistics.median(d for _, d in gauge.samples),
    }
    metrics = {
        "round_cpu_s": statistics.median(
            sum(r["cpu_ready"] / r["setup_slowdown"]
                + (r["cpu_done"] - r["cpu_ready"]) / r["op_slowdown"]
                for r in recs if "error" not in r) for _, recs in rounds),
        "setup_s": statistics.median(r["cpu_ready"] / r["setup_slowdown"] for r in alive),
        "op_geomean_s": math.exp(statistics.fmean(
            math.log((r["cpu_done"] - r["cpu_ready"]) / r["op_slowdown"]) for r in ops)),
        "peak_rss_mb": max(r["maxrss_kb"] for r in alive) / 1024,
    }
    with open(OUT / f"{wl.name}-run.json", "w") as fh:
        json.dump({"workload": wl.name, "cpu": cpu, "ops": wl.ops, "probes": probes,
                   "rounds": [recs for _, recs in rounds], "unscaled": unscaled,
                   "gauge": gauge.samples}, fh)
    print(f"  unscaled: {', '.join(f'{k} {v:.6g}' for k, v in unscaled.items())}")
    return metrics


def measure_traced(wl, seconds: float, tally: dict) -> dict:
    spans_dir = OUT / "spans" / wl.name
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    start = perf_counter()
    per_round, overheads, workers, sympy_s = [], [], [], []
    while True:
        plain_wall, plain = run_round(wl)
        traced_wall, traced = run_round(wl, spans_dir, len(per_round))
        # sympy's import time comes from its own set-up-only interpreter, so
        # that -X importtime slows neither the traced nor the untraced round
        importlog = spawn(dict(wl.ops[0], setup_only=True), importtime=True)
        if "error" not in importlog:
            sympy_s.append(importlog["import_sympy_s"])
        for recs in (plain, traced):
            check_round(wl, recs, tally)
        overheads.append(traced_wall - plain_wall)
        ok = [r for r in traced if "error" not in r]
        workers += ok
        totals: dict[str, float] = {}
        for r in ok:
            for key, val in r["trace"].items():
                if key.endswith(".max_result_bits"):
                    totals[key] = max(totals.get(key, 0), val)
                else:
                    totals[key] = totals.get(key, 0) + val
        per_round.append(totals)
        if perf_counter() - start + plain_wall + traced_wall > seconds:
            break
    if not workers:
        raise RuntimeError("every traced operation failed")
    metrics = {}
    for name, _ in PER_LAYER:
        metrics[name] = statistics.median(t.get(name, 0) for t in per_round)
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in workers)
    metrics["cli.import_sympy_s"] = statistics.median(sympy_s) if sympy_s else 0.0
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.coverage"] = (sum(t["trace.covered_s"] for t in per_round)
                                 / sum(t["trace.op_s"] for t in per_round))
    with open(OUT / f"{wl.name}-trace.json", "w") as fh:
        json.dump({"workload": wl.name, "ops": wl.ops, "rounds": per_round,
                   "overheads_s": overheads, "metrics": metrics,
                   "spans": sorted(p.name for p in spans_dir.iterdir())}, fh, indent=1)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    wl = workloads.build(name, seed)
    tally = {"correct": True, "attempted": 0, "failed": 0}
    if trace:
        values, units = measure_traced(wl, seconds, tally), dict(PER_LAYER)
    else:
        values, units = measure(wl, seconds, tally), dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(f"{name} (seed {seed}): attempted {tally['attempted']}, failed {tally['failed']}, "
          f"correct {tally['correct']}")
    for k, v in metrics.items():
        print(f"  {k:40s} {v['value']:.6g} {v['unit']}")
    return dict(tally, metrics=metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so that it stops the gauge and the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gapkit" / "__init__.py").is_file():
        print(f"gapkit sources not found under {ROOT / 'src'}; run from a gapkit checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src", quiet=1)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {n: run(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
