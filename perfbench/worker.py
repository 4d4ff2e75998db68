"""Run one benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

The spec names a ``census`` (``gapkit.thue.census`` on a ``ThueProblem``),
a ``cli`` call (``gapkit.cli.main(argv)``) or, with ``"setup_only": true``,
just the set-up of either.  Set-up is everything up to a validated input:
importing gapkit and building the problem (``ThueProblem`` runs the
irreducibility test).  The last stdout line is a JSON object with
perf_counter stamps (a system-wide monotonic clock, comparable with the
parent's) and process_time stamps (the interpreter's CPU time since it
started) at "ready" and "done", the output needed for the checks and the
peak RSS.  With
``"trace_path"`` set, the operation runs under ``tracer.Tracer`` and its
spans are written to that file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter, process_time


def _log10(q: Fraction) -> float:
    """log10 of a positive rational from its top 64 bits of each part."""
    num, den = q.numerator, q.denominator
    sn, sd = max(0, num.bit_length() - 64), max(0, den.bit_length() - 64)
    return (sn - sd) * math.log10(2) + math.log10((num >> sn) / (den >> sd))


def _census_output(res) -> dict:
    from gapkit.algnum import normalize_minimal_poly
    from gapkit.isolation import isolate_roots

    poly = normalize_minimal_poly(res.problem.form.dehomogenize())
    approx = [e.approx() for e in isolate_roots(poly)]
    return {
        "root_approx": [[z.real, z.imag] for z in approx],
        "form": list(res.problem.form.coeffs),
        "solutions": [[s.x, s.y, s.value] for s in res.solutions],
        "assignments": [list(a) for a in res.assignments],
        "orbits": [list(o) for o in res.orbits],
        "gamma": res.gamma,
        "aut_order": res.aut_order,
        "theorem_bound": res.theorem_bound,
        "large": res.large_count,
        "log10_c5": _log10(res.c5_value),
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    out: dict = {}
    tracer = None
    if spec.get("trace_path"):
        t0 = perf_counter()
        import gapkit.cli  # noqa: F401
        out["import_s"] = perf_counter() - t0
        import gapkit.sweeps  # noqa: F401  (so its references get rebound too)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if spec["kind"] == "census":
        from gapkit import thue
        from gapkit.autgroup import d12_family
        from gapkit.binforms import BinForm

        form = d12_family(*spec["d12"]) if "d12" in spec else BinForm(spec["form"])
        problem = thue.ThueProblem(form, spec["m"], spec["box"])
        mu = Fraction(spec["mu"])

        def op():
            return thue.census(problem, mu)
    else:
        from gapkit import cli

        def op():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(list(spec["argv"]))
            return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    out["ready"], out["cpu_ready"] = perf_counter(), process_time()
    if not spec.get("setup_only"):
        result = op()
        out["done"], out["cpu_done"] = perf_counter(), process_time()
        if tracer is not None:
            out["trace"] = tracer.summary(out["ready"], out["done"])
            with open(spec["trace_path"], "w") as fh:
                json.dump({"spec": spec, "spans": tracer.spans,
                           "counts": dict(tracer.counts), "maxima": tracer.maxima}, fh)
        out["result"] = _census_output(result) if spec["kind"] == "census" else result
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("\n" + json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
