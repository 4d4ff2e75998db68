"""Spans and counts around gapkit's public functions, from outside gapkit.

``Tracer.install()`` wraps each function named in ``SPANS`` and ``COUNTS``
and rebinds every reference to it in the loaded ``gapkit`` modules (the
modules import each other's functions by name), so the source is left
alone.  A span records its name, start, end and parent span; the spans of
one operation live in memory until the worker writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (module, attribute) whose calls become spans, named "<module>.<attribute>"
SPANS = [
    ("thue", "census"), ("thue", "enumerate_primitive"), ("thue", "assign_root"),
    ("thue", "c5"), ("thue", "galois_status"), ("thue", "lewis_mahler_c10"),
    ("thue", "convergents"),
    ("isolation", "isolate_roots"), ("isolation", "mahler_measure"),
    ("gap", "c16"), ("gap", "check_gap_dichotomy"), ("gap", "archimedean_constants"),
    ("gap", "nonarchimedean_constants"), ("gap", "thue_siegel_params"),
    ("minpair", "c12_closed_form"), ("minpair", "c13_formula"), ("minpair", "find_pair"),
    ("algnum", "liouville_c6"),
    ("rounding", "pow_up"), ("rounding", "root_up"), ("rounding", "tidy_up"),
    ("rounding", "exp_interval"),
    ("autgroup", "aut_prime"), ("autgroup", "root_orbit_partition"),
    ("padic", "hensel_root"),
    ("cli", "main"),
]
# hot functions that are only counted: a span per call would cost more than
# the call itself
COUNTS = [("binforms", "BinForm.value"), ("autgroup", "membership_scale")]
# entry points: the spans of an operation's own call, not of a layer below it
ENTRIES = {"thue.census", "cli.main"}


def _bits(q) -> int:
    q = Fraction(q)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
        return wrapped

    def _pow_up(self, fn):
        maxima = self.maxima

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            key = "rounding.pow_up.max_result_bits"
            maxima[key] = max(maxima.get(key, 0), _bits(out))
            return out
        return wrapped

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _membership(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts["autgroup.membership_scale.calls"] += 1
            out = fn(*args, **kwargs)
            if out is not None:
                counts["autgroup.membership_scale.accepted"] += 1
            return out
        return wrapped

    def install(self) -> None:
        """Wrap and rebind; every gapkit module must already be imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gapkit" or n.startswith("gapkit.")]
        for mod, attr in SPANS + COUNTS:
            owner = sys.modules["gapkit." + mod]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, path[-1])
            name = f"{mod}.{attr}"
            if name == "autgroup.membership_scale":
                new = self._membership(orig)
            elif (mod, attr) in COUNTS:
                new = self._count(name, orig)
            elif name == "rounding.pow_up":
                new = self._span(name, self._pow_up(orig))
            else:
                new = self._span(name, orig)
            setattr(owner, path[-1], new)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)

    def summary(self, op_start: float, op_end: float) -> dict:
        """Per-name inclusive time (outermost calls of that name), self time
        (minus child spans) and calls, plus how much of the operation lies
        inside layer spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                out[name + ".s"] = out.get(name + ".s", 0.0) + dur
            if name not in ENTRIES and all(a in ENTRIES for a in ancestors):
                covered += dur
        out.update(self.counts)
        out.update(self.maxima)
        out["trace.covered_s"] = covered
        out["trace.op_s"] = op_end - op_start
        return out
