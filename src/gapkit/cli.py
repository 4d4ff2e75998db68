"""Command-line front end.

Subcommands::

    gapkit minpair ALPHA BETA [--mode exact|siegel]
    gapkit constants arch ALPHA BETA --mu M --c0 C
    gapkit constants padic ALPHA BETA --mu M --c0 C --prime P --residue R
    gapkit aut FORM
    gapkit thue enum FORM M B
    gapkit thue census FORM M --mu M [--box B]
    gapkit gap check ALPHA BETA --mu M --c0 C X1/Y1 X2/Y2 [X2'/Y2' ...]
    gapkit padic root POLY P R0 [--precision-bits N]
    gapkit sweep [--min-pairs N] [--dmax D]

Every subcommand takes --format json|text (default json); ``thue enum`` and
``thue census`` also take --format csv, one row per solution.

Algebraic numbers are written as POLY@root~=DECIMAL or POLY@indexK (a bare
polynomial selects index 0).  Exit codes: 0 success; 2 bad input or
hypothesis violation; 3 abstention (a precision or iteration budget ran out
before the answer was certified); 4 invariant violation or internal error,
with the exception type named on stderr; 141 (128 + SIGPIPE) when the reader
closes stdout early, as in ``gapkit ... | head -1``, with nothing on stderr.

Report convention: integers and fractions printed bare are exact; every
rounded quantity appears as {"value": ..., "rounding": "up" | "down"}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction

from .algnum import AlgNum
from .gap import (AbstainError, ApproxPair, HypothesisError,
                  archimedean_constants, check_gap_dichotomy, mobius_relation,
                  nonarchimedean_constants)
from .minpair import find_pair, verify_pair
from .padic import hensel_root
from .parse import ParseError, parse_algnum_spec, parse_form, parse_poly
from .rounding import compact_str
from .autgroup import aut_prime, root_orbit_partition
from .thue import ThueProblem, census, enumerate_primitive

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_ABSTAIN = 3
EXIT_INVARIANT = 4
EXIT_PIPE = 141


def _algnum(text: str) -> AlgNum:
    poly, sel = parse_algnum_spec(text)
    if "near" in sel:
        return AlgNum.near(poly, sel["near"])
    return AlgNum.make(poly, sel["index"])


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _count(text: str) -> int:
    """A nonnegative integer, written out or as an integer expression such
    as 10^30."""
    try:
        poly = parse_poly(text)
    except ParseError:
        poly = None
    # a constant polynomial has at most one coefficient (none for zero)
    if poly is not None and poly.degree <= 0 and sum(poly.coeffs) >= 0:
        return sum(poly.coeffs)
    raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")


def _at_least(least: int, what: str):
    """The argparse type of an integer >= ``least``, named ``what``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    return parse


def _pair(text: str) -> ApproxPair:
    if "/" in text:
        x, y = text.split("/", 1)
    else:
        x, y = text, "1"
    return ApproxPair.reduced(int(x), int(y))


def _write(text: str) -> None:
    """Write text to stdout in full.  Unbuffered (PYTHONUNBUFFERED), stdout
    writes straight to a raw file, which may take only part of a long write
    and return the count taken; the rest is written until none is left, so
    a reader that closed the pipe raises BrokenPipeError here."""
    raw = getattr(sys.stdout, "buffer", None)
    if raw is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[raw.write(data):]


def _emit(payload: dict, fmt: str = "json") -> None:
    if fmt == "json":
        _write(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def cmd_minpair(args) -> int:
    alpha = _algnum(args.alpha)
    beta = _algnum(args.beta)
    pair = find_pair(alpha, beta, mode=args.mode)
    rpt = pair.report()
    check = verify_pair(alpha, beta, pair.p, pair.q, rep=pair.rep, reference=pair)
    rpt["checks"] = check["checks"]
    rel = mobius_relation(alpha, beta, rep=pair.rep)
    rpt["mobius"] = ({"s": rel.s, "t": rel.t, "u": rel.u, "v": rel.v}
                     if rel else None)
    _emit(rpt, args.format)
    return EXIT_OK


def cmd_constants(args) -> int:
    alpha = _algnum(args.alpha)
    beta = _algnum(args.beta)
    mu, c0 = args.mu, args.c0
    if args.metric == "arch":
        gc = archimedean_constants(alpha, beta, mu, c0)
    else:
        if args.prime is None or args.residue is None:
            raise HypothesisError("p-adic constants need --prime and --residue")
        xi = hensel_root(alpha.minpoly, args.prime, args.residue)
        pair = find_pair(alpha, beta)
        gc = nonarchimedean_constants(xi, pair, mu, c0)
    _emit({
        "metric": gc.metric,
        "C_small": {"value": compact_str(gc.c_small, True), "rounding": "up"},
        "C_big": {"value": compact_str(gc.c_big, True), "rounding": "up"},
        "mu": str(mu), "C0": str(c0),
        "provenance": dict(gc.provenance),
    }, args.format)
    return EXIT_OK


def cmd_aut(args) -> int:
    form = parse_form(args.form)
    aut = aut_prime(form)
    rpt = aut.report()
    part = root_orbit_partition(aut)
    rpt["orbits"] = [list(b) for b in part.blocks]
    rpt["gamma"] = part.gamma
    _emit(rpt, args.format)
    return EXIT_OK


def cmd_thue_enum(args) -> int:
    problem = ThueProblem(parse_form(args.form), args.m, args.bound)
    sols = enumerate_primitive(problem)
    if args.format == "csv":
        print("x,y,F,H")
        for s in sols:
            print(f"{s.x},{s.y},{s.value},{s.height}")
    else:
        _emit({"form": str(problem.form), "m": problem.m, "box": problem.bound,
               "solutions": [(s.x, s.y, s.value) for s in sols]}, args.format)
    return EXIT_OK


def cmd_thue_census(args) -> int:
    problem = ThueProblem(parse_form(args.form), args.m, args.box)
    result = census(problem, args.mu)
    if args.format == "csv":
        _write(result.to_csv())
    else:
        _emit(result.report(), args.format)
    return EXIT_OK


def cmd_gap_check(args) -> int:
    alpha = _algnum(args.alpha)
    beta = _algnum(args.beta)
    pairs = [_pair(p) for p in args.pairs]
    if len(pairs) < 2:
        raise HypothesisError("need at least two approximation pairs")
    if args.prime is not None:
        from .padic import derive_padic

        if args.residue is None:
            raise HypothesisError("p-adic gap check needs --residue for alpha")
        xi_alpha = hensel_root(alpha.minpoly, args.prime, args.residue)
        mp = find_pair(alpha, beta)
        xi_beta = derive_padic(xi_alpha, mp.rep.coeffs, beta.minpoly)
        constants = nonarchimedean_constants(xi_alpha, mp, args.mu, args.c0)
        check_alpha, check_beta = xi_alpha, xi_beta
    else:
        mp = find_pair(alpha, beta)
        constants = archimedean_constants(alpha, beta, args.mu, args.c0,
                                          pair=mp, rep=mp.rep)
        check_alpha, check_beta = alpha, beta
    if args.desk_floor:
        constants = constants.desk_mode()
    rel = mobius_relation(alpha, beta, rep=mp.rep)
    first, rest = pairs[0], pairs[1:]
    out = []
    for p2 in rest:
        v = check_gap_dichotomy(check_alpha, check_beta, args.mu, args.c0,
                                first, p2, constants, rel)
        entry = {
            "pair1": f"{first.x}/{first.y}", "pair2": f"{p2.x}/{p2.y}",
            "verdict": v.verdict,
            "mobius": ({"s": v.relation.s, "t": v.relation.t,
                        "u": v.relation.u, "v": v.relation.v}
                       if v.relation else None),
            **v.details,
        }
        entry["gapBound"] = {"value": entry["gapBound"], "rounding": "down"}
        out.append(entry)
    _emit({"hypotheses": {"mu": str(args.mu), "C0": str(args.c0),
                          "C_small": {"value": compact_str(constants.c_small, True),
                                      "rounding": "up"}},
           "checks": out}, args.format)
    if any(c["verdict"] == "Violation" for c in out):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_padic_root(args) -> int:
    poly = parse_poly(args.poly)
    xi = hensel_root(poly, args.prime, args.residue)
    k = max(1, args.precision_bits // max(1, args.prime.bit_length()))
    _emit({"poly": str(poly), "prime": args.prime, "residue": xi.residue,
           "lift_mod_p2": xi.lift(2), "lift_mod_p4": xi.lift(4),
           "lift_level": k, "lift": xi.lift(k)}, args.format)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .sweeps import full_sweep

    rep = full_sweep(min_pairs=args.min_pairs, d_max=args.dmax)
    _emit(rep, args.format)
    ok = rep["dichotomy"]["zero_violations"] and rep["dichotomy"]["enough_pairs"]
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gapkit", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--format", choices=("json", "csv", "text"),
                         default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minpair", help="minimal pair for (alpha, beta)",
                       parents=[common])
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("--mode", choices=("exact", "siegel"), default="exact")
    p.set_defaults(func=cmd_minpair)

    p = sub.add_parser("constants", help="gap-principle constants",
                       parents=[common])
    p.add_argument("metric", choices=("arch", "padic"))
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("--mu", type=_fraction, required=True)
    p.add_argument("--c0", type=_fraction, required=True)
    p.add_argument("--prime", type=int)
    p.add_argument("--residue", type=int)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("aut", help="enhanced automorphism group of a form",
                       parents=[common])
    p.add_argument("form")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("thue", help="Thue inequality tooling")
    tsub = p.add_subparsers(dest="thue_command", required=True)
    pe = tsub.add_parser("enum", help="enumerate primitive solutions",
                          parents=[tabular])
    pe.add_argument("form")
    pe.add_argument("m", type=int)
    pe.add_argument("bound", type=_count)
    pe.set_defaults(func=cmd_thue_enum)
    pc = tsub.add_parser("census", help="large-solution census",
                          parents=[tabular])
    pc.add_argument("form")
    pc.add_argument("m", type=int)
    pc.add_argument("--mu", type=_fraction, required=True)
    pc.add_argument("--box", type=_count, default=100)
    pc.set_defaults(func=cmd_thue_census)

    p = sub.add_parser("gap", help="gap dichotomy checks")
    gsub = p.add_subparsers(dest="gap_command", required=True)
    gc = gsub.add_parser("check", parents=[common])
    gc.add_argument("alpha")
    gc.add_argument("beta")
    gc.add_argument("--mu", type=_fraction, required=True)
    gc.add_argument("--c0", type=_fraction, required=True)
    gc.add_argument("--prime", type=int,
                    help="run the p-adic dichotomy at this prime")
    gc.add_argument("--residue", type=int,
                    help="Hensel witness residue for alpha (p-adic mode)")
    gc.add_argument("--desk-floor", action="store_true",
                    help="lower the height floor to 1 (desk mode)")
    gc.add_argument("pairs", nargs="+", metavar="X/Y")
    gc.set_defaults(func=cmd_gap_check)

    p = sub.add_parser("padic", help="p-adic tooling")
    psub = p.add_subparsers(dest="padic_command", required=True)
    pr = psub.add_parser("root", parents=[common])
    pr.add_argument("poly")
    pr.add_argument("prime", type=int)
    pr.add_argument("residue", type=int)
    pr.add_argument("--precision-bits", type=_at_least(1, "a positive integer"),
                    default=256, help="lift to about this many bits of p-adic precision")
    pr.set_defaults(func=cmd_padic_root)

    p = sub.add_parser("sweep", help="run the acceptance experiment suite",
                       parents=[common])
    p.add_argument("--min-pairs", type=_count, default=200)
    p.add_argument("--dmax", type=_at_least(3, "a degree of at least 3"), default=1000)
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, with stdout on devnull so
        # that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except AbstainError as exc:
        # before ValueError: a PrecisionError is both
        return _fail(exc, EXIT_ABSTAIN, kind="abstention")
    except ValueError as exc:
        # HypothesisError, ParseError, ThueError, AutError, ... and every
        # input check raise ValueError subclasses
        return _fail(exc, EXIT_HYPOTHESIS, kind="hypothesis")
    except AssertionError as exc:
        return _fail(exc, EXIT_INVARIANT, kind="invariant", type="AssertionError")
    except Exception as exc:
        return _fail(exc, EXIT_INVARIANT, kind="internal",
                     type=type(exc).__name__, traceback=traceback.format_exc())


def _fail(exc: BaseException, code: int, **report) -> int:
    print(json.dumps({"error": str(exc), **report}), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
