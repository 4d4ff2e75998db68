"""Write tests/golden/census.json, the golden structural output that
tests/test_golden.py recomputes.

    python tests/golden/write_census.py

Two kinds of entry, neither holding a digit of a rounded constant:

* each README command, run through ``gapkit.cli.main``: its exit code and
  the structural fields of its report (minimal pair P, Q, r and Moebius
  relation; group elements, orbits and gamma; solutions; dichotomy
  verdicts; exact p-adic lifts; the sweep's verdict tallies);
* the D12 census and the two cubic censuses of the acceptance suite:
  solutions, routes, root assignments, orbits, gamma, group order, theorem
  bound, large-solution count and Galois status.

A change that alters this file has to say why.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from gapkit.autgroup import d12_family  # noqa: E402
from gapkit.binforms import BinForm     # noqa: E402
from gapkit import cli                  # noqa: E402
from gapkit.thue import ThueProblem, census  # noqa: E402

QUARTIC = "x^4 - x^3 - 4*x^2 + 4*x + 1"
ALPHA_Q, BETA_Q = f"{QUARTIC}@root~=1.827", f"{QUARTIC}@root~=1.338"
ALPHA_C, BETA_C = "x^3 - 3*x - 1@root~=1.879", "x^3 - 3*x + 1@root~=1.532"

# the README's commands, with its ALPHA and BETA written out
COMMANDS = [
    ["minpair", ALPHA_Q, BETA_Q],
    ["constants", "arch", ALPHA_Q, BETA_Q, "--mu", "7/2", "--c0", "1"],
    ["constants", "padic", ALPHA_C, BETA_C, "--mu", "11/4", "--c0", "1",
     "--prime", "17", "--residue", "3"],
    ["aut", "x^3 - 2*y^3"],
    ["thue", "enum", "x^3 - 2*y^3", "1", "100"],
    ["thue", "census", "x^3 - 3*x*y^2 - y^3", "1", "--mu", "11/4", "--box", "100"],
    ["gap", "check", ALPHA_C, BETA_C, "--mu", "11/4", "--c0", "10000",
     "--desk-floor", "9/5", "14/9"],
    ["gap", "check", ALPHA_C, BETA_C, "--mu", "11/4", "--c0", "10000",
     "--prime", "17", "--residue", "3", "--desk-floor", "4/7", "5/-77"],
    ["padic", "root", "x^3 - 3*x - 1", "17", "3"],
    ["sweep"],
]

# (name, coefficients, m, box, mu): the censuses of the acceptance suite
CENSUSES = [
    ("cubic-m1-box100", (1, 0, -3, -1), 1, 100, "11/4"),
    ("cubic-m3-box60", (1, 0, -3, -1), 3, 60, "11/4"),
    ("d12-m3-box40", d12_family(3, 1).coeffs, 3, 40, "38/4"),
]


def _census_fields(rpt: dict) -> dict:
    return {"solutions": rpt["solutions"], "routes": rpt["provenance"]["routes"],
            "orbits": rpt["orbits"], "gamma": rpt["gamma"],
            "autOrder": rpt["autOrder"], "theoremBound": rpt["theoremBound"],
            "largeSolutions": rpt["largeSolutions"], "galois": rpt["galois"]}


def _sweep_fields(rpt: dict) -> dict:
    dich = rpt["dichotomy"]
    keys = ("instance", "checked", "violations", "abstentions",
            "skipped_hypothesis", "verdicts")
    return {"instances": [{k: i[k] for k in keys} for i in dich["instances"]],
            "totals": dich["totals"], "verdicts": dich["verdicts"],
            "enough_pairs": dich["enough_pairs"],
            "zero_violations": dich["zero_violations"],
            "thueSiegelParams": rpt["thueSiegelParams"],
            "counting": rpt["counting"]}


def cli_fields(argv: list[str]) -> dict:
    """Exit code and structural report fields of one CLI command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    got = {"exit": code}
    if code != 0:
        return got
    rpt = json.loads(out.getvalue())
    cmd = tuple(argv[:2])
    if argv[0] == "minpair":
        got.update({k: rpt[k] for k in ("P", "Q", "r", "mobius")})
    elif argv[0] == "constants":
        got.update({"metric": rpt["metric"],
                    "provenance": sorted(rpt["provenance"])})
    elif argv[0] == "aut":
        got.update({"elements": [e["matrix"] for e in rpt["elements"]],
                    "orbits": rpt["orbits"], "gamma": rpt["gamma"]})
    elif cmd == ("thue", "enum"):
        got["solutions"] = rpt["solutions"]
    elif cmd == ("thue", "census"):
        got.update(_census_fields(rpt))
    elif cmd == ("gap", "check"):
        got["checks"] = [{k: c[k] for k in ("pair1", "pair2", "verdict", "mobius",
                                            "H1", "H2", "metric")}
                         for c in rpt["checks"]]
    elif cmd == ("padic", "root"):
        got.update({k: rpt[k] for k in ("residue", "lift_mod_p2", "lift_mod_p4",
                                        "lift_level", "lift")})
    elif argv[0] == "sweep":
        got.update(_sweep_fields(rpt))
    return got


def census_fields(result) -> dict:
    """Structural fields of one census, with its root assignments."""
    return {**_census_fields(result.report()),
            "assignments": [list(a) for a in result.assignments]}


def run_census(coeffs, m: int, box: int, mu: str):
    return census(ThueProblem(BinForm(coeffs), m, box), Fraction(mu))


def main():
    entries = [{"cli": argv, **cli_fields(argv)} for argv in COMMANDS]
    entries += [{"census": name, "form": list(coeffs), "m": m, "box": box, "mu": mu,
                 **census_fields(run_census(coeffs, m, box, mu))}
                for name, coeffs, m, box, mu in CENSUSES]
    # round-trip through JSON, so tuples are stored as the test reads them
    entries = json.loads(json.dumps(entries))
    path = Path(__file__).with_name("census.json")
    path.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{len(entries)} entries -> {path}")


if __name__ == "__main__":
    main()
