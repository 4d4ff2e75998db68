"""Golden verdicts.

* Group verdicts: every form in tests/golden/aut.json gets the same Aut'
  (order, structure, Table-1 class, elements), root-orbit blocks and gamma
  as when the file was written (by tests/golden/write_aut.py).
* Structural output: every README command and census in
  tests/golden/census.json gives the same exit code and structural fields
  as when the file was written (by tests/golden/write_census.py, whose
  projections of the reports are reused here).
* The sweep: ``full_sweep()`` gives the report in tests/golden/sweep.json,
  which is what ``gapkit sweep`` printed when the file was written
  (``PYTHONPATH=src python -m gapkit.cli sweep > tests/golden/sweep.json``).
* CLI help and argument errors: each command of tests/golden/cli_help.txt
  prints exactly the stdout and stderr, and exits with the code, written
  there by tests/golden/write_cli_help.py.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gapkit import cli, sweeps
from gapkit.autgroup import aut_prime, root_orbit_partition
from gapkit.binforms import BinForm
from gapkit.thue import ThueProblem

GOLDEN_DIR = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

import write_census  # noqa: E402
import write_cli_help  # noqa: E402

GOLDEN = json.loads((GOLDEN_DIR / "aut.json").read_text())
CENSUS = json.loads((GOLDEN_DIR / "census.json").read_text())
SWEEP = json.loads((GOLDEN_DIR / "sweep.json").read_text())
CLI_HELP = write_cli_help.entries(write_cli_help.GOLDEN.read_text())
# the keys that say which command or census an entry of census.json is
ENTRY_KEYS = ("cli", "census", "form", "m", "box", "mu")


@pytest.mark.parametrize("entry", GOLDEN,
                         ids=[",".join(map(str, e["coeffs"])) for e in GOLDEN])
def test_aut_golden(entry):
    aut = aut_prime(BinForm(entry["coeffs"]))
    part = root_orbit_partition(aut)
    rpt = aut.report()
    got = {"order": rpt["order"], "structure": rpt["structure"],
           "table1Class": rpt["table1Class"],
           "elements": [e["matrix"] for e in rpt["elements"]],
           "orbits": [list(b) for b in part.blocks], "gamma": part.gamma}
    assert got == {k: entry[k] for k in got}


@pytest.mark.parametrize("entry", CENSUS,
                         ids=[" ".join(e["cli"]) if "cli" in e else e["census"]
                              for e in CENSUS])
def test_census_golden(entry, request):
    if "cli" in entry:
        got = write_census.cli_fields(entry["cli"])
    elif entry["census"].startswith("d12"):
        # the session's one D12 census
        result = request.getfixturevalue("d12_census_counted")[0]
        assert (result.problem, result.mu) == (
            ThueProblem(BinForm(entry["form"]), entry["m"], entry["box"]),
            Fraction(entry["mu"]))
        got = write_census.census_fields(result)
    else:
        got = write_census.census_fields(write_census.run_census(
            entry["form"], entry["m"], entry["box"], entry["mu"]))
    assert json.loads(json.dumps(got)) == {
        k: v for k, v in entry.items() if k not in ENTRY_KEYS}


def test_sweep_golden():
    assert json.loads(json.dumps(sweeps.full_sweep())) == SWEEP


@pytest.mark.parametrize("argv, code, out, err", CLI_HELP,
                         ids=[" ".join(e[0]) or "(none)" for e in CLI_HELP])
def test_cli_help_golden(monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert write_cli_help.run(argv) == (code, out, err)


def test_cli_help_golden_runs_every_command():
    assert [e[0] for e in CLI_HELP] == write_cli_help.COMMANDS


def test_cli_help_golden_in_a_fresh_process():
    # the entry point reads sys.argv itself: no arguments, and a help text
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([str(GOLDEN_DIR.parent.parent / "src")]
                                         + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for argv, code, out, err in CLI_HELP[:2]:
        proc = subprocess.run([sys.executable, "-m", "gapkit.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def _printed(s: str) -> Fraction:
    """The value a printed constant names, p/q or m*10^e, built exactly."""
    mant, _, e = s.partition("*10^")
    return Fraction(mant) * Fraction(10) ** int(e or 0)


def _spy(fn, seen: list, pick=lambda args, out: out):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen.append(pick(args, out))
        return out
    return wrapped


# constants commands whose large C0 makes C_big print as a rounded mantissa
# (1.78304*10^52 and 5.00001*10^40), not as an exact fraction
LARGE_C0 = [
    ["constants", "arch", write_census.ALPHA_Q, write_census.BETA_Q, "--mu", "7/2",
     "--c0", str(10 ** 50)],
    ["constants", "padic", write_census.ALPHA_C, write_census.BETA_C, "--mu", "11/4",
     "--c0", str(10 ** 40), "--prime", "17", "--residue", "3"],
]


def test_printed_constants_lie_on_their_stated_side(d12_census_counted, monkeypatch):
    # each C5, C_small and C_big that the golden commands, LARGE_C0 and the
    # D12 census print, read back exactly, lies on its stated side of the
    # value the code computed: the census's c5_value, the GapConstants'
    # c_small, c_big
    seen = []
    for name in ("archimedean_constants", "nonarchimedean_constants", "census"):
        monkeypatch.setattr(cli, name, _spy(getattr(cli, name), seen))
    # the constants a gap check prints are those it checks with
    monkeypatch.setattr(cli, "check_gap_dichotomy",
                        _spy(cli.check_gap_dichotomy, seen, lambda args, out: args[6]))
    monkeypatch.setattr(sweeps, "default_instances", _spy(sweeps.default_instances, seen))
    shown = []   # (printed value, stated rounding, computed value)
    for argv in LARGE_C0 + write_census.COMMANDS:
        seen.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0
        rpt = json.loads(out.getvalue())
        if argv[0] == "constants":
            shown += [(rpt[k], seen[0].c_small if k == "C_small" else seen[0].c_big)
                      for k in ("C_small", "C_big")]
        elif argv[0] == "gap":
            shown.append((rpt["hypotheses"]["C_small"], seen[-1].c_small))
        elif argv[:2] == ["thue", "census"]:
            shown.append((rpt["C5"], seen[0].c5_value))
        elif argv[0] == "sweep":
            (instances,) = seen
            assert [i["instance"] for i in rpt["dichotomy"]["instances"]] == [
                i.name for i in instances]
            shown += [({"value": i["C_big"], "rounding": "up"}, inst.constants.c_big)
                      for i, inst in zip(rpt["dichotomy"]["instances"], instances)]
    result = d12_census_counted[0]
    shown.append((result.report()["C5"], result.c5_value))
    # C_small and C_big of four constants commands, two gap checks' C_small,
    # two census C5s and the sweep's C_big of each of its instances
    assert len(shown) == 12 + len(rpt["dichotomy"]["instances"])
    assert all("*10^" in shown[k][0]["value"] for k in (1, 3))   # LARGE_C0's C_big
    for entry, value in shown:
        assert entry["rounding"] == "up"
        assert _printed(entry["value"]) >= value, (entry, value)
