import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gapkit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_aut_subcommand(capsys):
    code, out, _ = run_cli(capsys, "aut", "x^3 - 2*y^3")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["order"] == 2 and rpt["structure"] == "C_2"


def test_minpair_subcommand(capsys):
    code, out, _ = run_cli(capsys, "minpair",
                           "x^4 - x^3 - 4*x^2 + 4*x + 1@root~=1.827",
                           "x^4 - x^3 - 4*x^2 + 4*x + 1@root~=1.338")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["r"] == 2
    assert max(rpt["heights"].values()) <= 2
    assert rpt["mobius"] is None


def test_thue_enum_subcommand(capsys):
    code, out, _ = run_cli(capsys, "thue", "enum", "x^3 - 2*y^3", "1", "100")
    assert code == 0
    rpt = json.loads(out)
    assert [tuple(s[:2]) for s in rpt["solutions"]] == [(1, 0), (1, 1)]


def test_padic_root_subcommand(capsys):
    code, out, _ = run_cli(capsys, "padic", "root", "x^3 - 3*x - 1", "17", "3")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["lift_mod_p2"] == 207


def test_padic_root_precision_bits(capsys):
    # 17**15 < 2**64 <= 17**16, so 64 bits of precision lift to 17**16
    code, out, _ = run_cli(capsys, "padic", "root", "x^3 - 3*x - 1", "17", "3",
                           "--precision-bits", "64")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["lift_level"] == 16
    assert (rpt["lift"] ** 3 - 3 * rpt["lift"] - 1) % 17 ** 16 == 0


@pytest.mark.parametrize("poly, p, r0", [("x^3 + x + 4", 2, 0), ("x^2 - 7", 3, 1),
                                         ("x^3 - 3*x - 1", 17, 3)])
@pytest.mark.parametrize("bits", [1, 2, 63, 64, 256, 4000])
def test_padic_root_lifts_to_the_least_level_holding_the_bits(capsys, poly, p, r0, bits):
    # the level k is the least with p**k >= 2**bits: p**(k-1) < 2**bits <= p**k
    code, out, _ = run_cli(capsys, "padic", "root", poly, str(p), str(r0),
                           "--precision-bits", str(bits))
    assert code == 0
    k = json.loads(out)["lift_level"]
    assert p ** (k - 1) < 2 ** bits <= p ** k


@pytest.mark.parametrize("argv, message", [
    (["aut", "x^3 - 2*y^3", "--format", "csv"], "invalid choice: 'csv'"),
    (["sweep", "--format", "csv"], "invalid choice: 'csv'"),
    (["padic", "root", "x^3 - 3*x - 1", "17", "3", "--precision-bits", "-5"],
     "not a positive integer"),
    (["padic", "root", "x^3 - 3*x - 1", "17", "3", "--precision-bits", "0"],
     "not a positive integer"),
    (["sweep", "--dmax", "2"], "not a degree of at least 3"),
    (["sweep", "--min-pairs", "-5"], "not a nonnegative integer"),
])
def test_bad_flag_value_is_a_usage_error(capsys, argv, message):
    # rejected while parsing, before any work is done
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_csv_on_thue_subcommands(capsys):
    code, out, _ = run_cli(capsys, "thue", "enum", "x^3 - 2*y^3", "1", "10",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["x,y,F,H", "1,0,1,1", "1,1,-1,1"]
    code, out, _ = run_cli(capsys, "thue", "census", "x^3 - 2*y^3", "1",
                           "--mu", "11/4", "--box", "10", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "x,y,F,H,rootIndex,side,orbitId"


def test_precision_bits_only_on_padic_root(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["aut", "x^3 - 2*y^3", "--precision-bits", "64"])
    assert exc.value.code == 2
    assert "--precision-bits" in capsys.readouterr().err


def test_gap_check_subcommand(capsys):
    code, out, _ = run_cli(capsys, "gap", "check",
                           "x^3 - 3*x - 1@root~=1.879",
                           "x^3 - 3*x + 1@root~=1.532",
                           "--mu", "11/4", "--c0", "10000", "--desk-floor",
                           "9/5", "14/9")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["checks"][0]["verdict"] in ("MobiusCase", "Both")
    assert rpt["checks"][0]["mobius"] == {"s": 1, "t": 1, "u": 1, "v": 0}


def test_gap_check_padic(capsys):
    code, out, _ = run_cli(capsys, "gap", "check",
                           "x^3 - 3*x - 1@root~=1.879",
                           "x^3 - 3*x + 1@root~=1.532",
                           "--mu", "11/4", "--c0", "10000",
                           "--prime", "17", "--residue", "3",
                           "--desk-floor", "4/7", "5/-77")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["checks"][0]["metric"] == "p-adic"
    assert rpt["checks"][0]["verdict"] in ("GapHolds", "Both")
    assert rpt["checks"][0]["gapBound"]["rounding"] == "down"


@pytest.mark.parametrize("flags", [
    ("--desk-floor", "9/5", "14/9"),
    ("--prime", "17", "--residue", "3", "--desk-floor", "4/7", "5/-77"),
], ids=["archimedean", "p-adic"])
def test_gap_check_computes_one_power_basis_representation(capsys, monkeypatch, flags):
    # find_pair's representation serves the constants and the Moebius
    # relation alike, so each mode of the README gap check computes it once
    from gapkit import algnum, gap, minpair

    calls = []

    def counted(alpha, beta):
        calls.append((alpha, beta))
        return algnum.power_rep(alpha, beta)

    for module in (gap, minpair):
        monkeypatch.setattr(module, "power_rep", counted)
    code, _, _ = run_cli(capsys, "gap", "check", "x^3 - 3*x - 1@root~=1.879",
                         "x^3 - 3*x + 1@root~=1.532", "--mu", "11/4", "--c0", "10000", *flags)
    assert code == 0
    assert len(calls) == 1


def test_hypothesis_exit_code(capsys):
    code, _, err = run_cli(capsys, "constants", "arch",
                           "x^4 - x^3 - 4*x^2 + 4*x + 1@root~=1.827",
                           "x^4 - x^3 - 4*x^2 + 4*x + 1@root~=1.338",
                           "--mu", "4", "--c0", "1")
    assert code == 2
    assert json.loads(err)["kind"] == "hypothesis"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "aut", "x^2 + y")
    assert code == 2


def test_reports_are_deterministic(capsys):
    argv = ("minpair", "x^4 - x^3 - 4*x^2 + 4*x + 1@root~=1.827",
            "x^4 - x^3 - 4*x^2 + 4*x + 1@root~=1.338")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_constants_subcommand(capsys):
    code, out, _ = run_cli(capsys, "constants", "padic",
                           "x^3 - 3*x - 1@root~=1.879",
                           "x^3 - 3*x + 1@root~=1.532",
                           "--mu", "11/4", "--c0", "1",
                           "--prime", "17", "--residue", "3")
    assert code == 0
    rpt = json.loads(out)
    assert rpt["C_big"]["value"] == "5"
    assert rpt["C_big"]["rounding"] == "up"


def test_enum_past_the_old_budget(capsys):
    # two million heights: only H0 of them are searched window by window
    code, out, _ = run_cli(capsys, "thue", "enum", "x^3 - 2*y^3", "1", "2000000")
    assert code == 0
    assert [tuple(s[:2]) for s in json.loads(out)["solutions"]] == [(1, 0), (1, 1)]


@pytest.mark.parametrize("argv", [
    ("thue", "enum", "x^3 + y^3", "1", "10"),          # reducible form
    ("thue", "enum", "x^3 - 2*y^3", "0", "10"),        # m = 0
    ("aut", "0*x^3"),                                  # zero form
    ("minpair", "x^2 - 2*x + 1", "x^3 - 2"),           # repeated root
    ("padic", "root", "x^3-2", "55", "18"),            # 55 is not prime
])
def test_bad_input_exit_code(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err)["kind"] == "hypothesis"


def test_abstention_exit_code(capsys, monkeypatch):
    # no numeric seeds: the roots of x^3 - 2 cannot be certified
    from gapkit import isolation

    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    monkeypatch.setattr(isolation, "_numeric_seeds", lambda p: [])
    code, _, err = run_cli(capsys, "thue", "enum", "x^3 - 2*y^3", "1", "10")
    assert code == 3
    assert json.loads(err)["kind"] == "abstention"


def test_abstention_on_a_huge_polynomial_exits_3(capsys, monkeypatch):
    # the message names the 15,001-bit polynomial by its size: str() of a
    # coefficient of over 4,300 digits raises ValueError, a broken hypothesis
    from gapkit import isolation

    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    monkeypatch.setattr(isolation, "_numeric_seeds", lambda p: [])
    code, _, err = run_cli(capsys, "thue", "enum", "(2^15000+1)*x^3 - 3*y^3", "1", "10")
    assert code == 3
    assert json.loads(err)["kind"] == "abstention"
    assert "15001-bit" in json.loads(err)["error"]


def test_cubic_with_a_3301_bit_lead_exits_0(capsys):
    # its roots, about 2^-1100, are certified, not an internal error
    code, out, _ = run_cli(capsys, "thue", "enum", "(2^3300+1)*x^3 - 3*y^3", "1", "10")
    assert code == 0
    assert json.loads(out)["solutions"] == []


def test_cubic_with_roots_2_to_the_minus_310_apart_exits_0(capsys):
    # its roots near +-1.7 2^-310 first meet at the split at 0
    code, out, _ = run_cli(capsys, "aut", "2^620*x^3 + 2^620*x^2*y - 2*x*y^2 - 3*y^3")
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_unproven_prime_abstains(capsys):
    # 2^89 - 1 is prime, but above the range where 13 Miller-Rabin bases
    # prove it
    code, _, err = run_cli(capsys, "padic", "root", "x^3 - 2",
                           str(2 ** 89 - 1), "5")
    assert code == 3
    assert json.loads(err)["kind"] == "abstention"


def test_internal_error_exit_code(capsys, monkeypatch):
    from gapkit import cli

    def broken(form):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "aut_prime", broken)
    code, _, err = run_cli(capsys, "aut", "x^3 - 2*y^3")
    assert code == 4
    rpt = json.loads(err)
    assert rpt["kind"] == "internal" and rpt["type"] == "KeyError"


def test_box_accepts_a_power_of_ten(capsys):
    argv = ["thue", "census", "x^3 - 3*x*y^2 - y^3", "1", "--mu", "11/4", "--box"]
    code, out, _ = run_cli(capsys, *argv, "10^30")
    assert code == 0
    assert (code, out) == run_cli(capsys, *argv, "1" + "0" * 30)[:2]


@pytest.mark.parametrize("value", ["-5", "1.5", "10^-3", "x"])
@pytest.mark.parametrize("prefix", [
    ["thue", "census", "x^3 - 2*y^3", "1", "--mu", "11/4", "--box"],
    ["thue", "enum", "x^3 - 2*y^3", "1"],
])
def test_box_rejects_negative_and_non_integer(capsys, prefix, value):
    with pytest.raises(SystemExit) as exc:
        main(prefix + [value])
    assert exc.value.code == 2
    assert "not a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["thue", "census", "x^3 - 2*y^3", "1", "--mu", "1/0"],
    ["constants", "arch", "x^3 - 3*x - 1", "x^3 - 3*x + 1",
     "--mu", "11/4", "--c0", "1/0"],
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not a fraction" in capsys.readouterr().err


# more than a pipe holds (64 KiB), so the writer is still writing when the
# reader goes: the Shanks cubic at m = 100000 has 4,721 solutions of height
# at most 400, about 210 kB of JSON and 150 kB of CSV
@pytest.mark.parametrize("argv, first", [
    (["thue", "enum", "x^3 - 3*x*y^2 - y^3", "100000", "400"], b"{\n"),
    (["thue", "census", "x^3 - 3*x*y^2 - y^3", "100000", "--mu", "11/4",
      "--box", "400", "--format", "csv"], b"x,y,F,H,rootIndex,side,orbitId\r\n"),
])
def test_closed_stdout_is_a_quiet_exit(argv, first):
    # block-buffered stdout, as in a terminal session, and unbuffered stdout
    # (PYTHONUNBUFFERED), a raw file whose write the closed pipe may cut short
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = subprocess.Popen([sys.executable, "-m", "gapkit.cli", *argv],
                                env={**env, **extra},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err, extra) == (141, b"", extra)


def test_import_loads_no_sympy():
    # sympy is a test oracle only; a fresh interpreter runs the CLI without it
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c",
                           "import gapkit.cli, sys; sys.exit('sympy' in sys.modules)"], env=env)
    assert proc.returncode == 0


@pytest.mark.parametrize("entry", ["import gapkit.cli", "from gapkit import thue"])
def test_import_and_d12_census_add_no_csv_dataclasses_inspect_typing(entry):
    # gapkit's records are plain slotted classes and csv is imported by
    # ``Census.to_csv`` alone, so neither the import nor the D12 census
    # loads these modules; only the modules that gapkit adds count, since a
    # site .pth file may load typing before it
    script = f"""
import sys
before = set(sys.modules)
{entry}
from fractions import Fraction
from gapkit.autgroup import d12_family
from gapkit.thue import ThueProblem, census
added = [set(sys.modules) - before]
census(ThueProblem(d12_family(3, 1), 3, 40), Fraction(38, 4))
added.append(set(sys.modules) - before)
print([sorted(a & {{'csv', 'dataclasses', 'inspect', 'typing'}}) for a in added])
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[[], []]"


def test_census_and_cli_paths_load_no_mpmath():
    # mpmath seeds only the Aberth retries, which no census and no README
    # command reaches: a fresh interpreter imports the CLI, runs the D12
    # census, the README minpair command and the sweep, all without it
    script = """
import contextlib, io, sys
from fractions import Fraction
import gapkit.cli
from gapkit.autgroup import d12_family
from gapkit.thue import ThueProblem, census
loaded = ['mpmath' in sys.modules]
census(ThueProblem(d12_family(3, 1), 3, 40), Fraction(38, 4))
loaded.append('mpmath' in sys.modules)
quartic = 'x^4 - x^3 - 4*x^2 + 4*x + 1'
for argv in (['minpair', quartic + '@root~=1.827', quartic + '@root~=1.338'], ['sweep']):
    with contextlib.redirect_stdout(io.StringIO()):
        assert gapkit.cli.main(argv) == 0
    loaded.append('mpmath' in sys.modules)
print(loaded)
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False]"


def test_cube_roots_of_2_and_3_are_certified_apart_exit_2(capsys):
    # no relation is found within the search budget, and mod 31 x^3 - 2 has
    # a root while x^3 - 3 has none: no conjugate of 3^(1/3) is in Q(2^(1/3))
    code, _, err = run_cli(capsys, "minpair", "x^3 - 2@root~=1.26", "x^3 - 3@root~=1.44")
    assert code == 2
    assert json.loads(err)["kind"] == "hypothesis" and "mod 31" in json.loads(err)["error"]


def test_field_membership_budget_abstains_exit_3(capsys):
    # beta is in Q(alpha) (the cyclic quartic field at y -> 2^300 y), but the
    # relation search fails within its budget and no prime certifies the
    # opposite: an abstention, its message naming the polynomials by size
    p = "x^4 - 4*2^600*x^2 + 2*2^1200"
    code, _, err = run_cli(capsys, "minpair", f"{p}@index3", f"{p}@index2")
    assert code == 3
    assert json.loads(err)["kind"] == "abstention" and "1202-bit" in json.loads(err)["error"]


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with gapkit on its path, its output captured."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_internal_error_report_carries_its_traceback(capsys, monkeypatch):
    from gapkit import cli

    def broken(form):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "aut_prime", broken)
    code, _, err = run_cli(capsys, "aut", "x^3 - 2*y^3")
    assert code == 4
    trace = json.loads(err)["traceback"]
    assert trace.startswith("Traceback") and trace.endswith("KeyError: 'lost'\n")
    assert "in broken" in trace


def test_import_loads_no_traceback():
    # traceback (with linecache and tokenize) is imported on the
    # internal-error path alone
    proc = _python("-c", "import sys; before = set(sys.modules); import gapkit.cli; "
                   "print(sorted((set(sys.modules) - before) & {'traceback', 'linecache', 'tokenize'}))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("argv, most", [
    (["aut", "x^3 - 2*y^3"], 2),
    (["thue", "enum", "x^3 - 2*y^3", "1", "10"], 3),
    (["padic", "root", "x^3 - 3*x - 1", "17", "3"], 3),
])
def test_a_command_builds_only_its_own_parsers(capsys, monkeypatch, argv, most):
    # gapkit's own and those on the command's path: not its siblings', of
    # which there are eleven in all
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda parser, *args, **kwargs: built.append(parser)
                        or init(parser, *args, **kwargs))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert 1 <= len(built) <= most


def test_a_lift_of_about_4400_digits_prints():
    # 18,000 bits at 17 is level 4,404: a lift of about 5,420
    # decimal digits, over CPython's default limit of 4,300 on int/str
    # conversion, printed in full
    proc = _python("-m", "gapkit.cli", "padic", "root", "x^3 - 3*x - 1", "17", "3",
                   "--precision-bits", "18000")
    assert proc.returncode == 0, proc.stderr
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        rpt = json.loads(proc.stdout)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert rpt["lift_level"] == 4404 and 10 ** 4300 < rpt["lift"] < 17 ** 4404
    assert (rpt["lift"] ** 3 - 3 * rpt["lift"] - 1) % 17 ** 4404 == 0


def test_a_box_of_5001_digits_is_accepted(capsys, monkeypatch):
    # the box reaches the enumeration whole and is printed whole; the
    # enumeration itself is stood in for
    from gapkit import cli

    box = "1" + "0" * 4999 + "7"
    seen = []
    monkeypatch.setattr(cli, "enumerate_primitive", lambda problem: seen.append(problem) or [])
    code, out, err = run_cli(capsys, "thue", "enum", "x^3 - 2*y^3", "1", box)
    assert (code, err) == (0, "")
    assert [p.bound for p in seen] == [10 ** 5000 + 7]
    assert f'"box": {box},' in out
    # the interpreter's own limit is back in place once main returns
    if hasattr(sys, "get_int_max_str_digits"):
        with pytest.raises(ValueError):
            int(box)
