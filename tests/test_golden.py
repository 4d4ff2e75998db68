"""Golden verdicts.

* Group verdicts: every form in tests/golden/aut.json gets the same Aut'
  (order, structure, Table-1 class, elements), root-orbit blocks and gamma
  as when the file was written (by tests/golden/write_aut.py).
* Structural output: every README command and census in
  tests/golden/census.json gives the same exit code and structural fields
  as when the file was written (by tests/golden/write_census.py, whose
  projections of the reports are reused here).
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gapkit.autgroup import aut_prime, root_orbit_partition
from gapkit.binforms import BinForm
from gapkit.thue import ThueProblem

GOLDEN_DIR = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

import write_census  # noqa: E402

GOLDEN = json.loads((GOLDEN_DIR / "aut.json").read_text())
CENSUS = json.loads((GOLDEN_DIR / "census.json").read_text())
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
