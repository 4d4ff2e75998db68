"""Golden group verdicts: every form in tests/golden/aut.json gets the same
Aut' (order, structure, Table-1 class, elements), root-orbit blocks and
gamma as when the file was written (by tests/golden/write_aut.py)."""

import json
from pathlib import Path

import pytest

from gapkit.autgroup import aut_prime, root_orbit_partition
from gapkit.binforms import BinForm

GOLDEN = json.loads((Path(__file__).parent / "golden" / "aut.json").read_text())


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
