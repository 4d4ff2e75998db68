"""Write tests/golden/aut.json, the golden group verdicts that
tests/test_golden.py recomputes.

    python tests/golden/write_aut.py

For each form: its coefficients, where it comes from, and the order,
structure, Table-1 class, element matrices, root-orbit blocks and gamma of
its enhanced automorphism group.  The forms are those of
tests/test_autgroup.py, the README's ``aut`` form, the D12 form, and the
forms the benchmark's thue-tall and thue-wide workloads draw for seeds 1 to
10 (read from perfbench/workloads.py).  A change that alters this file has
to say why.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gapkit.autgroup import aut_prime, d12_family, root_orbit_partition  # noqa: E402
from gapkit.binforms import BinForm                                       # noqa: E402

import workloads                                                          # noqa: E402

FIXED = [
    ((1, 0, 0, -2), "tests/test_autgroup.py, README aut"),
    ((1, 0, -3, -1), "tests/test_autgroup.py"),
    ((1, 0, 1, -1), "tests/test_autgroup.py"),
    ((2, 1, -1, 0, 3), "tests/test_autgroup.py"),
    ((3, 2, -8, 2, 3), "tests/test_autgroup.py"),
    (d12_family(3, 1).coeffs, "D12"),
]


def forms() -> dict[tuple, list[str]]:
    out: dict[tuple, list[str]] = {}
    for coeffs, source in FIXED:
        out.setdefault(tuple(coeffs), []).append(source)
    for seed in range(1, 11):
        for name, draw in (("thue-tall", workloads.draw_tall),
                           ("thue-wide", workloads.draw_wide)):
            for spec in draw(seed):
                out.setdefault(tuple(spec["form"]), []).append(f"{name}:{seed}")
    return out


def verdict(coeffs) -> dict:
    aut = aut_prime(BinForm(coeffs))
    part = root_orbit_partition(aut)
    rpt = aut.report()
    return {"order": rpt["order"], "structure": rpt["structure"],
            "table1Class": rpt["table1Class"],
            "elements": [e["matrix"] for e in rpt["elements"]],
            "orbits": [list(b) for b in part.blocks], "gamma": part.gamma}


def main():
    entries = [{"coeffs": list(c), "sources": sorted(set(src)), **verdict(c)}
               for c, src in forms().items()]
    path = Path(__file__).with_name("aut.json")
    path.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{len(entries)} forms -> {path}")


if __name__ == "__main__":
    main()
