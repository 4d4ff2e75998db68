"""The benchmark's workloads: their operations, drawn inputs and checks.

An operation is a JSON-able spec that ``worker.py`` runs in a fresh
interpreter: ``{"kind": "census", ...}`` calls ``gapkit.thue.census`` and
``{"kind": "cli", "argv": [...]}`` calls ``gapkit.cli.main``.
``Workload.check(index, result)`` validates one operation's output against
the independent oracles in ``oracles.py`` and returns a list of errors.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

import oracles

# thue-tall sets m to the form's leading coefficient, so that gapkit's window
# radius (m/|c_d|)^(1/d) is exactly 1.  The per-y window arithmetic on exact
# fractions, most of the enumeration cost, is then about equally dear for
# every form of a kind (a fractional radius made it 15-40 % dearer, by
# form), and one box per kind gives each census about 2.2 s of enumeration
# (enumerate_primitive took some 35, 39 and 51 us per y on the three kinds
# on a 2-core x86-64 machine).  At radius 1 every case stays below 0.7M
# steps, far below gapkit's 2M-step enumeration budget.
TALL_BOX = {"galois cubic": 64_000, "cubic": 58_000, "quartic": 44_000}
# the tall oracle searches naively up to its own H0; forms whose H0 exceeds
# this are redrawn, which bounds the oracle's cost and says nothing of gapkit
TALL_MAX_H0 = 400
WIDE_BOX = 300
WIDE_SOLUTIONS = {"galois cubic": 1000, "cubic": 600}
MU = {3: "11/4", 4: "7/2"}


@dataclass
class Workload:
    name: str
    ops: list[dict]
    facts: dict = field(default_factory=dict)   # per-op oracle data, by op index

    def check(self, index: int, result: dict) -> list[str]:
        spec = self.ops[index]
        if spec["kind"] == "cli":
            return check_cli(spec, result)
        return check_census(result, self.facts[index])


# -- seeded form draws ----------------------------------------------------------

def _irreducible(c: list[int]) -> bool:
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(c, x).is_irreducible


def _disc_sign(c: list[int]) -> int:
    import sympy

    x = sympy.Symbol("x")
    disc = int(sympy.discriminant(sympy.Poly(c, x)))
    return (disc > 0) - (disc < 0)


def _galois_cubic(rng: random.Random) -> list[int]:
    # Shanks' simplest cubics x^3 - n x^2 y - (n+3) x y^2 - y^3: cyclic
    # Galois group, an order-3 unimodular automorphism; n = 0 is x^3-3xy^2-y^3
    n = rng.randrange(-1, 7)
    return [1, -n, -(n + 3), -1]


def _plain_cubic(rng: random.Random) -> list[int]:
    # one real root and a complex pair (negative discriminant)
    while True:
        c = [rng.randint(1, 3)] + [rng.randint(-5, 5) for _ in range(3)]
        if c[3] != 0 and _irreducible(c) and _disc_sign(c) < 0:
            return c


def _palindromic_quartic(rng: random.Random) -> list[int]:
    # a x^4 + b x^3 y + c x^2 y^2 + b x y^3 + a y^4: the swap is an automorphism
    while True:
        a, b, cc = rng.randint(1, 3), rng.randint(-6, 6), rng.randint(-8, 8)
        c = [a, b, cc, b, a]
        if _irreducible(c) and _disc_sign(c) != 0:
            return c


def _plain_quartic(rng: random.Random) -> list[int]:
    while True:
        c = [rng.randint(1, 3)] + [rng.randint(-4, 4) for _ in range(4)]
        if c[4] != 0 and _irreducible(c) and _disc_sign(c) != 0:
            return c


def _tall_case(c: list[int], kind: str) -> dict | None:
    m = c[0]
    if oracles.legendre_height(c, m) > TALL_MAX_H0:
        return None
    return {"kind": "census", "form": c, "m": m, "box": TALL_BOX[kind], "mu": MU[len(c) - 1]}


def draw_tall(seed: int) -> list[dict]:
    """One census of each kind: Galois cubic, cubic with complex roots,
    palindromic quartic, general quartic; m the leading coefficient (1 to
    3), boxes TALL_BOX."""
    rng = random.Random(f"thue-tall:{seed}")
    cases = []
    for draw, kind in ((_galois_cubic, "galois cubic"), (_plain_cubic, "cubic"),
                       (_palindromic_quartic, "quartic"), (_plain_quartic, "quartic")):
        case = None
        while case is None:
            case = _tall_case(draw(rng), kind)
        cases.append(case)
    return cases


def draw_wide(seed: int) -> list[dict]:
    """Two Galois cubics and two cubics with complex roots at box 300, with
    m set so that each has WIDE_SOLUTIONS[kind] solutions.

    Cubics only: at equal solution counts, root assignment on the quartics
    the draw makes costs from 0.5 to 1.5 s with the form, which spread the
    per-seed figures beyond the bounds."""
    rng = random.Random(f"thue-wide:{seed}")
    cases = []
    for draw, kind in ((_galois_cubic, "galois cubic"), (_plain_cubic, "cubic")) * 2:
        c = draw(rng)
        m = oracles.m_for_count(c, WIDE_BOX, WIDE_SOLUTIONS[kind])
        cases.append({"kind": "census", "form": c, "m": m, "box": WIDE_BOX, "mu": MU[3]})
    return cases


# -- fixed inputs ---------------------------------------------------------------

D12_OP = {"kind": "census", "d12": [3, 1], "m": 3, "box": 40, "mu": "38/4"}

QUARTIC = "x^4 - x^3 - 4*x^2 + 4*x + 1"
ALPHA_Q, BETA_Q = f"{QUARTIC}@root~=1.827", f"{QUARTIC}@root~=1.338"
ALPHA_C, BETA_C = "x^3 - 3*x - 1@root~=1.879", "x^3 - 3*x + 1@root~=1.532"

CLI_COMMANDS = [
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


def build(name: str, seed: int) -> Workload:
    if name == "d12-census":
        ops = [D12_OP]
    elif name == "thue-tall":
        ops = draw_tall(seed)
    elif name == "thue-wide":
        ops = draw_wide(seed)
    elif name == "cli-session":
        ops = [{"kind": "cli", "argv": argv} for argv in CLI_COMMANDS]
    else:
        raise KeyError(name)
    wl = Workload(name, ops)
    for i, spec in enumerate(ops):
        if spec["kind"] == "census":
            wl.facts[i] = census_facts(name, spec)
    return wl


# -- checks -----------------------------------------------------------------------

def d12_coeffs(a: int, b: int) -> list[int]:
    """The dihedral degree-12 family of the paper, for a = 3b (mod 10)."""
    c = [a, -6 * a, (231 * a + 2 * b) // 5, -(176 * a + 2 * b), (495 * a + 5 * b) // 2,
         2 * b, -((1122 * a + 29 * b) // 5)]
    return c + c[-2::-1]


def census_facts(name: str, spec: dict) -> dict:
    """What the oracles say about one census input, computed once."""
    c = spec["form"] if "form" in spec else d12_coeffs(*spec["d12"])
    m, box = spec["m"], spec["box"]
    facts = {"form": c}
    if name == "thue-tall":
        facts["solutions"] = oracles.tall_solutions(c, m, box)[0]
    else:
        facts["solutions"] = oracles.naive_solutions(c, m, box)
    facts["roots"] = oracles.roots(c)
    if name == "d12-census":
        facts["maps"] = oracles.group_closure(oracles.D12_GENERATORS)
        num, den = map(int, spec["mu"].split("/"))
        facts["log10_c5_floor"] = oracles.log10_c5_floor(c, m, (num, den))
    return facts


def check_census(out: dict, facts: dict) -> list[str]:
    errors = []
    c = facts["form"]
    if out["form"] != c:
        errors.append(f"form {out['form']} is not {c}")
    sols = [tuple(s[:2]) for s in out["solutions"]]
    for x, y, v in out["solutions"]:
        if oracles.value(c, x, y) != v:
            errors.append(f"F({x}, {y}) reported as {v}")
    if set(sols) != facts["solutions"] or len(sols) != len(facts["solutions"]):
        missing = sorted(facts["solutions"] - set(sols))[:5]
        extra = sorted(set(sols) - facts["solutions"])[:5]
        errors.append(f"solutions differ from the oracle: missing {missing}, extra {extra}")
    # the census numbers roots its own way; each index is matched to an
    # mpmath root through the approximate value the worker reports for it
    rs, err = oracles.match_roots(facts["roots"], out["root_approx"])
    if err:
        errors.append(err)
    if len(out["assignments"]) != len(sols):
        errors.append(f"{len(out['assignments'])} root assignments for {len(sols)} solutions")
    for (x, y), (idx, side, tie) in zip(sols, out["assignments"] if rs else []):
        err = oracles.assignment_error(rs, x, y, idx, side, tie)
        if err:
            errors.append("root assignment " + err)
            break
    if out["large"] > out["theorem_bound"]:
        errors.append(f"largeSolutions {out['large']} > theoremBound {out['theorem_bound']}")
    if "maps" in facts:
        errors += oracles.orbit_errors(c, facts["maps"], sols, out["orbits"])
        if out["aut_order"] != 24 or out["gamma"] != 12:
            errors.append(f"Aut' order {out['aut_order']}, gamma {out['gamma']}; want 24, 12")
        if out["log10_c5"] < facts["log10_c5_floor"] - 1e-9:
            errors.append(f"log10 C5 {out['log10_c5']} below the Lewis-Mahler floor "
                          f"{facts['log10_c5_floor']}")
    return errors


# high-to-low coefficients of the fixed cubics of the CLI commands
CUBICS = {"x^3 - 3*x - 1": [1, 0, -3, -1], "x^3 - 3*x + 1": [1, 0, -3, 1]}


def _near_root(c: list[int], guess: float):
    return min((r for r in oracles.roots(c) if isinstance(r, mpmath.mpf)),
               key=lambda r: abs(r - guess))


def check_cli(spec: dict, out: dict) -> list[str]:
    """Checks of a CLI call that exited 0 (run.py counts any other exit code
    as a failed operation)."""
    argv = spec["argv"]
    rpt = json.loads(out["stdout"])
    cmd = tuple(argv[:2])
    errors = []
    if argv[0] == "minpair":
        if rpt["r"] != 2:
            errors.append(f"minpair r = {rpt['r']}, want 2")
    elif argv[0] == "constants":
        for key in ("C_small", "C_big"):
            if rpt[key]["rounding"] != "up":
                errors.append(f"{key} is not rounded up")
    elif argv[0] == "aut":
        mats = sorted(tuple(e["matrix"]) for e in rpt["elements"])
        if mats != [(-1, 0, 0, -1), (1, 0, 0, 1)]:
            errors.append(f"Aut'(x^3 - 2y^3) is {mats}, want {{+-I}}")
    elif cmd == ("thue", "enum"):
        c, m, box = [1, 0, 0, -2], int(argv[3]), int(argv[4])
        got = {tuple(s[:2]) for s in rpt["solutions"]}
        if got != oracles.naive_solutions(c, m, box):
            errors.append(f"thue enum solutions {sorted(got)} differ from naive search")
    elif cmd == ("thue", "census"):
        c, box = [1, 0, -3, -1], int(argv[argv.index("--box") + 1])
        got = {tuple(s[:2]) for s in rpt["solutions"]}
        if got != oracles.naive_solutions(c, int(argv[3]), box):
            errors.append("thue census solutions differ from naive search")
        if not rpt["boundRespected"]:
            errors.append("thue census bound not respected")
    elif cmd == ("gap", "check") and "--prime" not in argv:
        errors += _check_mobius(argv, rpt)
    elif cmd == ("gap", "check"):
        errors += _check_count(argv, rpt)
        if any(ch["verdict"] == "Violation" for ch in rpt["checks"]):
            errors.append("p-adic gap check reports a Violation")
    elif cmd == ("padic", "root"):
        c, p = CUBICS[argv[2]], int(argv[3])
        for key, k in (("lift_mod_p2", 2), ("lift_mod_p4", 4), ("lift", rpt["lift_level"])):
            if oracles.value(c, rpt[key], 1) % p ** k:
                errors.append(f"{key} = {rpt[key]} is not a root mod {p}^{k}")
    elif argv[0] == "sweep":
        dich, cnt = rpt["dichotomy"], rpt["counting"]
        if not dich["zero_violations"] or any(i["violations"] for i in dich["instances"]):
            errors.append("the sweep reports violations")
        if (cnt["floor_f_3"], cnt["bound_24_f3"]) != (64, 24 * 64):
            errors.append(f"24*floor f(3) = {cnt['bound_24_f3']}, want 1536")
        if (cnt["floor_f_1e14"], cnt["bound_24_f1e14"]) != (3, 24 * 3):
            errors.append(f"24*floor f(1e14) = {cnt['bound_24_f1e14']}, want 72")
    return errors


def _check_count(argv: list[str], rpt: dict) -> list[str]:
    """`gap check` reports one check per pair after the first; the pairs
    end the command line, after --desk-floor."""
    want = len(argv) - argv.index("--desk-floor") - 2
    if len(rpt["checks"]) != want:
        return [f"gap check reports {len(rpt['checks'])} checks, want {want}"]
    return []


def _check_mobius(argv: list[str], rpt: dict) -> list[str]:
    """s, t, u, v with sv - tu != 0, beta = (s alpha + t)/(u alpha + v) to
    50 digits, and x2/y2 = (s x1 + t y1)/(u x1 + v y1)."""
    errors = _check_count(argv, rpt)
    (fa, ga), (fb, gb) = (s.split("@root~=") for s in argv[2:4])
    alpha = _near_root(CUBICS[fa], float(ga))
    beta = _near_root(CUBICS[fb], float(gb))
    for ch in rpt["checks"]:
        rel = ch["mobius"]
        if rel is None:
            errors.append("gap check reports no Moebius relation")
            continue
        s, t, u, v = rel["s"], rel["t"], rel["u"], rel["v"]
        if s * v - t * u == 0:
            errors.append("Moebius relation is singular")
            continue
        with mpmath.workdps(60):
            if abs((s * alpha + t) / (u * alpha + v) - beta) > mpmath.mpf(10) ** -50:
                errors.append("beta != (s alpha + t)/(u alpha + v) to 50 digits")
        x1, y1 = map(int, ch["pair1"].split("/"))
        x2, y2 = map(int, ch["pair2"].split("/"))
        if Fraction(x2, y2) != Fraction(s * x1 + t * y1, u * x1 + v * y1):
            errors.append(f"{x2}/{y2} is not the Moebius image of {x1}/{y1}")
    return errors
