"""The benchmark's oracles against brute force, so a wrong oracle cannot pass.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 7)
BOX = 160


def _small_cases(seed):
    """The kinds of forms thue-tall draws, with a small box and m."""
    import random

    rng = random.Random(f"oracle-test:{seed}")
    out = [workloads._galois_cubic(rng), workloads._plain_cubic(rng),
           workloads._palindromic_quartic(rng), workloads._plain_quartic(rng)]
    return [(c, rng.choice([1, 2, 3, 5, 20, 60])) for c in out]


@pytest.mark.parametrize("seed", SEEDS)
def test_tall_oracle_matches_naive_search(seed):
    for c, m in _small_cases(seed):
        sols, h0 = oracles.tall_solutions(c, m, BOX)
        assert sols == oracles.naive_solutions(c, m, BOX), (c, m, h0)


def test_tall_oracle_needs_both_convergent_routes():
    # x^3 - 2x^2y - 5xy^2 - y^3 (Shanks, n = 2), m = 1: H0 = 4, and the
    # solutions (2, -9) (|y| is the height: a convergent of a root) and
    # (9, -7) (|x| is: a convergent of an inverse root) lie above it
    c, m = [1, -2, -5, -1], 1
    h0 = oracles.legendre_height(c, m)
    naive = oracles.naive_solutions(c, m, 300)
    assert h0 < 9 and {(2, -9), (9, -7)} <= naive
    assert oracles.tall_solutions(c, m, 300) == (naive, h0)


@pytest.mark.parametrize("n", range(-1, 12))
def test_tall_oracle_on_shanks_cubics(n):
    c = [1, -n, -(n + 3), -1]
    for m in (1, 2, 3):
        assert oracles.tall_solutions(c, m, 300)[0] == oracles.naive_solutions(c, m, 300)


def test_legendre_height_holds_on_random_solutions():
    # every solution above H0 is a convergent of a real root or inverse root
    for seed in SEEDS:
        for c, m in _small_cases(seed):
            h0 = oracles.legendre_height(c, m)
            conv = set()
            for r in oracles.roots(c):
                if isinstance(r, mpmath.mpf):
                    conv.update(oracles.normalize(p, q) for p, q in oracles.convergents(r, BOX))
            for r in oracles.roots(list(reversed(c))):
                if isinstance(r, mpmath.mpf):
                    conv.update(oracles.normalize(q, p) for p, q in oracles.convergents(r, BOX))
            for x, y in oracles.naive_solutions(c, m, BOX):
                if max(abs(x), abs(y)) > h0:
                    assert (x, y) in conv, (c, m, h0, x, y)


def test_value_and_box_points():
    c = [2, -1, 0, 5]
    assert oracles.value(c, 3, -2) == 2 * 27 - 9 * -2 + 5 * -8
    pts = list(oracles.box_points(3))
    assert len(pts) == len(set(pts))
    brute = {oracles.normalize(x, y) for x in range(-3, 4) for y in range(-3, 4)
             if math.gcd(x, y) == 1}
    assert set(pts) == brute


def test_m_for_count():
    c = [1, -2, -5, -1]
    m = oracles.m_for_count(c, 60, 50)
    assert len(oracles.naive_solutions(c, m, 60)) >= 50
    assert len(oracles.naive_solutions(c, m - 1, 60)) < 50


def test_convergents_of_sqrt2():
    assert oracles.convergents(mpmath.sqrt(2), 100) == [
        (1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]


def test_roots_are_in_real_part_order():
    rs = oracles.roots([2, 2, 4, 3])
    assert [isinstance(r, mpmath.mpf) for r in rs] == [True, False, False]
    assert mpmath.re(rs[0]) < mpmath.re(rs[1]) == mpmath.re(rs[2])
    assert mpmath.im(rs[1]) < 0 < mpmath.im(rs[2])


def test_assignment_error_against_brute_force():
    c = [1, 0, -3, -1]
    rs = oracles.roots(c)
    for x, y in [(2, 1), (1, -3), (3, -2), (7, 4), (5, -9)]:
        cands = []
        for i, a in enumerate(rs):
            cands.append((abs(a - mpmath.mpf(x) / y), i, "alpha"))
            cands.append((abs(1 / a - mpmath.mpf(y) / x), i, "alpha_inv"))
        cands.sort()
        _, i, side = cands[0]
        assert oracles.assignment_error(rs, x, y, i, side, False) is None
        _, j, other = cands[-1]
        assert oracles.assignment_error(rs, x, y, j, other, False) is not None


def test_d12_maps_and_orbits():
    c = workloads.d12_coeffs(3, 1)
    maps = oracles.group_closure(oracles.D12_GENERATORS)
    assert len(maps) == 12
    assert all(oracles.substitute(c, g) == c for g in maps)
    # a map that is not an automorphism is caught
    assert oracles.substitute(c, (1, 1, 0, 1)) != c
    sols = sorted(oracles.naive_solutions(c, 3, 40))
    orbits, seen = [], set()
    for s in sols:
        if s in seen:
            continue
        orbit = {oracles.normalize(*oracles.mat_apply(g, *s)) for g in maps}
        seen |= orbit
        orbits.append(sorted(sols.index(p) for p in orbit))
    assert oracles.orbit_errors(c, maps, sols, orbits) == []
    if len(orbits[0]) > 1:
        split = [orbits[0][:1], orbits[0][1:]] + orbits[1:]
        assert oracles.orbit_errors(c, maps, sols, split)


def test_c5_floor_closed_form():
    # x^3 - 3xy^2 - y^3: D = 81, M = product of the roots above 1, so
    # C10 = 2^2 * 3 * M / 9 and the floor is (C10 m)^(1/(3 - 11/4))
    c = [1, 0, -3, -1]
    rs = oracles.roots(c)
    mahler = mpmath.fprod(max(1, abs(r)) for r in rs)
    want = 4 * math.log10(float(4 * 3 * mahler / 9))
    assert abs(oracles.log10_c5_floor(c, 1, (11, 4)) - want) < 1e-9


def test_cli_checks_reject_bad_outputs():
    spec = {"kind": "cli", "argv": ["padic", "root", "x^3 - 3*x - 1", "17", "3"]}
    good = '{"lift": 207, "lift_level": 2, "lift_mod_p2": 207, "lift_mod_p4": 73035}'
    assert workloads.check_cli(spec, {"exit": 0, "stdout": good}) == []
    bad = good.replace("73035", "73036")
    assert workloads.check_cli(spec, {"exit": 0, "stdout": bad})
    spec = {"kind": "cli", "argv": workloads.CLI_COMMANDS[6]}
    rel = ('{"checks": [{"pair1": "9/5", "pair2": "14/9", "verdict": "Both", '
           '"mobius": {"s": 1, "t": 1, "u": 1, "v": 0}}]}')
    assert workloads.check_cli(spec, {"exit": 0, "stdout": rel}) == []
    assert workloads.check_cli(spec, {"exit": 0, "stdout": rel.replace('"t": 1', '"t": 2')})
    # a report without its one check passes neither gap check
    empty = '{"checks": []}'
    assert workloads.check_cli(spec, {"exit": 0, "stdout": empty})
    spec = {"kind": "cli", "argv": workloads.CLI_COMMANDS[7]}
    assert workloads.check_cli(spec, {"exit": 0, "stdout": empty})
    padic = '{"checks": [{"pair1": "4/7", "pair2": "5/-77", "verdict": "Both"}]}'
    assert workloads.check_cli(spec, {"exit": 0, "stdout": padic}) == []


def test_census_check_rejects_dropped_assignments():
    c, m, box = [1, 0, -3, -1], 1, 12
    facts = workloads.census_facts("thue-wide", {"form": c, "m": m, "box": box})
    rs = facts["roots"]
    sols = sorted(facts["solutions"])
    assignments = []
    for x, y in sols:
        cands = [(abs(a - mpmath.mpf(x) / y), i, "alpha") for i, a in enumerate(rs) if y]
        cands += [(abs(1 / a - mpmath.mpf(y) / x), i, "alpha_inv")
                  for i, a in enumerate(rs) if x]
        _, i, side = min(cands)
        assignments.append([i, side, False])
    out = {"form": c, "solutions": [[x, y, oracles.value(c, x, y)] for x, y in sols],
           "root_approx": [[float(mpmath.re(r)), float(mpmath.im(r))] for r in rs],
           "assignments": assignments, "large": 0, "theorem_bound": 1}
    assert workloads.check_census(out, facts) == []
    assert workloads.check_census(dict(out, assignments=assignments[:-1]), facts)


def test_match_roots_follows_the_reported_numbering():
    rs = oracles.roots([2, 2, 4, 3])
    # numbering with the complex pair first, as gapkit may report it
    approx = [[float(mpmath.re(r)), float(mpmath.im(r))] for r in (rs[1], rs[2], rs[0])]
    out, err = oracles.match_roots(rs, approx)
    assert err is None and out == [rs[1], rs[2], rs[0]]
    out, err = oracles.match_roots(rs, [approx[0], approx[0], approx[2]])
    assert out is None and err
    out, err = oracles.match_roots(rs, [[0.5, 0.0]] + approx[1:])
    assert out is None and err
