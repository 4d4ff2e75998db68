import json
from itertools import permutations, product
from pathlib import Path

import mpmath
import pytest

from gapkit import autgroup, isolation
from gapkit.autgroup import (AutError, D12_DET3, D12_UNIMODULAR, _image_index,
                             _surviving_triples, aut_prime, d12_family,
                             element_order, membership_scale,
                             root_orbit_partition, verify_729)
from gapkit.binforms import BinForm, IntMat2
from gapkit.isolation import TABLE_WIDTH, isolate_roots, root_system


def adjugate(m: IntMat2) -> IntMat2:
    return IntMat2(m.v, -m.u, -m.t, m.s)


def brute_force_aut(f: BinForm, entry_bound: int):
    """Oracle: all primitive integer matrices with entries in the box that
    satisfy the exact membership identity, paired with their sign data."""
    out = {}
    rng = range(-entry_bound, entry_bound + 1)
    for s, u, t, v in product(rng, rng, rng, rng):
        m = IntMat2(s, u, t, v)
        if m.det == 0 or m.content() != 1:
            continue
        ok = membership_scale(f, m)
        if ok is not None:
            out[m.entries()] = ok
    return out


def test_d12_family_coefficients():
    f = d12_family(3, 1)
    assert f.coeffs == (3, -18, 139, -530, 745, 2, -679, 2, 745, -530, 139, -18, 3)
    # (231*3+2)/5 = 139, (495*3+5)/2 = 745, (1122*3+29)/5 = 679
    f13 = d12_family(13, 1)
    assert f13.coeffs[0] == 13          # the coefficient of x^12
    with pytest.raises(ValueError):
        d12_family(1, 1)          # 1 != 3 mod 10
    with pytest.raises(ValueError):
        d12_family(6, 2)          # not coprime


def test_verify_729_identities(d12_form):
    rpt = verify_729(d12_form)
    assert rpt["ok"]
    assert len(rpt["unimodular"]) == 12 and len(rpt["det3"]) == 12
    assert all(abs(IntMat2(*e["matrix"]).det) == 1 for e in rpt["unimodular"])
    assert all(abs(e["det"]) == 3 for e in rpt["det3"])
    # second instance: 13 = 3*11 mod 10
    assert verify_729(d12_family(13, 11))["ok"]


def test_membership_scale_examples(d12_form):
    assert membership_scale(d12_form, IntMat2(1, 1, -1, 2)) == (729, 1)
    assert membership_scale(d12_form, IntMat2(0, 1, 1, 0)) == (1, 1)
    assert membership_scale(d12_form, IntMat2(5, 0, 0, 1)) is None


def test_aut_prime_cubic_matches_oracle():
    f = BinForm((1, 0, 0, -2))        # x^3 - 2y^3
    aut = aut_prime(f)
    assert aut.order == 2
    assert {e.matrix.entries() for e in aut.elements} == \
        {(1, 0, 0, 1), (-1, 0, 0, -1)}
    oracle = brute_force_aut(f, 10)
    assert set(oracle) == {e.matrix.entries() for e in aut.elements}
    assert aut.structure == "C_2" and aut.table1_class == "C2"


def test_aut_prime_galois_cubic_matches_oracle(cubic_form, cubic_aut):
    oracle = brute_force_aut(cubic_form, 6)
    assert set(oracle) == {e.matrix.entries() for e in cubic_aut.elements}
    assert cubic_aut.order == 6
    assert cubic_aut.structure == "C_6"
    assert cubic_aut.table1_class == "C6"


def test_aut_prime_d12(d12_aut):
    assert d12_aut.order == 24
    assert d12_aut.structure == "D_12"
    have = {e.matrix.entries() for e in d12_aut.elements}
    assert (0, 1, 1, 0) in have and (1, 1, -1, 2) in have
    assert sorted(set(abs(e.det) for e in d12_aut.elements)) == [1, 3]
    # the 24 listed solution maps are exactly the group elements
    listed = {m.entries() for m in D12_UNIMODULAR} | {m.entries() for m in D12_DET3}
    assert listed == have


def test_group_axioms(d12_aut, d12_form):
    elems = {e.matrix.entries() for e in d12_aut.elements}
    for a in d12_aut.elements:
        inv = adjugate(a.matrix).primitive()
        assert inv.entries() in elems or (-inv).entries() in elems
        for b in d12_aut.elements:
            prod = (a.matrix @ b.matrix).primitive()
            assert prod.entries() in elems
            assert membership_scale(d12_form, prod) is not None


def test_element_orders_and_bound(d12_aut):
    orders = {element_order(e.matrix) for e in d12_aut.elements}
    assert orders <= {1, 2, 3, 4, 6, 8, 12}
    assert max(orders) == 12
    assert d12_aut.order <= 24
    assert element_order(IntMat2(1, 1, -1, 2)) == 12


def test_determinant_law(d12_aut, d12_form):
    # |det M0|^d * c_d^2 == F(s, t)^2 for every element
    d = d12_form.degree
    cd = d12_form.lead_x
    for e in d12_aut.elements:
        m = e.matrix
        assert abs(m.det) ** d * cd ** 2 == d12_form.value(m.s, m.t) ** 2


def test_identity_and_negation_always_present():
    for coeffs in ((1, 0, 1, -1), (2, 1, -1, 0, 3)):
        f = BinForm(coeffs)
        from gapkit.algnum import is_irreducible

        if not is_irreducible(f.dehomogenize()) or f.degree < 3:
            continue
        aut = aut_prime(f)
        have = {e.matrix.entries() for e in aut.elements}
        assert (1, 0, 0, 1) in have and (-1, 0, 0, -1) in have


def test_orbit_partition_examples(d12_aut, cubic_aut):
    part = root_orbit_partition(d12_aut)
    assert part.blocks == (tuple(range(12)),)
    assert part.gamma == 12
    part3 = root_orbit_partition(cubic_aut)
    assert part3.gamma == 3
    # x^3 - 2y^3: only +-I, which act trivially as Moebius maps
    aut2 = aut_prime(BinForm((1, 0, 0, -2)))
    part2 = root_orbit_partition(aut2)
    assert part2.blocks == ((0,), (1,), (2,))
    assert part2.gamma == 1


def mpmath_roots(f: BinForm) -> list:
    """The roots of F(x, 1) at the current mpmath precision, in gapkit's
    numbering (each enclosure matched to the nearest mpmath root)."""
    poly = f.dehomogenize()
    roots = mpmath.polyroots(list(reversed(poly.coeffs)), maxsteps=200,
                             extraprec=200)
    order = [nearest(roots, mpmath.mpc(e.approx())) for e in isolate_roots(poly)]
    assert sorted(order) == list(range(len(roots)))
    return [roots[j] for j in order]


def nearest(roots, z) -> int:
    return min(range(len(roots)), key=lambda j: abs(roots[j] - z))


def mpmath_orbit_blocks(f: BinForm, matrices) -> set[frozenset[int]]:
    """Oracle: the roots of F(x, 1) at 50 digits, each mapped through every
    matrix's Moebius action z -> (v z - u)/(-t z + s) and matched to the
    nearest root; the orbits are the connected components of that graph."""
    with mpmath.workdps(50):
        roots = mpmath_roots(f)
        block = {i: {i} for i in range(len(roots))}
        for s, u, t, v in matrices:
            for i, z in enumerate(roots):
                j = nearest(roots, (v * z - u) / (-t * z + s))
                merged = block[i] | block[j]
                for k in merged:
                    block[k] = merged
    return {frozenset(b) for b in block.values()}


@pytest.mark.parametrize("coeffs", [(1, 0, -3, -1), (1, 0, 0, -2), (3, 2, -8, 2, 3)])
def test_orbit_partition_against_mpmath(coeffs):
    f = BinForm(coeffs)
    aut = aut_prime(f)
    part = root_orbit_partition(aut)
    oracle = mpmath_orbit_blocks(f, [e.matrix.entries() for e in aut.elements])
    assert {frozenset(b) for b in part.blocks} == oracle


def test_d12_orbit_partition_against_mpmath(d12_form, d12_aut):
    part = root_orbit_partition(d12_aut)
    oracle = mpmath_orbit_blocks(d12_form, [e.matrix.entries() for e in d12_aut.elements])
    assert {frozenset(b) for b in part.blocks} == oracle


@pytest.mark.parametrize("coeffs", [
    d12_family(3, 1).coeffs, (1, 0, 0, 0, 1), (3, 2, -8, 2, 3), (1, 0, -3, -1)])
def test_element_permutations_against_mpmath(coeffs):
    # each element's certified permutation is where its root action sends
    # the 50-digit roots, each image within 10^-40 of its root
    f = BinForm(coeffs)
    aut = aut_prime(f)
    with mpmath.workdps(50):
        roots = mpmath_roots(f)
        for e in aut.elements:
            s, u, t, v = e.matrix.entries()
            images = [(v * z - u) / (-t * z + s) for z in roots]
            assert e.perm == tuple(nearest(roots, w) for w in images), e
            assert all(abs(w - roots[j]) < mpmath.mpf(10) ** -40
                       for w, j in zip(images, e.perm)), e


@pytest.mark.parametrize("coeffs", [d12_family(3, 1).coeffs, (1, 0, -3, -1)])
def test_orbit_partition_reads_no_enclosure(coeffs, monkeypatch):
    # the orbits come from the permutations aut_prime certified: the root
    # system gains no table and no refined enclosure
    monkeypatch.setattr(isolation, "_SYSTEMS", {})
    f = BinForm(coeffs)
    aut = aut_prime(f)
    system = root_system(f.dehomogenize())
    tables, memo = dict(system.tables), [dict(m) for m in system.memo]
    part = root_orbit_partition(aut)
    assert part.gamma == f.degree
    assert system.tables == tables and [dict(m) for m in system.memo] == memo


def test_orbit_partition_is_equivalence(d12_aut):
    part = root_orbit_partition(d12_aut)
    seen = sorted(i for block in part.blocks for i in block)
    assert seen == list(range(12))          # partition covers every root once
    for block in part.blocks:
        for i in block:
            assert part.gamma_per_root[i] == len(block)


def test_gamma_at_most_half_order(d12_aut, cubic_aut):
    for aut in (d12_aut, cubic_aut):
        part = root_orbit_partition(aut)
        assert 2 * part.gamma <= aut.order


def test_aut_rejects_reducible():
    with pytest.raises(AutError):
        aut_prime(BinForm((1, 0, 0, 0)))       # x^3: reducible
    with pytest.raises(AutError):
        aut_prime(BinForm((1, 3, 3, 1)))       # (x + y)^3


# -- the certified triple exclusion against mpmath --------------------------------

GOLDEN = json.loads((Path(__file__).parent / "golden" / "aut.json").read_text())
GOLDEN_FORMS = [e["coeffs"] for e in GOLDEN]
GOLDEN_IDS = [",".join(map(str, c)) for c in GOLDEN_FORMS]


def mpmath_permuting_triples(roots) -> dict[tuple[int, int, int], bool]:
    """Oracle: the ordered triples (i, j, k) for which the Moebius map
    sending (r0, r1, r2) to (ri, rj, rk) sends every root to within 10^-30
    of a root, each with whether that map commutes with conjugation (sends
    the conjugate of each root to the conjugate of its image), that is,
    whether it has real coefficients.  Each image is solved from the cross
    ratio CR(r0, r1, r2; rl), with CR(a, b, c; z) = (z - a)(b - c) / ((z -
    c)(b - a))."""
    eps = mpmath.mpf(10) ** -30
    lams = [(z - roots[0]) * (roots[1] - roots[2])
            / ((z - roots[2]) * (roots[1] - roots[0])) for z in roots[3:]]
    conj = [nearest(roots, mpmath.conj(z)) for z in roots]
    out = {}
    for i, j, k in permutations(range(len(roots)), 3):
        a, b, c = roots[i], roots[j], roots[k]
        try:
            images = [(a * (b - c) - c * lam * (b - a)) / ((b - c) - lam * (b - a))
                      for lam in lams]
        except ZeroDivisionError:
            continue
        if all(min(abs(w - r) for r in roots) < eps for w in images):
            perm = (i, j, k) + tuple(nearest(roots, w) for w in images)
            out[i, j, k] = all(perm[conj[r]] == conj[perm[r]] for r in range(len(roots)))
    return out


def element_triples(aut, roots) -> set[tuple[int, int, int]]:
    """The images of roots 0, 1, 2 under each element's root action."""
    return {tuple(nearest(roots, (v * z - u) / (-t * z + s)) for z in roots[:3])
            for s, u, t, v in (e.matrix.entries() for e in aut.elements)}


def survivors(f: BinForm) -> set[tuple[int, int, int]]:
    system = root_system(f.dehomogenize())
    sides = [(e.disk[1] > 0) - (e.disk[1] < 0) for e in system.base]
    return set(_surviving_triples(system.scaled(TABLE_WIDTH), sides))


@pytest.mark.parametrize("coeffs", [
    d12_family(3, 1).coeffs, (1, 0, 0, 0, 1), (3, 2, -8, 2, 3), (1, 0, -3, -1)])
def test_triple_exclusion_keeps_every_permuting_map(coeffs):
    f = BinForm(coeffs)
    kept = survivors(f)
    with mpmath.workdps(50):
        roots = mpmath_roots(f)
        permuting = mpmath_permuting_triples(roots)
        mine = element_triples(aut_prime(f), roots)
    real = {t for t, is_real in permuting.items() if is_real}
    assert mine <= real
    assert real <= kept
    # no permuting map with nonreal coefficients keeps its triple
    assert not kept & (permuting.keys() - real)
    if f.degree == 12:
        # on D12 exactly the 12 projective elements survive
        assert kept == mine and len(kept) == 12


def test_irrational_permuting_map_survives_but_is_not_accepted():
    # z -> sqrt(2)/z permutes the roots of x^4 - 2 and is real, but is not a
    # multiple of a rational matrix
    f = BinForm((1, 0, 0, 0, -2))
    aut = aut_prime(f)
    with mpmath.workdps(50):
        roots = mpmath_roots(f)
        flip = tuple(nearest(roots, mpmath.sqrt(2) / z) for z in roots[:3])
        assert mpmath_permuting_triples(roots)[flip]
        assert flip not in element_triples(aut, roots)
    assert flip == (0, 2, 1) and flip in survivors(f)
    assert {e.matrix.entries() for e in aut.elements} == {
        (1, 0, 0, 1), (-1, 0, 0, -1), (1, 0, 0, -1), (-1, 0, 0, 1)}
    # z -> i z permutes the roots of x^4 + 1 and is not real: excluded
    g = BinForm((1, 0, 0, 0, 1))
    with mpmath.workdps(50):
        roots = mpmath_roots(g)
        rotation = tuple(nearest(roots, 1j * z) for z in roots[:3])
        assert mpmath_permuting_triples(roots)[rotation] is False
    assert rotation not in survivors(g)


@pytest.mark.parametrize("coeffs", GOLDEN_FORMS, ids=GOLDEN_IDS)
def test_every_element_triple_survives(coeffs):
    # the product closure rebuilds elements whose triples a wrong exclusion
    # dropped, so the group's order alone would not show one
    f = BinForm(coeffs)
    kept = survivors(f)
    assert all(e.perm[:3] in kept for e in aut_prime(f).elements)


def test_d12_cross_ratio_test_runs_on_60_triples(d12_form, monkeypatch):
    # of the 1,320 ordered triples of D12's 12 roots (six conjugate pairs),
    # 60 are reachable by a real map; each takes at most two divisions, after
    # the two cross ratios' (each of the 1,320 took at least one before)
    calls = []
    monkeypatch.setattr(autgroup, "disk_div",
                        lambda *a: calls.append(a) or isolation.disk_div(*a))
    assert len(survivors(d12_form)) == 12
    assert len(calls) <= 2 + 2 * 60


@pytest.mark.parametrize("coeffs", GOLDEN_FORMS, ids=GOLDEN_IDS)
def test_stored_scale_sign_and_perm_are_each_elements_own(coeffs):
    # -M0 takes its scale, sign and perm from M0's: each must be what the
    # exact identity and the image disks give for -M0 itself
    f = BinForm(coeffs)
    table = root_system(f.dehomogenize()).scaled(TABLE_WIDTH)
    for e in aut_prime(f).elements:
        assert (e.scale, e.sign) == membership_scale(f, e.matrix)
        assert e.perm == tuple(_image_index(e.matrix, z, table.alpha, table.bits)
                               for z in table.alpha)
