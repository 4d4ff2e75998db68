"""The enhanced automorphism group of an integer binary form.

Elements are stored as primitive integer matrices M0; the actual group
element is M0 / sqrt(|det M0|), so the scaling never has to be represented:
products are primitivized integer products, and membership is the exact
polynomial identity F(M0 x) = eps * |det M0|**(d/2) * F with eps = +-1.

Candidates come from the root correspondence: every element permutes the
roots of F(x, 1) through z -> (v z - u)/(-t z + s), and a Moebius map is
pinned by three roots.  Only the target triples that a real map reaches
(keeping each root's side of the real axis, or swapping all of them, and
keeping conjugate pairs) are tried; they are excluded, and the survivors'
maps reconstructed, in outward-rounded integer disk arithmetic on the
``ScaledRoots`` tables; entry ratios are rationalized by the simplest
rational in the enclosure, and every candidate is accepted or rejected by
the exact identity alone.  Each element carries its certified permutation
of the roots, and the root orbits are read off those permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from .algnum import is_irreducible
from .binforms import BinForm, IntMat2, form_action
from .intpoly import describe
from .isolation import (ScaledRoots, disk_disjoint, disk_div, disk_mul, disk_sub,
                        root_system)
from .rounding import simplest_rational_in


class AutError(ValueError):
    pass


@dataclass(frozen=True)
class AutElement:
    """One element of Aut'|F|: primitive matrix, |det|**(d/2) scale, sign."""

    matrix: IntMat2
    scale: int   # integer with scale**2 == |det|**d
    sign: int    # F(M0 x) = sign * scale * F
    perm: tuple[int, ...]   # root i of F(x, 1) goes to root perm[i]

    @property
    def det(self) -> int:
        return self.matrix.det


@dataclass(frozen=True)
class EnhancedAut:
    """Aut'|F| with structure metadata."""

    form: BinForm
    elements: tuple[AutElement, ...]
    structure: str       # "C_n" or "D_n"
    table1_class: str    # class of the rational-scale subgroup

    @property
    def order(self) -> int:
        return len(self.elements)

    def unimodular(self) -> list[AutElement]:
        return [e for e in self.elements if abs(e.det) == 1]

    def report(self) -> dict:
        return {
            "order": self.order,
            "structure": self.structure,
            "table1Class": self.table1_class,
            "elements": [{"matrix": list(e.matrix.entries()),
                          "det": e.det, "sign": e.sign}
                         for e in self.elements],
        }


def membership_scale(f: BinForm, m: IntMat2) -> tuple[int, int] | None:
    """(scale, sign) with F(M x) = sign * scale * F and scale**2 = |det|**d,
    or None when M is not an element.  Exact integer arithmetic only."""
    dt = m.det
    if dt == 0:
        return None
    d = f.degree
    pw = abs(dt) ** d
    scale = isqrt(pw)
    if scale * scale != pw:
        return None
    # determinant-law pre-filter: the lead coefficient of F_M is F(s, t),
    # which must equal +-scale * c_d; a single evaluation rejects junk
    # candidates before the full expansion
    if abs(f.value(m.s, m.t)) != scale * abs(f.lead_x):
        return None
    fm = form_action(f, m)
    if fm.coeffs == tuple(scale * c for c in f.coeffs):
        return scale, 1
    if fm.coeffs == tuple(-scale * c for c in f.coeffs):
        return scale, -1
    return None


def aut_prime(f: BinForm) -> EnhancedAut:
    """Compute Aut'|F| for an irreducible form of degree >= 3.

    Each element maps the roots r0, r1, r2 to some ordered triple of
    distinct roots, and is the Moebius map fixed by that correspondence.
    What is certified:

    * an excluded target triple holds no root-permuting real Moebius map,
      rational or not: a real map cannot send (r0, r1, r2) to it, by the
      certified sides of the real axis and conjugate pairs of its roots, or
      the map through it sends r3 or r4 (where the degree has them) to a
      disk disjoint from every root disk;
    * every returned element satisfies the exact identity, and the returned
      set is closed under products (with the +-M0 pairing built in);
    * each element's ``perm`` sends root i to the root whose disk alone
      meets the image of root i's disk under z -> (v z - u)/(-t z + s); an
      element maps roots to roots, and each disk holds exactly one root.

    Each surviving triple's map is reconstructed and its entry ratios are
    rationalized.  A survivor whose ratios never rationalize is dropped
    without being certified absent, so the returned group is certified to
    lie in Aut'|F| but not to be all of it.  The tables are the rungs of
    the root system's refinement ladder (``isolation._RootSystem``), walked
    until every element's permutation is certified on the table that found
    the group; past the last rung, far below the roots' separation, it
    abstains.
    """
    if f.degree < 3:
        raise AutError("degree must be >= 3")
    if f.lead_x == 0 or not is_irreducible(f.dehomogenize()):
        raise AutError(f"form of {describe(f)} is not irreducible over Q")
    system = root_system(f.dehomogenize())
    sides = [(e.disk[1] > 0) - (e.disk[1] < 0) for e in system.base]
    found: dict[tuple, tuple[int, int]] = {}
    for table in system.ladder():
        for m in _candidate_matrices(table, sides):
            if m.entries() not in found and (-m).entries() not in found:
                ok = membership_scale(f, m)
                if ok is not None:   # then so is -M0, as F(-x) = (-1)**d F
                    found[m.entries()] = ok
                    found[(-m).entries()] = ok[0], ok[1] * (-1) ** f.degree
        found = _close_under_products(f, found)
        perms = {}
        for k in found:   # -M0 acts on the roots as M0 does
            perms[k] = perms.get((-IntMat2(*k)).entries()) or tuple(
                _image_index(IntMat2(*k), z, table.alpha, table.bits) for z in table.alpha)
        if all(None not in p for p in perms.values()):
            break
    elements = tuple(sorted(
        (AutElement(IntMat2(*k), sc, sg, perms[k]) for k, (sc, sg) in found.items()),
        key=lambda e: (abs(e.det), e.matrix.entries())))
    if len(elements) > 24:
        raise AutError(f"group order {len(elements)} exceeds 24: invariant broken")
    structure = _structure_tag(elements)
    table1 = _table1_tag(elements)
    return EnhancedAut(f, elements, structure, table1)


def _candidate_matrices(table: ScaledRoots, sides: list[int]):
    """Primitive integer matrices reconstructed from the correspondences of
    (r0, r1, r2) to the ordered target triples that survive exclusion."""
    disks = table.alpha
    w_src = _three_point(*disks[:3], table.bits)
    for triple in _surviving_triples(table, sides):
        m = _mobius_from_triples(w_src, [disks[i] for i in triple], table.bits)
        if m is not None:
            yield m


def _surviving_triples(table: ScaledRoots, sides: list[int]):
    """The ordered triples (i, j, k) of distinct root indices that are not
    certified to hold no root-permuting real Moebius map.

    A real map keeps R u {oo}, sends the upper half-plane to the half-plane
    of its determinant's sign and commutes with conjugation, so only the
    triples whose ``sides`` (0 on the axis, else the sign of the base disk's
    imaginary part, which ``_certified_disks`` certifies by im > rad) are
    eps = +-1 times those of (r0, r1, r2), and whose conjugate pairs
    (``table.mirror``) sit where theirs do, are tested.  For l = 3 and 4
    (as far as the degree goes), the map sending (r0, r1, r2) to (ri, rj,
    rk) preserves lam_l = CR(r0, r1, r2; rl), so it sends rl to w_l = (ri
    (rj - rk) - rk lam_l (rj - ri)) / ((rj - rk) - lam_l (rj - ri)).  A
    triple is dropped when some w_l is disjoint from every root disk; it is
    kept when a division cannot be decided."""
    disks, bits, mirror = table.alpha, table.bits, table.mirror
    d = len(disks)
    pairs = [(a, b, mirror[a] == b) for a, b in ((0, 1), (0, 2), (1, 2))]
    triples = dict.fromkeys(
        t for eps in (1, -1)
        for t in product(*([r for r in range(d) if sides[r] == eps * s] for s in sides[:3]))
        if len(set(t)) == 3 and all((mirror[t[a]] == t[b]) == c for a, b, c in pairs))
    diff = {(j, k): disk_sub(disks[j], disks[k])
            for j in range(d) for k in range(d) if j != k}
    tests = []
    for l in range(3, min(d, 5)):
        try:
            lam = disk_div(disk_mul(diff[l, 0], diff[1, 2], bits),
                           disk_mul(diff[l, 2], diff[1, 0], bits), bits)
        except ZeroDivisionError:
            continue
        tests.append({(j, i): disk_mul(lam, diff[j, i], bits) for i, j, _ in triples})
    for i, j, k in triples:
        for scaled in tests:
            try:
                w = disk_div(disk_sub(disk_mul(disks[i], diff[j, k], bits),
                                      disk_mul(disks[k], scaled[j, i], bits)),
                             disk_sub(diff[j, k], scaled[j, i]), bits)
            except ZeroDivisionError:
                continue
            if all(disk_disjoint(w, z) for z in disks):
                break
        else:
            yield i, j, k


def _three_point(z1, z2, z3, bits: int):
    """(a, b, c, e) with (a, -b; c, -e) the matrix of the Moebius map sending
    (z1, z2, z3) -> (0, 1, oo)."""
    d23, d21 = disk_sub(z2, z3), disk_sub(z2, z1)
    return d23, disk_mul(z1, d23, bits), d21, disk_mul(z3, d21, bits)


def _mobius_from_triples(w_src, dst, bits: int) -> IntMat2 | None:
    """Integer matrix of the Moebius map sending the source triple, given by
    its ``_three_point`` entries ``w_src``, to the triple of disks dst (as
    the root action z -> (v z - u)/(-t z + s)), or None when the
    reconstruction does not rationalize at the current precision."""
    a, b, c, e = _three_point(*dst, bits)
    sa, sb, sc, se = w_src
    # with J = diag(1, -1) the three-point matrices are W = (a, b; c, e) J,
    # and adj(W_dst) W_src = -J adj(a, b; c, e) (sa, sb; sc, se) J
    n = (disk_sub(disk_mul(e, sa, bits), disk_mul(b, sc, bits)),
         disk_sub(disk_mul(b, se, bits), disk_mul(e, sb, bits)),
         disk_sub(disk_mul(c, sa, bits), disk_mul(a, sc, bits)),
         disk_sub(disk_mul(a, se, bits), disk_mul(c, sb, bits)))
    # n = (n1, n2; n3, n4) acts as z -> (n1 z + n2)/(n3 z + n4); the element's
    # root action is z -> (v z - u)/(-t z + s): match entries
    ratios = _rationalize_projective(n, bits)
    if ratios is None:
        return None
    den = lcm(*(q.denominator for q in ratios))
    va, vb, vc, ve = (int(q * den) for q in ratios)
    m = IntMat2(s=ve, u=-vb, t=-vc, v=va).primitive()
    return m if m.det != 0 else None


def _rationalize_projective(entries, bits: int) -> tuple[Fraction, ...] | None:
    """Divide the four disk entries by the one farthest from zero and read
    off rational values; None when any ratio cannot be a real rational."""
    pivot = max(entries, key=lambda e: isqrt(e[0] * e[0] + e[1] * e[1]) - e[2])
    out = []
    for e in entries:
        try:
            re, im, rad = disk_div(e, pivot, bits)
        except ZeroDivisionError:
            return None
        if abs(im) > rad:
            return None
        out.append(simplest_rational_in(Fraction(re - rad, 1 << bits),
                                        Fraction(re + rad, 1 << bits)))
    return tuple(out)


def _close_under_products(f: BinForm, found: dict) -> dict:
    """Product closure of the verified set, with +-I: the primitive product
    of two elements is an element, so each passes the exact identity."""
    work = dict(found)
    for m in (IntMat2.identity(), -IntMat2.identity()):
        work.setdefault(m.entries(), membership_scale(f, m))
    changed = True
    while changed:
        changed = False
        keys = list(work)
        for k1 in keys:
            for k2 in keys:
                prod = (IntMat2(*k1) @ IntMat2(*k2)).primitive()
                if prod.entries() not in work:
                    ok = membership_scale(f, prod)
                    if ok is None:
                        raise AssertionError("a product of elements failed the identity")
                    work[prod.entries()] = ok
                    changed = True
                    if len(work) > 24:
                        raise AutError("closure exceeded 24 elements")
    return work


def element_order(m: IntMat2) -> int:
    """Order of the scaled element M0/sqrt|det M0| in Aut'|F| (<= 12)."""
    acc = m
    for k in range(1, 26):
        if acc.primitive().entries() == (1, 0, 0, 1):
            return k
        acc = (acc @ m).primitive()
    raise AutError("element order exceeds 25: invariant broken")


def _structure_tag(elements) -> str:
    n = len(elements)
    orders = sorted(element_order(e.matrix) for e in elements)
    if max(orders) == n:
        return f"C_{n}"
    if n % 2 == 0 and max(orders) == n // 2:
        return f"D_{n // 2}"
    if n == 2:
        # order-2 group: C_2 when the nontrivial element is -I (det +1)
        nontriv = next(e for e in elements if e.matrix.entries() != (1, 0, 0, 1))
        return "C_2" if nontriv.det > 0 and nontriv.matrix.entries() == (-1, 0, 0, -1) else "D_1"
    raise AutError(f"unclassifiable structure: order {n}, element orders {orders}")


def _table1_tag(elements) -> str:
    """Class of the rational-scale subgroup (elements whose |det| is a
    perfect square) among the ten finite subgroups of GL2(Q)."""
    rational = [e for e in elements if isqrt(abs(e.det)) ** 2 == abs(e.det)]
    n = len(rational)
    orders = sorted(element_order(e.matrix) for e in rational)
    scaled_dets = [1 if e.det > 0 else -1 for e in rational]
    if n == 1:
        return "C1"
    if n == 2:
        has_minus_i = any(e.matrix.entries() == (-1, 0, 0, -1) for e in rational)
        return "C2" if has_minus_i else "D1"
    cyclic = max(orders) == n
    if cyclic:
        if n not in (1, 2, 3, 4, 6):
            raise AutError(f"cyclic rational subgroup of order {n} impossible")
        return f"C{n}"
    if n % 2 == 0 and max(orders) == n // 2 and n // 2 in (1, 2, 3, 4, 6):
        return f"D{n // 2}"
    raise AutError(f"unclassifiable rational subgroup: order {n}, orders {orders}")


# -- orbits of roots ------------------------------------------------------------

@dataclass(frozen=True)
class OrbitPartition:
    """Partition of root indices under the integer-Moebius orbit relation."""

    blocks: tuple[tuple[int, ...], ...]
    gamma_per_root: tuple[int, ...]

    @property
    def gamma(self) -> int:
        return max(self.gamma_per_root)


def root_orbit_partition(aut: EnhancedAut) -> OrbitPartition:
    """Partition the roots of F(x, 1) into orbits under the root actions of
    Aut'|F|: the connected components of i -> perm[i] over the elements'
    permutations, which ``aut_prime`` certified.  No enclosure is read."""
    perms = [el.perm for el in aut.elements]
    return _components(len(perms[0]), {(i, j) for p in perms for i, j in enumerate(p)})


def _image_index(m: IntMat2, z, disks: list, bits: int) -> int | None:
    """Index of the one root disk that the image of disk z under the root
    action z -> (v z - u)/(-t z + s) meets, or None when it is not one."""
    (re, im, rad), one = z, 1 << bits
    try:
        img = disk_div((m.v * re - m.u * one, m.v * im, abs(m.v) * rad),
                       (m.s * one - m.t * re, -m.t * im, abs(m.t) * rad), bits)
    except ZeroDivisionError:
        return None
    hits = [j for j, w in enumerate(disks) if not disk_disjoint(img, w)]
    return hits[0] if len(hits) == 1 else None


def _components(n: int, edges: set[tuple[int, int]]) -> OrbitPartition:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    blist = tuple(tuple(sorted(b)) for b in
                  sorted(blocks.values(), key=lambda b: b[0]))
    gamma = [0] * n
    for b in blist:
        for i in b:
            gamma[i] = len(b)
    return OrbitPartition(blist, tuple(gamma))


# -- the D12 family ---------------------------------------------------------------

def d12_family(a: int, b: int) -> BinForm:
    """Degree-12 form invariant under a dihedral group of order 24 generated
    by the swap and a scaled determinant-3 matrix; requires a = 3b (mod 10)
    and gcd(a, b) = 1 so the three fractional coefficients are integers."""
    if gcd(abs(a), abs(b)) != 1:
        raise ValueError("a, b must be coprime")
    if (a - 3 * b) % 10 != 0:
        raise ValueError(f"need a = 3b (mod 10), got a = {a}, b = {b}")
    c2, r2 = divmod(231 * a + 2 * b, 5)
    c4, r4 = divmod(495 * a + 5 * b, 2)
    c6, r6 = divmod(1122 * a + 29 * b, 5)
    if r2 or r4 or r6:
        raise AssertionError("congruence guaranteed integrality; got remainder")
    # coefficients of x^(12-i) y^i, i = 0..12
    coeffs = [0] * 13
    coeffs[0] = coeffs[12] = a
    coeffs[1] = coeffs[11] = -6 * a
    coeffs[2] = coeffs[10] = c2
    coeffs[3] = coeffs[9] = -(176 * a + 2 * b)
    coeffs[4] = coeffs[8] = c4
    coeffs[5] = coeffs[7] = 2 * b
    coeffs[6] = -c6
    return BinForm(coeffs)


# the twelve solution maps fixing F, and the twelve det +-3 maps scaling
# values by 729 = 3**6, as (s, u, t, v) with (x, y) -> (s x + u y, t x + v y)
D12_UNIMODULAR = tuple(IntMat2(*m) for m in [
    (1, 0, 0, 1),    # (x, y)
    (0, 1, -1, 1),   # (y, -x + y)
    (-1, 1, -1, 0),  # (-x + y, -x)
    (-1, 0, 0, -1),  # (-x, -y)
    (0, -1, 1, -1),  # (-y, x - y)
    (1, -1, 1, 0),   # (x - y, x)
    (0, 1, 1, 0),    # (y, x)
    (-1, 1, 0, 1),   # (-x + y, y)
    (-1, 0, -1, 1),  # (-x, -x + y)
    (0, -1, -1, 0),  # (-y, -x)
    (1, -1, 0, -1),  # (x - y, -y)
    (1, 0, 1, -1),   # (x, x - y)
])

D12_DET3 = tuple(IntMat2(*m) for m in [
    (1, 1, -1, 2),    # (x + y, -x + 2y)
    (-1, 2, -2, 1),   # (-x + 2y, -2x + y)
    (-2, 1, -1, -1),  # (-2x + y, -x - y)
    (-1, -1, 1, -2),  # (-x - y, x - 2y)
    (1, -2, 2, -1),   # (x - 2y, 2x - y)
    (2, -1, 1, 1),    # (2x - y, x + y)
    (-1, 2, 1, 1),    # (-x + 2y, x + y)
    (-2, 1, -1, 2),   # (-2x + y, -x + 2y)
    (-1, -1, -2, 1),  # (-x - y, -2x + y)
    (1, -2, -1, -1),  # (x - 2y, -x - y)
    (2, -1, 1, -2),   # (2x - y, x - 2y)
    (1, 1, 2, -1),    # (x + y, 2x - y)
])


def verify_729(f: BinForm) -> dict:
    """Exact verification of the 24 identities of the dihedral family:
    F(M x) = F for the twelve unimodular maps and F(M0 x) = 729 F for the
    twelve determinant +-3 maps.  Any failure is a build-stopping defect."""
    report = {"unimodular": [], "det3": [], "ok": True}
    for m in D12_UNIMODULAR:
        holds = form_action(f, m) == f
        report["unimodular"].append({"matrix": m.entries(), "holds": holds})
        report["ok"] &= holds
    for m in D12_DET3:
        fm = form_action(f, m)
        holds = fm.coeffs == tuple(729 * c for c in f.coeffs)
        report["det3"].append({"matrix": m.entries(), "det": m.det,
                               "holds": holds})
        report["ok"] &= holds
    if not report["ok"]:
        raise AutError("dihedral family identity failed: " + str(report))
    return report
