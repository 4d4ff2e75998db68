"""The enhanced automorphism group of an integer binary form.

Elements are stored as primitive integer matrices M0; the actual group
element is M0 / sqrt(|det M0|), so the scaling never has to be represented:
products are primitivized integer products, and membership is the exact
polynomial identity F(M0 x) = eps * |det M0|**(d/2) * F with eps = +-1.

Candidates come from the root correspondence: every element permutes the
roots of F(x, 1) through z -> (v z - u)/(-t z + s), and a Moebius map is
pinned by three roots.  Reconstruction runs in certified disk arithmetic,
entry ratios are rationalized by the simplest rational in the enclosure, and
every candidate is accepted or rejected by the exact identity alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .binforms import BinForm, IntMat2, discriminant, form_action
from .isolation import (ComplexDisk, CRat, IsolationError, PrecisionError,
                        isolate_roots)
from .rounding import simplest_rational_in


class AutError(ValueError):
    pass


@dataclass(frozen=True)
class AutElement:
    """One element of Aut'|F|: primitive matrix, |det|**(d/2) scale, sign."""

    matrix: IntMat2
    scale: int   # integer with scale**2 == |det|**d
    sign: int    # F(M0 x) = sign * scale * F

    @property
    def det(self) -> int:
        return self.matrix.det

    def root_action_disk(self, z: ComplexDisk) -> ComplexDisk:
        """The induced root permutation z -> (v z - u) / (-t z + s)."""
        m = self.matrix
        num = ComplexDisk.point(CRat.of(m.v)) * z - ComplexDisk.point(CRat.of(m.u))
        den = ComplexDisk.point(CRat.of(-m.t)) * z + ComplexDisk.point(CRat.of(m.s))
        return num / den


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


def _validate_form(f: BinForm):
    from .algnum import is_irreducible

    if f.degree < 3:
        raise AutError("degree must be >= 3")
    if f.lead_x == 0 or not is_irreducible(f.dehomogenize()):
        raise AutError(f"form is not irreducible over Q: {f}")
    if discriminant(f) == 0:
        raise AutError("zero discriminant")


def aut_prime(f: BinForm, precision: Fraction = Fraction(1, 10 ** 20),
              max_attempts: int = 5) -> EnhancedAut:
    """Compute Aut'|F| for an irreducible form of degree >= 3.

    Root-triple reconstruction is exhaustive over ordered target triples, so
    every element appears among the candidates once the enclosures are tight
    enough for its entry ratios to rationalize; exact verification makes
    acceptance sound at any precision.  The verified set is closed under
    products (with the +-M0 pairing built in) before being returned.
    """
    _validate_form(f)
    poly = f.dehomogenize()
    width = Fraction(precision)
    found: dict[tuple, tuple[int, int]] = {}
    for attempt in range(max_attempts):
        encl = isolate_roots(poly, width)
        disks = [_coarsen(e.as_disk(), width) for e in encl]
        for cand in _candidate_matrices(disks):
            m = cand.primitive()
            if m.entries() in found or (-m).entries() in found:
                continue
            ok = membership_scale(f, m)
            if ok is not None:
                found[m.entries()] = ok
                neg = -m
                okn = membership_scale(f, neg)
                if okn is not None:
                    found[neg.entries()] = okn
        closed = _close_under_products(f, found)
        if closed is not None:
            found = closed
            break
        width /= 10 ** 10
    else:
        raise PrecisionError("automorphism search did not close within budget")
    elements = tuple(sorted(
        (AutElement(IntMat2(*k), sc, sg) for k, (sc, sg) in found.items()),
        key=lambda e: (abs(e.det), e.matrix.entries())))
    if len(elements) > 24:
        raise AutError(f"group order {len(elements)} exceeds 24: invariant broken")
    structure = _structure_tag(elements)
    table1 = _table1_tag(elements)
    return EnhancedAut(f, elements, structure, table1)


def _coarsen(d: ComplexDisk, width: Fraction) -> ComplexDisk:
    """Slightly larger disk whose center is a short dyadic, so the fraction
    denominators stay bounded through the reconstruction arithmetic."""
    bits = max(16, (width.denominator // max(1, width.numerator)).bit_length() + 8)
    return _coarsen_bits(d, bits)


def _coarsen_bits(d: ComplexDisk, bits: int) -> ComplexDisk:
    import math

    unit = Fraction(1, 1 << bits)
    re = Fraction(round(d.center.re * (1 << bits)), 1 << bits)
    im = Fraction(round(d.center.im * (1 << bits)), 1 << bits)
    rad = Fraction(math.ceil((d.radius + 2 * unit) * (1 << bits)), 1 << bits)
    return ComplexDisk(CRat(re, im), rad)


def _candidate_matrices(disks: list[ComplexDisk]):
    """Primitive integer matrices reconstructed from every ordered
    correspondence of three roots to three distinct roots."""
    d = len(disks)
    if d < 3:
        return
    w_base = _three_point_matrix(disks[0], disks[1], disks[2])
    for i in range(d):
        for j in range(d):
            if j == i:
                continue
            for k in range(d):
                if k == i or k == j:
                    continue
                m = _mobius_from_triples(w_base, (disks[i], disks[j], disks[k]))
                if m is not None:
                    yield m


def _mobius_from_triples(w_src, dst) -> IntMat2 | None:
    """Integer matrix of the Moebius map sending the source triple, given by
    its ``_three_point_matrix`` ``w_src``, to the triple dst (as the root
    action z -> (v z - u)/(-t z + s)), or None when the reconstruction does
    not rationalize at the current precision."""
    try:
        w_dst = _three_point_matrix(*dst)
        # N = adj(W_dst) * W_src sends src to dst (projectively)
        n = _mat_mul(_mat_adj(w_dst), w_src)
        n = tuple(_coarsen_bits(x, 192) for x in n)
        # n = (a b; c e) acts as z -> (a z + b)/(c z + e); the element's root
        # action is z -> (v z - u)/(-t z + s): match entries
        a, b, c, e = n
        ratios = _rationalize_projective((a, b, c, e))
        if ratios is None:
            return None
        va, vb, vc, ve = ratios
        den = 1
        for q in (va, vb, vc, ve):
            den = den * q.denominator // gcd(den, q.denominator)
        va, vb, vc, ve = (int(q * den) for q in (va, vb, vc, ve))
        # v = a, -u = b, -t = c, s = e
        m = IntMat2(s=ve, u=-vb, t=-vc, v=va).primitive()
        if m.det == 0:
            return None
        return m
    except (ZeroDivisionError, IsolationError, ValueError):
        return None


def _three_point_matrix(z1: ComplexDisk, z2: ComplexDisk, z3: ComplexDisk):
    """Matrix of the Moebius map sending (z1, z2, z3) -> (0, 1, oo)."""
    d23 = z2 - z3
    d21 = z2 - z1
    return (d23, ComplexDisk.point(CRat.of(0)) - z1 * d23,
            d21, ComplexDisk.point(CRat.of(0)) - z3 * d21)


def _mat_adj(m):
    a, b, c, d = m
    zero = ComplexDisk.point(CRat.of(0))
    return (d, zero - b, zero - c, a)


def _mat_mul(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _rationalize_projective(entries) -> tuple[Fraction, ...] | None:
    """Divide the four disk entries by the one farthest from zero and read
    off rational values; None when any ratio cannot be a real rational."""
    pivot = max(entries, key=lambda e: e.abs_interval().lo)
    if pivot.abs_interval().lo <= 0:
        return None
    out = []
    for e in entries:
        ratio = _coarsen_bits(e / pivot, 192)
        im = ratio.im_interval()
        if not (im.lo <= 0 <= im.hi):
            return None
        re = ratio.re_interval()
        out.append(simplest_rational_in(re.lo, re.hi))
    return tuple(out)


def _close_under_products(f: BinForm, found: dict) -> dict | None:
    """Product closure of the verified set; None if it will not stabilize
    below the order bound (signals missing precision)."""
    work = dict(found)
    if (1, 0, 0, 1) not in work:
        ok = membership_scale(f, IntMat2.identity())
        work[(1, 0, 0, 1)] = ok
    if (-1, 0, 0, -1) not in work:
        ok = membership_scale(f, -IntMat2.identity())
        if ok is not None:
            work[(-1, 0, 0, -1)] = ok
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
                        return None  # closure failure: inconsistent set
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


def aut_rational_class(aut: EnhancedAut) -> str:
    return aut.table1_class


# -- orbits of roots ------------------------------------------------------------

@dataclass(frozen=True)
class OrbitPartition:
    """Partition of root indices under the integer-Moebius orbit relation."""

    blocks: tuple[tuple[int, ...], ...]
    gamma_per_root: tuple[int, ...]

    @property
    def gamma(self) -> int:
        return max(self.gamma_per_root)


def root_orbit_partition(aut: EnhancedAut,
                         precision: Fraction = Fraction(1, 10 ** 15),
                         budget: int = 5) -> OrbitPartition:
    """Partition the roots of one irreducible polynomial into orbits under
    the root actions of Aut'|F|: image indices are certified by enclosure
    separation (the image of a root enclosure must meet exactly one root
    enclosure)."""
    poly = aut.form.dehomogenize()
    width = Fraction(precision)
    for _ in range(budget):
        encl = isolate_roots(poly, width)
        disks = [e.as_disk() for e in encl]
        adjacency: set[tuple[int, int]] = set()
        ok = True
        for el in aut.elements:
            for i, z in enumerate(disks):
                try:
                    # outward to a 192-bit dyadic disk: it still holds the
                    # exact image, and its arithmetic stays short
                    img = _coarsen_bits(el.root_action_disk(z), 192)
                except ZeroDivisionError:
                    ok = False
                    break
                hits = [j for j, w in enumerate(disks)
                        if not img.disjoint_from(w)]
                if len(hits) != 1:
                    ok = False
                    break
                adjacency.add((i, hits[0]))
            if not ok:
                break
        if ok:
            return _components(len(disks), adjacency)
        width /= 10 ** 8
    raise PrecisionError("orbit image certification failed at budget")


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
