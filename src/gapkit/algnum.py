"""Algebraic numbers with certified Archimedean embeddings.

An :class:`AlgNum` is a pair (minimal polynomial, root index): the minimal
polynomial is irreducible over Q, primitive, with positive leading
coefficient, and the index selects one certified root enclosure (roots
ordered by real part, then imaginary part).

Irreducibility is certified on the package's own exact arithmetic
(``is_irreducible``): factor degrees modulo small primes, then, for the
factor sizes those leave open, the elementary symmetric functions of root
sets on integer disks, which must hold integers, and exact division.  No
verdict comes from floating point; when the disks cannot decide within
their refinement budget, the test abstains (``PrecisionError``, exit 3).

The module also houses the power-basis machinery for beta in Q(alpha):
exact reduction tables, the coefficient-size constants, the denominator
scalar that replaces the ring index, and the explicit Liouville constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm, prod

import mpmath

from . import isolation
from .intpoly import (IntPoly, describe, discriminant_poly, factor_degree_sieve, is_squarefree,
                      normalize_minimal_poly, prem)
from .isolation import (TABLE_WIDTH, PrecisionError, RootEnclosure, _abs_bounds, _rescaled,
                        disk_elementary, disk_holds_integer, disk_sub, house,
                        isolate_roots, mahler_measure, root_enclosure, root_system)
from .rounding import RatInterval, tidy_down, tidy_up


class NotInFieldError(ValueError):
    """beta admits no power-basis representation over the given alpha."""


# the primes whose factor degrees ``is_irreducible`` intersects, and the most
# conjugation-closed root sets it tests before it abstains
_SIEVE_PRIMES = 10
_SUBSET_BUDGET = 4096


def is_irreducible(p: IntPoly) -> bool:
    """Whether p is irreducible over Q.  Its content is ignored; below
    degree 1, and when p has a repeated factor, the answer is False.

    Let f be the primitive part of p, of degree d and leading coefficient
    a.  A factor of f over Z has a degree that, modulo each prime dividing
    neither a nor disc f, is a sum of factor degrees there
    (``factor_degree_sieve``, on ``_SIEVE_PRIMES`` primes): when no degree
    1 <= k < d survives, f is irreducible.  Otherwise each
    conjugation-closed set S of roots of a surviving size k <= d/2 is
    tested on the integer disks of ``root_system``.  If S is the root set
    of a factor, every a e_j(S) is an integer (Gauss's lemma), so a disk
    of some a e_j(S) that holds no integer excludes S.  A set that no disk
    excludes gives a candidate factor, a prod (x - r) over S with each
    coefficient the integer nearest its disk, and exact division decides
    it: if it divides f, f is reducible.  Otherwise the set is tried again
    on disks refined 10**20 times narrower.  The certificate is the
    excluding disk of every set, or the exact quotient; no verdict comes
    from floating point.  The test abstains with ``PrecisionError`` (exit
    3) when a set is still undecided after five widths, or when more than
    ``_SUBSET_BUDGET`` sets would have to be tried.  The root system keeps
    the root-set verdict, so testing a polynomial again only reads it,
    before the squarefree test and the sieve.
    """
    if p.degree < 1:
        return False
    f = normalize_minimal_poly(p)
    known = isolation._SYSTEMS.get(f.coeffs)
    if known is not None and known.irreducible is not None:
        return known.irreducible
    if not is_squarefree(f):
        return False
    sizes = {k for k in factor_degree_sieve(f, _SIEVE_PRIMES) if 2 * k <= f.degree}
    if not sizes:
        return True
    system = root_system(f)
    if system.irreducible is None:
        system.irreducible = _root_set_test(system, sizes)
    return system.irreducible


def _root_set_test(system, sizes: set[int]) -> bool:
    """``is_irreducible``'s verdict on the root sets of the open sizes."""
    f, a = system.poly, system.poly.lead
    width = TABLE_WIDTH
    todo = _closed_root_sets(system.scaled(width).mirror, sizes)
    for _ in range(5):
        table = system.scaled(width)
        disks, bits = table.alpha, table.bits
        undecided = []
        for roots in todo:
            e = [(a * re, a * im, a * rad)
                 for re, im, rad in disk_elementary([disks[i] for i in roots], bits)]
            if not all(disk_holds_integer(ej, bits) for ej in e):
                continue
            g = IntPoly(reversed([a] + [(-1) ** j * ((ej[0] + (1 << (bits - 1))) >> bits)
                                        for j, ej in enumerate(e, 1)]))
            if prem(f, g).is_zero:
                return False
            undecided.append(roots)
        if not undecided:
            return True
        todo, width = undecided, width / 10 ** 20
    raise PrecisionError(f"irreducibility of the polynomial of {describe(f)} undecided at budget")


def _closed_root_sets(mirror: list[int | None], sizes: set[int]) -> list[list[int]]:
    """The root index sets closed under conjugation (``mirror``) whose
    sizes are in ``sizes``, smallest unions first; of a set of size d/2 and
    its complement, only the one holding root 0."""
    d = len(mirror)
    units = [(i,) if j is None else (i, j) for i, j in enumerate(mirror)
             if j is None or i < j]
    out = []
    for r in range(1, max(sizes) + 1):
        for pick in combinations(units, r):
            roots = [i for unit in pick for i in unit]
            if len(roots) in sizes and (2 * len(roots) < d or 0 in roots):
                out.append(roots)
                if len(out) > _SUBSET_BUDGET:
                    raise PrecisionError(f"more than {_SUBSET_BUDGET} root sets to test")
    return out


@dataclass(frozen=True)
class AlgNum:
    """Algebraic number: irreducible minimal polynomial + root selector."""

    minpoly: IntPoly
    index: int

    def __post_init__(self):
        f = self.minpoly
        if f.lead < 0 or f.content() > 1:
            raise ValueError("minimal polynomial must be primitive with positive lead")
        if not (0 <= self.index <= f.degree - 1):
            raise ValueError("root index out of range")

    @staticmethod
    def make(p: IntPoly, index: int = 0, check_irreducible: bool = True) -> "AlgNum":
        p = normalize_minimal_poly(p)
        if check_irreducible and not is_irreducible(p):
            raise ValueError(f"polynomial of {describe(p)} is not irreducible over Q")
        return AlgNum(p, index)

    @staticmethod
    def near(p: IntPoly, approx) -> "AlgNum":
        """Select the root whose enclosure is nearest to a rational guess."""
        p = normalize_minimal_poly(p)
        if not is_irreducible(p):
            raise ValueError(f"polynomial of {describe(p)} is not irreducible over Q")
        approx = Fraction(approx)
        encl = isolate_roots(p, Fraction(1, 10 ** 9))
        best = min(encl, key=lambda e: e.distance_interval(approx).hi)
        return AlgNum(p, best.index)

    # -- basic data -----------------------------------------------------------
    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def lead(self) -> int:
        """c_alpha, the (positive) leading coefficient of the minimal polynomial."""
        return self.minpoly.lead

    def height(self) -> int:
        return self.minpoly.height()

    def enclosure(self, width: Fraction = Fraction(1, 10 ** 12)) -> RootEnclosure:
        return root_enclosure(self.minpoly, self.index, width)

    @property
    def is_real(self) -> bool:
        return self.enclosure().is_real

    def conjugates(self, width: Fraction = Fraction(1, 10 ** 12)) -> list[RootEnclosure]:
        return isolate_roots(self.minpoly, width)

    def abs_interval(self) -> RatInterval:
        return self.enclosure().abs_interval()

    def mahler_interval(self) -> RatInterval:
        return mahler_measure(self.minpoly, Fraction(1, 10 ** 20))

    def __str__(self):
        return f"root #{self.index} of {self.minpoly}"


# -- power tables ------------------------------------------------------------

def power_table(alpha: AlgNum, r: int) -> tuple[Fraction, ...]:
    """Coefficients (a_{r,0}, ..., a_{r,d-1}) of the exact reduction of x**r
    modulo the minimal polynomial, so alpha**r = sum a_{r,i} alpha**i."""
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    return _power_tables(alpha.minpoly, r)[r]


def _power_tables(f: IntPoly, r_max: int) -> list[tuple[Fraction, ...]]:
    d = f.degree
    rows: list[tuple[Fraction, ...]] = []
    # x^d = -(c_{d-1} x^{d-1} + ... + c_0)/c_d
    top = tuple(Fraction(-f.coeff(i), f.lead) for i in range(d))
    cur = [Fraction(0)] * d
    for r in range(r_max + 1):
        if r < d:
            row = [Fraction(0)] * d
            row[r] = Fraction(1)
        else:
            prev = rows[-1]
            row = [Fraction(0)] * d
            for i in range(d - 1):
                row[i + 1] += prev[i]
            if prev[d - 1]:
                for i in range(d):
                    row[i] += prev[d - 1] * top[i]
        rows.append(tuple(row))
    return rows


def c8(alpha: AlgNum) -> Fraction:
    """1 + max_i |a_{d,i}| where alpha**d = sum a_{d,i} alpha**i."""
    row = power_table(alpha, alpha.degree)
    return 1 + max(abs(c) for c in row)


# -- power-basis representations ---------------------------------------------

@dataclass(frozen=True)
class PowerBasisRep:
    """beta = sum b_i alpha**i with exact rational coefficients."""

    alpha: AlgNum
    beta: AlgNum
    coeffs: tuple[Fraction, ...]

    @property
    def denominator(self) -> int:
        out = 1
        for c in self.coeffs:
            out = lcm(out, c.denominator)
        return out

    def numerator(self) -> IntPoly:
        """The integer polynomial D * sum b_i x**i, D = ``denominator``."""
        den = self.denominator
        return IntPoly(c.numerator * (den // c.denominator) for c in self.coeffs)


def denominator_scalar(rep: PowerBasisRep) -> int:
    """Least positive D with D*b_i integral for all i; divides the classical
    index scalar theta_alpha * c_beta."""
    return rep.denominator


def power_rep(alpha: AlgNum, beta: AlgNum) -> PowerBasisRep:
    """Exact power-basis representation of beta over alpha.

    The candidate is found by integer-relation search (PSLQ) on the selected
    embeddings and then verified exactly: the beta minimal polynomial must
    vanish on the representation modulo the alpha minimal polynomial, and the
    certified image of the representation must land in beta's enclosure.
    Raises NotInFieldError when no representation exists (certain when the
    degree divisibility test fails; otherwise reported after the search
    budget is exhausted).
    """
    d = alpha.degree
    if d % beta.degree != 0:
        raise NotInFieldError(
            f"degree {beta.degree} does not divide degree {d}")
    if not alpha.is_real or not beta.is_real:
        raise NotInFieldError(
            "numeric relation search requires real selected embeddings")
    if beta == alpha:
        if d == 1:
            root = Fraction(-alpha.minpoly.coeff(0), alpha.lead)
            return PowerBasisRep(alpha, beta, (root,))
        coeffs = [Fraction(0)] * d
        coeffs[1] = Fraction(1)
        return PowerBasisRep(alpha, beta, tuple(coeffs))

    bits = 240
    while bits <= 2400:
        rel = _pslq_candidate(alpha, beta, bits)
        if rel is not None:
            rep = _verify_rep(alpha, beta, rel)
            if rep is not None:
                return rep
        bits *= 2
    raise NotInFieldError(
        f"no verified representation of {beta} over {alpha} "
        "within 2400 bits")


def _pslq_candidate(alpha: AlgNum, beta: AlgNum, bits: int):
    width = Fraction(1, 2 ** bits)
    a_enc = alpha.enclosure(width)
    b_enc = beta.enclosure(width)
    old = mpmath.mp.prec
    try:
        mpmath.mp.prec = bits + 64
        a = mpmath.mpf(a_enc.interval.mid().numerator) / a_enc.interval.mid().denominator
        b = mpmath.mpf(b_enc.interval.mid().numerator) / b_enc.interval.mid().denominator
        vec = [a ** i for i in range(alpha.degree)] + [b]
        rel = mpmath.pslq(vec, maxcoeff=10 ** (bits // 8), maxsteps=4000)
    finally:
        mpmath.mp.prec = old
    if rel is None or rel[-1] == 0:
        return None
    return rel


def _verify_rep(alpha: AlgNum, beta: AlgNum, rel) -> PowerBasisRep | None:
    d = alpha.degree
    denom = -rel[-1]
    coeffs = tuple(Fraction(rel[i], denom) for i in range(d))
    rep = PowerBasisRep(alpha, beta, coeffs)
    if not _verify_algebraic(alpha.minpoly, beta.minpoly, rep.numerator(), rep.denominator):
        return None
    if not _verify_embedding(alpha, beta, rep):
        return None
    return rep


def _verify_algebraic(f: IntPoly, g: IntPoly, num: IntPoly, den: int) -> bool:
    """g(num / den) == 0 in Q[x]/(f), checked exactly over Z: Horner's rule
    on den**n g(num / den), n = deg g, with a ``prem`` after each product.
    A ``prem`` multiplies the running value by a power of lc(f), so every
    later term is multiplied by ``scale``, the product of those powers: the
    result is scale times den**n g(num / den) mod f."""
    acc, scale, power = IntPoly.zero(), 1, 1
    for c in reversed(g.coeffs):
        acc = acc * num
        scale *= f.lead ** max(0, acc.degree - f.degree + 1)
        acc = prem(acc, f) + IntPoly((scale * c * power,))
        power *= den
    return acc.is_zero


def _verify_embedding(alpha: AlgNum, beta: AlgNum, rep: PowerBasisRep) -> bool:
    """Certify that the representation evaluates to beta's selected root,
    not another conjugate: the certified image must meet beta's enclosure
    and avoid every other root enclosure.  Both selected roots are real
    (``power_rep`` has checked), so the image is a real interval."""
    width = Fraction(1, 10 ** 12)
    num, den = rep.numerator(), rep.denominator
    for _ in range(6):
        img = num.eval_at(alpha.enclosure(width).interval) * Fraction(1, den)
        biv = beta.enclosure(width).interval
        if img.certainly_lt(biv) or img.certainly_gt(biv):
            return False
        others = [e for e in beta.conjugates(width) if e.index != beta.index]
        if all(_interval_avoids(img, o) for o in others):
            return True
        width /= 10 ** 6
    raise PrecisionError("embedding verification undecided at budget")


def _interval_avoids(img: RatInterval, other: RootEnclosure) -> bool:
    if other.is_real:
        return img.certainly_lt(other.interval) or img.certainly_gt(other.interval)
    return True  # a real value never equals a certified nonreal root


def c9(alpha: AlgNum, beta: AlgNum) -> Fraction:
    """Rounded-up rational upper bound on max_i |b_i| for any power-basis
    representation of beta over alpha:

        d * house(beta) * max_j prod_{i != j} (1 + |alpha_i|) / |alpha_i - alpha_j|

    each product one integer quotient read off the root disks (``_abs_bounds``
    at the finer scale of disks i and j); a distance bound of 0 refines them."""
    d = alpha.degree
    width = Fraction(1, 10 ** 12)
    for _ in range(8):
        encl = alpha.conjugates(width)
        up = [_abs_bounds(e.disk)[1] + (1 << e.bits) for e in encl]
        best = Fraction(0)
        for j, ej in enumerate(encl):
            num = den = 1
            for i, ei in enumerate(encl):
                if i != j:
                    bits = max(ei.bits, ej.bits)
                    num *= up[i] << (bits - ei.bits)
                    den *= _abs_bounds(disk_sub(_rescaled(ei.disk, ei.bits, bits),
                                                _rescaled(ej.disk, ej.bits, bits)))[0]
            if not den:
                break
            best = max(best, Fraction(num, den))
        else:
            return tidy_up(d * house(beta.minpoly, width).hi * best)
        width /= 10 ** 6
    raise PrecisionError("conjugate separation undecided at budget")


def theta_upper_bound(alpha: AlgNum) -> int:
    """Integer upper bound on the index of Z[c_alpha * alpha] in the maximal
    order: floor of sqrt |disc(minpoly of c_alpha * alpha)|."""
    f = alpha.minpoly
    if f.degree == 1:
        return 1
    g = f.scale_root(f.lead)  # monic minimal polynomial of c_alpha * alpha
    disc = discriminant_poly(g)
    return max(1, isqrt(abs(disc)))


def liouville_c6(alpha: AlgNum) -> Fraction:
    """Positive rational C6 with |alpha - x/y| >= C6 / H(x, y)**d for every
    rational x/y != alpha (y != 0):

        C6 = (c_alpha * prod_{i != selected} (1 + |alpha_i|))**(-1), rounded down,

    one integer product of ``_abs_bounds`` read off the root disks.
    """
    others = [e for e in alpha.conjugates(Fraction(1, 10 ** 12)) if e.index != alpha.index]
    den = alpha.lead * prod(_abs_bounds(e.disk)[1] + (1 << e.bits) for e in others)
    return tidy_down(Fraction(1 << sum(e.bits for e in others), den))
