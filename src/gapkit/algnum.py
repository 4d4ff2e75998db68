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

from fractions import Fraction
from itertools import combinations, islice
from math import isqrt, lcm, prod
from operator import mul

from . import isolation
from .intpoly import (IntPoly, describe, discriminant_poly, factor_degree_sieve,
                      factor_degrees_by_prime, factor_degrees_mod, is_squarefree,
                      normalize_minimal_poly, prem)
from .isolation import (TABLE_WIDTH, PrecisionError, RootEnclosure, _abs_bounds, _disk_abs, _span,
                        disk_distance, disk_elementary, disk_holds_integer, disk_sub,
                        first_rung, house, root_system)
from .linalg import lll_reduce
from .record import Record
from .rounding import AbstainError, RatInterval, tidy_down, tidy_up


class NotInFieldError(ValueError):
    """beta admits no power-basis representation over the given alpha."""


# the primes whose factor degrees ``is_irreducible`` intersects, and the most
# conjugation-closed root sets it tests before it abstains
_SIEVE_PRIMES = 10
_SUBSET_BUDGET = 4096
# the primes that ``power_rep`` and ``thue.galois_status`` scan for a certificate
_FROBENIUS_PRIMES = 64


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
    on the next rung of the root system's refinement ladder.  The
    certificate is the excluding disk of every set, or the exact quotient;
    no verdict comes from floating point.  The test abstains with
    ``PrecisionError`` (exit 3) when a set is still undecided past the
    ladder's last rung, or when more than ``_SUBSET_BUDGET`` sets would
    have to be tried.  The root system keeps
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
    todo = _closed_root_sets(system.scaled(TABLE_WIDTH).mirror, sizes)
    for table in system.ladder():
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
        todo = undecided


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


class AlgNum(Record):
    """Algebraic number: irreducible minimal polynomial + root selector."""

    __slots__ = ("minpoly", "index")

    def __init__(self, minpoly: IntPoly, index: int):
        if minpoly.lead < 0 or minpoly.content() > 1:
            raise ValueError("minimal polynomial must be primitive with positive lead")
        if not (0 <= index <= minpoly.degree - 1):
            raise ValueError("root index out of range")
        self._init(minpoly, index)

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
        q, table = Fraction(approx), first_rung(p)
        return AlgNum(p, min(range(p.degree), key=lambda i: disk_distance(
            table.alpha[i], q.numerator, q.denominator, 1 << table.bits)[1]))

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

    def enclosure(self, width: Fraction = TABLE_WIDTH) -> RootEnclosure:
        return root_system(self.minpoly).refined(self.index, width)

    @property
    def is_real(self) -> bool:
        return root_system(self.minpoly).base[self.index].is_real

    def abs_interval(self) -> RatInterval:
        table = first_rung(self.minpoly)
        return _disk_abs(table.alpha[self.index], table.bits)

    def mahler_interval(self) -> RatInterval:
        return first_rung(self.minpoly).mahler(self.lead)

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

class PowerBasisRep(Record):
    """beta = sum b_i alpha**i with exact rational coefficients."""

    __slots__ = ("alpha", "beta", "coeffs")

    def __init__(self, alpha: AlgNum, beta: AlgNum, coeffs: tuple[Fraction, ...]):
        self._init(alpha, beta, coeffs)

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

    The candidate is found by integer-relation search (LLL, at 240, 480,
    960 and 1920 bits) on the selected embeddings and then verified exactly:
    the beta minimal polynomial must vanish on the representation modulo the
    alpha minimal polynomial, and the certified image of the representation
    must land in beta's enclosure.
    NotInFieldError (exit 2) is certain: beta's degree does not divide
    alpha's, a selected embedding is not real (the search's hypothesis), or,
    once the search budget is spent, f = alpha's minimal polynomial has a
    root mod p and g = beta's has none for one of the first
    ``_FROBENIUS_PRIMES`` primes p dividing neither lc nor disc of either:
    a degree-1 prime of Q(alpha) above p would restrict to one of Q(beta).
    Otherwise a spent budget abstains (AbstainError, exit 3).
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

    bits, rows = 240, [[int(i == j) for j in range(d + 1)] for i in range(d + 1)]
    while bits <= 2400:
        rel, rows = _relation_candidate(alpha, beta, bits, rows)
        if rel is not None:
            rep = _verify_rep(alpha, beta, rel)
            if rep is not None:
                return rep
        bits *= 2
    f, g = alpha.minpoly, beta.minpoly
    for p, degrees in islice(factor_degrees_by_prime(f), _FROBENIUS_PRIMES):
        other = factor_degrees_mod(g, p)   # None when p divides lc(g) or disc(g)
        if 1 in degrees and other is not None and 1 not in other:
            raise NotInFieldError(f"alpha's minimal polynomial, of {describe(f)}, has a root "
                                  f"mod {p} and beta's, of {describe(g)}, has none")
    raise AbstainError(f"no verified representation of root #{beta.index} of the polynomial "
                       f"of {describe(g)} over root #{alpha.index} of that of {describe(f)} "
                       "within 2400 bits")


def _relation_candidate(alpha: AlgNum, beta: AlgNum, bits: int,
                        start: list[list[int]]) -> tuple[list[int] | None, list[list[int]]]:
    """(rel, rows): rel is the first row (c_0, ..., c_d) of the LLL-reduced
    lattice [I | round(2**bits (1, alpha, ..., alpha**(d-1), beta))], at the
    midpoints of enclosures of width 2**-bits, with c_d != 0 and each |c_i|
    <= 10**(bits // 8), or None; a relation c_0 + ... + c_d beta = 0 is a
    row about as short as itself.  The reduction starts from the previous
    rung's reduced rows ``start`` (a unimodular change of basis) and returns
    this rung's as ``rows``."""
    width = Fraction(1, 2 ** bits)
    a = alpha.enclosure(width).interval.mid()
    b = beta.enclosure(width).interval.mid()
    d = alpha.degree
    column = [round(a ** i * 2 ** bits) for i in range(d)] + [round(b * 2 ** bits)]
    reduced = lll_reduce([row + [sum(map(mul, row, column))] for row in start])
    rows = [row[:-1] for row in reduced]
    bound = 10 ** (bits // 8)
    return next((row for row in rows if row[d] and max(map(abs, row)) <= bound), None), rows


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
    not another conjugate: the certified image must meet beta's disk and
    avoid every other real root disk (a real value is no nonreal root), on
    the rungs of both root systems' refinement ladders.  Both selected
    roots are real (``power_rep`` has checked), so the image is a real
    interval."""
    num, den = rep.numerator(), rep.denominator
    for ta, tb in zip(root_system(alpha.minpoly).ladder(), root_system(beta.minpoly).ladder()):
        img = num.eval_at(_span(ta.alpha[alpha.index], ta.bits)) * Fraction(1, den)
        spans = [_span(z, tb.bits) for z in tb.alpha]
        if img.certainly_lt(spans[beta.index]) or img.certainly_gt(spans[beta.index]):
            return False
        if all(img.certainly_lt(s) or img.certainly_gt(s) for i, s in enumerate(spans)
               if i != beta.index and tb.alpha[i][1] == 0):
            return True


def c9(alpha: AlgNum, beta: AlgNum) -> Fraction:
    """Rounded-up rational upper bound on max_i |b_i| for any power-basis
    representation of beta over alpha:

        d * house(beta) * max_j prod_{i != j} (1 + |alpha_i|) / |alpha_i - alpha_j|

    the house read off the first rung of beta's root system (``house``),
    each product one integer quotient of ``_abs_bounds`` on a rung of
    alpha's refinement ladder, at its one scale; a distance bound of 0
    takes the next rung."""
    d = alpha.degree
    house_up = house(beta.minpoly, TABLE_WIDTH).hi
    for table in root_system(alpha.minpoly).ladder():
        up = [_abs_bounds(z)[1] + (1 << table.bits) for z in table.alpha]
        best = Fraction(0)
        for j, zj in enumerate(table.alpha):
            den = prod(_abs_bounds(disk_sub(zi, zj))[0] for i, zi in enumerate(table.alpha)
                       if i != j)
            if not den:
                break
            best = max(best, Fraction(prod(up[:j] + up[j + 1:]), den))
        else:
            return tidy_up(d * house_up * best)


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

    one integer product of ``_abs_bounds`` read off the first rung's disks.
    """
    table = first_rung(alpha.minpoly)
    one = 1 << table.bits
    den = alpha.lead * prod(_abs_bounds(z)[1] + one for i, z in enumerate(table.alpha)
                            if i != alpha.index)
    return tidy_down(Fraction(one ** (alpha.degree - 1), den))
