"""Certified root enclosures for squarefree integer polynomials.

Every root's enclosure is an integer disk (re, im, rad) at a scale 2**b:
the closed disk of radius rad / 2**b around z = (re + i im) / 2**b.  The
arithmetic on these disks is exact integer arithmetic, rounded outward
where it must round.

All n = deg P roots are isolated on one path, as in MPSolve (D. Bini,
Numer. Algorithms 13, 1996; D. Bini and G. Fiorentino, Numer. Algorithms
23, 2000).  Aberth's simultaneous iteration approximates them
(``_numeric_seeds``), and exact integer Newton steps polish each
approximation, so that a real root's seed has imaginary part 0.  Horner's
rule on the integers re, im of a center gives 2**(b n) P(z) and
2**(b (n-1)) P'(z) exactly, so rad, the least integer with
rad**2 |2**(b (n-1)) P'(z)|**2 >= n**2 |2**(b n) P(z)|**2, satisfies
rad / 2**b >= n |P(z)| / |P'(z)|: the disk contains at least one root of P
(log-derivative bound, P'(z) != 0).  A seed on the real axis gives the disk
(re, 0, rad); a seed above it gives a disk and that disk's conjugate
mirror, which are disjoint only when im > rad.  When these are n pairwise
disjoint disks (integer comparisons), each holding at least one of the n
roots, each holds exactly one.  Conjugation maps a disk centered on the
real axis onto itself, and so its one root onto itself: that root is real,
and a disk off the axis, disjoint from its mirror, holds no real root.  The
real roots are thus counted as well as isolated.

* A real root's disk is refined by sign-change bisection of its diameter,
  the root's isolating interval: P has one sign left of the root in it, so
  each step keeps the half at whose ends P takes opposite signs, and a
  midpoint where P vanishes is the root, a disk of radius 0.
* A nonreal root's disk is refined by Newton steps, each accepted only when
  its certified disk lies inside the starting disk.

Refinement produces new, smaller enclosures; the old value is never mutated.
An enclosure depends only on (polynomial, root index, requested width), never
on what the process asked for before, and the two disks of a conjugate pair
are exact mirrors at every width.

Each root system has one refinement ladder (``_RootSystem.ladder``) of
``ScaledRoots`` tables, from ``TABLE_WIDTH`` = 10**-20 at the scale 2**-115
on rungs whose scales double, as MPSolve doubles its precision, to 2**-(s +
300), s = ``separation_bits``, or a caller's deeper budget; then a
``PrecisionError``.  Every loop that refines root enclosures until it
decides walks it; every one-shot read of root data for a constant reads its
first rung (``first_rung``), at one integer scale.  The default last rung
lies far below the distance of any two roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import frexp, isqrt, ldexp, pi, prod

import cmath

from .intpoly import (IntPoly, describe, discriminant_poly, exact_quotient, is_squarefree,
                      normalize_minimal_poly, poly_gcd_q, squarefree_part)
from .record import Record
from .rounding import AbstainError, RatInterval, monomial_up


class IsolationError(ValueError):
    """Root isolation failed: a bad input (zero or non-squarefree
    polynomial) unless it is a ``PrecisionError``."""


class PrecisionError(IsolationError, AbstainError):
    """Isolation, refinement or certification did not succeed within its
    budget: an abstention, not a property of the input."""


# -- root enclosures -------------------------------------------------------------

class RootEnclosure(Record):
    """Certified enclosure of exactly one root of ``poly``: the integer disk
    ``disk`` = (re, im, rad) at scale 2**``bits``.  A real root's disk is
    centered on the real axis; a nonreal root's avoids it (|im| > rad).
    ``index`` is the position in the root ordering (by real part, then
    imaginary part, centers breaking the rare unresolved tie)."""

    __slots__ = ("poly", "index", "disk", "bits")

    def __init__(self, poly: IntPoly, index: int, disk: tuple[int, int, int], bits: int):
        self._init(poly, index, disk, bits)

    @property
    def is_real(self) -> bool:
        return self.disk[1] == 0

    @property
    def interval(self) -> RatInterval:
        """A real root's isolating interval, the disk's diameter."""
        if self.disk[1]:
            raise ValueError("a nonreal root has no isolating interval")
        return _span(self.disk, self.bits)

    def width(self) -> Fraction:
        return Fraction(2 * self.disk[2], 1 << self.bits)

    def abs_interval(self) -> RatInterval:
        return _disk_abs(self.disk, self.bits)

    def distance_interval(self, other: "RootEnclosure") -> RatInterval:
        """Certified |self - other|: ``disk_sub`` at the finer scale of the
        two enclosures."""
        bits = max(self.bits, other.bits)
        return _disk_abs(disk_sub(_rescaled(self.disk, self.bits, bits),
                                  _rescaled(other.disk, other.bits, bits)), bits)

    def refine(self, width: Fraction) -> "RootEnclosure":
        """Enclosure of the same root with width <= ``width``: the real disk
        bisected, the nonreal one refined by ``_refine_disk``."""
        if self.width() <= width:
            return self
        refine = _bisect if self.is_real else _refine_disk
        return RootEnclosure(self.poly, self.index,
                             *refine(self.poly, self.disk, self.bits, Fraction(width)))

    def approx(self) -> complex:
        one = 1 << self.bits
        return complex(self.disk[0] / one, self.disk[1] / one)


# -- root separation and real refinement ------------------------------------

def separation_bits(p: IntPoly) -> int:
    """s with 2**-s below the distance of any two roots of squarefree p of
    degree d: Mahler's sep > sqrt(3) d**(-(d+2)/2) |p|_2**(1-d), as |disc p|
    >= 1 (Michigan Math. J. 11, 1964), through bit lengths."""
    d = p.degree
    return ((d + 2) * d.bit_length() + (d - 1) * sum(c * c for c in p.coeffs).bit_length()
            + 1) // 2


def _sign(p: IntPoly, x: int, bits: int) -> int:
    """The sign of p(x / 2**bits), from ``_horner``'s integer on the real axis."""
    v = 0
    for k, c in enumerate(reversed(p.coeffs)):
        v = v * x + (c << bits * k)
    return (v > 0) - (v < 0)


def _bisect(p: IntPoly, disk: tuple[int, int, int], bits: int, width: Fraction
            ) -> tuple[tuple[int, int, int], int]:
    """Sign-change bisection of the real disk (c, 0, r) at scale 2**bits to
    width <= ``width``.  p has one sign left of the root, so the step keeps
    [c - r, c], the disk (2c - r, 0, r) at 2**(bits+1), when p(c) differs
    in sign from p(c - r), and [c, c + r], the disk (2c + r, 0, r), when
    it agrees; p(c) = 0 makes c the root, a disk of radius 0."""
    c, _, r = disk
    left = _sign(p, c - r, bits)
    while 2 * r * width.denominator > width.numerator << bits:
        mid = _sign(p, c, bits)
        if mid == 0:
            return (c, 0, 0), bits
        c, bits = 2 * c + (r if mid == left else -r), bits + 1
    return (c, 0, r), bits


# -- full isolation (real + nonreal), with certification ----------------------

# the first rung of every root system's refinement ladder
TABLE_WIDTH = Fraction(1, 10 ** 20)


# bisections of a real disk spent separating it from the real-part ranges of
# the nonreal disks before the root order falls back to its center
_ORDER_BISECTIONS = 256


class _RootSystem:
    """All-root isolation of one squarefree polynomial, its refinements by
    requested width, its refinement ladder (``ladder``): ``ScaledRoots``
    tables whose scales double, from ``TABLE_WIDTH`` to 2**-(s + 300) or a
    caller's depth, s = ``separation_bits``; and what is computed once per
    polynomial: the irreducibility verdict and the discriminant."""

    def __init__(self, p: IntPoly):
        if not is_squarefree(p):
            raise IsolationError(f"polynomial of {describe(p)} is not squarefree")
        self.poly = p
        self.base = self._order()
        # the upper conjugate of each disk below the real axis
        upper = {e.disk[:2]: e.index for e in self.base if e.disk[1] > 0}
        self.conj = {e.index: upper[e.disk[0], -e.disk[1]]
                     for e in self.base if e.disk[1] < 0}
        # each root's enclosure, and the integer tables, by the width asked for
        self.memo = tuple({} for _ in self.base)
        self.tables: dict[Fraction, ScaledRoots] = {}
        # the root-set verdict of ``algnum.is_irreducible`` and disc, once taken
        self.irreducible: bool | None = None
        self.disc: int | None = None

    def _order(self) -> tuple[RootEnclosure, ...]:
        """Index the ``_certified_disks`` by real part, then imaginary part,
        of their centers.  Each real disk is first bisected until it is
        disjoint from every nonreal disk's real-part range, so that its
        center sorts where the root does; a real part shared with a nonreal
        root (a true tie) is left to the center after ``_ORDER_BISECTIONS``
        steps."""
        bits, disks = _certified_disks(self.poly)
        spans = [_span(d, bits) for d in disks if d[1]]
        roots = []
        for disk in disks:
            b = bits
            for _ in range(_ORDER_BISECTIONS if disk[1] == 0 else 0):
                if disk[2] == 0 or not any(_span(disk, b).intersects(s) for s in spans):
                    break
                disk, b = _bisect(self.poly, disk, b, Fraction(disk[2], 1 << b))
            roots.append((disk, b))
        roots.sort(key=lambda t: (Fraction(t[0][0], 1 << t[1]), Fraction(t[0][1], 1 << t[1])))
        return tuple(RootEnclosure(self.poly, i, d, b) for i, (d, b) in enumerate(roots))

    def refined(self, index: int, width: Fraction) -> RootEnclosure:
        """Root ``index`` refined to ``width``: a nonreal disk from the base
        disk, a real disk by bisecting on from the entry of the least width
        above ``width``, which gives what bisecting the base disk gives.
        A disk below the real axis is the mirror of its conjugate's, since
        rounding to a unit is not symmetric under negation."""
        memo = self.memo[index]
        out = memo.get(width)
        if out is None:
            if index in self.conj:
                up = self.refined(self.conj[index], width)
                out = RootEnclosure(self.poly, index, _mirror(up.disk), up.bits)
            else:
                coarser = [w for w in memo if w > width and self.base[index].is_real]
                out = (memo[min(coarser)] if coarser else self.base[index]).refine(width)
            memo[width] = out
        return out

    def scaled(self, width: Fraction) -> "ScaledRoots":
        """The ``ScaledRoots`` table for ``width``, built once: at the scale
        2**b, b = bits(1/width) + 48 or, if finer, the base disks' scale + 2
        (tiny roots), each root refined to two units, so its radius is at
        most two: 2**-113 on the first rung, below the 2**-100 or so of one
        Newton step from a 53-bit seed.  A nonreal disk, inside its base
        disk, is 4 units off the real axis before rounding moves it 2.5."""
        table = self.tables.get(width)
        if table is None:
            bits = max((width.denominator // width.numerator).bit_length() + 48,
                       min(e.bits for e in self.base) + 2)
            table = self.tables[width] = ScaledRoots(
                [self.refined(i, Fraction(2, 1 << bits)) for i in range(len(self.base))],
                bits, self.conj)
        return table

    def ladder(self, bits: int = 0):
        """The ladder's tables, coarsest first; then ``PrecisionError``: rung
        0 at ``TABLE_WIDTH``, then the width 2**-(2b - 48) for the scale b of
        the rung before, which doubles the scale to 2b + 1, until that width
        would lie nearer the depth D = max(``bits``, ``separation_bits`` +
        300) than the scale b; then the last rung, the width 2**-D itself,
        so that no two rungs lie a few bits apart."""
        depth = max(bits, separation_bits(self.poly) + 300)
        table = self.scaled(TABLE_WIDTH)
        while depth - (2 * table.bits - 48) >= table.bits - 48:
            yield table
            table = self.scaled(Fraction(1, 1 << 2 * table.bits - 48))
        yield table
        yield self.scaled(Fraction(1, 1 << depth))
        raise PrecisionError(f"roots of the polynomial of {describe(self.poly)} undecided")


class ScaledRoots:
    """Integer disks of every root alpha and of 1/alpha at the scale
    2**``bits``, taken by ``_rescaled`` from the enclosures ``encl``.

    ``alpha[i]`` is root i's disk; ``inverse[i]`` is ``disk_div`` of the
    point 1 by it, or None when that disk may contain 0; ``mirror[i]`` is
    the index of the root whose disk is the mirror image of root i's (None
    for a real root), read off ``conj``, the upper conjugate of each disk
    below the real axis (``_RootSystem.conj``).  ``recip[i]`` and ``neg[i]``
    are the indices of the roots 1/alpha_i and -alpha_i, or None
    (``_partners``).  ``_rescaled`` shifts a
    disk exactly from a coarser scale, and from a finer one rounds its
    center to the nearest unit, which moves it by at most sqrt(2)/2 < 1
    unit, and its radius up plus one unit, which covers that move.  The
    entries of a disk below the real axis are the mirror images of its
    conjugate's, so mirror disks stay exact mirrors although rounding to a
    unit is not symmetric."""

    __slots__ = ("bits", "alpha", "inverse", "mirror", "recip", "neg")

    def __init__(self, encl: list[RootEnclosure], bits: int,
                 conj: dict[int, int] | None = None):
        self.bits = bits
        one = 1 << bits
        self.mirror = [None] * len(encl)
        for i, j in (conj or {}).items():
            self.mirror[i], self.mirror[j] = j, i
        self.alpha, self.inverse = [None] * len(encl), [None] * len(encl)
        for e, j in zip(encl, self.mirror):
            if e.disk[1] < 0:
                continue
            i = e.index
            a = self.alpha[i] = _rescaled(e.disk, e.bits, self.bits)
            try:
                self.inverse[i] = disk_div((one, 0, 0), a, self.bits)
            except ZeroDivisionError:
                pass
            if j is not None:
                self.alpha[j] = _mirror(a)
                self.inverse[j] = self.inverse[i] and _mirror(self.inverse[i])
        p = encl[0].poly if encl else IntPoly((1,))
        self.recip = _partners(self.alpha, self.inverse, p.reciprocal(), p)
        self.neg = _partners(self.alpha, [(-re, -im, rad) for re, im, rad in self.alpha],
                             IntPoly(-c if k % 2 else c for k, c in enumerate(p.coeffs)), p)

    def mahler(self, lead: int) -> RatInterval:
        """|lead| prod max(1, |alpha_i|) over the disks, each end one integer
        product of ``_abs_bounds``, each factor at least 2**bits."""
        one, bounds = 1 << self.bits, [_abs_bounds(z) for z in self.alpha]
        den = one ** len(bounds)
        return RatInterval(Fraction(abs(lead) * prod(max(a, one) for a, _ in bounds), den),
                           Fraction(abs(lead) * prod(max(b, one) for _, b in bounds), den))


def _partners(disks, images, q: IntPoly, p: IntPoly) -> list[int | None]:
    """For each image disk, the index of the one disk of ``disks`` it meets,
    or None; all None unless q, whose roots are the images' points, is p up
    to sign and content, so that each image point is a root of p."""
    if normalize_minimal_poly(q) != p:
        return [None] * len(images)
    hits = [[k for k, z in enumerate(disks) if w and not disk_disjoint(w, z)] for w in images]
    return [h[0] if len(h) == 1 else None for h in hits]


def _mirror(disk: tuple[int, int, int]) -> tuple[int, int, int]:
    return disk[0], -disk[1], disk[2]


def _span(disk: tuple[int, int, int], bits: int) -> RatInterval:
    """The real parts of the points of the integer disk at scale 2**bits."""
    re, _, rad = disk
    return RatInterval(Fraction(re - rad, 1 << bits), Fraction(re + rad, 1 << bits))


def _rescaled(disk: tuple[int, int, int], bits: int, to: int) -> tuple[int, int, int]:
    """The integer disk at scale 2**bits taken to the scale 2**to: shifted
    exactly when ``to`` is finer, else coarsened outward (``ScaledRoots``)."""
    re, im, rad = disk
    if to >= bits:
        return re << (to - bits), im << (to - bits), rad << (to - bits)
    n = 1 << (bits - to)
    return _round_div(re, n), _round_div(im, n), -(-rad // n) + 1


def _disk_abs(disk: tuple[int, int, int], bits: int) -> RatInterval:
    """|z| over the integer disk at scale 2**bits, from ``_abs_bounds``."""
    lo, hi = _abs_bounds(disk)
    return RatInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def _abs_bounds(disk: tuple[int, int, int]) -> tuple[int, int]:
    """Integers lo <= |z| <= hi for every z in the integer disk, at the
    disk's own scale: |center| from ``isqrt`` of its square, rounded down
    and up, less and plus the radius, lo clamped at 0."""
    re, im, rad = disk
    n = re * re + im * im
    s = isqrt(n)
    return max(0, s - rad), s + (s * s != n) + rad


# -- integer disk arithmetic ---------------------------------------------------
#
# An integer disk (re, im, rad) at scale 2**bits, as in ``RootEnclosure`` and
# ``ScaledRoots``, is the closed disk of radius rad / 2**bits around (re + i im) / 2**bits.  Each
# operation's docstring says why its result holds every result of the exact
# operation on points of its operands.

def _ceil_isqrt(n: int) -> int:
    r = isqrt(n)
    return r + (r * r != n)


def _round_div(x: int, n: int) -> int:
    """x / n rounded to the nearest integer (n > 0)."""
    return (2 * x + n) // (2 * n)


def disk_sub(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """a - b, exactly: z - w is within r1 + r2 of c1 - c2."""
    return a[0] - b[0], a[1] - b[1], a[2] + b[2]


def disk_distance(disk: tuple[int, int, int], p: int, q: int, one: int
                  ) -> tuple[int, int]:
    """Integers lo <= hi with lo <= one |q z - p| <= hi for every z in the
    integer disk at scale ``one`` = 2**bits (q != 0), so |z - p/q| lies in
    [lo, hi] / (|q| one): ``_abs_bounds`` of the disk q z - p, whose center
    is (q re - p one, q im) and radius |q| rad.  Exact for a disk on the
    real axis, whose squared distance is a perfect square."""
    re, im, rad = disk
    return _abs_bounds((re * q - p * one, im * q, rad * abs(q)))


def disk_mul(a: tuple[int, int, int], b: tuple[int, int, int],
             bits: int) -> tuple[int, int, int]:
    """a * b, outward.  z w - c1 c2 = (z - c1) w + c1 (w - c2), so
    |z w - c1 c2| <= r1 |c2| + |c1| r2 + r1 r2; that bound is taken with
    |c| rounded up and rounded up to whole units.  The center c1 c2 is
    rounded to the nearest unit in each coordinate, which moves it by at
    most sqrt(2)/2 < 1 unit, so one more unit of radius covers the move."""
    (ar, ai, ra), (br, bi, rb) = a, b
    one = 1 << bits
    rad = (ra * _ceil_isqrt(br * br + bi * bi) + _ceil_isqrt(ar * ar + ai * ai) * rb
           + ra * rb)
    return (_round_div(ar * br - ai * bi, one), _round_div(ar * bi + ai * br, one),
            -(-rad >> bits) + 1)


def disk_div(a: tuple[int, int, int], b: tuple[int, int, int],
             bits: int) -> tuple[int, int, int]:
    """a / b, outward; raises ZeroDivisionError when b may contain 0.
    z / w - c1 / c2 = ((z - c1) c2 - c1 (w - c2)) / (w c2) and |w| >= |c2| -
    r2, so |z / w - c1 / c2| <= (r1 |c2| + |c1| r2) / ((|c2| - r2) |c2|) =
    r1 / (|c2| - r2) + |c1| r2 / ((|c2| - r2) |c2|).  Both terms only grow
    as |c2| shrinks, so the bound is taken at L = |c2| rounded down (which
    must exceed r2) and |c1| rounded up, and rounded up to whole units; the
    center c1 / c2 is rounded as in ``disk_mul``, with one more unit."""
    (ar, ai, ra), (br, bi, rb) = a, b
    n = br * br + bi * bi
    low = isqrt(n)
    if low <= rb:
        raise ZeroDivisionError("divisor disk may contain zero")
    num = (ra * low + _ceil_isqrt(ar * ar + ai * ai) * rb) << bits
    den = (low - rb) * low
    return (_round_div((ar * br + ai * bi) << bits, n),
            _round_div((ai * br - ar * bi) << bits, n), -(-num // den) + 1)


def disk_elementary(disks: list[tuple[int, int, int]], bits: int
                    ) -> list[tuple[int, int, int]]:
    """e_1, ..., e_n of points z_1, ..., z_n of the n disks, outward: over
    the disks, e_j becomes e_j + z e_{j-1} (e_0 = 1), each product by
    ``disk_mul`` and each sum exact (centers and radii add)."""
    e = [(1 << bits, 0, 0)]
    for z in disks:
        e = [e[0]] + [(a[0] + m[0], a[1] + m[1], a[2] + m[2])
                      for a, m in zip(e[1:] + [(0, 0, 0)],
                                      (disk_mul(z, w, bits) for w in e))]
    return e[1:]


def disk_holds_integer(disk: tuple[int, int, int], bits: int) -> bool:
    """Whether an integer lies in the disk, exactly: a multiple N of 2**bits
    lies in it when (N - re)**2 <= rad**2 - im**2, that is |N - re| <= s =
    isqrt(rad**2 - im**2) as N - re is an integer, so when the greatest
    multiple of 2**bits at most re + s is at least re - s."""
    re, im, rad = disk
    if abs(im) > rad:
        return False
    s = isqrt(rad * rad - im * im)
    return (re + s) >> bits << bits >= re - s


def disk_disjoint(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """True when no point lies in both disks (an exact integer comparison)."""
    dr, di, s = a[0] - b[0], a[1] - b[1], a[2] + b[2]
    return dr * dr + di * di > s * s


def _disk_within(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """True when disk a lies inside disk b (an exact integer comparison)."""
    dr, di, room = a[0] - b[0], a[1] - b[1], b[2] - a[2]
    return room >= 0 and dr * dr + di * di <= room * room


def _certified_disks(p: IntPoly) -> tuple[int, list[tuple[int, int, int]]]:
    """(b, disks): deg(p) pairwise disjoint integer disks at scale 2**b,
    each holding exactly one root of squarefree p: a disk for each seed on
    or above the real axis, in ``_numeric_seeds``'s order, then the mirrors
    of those above it in the same order.  An attempt whose seeds give
    another number of disks, or disks that meet, certifies nothing.  Attempt
    a rounds that generator's a-th seeds to 53 << a bits; the seeds are only
    hints."""
    if p.degree < 1:
        return 0, []
    deriv = p.derivative()
    for attempt, seeds in enumerate(_numeric_seeds(p)):
        seeds = [z for z in seeds if z[1] >= 0]
        if sum(2 if im else 1 for _, im, _ in seeds) != p.degree:
            continue
        # centers keep 53 << attempt bits of the seeds: short at the first
        # attempt, and closer seeds at every retry; the scale holds every
        # center exactly, with 32 more bits for the radii
        centers = [(_dyadic(re, b, 53 << attempt), _dyadic(im, b, 53 << attempt))
                   for re, im, b in seeds]
        bits = max(q.denominator.bit_length() for c in centers for q in c) + 31
        disks = []
        for x, y in centers:
            re, im = int(x * (1 << bits)), int(y * (1 << bits))
            got = _newton(p, deriv, re, im, bits)
            if got is None:
                break
            disks.append((re, im, got[0]))
        else:
            # a disk above the axis is disjoint from its mirror when im > rad
            disks += [_mirror(d) for d in disks if d[1]]
            if all(disk_disjoint(a, b) for a, b in combinations(disks, 2)):
                return bits, disks
    raise PrecisionError(f"could not certify the roots of the polynomial of {describe(p)}")


# the precision of the first seeding attempt, doubled at each of the
# _ATTEMPTS - 1 retries, and the guard bits of the integer Newton polish
_SEED_BITS = 120
_ATTEMPTS = 8
_GUARD_BITS = 32


def _numeric_seeds(p: IntPoly):
    """For attempts a = 0, ..., _ATTEMPTS - 1, approximations (re, im, b) of
    the roots of squarefree p (deg p >= 1) at bits = _SEED_BITS << a: each
    the point (re + i im) / 2**b, within about 2**-bits of a root relative
    to its modulus once the iteration converges.

    x = 2**s t, with s the least integer that bounds every |c_k / c_n| by
    2**(s (n - k)) through the bit lengths of the coefficients c_k: the
    roots in t lie in |t| < 2, and p(2**s t) / 2**(s n + bits(c_n)) has
    coefficients below 1.  Attempt 0 runs ``_aberth`` in Python complex from
    n points on the unit circle, up to 1000 sweeps of about 60 us each at
    degree 12, and misses roots whose small coefficients underflow a float.
    Later attempts, the package's one use of mpmath, run it in mpmath.mpc
    at ``bits`` bits, with no exponent limit, for up to min(bits / 2, 1000)
    sweeps: attempt 1 from the Newton
    polygon's points (``_polygon_points``), each later one from the last
    attempt's approximations.  A zero constant coefficient puts a start
    point at 0, where p vanishes and the point stays.  ``_polish`` takes
    each approximation to ``bits`` bits, where a real root's imaginary part
    rounds to 0.

    Clusters stay out of reach: m roots 2**-k apart relative to their
    modulus are resolved only at about m k bits, after about k / 2 sweeps,
    so two roots 2**-5000 apart certify and two 2**-6500 apart abstain."""
    n, c = p.degree, p.coeffs
    s = max((-((c[n].bit_length() - ck.bit_length() - 1) // (n - k))
             for k, ck in enumerate(c[:n]) if ck), default=0)
    scaled = [(c[k], s * (k - n) - c[n].bit_length()) for k in range(n, -1, -1)]
    deriv, zero = p.derivative(), c[0] == 0

    def polished(zs, bits, isfinite, ldexp, mag):
        # mag(z) = e with 2**(e-1) <= |z| < 2**e; each part is truncated at
        # the scale 2**(k - e), exactly (a float's ldexp is exact down to 1)
        k = bits + _GUARD_BITS
        return [_polish(p, deriv, int(ldexp(z.real, k - e)), int(ldexp(z.imag, k - e)), k - e - s)
                for z in zs if isfinite(z) for e in [mag(z) if z else 0]]

    yield polished(_aberth([ck / (1 << -e) if e < 0 else float(ck << e) for ck, e in scaled],
                           [0j] * zero + [cmath.rect(1.0, 2 * pi * j / (n - zero) + 0.4)
                                          for j in range(n - zero)], 2.0 ** -26, 1000),
                   _SEED_BITS, cmath.isfinite, ldexp, lambda z: frexp(abs(z))[1])
    import mpmath   # only the retries need more than a float's precision and range

    zs = None
    for attempt in range(1, _ATTEMPTS):
        bits = _SEED_BITS << attempt
        with mpmath.workprec(bits):
            if zs is None or len(set(zs)) < n:
                zs = _polygon_points(c, s)
            zs = _aberth([mpmath.ldexp(ck, e) for ck, e in scaled], zs,
                         mpmath.ldexp(1, -bits // 2), min(bits // 2, 1000))
        yield polished(zs, bits, mpmath.isfinite, mpmath.ldexp, lambda z: mpmath.mag(abs(z)))


def _polygon_points(c: tuple[int, ...], s: int) -> list:
    """Start points for ``_aberth`` on p(2**s t), p with the coefficients c
    (low to high), in mpmath.mpc at the working precision (D. Bini, Numer.
    Algorithms 13, 1996): on the upper convex hull of the points
    (k, bits(c_k)), c_k != 0, an edge from k to k + m puts m points on the
    circle of radius 2**((bits(c_k) - bits(c_(k+m))) / m - s), about the
    modulus of m roots, and the first nonzero c_k puts k points at 0."""
    import mpmath

    hull: list[tuple[int, int]] = []
    for k, a in [(k, ck.bit_length()) for k, ck in enumerate(c) if ck]:
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (a - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, a))
    zs = [mpmath.mpc(0)] * hull[0][0]
    for (k, a), (j, b) in zip(hull, hull[1:]):
        r = mpmath.ldexp(mpmath.power(2, mpmath.mpf(a - b) / (j - k)), -s)
        zs += [r * mpmath.expj(2 * mpmath.pi * (q / (j - k) + k / (len(c) - 1)) + 0.7)
               for q in range(j - k)]
    return zs


def _aberth(coeffs: list, zs: list, eps, sweeps: int) -> list:
    """Aberth-Ehrlich iteration (O. Aberth, Math. Comp. 27, 1973) for all the
    roots of the polynomial with ``coeffs``, leading first, from the distinct
    points zs, in their arithmetic (complex, or mpmath.mpc).  A sweep moves
    each z by w = P / (P' - P S) at z, S the sum of 1 / (z - u) over the
    other points u.  A point stops once its |w| <= eps |z| or P vanishes at
    it (MPSolve's rule, which spares the converged points while a cluster
    is still being resolved); the iteration stops when every point has, after
    ``sweeps`` sweeps, or at a division by 0: the points are only hints."""
    zs, live = list(zs), list(range(len(zs)))
    for _ in range(sweeps):
        if not live:
            break
        for i in list(live):
            z = zs[i]
            v, d = coeffs[0], 0
            for a in coeffs[1:]:
                v, d = v * z + a, d * z + v
            if not v:
                live.remove(i)
                continue
            try:
                w = v / (d - v * sum(1 / (z - u) for j, u in enumerate(zs) if j != i))
            except ZeroDivisionError:
                return zs
            zs[i] = z - w
            if abs(w) <= eps * abs(z):
                live.remove(i)
    return zs


def _polish(p: IntPoly, deriv: IntPoly, re: int, im: int, b: int) -> tuple[int, int, int]:
    """Exact integer Newton steps (``_newton``'s) from (re + i im) / 2**b, at
    b >= 0, until a step is at most a unit in each part or for at most 8
    steps; the result rounded to the scale 2**(b - _GUARD_BITS)."""
    if b < 0:
        re, im, b = re << -b, im << -b, 0
    for _ in range(8):
        got = _newton(p, deriv, re, im, b)
        if got is None:
            break
        re, im = re - got[1], im - got[2]
        if abs(got[1]) <= 1 and abs(got[2]) <= 1:
            break
    one = 1 << _GUARD_BITS
    return _round_div(re, one), _round_div(im, one), b - _GUARD_BITS


def _dyadic(m: int, b: int, bits: int) -> Fraction:
    """m / 2**b with m rounded to nearest at ``bits`` significant bits, ties
    to even, as an exact Fraction."""
    k = max(0, abs(m).bit_length() - bits)
    if k:
        q, r = divmod(m, 1 << k)
        m, b = q + (2 * r > 1 << k or (2 * r == 1 << k and q & 1)), b - k
    return Fraction(m, 1 << b) if b >= 0 else Fraction(m << -b)


def _horner(p: IntPoly, re: int, im: int, bits: int) -> tuple[int, int]:
    """2**(bits deg p) p(z) at z = (re + i im) / 2**bits, exactly: the
    pair (real part, imaginary part) of integers."""
    ar = ai = 0
    for k, c in enumerate(reversed(p.coeffs)):
        ar, ai = ar * re - ai * im + (c << bits * k), ar * im + ai * re
    return ar, ai


def _newton(p: IntPoly, deriv: IntPoly, re: int, im: int, bits: int
            ) -> tuple[int, int, int] | None:
    """(rad, step re, step im) at z = (re + i im) / 2**bits, None when
    p'(z) = 0.  With P and D the integers ``_horner`` gives for p(z) and
    p'(z), rad is the least integer with rad**2 |D|**2 >= deg(p)**2 |P|**2,
    so the disk of radius rad / 2**bits around z contains a root of p
    (log-derivative bound); the Newton step p(z) / p'(z) is
    P conj(D) / |D|**2 units, each part rounded to the nearest unit."""
    pr, pi = _horner(p, re, im, bits)
    dr, di = _horner(deriv, re, im, bits)
    n = dr * dr + di * di
    if n == 0:
        return None
    rad = _ceil_isqrt(-(-p.degree ** 2 * (pr * pr + pi * pi) // n))
    return rad, _round_div(pr * dr + pi * di, n), _round_div(pi * dr - pr * di, n)


# root systems by normalized coefficient tuple, least recently used first; past
# _MAX_SYSTEMS the oldest is dropped, and rebuilt from scratch if needed again
_SYSTEMS: dict[tuple, _RootSystem] = {}
_MAX_SYSTEMS = 64


def root_system(p: IntPoly) -> _RootSystem:
    """The root system of p, built for its primitive part with positive lead:
    F(x, 1) has one whatever the sign of c_d or the content of F."""
    p = normalize_minimal_poly(p)
    key = p.coeffs
    sys = _SYSTEMS.pop(key, None)
    if sys is None:
        sys = _RootSystem(p)
        while len(_SYSTEMS) >= _MAX_SYSTEMS:
            del _SYSTEMS[next(iter(_SYSTEMS))]
    _SYSTEMS[key] = sys
    return sys


def first_rung(p: IntPoly) -> ScaledRoots:
    """The first rung of p's root system, which one-shot reads read."""
    return root_system(p).scaled(TABLE_WIDTH)


def discriminant(p: IntPoly) -> int:
    """disc p (squarefree, degree d >= 2), kept by p's root system: c**(2d - 2)
    times that of the system's polynomial, p / c up to sign, c = content."""
    system = root_system(p)
    if system.disc is None:
        system.disc = discriminant_poly(system.poly)
    return p.content() ** (2 * p.degree - 2) * system.disc


def isolate_roots(p: IntPoly, precision: Fraction = Fraction(1, 10 ** 12)) -> list[RootEnclosure]:
    """Exactly deg(p) pairwise-disjoint certified enclosures of the roots of
    squarefree p, each refined to width <= precision."""
    sys = root_system(p)
    return [sys.refined(i, Fraction(precision)) for i in range(len(sys.base))]


def _refine_disk(p: IntPoly, disk: tuple[int, int, int], bits: int, width: Fraction
                 ) -> tuple[tuple[int, int, int], int]:
    """Newton iteration on integer disks at scale 2**b, b = bits(1/width)
    plus 72 guard bits (or ``bits`` if finer), from a disk that holds
    exactly one root.  A step is accepted when its certified disk lies inside
    that starting disk, so it holds the same root."""
    deriv = p.derivative()
    b = max(bits, (width.denominator // width.numerator).bit_length() + 72)
    start = _rescaled(disk, bits, b)
    re, im, rad = start
    got = _newton(p, deriv, re, im, b)
    for _ in range(64):
        if 2 * rad * width.denominator <= width.numerator << b:
            return (re, im, rad), b
        if got is None:
            break
        re, im = re - got[1], im - got[2]
        got = _newton(p, deriv, re, im, b)
        if got is None or not _disk_within((re, im, got[0]), start):
            break
        rad = got[0]
    raise PrecisionError("disk refinement stalled; raise seed precision")


# -- derived quantities ---------------------------------------------------------

def mahler_measure(p, precision: Fraction = Fraction(1, 10 ** 25)) -> RatInterval:
    """Certified enclosure of M(P) = |c_P| * prod max(1, |alpha_i|).

    Accepts an IntPoly or a BinForm (measured through F(x, 1); the degree
    drops with leading zero coefficients, matching M(Q) = M(Q(x, 1))).
    For squarefree P it is ``ScaledRoots.mahler`` on the root table for
    the width.  Multiple roots: M(P) = M(G) * M(P / G) with G = gcd(P, P') primitive,
    so that P / G is an integer polynomial (Gauss).  For a nonzero integer
    polynomial the lower endpoint is clamped at 1 (Landau).
    """
    p = _as_univariate(p)
    if p.is_zero:
        raise ValueError("zero polynomial")
    out = _mahler_rec(p, Fraction(precision) / (2 * (p.degree + 1) or 2))
    lo = max(out.lo, Fraction(1))
    return RatInterval(min(lo, out.hi), out.hi)


def _mahler_rec(p: IntPoly, width: Fraction) -> RatInterval:
    if p.degree == 0:
        v = abs(p.coeffs[0])
        return RatInterval(v, v)
    g = poly_gcd_q(p, p.derivative())
    if g.degree == 0:
        return root_system(p).scaled(width).mahler(p.lead)
    return _mahler_rec(g, width) * _mahler_rec(exact_quotient(p, g), width)


def house(p, precision: Fraction = Fraction(1, 10 ** 25)) -> RatInterval:
    """Certified enclosure of the house (max root modulus) of p, read off
    the root table of its squarefree part for ``precision``."""
    p = _as_univariate(p)
    if p.is_zero or p.degree < 1:
        raise ValueError("house needs degree >= 1")
    table = root_system(squarefree_part(p)).scaled(Fraction(precision))
    moduli = [_disk_abs(z, table.bits) for z in table.alpha]
    return RatInterval(max(a.lo for a in moduli), max(a.hi for a in moduli))


def _as_univariate(p) -> IntPoly:
    from .binforms import BinForm

    if isinstance(p, BinForm):
        return p.dehomogenize()
    return p


def root_separation_lower_bound(p: IntPoly, q: IntPoly) -> Fraction:
    """Positive rational lower bound on min |mu_i - nu_j| over roots mu of P
    and nu of Q, for coprime P, Q with r = deg P >= max(1, deg Q):

        2**(1-r) (r+1)**((1-3r)/2) max(H(P), H(Q))**(-2r)

    rounded down: the reciprocal of ``monomial_up``'s bound on its reciprocal.
    """
    r, s = p.degree, q.degree
    if r < 1 or r < s:
        raise ValueError("need deg P >= max(1, deg Q)")
    if poly_gcd_q(p, q).degree != 0:
        raise ValueError("polynomials share a factor")
    h = max(p.height(), q.height())
    return 1 / monomial_up([(2, r - 1), (r + 1, Fraction(3 * r - 1, 2)), (h, 2 * r)])
