"""Exact univariate integer polynomial arithmetic.

Every polynomial has integer coefficients.  By Gauss's lemma a primitive b
divides an integer a over Q exactly when it does over Z, so division is
decided by pseudo-remainders (``prem``) and exact integer quotients
(``exact_quotient``), and gcds over Q by the primitive remainder sequence
(Cohen, GTM 138, 3.1-3.3).
Coefficients are stored low-to-high, so ``coeffs[k]`` is the coefficient of
``x**k``.  The zero polynomial is the empty tuple with degree -1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt

from .rounding import RatInterval


def _trim(coeffs: Sequence) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPoly:
    """Univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = _trim([int(c) for c in coeffs])
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    # -- structure -----------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def height(self) -> int:
        """Max absolute value of the coefficients; 0 for the zero polynomial."""
        return max((abs(c) for c in self.coeffs), default=0)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        g = self.content()
        if g <= 1:
            return self
        return IntPoly(c // g for c in self.coeffs)

    # -- arithmetic ------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPoly((self.coeff(i) + other.coeff(i)) for i in range(n))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    # -- evaluation --------------------------------------------------------------
    def eval_at(self, x):
        """Horner evaluation; exact for int/Fraction, outward for RatInterval."""
        acc = Fraction(0) if not isinstance(x, RatInterval) else RatInterval(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_pair(self, a: int, b: int, r: int | None = None) -> int:
        """Homogenized value b**r * P(a/b); r defaults to deg P."""
        if self.is_zero:
            return 0
        if r is None:
            r = self.degree
        if r < self.degree:
            raise ValueError("homogenization degree below deg P")
        acc = 0
        for k, c in enumerate(self.coeffs):
            acc += c * a ** k * b ** (r - k)
        return acc

    # -- transforms -----------------------------------------------------------
    def reciprocal(self) -> "IntPoly":
        """x**deg(P) * P(1/x): coefficient sequence reversed."""
        if self.is_zero:
            return self
        return IntPoly(tuple(reversed(self.coeffs)))

    def scale_root(self, c: int) -> "IntPoly":
        """Monic-making transform: c**(d-1) * P(x/c); roots scale by c."""
        d = self.degree
        return IntPoly(coef * c ** (d - 1 - k) if k < d else coef
                       for k, coef in enumerate(self.coeffs))

    def __repr__(self):
        return f"IntPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def format_poly(p: IntPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            term = str(mag)
        elif k == 1:
            term = "x" if mag == 1 else f"{mag}*x"
        else:
            term = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def describe(p) -> str:
    """An IntPoly or BinForm named by its degree and height's bit length, for
    error messages: ``str`` of an int over 4,300 digits raises ValueError."""
    return f"degree {p.degree} with {p.height().bit_length()}-bit coefficients"


# -- exact division over Z -------------------------------------------------------

def prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """The pseudo-remainder lc(b)**k * a mod b, exactly over Z, with
    k = max(0, deg a - deg b + 1) always, even when a step meets a zero
    leading coefficient.  b divides a in Q[x] exactly when it is zero."""
    r, low, lb = list(a.coeffs), b.coeffs[:-1], b.lead
    n = len(low)
    for i in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        r = [x * lb for x in r]
        for j, bj in enumerate(low):
            r[i - n + j] -= c * bj
    return IntPoly(r)


def exact_quotient(a: IntPoly, b: IntPoly) -> IntPoly | None:
    """a / b in Z[x], or None when b does not divide a there: each step's
    leading coefficient must be a multiple of lc(b), and the tail must
    vanish.  For a primitive b this is division over Q (Gauss)."""
    if b.is_zero:
        return None
    r, low, lb = list(a.coeffs), b.coeffs[:-1], b.lead
    n = len(low)
    q = [0] * max(0, len(r) - n)
    for i in range(len(r) - 1, n - 1, -1):
        c, rest = divmod(r.pop(), lb)
        if rest:
            return None
        q[i - n] = c
        for j, bj in enumerate(low):
            r[i - n + j] -= c * bj
    return None if any(r) else IntPoly(q)


def poly_gcd_q(p: IntPoly, q: IntPoly) -> IntPoly:
    """gcd over Q, returned as a primitive integer polynomial (positive lead),
    by the primitive remainder sequence.  gcd(0, 0) = 0."""
    a, b = p.primitive(), q.primitive()
    while not b.is_zero:
        a, b = b, prem(a, b).primitive()
    return a if a.is_zero or a.lead > 0 else -a


def normalize_minimal_poly(p: IntPoly) -> IntPoly:
    """Primitive form with positive leading coefficient."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    p = p.primitive()
    return p if p.lead > 0 else -p


def is_squarefree(p: IntPoly) -> bool:
    if p.is_zero:
        return False
    if p.degree == 0:
        return True
    return poly_gcd_q(p, p.derivative()).degree == 0


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p') as a primitive integer polynomial with positive lead."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return normalize_minimal_poly(exact_quotient(p, poly_gcd_q(p, p.derivative())))


# -- resultants and discriminants ----------------------------------------------

def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Resultant as the determinant of the Sylvester block matrix with the
    Q-rows on top, so resultant(P, Q) = lc(Q)**deg(P) * prod P(nu) over the
    roots nu of Q.  This differs from the P-rows-first layout by the factor
    (-1)**(deg P * deg Q); every use in this package takes absolute values
    or even powers, and the sign convention is pinned by the test suite."""
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of zero polynomial")
    r, s = p.degree, q.degree
    if r == 0 and s == 0:
        return 1
    if r == 0:
        return p.coeffs[0] ** s
    if s == 0:
        return q.coeffs[0] ** r
    n = r + s
    rows = []
    qc = list(reversed(q.coeffs))  # high-to-low
    pc = list(reversed(p.coeffs))
    for i in range(r):
        rows.append([0] * i + qc + [0] * (n - s - 1 - i))
    for i in range(s):
        rows.append([0] * i + pc + [0] * (n - r - 1 - i))
    return _bareiss_det(rows)


def discriminant_poly(p: IntPoly) -> int:
    """Discriminant of p via (-1)**(d(d-1)/2) * Res(p, p') / lc(p)."""
    d = p.degree
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = resultant(p, p.derivative())
    num = (-1) ** (d * (d - 1) // 2) * res
    assert num % p.lead == 0
    return num // p.lead


# -- factor degrees modulo small primes ------------------------------------------
#
# A polynomial over Z/p is a list of residues, low to high, with no zero
# leading entry; [] is zero.

def _divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a, n = a[:], len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - n)
    for k in range(len(a) - n - 1, -1, -1):
        c = q[k] = a[k + n] * inv % p
        for j, bj in enumerate(b):
            a[k + j] = (a[k + j] - c * bj) % p
    return q, list(_trim(a[:n]))


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    return a


def _mulmod_p(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _divmod_p([c % p for c in out], f, p)[1]


def factor_degrees_mod(f: IntPoly, p: int) -> list[int] | None:
    """Degrees of the irreducible factors of f modulo the prime p, by
    distinct-degree factorization: once the factors of degree below i are
    divided out of g, gcd(g, x**(p**i) - x) is the product of those of
    degree i.  None when p divides lc(f) or f mod p is not squarefree."""
    g = [c % p for c in f.coeffs]
    dg = list(_trim([k * c % p for k, c in enumerate(g)][1:]))
    if g[-1] == 0 or len(_gcd_p(g, dg, p)) > 1:
        return None
    degrees, h, i = [], [0, 1], 0
    while len(g) > 2 * i + 2:
        i += 1
        # h = x**(p**i) mod g, by square and multiply
        power, base, e = [1], h, p
        while e:
            if e & 1:
                power = _mulmod_p(power, base, g, p)
            base, e = _mulmod_p(base, base, g, p), e >> 1
        h = power
        shifted = h + [0] * (2 - len(h))
        shifted[1] -= 1
        common = _gcd_p(g, list(_trim([c % p for c in shifted])), p)
        if len(common) > 1:
            degrees += [i] * ((len(common) - 1) // i)
            g = _divmod_p(g, common, p)[0]
            h = _divmod_p(h, g, p)[1]
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees


def factor_degrees_by_prime(f: IntPoly) -> Iterator[tuple[int, list[int]]]:
    """(p, ``factor_degrees_mod(f, p)``) for the primes p, in increasing
    order, that divide neither lc(f) nor disc(f).  f must be squarefree:
    otherwise no prime qualifies and nothing is ever yielded."""
    p = 1
    while True:
        p += 1
        if all(p % q for q in range(2, isqrt(p) + 1)):
            degrees = factor_degrees_mod(f, p)
            if degrees is not None:
                yield p, degrees


def factor_degree_sieve(f: IntPoly, primes: int) -> set[int]:
    """The degrees 1 <= k < deg f that a factor of the squarefree f over Z
    may have: a factor over Z is a product of factors modulo each prime p
    that divides neither lc(f) nor disc(f), so its degree is a sum of some
    of their degrees.  The allowed sets of the first ``primes`` such p are
    intersected, stopping early once none is left."""
    allowed = set(range(1, f.degree))
    for _, degrees in islice(factor_degrees_by_prime(f), primes):
        sums = {0}
        for k in degrees:
            sums |= {s + k for s in sums}
        allowed &= sums
        if not allowed:
            break
    return allowed
