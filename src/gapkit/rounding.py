"""Directed rational rounding and certified real enclosures.

Every inequality verdict in this package is made from rational bounds that
are rounded *away* from the claim being certified: upper bounds round up,
lower bounds round down.  This module supplies the primitives:

* :func:`monomial_up`, an upper bound on a product of rational powers
  b**(p/q), carried as a dyadic ``m * 2**e`` with a fixed-width mantissa
  rounded up at every step, so huge constants never become exact
  rationals.  It is the only code that rounds a power: :func:`pow_up` and
  :func:`root_up` are its one-factor cases, and a lower bound is the
  reciprocal of ``monomial_up`` on the reciprocal bases, as in
  :func:`root_down`,
* :func:`largest`, the maximum of positive rationals, sized up by bit
  lengths before any megabit product,
* :class:`RatInterval`, a closed interval with rational endpoints, and
* certified ``log``/``exp`` enclosures backed by ``mpmath.iv`` interval
  arithmetic with exact dyadic endpoint extraction, and :func:`exp_up`,
  the upper endpoint of the exp enclosure alone, for the huge exponentials
  whose lower endpoint nobody reads.
"""

from __future__ import annotations

from fractions import Fraction
import math
from math import isqrt, log2

from mpmath import iv

Rat = Fraction


class AbstainError(RuntimeError):
    """Enclosures could not decide the comparison within the budget."""


def _nth_root_floor(n: int, k: int) -> int:
    """Largest integer r with r**k <= n, for n >= 0, k >= 1 (integer Newton)."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # start just above the root: its top 40 bits from a float, plus 2, and
    # the low t bits left to Newton
    t = max(0, n.bit_length() // k - 40)
    x = (int(2 ** (log2(n >> t * k) / k)) + 2) << t
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


# mantissa width of monomial_up, in bits; a value between 2^-5 and 2^133
# then stays a fraction under 10^40, which compact_str prints exactly
_MONOMIAL_BITS = 128


def _dyadic_up(m: int, e: int) -> tuple[int, int]:
    """(m, e) with m cut to _MONOMIAL_BITS bits, rounded up."""
    k = max(0, m.bit_length() - _MONOMIAL_BITS)
    return -(-m >> k), e + k


def _dyadic_pow_up(base: Fraction, n: int) -> tuple[int, int]:
    """Upper bound (m, e) on base**n for base > 0 and n >= 0: base rounded
    up to a dyadic, then square-and-multiply, rounding up at every step."""
    p, q = base.numerator, base.denominator
    s = _MONOMIAL_BITS + q.bit_length() - p.bit_length()
    m = -(-(p << s) // q) if s >= 0 else -(-p // (q << -s))
    m, e = _dyadic_up(m, -s)
    rm, re = 1, 0
    while True:
        if n & 1:
            rm, re = _dyadic_up(rm * m, re + e)
        n >>= 1
        if not n:
            return rm, re
        m, e = _dyadic_up(m * m, 2 * e)


def _dyadic_root_up(m: int, e: int, k: int) -> tuple[int, int]:
    """Upper bound on (m 2^e)^(1/k) with a _MONOMIAL_BITS-bit mantissa: the
    mantissa is shifted left by s, with k dividing e - s, and rooted exactly."""
    s = k * _MONOMIAL_BITS - m.bit_length()
    s += (e - s) % k
    big = m << s
    r = _nth_root_floor(big, k)
    return r + (r ** k != big), (e - s) // k


def monomial_fold(terms, m: int, e: int) -> tuple[int, int]:
    """Upper bound (m, e) on m 2^e times the product of b**x over the (b, x)
    in ``terms``, positive rational b and nonnegative rational x, folded left
    to right.  Each b**(p/q) is the integer power b**p followed by a q-th
    root, with mantissas rounded up to _MONOMIAL_BITS bits at every step, so
    each factor is within about (p/q + 1) 2^(2 - _MONOMIAL_BITS) of its
    value, relatively, however many bits b has; exact when every mantissa
    fits.  The product is rounded after each factor, so a prefix folded once
    and continued gives the bits of the whole list."""
    for base, exp in terms:
        base, exp = Fraction(base), Fraction(exp)
        if base <= 0 or exp < 0:
            raise ValueError("positive base and nonnegative exponent required")
        tm, te = _dyadic_pow_up(base, exp.numerator)
        if exp.denominator > 1:
            tm, te = _dyadic_root_up(tm, te, exp.denominator)
        m, e = _dyadic_up(m * tm, e + te)
    return m, e


def monomial_up(terms, start=(1, 0)) -> Rat:
    """Upper bound on the dyadic ``start`` times the product of the powers
    in ``terms`` (``monomial_fold``)."""
    m, e = monomial_fold(terms, *start)
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def largest(values) -> int:
    """Index of the first largest of the positive rationals ``values``.  A
    positive n/q lies in (2^(k-1), 2^(k+1)) for k = n.bit_length() -
    q.bit_length(), so sizes two or more apart decide without a product of
    megabit parts; closer ones are compared exactly, two integers by their
    numerators.  The current best itself (the same object) is skipped."""
    best = 0
    for i, a in enumerate(values):
        b = values[best]
        ka, kb = (v.numerator.bit_length() - v.denominator.bit_length() for v in (a, b))
        if a is not b and (ka - kb > 1 or (ka - kb > -2 and (
                a.numerator > b.numerator if a.denominator == 1 == b.denominator else a > b))):
            best = i
    return best


def pow_up(base: Rat, exp: Rat) -> Rat:
    """Upper bound on base**exp for base > 0 and rational exp: the
    one-factor ``monomial_up``, on the reciprocal base when exp < 0."""
    base, exp = Fraction(base), Fraction(exp)
    if exp < 0 < base:
        base, exp = 1 / base, -exp
    return monomial_up([(base, exp)])


def root_up(x: Rat, k: int) -> Rat:
    """Upper bound on x**(1/k) for x >= 0; 0 stays exact."""
    x = Fraction(x)
    return monomial_up([(x, Fraction(1, k))]) if x else x


def root_down(x: Rat, k: int) -> Rat:
    """Lower bound on x**(1/k) for x >= 0: the reciprocal of the upper bound
    on (1/x)**(1/k); 0 stays exact."""
    x = Fraction(x)
    return 1 / monomial_up([(1 / x, Fraction(1, k))]) if x else x


class RatInterval:
    """Closed interval [lo, hi] with rational endpoints; certified to contain
    the real value it tracks.  Arithmetic is outward-rounded (here: exact,
    since endpoints are rationals)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- structure ---------------------------------------------------------
    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def intersects(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def mid(self) -> Rat:
        return (self.lo + self.hi) / 2

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = _as_interval(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __mul__(self, other):
        other = _as_interval(other)
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(cands), max(cands))

    __rmul__ = __mul__

    def inverse(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _as_interval(other).inverse()

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def abs(self) -> "RatInterval":
        if self.lo >= 0:
            return RatInterval(self.lo, self.hi)
        if self.hi <= 0:
            return -self
        return RatInterval(0, max(-self.lo, self.hi))

    # -- certified comparisons ---------------------------------------------
    def certainly_lt(self, other) -> bool:
        other = _as_interval(other)
        return self.hi < other.lo

    def certainly_gt(self, other) -> bool:
        other = _as_interval(other)
        return self.lo > other.hi

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"

    def __float__(self):
        return float(self.mid())


def _as_interval(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval(Fraction(x))


# -- certified transcendental enclosures -------------------------------------
#
# mpmath's interval context rounds outward, and its endpoints are exact
# dyadic numbers, so converting them to Fractions preserves the certificate.

def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    man, exp = (-int(man) if sign else int(man)), int(exp)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _endpoint(fn, x: Fraction, side: int, prec: int) -> Fraction:
    """Endpoint ``side`` (0 = lower, 1 = upper) of mpmath's interval
    ``fn`` (``iv.log`` or ``iv.exp``) at the rational x, at ``prec`` bits,
    read from the raw endpoint tuple: no re-rounding at the ambient working
    precision."""
    old = iv.prec
    try:
        iv.prec = prec
        # iv.mpf(int) rounds outward, so the quotient encloses x
        y = fn(iv.mpf(x.numerator) / iv.mpf(x.denominator))
        return _mpf_tuple_to_fraction(y._mpi_[side])
    finally:
        iv.prec = old


def log_interval(x, prec: int = 160) -> RatInterval:
    """Certified enclosure of log(x) for x a positive Fraction or RatInterval."""
    x = _as_interval(x)
    if x.lo <= 0:
        raise ValueError("log of nonpositive value")
    return RatInterval(_endpoint(iv.log, x.lo, 0, prec), _endpoint(iv.log, x.hi, 1, prec))


def exp_interval(x) -> RatInterval:
    """Certified enclosure of exp(x) for x a Fraction or RatInterval, at 160
    bits."""
    x = _as_interval(x)
    return RatInterval(_endpoint(iv.exp, x.lo, 0, 160), _endpoint(iv.exp, x.hi, 1, 160))


def exp_up(x: Rat) -> Rat:
    """Upper bound on exp(x): the upper endpoint of ``exp_interval(x)``,
    without converting the lower one (a megabit integer for large x)."""
    return _endpoint(iv.exp, Fraction(x), 1, 160)


def simplest_rational_in(lo: Rat, hi: Rat) -> Rat:
    """The rational with smallest denominator in [lo, hi] (Stern-Brocot).
    When the interval is tight around a rational p/q (width < 1/q**2), that
    rational is the unique denominator-<=q element, hence the result."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_in(-hi, -lo)

    def rec(a: Fraction, b: Fraction) -> Fraction:
        fa = math.floor(a)
        if Fraction(fa) == a:
            return a
        if fa + 1 <= b:
            return Fraction(fa + 1)
        return fa + 1 / rec(1 / (b - fa), 1 / (a - fa))

    return rec(lo, hi)


# significant digits kept by tidy_up and tidy_down
_TIDY_DIGITS = 18


def _dec_exponent(x: Rat) -> int:
    """Rough floor(log10 |x|); only steers the tidying scale."""
    num, den = abs(x.numerator), x.denominator
    return (num.bit_length() - den.bit_length()) * 301 // 1000


def tidy_up(x: Rat) -> Rat:
    """Upper bound on x keeping about 18 significant digits; keeps reported
    constants and their downstream powers small."""
    return _tidy(x, True)


def tidy_down(x: Rat) -> Rat:
    """Lower bound on x keeping about 18 significant digits; never loses the
    sign of a positive value."""
    return _tidy(x, False)


def _tidy(x: Rat, up: bool) -> Rat:
    """x rounded up or down to a multiple of 10^-k, k chosen from its
    decimal exponent, by one integer division; an integer (0 included)
    comes back unchanged, as does a value that would round to 0."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if den == 1:
        return x
    scale = 10 ** max(0, _TIDY_DIGITS - _dec_exponent(x))
    q = -(-num * scale // den) if up else num * scale // den
    return Fraction(q, scale) if q else x


def compact_str(x) -> str:
    """Exact p/q for small fractions, mantissa*10^e approximation for the
    astronomically large constants (no big-integer arithmetic at all)."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if abs(num) < 10 ** 40 and den < 10 ** 40:
        return str(x)
    sign = "-" if num < 0 else ""
    num = abs(num)
    # log10|x| from the top bits; exactness is irrelevant for display
    sn, sd = max(0, num.bit_length() - 64), max(0, den.bit_length() - 64)
    l10 = (sn - sd) * math.log10(2) + math.log10((num >> sn) / (den >> sd))
    e = math.floor(l10)
    mant = 10 ** (l10 - e)
    return f"{sign}{mant:.6g}*10^{e}"


def certified_floor(x: RatInterval) -> int:
    """Floor of the real enclosed by x, provided the enclosure does not
    straddle an integer.  Raises ValueError otherwise (caller refines)."""
    flo = math.floor(x.lo)
    fhi = math.floor(x.hi)
    if flo != fhi:
        raise ValueError(f"enclosure {x} straddles an integer boundary")
    return flo
