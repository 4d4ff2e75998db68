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
* certified ``log``/``exp`` enclosures summed on integers, each endpoint a
  dyadic rounded outward, and :func:`exp_up`, the upper endpoint of the
  exp enclosure alone, for the huge exponentials whose lower endpoint
  nobody reads.
"""

from __future__ import annotations

from fractions import Fraction
import math
from math import isqrt, log2

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
# Integer fixed point (Brent & Zimmermann, Modern Computer Arithmetic, 4.2-4.4):
# reduce by a power of 2 (log) or a multiple of ln 2 (exp), sum a series at
# w = prec + 24 bits with an explicit error bound, round outward to ``prec`` bits.

def _ln2(w: int) -> int:
    """L with L <= 2**w ln 2 < L + 2: ln 2 = 2 atanh(1/3), summed with floors
    at g more bits, each of its n < w terms short by under 2.2 units, so
    the sum lies less than 2**g units below 2**(w+g) ln 2."""
    g = w.bit_length() + 2
    t, n, s = (1 << w + g) // 3, 0, 0
    while t:
        s += t // (2 * n + 1)
        t, n = t // 9, n + 1
    return (2 * s) >> g


def _outward(n: int, e: int, prec: int, up: bool) -> Fraction:
    """n * 2**e rounded to ``prec`` significant bits, up or down."""
    s = max(0, abs(n).bit_length() - prec)
    n, e = (-(-n >> s) if up else n >> s), e + s
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


def _log_bound(x: Fraction, prec: int, up: bool) -> Fraction:
    """Bound on log x, x > 0: with y = x / 2**k in [1/sqrt 2, sqrt 2],
    log x = k ln 2 + 2 atanh(u), u = (y - 1) / (y + 1), |u| <= 0.172.  The
    odd atanh series sums powers of a fixed-point |u| with floors: each
    power is off by at most 1.5 units, each term by 2.5, the terms left once
    one is 0 sum to under 1, and k ln 2 is off by under 3.  At k = 0, log x
    is about 2u, and w grows by the bits lost to u's smallness, so the bound
    stays relative."""
    if x == 1:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    k = p.bit_length() - q.bit_length()
    a, b = (p, q << k) if k >= 0 else (p << -k, q)
    if a * a > 2 * b * b:
        k, b = k + 1, 2 * b
    elif 2 * a * a < b * b:
        k, a = k - 1, 2 * a
    w = prec + 24 + (0 if k else max(0, (a + b).bit_length() - abs(a - b).bit_length()))
    u = (abs(a - b) << w) // (a + b)
    u2, s, n = u * u >> w, 0, 0
    while u:
        s += u // (2 * n + 1)
        u, n = u * u2 >> w, n + 1
    kb = abs(k).bit_length()
    v, err = (2 * s if a > b else -2 * s) + (k * _ln2(w + kb) >> kb), 5 * n + 7
    return _outward(v + err if up else v - err, -w, prec, up)


def _exp_bound(x: Fraction, prec: int, up: bool) -> Fraction:
    """Bound on exp x: x = k ln 2 + r, k the integer nearest x / ln 2 and
    |r| <= 0.35, with r's fixed-point t within 2 units (ln 2 carries k's
    bits more).  The Taylor series of exp(t / 2**w) sums terms each within
    1.6 units, the terms left once one is 0 sum to under 2, and from t to
    r exp moves by at most 2.4 units more."""
    if not x:
        return Fraction(1)
    p, q = x.numerator, x.denominator
    w = prec + 24
    big = w + max(0, p.bit_length() - q.bit_length()) + 3
    ln2, xs = _ln2(big), (p << big) // q
    k = (2 * xs + ln2) // (2 * ln2)
    t = (xs - k * ln2) >> (big - w)
    term, s, n = 1 << w, 0, 0
    while term:
        s, n = s + term, n + 1
        term = term * t // (n << w)
    return _outward(s + 2 * n + 4 if up else s - 2 * n - 4, k - w, prec, up)


def log_interval(x, prec: int = 160) -> RatInterval:
    """Certified enclosure of log(x) for x a positive Fraction or RatInterval,
    each endpoint rounded outward to ``prec`` bits."""
    x = _as_interval(x)
    if x.lo <= 0:
        raise ValueError("log of nonpositive value")
    return RatInterval(_log_bound(x.lo, prec, False), _log_bound(x.hi, prec, True))


def exp_interval(x) -> RatInterval:
    """Certified enclosure of exp(x) for x a Fraction or RatInterval, at 160
    bits."""
    x = _as_interval(x)
    return RatInterval(_exp_bound(x.lo, 160, False), _exp_bound(x.hi, 160, True))


def exp_up(x: Rat) -> Rat:
    """Upper bound on exp(x): the upper endpoint of ``exp_interval(x)``,
    without computing the lower one (a megabit integer for large x)."""
    return _exp_bound(Fraction(x), 160, True)


def simplest_rational_in(lo: Rat, hi: Rat) -> Rat:
    """The rational with smallest denominator in [lo, hi] (Stern-Brocot).
    When the interval is tight around a rational p/q (width < 1/q**2), that
    rational is the unique denominator-<=q element, hence the result.  The
    loop walks the partial quotients that lo = an/ad and hi = bn/bd share."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_in(-hi, -lo)
    (an, ad), (bn, bd), terms = lo.as_integer_ratio(), hi.as_integer_ratio(), []
    t, r = divmod(an, ad)
    while r and (t + 1) * bd > bn:   # ceil(lo) > hi
        terms.append(t)
        (an, ad), (bn, bd) = (bd, bn - t * bd), (ad, r)   # 1 / (hi - t), 1 / (lo - t)
        t, r = divmod(an, ad)
    p, q = t + (r != 0), 1   # ceil(lo)
    for t in reversed(terms):
        p, q = t * p + q, p
    return Fraction(p, q)


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


# floor(2**128 log10 2)
_LOG10_2 = 0x4D104D427DE7FBCC47C4ACD605BE48BC


def compact_str(x, up: bool) -> str:
    """x as p/q when both parts are below 10^40, else as a 6-digit mantissa
    times 10^e, rounded up or down, with no power of 10 built.  log10 x, at
    2**-128 units, is (s_n - s_d) log10 2, one unit short per bit of the
    shifts that keep each part's top 64 bits, plus the float log10 of their
    quotient, within 2**-47; so the mantissa t is within a factor 1 +- 2**-46
    of its value, and the bound is the directed rounding of t (1 +- 2**-44):
    that of x unless x is that close to a 6-digit value, then the next one
    out.  A mantissa that rounds up to 10 carries into the exponent."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if abs(num) < 10 ** 40 and den < 10 ** 40:
        return str(x)
    if num < 0:
        return "-" + compact_str(-x, not up)
    sn, sd = max(0, num.bit_length() - 64), max(0, den.bit_length() - 64)
    l10 = (sn - sd) * _LOG10_2 + int(math.log10((num >> sn) / (den >> sd)) * 2.0 ** 128)
    e = l10 >> 128
    t, eta = 10 ** (5 + (l10 - (e << 128)) / 2 ** 128), 2.0 ** -44
    m = math.ceil(t * (1 + eta)) if up else math.floor(t * (1 - eta))
    if m >= 10 ** 6:
        m, e = -(-m // 10) if up else m // 10, e + 1
    elif m < 10 ** 5:
        m, e = math.floor(10 * t * (1 - eta)), e - 1
    digits = str(m)
    return f"{(digits[0] + '.' + digits[1:]).rstrip('0').rstrip('.')}*10^{e}"


def certified_floor(x: RatInterval) -> int:
    """Floor of the real enclosed by x, provided the enclosure does not
    straddle an integer.  Raises ValueError otherwise (caller refines)."""
    flo = math.floor(x.lo)
    fhi = math.floor(x.hi)
    if flo != fhi:
        raise ValueError(f"enclosure {x} straddles an integer boundary")
    return flo
