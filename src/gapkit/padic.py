"""p-adic algebraic numbers via Hensel witnesses.

A :class:`PadicAlgNum` is a simple residue root of an irreducible integer
polynomial: f(r0) = 0 mod p with f'(r0) a unit mod p.  Newton lifting gives
the root modulo any power p**k, and every lift is compatible with the ones
below it.  Valuations are exact; when the working precision cannot decide a
valuation the result honestly reports "valuation >= k" instead of a value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .intpoly import IntPoly, describe
from .linalg import lagrange_reduce
from .rounding import AbstainError


class HenselError(ValueError):
    pass


@dataclass(frozen=True)
class PadicAbs:
    """Exact p-adic absolute value p**(-valuation), or a certified upper
    bound |.|_p <= p**(-min_valuation) when the value vanishes to the
    working precision (exact = False)."""

    prime: int
    valuation: int
    exact: bool = True

    @property
    def value(self) -> Fraction:
        return Fraction(1, self.prime) ** self.valuation

    def __repr__(self):
        if self.exact:
            return f"|.|_{self.prime} = {self.prime}^(-{self.valuation})"
        return f"|.|_{self.prime} <= {self.prime}^(-{self.valuation}) (valuation >= {self.valuation})"


@dataclass(frozen=True)
class PadicAlgNum:
    """p-adic algebraic number selected by a Hensel witness residue."""

    minpoly: IntPoly
    prime: int
    residue: int
    _lifts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def lead(self) -> int:
        return self.minpoly.lead

    def lift(self, k: int) -> int:
        """Root of the minimal polynomial mod p**k congruent to the witness.

        The cache only grows; reads of previously computed lifts are safe
        under concurrent extension (dict assignment is atomic in CPython).
        """
        if k < 1:
            raise ValueError("precision must be >= 1")
        cached = self._lifts.get(k)
        if cached is not None:
            return cached
        p, f = self.prime, self.minpoly
        fp = f.derivative()
        r = self.residue % p
        mod = p
        for j in range(2, k + 1):
            mod *= p
            # Newton step: r <- r - f(r)/f'(r) mod p^j
            fr = f.eval_int(r) % mod
            dr = fp.eval_int(r) % p
            inv = pow(dr, -1, p)
            step = (fr // (mod // p) * inv) % p
            r = (r - step * (mod // p)) % mod
        self._lifts[k] = r
        return r

    def __str__(self):
        return f"{self.prime}-adic root {self.residue} of {self.minpoly}"


# the first 13 primes: as Miller-Rabin bases they decide primality for every
# n below _PROVEN_BELOW (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, decided by Miller-Rabin on the bases _MR_BASES.
    A base that witnesses compositeness proves it for any n; a prime verdict
    is proven only below _PROVEN_BELOW, and above it AbstainError is
    raised instead."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s, d = 0, n - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PROVEN_BELOW:
        raise AbstainError(f"{n} passes Miller-Rabin on 13 bases, which proves "
                           f"primality only below {_PROVEN_BELOW}")
    return True


def hensel_root(f: IntPoly, p: int, r0: int) -> PadicAlgNum:
    """Validated Hensel witness: p prime, f(r0) = 0 mod p and f'(r0) != 0
    mod p.  Raises AbstainError when the primality of p cannot be proven."""
    from .algnum import is_irreducible, normalize_minimal_poly

    if not is_prime(p):
        raise HenselError(f"{p} is not prime")
    f = normalize_minimal_poly(f)
    if not is_irreducible(f):
        raise HenselError(f"polynomial of {describe(f)} is not irreducible over Q")
    r0 = r0 % p
    if f.eval_int(r0) % p != 0:
        raise HenselError(f"f({r0}) != 0 mod {p}")
    if f.derivative().eval_int(r0) % p == 0:
        raise HenselError(f"f'({r0}) = 0 mod {p}: simple-root condition fails")
    return PadicAlgNum(f, p, r0)


def padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_abs_linear(xi: PadicAlgNum, x: int, y: int, k: int) -> PadicAbs:
    """Exact |y*alpha - x|_p, or the bound "valuation >= k" when y*alpha - x
    vanishes mod p**k.  Exact equality x = y*alpha is not decidable from a
    finite lift, so the caller must handle the inexact answer (raise k)."""
    p = xi.prime
    r = xi.lift(k)
    val = (y * r - x) % (p ** k)
    if val == 0:
        return PadicAbs(p, k, exact=False)
    return PadicAbs(p, padic_valuation(val, p), exact=True)


def padic_abs_poly(xi: PadicAlgNum, w: IntPoly, k: int) -> PadicAbs:
    """|W(alpha)|_p from the witness lift; exact when the valuation is < k."""
    p = xi.prime
    val = w.eval_int(xi.lift(k)) % (p ** k)
    if val == 0:
        return PadicAbs(p, k, exact=False)
    return PadicAbs(p, padic_valuation(val, p), exact=True)


def liouville_c7(xi: PadicAlgNum) -> Fraction:
    """Exact rational C7 with |y*alpha - x|_p >= C7 / H(x, y)**d for all
    integers (x, y) != (y*alpha scaled): C7 = (c_d**(d+1) (d+1) H(alpha))**(-1)."""
    d = xi.degree
    return Fraction(1, xi.lead ** (d + 1) * (d + 1) * xi.minpoly.height())


def derive_padic(xi: PadicAlgNum, coeffs, g: IntPoly) -> PadicAlgNum:
    """p-adic image of beta = sum coeffs[i] * alpha**i, as a Hensel witness
    on beta's minimal polynomial g.  Requires the coefficient denominators
    to be prime to p (else beta need not be a p-adic integer)."""
    p = xi.prime
    r = xi.lift(2)
    acc = Fraction(0)
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c.denominator % p == 0:
            raise HenselError(f"coefficient denominator divisible by {p}")
        acc += c * r ** i
    num, den = acc.numerator, acc.denominator
    residue = (num * pow(den, -1, p)) % p
    return hensel_root(g, p, residue)


def good_padic_approximations(xi: PadicAlgNum, count: int) -> list[tuple[int, int]]:
    """Primitive pairs (x, y) with small height and high v_p(y*alpha - x),
    found by reducing the lattice {(x, y) : x = y * lift mod p**k} for
    increasing k.  The p-adic analog of continued-fraction convergents."""
    out: list[tuple[int, int]] = []
    seen = set()
    k = 2
    while len(out) < count and k < 2 + 4 * count + 60:
        p_k = xi.prime ** k
        r = xi.lift(k)
        b1, b2 = lagrange_reduce((p_k, 0), (r, 1))
        for v in (b1, b2, (b1[0] + b2[0], b1[1] + b2[1])):
            x, y = v
            if x == 0 and y == 0:
                continue
            g = gcd(abs(x), abs(y))
            if g > 1:
                if g % xi.prime == 0:
                    continue
                x, y = x // g, y // g
            if (x - y * r) % p_k != 0:
                continue
            if x < 0 or (x == 0 and y < 0):
                x, y = -x, -y
            if (x, y) in seen:
                continue
            seen.add((x, y))
            out.append((x, y))
        k += 1
    return out[:count]
