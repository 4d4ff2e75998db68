"""Gap-principle constants and dichotomy checks.

Everything here computes *certified* rational bounds: upper bounds round up,
lower bounds round down, and inequality verdicts between rational data and
rational powers are decided exactly by cross-powering (no floating point).
The only transcendental evaluations (logs and exponentials in the counting
bound and the large-height adjustments) run through certified interval
enclosures.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd

from .algnum import AlgNum, PowerBasisRep, liouville_c6, power_rep
from .intpoly import IntPoly, poly_gcd_q, resultant, squarefree_part
from .isolation import (IsolationError, RootEnclosure, disk_distance, first_rung, mahler_measure,
                        root_system)
from .minpair import (MinimalPair, build_system, c12, c13, c14, find_pair)
from .padic import PadicAlgNum, liouville_c7, padic_valuation
from .record import Record
from .rounding import (AbstainError, RatInterval, _nth_root_floor, certified_floor, compact_str,
                       exp_up, largest, log_interval, monomial_fold, monomial_up,
                       pow_up, root_down, root_up, tidy_down, tidy_up)


class HypothesisError(ValueError):
    """A stated hypothesis of the theorem being exercised is violated."""


# -- elementary exact comparisons ---------------------------------------------

def compare_to_power(a: Fraction, base: Fraction, exp: Fraction) -> int:
    """Sign of a - base**exp for positive rationals a, base; exact: a**q
    against base**p, exp = p/q, cross-multiplied in integers."""
    a, base, exp = Fraction(a), Fraction(base), Fraction(exp)
    if a <= 0 or base <= 0:
        raise ValueError("positive values required")
    p, q = exp.numerator, exp.denominator
    bn, bd = (base.numerator, base.denominator) if p >= 0 else (base.denominator, base.numerator)
    lhs, rhs = a.numerator ** q * bd ** abs(p), bn ** abs(p) * a.denominator ** q
    return (lhs > rhs) - (lhs < rhs)


# -- approximation pairs ----------------------------------------------------------

class ApproxPair(Record):
    """Primitive rational approximation x/y with height max(|x|, |y|)."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        if x == 0 and y == 0:
            raise ValueError("zero pair")
        if gcd(abs(x), abs(y)) > 1:
            raise ValueError("pair is not primitive")
        self._init(x, y)

    @property
    def height(self) -> int:
        return max(abs(self.x), abs(self.y))

    def value(self) -> Fraction:
        return Fraction(self.x, self.y)

    @staticmethod
    def reduced(x: int, y: int) -> "ApproxPair":
        g = gcd(abs(x), abs(y))
        if g > 1:
            x, y = x // g, y // g
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        return ApproxPair(x, y)


def _arch_sign(alpha: AlgNum, pair: ApproxPair, c0: Fraction, h: int, mu: Fraction) -> int:
    """Certified sign of |alpha - x/y| / c0 - h**-mu (y != 0 required):
    |alpha - x/y| = [lo, hi] / (|y| 2**b) read off each rung of alpha's
    ladder by ``disk_distance``, until (lo den c0)**q h**p or (hi den c0)**q
    h**p, mu = p/q, decides against (|y| 2**b num c0)**q; to 300 bits past
    c0 / h**mu > 2**-(mu bits(h) + bits(den c0) - bits(num c0) + 1); past
    the last, ``PrecisionError``."""
    if pair.y == 0:
        raise ValueError("y = 0 has no Archimedean quality")
    depth = (ceil(mu * h.bit_length()) + c0.denominator.bit_length()
             - c0.numerator.bit_length() + 301)
    q, hp = mu.denominator, h ** mu.numerator
    for table in root_system(alpha.minpoly).ladder(depth):
        lo, hi = disk_distance(table.alpha[alpha.index], pair.x, pair.y, 1 << table.bits)
        rhs = ((abs(pair.y) << table.bits) * c0.numerator) ** q
        if (hi * c0.denominator) ** q * hp < rhs:
            return -1
        if (lo * c0.denominator) ** q * hp > rhs:
            return 1


def certify_quality_below(alpha, pair: ApproxPair, mu: Fraction, c0: Fraction) -> bool:
    """Certified check of the approximation hypothesis:

    Archimedean: |alpha - x/y| < C0 / H**mu, on alpha's ladder (``_arch_sign``).
    p-adic:      |y alpha - x|_p < C0 / H**mu, that is v_p(y alpha - x) >= k
                 for the least k with p**k C0 > H**mu, read off one lift to
                 p**k: (p**k num)**b > H**a den**b, mu = a/b, exactly when
                 p**k num exceeds the integer b-th root of H**a den**b.

    Returns True/False when decided; the Archimedean side raises
    AbstainError at budget.
    """
    mu, c0 = Fraction(mu), Fraction(c0)
    if mu <= 0 or c0 <= 0:
        raise ValueError("positive mu and C0 required")
    h = pair.height
    if isinstance(alpha, PadicAlgNum):
        p, b = alpha.prime, mu.denominator
        bound = _nth_root_floor(h ** mu.numerator * c0.denominator ** b, b)
        k, scaled = 0, c0.numerator
        while scaled <= bound:
            k, scaled = k + 1, scaled * p
        return k == 0 or (pair.y * alpha.lift(k) - pair.x) % p ** k == 0
    return _arch_sign(alpha, pair, c0, h, mu) < 0


# -- the vanishing-case gap machinery -----------------------------------------------

def c15(r: int) -> Fraction:
    """Upper bound on 2**(r**2) * (r+1)**((3r**2+2r)/2), exact when the
    mantissa fits (r = 2 and r = 3, for instance)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return monomial_up([(2, r * r), (r + 1, Fraction(3 * r * r + 2 * r, 2))])


def resultant_gcd_bound(p: IntPoly, q: IntPoly) -> int:
    """rho = |lc(P)**(r-s) * Res(P, Q)|: a universal modulus for
    gcd(P(a,b), Q(a,b)) over coprime integer pairs (a, b)."""
    r, s = p.degree, q.degree
    if r < 1 or r < s:
        raise ValueError("need deg P >= max(1, deg Q)")
    if poly_gcd_q(p, q).degree != 0:
        raise ValueError("polynomials share a factor")
    rho = abs(p.lead ** (r - s) * resultant(p, q))
    assert rho >= 1
    return rho


def two_forms_constant(p: IntPoly, q: IntPoly) -> Fraction:
    """Rounded-down positive rational C with
    max(|P(a,b)|, |Q(a,b)|) >= C**r * H(a,b)**r for the homogenizations of
    coprime P, Q to degree r = deg P.  The larger of the closed-form floor
    and a direct enclosure of the factor-ratio constant is returned."""
    r, s = p.degree, q.degree
    if r < 1 or r < s:
        raise ValueError("need deg P >= max(1, deg Q)")
    if poly_gcd_q(p, q).degree != 0:
        raise ValueError("polynomials share a factor")
    h = Fraction(max(p.height(), q.height()))
    if s == 0:
        closed = 1 / monomial_up([(2, 1), (r + 1, Fraction(1, 2)), (h, 1)])
    else:
        closed = 1 / monomial_up([(2, r), (h, 2 * r + 1), (r + 1, Fraction(3 * r, 2))])
    direct = _two_forms_direct(p, q, r, s)
    return max(tidy_down(closed), direct)


def _two_forms_direct(p: IntPoly, q: IntPoly, r: int, s: int) -> Fraction:
    """Direct lower rounding of min|a_i d_j - b_i c_j| / max(...) over the
    canonical linear-factor splitting of the homogenized pair:

        P = prod (cP^(1/r) x - cP^(1/r) mu_i y),
        Q = prod over j<=s (cQ^(1/r) x - cQ^(1/r) nu_j y) * (cQ^(1/r) y)^(r-s).

    Returns a conservative zero when the enclosures fail to separate."""
    try:
        cp_root = _root_iv(abs(p.lead), r)
        cq_root = _root_iv(abs(q.lead), r)
        prod_root = _root_iv(abs(p.lead * q.lead), r)
        mus = _sf_roots(p)
        nus = _sf_roots(q) if s >= 1 else []
        # numerator: factors pair (i, j <= s) give |cP cQ|^(1/r) |mu_i - nu_j|;
        # the y-only factors (j > s) give |cP cQ|^(1/r)
        num_lo = prod_root.lo if s < r else None
        for e_mu in mus:
            for e_nu in nus:
                cand = (prod_root * e_mu.distance_interval(e_nu)).lo
                num_lo = cand if num_lo is None else min(num_lo, cand)
        # denominator: max over (i, j) of max(|a_i|+|c_j|, |b_i|+|d_j|)
        den_hi = Fraction(0)
        mu_abs_hi = [e.abs_interval().hi for e in mus] or [Fraction(0)]
        j_options = (True,) if s == r else ((True, False) if s >= 1 else (False,))
        for b_abs in ((cp_root * RatInterval(0, m)).hi for m in mu_abs_hi):
            for j_small in j_options:
                gam = cq_root.hi if j_small else Fraction(0)
                if j_small:
                    delts = [(cq_root * RatInterval(0, e.abs_interval().hi)).hi
                             for e in nus]
                else:
                    delts = [cq_root.hi]
                for delt in delts:
                    den_hi = max(den_hi, cp_root.hi + gam, b_abs + delt)
        if num_lo is None or num_lo <= 0 or den_hi <= 0:
            return Fraction(0)
        return tidy_down(num_lo / den_hi)
    except (IsolationError, ValueError, ZeroDivisionError):
        return Fraction(0)


def _root_iv(n: int, r: int) -> RatInterval:
    f = Fraction(n)
    return RatInterval(root_down(f, r), root_up(f, r))


def _sf_roots(p: IntPoly) -> list[RootEnclosure]:
    """The roots of p's squarefree part (degree >= 1), read off its first rung."""
    q = squarefree_part(p)
    table = first_rung(q)
    return [RootEnclosure(q, i, z, table.bits) for i, z in enumerate(table.alpha)]


def vanishing_gap(p: IntPoly, q: IntPoly, x1: int, y1: int
                  ) -> tuple[int, int, Fraction]:
    """The forced second approximation when R(x, y) = P(x) + y Q(x) vanishes
    at (x1/y1, x2/y2): returns (x2, y2) in lowest terms and the certified
    height gap floor H1**r / (C15 * max(H(P), H(Q))**(2r^2+3r))."""
    if gcd(abs(x1), abs(y1)) != 1:
        raise ValueError("(x1, y1) must be primitive")
    r = max(p.degree, q.degree)
    pv = p.eval_pair(x1, y1, r)
    qv = q.eval_pair(x1, y1, r)
    if qv == 0:
        raise ZeroDivisionError("Q vanishes at x1/y1")
    x2, y2 = -pv, qv
    g = gcd(abs(x2), abs(y2))
    if g:
        x2, y2 = x2 // g, y2 // g
    if y2 < 0 or (y2 == 0 and x2 < 0):
        x2, y2 = -x2, -y2
    h = Fraction(max(p.height(), q.height()))
    h1 = Fraction(max(abs(x1), abs(y1)))
    denom_up = c15(r) * h ** (2 * r * r + 3 * r)
    bound = h1 ** r / denom_up
    if max(abs(x2), abs(y2)) < bound:
        raise AssertionError("vanishing-gap height bound violated")
    return x2, y2, bound


# -- Moebius relations and derived approximations ----------------------------------

class MobiusRelation(Record):
    """beta = (s alpha + t) / (u alpha + v) with sv - tu != 0; acts on
    approximations by (x, y) -> (s x + t y, u x + v y)."""

    __slots__ = ("s", "t", "u", "v")

    def __init__(self, s: int, t: int, u: int, v: int):
        self._init(s, t, u, v)

    @property
    def det(self) -> int:
        return self.s * self.v - self.t * self.u

    def image(self, pair: ApproxPair) -> "ApproxPair":
        xp = self.s * pair.x + self.t * pair.y
        yp = self.u * pair.x + self.v * pair.y
        if xp == 0 and yp == 0:
            raise ZeroDivisionError("pair maps to zero")
        return ApproxPair.reduced(xp, yp)


def derived_approx(x: int, y: int, rel: MobiusRelation) -> tuple[int, int]:
    """Reduced image (x', y') = (s x + t y, u x + v y) of an approximation."""
    pair = rel.image(ApproxPair.reduced(x, y))
    return pair.x, pair.y


def mobius_relation(alpha: AlgNum, beta: AlgNum,
                    rep: PowerBasisRep | None = None) -> MobiusRelation | None:
    """The integer Moebius relation connecting beta to alpha, or None when
    r(alpha, beta) >= 2.  Unique up to scaling for degree >= 3."""
    if rep is None:
        rep = power_rep(alpha, beta)
    if beta.degree < 2:
        raise HypothesisError("beta must be irrational")
    system = build_system(alpha, rep, 1)
    basis = system.integer_kernel_basis()
    if not basis:
        return None
    vec = basis[0]
    # vector (a0, a1 | a2, a3): P = a1 x + a0, Q = a3 x + a2,
    # P(alpha) + beta Q(alpha) = 0  =>  beta = (s alpha + t)/(u alpha + v)
    rel = MobiusRelation(s=-vec[1], t=-vec[0], u=vec[3], v=vec[2])
    if rel.det == 0:
        raise AssertionError("degenerate Moebius relation for irrational beta")
    return rel


# -- gap constants -------------------------------------------------------------------

class GapConstants(Record):
    """The pair (C_small, C_big) controlling one generalized gap principle."""

    __slots__ = ("metric", "c_small", "c_big", "mu", "c0", "degree", "provenance")

    def __init__(self, metric: str,         # "archimedean" | "p-adic"
                 c_small: Fraction,         # height floor (C1 or C3)
                 c_big: Fraction,           # gap denominator (C2 or C4)
                 mu: Fraction, c0: Fraction, degree: int, provenance: tuple = ()):
        if c_small <= 0 or c_big <= 0:
            raise ValueError("constants must be positive")
        self._init(metric, c_small, c_big, mu, c0, degree, provenance)

    def desk_mode(self) -> "GapConstants":
        """Copy with the height floor lowered to 1, so the dichotomy
        conclusion can be exercised on desk-scale data.  The honest floor is
        preserved in the provenance."""
        note = ("desk-mode: height floor overridden to 1; honest C_small",
                str(self.c_small))
        return GapConstants(self.metric, Fraction(1), self.c_big, self.mu,
                            self.c0, self.degree, self.provenance + (note,))


def _validate_mu(d: int, mu: Fraction):
    mu = Fraction(mu)
    if not (Fraction(d, 2) + 1 < mu < d):
        raise HypothesisError(f"mu = {mu} outside ((d/2)+1, d) for d = {d}")
    return mu


def height_floor_branches(d: int, mu: Fraction, c0: Fraction, wronskian_floor, closing,
                          tails) -> list[tuple[tuple[str, Fraction], ...]]:
    """The three branches of the height floor C1 (C3 in the p-adic case) of
    each of some numbers, each one ``monomial_up``; the floor is their max:

        C0^(1/mu), W^(1/mu) and
        (2^(d^2 mu/4) ((d+2)/2)^((3d^2+4d) mu/8) L)^(1/(2mu - d)).

    W and L (the rest of the Liouville closing) are products of factors
    [(base, exponent), ...]: first ``wronskian_floor`` and ``closing``, which
    the numbers share, then each number's own (W, L) factors in ``tails``.
    The bases are upper bounds (the reciprocal of a lower bound where a
    constant divides), the exponents come before the division by mu or by
    2mu - d.  ``monomial_up`` rounds after each factor, left to right, so a
    shared prefix folded once (``monomial_fold``) and continued gives the
    bits of folding each whole list."""
    closing = [(2, Fraction(d * d, 4) * mu),
               (Fraction(d + 2, 2), Fraction(3 * d * d + 4 * d, 8) * mu), *closing]
    w_head = monomial_fold([(b, x / mu) for b, x in wronskian_floor], 1, 0)
    l_head = monomial_fold([(b, x / (2 * mu - d)) for b, x in closing], 1, 0)
    c0_branch = ("C0^(1/mu)", monomial_up([(c0, 1 / mu)]))
    return [(c0_branch,
             ("wronskian-floor", monomial_up([(b, x / mu) for b, x in w], w_head)),
             ("liouville-closing", monomial_up([(b, x / (2 * mu - d)) for b, x in l], l_head)))
            for w, l in tails]


def archimedean_floor_branches(d: int, mu: Fraction, c0: Fraction, c12v: Fraction,
                               roots) -> list[tuple[tuple[str, Fraction], ...]]:
    """The branches of C1 (``height_floor_branches``) of each number in
    ``roots``, given as (C13, C6, max(1, |alpha|)): lower bounds on |W(alpha)|
    and on the Liouville constant, and an upper bound on max(1, |alpha|).
    The factors are W = 2^((d+6)/2) ((d+2)/2) C0 C12^2 max(1, |alpha|)^d / C13
    and L = C0 C12^((d^2+3d) mu/2 + 2) max(1, |alpha|)^d / (C6 C13), with the
    upper bound C12 that the numbers share: 2, (d+2)/2, C0 and C12 open both
    lists, and are folded once for all the numbers."""
    return height_floor_branches(
        d, mu, c0, [(2, Fraction(d + 6, 2)), (Fraction(d + 2, 2), 1), (c0, 1), (c12v, 2)],
        [(c0, 1), (c12v, Fraction(d * d + 3 * d, 2) * mu + 2)],
        [([(1 / c13v, 1), (max1_up, d)], [(max1_up, d), (1 / c6v, 1), (1 / c13v, 1)])
         for c13v, c6v, max1_up in roots])


def archimedean_c2(d: int, c0: Fraction, c12v: Fraction, max1_up: Fraction,
                   beta_abs_up: Fraction) -> Fraction:
    """C2 = C0 2^((d+2)/2) (2 + |beta|) C12 max(1, |alpha|)^(d/2), rounded up,
    from upper bounds on C12, max(1, |alpha|) and |beta|."""
    return tidy_up(monomial_up([(c0, 1), (2, Fraction(d + 2, 2)), (2 + beta_abs_up, 1),
                                (c12v, 1), (max1_up, Fraction(d, 2))]))


def archimedean_constants(alpha: AlgNum, beta: AlgNum, mu, c0,
                          pair: MinimalPair | None = None,
                          rep: PowerBasisRep | None = None) -> GapConstants:
    """C1, C2 of the Archimedean gap principle, rounded upward (safe)."""
    d = alpha.degree
    mu = _validate_mu(d, mu)
    c0 = Fraction(c0)
    if c0 <= 0:
        raise HypothesisError("C0 must be positive")
    if rep is None:
        rep = power_rep(alpha, beta)
    if pair is None:
        pair = find_pair(alpha, beta, rep=rep)
    c12v = c12(alpha, beta, rep, pair)
    c13v = c13(alpha, pair)
    c6v = liouville_c6(alpha)
    beta_abs_up = beta.abs_interval().hi
    max1_up = max(Fraction(1), alpha.abs_interval().hi)

    c2 = archimedean_c2(d, c0, c12v, max1_up, beta_abs_up)
    (branches,) = archimedean_floor_branches(d, mu, c0, c12v, [(c13v, c6v, max1_up)])
    c1 = max(b for _, b in branches)
    prov = tuple((name, compact_str(val, True)) for name, val in branches)
    return GapConstants("archimedean", tidy_up(c1), c2, mu, c0, d,
                        provenance=prov + (("C12", compact_str(c12v, True)),
                                           ("C13", compact_str(c13v, False)),
                                           ("C6", compact_str(c6v, False))))


def nonarchimedean_constants(xi: PadicAlgNum, pair: MinimalPair, mu, c0
                             ) -> GapConstants:
    """C3, C4 of the non-Archimedean gap principle.  ``pair`` carries the
    algebraic data (alpha, beta, representation); xi must be a Hensel
    witness on the same minimal polynomial."""
    if xi.minpoly != pair.alpha.minpoly:
        raise HypothesisError("witness and algebraic alpha disagree")
    d = xi.degree
    mu = _validate_mu(d, mu)
    c0 = Fraction(c0)
    if c0 <= 0:
        raise HypothesisError("C0 must be positive")
    c_alpha = Fraction(xi.lead)
    c_beta = Fraction(pair.beta.lead)
    c12v = c12(pair.alpha, pair.beta, pair.rep, pair)
    c14v = c14(xi, pair)
    c7v = liouville_c7(xi)

    c4 = tidy_up(monomial_up([(d + 2, 1), (c0, 1), (c12v, 1), (c_alpha, Fraction(d, 2)),
                              (c_beta, 1)]))
    (branches,) = height_floor_branches(
        d, mu, c0, [(2 * c0 / c14v, 1), (c_alpha, Fraction(3 * d - 4, 2))],
        [(c_alpha, d - 1), (c0 / c7v, 1), (c12v, Fraction(d * d + 3 * d, 2) * mu),
         (1 / c14v, 1)], [([], [])])
    c3 = max(b for _, b in branches)
    prov = tuple((name, compact_str(val, True)) for name, val in branches)
    return GapConstants("p-adic", tidy_up(c3), c4, mu, c0, d,
                        provenance=prov + (("C12", compact_str(c12v, True)),
                                           ("C14", compact_str(c14v, False)),
                                           ("C7", compact_str(c7v, False))))


# -- approximation uniqueness -----------------------------------------------------

def c11(alphas, mu, c0) -> Fraction:
    """Height threshold above which at most one of the given numbers can be
    approximated to quality C0/H**mu: max over pairs of
    (2 C0 / |alpha_i - alpha_j|)**(1/mu), rounded up: the one ``pow_up`` at
    the least distance, as each of its steps ceils to a grid that only
    coarsens as the value grows, so it is nondecreasing in its base.  The
    Archimedean distances are read off the rungs of the numbers' root
    systems' refinement ladders, walked together until every pair's lower
    bound is positive."""
    mu, c0 = Fraction(mu), Fraction(c0)
    if len(alphas) < 2:
        raise ValueError("need at least two numbers")
    pairs = [(i, j) for i in range(len(alphas)) for j in range(i + 1, len(alphas))]
    if isinstance(alphas[0], PadicAlgNum):
        least = min(_padic_distance(alphas[i], alphas[j]) for i, j in pairs)
        return tidy_up(pow_up(2 * c0 / least, 1 / mu))
    systems = {a.minpoly: root_system(a.minpoly) for a in alphas}
    for tables in zip(*(s.ladder() for s in systems.values())):
        rung = dict(zip(systems, tables))
        encl = [RootEnclosure(a.minpoly, a.index, rung[a.minpoly].alpha[a.index],
                              rung[a.minpoly].bits) for a in alphas]
        least = min(encl[i].distance_interval(encl[j]).lo for i, j in pairs)
        if least > 0:
            return tidy_up(pow_up(2 * c0 / least, 1 / mu))


def _padic_distance(a: PadicAlgNum, b: PadicAlgNum) -> Fraction:
    if a.prime != b.prime:
        raise ValueError("mixed primes")
    p, k = a.prime, 200
    diff = (a.lift(k) - b.lift(k)) % p ** k
    if diff == 0:
        raise AbstainError(f"p-adic roots indistinguishable at depth {k}")
    return Fraction(1, p) ** padic_valuation(diff, p)


# -- Thue-Siegel parameters -------------------------------------------------------

class ThueSiegelParams(Record):
    """Exact parameter bundle for the two-approximation principle at
    a = 1/500: the squares t2, tau2 and lam2 of t, tau and lambda, and
    delta, all rational."""

    __slots__ = ("d", "a", "t2", "tau2", "lam2", "delta", "A")

    def __init__(self, d: int, a: Fraction, t2: Fraction, tau2: Fraction, lam2: Fraction,
                 delta: Fraction, A: Fraction | None):
        self._init(d, a, t2, tau2, lam2, delta, A)

    @property
    def delta_inverse(self) -> Fraction:
        return 1 / self.delta


def thue_siegel_params(d: int, mahler_max_log: Fraction | None = None
                       ) -> ThueSiegelParams:
    """The exact squares of t = sqrt(2/(d + a^2)), tau = 2 a t and
    lambda = 2/((1-2a) t), and delta = 6 a^2/((d + a^2)(d - 1)), at
    a = 1/500, with the certified assertions lambda < 1.42 sqrt(d),
    delta^{-1} < 41667 d^2, and interval membership for (t, tau)
    (``_thue_siegel_checks``).  ``mahler_max_log`` (an upper rounding of
    log max M(alpha_i)) turns into A = 500^2 (log max M + d/2)."""
    if d < 3:
        raise HypothesisError("degree must be >= 3")
    checks = _thue_siegel_checks(d)
    if not all(checks):
        raise AssertionError(f"assertion {checks.index(False)} of _thue_siegel_checks fails")
    n = 250000 * d + 1
    A = None
    if mahler_max_log is not None:
        A = 500 ** 2 * (Fraction(mahler_max_log) + Fraction(d, 2))
    return ThueSiegelParams(d, Fraction(1, 500), Fraction(500000, n), Fraction(8, n),
                            Fraction(n, 124002), Fraction(6, n * (d - 1)), A)


def _thue_siegel_checks(d: int) -> tuple[bool, ...]:
    """The assertions of ``thue_siegel_params`` in integers, by n = 250000 d + 1
    = 250000 (d + a^2), t^2 = 500000/n, lambda^2 = n/124002, delta = 6/(n (d-1)):
    lambda^2 < (71/50)^2 d; 1/delta < 41667 d^2; t^2 < 2/d; (2 + sqrt(E))/(d (d+1))
    < t, E = 2d^3 + 2d^2 - 4d, as g = (d (d+1))^2 t^2 - 4 - E > 0 and 16 E < g^2
    (n g below); and tau = 2 a t < t - 2/d, as d^2 (1-2a)^2 t^2 > 4.  tau > a t =
    sqrt(2 - d t^2), the lower bound, holds as a t > 0."""
    n = 250000 * d + 1
    e = 2 * d ** 3 + 2 * d ** 2 - 4 * d
    g = 500000 * (d * (d + 1)) ** 2 - (4 + e) * n
    return (2500 * n < 5041 * 124002 * d, n * (d - 1) < 250002 * d * d, 500000 * d < 2 * n,
            g > 0 and 16 * e * n * n < g * g, 124002 * d * d > n)


def thue_siegel_conclusion(params: ThueSiegelParams, a1: Fraction, a2: Fraction,
                           h1: Fraction) -> Fraction:
    """Rounded-up bound on log H(x2, y2):
    delta^{-1} (log(4 e^{A1}) + log H1) - log(4 e^{A2})."""
    log4 = log_interval(Fraction(4))
    logh1 = log_interval(Fraction(h1))
    pos = params.delta_inverse * (log4.hi + Fraction(a1) + logh1.hi)
    neg = log4.lo + Fraction(a2)
    return tidy_up(pos - neg)


# -- counting ---------------------------------------------------------------------

def count_bound(d: int, mu: Fraction, gamma: int) -> int:
    """gamma * floor(1 + (11.51 + 1.5 log d + log mu) / log(mu - d/2)),
    with a certified floor (precision escalates until the enclosure does not
    straddle an integer)."""
    mu = Fraction(mu)
    if not mu - Fraction(d, 2) > 1:
        raise HypothesisError("mu - d/2 must exceed 1")
    if gamma < 1:
        raise ValueError("gamma must be positive")
    for prec in (160, 320, 640, 1280, 2560):
        num = Fraction(1151, 100) + Fraction(3, 2) * log_interval(Fraction(d), prec) \
            + log_interval(mu, prec)
        den = log_interval(mu - Fraction(d, 2), prec)
        try:
            inner = certified_floor(RatInterval(1, 1) + num / den)
            return gamma * inner
        except ValueError:
            continue
    raise AbstainError("floor enclosure straddles an integer at max precision")


def f_floor(d: int) -> int:
    """floor(f(d)) for the canonical exponent mu = (3d + 2)/4."""
    return count_bound(d, Fraction(3 * d + 2, 4), 1)


def c16(alphas, mu, c0, c_small: Fraction, c_big: Fraction,
        mahler_max_log_up: Fraction | None = None) -> tuple[Fraction, dict]:
    """The four-way height threshold of the counting theorem, given the
    largest C_small and C_big of the gap constants over the ordered pairs of
    distinct numbers; returns the rounded-up max and the per-branch
    provenance."""
    mu, c0 = Fraction(mu), Fraction(c0)
    d = alphas[0].degree
    branches = {"uniqueness-C11": c11(alphas, mu, c0), "pairwise-gap-floor": Fraction(c_small)}
    if mahler_max_log_up is None:
        m_up = max(a.mahler_interval().hi if isinstance(a, AlgNum)
                   else mahler_measure(a.minpoly).hi for a in alphas)
        mahler_max_log_up = log_interval(m_up).hi
    a_big = 500 ** 2 * (Fraction(mahler_max_log_up) + Fraction(d, 2))
    # C0 > (4 e^A)^(-1), checked as A > log(1/(4 C0)): no e^A is built
    if not a_big > log_interval(1 / (4 * c0)).hi:
        raise HypothesisError("C0 must exceed (4 e^A)^(-1)")
    sqrt_d = RatInterval(root_down(d, 2), root_up(d, 2))
    lam_bound = Fraction(71, 50) * sqrt_d
    denom = RatInterval(mu) - lam_bound
    if denom.lo <= 0:
        raise HypothesisError("mu <= 1.42 sqrt(d): third adjustment inapplicable")
    log4ea = log_interval(Fraction(4)) + RatInterval(a_big)
    exponent = (RatInterval(1) / denom) * log_interval(c0) + (lam_bound / denom) * log4ea
    branches["large-height"] = tidy_up(exp_up(exponent.hi))
    branches["iteration-floor"] = pow_up(c_big, 2 / (mu - Fraction(d, 2) - 1))
    argmax = list(branches)[largest(list(branches.values()))]
    value = tidy_up(branches[argmax])
    prov = {"branches": {k: compact_str(v, True) for k, v in branches.items()},
            "argmax": argmax, "A": compact_str(a_big, True)}
    return value, prov


# -- the dichotomy ------------------------------------------------------------------

class Verdict(Record):
    __slots__ = ("verdict", "gap_holds", "mobius_case", "relation", "details")

    def __init__(self, verdict: str,  # GapHolds | MobiusCase | Both | Violation
                 gap_holds: bool, mobius_case: bool, relation: MobiusRelation | None,
                 details: dict):
        self._init(verdict, gap_holds, mobius_case, relation, details)


def check_gap_dichotomy(alpha, beta, mu, c0, pair1: ApproxPair,
                        pair2: ApproxPair, constants: GapConstants,
                        relation: MobiusRelation | None) -> Verdict:
    """Certified dichotomy check for one approximation pair: its hypotheses
    certified (``certify_hypotheses``), then ``dichotomy_verdict``.

    alpha, beta: AlgNum (Archimedean) or PadicAlgNum.  relation: the Moebius
    relation of the algebraic numbers (``mobius_relation``), or None when
    they have none; the caller computes it once for all its pairs.
    Preconditions (certified, else HypothesisError): H2 >= H1 >= C_small and
    both approximation qualities strictly below C0/H**mu.
    """
    certify_hypotheses(alpha, beta, mu, c0, pair1, pair2, constants, {})
    return dichotomy_verdict(pair1, pair2, constants, gap_threshold(constants, pair1.height),
                             relation)


def certify_hypotheses(alpha, beta, mu, c0, pair1: ApproxPair, pair2: ApproxPair,
                       constants: GapConstants, memo: dict) -> None:
    """Raise HypothesisError unless H2 >= H1 >= C_small, then the qualities
    of pair1 at alpha and pair2 at beta are below C0/H**mu
    (``certify_quality_below``), checked in that order.  Each certificate,
    True, False or the AbstainError raised again, is kept in ``memo``, one
    per (alpha, beta, mu, C0), keyed (0, pair1) for alpha, (1, pair2) for beta."""
    h1, h2 = pair1.height, pair2.height
    if not (h2 >= h1 >= constants.c_small):
        raise HypothesisError(f"height precondition fails: {h2} >= {h1} >= {constants.c_small}")
    for key, number in (((0, pair1), alpha), ((1, pair2), beta)):
        if key not in memo:
            try:
                memo[key] = certify_quality_below(number, key[1], mu, c0)
            except AbstainError as err:
                memo[key] = err
        if isinstance(memo[key], AbstainError):
            raise memo[key]
        if not memo[key]:
            raise HypothesisError(f"pair{key[0] + 1} quality hypothesis fails")


def gap_threshold(constants: GapConstants, h1: int) -> tuple[int, int, int, str]:
    """What the gap case H2 > C_big^-1 H1^e, e = mu - d/2 = p/q, needs of
    pair1's height H1: q, H1^p (den C_big)^q, (num C_big)^q and gapBound,
    the printed ``_gap_bound``."""
    e = constants.mu - Fraction(constants.degree, 2)
    q, big = e.denominator, constants.c_big
    return (q, h1 ** e.numerator * big.denominator ** q, big.numerator ** q,
            compact_str(_gap_bound(constants, h1), False))


def _gap_bound(constants: GapConstants, h1: int) -> Fraction:
    """H1^e / C_big rounded down, e = mu - d/2, from 1 / ``pow_up``(1/H1, e)."""
    exp = constants.mu - Fraction(constants.degree, 2)
    return tidy_down(1 / (pow_up(Fraction(1, h1), exp) * constants.c_big))


def dichotomy_verdict(pair1: ApproxPair, pair2: ApproxPair, constants: GapConstants,
                      threshold: tuple[int, int, int, str],
                      relation: MobiusRelation | None) -> Verdict:
    """The dichotomy's verdict on two pairs whose hypotheses hold, given
    pair1's ``gap_threshold``: the gap case H2 > C_big^-1 H1^e, exactly in
    integers as (H2 num C_big)^q > H1^p (den C_big)^q, and the Moebius case,
    pair2 = +-relation(pair1)."""
    q, rhs, big_q, bound = threshold
    gap_holds = pair2.height ** q * big_q > rhs

    mobius_case = False
    if relation is not None:
        den = relation.u * pair1.x + relation.v * pair1.y
        if den != 0 or relation.s * pair1.x + relation.t * pair1.y != 0:
            image = relation.image(pair1)
            mobius_case = (image.x, image.y) == (pair2.x, pair2.y) or \
                          (image.x, image.y) == (-pair2.x, -pair2.y)

    verdict = ("Violation", "MobiusCase", "GapHolds", "Both")[2 * gap_holds + mobius_case]
    details = {"H1": pair1.height, "H2": pair2.height, "gapBound": bound,
               "metric": constants.metric}
    return Verdict(verdict, gap_holds, mobius_case, relation, details)


def classic_gap_check(pairs: list[ApproxPair], mu, alpha) -> dict:
    """The classical gap principle 2 y_{k+1} > y_k**(mu-1) on consecutive
    certified solutions of |alpha - x/y| < 1/y**mu (denominator metric)."""
    mu = Fraction(mu)
    sols = [pr for pr in pairs
            if pr.y > 0 and _arch_sign(alpha, pr, Fraction(1), pr.y, mu) < 0]
    sols.sort(key=lambda pr: pr.y)
    for a, b in zip(sols, sols[1:]):
        if a.y == b.y:
            raise HypothesisError("distinct solutions share a denominator")
    checks = []
    for a, b in zip(sols, sols[1:]):
        ok = compare_to_power(Fraction(2 * b.y), Fraction(a.y), mu - 1) > 0
        checks.append({"y1": a.y, "y2": b.y, "holds": ok})
    return {"solutions": [(s.x, s.y) for s in sols],
            "checks": checks,
            "all_hold": all(c["holds"] for c in checks)}
