"""Independent checks of gapkit's outputs.

Nothing here imports gapkit.  A form is a list ``c`` of integers with
``c[i]`` the coefficient of ``x**(d-i) * y**i`` (gapkit's ``BinForm``
order).  Solutions are sign-normalized the way gapkit reports them: the
first nonzero coordinate is positive.
"""

from __future__ import annotations

import math
from math import gcd

import mpmath

DIGITS = 60


def value(c: list[int], x: int, y: int) -> int:
    """F(x, y) by Horner's rule in x: acc <- acc*x + c[i]*y^i."""
    acc, ypow = 0, 1
    for coeff in c:
        acc = acc * x + coeff * ypow
        ypow *= y
    return acc


def normalize(x: int, y: int) -> tuple[int, int]:
    lead = x if x != 0 else y
    return (-x, -y) if lead < 0 else (x, y)


def box_points(bound: int):
    """Every sign-normalized primitive (x, y) with max(|x|, |y|) <= bound."""
    yield 0, 1
    for x in range(1, bound + 1):
        for y in range(-bound, bound + 1):
            if gcd(x, y) == 1:
                yield x, y


def naive_solutions(c: list[int], m: int, bound: int) -> set[tuple[int, int]]:
    """All primitive solutions of 0 < |F(x, y)| <= m in the height box."""
    return {(x, y) for x, y in box_points(bound) if 0 < abs(value(c, x, y)) <= m}


def m_for_count(c: list[int], bound: int, count: int) -> int:
    """The least m for which the box holds at least ``count`` solutions."""
    vals = sorted(abs(value(c, x, y)) for x, y in box_points(bound))
    return vals[count - 1]


# -- roots ------------------------------------------------------------------

def roots(c: list[int]) -> list:
    """Roots of F(x, 1) at DIGITS digits, ordered by real part then imaginary
    part (gapkit's root order); real roots are mpf."""
    with mpmath.workdps(DIGITS + 20):
        rs = mpmath.polyroots(c, maxsteps=400, extraprec=400)
        eps = mpmath.mpf(10) ** (-DIGITS // 2)
        out = []
        for r in rs:
            r = mpmath.mpc(r)
            out.append(r.real if abs(r.imag) < eps else r)
        return sorted(out, key=lambda r: (mpmath.re(r), mpmath.im(r)))


def _is_real(r) -> bool:
    return isinstance(r, mpmath.mpf)


def _threshold(c: list[int], m: int) -> float:
    """A height Y0 such that every primitive solution with |y| > Y0 has x/y
    equal to a convergent of a real root of F(x, 1).

    With alpha_i the root nearest x/y, every other root is at least
    |alpha_i - alpha_j| / 2 from x/y, so
    |x/y - alpha_i| <= K_i m / |y|^d with K_i = 2^(d-1) / |f'(alpha_i)|.
    A complex alpha_i is ruled out once K_i m / |y|^d < |Im alpha_i|; for a
    real one, |y|^(d-2) > 2 K_i m gives |x/y - alpha_i| < 1/(2 y^2), and
    Legendre's theorem makes x/y a convergent of alpha_i."""
    d = len(c) - 1
    rs = roots(c)
    y0 = mpmath.mpf(1)
    with mpmath.workdps(DIGITS):
        for i, a in enumerate(rs):
            deriv = abs(c[0]) * mpmath.fprod(abs(a - b) for j, b in enumerate(rs) if j != i)
            k = mpmath.mpf(2) ** (d - 1) / deriv
            if _is_real(a):
                y = (2 * k * m) ** (mpmath.mpf(1) / (d - 2))
            else:
                y = (k * m / abs(mpmath.im(a))) ** (mpmath.mpf(1) / d)
            y0 = max(y0, y)
    return float(y0)


def legendre_height(c: list[int], m: int) -> int:
    """H0: above it every solution comes from a convergent of a real root
    (when |y| is the height) or of a real inverse root (when |x| is).
    Needs c[0] * c[-1] != 0; rounded up with a margin for float error."""
    if c[0] == 0 or c[-1] == 0:
        raise ValueError("the convergent route needs c_0 * c_d != 0")
    h = max(_threshold(c, m), _threshold(list(reversed(c)), m))
    return math.ceil(h * 1.001) + 1


def convergents(alpha, limit: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of a real alpha with q <= limit."""
    out = []
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(alpha)
        h0, h1, k0, k1 = 0, 1, 1, 0
        while True:
            a = int(mpmath.floor(x))
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
            if k1 > limit:
                return out
            out.append((h1, k1))
            frac = x - a
            if frac == 0:
                return out
            x = 1 / frac


def tall_solutions(c: list[int], m: int, bound: int) -> tuple[set[tuple[int, int]], int]:
    """(solutions, H0): naive search up to H0, then the convergents of the
    real roots (x/y) and of the real inverse roots (y/x) up to the bound."""
    h0 = min(legendre_height(c, m), bound)
    sols = naive_solutions(c, m, h0)
    cands = set()
    for a in roots(c):
        if _is_real(a):
            cands.update(normalize(p, q) for p, q in convergents(a, bound))
    for b in roots(list(reversed(c))):
        if _is_real(b):
            cands.update(normalize(q, p) for p, q in convergents(b, bound))
    for x, y in cands:
        if h0 < max(abs(x), abs(y)) <= bound and 0 < abs(value(c, x, y)) <= m:
            sols.add((x, y))
    return sols, h0


def match_roots(rs: list, approx: list[list[float]]) -> tuple[list | None, str | None]:
    """Reorder the roots ``rs`` to follow ``approx`` ([re, im] per index),
    matching each to the one root within 1e-6 of it; (None, error) when the
    matching is not one-to-one."""
    out = []
    for re_, im_ in approx:
        near = [r for r in rs if abs(mpmath.mpc(r) - mpmath.mpc(re_, im_)) < 1e-6]
        if len(near) != 1:
            return None, f"root approximation {re_} + {im_}i matches {len(near)} roots"
        out.append(near[0])
    if len({id(r) for r in out}) != len(rs):
        return None, "root approximations do not match the roots one to one"
    return out, None


def assignment_error(rs: list, x: int, y: int, index: int, side: str,
                     tie: bool) -> str | None:
    """None when (index, side) minimizes min(|alpha_i - x/y|,
    |1/alpha_i - y/x|) over the roots ``rs`` (ties allowed only when
    reported); otherwise a description of the mismatch."""
    with mpmath.workdps(DIGITS):
        dists = {}
        for i, a in enumerate(rs):
            if y != 0:
                dists[(i, "alpha")] = abs(a - mpmath.mpf(x) / y)
            if x != 0:
                dists[(i, "alpha_inv")] = abs(1 / a - mpmath.mpf(y) / x)
        if (index, side) not in dists:
            return f"({x}, {y}): no candidate {(index, side)}"
        best = min(dists.values())
        got = dists[(index, side)]
        tol = mpmath.mpf(10) ** (-(DIGITS - 15)) * (1 + best)
        if got - best > tol:
            return f"({x}, {y}): {(index, side)} at {mpmath.nstr(got, 8)}, best {mpmath.nstr(best, 8)}"
        rivals = [k for k, v in dists.items() if k != (index, side) and v - best <= tol]
        if rivals and not tie:
            return f"({x}, {y}): tie with {rivals} not reported"
    return None


# -- the degree-12 dihedral family --------------------------------------------

def mat_apply(mat: tuple[int, int, int, int], x: int, y: int) -> tuple[int, int]:
    a, b, c, d = mat
    return a * x + b * y, c * x + d * y


def _mat_mul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def group_closure(gens: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """The finite matrix group generated by ``gens`` ((x, y) -> (ax+by, cx+dy))."""
    elems = {(1, 0, 0, 1)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _mat_mul(p, g)
                if q not in elems:
                    if len(elems) > 10_000:
                        raise ValueError("generators do not give a finite group")
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(elems)


def substitute(c: list[int], mat: tuple[int, int, int, int]) -> list[int]:
    """Coefficients of F(ax + by, cx + dy), by binomial expansion."""
    a, b, cc, dd = mat
    deg = len(c) - 1
    out = [0] * (deg + 1)
    for i, coeff in enumerate(c):
        # coeff * (a x + b y)^(deg-i) * (cc x + dd y)^i
        left = [math.comb(deg - i, k) * a ** (deg - i - k) * b ** k for k in range(deg - i + 1)]
        right = [math.comb(i, k) * cc ** (i - k) * dd ** k for k in range(i + 1)]
        for k1, v1 in enumerate(left):
            for k2, v2 in enumerate(right):
                out[k1 + k2] += coeff * v1 * v2
    return out


# the swap and the order-6 map (x, y) -> (y, -x + y) generate a dihedral
# group of order 12; each element fixes the D12 forms exactly
D12_GENERATORS = [(0, 1, 1, 0), (0, 1, -1, 1)]


def orbit_errors(c: list[int], maps, sols: list[tuple[int, int]],
                 orbits: list[list[int]]) -> list[str]:
    """Check that ``orbits`` (index blocks into ``sols``) are exactly the
    orbits of the solutions under ``maps``."""
    errors = []
    for mat in maps:
        if substitute(c, mat) != list(c):
            errors.append(f"map {mat} does not fix the form")
    block_of = {}
    for b, block in enumerate(orbits):
        for i in block:
            block_of[i] = b
    if sorted(block_of) != list(range(len(sols))):
        errors.append("orbits do not partition the solutions")
        return errors
    index_of = {s: i for i, s in enumerate(sols)}
    for block in orbits:
        x, y = sols[block[0]]
        orbit = {normalize(*mat_apply(mat, x, y)) for mat in maps}
        if orbit != {sols[i] for i in block}:
            errors.append(f"block {block} is not the orbit of {(x, y)}")
        missing = [p for p in orbit if p not in index_of]
        if missing:
            errors.append(f"images {missing} of {(x, y)} are not reported solutions")
    return errors


def log10_c5_floor(c: list[int], m: int, mu) -> float:
    """log10 of (C10 m)^(1/(d - mu)), C10 = 2^(d-1) d^((d-1)/2) M^(d-2) /
    |D|^(1/2), with the Mahler measure M and discriminant D from the roots."""
    d = len(c) - 1
    rs = roots(c)
    with mpmath.workdps(DIGITS):
        lead = abs(c[0])
        mahler = lead * mpmath.fprod(max(1, abs(r)) for r in rs)
        disc = mpmath.mpf(lead) ** (2 * d - 2) * mpmath.fprod(
            abs(rs[i] - rs[j]) ** 2 for i in range(d) for j in range(i + 1, d))
        c10 = (mpmath.mpf(2) ** (d - 1) * mpmath.mpf(d) ** (mpmath.mpf(d - 1) / 2)
               * mahler ** (d - 2) / mpmath.sqrt(disc))
        num, den = mu
        return float(mpmath.log10(c10 * m) / (d - mpmath.mpf(num) / den))
