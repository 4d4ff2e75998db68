"""Minimal pairs (P, Q) with P(alpha) + beta*Q(alpha) = 0.

A minimal pair minimizes max(deg P, deg Q) first and max(H(P), H(Q)) second
among integer pairs satisfying the vanishing relation.  The construction
reduces to the integer kernel of an explicit d x (2s+2) linear system over
the power basis of alpha; height minimality is settled by exhaustive
enumeration of small kernel-lattice vectors.
"""

from __future__ import annotations

from fractions import Fraction

from .algnum import (AlgNum, PowerBasisRep, c8, c9, denominator_scalar,
                     power_rep, _power_tables)
from .intpoly import IntPoly, exact_quotient, poly_gcd_q, prem
from .isolation import PrecisionError, _span, root_system
from .linalg import integer_kernel, kernel_vectors_up_to
from .padic import PadicAlgNum, padic_abs_poly
from .record import Record
from .rounding import monomial_up, pow_up, tidy_down, tidy_up


class PairError(ValueError):
    pass


class LinearSystem(Record):
    """Linear conditions on the stacked coefficient vector
    (a_0..a_s | a_{s+1}..a_{2s+1}) of (P_hat, Q_hat) equivalent to
    P_hat(alpha) + beta * Q_hat(alpha) = 0."""

    __slots__ = ("alpha", "rep", "s", "rows", "scaled_rows", "scale")

    def __init__(self, alpha: AlgNum, rep: PowerBasisRep, s: int,
                 rows: tuple,                      # d x (2s+2) over Q
                 scaled_rows: tuple, scale: int):  # rows times D * c_alpha^s, integral
        self._init(alpha, rep, s, rows, scaled_rows, scale)

    @property
    def ncols(self) -> int:
        return 2 * self.s + 2

    def integer_kernel_basis(self) -> list[list[int]]:
        return integer_kernel([list(r) for r in self.scaled_rows], self.ncols)

    def max_entry(self) -> int:
        return max(max(abs(c) for c in row) for row in self.scaled_rows)

    def siegel_bound(self) -> Fraction | None:
        """Height bound (N*A)**(M/(N-M)) from the small-solutions lemma;
        None when N <= M and the lemma does not apply."""
        n, m = self.ncols, len(self.rows)
        if n <= m:
            return None
        a = max(1, self.max_entry())
        return pow_up(Fraction(n * a), Fraction(m, n - m))


def build_system(alpha: AlgNum, rep: PowerBasisRep, s: int) -> LinearSystem:
    """Exact system whose kernel vectors encode the valid pairs of degree <= s."""
    d = alpha.degree
    if not 1 <= s <= d // 2:
        raise PairError(f"s = {s} outside 1..{d // 2}")
    tables = _power_tables(alpha.minpoly, d - 1 + s)
    b = rep.coeffs
    cols: list[list[Fraction]] = []
    for i in range(s + 1):           # columns of P_hat: x^i reduced (i < d)
        col = [Fraction(0)] * d
        col[i] = Fraction(1)
        cols.append(col)
    for j in range(s + 1):           # columns of Q_hat: beta * x^j reduced
        col = [Fraction(0)] * d
        for i, bi in enumerate(b):   # beta = sum b_i alpha^i
            if bi == 0:
                continue
            k = i + j
            if k < d:
                col[k] += bi
            else:
                for t, c in enumerate(tables[k]):
                    col[t] += bi * c
        cols.append(col)
    rows = tuple(tuple(cols[c][r] for c in range(2 * s + 2)) for r in range(d))
    scale = denominator_scalar(rep) * alpha.lead ** s
    scaled = []
    for row in rows:
        srow = []
        for c in row:
            v = c * scale
            if v.denominator != 1:
                raise AssertionError("scaled system entry not integral")
            srow.append(int(v))
        scaled.append(tuple(srow))
    return LinearSystem(alpha, rep, s, rows, tuple(scaled), scale)


class MinimalPair(Record):
    """Verified pair for (alpha, beta) with its minimality certificate."""

    __slots__ = ("alpha", "beta", "rep", "p", "q", "r", "minimality")

    def __init__(self, alpha: AlgNum, beta: AlgNum, rep: PowerBasisRep, p: IntPoly,
                 q: IntPoly, r: int, minimality: str):  # "exact" | "siegel-bounded"
        self._init(alpha, beta, rep, p, q, r, minimality)

    @property
    def height_bound(self) -> int:
        return max(self.p.height(), self.q.height())

    def wronskian(self) -> IntPoly:
        return wronskian(self.p, self.q)

    def report(self) -> dict:
        return {
            "P": str(self.p),
            "Q": str(self.q),
            "r": self.r,
            "heights": {"P": self.p.height(), "Q": self.q.height()},
            "minimality-mode": self.minimality,
        }


def wronskian(p: IntPoly, q: IntPoly) -> IntPoly:
    """W = P Q' - Q P'; nonzero whenever P, Q are coprime with r >= 1."""
    return p * q.derivative() - q * p.derivative()


def _vanishes(alpha: AlgNum, rep: PowerBasisRep, p: IntPoly, q: IntPoly) -> bool:
    """P(alpha) + beta Q(alpha) = 0, checked exactly over Z: D P + N Q is
    0 mod f, with beta = N(alpha) / D (``PowerBasisRep.numerator``)."""
    return prem(p * rep.denominator + rep.numerator() * q, alpha.minpoly).is_zero


def _split_vector(v, s: int) -> tuple[IntPoly, IntPoly]:
    return IntPoly(v[: s + 1]), IntPoly(v[s + 1:])


def _normalize_vector(v: tuple, s: int) -> tuple:
    q = v[s + 1:]
    lead = next((c for c in reversed(q) if c != 0), 0)
    if lead < 0:
        return tuple(-c for c in v)
    if lead == 0:  # Q = 0 cannot appear in a valid pair; keep sign by P
        plead = next((c for c in reversed(v[: s + 1]) if c != 0), 0)
        if plead < 0:
            return tuple(-c for c in v)
    return v


def find_pair(alpha: AlgNum, beta: AlgNum, mode: str = "exact",
              rep: PowerBasisRep | None = None) -> MinimalPair:
    """Minimal pair for (alpha, beta).

    mode="exact": r is minimal (first s with nonzero kernel) and the height
    is minimal over all nonzero integer kernel vectors, found by exhaustive
    enumeration below the height of the best kernel basis vector; ties are
    broken by sign normalization (leading coefficient of Q nonnegative) and
    then the lexicographically smallest coefficient vector.

    mode="siegel": r is still minimal, but the returned vector is only
    guaranteed to satisfy the small-solutions height bound of the system.
    """
    if mode not in ("exact", "siegel"):
        raise PairError(f"unknown mode {mode!r}")
    if beta.degree < 2:
        raise PairError("beta must be irrational")
    if rep is None:
        rep = power_rep(alpha, beta)  # raises NotInFieldError if beta not in Q(alpha)
    d = alpha.degree
    for s in range(1, d // 2 + 1):
        system = build_system(alpha, rep, s)
        basis = system.integer_kernel_basis()
        if not basis:
            continue
        if mode == "exact":
            bound = min(max(abs(c) for c in v) for v in basis)
            cands = kernel_vectors_up_to(basis, bound)
            best_h = min(max(abs(c) for c in v) for v in cands)
            pool = [_normalize_vector(v, s) for v in cands
                    if max(abs(c) for c in v) == best_h]
            vec = min(pool)
        else:
            vec = _normalize_vector(tuple(min(basis, key=lambda v: max(map(abs, v)))), s)
            sb = system.siegel_bound()
            if sb is not None and max(abs(c) for c in vec) > sb:
                raise AssertionError("kernel basis vector exceeds Siegel bound")
        p, q = _split_vector(vec, s)
        pair = MinimalPair(alpha, beta, rep, p, q, s,
                           "exact" if mode == "exact" else "siegel-bounded")
        if not _vanishes(alpha, rep, p, q):
            raise AssertionError("kernel vector fails exact vanishing")
        if poly_gcd_q(p, q).degree != 0:
            raise AssertionError("minimal pair is not coprime")
        return pair
    raise PairError("no pair found below floor(d/2): Siegel guarantee violated")


def verify_pair(alpha: AlgNum, beta: AlgNum, p: IntPoly, q: IntPoly,
                rep: PowerBasisRep | None = None,
                reference: MinimalPair | None = None) -> dict:
    """Itemized verification report for a candidate pair.

    Checks (a) exact vanishing, (b) coprimality, (c) the degree window
    1 <= max deg <= floor(d/2), and (d) the divisibility property: a pair of
    degree <= d - 1 - r must be a polynomial multiple G * (minimal pair).
    """
    if rep is None:
        rep = power_rep(alpha, beta)
    if reference is None:
        reference = find_pair(alpha, beta, rep=rep)
    d = alpha.degree
    r_min = reference.r
    rmax = max(p.degree, q.degree)
    checks: dict[str, object] = {}
    checks["vanishing"] = _vanishes(alpha, rep, p, q)
    checks["coprime"] = poly_gcd_q(p, q).degree == 0
    checks["degree"] = 1 <= rmax <= d // 2
    part3: dict[str, object] = {"applicable": rmax <= d - 1 - r_min}
    if part3["applicable"]:
        cross = p * reference.q - q * reference.p
        part3["cross_vanishes"] = cross.is_zero
        if cross.is_zero:
            g = exact_quotient(q, reference.q)
            part3["G"] = str(g) if g is not None else None
            part3["factors"] = g is not None and (g * reference.p == p)
    checks["part3"] = part3
    ok = bool(checks["vanishing"] and checks["coprime"] and checks["degree"])
    if part3["applicable"]:
        ok = ok and bool(part3.get("cross_vanishes"))
    return {"ok": ok, "checks": checks, "r_min": r_min}


# -- the constants C12, C13, C14 -------------------------------------------------

def c12(alpha: AlgNum, beta: AlgNum, rep: PowerBasisRep,
        pair: MinimalPair | None = None) -> Fraction:
    """Upper bound on max(H(P), H(Q)) for some minimal pair: the smaller of
    the closed-form Siegel bound (with the Gelfond factor 2**(d/2)) and the
    height of an explicitly computed pair."""
    closed = c12_closed_form(alpha, beta, denominator_scalar(rep))
    if pair is None:
        return closed
    return min(closed, Fraction(pair.height_bound))


def c12_closed_form(alpha: AlgNum, beta: AlgNum, denom_scalar: int) -> Fraction:
    """((2s+2) D c_alpha^s C9 (1 + s C8^s))**(d/(2s+2-d)) * 2**(d/2) at
    s = floor(d/2), all roundings upward."""
    d = alpha.degree
    s = d // 2
    a = Fraction(2 * s + 2) * denom_scalar * alpha.lead ** s \
        * c9(alpha, beta) * (1 + s * c8(alpha) ** s)
    return tidy_up(monomial_up([(a, Fraction(d, 2 * s + 2 - d)), (2, Fraction(d, 2))]))


def c13(alpha: AlgNum, pair: MinimalPair) -> Fraction:
    """Positive lower bound on |W(alpha)|: for a real alpha the larger of
    the certified enclosure floor, on the first rung of alpha's refinement
    ladder whose disk keeps W from 0, and the norm-form closed bound; for a
    nonreal alpha, or past the ladder's last rung, the closed bound."""
    w = pair.wronskian()
    if w.is_zero:
        raise PairError("Wronskian vanishes identically")
    encl_branch = Fraction(0)
    if alpha.is_real:
        try:
            for table in root_system(alpha.minpoly).ladder():
                img = w.eval_at(_span(table.alpha[alpha.index], table.bits)).abs()
                if img.lo > 0:
                    encl_branch = tidy_down(img.lo)
                    break
        except PrecisionError:
            pass
    return max(encl_branch, c13_formula(alpha, Fraction(pair.height_bound),
                                        alpha.mahler_interval().hi))


def c13_formula(alpha: AlgNum, height_bound: Fraction, m_up: Fraction) -> Fraction:
    """Closed lower bound on |W(alpha)| for any pair of heights <= the given
    bound: (((d^3/2) H^2)**(d-1) (c_alpha**(d-1) M(alpha)/max(1,|alpha|))**(d-1))**(-1),
    from an upper bound ``m_up`` on the Mahler measure M(alpha)."""
    d = alpha.degree
    h = Fraction(height_bound)
    abs_a = alpha.abs_interval()
    max1_down = max(Fraction(1), abs_a.lo)
    inner = Fraction(d ** 3, 2) * h ** 2 * Fraction(alpha.lead) ** (d - 1) * m_up / max1_down
    denom = pow_up(inner, Fraction(d - 1))
    return tidy_down(1 / denom)


def c14(xi: PadicAlgNum, pair: MinimalPair) -> Fraction:
    """Positive lower bound on |W(alpha)|_p: the exact valuation of W at the
    Hensel witness when it is below 64, read off one lift to p**64, else the
    closed bound ``c14_formula``, from Hadamard's bound on the resultant of
    the minimal polynomial and W."""
    w = pair.wronskian()
    if w.is_zero:
        raise PairError("Wronskian vanishes identically")
    val = padic_abs_poly(xi, w, 64)
    if val.exact:
        return val.value
    return c14_formula(xi, Fraction(pair.height_bound))


def c14_formula(xi: PadicAlgNum, height_bound: Fraction) -> Fraction:
    """((d+1)**((d-1)/2) d**(d/2) H(alpha)**(2d-2) ((d^2/2) C12^2)**d)**(-1),
    rounded down."""
    d = xi.degree
    h_alpha = Fraction(xi.minpoly.height())
    denom = monomial_up([(d + 1, Fraction(d - 1, 2)), (d, Fraction(d, 2)),
                         (h_alpha, 2 * d - 2), (Fraction(d * d, 2) * height_bound ** 2, d)])
    return tidy_down(1 / denom)
