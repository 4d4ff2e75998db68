"""Thue-inequality enumeration, root assignment, and the large-solution census.

The enumeration is complete over the height box H(x, y) <= B and splits it
at a Legendre height H0 (``legendre_height``).  Up to H0 a window search
confines, for each y, the candidate x values to certified windows around
y * Re(root): a solution of 0 < |F(x, y)| <= m lies within delta0 =
(m/|c_d|)**(1/d) of some root ray alpha_i y, and then within the radius
r_i(y) = (m/|c_d|) / prod_{j != i} (L_ij y - delta0), which falls like
y**(1-d) once y passes delta0 / L_ij for the certified root distances L_ij.
A nonreal root's window is empty once |Im alpha_i| y exceeds its radius.
Above H0 the Lewis-Mahler inequality puts x/y (or y/x) within 1/(2 y**2)
(or 1/(2 x**2)) of a real root (or a real inverse root), so by Legendre's
theorem it is a continued-fraction convergent; the certified convergents
with denominator <= B are the only candidates there.  The work is
O(d**2 * min(H0, B)) integer operations for the windows, about
2 min(delta0, r_i(y)) + 2 candidates per open window and row, and O(d log B)
candidates above H0, so boxes far past H0 are cheap.

The census groups solutions into orbits of the unimodular part of the
enhanced automorphism group, computes the height threshold and the counting
bound, and checks that the bound is respected by everything the box search
found.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import ceil, floor, gcd, isqrt

from .algnum import (_FROBENIUS_PRIMES, AlgNum, NotInFieldError, is_irreducible, liouville_c6,
                     normalize_minimal_poly, power_rep, theta_upper_bound)
from .autgroup import (EnhancedAut, OrbitPartition, _components, aut_prime,
                       root_orbit_partition)
from .binforms import BinForm, discriminant
from .gap import (ApproxPair, _validate_mu, archimedean_c2,
                  archimedean_floor_branches, c16, compare_to_power, count_bound)
from .intpoly import IntPoly, describe, factor_degrees_by_prime
from .isolation import (PrecisionError, _abs_bounds, _disk_abs, _RootSystem, disk_sub,
                        first_rung, root_system)
from .minpair import c12_closed_form, c13_formula
from .record import Record
from .rounding import (AbstainError, compact_str, largest, log_interval, monomial_up, pow_up,
                       root_up, tidy_up)


class ThueError(ValueError):
    pass


class ThueProblem(Record):
    """0 < |F(x, y)| <= m over primitive (x, y) with height <= bound."""

    __slots__ = ("form", "m", "bound")

    def __init__(self, form: BinForm, m: int, bound: int):
        if m < 1:
            raise ThueError("m must be >= 1 (the inequality is strict at 0)")
        if bound < 1:
            raise ThueError("height bound must be >= 1")
        if form.degree < 3:
            raise ThueError("degree must be >= 3")
        if form.lead_x == 0 or not is_irreducible(form.dehomogenize()):
            raise ThueError(f"form of {describe(form)} is not irreducible over Q")
        self._init(form, m, bound)

    @property
    def degree(self) -> int:
        return self.form.degree


class Solution(Record):
    """Primitive solution, sign-normalized: first nonzero coordinate > 0.
    ``route`` names the search that found it: "window" or "convergent"."""

    __slots__ = ("x", "y", "value", "route")
    _uncompared = ("route",)

    def __init__(self, x: int, y: int, value: int, route: str = "window"):  # value = F(x, y)
        set_ = object.__setattr__
        set_(self, "x", x)
        set_(self, "y", y)
        set_(self, "value", value)
        set_(self, "route", route)

    @property
    def height(self) -> int:
        return max(abs(self.x), abs(self.y))

    @staticmethod
    def normalized(x: int, y: int, value: int, d: int,
                   route: str = "window") -> "Solution":
        lead = x if x != 0 else y
        if lead < 0:
            x, y = -x, -y
            if d % 2:
                value = -value
        return Solution(x, y, value, route)


def enumerate_primitive(problem: ThueProblem, h0: int | None = None) -> list[Solution]:
    """Complete list of sign-normalized primitive solutions with
    H(x, y) <= bound: the window search up to the Legendre height H0 (taken
    from ``legendre_height`` when not given), the convergent search above.
    Each solution's ``route`` names the search that found it."""
    f, m, bound = problem.form, problem.m, problem.bound
    if h0 is None:
        h0 = legendre_height(f, m, lewis_mahler_c10(f))
    if bound <= h0:
        return window_search(f, m, bound)
    sols = window_search(f, m, h0) + convergent_search(f, m, h0, bound)
    return sorted(sols, key=lambda s: (s.height, s.x, s.y))


def window_search(f: BinForm, m: int, height: int) -> list[Solution]:
    """Every sign-normalized primitive solution of 0 < |F(x, y)| <= m with
    H(x, y) <= height, via certified per-y windows around the root rays.

    Each solution has a root alpha_i with |x - alpha_i y| <= delta0 =
    (m/|c_d|)**(1/d), since |F(x, y)| = |c_d| prod_j |x - alpha_j y|.  If
    L_ij <= |alpha_i - alpha_j|, then |x - alpha_j y| >= L_ij y - delta0 for
    every j != i, and when all of these are positive the radius around root
    i shrinks to r_i(y) = (m/|c_d|) / prod_{j != i} (L_ij y - delta0).  A
    nonreal alpha_i with |Im alpha_i| >= I_i has |x - alpha_i y| >= I_i y
    for every real x, so its window is empty once I_i y exceeds the radius.

    Each row y costs O(d**2) integer operations for the windows
    (``_root_windows``).  Its candidates are evaluated by Horner's rule on
    the row's coefficients c_k y**k, and only those with 0 < |F| <= m pay
    a gcd.  An open window holds about 2 min(delta0, r_i(y)) + 2
    candidates, so once the radii fall below 1 and the nonreal windows
    close, a row costs O(d) candidates."""
    d = f.degree
    out = [Solution(1, 0, f.lead_x)] if abs(f.lead_x) <= m else []
    for y, windows in _root_windows(f, m, height):
        merged: list[list[int]] = []
        for lo, hi in sorted(w for w in windows if w is not None):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        row, yk = [], 1
        for c in f.coeffs:
            row.append(c * yk)
            yk *= y
        for lo, hi in merged:
            for x in range(max(lo, -height), min(hi, height) + 1):
                v = 0
                for a in row:
                    v = v * x + a
                if 0 < abs(v) <= m and gcd(x, y) == 1:
                    out.append(Solution.normalized(x, y, v, d))
    return sorted(out, key=lambda s: (s.height, s.x, s.y))


def _root_windows(f: BinForm, m: int, height: int):
    """(y, windows) for y = 1, ..., height: windows[i] is an integer range
    (lo, hi) holding every x with |x - alpha_i y| <= min(delta0, r_i(y))
    (``window_search``), or None when no real x is that close, alpha_i
    being root i of the first rung of the root system's ladder.

    The constants are integers at the table's scale 2**b, taken once:
    l_ij <= L_ij 2**b and I_i 2**b rounded down, D >= delta0 2**b and
    k >= K 2**b (K = m/|c_d|) rounded up.  Then g_j = l_ij y - D is at most
    (L_ij y - delta0) 2**b, so when every g_j > 0, r_i(y) 2**b is at most
    k 2**(b (d-1)) / prod_j g_j, rounded up.  Every radius and window end
    is thus rounded outward, and each window end costs one multiply and
    one shift."""
    d = f.degree
    table = first_rung(f.dehomogenize())
    b = table.bits
    lead = abs(f.lead_x)
    delta = ceil(root_up(Fraction(m, lead), d) * (1 << b))
    num = -(-(m << b) // lead) << (b * (d - 1))
    roots = []
    for i, (re, im, rad) in enumerate(table.alpha):
        gaps = [_abs_bounds(disk_sub(table.alpha[i], z))[0]
                for j, z in enumerate(table.alpha) if j != i]
        roots.append((re - rad, re + rad, abs(im) - rad if im else 0, gaps))
    for y in range(1, height + 1):
        windows = []
        for re_lo, re_hi, im_lo, gaps in roots:
            rho, den = delta, 1
            for g in gaps:
                den *= g * y - delta
                if den <= 0:
                    break
            else:
                rho = min(delta, -(-num // den))
            windows.append(None if im_lo * y > rho else
                           ((re_lo * y - rho) >> b, -(-(re_hi * y + rho) >> b)))
        yield y, windows


def legendre_height(f: BinForm, m: int, c10: Fraction) -> int:
    """An integer H0 >= 1 above which every primitive solution of
    0 < |F(x, y)| <= m is found among continued-fraction convergents:
    with H = H(x, y) > H0, either x/y is a convergent of a real root
    alpha_i of F(x, 1) or y/x is a convergent of a real root alpha_i^{-1}
    of F(1, y).

    H0 is the larger of the least integers past the roots of
    H**(d-2) = 2 C10 m and H**d = C10 m / iota, where iota is a lower bound
    on |Im| over the nonreal roots and inverse roots.  The argument: H > H0
    >= 1 forces x y != 0 (a primitive pair with a zero coordinate has
    H = 1), and Lewis-Mahler gives a root alpha_i with

        delta = min(|alpha_i - x/y|, |alpha_i^{-1} - y/x|) <= C10 m / H**d.

    * A nonreal alpha_i has |alpha_i - x/y| >= |Im alpha_i| >= iota, and
      |alpha_i^{-1} - y/x| >= |Im alpha_i^{-1}| >= iota, while
      C10 m / H**d < iota: so alpha_i is real.
    * Say the minimum is |alpha_i - x/y| and write x/y = p/q in lowest terms
      with q = |y| >= 1 ((x, y) is primitive).  Then q <= H, so
      1/(2 q**2) >= 1/(2 H**2) > C10 m / H**d >= delta, the middle step
      being H**(d-2) > 2 C10 m.  Legendre's theorem (|alpha - p/q| <
      1/(2 q**2) makes p/q a convergent of the irrational alpha) applies.
      The case q < H, when |x| is the height, only widens the margin.
    * The y/x side is the same argument with x and y swapped.

    Every rounding goes up: C10 is an upper bound, iota is read off each
    disk D(c, r) of the first rung as (|Im c| - r) / max(1, |c| + r)**2 (a
    lower bound for both the root and its inverse), and the roots are taken
    with ``root_up``.  An H0 that is too large costs window-search time;
    it never loses a solution."""
    d = f.degree
    height = root_up(2 * c10 * m, d - 2)
    table = first_rung(f.dehomogenize())
    nonreal = [z for z in table.alpha if z[1]]
    if nonreal:
        # |Im alpha| >= |Im c| - r on the disk D(c, r), and
        # |Im alpha^{-1}| = |Im alpha| / |alpha|**2
        iota = min(Fraction(abs(z[1]) - z[2], 1 << table.bits)
                   / max(1, _disk_abs(z, table.bits).hi) ** 2 for z in nonreal)
        height = max(height, root_up(c10 * m / iota, d))
    return max(1, floor(height))


def convergent_search(f: BinForm, m: int, h0: int, bound: int) -> list[Solution]:
    """Every sign-normalized primitive solution with h0 < H(x, y) <= bound,
    for h0 >= ``legendre_height``: the certified convergents p/q (q <= bound)
    of each real root, tried as (x, y) = (p, q), and of each real inverse
    root, tried as (x, y) = (q, p).  Costs O(d log bound) candidates."""
    d = f.degree
    poly = normalize_minimal_poly(f.dehomogenize())
    out: dict[tuple[int, int], Solution] = {}
    for e in root_system(poly).base:
        if not e.is_real:
            continue
        for inverse in (False, True):
            for pair in convergents(AlgNum(poly, e.index), max_den=bound,
                                    inverse=inverse):
                x, y = (pair.y, pair.x) if inverse else (pair.x, pair.y)
                if not (h0 < max(abs(x), abs(y)) <= bound and gcd(x, y) == 1):
                    continue
                v = f.value(x, y)
                if 0 < abs(v) <= m:
                    sol = Solution.normalized(x, y, v, d, route="convergent")
                    out[(sol.x, sol.y)] = sol
    return list(out.values())


def lewis_mahler_c10(f: BinForm) -> Fraction:
    """Rounded-up 2**(d-1) d**((d-1)/2) M(F)**(d-2) / |D(F)|**(1/2)."""
    d = f.degree
    if f.lead_x == 0 or f.lead_y == 0:
        raise ThueError("Lewis-Mahler needs c_0 * c_d != 0")
    disc = discriminant(f)
    if disc == 0:
        raise ThueError("zero discriminant")
    m_up = first_rung(f.dehomogenize()).mahler(f.lead_x).hi
    return tidy_up(monomial_up([(2, d - 1), (d, Fraction(d - 1, 2)), (m_up, d - 2),
                                (Fraction(1, abs(disc)), Fraction(1, 2))]))


def assign_root(system: _RootSystem, sols: list[Solution]
                ) -> tuple[tuple[int, str, bool], ...]:
    """For each solution, (root index, side, tie) minimizing
    min(|alpha_i - x/y|, |alpha_i^{-1} - y/x|) over the roots of F(x, 1),
    ``system``; the side is "alpha" or "alpha_inv".  Two candidates at one
    rational target that are one number, or that a root-permuting isometry
    fixing the target maps to each other, tie exactly: mirror conjugates on
    one side; at the target 0, a root (or inverse root) and its negative
    (``ScaledRoots.neg``) or the negative's conjugate; and, when x = +-y
    makes x/y = y/x, a root and the inverse of its reciprocal partner
    (``ScaledRoots.recip``) or of that partner's conjugate.  Such ties
    resolve, with tie=True, to a real root (one without a mirror) first,
    then the smaller root index, then the alpha side.  Other ties refine,
    and a tie that survives every rung is reported the same way.

    The batch walks the root system's refinement ladder once: each rung, a
    ``ScaledRoots`` table of integer disks at scale 2**b that contain each
    root and its inverse, decides what it can and passes the rest on.  For
    a target p/q (x/y, or y/x on the inverse side), the disk q z - p has
    center (a, b') up to sign, a = |q re - p 2**b| and b' = |q im|, and
    radius R = |q| rad, so 2**b |q| |z - p/q| lies in [lo, hi] from
    ``_abs_bounds``; candidates compare by cross-multiplying their |q|.  The
    best has the least hi/|q|; it is decided when no rival's lo/|q| lies
    below that, which then holds for the exact distances too.  Before any
    ``isqrt``, max(a, b') <= sqrt(a**2 + b'**2) <= a + b' gives
    L = max(a, b') - R <= lo and U = a + b' + R >= hi: with m the candidate
    of least U/|q|, one with L/|q| > U_m/|q_m| is neither the best nor a
    rival and is dropped, so each solution gets the answer it would alone."""
    out = [None] * len(sols)
    todo = list(range(len(sols)))
    try:
        for table in system.ladder():
            one = 1 << table.bits
            disks = list(enumerate(zip(table.alpha, table.inverse)))
            left = []
            for k in todo:
                x, y = sols[k].x, sols[k].y
                # (a, b', R, q, index, side), the distance's disk (above)
                raw = []
                for i, (enc, inv) in disks:
                    if y != 0:
                        raw.append((abs(enc[0] * y - x * one), abs(enc[1] * y),
                                    enc[2] * abs(y), abs(y), i, "alpha"))
                    if x != 0 and inv is not None:
                        raw.append((abs(inv[0] * x - y * one), abs(inv[1] * x),
                                    inv[2] * abs(x), abs(x), i, "alpha_inv"))
                um, qm = raw[0][0] + raw[0][1] + raw[0][2], raw[0][3]
                for a, b, r, q, _, _ in raw:
                    if (a + b + r) * qm < um * q:
                        um, qm = a + b + r, q
                # (lo, hi, q, index, side): the distance lies in [lo, hi] / (q 2**b)
                cands = [(*_abs_bounds(c[:3]), *c[3:]) for c in raw
                         if (max(c[0], c[1]) - c[2]) * qm <= um * c[3]]
                best = cands[0]
                for c in cands[1:]:
                    if c[1] * best[2] < best[1] * c[2]:
                        best = c
                rivals = [c for c in cands
                          if c is not best and c[0] * best[2] < best[1] * c[2]]
                pick = min([best] + rivals, key=lambda c: (
                    table.mirror[c[3]] is not None, c[3], c[4] != "alpha"))
                out[k] = pick[3], pick[4], bool(rivals)
                if not all(_exact_tie(table, c, best, x, y) for c in rivals):
                    left.append(k)
            todo = left
            if not todo:
                break
    except PrecisionError:
        if None in out:
            raise
    return tuple(out)


def _exact_tie(table, a, b, x: int, y: int) -> bool:
    """Whether candidates a and b are at equal distances (``assign_root``)."""
    if a[4] == b[4]:   # at the target 0, also a negative and its conjugate
        k = table.neg[a[3]] if (x if a[4] == "alpha" else y) == 0 else None
        return b[3] in {table.mirror[a[3]]} | ({k, table.mirror[k]} if k is not None else set())
    ka, kb = (c[3] if c[4] == "alpha" else table.recip[c[3]] for c in (a, b))
    return x * x == y * y and None not in (ka, kb) and (ka == kb or table.mirror[ka] == kb)


# -- the Theorem-1.3 style census -------------------------------------------------

def galois_status(f: BinForm, part: OrbitPartition) -> tuple[str, str]:
    """("yes" | "no" | "unknown", reason), given the orbit partition of the
    roots of F(x, 1) under Aut'|F| (``root_orbit_partition``).  Every "yes"
    and every "no" is certified.  "yes": one orbit covers all roots (each
    is an integer-Moebius image of the first, so Q(alpha)/Q is Galois of
    degree d), a cubic's discriminant is a square, or all roots are real and
    each conjugate has a verified power-basis representation over the
    first.  "no": a cubic's discriminant is not a square, or f has factors
    of unequal degrees mod one of the first ``_FROBENIUS_PRIMES`` primes
    dividing neither lc(f) nor disc(f): these are the cycle lengths of a
    Frobenius element, and in a Galois field each element's cycles have one
    length.  Anything else, a failed relation search included, is "unknown"."""
    d = f.degree
    if part.gamma == d:
        return "yes", "orbit of one root covers all roots"
    if d == 3:
        disc = discriminant(f)
        root = isqrt(abs(disc))
        if disc > 0 and root * root == disc:
            return "yes", "cubic with square discriminant"
        return "no", "cubic discriminant is not a positive square"
    poly = normalize_minimal_poly(f.dehomogenize())
    for p, degrees in islice(factor_degrees_by_prime(poly), _FROBENIUS_PRIMES):
        if len(set(degrees)) > 1:
            return "no", f"factor degrees {degrees} mod {p}"
    if all(e.is_real for e in root_system(poly).base):
        alpha1 = AlgNum(poly, 0)
        try:
            for idx in range(1, d):
                power_rep(alpha1, AlgNum(poly, idx))
            return "yes", "every conjugate has a verified power-basis representation"
        except (NotInFieldError, AbstainError):
            return "unknown", "a conjugate has no verified representation over the first root"
    return "unknown", "complex conjugates outside the orbit route"


def c5(f: BinForm, m: int, mu: Fraction, c10: Fraction) -> tuple[Fraction, dict]:
    """Height threshold of the large-solution count: big enough that the
    Lewis-Mahler step (``c10`` = ``lewis_mahler_c10(f)``) forces quality mu,
    and at least both C16 thresholds (with C0 = 1) for the roots and the
    inverse roots.  C16 is built once per distinct normalized minimal
    polynomial: when the reciprocal polynomial normalizes to the polynomial
    itself (a palindromic form, up to sign), the inverse roots are the
    roots and their entries repeat the roots'."""
    d = f.degree
    mu = _validate_mu(d, mu)
    first = pow_up(c10 * m, 1 / (d - mu))
    while not compare_to_power(first, c10 * Fraction(m), Fraction(1, 1) / (d - mu)) > 0:
        first += Fraction(1, 10 ** 6)
    poly = normalize_minimal_poly(f.dehomogenize())
    recip = normalize_minimal_poly(poly.reciprocal())
    c16_a, prov_a = _conjugate_c16(poly, mu)
    c16_b, prov_b = ((c16_a, prov_a) if recip.coeffs == poly.coeffs
                     else _conjugate_c16(recip, mu))
    candidates = (first, c16_a, c16_b)
    value = tidy_up(candidates[largest(candidates)])
    prov = {"lewis-mahler": compact_str(first, True),
            "C16(alpha)": compact_str(c16_a, True), "C16(alpha_inv)": compact_str(c16_b, True),
            "branches(alpha)": prov_a, "branches(alpha_inv)": prov_b}
    return value, prov


def _conjugate_c16(p: IntPoly, mu: Fraction) -> tuple[Fraction, dict]:
    """C16 with C0 = 1 for the roots of ``p``, from the closed-form
    Archimedean gap constants of the ordered pairs of distinct roots: the
    index bound stands in for the exact denominator scalar, so no pair is
    computed (all roundings upward).  C12 and the Mahler measure are shared
    by the roots and computed once.

    C_big, the largest ``archimedean_c2`` over the pairs (i, j), is that of
    (top, second) or (second, top), the roots of largest and second largest
    |alpha|, since ``archimedean_c2`` is nondecreasing in
    max(1, |alpha_i|) and in |alpha_j|: ``monomial_up`` ceils every step to
    a grid that only coarsens as the value grows, and ``tidy_up`` ceils to
    a decimal grid set by floor(log2 x) on the dyadics that ``monomial_up``
    returns (on other fractions the parts' bit lengths misplace the binade,
    and ``tidy_up`` puts 35/3 above some fractions just over it)."""
    d = p.degree
    c0 = Fraction(1)
    alphas = [AlgNum(p, i) for i in range(d)]
    c12v = c12_closed_form(alphas[0], alphas[1],
                           theta_upper_bound(alphas[0]) * alphas[1].lead)
    m_up = alphas[0].mahler_interval().hi
    abs_up = [a.abs_interval().hi for a in alphas]
    max1_up = [max(Fraction(1), v) for v in abs_up]
    roots = [(c13_formula(a, c12v, m_up), liouville_c6(a), max1_up[i])
             for i, a in enumerate(alphas)]
    c_small = max(tidy_up(max(b for _, b in branches))
                  for branches in archimedean_floor_branches(d, mu, c0, c12v, roots))
    second, top = sorted(range(d), key=abs_up.__getitem__)[-2:]
    c_big = max(archimedean_c2(d, c0, c12v, max1_up[i], abs_up[j])
                for i, j in ((top, second), (second, top)))
    return c16(alphas, mu, c0, c_small, c_big, log_interval(m_up).hi)


class Census(Record):
    __slots__ = ("problem", "solutions", "assignments", "orbits", "gamma", "aut_order",
                 "c5_value", "mu", "theorem_bound", "large_count", "galois", "provenance")

    def __init__(self, problem: ThueProblem, solutions: tuple[Solution, ...],
                 assignments: tuple[tuple[int, str, bool], ...],
                 orbits: tuple[tuple[int, ...], ...],   # indices into solutions
                 gamma: int, aut_order: int, c5_value: Fraction, mu: Fraction,
                 theorem_bound: int, large_count: int, galois: tuple[str, str],
                 provenance: dict):
        self._init(problem, solutions, assignments, orbits, gamma, aut_order, c5_value, mu,
                   theorem_bound, large_count, galois, provenance)

    def report(self) -> dict:
        return {
            "form": str(self.problem.form),
            "m": self.problem.m,
            "box": self.problem.bound,
            "mu": str(self.mu),
            "solutions": [(s.x, s.y, s.value) for s in self.solutions],
            "orbits": [list(o) for o in self.orbits],
            "gamma": self.gamma,
            "autOrder": self.aut_order,
            "C5": {"value": compact_str(self.c5_value, True), "rounding": "up"},
            "theoremBound": self.theorem_bound,
            "largeSolutions": self.large_count,
            "boundRespected": self.large_count <= self.theorem_bound,
            "galois": {"status": self.galois[0], "reason": self.galois[1]},
            "gyoryBound": 25 * self.problem.degree,
            "provenance": self.provenance,
        }

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["x", "y", "F", "H", "rootIndex", "side", "orbitId"])
        orbit_of = {}
        for oid, block in enumerate(self.orbits):
            for i in block:
                orbit_of[i] = oid
        for i, (s, a) in enumerate(zip(self.solutions, self.assignments)):
            w.writerow([s.x, s.y, s.value, s.height, a[0], a[1], orbit_of[i]])
        return buf.getvalue()


def census(problem: ThueProblem, mu: Fraction) -> Census:
    """Box enumeration + orbit grouping + the counting-theorem checks.  mu
    is checked before any of them runs."""
    f = problem.form
    d = problem.degree
    mu = _validate_mu(d, mu)
    aut = aut_prime(f)
    part = root_orbit_partition(aut)
    gamma = part.gamma
    if not 2 * gamma <= aut.order:
        raise AssertionError("gamma exceeds #Aut'/2")
    gal = galois_status(f, part)
    c10 = lewis_mahler_c10(f)
    h0 = legendre_height(f, problem.m, c10)
    sols = enumerate_primitive(problem, h0)
    c5v, prov = c5(f, problem.m, mu, c10)
    inner = count_bound(d, mu, 1)
    bound = aut.order * inner
    # heights are integers: H >= C5 exactly when H >= ceil(C5); C5 is
    # usually a megabit integer, read without ceil's division
    threshold = c5v.numerator if c5v.denominator == 1 else ceil(c5v)
    large = [s for s in sols if s.height >= threshold]
    if len(large) > bound:
        raise AssertionError("counting bound violated: defect or non-Galois input")
    orbits = _solution_orbits(f, aut, sols)
    system = root_system(f.dehomogenize())
    assignments = assign_root(system, sols)
    prov.update({"countBoundInner": inner, "H0": h0,
                 "routes": [s.route for s in sols]})
    return Census(problem, tuple(sols), assignments, orbits, gamma, aut.order,
                  c5v, mu, bound, len(large), gal, prov)


def _solution_orbits(f: BinForm, aut: EnhancedAut,
                     sols: list[Solution]) -> tuple[tuple[int, ...], ...]:
    index_of = {(s.x, s.y): i for i, s in enumerate(sols)}
    # skip +-I (u = t = 0, s = v): self-edges, and |F(-x, -y)| = |F(x, y)|
    maps = [a for a in (el.matrix for el in aut.unimodular()) if a.u or a.t or a.s != a.v]
    edges = set()
    for i, s in enumerate(sols):
        for mat in maps:
            xp, yp = mat.apply(s.x, s.y)
            # sign-normalize the image as Solution.normalized does
            if (xp or yp) < 0:
                xp, yp = -xp, -yp
            j = index_of.get((xp, yp))
            if abs(f.value(xp, yp) if j is None else sols[j].value) != abs(s.value):
                raise AssertionError("unimodular image changed |F|: identity broken")
            if j is not None:
                edges.add((i, j))
    return _components(len(sols), edges).blocks


# -- continued fractions --------------------------------------------------------

def convergents(alpha: AlgNum, count: int | None = None, *,
                max_den: int | None = None,
                inverse: bool = False) -> list[ApproxPair]:
    """Continued-fraction convergents of a real irrational alpha, or of
    1/alpha with ``inverse``: the first ``count``, or every one with
    denominator <= ``max_den``.  Computed from certified enclosures: a term
    is taken only when the floors of both endpoints agree, and the
    ``max_den`` walk stops once every value the next term can take gives a
    denominator past ``max_den``.  The enclosure is refined here rather
    than through the root cache, because its widths depend on the box."""
    if (count is None) == (max_den is None):
        raise ValueError("give exactly one of count and max_den")
    enc = alpha.enclosure()
    if not enc.is_real:
        raise ValueError("convergents need a real number")
    # a convergent p/q is within 1/q**2 of alpha, so an enclosure of width
    # 2**-32 / max_den**2 usually decides every term needed; else refine
    width = Fraction(1, 10 ** 40) if max_den is None else Fraction(1, max_den * max_den << 32)
    if inverse:
        # 1/alpha moves |alpha|**2 times as far as alpha, and |alpha| >= 2**e:
        # each |c_k| 2**(e k) <= |c_0| / d for k >= 1, so |c_0| outweighs the rest
        c, db = alpha.minpoly.coeffs, alpha.degree.bit_length()
        width /= 4 ** -min([0] + [(c[0].bit_length() - 1 - db - ck.bit_length()) // k
                                  for k, ck in enumerate(c) if k and ck])
    for _ in range(12):
        iv = enc.refine(width).interval
        if inverse:
            iv = iv.inverse() if iv.lo * iv.hi > 0 else None
        terms = None if iv is None else _cf_terms(iv.lo, iv.hi, count, max_den)
        if terms is not None:
            break
        width /= 10 ** 40
    else:
        raise PrecisionError("continued fraction did not stabilize")
    out = []
    h0, h1 = 1, terms[0]
    k0, k1 = 0, 1
    out.append(ApproxPair.reduced(h1, k1))
    for a in terms[1:]:
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append(ApproxPair.reduced(h1, k1))
    return out


def _cf_terms(lo: Fraction, hi: Fraction, count: int | None,
              max_den: int | None) -> list[int] | None:
    """Certified partial quotients of the irrational in [lo, hi], or None
    when the interval cannot decide one that is needed."""
    terms = []
    k0, k1 = 0, 1   # denominators of the last two convergents
    while count is None or len(terms) < count:
        flo, fhi = floor(lo), floor(hi)
        if max_den is not None and terms and flo * k1 + k0 > max_den:
            return terms
        if flo != fhi:
            return None
        if terms:
            k0, k1 = k1, flo * k1 + k0
        terms.append(flo)
        lo, hi = lo - flo, hi - flo
        if lo <= 0:
            return None
        lo, hi = 1 / hi, 1 / lo
    return terms
