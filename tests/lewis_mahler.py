"""The Lewis-Mahler root-assignment inequality, checked solution by solution
(shared by the Thue tests and the acceptance suite)."""

from fractions import Fraction

from gapkit.algnum import normalize_minimal_poly
from gapkit.binforms import BinForm
from gapkit.isolation import RootEnclosure, disk_distance, isolate_roots
from gapkit.rounding import RatInterval, root_down, root_up
from gapkit.thue import Solution


def lewis_mahler_check(f: BinForm, sol: Solution, c10: Fraction) -> bool:
    """Certified check of the root-assignment inequality
    min(...) <= C10 |F(x, y)| / H**d for one solution."""
    poly = normalize_minimal_poly(f.dehomogenize())
    rhs = c10 * abs(sol.value) / Fraction(sol.height) ** f.degree
    width = Fraction(1, 10 ** 12)
    for _ in range(5):
        best_hi = None
        for e in isolate_roots(poly, width):
            if sol.y != 0:
                di = distance_to(e, Fraction(sol.x, sol.y))
                best_hi = di.hi if best_hi is None else min(best_hi, di.hi)
            di = inverse_distance(e, Fraction(sol.y, sol.x)) if sol.x != 0 else None
            if di is not None:
                best_hi = di.hi if best_hi is None else min(best_hi, di.hi)
        if best_hi is not None and best_hi <= rhs:
            return True
        width /= 10 ** 8
    return False


def distance_to(e: RootEnclosure, q: Fraction) -> RatInterval:
    """Certified |alpha - q| for the root alpha in the enclosure e, from
    ``disk_distance``; exact for a real root's disk."""
    lo, hi = disk_distance(e.disk, q.numerator, q.denominator, 1 << e.bits)
    den = q.denominator << e.bits
    return RatInterval(Fraction(lo, den), Fraction(hi, den))


def inverse_distance(e: RootEnclosure, q: Fraction) -> RatInterval | None:
    """Certified |1/alpha - q| for the root alpha in the enclosure e, None
    when the enclosure may hold 0.  A disk D(c, r) with |c| > r has the
    exact image D(conj(c) / (|c|**2 - r**2), r / (|c|**2 - r**2)) under
    z -> 1/z."""
    one = 1 << e.bits
    c, r = (Fraction(e.disk[0], one), Fraction(e.disk[1], one)), Fraction(e.disk[2], one)
    den = c[0] ** 2 + c[1] ** 2 - r * r
    if den <= 0:
        return None
    d2 = (c[0] / den - q) ** 2 + (c[1] / den) ** 2
    return RatInterval(max(Fraction(0), root_down(d2, 2) - r / den), root_up(d2, 2) + r / den)
