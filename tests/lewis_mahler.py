"""The Lewis-Mahler root-assignment inequality, checked solution by solution
(shared by the Thue tests and the acceptance suite)."""

from fractions import Fraction

from gapkit.algnum import normalize_minimal_poly
from gapkit.binforms import BinForm
from gapkit.isolation import ComplexDisk, CRat, isolate_roots
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
                di = e.distance_interval(Fraction(sol.x, sol.y))
                best_hi = di.hi if best_hi is None else min(best_hi, di.hi)
            if sol.x != 0:
                try:
                    disk = e.as_disk().inverse()
                    point = ComplexDisk.point(CRat.of(Fraction(sol.y, sol.x)))
                    di = (disk - point).abs_interval()
                    best_hi = di.hi if best_hi is None else min(best_hi, di.hi)
                except ZeroDivisionError:
                    pass
        if best_hi is not None and best_hi <= rhs:
            return True
        width /= 10 ** 8
    return False
