#!/usr/bin/env python3
"""Every computable constant in one place, plus the counting arithmetic.

Prints the Liouville, height, Wronskian and gap constants for the standing
cubic instance in both metrics, the exact Thue-Siegel parameters, and the
headline counting numbers 24*floor(f(3)) = 1536 and 24*floor(f(1e14)) = 72.
"""

from fractions import Fraction

from gapkit import (AlgNum, archimedean_constants, count_bound, f_floor,
                    find_pair, hensel_root, liouville_c6, liouville_c7,
                    nonarchimedean_constants, parse_poly, thue_siegel_params)
from gapkit.rounding import compact_str

f = parse_poly("x^3 - 3*x - 1")
g = parse_poly("x^3 - 3*x + 1")
alpha = AlgNum.near(f, Fraction("1.879"))
beta = AlgNum.near(g, Fraction("1.532"))
mu, c0 = Fraction(11, 4), Fraction(1)

print("C6 (Liouville, Archimedean) ~", float(liouville_c6(alpha)))
xi = hensel_root(f, 17, 3)
print("C7 (Liouville, 17-adic)     =", liouville_c7(xi))

pair = find_pair(alpha, beta)
arch = archimedean_constants(alpha, beta, mu, c0, pair=pair, rep=pair.rep)
print("\nArchimedean gap constants (mu = 11/4, C0 = 1):")
print("  C1 =", compact_str(arch.c_small, True), "  C2 =", compact_str(arch.c_big, True))
for name, val in arch.provenance:
    print(f"    {name}: {val}")

padic = nonarchimedean_constants(xi, pair, mu, c0)
print("\n17-adic gap constants:")
print("  C3 =", compact_str(padic.c_small, True), "  C4 =", compact_str(padic.c_big, True))

ps = thue_siegel_params(3, mahler_max_log=Fraction(106, 100))
print("\nThue-Siegel parameters at d = 3 (a = 1/500):")
print("  t^2   =", ps.t2, "  t ~", float(ps.t2) ** 0.5)
print("  tau^2 =", ps.tau2, "  tau ~", float(ps.tau2) ** 0.5)
print("  lambda ~", float(ps.lam2) ** 0.5, " < 1.42 sqrt(3) ~ 2.4595")
print("  delta^{-1} =", float(ps.delta_inverse), " < 41667 * 9 =", 41667 * 9)
print("  A =", compact_str(ps.A, True))

print("\ncounting bounds (mu = (3d+2)/4):")
print("  floor f(3)      =", f_floor(3), " -> 24 *", f_floor(3), "=", 24 * f_floor(3))
print("  floor f(10^14)  =", f_floor(10 ** 14), " -> 24 *", f_floor(10 ** 14),
      "=", 24 * f_floor(10 ** 14))
print("  gamma = 12 bound, both sides:", 2 * count_bound(3, mu, 12))
