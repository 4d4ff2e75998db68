#!/usr/bin/env python3
"""The generalized gap principle on desk-scale data.

Two instances: a Moebius-linked cubic pair, where derived approximations
realize the second case of the dichotomy, and the quartic pair of the
minimal-pair example, where only the gap case can occur.  The height floor
is lowered to 1 (desk mode) so the conclusion is exercised on small pairs;
the honest floor is printed alongside.
"""

from fractions import Fraction

from gapkit import (AlgNum, archimedean_constants, check_gap_dichotomy,
                    convergents, derived_approx, mobius_relation, parse_poly)
from gapkit.gap import ApproxPair, HypothesisError

mu, c0 = Fraction(11, 4), Fraction(10 ** 4)
alpha = AlgNum.near(parse_poly("x^3 - 3*x - 1"), Fraction("1.879"))
beta = AlgNum.near(parse_poly("x^3 - 3*x + 1"), Fraction("1.532"))

rel = mobius_relation(alpha, beta)
print(f"beta = ({rel.s} a + {rel.t})/({rel.u} a + {rel.v})  [det {rel.det}]")

constants = archimedean_constants(alpha, beta, mu, c0)
print("honest C1 ~", float(constants.c_small), " C2 ~", float(constants.c_big))
desk = constants.desk_mode()

print("\nconvergent pairs of alpha vs derived/independent approximations of beta:")
for p1 in convergents(alpha, 6):
    xp, yp = derived_approx(p1.x, p1.y, rel)
    for p2 in (ApproxPair.reduced(xp, yp), ApproxPair(20, 13)):
        if p2.height < p1.height:
            continue
        try:
            v = check_gap_dichotomy(alpha, beta, mu, c0, p1, p2, desk,
                                    relation=rel)
        except HypothesisError as exc:
            print(f"  {p1.x}/{p1.y} vs {p2.x}/{p2.y}: skipped ({exc})")
            continue
        print(f"  {p1.x}/{p1.y} vs {p2.x}/{p2.y}: {v.verdict}")

print("\nquartic pair without a Moebius relation:")
f15 = parse_poly("x^4 - x^3 - 4*x^2 + 4*x + 1")
a15 = AlgNum.near(f15, Fraction("1.827"))
b15 = AlgNum.near(f15, Fraction("1.338"))
desk15 = archimedean_constants(a15, b15, Fraction(7, 2), Fraction(10 ** 5)).desk_mode()
rel15 = mobius_relation(a15, b15)
pa = convergents(a15, 8)
pb = convergents(b15, 8)
shown = 0
for p1 in pa:
    for p2 in pb:
        if p2.height < p1.height or shown >= 6:
            continue
        try:
            v = check_gap_dichotomy(a15, b15, Fraction(7, 2), Fraction(10 ** 5),
                                    p1, p2, desk15, rel15)
        except HypothesisError:
            continue
        print(f"  {p1.x}/{p1.y} vs {p2.x}/{p2.y}: {v.verdict}")
        shown += 1
