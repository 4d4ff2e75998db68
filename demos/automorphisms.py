#!/usr/bin/env python3
"""Enhanced automorphism groups of binary forms.

The degree-12 dihedral family F_{a,b} (here a = 3, b = 1) is invariant under
twelve unimodular substitutions and picks up the factor 729 = 3^6 under
twelve more of determinant +-3, for a group of order 24.  A generic cubic
like x^3 - 2y^3 only has the trivial +-identity.
"""

from gapkit import (aut_prime, d12_family, parse_form, root_orbit_partition,
                    verify_729)

F = d12_family(3, 1)
print("F =", F)

rpt = verify_729(F)
print("\nall 24 identities hold:", rpt["ok"])
print("sample det-3 map:", rpt["det3"][0]["matrix"], "-> F scales by 729")

aut = aut_prime(F)
print("\nAut'|F|: order", aut.order, " structure", aut.structure,
      " rational class", aut.table1_class)
print("|det| values:", sorted({abs(e.det) for e in aut.elements}))
gens = [(0, 1, 1, 0), (1, 1, -1, 2)]
print("contains the two generators:",
      all(g in {e.matrix.entries() for e in aut.elements} for g in gens))

part = root_orbit_partition(aut)
print("root orbits:", part.blocks, " gamma =", part.gamma)

print("\n-- x^3 - 2y^3 for contrast --")
G = aut_prime(parse_form("x^3 - 2*y^3"))
print("order", G.order, G.structure, "elements:",
      [e.matrix.entries() for e in G.elements])
part2 = root_orbit_partition(G)
print("gamma =", part2.gamma, "(no root is an integer-Moebius image of another)")

print("\n-- the Galois cubic x^3 - 3xy^2 - y^3 --")
G3 = aut_prime(parse_form("x^3 - 3*x*y^2 - y^3"))
print("order", G3.order, G3.structure, " gamma =",
      root_orbit_partition(G3).gamma)
