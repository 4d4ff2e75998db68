"""Exact linear algebra over Q and Z: integer kernel lattices via unimodular
row reduction, bounded lattice-point enumeration, and 2-dimensional lattice
(Lagrange) reduction."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd


def integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Z-basis of {v in Z^ncols : rows @ v = 0}.  The lattice is saturated
    (it is cut out by linear equations), so every integer solution is an
    integer combination of the returned basis."""
    n = ncols
    work = [[rows[r][c] for r in range(len(rows))] for c in range(n)]  # A^T
    unim = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    mrows = len(rows)
    row = 0
    for col in range(mrows):
        # find pivot via gcd sweep on column `col`, rows row..n-1
        while True:
            nz = [i for i in range(row, n) if work[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(work[i][col]))
            if piv != row:
                work[row], work[piv] = work[piv], work[row]
                unim[row], unim[piv] = unim[piv], unim[row]
            done = True
            for i in range(row + 1, n):
                if work[i][col] != 0:
                    q = work[i][col] // work[row][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[row])]
                    unim[i] = [a - q * b for a, b in zip(unim[i], unim[row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                row += 1
                break
        if row == n:
            break
    kernel = [unim[i] for i in range(n) if all(c == 0 for c in work[i])]
    return [_primitive_vector(v) for v in kernel]


def _primitive_vector(v: list[int]) -> list[int]:
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    if g > 1:
        v = [c // g for c in v]
    return v


def kernel_vectors_up_to(basis: list[list[int]], bound: int) -> list[tuple[int, ...]]:
    """All nonzero lattice vectors c_1 b_1 + ... + c_k b_k with max-norm <=
    bound, one per +/- pair (first nonzero coefficient positive).

    Coefficient ranges come from the inverse of the k x k matrix of the
    first k independent coordinate rows, |c_i| <= bound sum_j |inv_ij|, so
    the enumeration is exhaustive.  One Gauss-Jordan pass over the rows, in
    order, finds both: each row carries, after its k coordinates, its
    combination of the rows kept so far; a row that does not reduce to 0 is
    kept, and once k are kept, the row with pivot i carries row i of the
    inverse.
    """
    k = len(basis)
    if k == 0:
        return []
    n = len(basis[0])
    kept: dict[int, list[Fraction]] = {}   # reduced rows by pivot column
    for r in range(n):
        row = [Fraction(b[r]) for b in basis] + [Fraction(t == len(kept)) for t in range(k)]
        for c, p in kept.items():
            f = row[c]
            if f:
                row = [a - f * b for a, b in zip(row, p)]
        piv = next((c for c in range(k) if row[c]), None)
        if piv is None:
            continue
        inv = 1 / row[piv]
        row = [a * inv for a in row]
        for c, p in kept.items():
            g = p[piv]
            if g:
                kept[c] = [a - g * b for a, b in zip(p, row)]
        kept[piv] = row
        if len(kept) == k:
            break
    ranges = []
    for i in range(k):
        radius = sum(abs(v) for v in kept[i][k:]) * bound
        ranges.append(range(-int(radius), int(radius) + 1))
    out = []
    for cs in product(*ranges):
        if all(c == 0 for c in cs):
            continue
        first = next(c for c in cs if c != 0)
        if first < 0:
            continue  # representative per +/- pair
        v = tuple(sum(cs[j] * basis[j][i] for j in range(k)) for i in range(n))
        if any(v) and max(abs(c) for c in v) <= bound:
            out.append(v)
    return out


def lagrange_reduce(b1: tuple[int, int], b2: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Gauss-Lagrange reduction of a rank-2 integer lattice basis."""

    def norm2(v):
        return v[0] * v[0] + v[1] * v[1]

    if norm2(b1) > norm2(b2):
        b1, b2 = b2, b1
    while True:
        n1 = norm2(b1)
        if n1 == 0:
            raise ValueError("degenerate lattice basis")
        mu = Fraction(b1[0] * b2[0] + b1[1] * b2[1], n1)
        q = round(mu)
        b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1])
        if norm2(b2) >= n1:
            return b1, b2
        b1, b2 = b2, b1
