"""Exact linear algebra over Q and Z: rank/nullspace, integer kernel lattices
via unimodular row reduction, bounded lattice-point enumeration, and
2-dimensional lattice (Lagrange) reduction."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd


def rational_rank(rows: list[list[Fraction]]) -> int:
    m = [row[:] for row in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [c * inv for c in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


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

    Coefficient ranges come from Cramer inversion of an independent row
    subset, so the enumeration is exhaustive.
    """
    k = len(basis)
    n = len(basis[0])
    if k == 0:
        return []
    # pick k linearly independent coordinate rows
    chosen: list[int] = []
    mat: list[list[Fraction]] = []
    for r in range(n):
        cand = mat + [[Fraction(basis[j][r]) for j in range(k)]]
        if rational_rank(cand) == len(cand):
            mat = cand
            chosen.append(r)
            if len(chosen) == k:
                break
    inv = _invert(mat)
    ranges = []
    for i in range(k):
        radius = sum(abs(inv[i][j]) for j in range(k)) * bound
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


def _invert(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    k = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(k)] + [Fraction(1 if i == j else 0) for j in range(k)]
           for i in range(k)]
    for col in range(k):
        piv = next(i for i in range(col, k) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]


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
