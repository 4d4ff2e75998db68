"""Exact linear algebra over Q and Z: integer kernel lattices via unimodular
row reduction, bounded lattice-point enumeration, 2-dimensional lattice
(Lagrange) reduction and its n-dimensional form, integral LLL."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul


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


def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice of the independent
    integer rows ``basis``, by H. Cohen's integral algorithm (GTM 138, Alg.
    2.6.7): d[i] is the Gram determinant of the first i rows, lam[k][j] =
    d[j+1] mu_kj, every division is exact, and row k's Gram-Schmidt data
    are first computed when k is first reached.  The first row is at most
    2**((n-1)/2) times the shortest (Lenstra, Lenstra and Lovasz, 1982)."""
    b, n = [list(v) for v in basis], len(basis)
    d, lam = [1, sum(x * x for x in basis[0])] + [0] * (n - 1), [[0] * n for _ in range(n)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(map(mul, b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
            if not u:
                raise ValueError("linearly dependent rows")
            d[k + 1] = u
        red(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * m * m:
            b[k], b[k - 1] = b[k - 1], b[k]
            lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
            new = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
            d[k] = new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b
