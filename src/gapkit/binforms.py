"""Homogeneous integer binary forms and the GL2(Z) substitution action."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterable

from .intpoly import IntPoly, discriminant_poly


@dataclass(frozen=True)
class IntMat2:
    """Integer 2x2 matrix (s u; t v) acting on forms by
    F_M(x, y) = F(s*x + u*y, t*x + v*y)."""

    s: int
    u: int
    t: int
    v: int

    @property
    def det(self) -> int:
        return self.s * self.v - self.t * self.u

    @staticmethod
    def identity() -> "IntMat2":
        return IntMat2(1, 0, 0, 1)

    def __neg__(self) -> "IntMat2":
        return IntMat2(-self.s, -self.u, -self.t, -self.v)

    def __matmul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.s * other.s + self.u * other.t,
            self.s * other.u + self.u * other.v,
            self.t * other.s + self.v * other.t,
            self.t * other.u + self.v * other.v,
        )

    def content(self) -> int:
        return gcd(gcd(abs(self.s), abs(self.u)), gcd(abs(self.t), abs(self.v)))

    def primitive(self) -> "IntMat2":
        g = self.content()
        if g <= 1:
            return self
        return IntMat2(self.s // g, self.u // g, self.t // g, self.v // g)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.s, self.u, self.t, self.v)

    def apply(self, x: int, y: int) -> tuple[int, int]:
        """Point action matching the form action: (x, y) -> (sx+uy, tx+vy)."""
        return (self.s * x + self.u * y, self.t * x + self.v * y)


class BinForm:
    """Binary form c_d x^d + c_{d-1} x^(d-1) y + ... + c_0 y^d stored as the
    coefficient tuple (c_d, ..., c_0), i.e. by descending x-degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(int(c) for c in coeffs)
        if not cs or all(c == 0 for c in cs):
            raise ValueError("zero form")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("BinForm is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead_x(self) -> int:
        return self.coeffs[0]

    @property
    def lead_y(self) -> int:
        return self.coeffs[-1]

    def height(self) -> int:
        return max(abs(c) for c in self.coeffs)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def dehomogenize(self) -> IntPoly:
        """F(x, 1) as a univariate polynomial (degree may drop if c_d = 0)."""
        return IntPoly(tuple(reversed(self.coeffs)))

    def value(self, x: int, y: int) -> int:
        acc = 0
        d = self.degree
        for i, c in enumerate(self.coeffs):
            acc += c * x ** (d - i) * y ** i
        return acc

    def __eq__(self, other):
        return isinstance(other, BinForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return BinForm(tuple(-c for c in self.coeffs))

    def __mul__(self, k: int):
        if k == 0:
            raise ValueError("zero form")
        return BinForm(tuple(c * k for c in self.coeffs))

    __rmul__ = __mul__

    def __repr__(self):
        return f"BinForm({format_form(self)!r})"

    def __str__(self):
        return format_form(self)


def format_form(f: BinForm) -> str:
    d = f.degree
    parts = []
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        kx, ky = d - i, i
        factors = []
        if kx:
            factors.append("x" if kx == 1 else f"x^{kx}")
        if ky:
            factors.append("y" if ky == 1 else f"y^{ky}")
        mono = "*".join(factors) if factors else ""
        mag = abs(c)
        if mono and mag == 1:
            term = mono
        elif mono:
            term = f"{mag}*{mono}"
        else:
            term = str(mag)
        parts.append(("-" if c < 0 else "+", term))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def _lin_pow(p: int, q: int, n: int) -> list[int]:
    """Coefficients of (p*x + q*y)**n by ascending y-degree."""
    return [comb(n, k) * p ** (n - k) * q ** k for k in range(n + 1)]


def form_action(f: BinForm, m: IntMat2) -> BinForm:
    """F_M(x, y) = F(s*x + u*y, t*x + v*y), exact integer expansion."""
    d = f.degree
    out = [0] * (d + 1)  # coefficient of x^(d-j) y^j at index j
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        first = _lin_pow(m.s, m.u, d - i)
        second = _lin_pow(m.t, m.v, i)
        for k1, c1 in enumerate(first):
            if c1 == 0:
                continue
            for k2, c2 in enumerate(second):
                out[k1 + k2] += c * c1 * c2
    return BinForm(out)


def discriminant(f: BinForm) -> int:
    """Discriminant of the binary form, normalized so that for F with
    c_d != 0 it equals the discriminant of F(x, 1) as a degree-d polynomial.
    Satisfies D(F_M) = (det M)**(d(d-1)) * D(F)."""
    d = f.degree
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    if f.lead_x != 0:
        return discriminant_poly(f.dehomogenize())
    # shear by a unimodular substitution until the x^d coefficient is nonzero;
    # determinant 1 leaves the discriminant unchanged
    for shift in range(1, d + 2):
        m = IntMat2(1, 0, shift, 1)  # (x, y) -> (x, shift*x + y)
        g = form_action(f, m)
        if g.lead_x != 0:
            return discriminant_poly(g.dehomogenize())
    raise AssertionError("unreachable: nonzero form admits a nondegenerate shear")


def poly_height(p) -> int:
    """Height (max |coefficient|) of an IntPoly or BinForm."""
    return p.height()
