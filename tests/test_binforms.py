import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapkit.autgroup import d12_family
from gapkit.binforms import BinForm, IntMat2, discriminant, form_action, poly_height
from gapkit.intpoly import IntPoly
from gapkit.parse import ParseError, parse_form, parse_poly


def adjugate(m: IntMat2) -> IntMat2:
    return IntMat2(m.v, -m.u, -m.t, m.s)


D12 = list(d12_family(3, 1).coeffs)

_coeff = st.one_of(st.just(0), st.integers(min_value=-10 ** 6, max_value=10 ** 6))
_coord = st.integers(min_value=-10 ** 5, max_value=10 ** 5)


@given(st.lists(_coeff, min_size=4, max_size=13).filter(any), _coord, _coord)
@example(coeffs=[1, 0, 0, -2], x=0, y=-7)
@example(coeffs=[2, 0, 5, 0, 0], x=-5, y=0)
@example(coeffs=D12, x=-7, y=3)
@example(coeffs=D12, x=0, y=2)
@example(coeffs=D12, x=3, y=0)
@settings(max_examples=300, deadline=None)
def test_value_is_the_naive_sum(coeffs, x, y):
    # degrees 3 to 12: F(x, y) = sum c_k x**(d-k) y**k, power by power
    d = len(coeffs) - 1
    assert BinForm(coeffs).value(x, y) == sum(c * x ** (d - k) * y ** k
                                              for k, c in enumerate(coeffs))


def test_height_of_form():
    assert poly_height(BinForm((3, 0, -5, 1))) == 5  # 3x^3 - 5xy^2 + y^3
    assert poly_height(IntPoly((7,))) == 7


def test_form_action_examples():
    f = BinForm((1, 0, 0, 1))  # x^3 + y^3
    assert form_action(f, IntMat2(0, 1, 1, 0)) == f
    g = BinForm((5, -1, 2, 7))
    assert form_action(g, IntMat2.identity()) == g
    h = BinForm((1, 0, 0, -2))  # x^3 - 2y^3, odd degree
    assert form_action(h, IntMat2(-1, 0, 0, -1)) == -h


def test_discriminant_examples():
    assert discriminant(BinForm((1, 0, -3, -1))) == 81
    assert discriminant(BinForm((1, 1, 1))) == -3
    f = BinForm((1, 2, -1, 5))
    m = IntMat2(2, 1, 3, 2)  # det 1
    assert discriminant(form_action(f, m)) == discriminant(f)


def test_discriminant_scaling_law():
    rng = random.Random(23)
    done = 0
    while done < 200:
        d = rng.randint(2, 5)
        coeffs = [rng.randint(-6, 6) for _ in range(d + 1)]
        if all(c == 0 for c in coeffs):
            continue
        f = BinForm(coeffs)
        m = IntMat2(*[rng.randint(-4, 4) for _ in range(4)])
        if m.det == 0:
            continue
        try:
            base = discriminant(f)
        except ValueError:
            continue
        assert discriminant(form_action(f, m)) == m.det ** (d * (d - 1)) * base
        done += 1


def test_degenerate_lead_discriminant():
    # y * (stuff): leading x coefficient zero; handled by unimodular shear
    f = BinForm((0, 1, 0, -2))  # x^2 y - 2 y^3
    d = discriminant(f)
    m = IntMat2(1, 1, 0, 1)
    assert discriminant(form_action(f, m)) == d


def test_height_composition_exact():
    rng = random.Random(29)
    for _ in range(50):
        f = BinForm([rng.randint(-9, 9) or 1 for _ in range(rng.randint(3, 6))])
        assert form_action(f, IntMat2.identity()) == f
        m = IntMat2(*[rng.randint(-3, 3) for _ in range(4)])
        fm = form_action(f, m)
        # direct expansion oracle at a grid of points
        for x, y in ((1, 0), (0, 1), (1, 1), (2, -1), (-3, 2)):
            assert fm.value(x, y) == f.value(*m.apply(x, y))


def test_matrix_ops():
    m = IntMat2(1, 2, 3, 4)
    assert m.det == -2
    assert (m @ adjugate(m)).entries() == (-2, 0, 0, -2)
    assert IntMat2(2, 4, 6, 8).primitive() == m
    assert m.apply(1, 1) == (3, 7)


def test_parse_poly_and_form():
    assert parse_poly("x^4 - x^3 - 4*x^2 + 4*x + 1") == IntPoly((1, 4, -4, -1, 1))
    assert parse_poly("[1, -1, -4, 4, 1]") == IntPoly((1, 4, -4, -1, 1))
    assert parse_poly("(x - 1)*(x + 1)") == IntPoly((-1, 0, 1))
    assert parse_form("x^3 - 2*y^3") == BinForm((1, 0, 0, -2))
    assert parse_form("x^3 - 3*x - 1") == BinForm((1, 0, -3, -1))  # homogenized
    assert parse_form("3x^2y + y^3 - x^3") == BinForm((-1, 3, 0, 1))
    with pytest.raises(ParseError):
        parse_form("x^2 + y")  # inhomogeneous
    with pytest.raises(ParseError):
        parse_poly("x + z")


def test_parse_algnum_spec():
    from fractions import Fraction

    from gapkit.parse import parse_algnum_spec

    p, sel = parse_algnum_spec("x^2 - 2@root~=1.41")
    assert p == IntPoly((-2, 0, 1)) and sel == {"near": Fraction("1.41")}
    p, sel = parse_algnum_spec("x^2 - 2@index1")
    assert sel == {"index": 1}
    p, sel = parse_algnum_spec("x^2 - 2")
    assert sel == {"index": 0}
