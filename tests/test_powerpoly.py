from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kinkfactor.errors import DomainError
from kinkfactor.powerpoly import (
    PowerPoly,
    canonicalize,
    format_poly,
    mul,
    parse_poly,
)


def test_canonicalize_merges_and_cancels():
    p = canonicalize([(0, 1.0), (Fraction(1, 2), 2.0), (Fraction(1, 2), -2.0)])
    assert p.terms == ((Fraction(0), 1.0),)


def test_canonicalize_sorts():
    p = canonicalize([(3, 1.0), (0, 1.0)])
    assert p.exponents() == (Fraction(0), Fraction(3))


def test_canonicalize_drops_structural_zero():
    assert canonicalize([(3, 1e-15)]).is_zero()
    assert not canonicalize([(3, 2e-12)]).is_zero()


def test_negative_exponent_rejected():
    with pytest.raises(DomainError):
        canonicalize([(-1, 1.0)])


def test_mul_difference_of_powers():
    p = PowerPoly([(0, 1.0), (3, -1.0)])
    q = PowerPoly([(0, 1.0), (3, 1.0)])
    assert mul(p, q).struct_eq(PowerPoly([(0, 1.0), (6, -1.0)]))


def test_mul_partner_nonlinearity_product():
    # (1 + u^{1/2}) (1 - (9/4) u^{1/2}) = 1 - (5/4) u^{1/2} - (9/4) u
    p = PowerPoly([(0, 1.0), (Fraction(1, 2), 1.0)])
    q = PowerPoly([(0, 1.0), (Fraction(1, 2), -2.25)])
    expected = PowerPoly([(0, 1.0), (Fraction(1, 2), -1.25), (1, -2.25)])
    assert mul(p, q).struct_eq(expected)


def test_mul_by_zero():
    p = PowerPoly([(0, 1.0), (3, -1.0)])
    assert mul(p, PowerPoly()).is_zero()


def test_deriv_basic():
    p = PowerPoly([(0, 1.0), (3, -1.0)])
    assert p.deriv().struct_eq(PowerPoly([(2, -3.0)]))
    assert PowerPoly([(0, 5.0)]).deriv().is_zero()


def test_deriv_rejects_unrepresentable():
    with pytest.raises(DomainError):
        PowerPoly([(Fraction(1, 2), 1.0)]).deriv()


def test_u_deriv_scales_in_place():
    # u * d/du of a1*(1 - u^{n/2}) is -(n/2)*a1*u^{n/2}
    n = 6
    a1 = 0.5
    phi = PowerPoly([(0, a1), (Fraction(n, 2), -a1)])
    expected = PowerPoly([(Fraction(n, 2), -Fraction(n, 2) * a1)])
    assert phi.u_deriv().struct_eq(expected)


def test_eval_root():
    p = PowerPoly([(0, 1.0), (6, -1.0)])
    assert p.evaluate(1.0) == pytest.approx(0.0, abs=1e-15)


def test_eval_fractional_point():
    p = PowerPoly([(0, 1.0), (Fraction(1, 2), -1.25), (1, -2.25)])
    assert p.evaluate(0.25) == pytest.approx(-3.0 / 16.0, abs=1e-15)


def test_eval_at_zero_gives_constant():
    p = PowerPoly([(0, 0.7), (Fraction(3, 2), 4.0)])
    assert p.evaluate(0.0) == 0.7


def test_eval_negative_with_integer_exponents():
    p = PowerPoly([(1, 1.0), (3, -2.0)])
    assert p.evaluate(-2.0) == pytest.approx(-2.0 + 16.0)


def test_eval_negative_with_fractional_exponent_rejected():
    p = PowerPoly([(Fraction(1, 2), 1.0)])
    with pytest.raises(DomainError):
        p.evaluate(-1.0)
    with pytest.raises(DomainError):
        p.evaluate(np.array([0.25, -1.0]))


# -- property tests -----------------------------------------------------------

exponents = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1),
                             Fraction(3, 2), Fraction(2), Fraction(3)])
coeffs = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)
polys = st.lists(st.tuples(exponents, coeffs), min_size=0, max_size=5).map(PowerPoly)

# derivative-safe polynomials avoid exponents in (0, 1)
deriv_exponents = st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2),
                                   Fraction(2), Fraction(3)])
deriv_polys = st.lists(st.tuples(deriv_exponents, coeffs),
                       min_size=0, max_size=4).map(PowerPoly)


@given(polys, polys)
def test_mul_commutative(p, q):
    assert mul(p, q).struct_eq(mul(q, p))


@given(polys, polys, polys)
def test_mul_associative(p, q, r):
    left = mul(mul(p, q), r)
    right = mul(p, mul(q, r))
    assert left.struct_eq(right, tol=1e-10)


@given(polys, polys, st.floats(min_value=0.01, max_value=2.0))
def test_eval_is_multiplicative(p, q, u):
    product = mul(p, q).evaluate(u)
    expected = p.evaluate(u) * q.evaluate(u)
    assert product == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(polys, st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=8))
def test_eval_array_matches_scalar(p, us):
    # numpy's vectorized power and the C library's scalar pow may round a power
    # differently in the last bit, so agreement is to a few ulps of the terms
    arr = np.array(us)
    try:
        scalar = np.array([p.evaluate(u) for u in us])
    except DomainError:
        with pytest.raises(DomainError):
            p.evaluate(arr)
        return
    scale = sum(abs(c) * np.abs(arr) ** float(e) for e, c in p.terms)
    assert np.all(np.abs(p.evaluate(arr) - scalar) <= 8 * np.finfo(float).eps * scale)


@given(deriv_polys, deriv_polys)
def test_deriv_leibniz_rule(p, q):
    lhs = mul(p, q).deriv()
    rhs = mul(p.deriv(), q) + mul(p, q.deriv())
    assert lhs.struct_eq(rhs, tol=1e-10)


# -- textual form --------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "1 - 1.25 u^{1/2} - 2.25 u",
    "u^3",
    "-u + 0.25",
    "2/9 - u^2",
    "0",
    "1 - 15 u^3 - 16 u^6",
])
def test_parse_format_round_trip(text):
    p = parse_poly(text)
    assert parse_poly(format_poly(p)).struct_eq(p)


def test_format_uses_fraction_braces():
    p = PowerPoly([(0, 1.0), (Fraction(1, 2), -1.25)])
    assert format_poly(p) == "1 - 1.25 u^{1/2}"


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        parse_poly("1 + spam")
