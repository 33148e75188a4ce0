import copy
import gc
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kinkfactor.errors import DomainError
from kinkfactor.presets import parse_preset, run_pipeline
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


int_polys = st.lists(st.tuples(st.integers(min_value=0, max_value=7), coeffs),
                     min_size=0, max_size=5).map(PowerPoly)


@given(int_polys, st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=50))
@example(PowerPoly([(1, 1.0), (4, -15.0), (7, -16.0)]), [0.3, 0.34, 0.35, 0.6, -1.1])
def test_eval_integer_exponents_array_is_scalar_bit_for_bit(p, us):
    arr = np.array(us)
    scalar = np.array([p.evaluate(u) for u in us])
    assert np.array_equal(p.evaluate(arr), scalar)
    # Horner's rule of degree <= 7 is within 7 eps of sum |c u^e| of the exact
    # value, plus one subnormal spacing per operation where a power underflows
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for u, value in zip(us, scalar):
        exact = sum(Fraction(c) * Fraction(u) ** int(e) for e, c in p.terms)
        scale = sum(abs(c) * abs(u) ** int(e) for e, c in p.terms)
        assert abs(Fraction(value) - exact) <= 8 * eps * scale + 16 * tiny


@given(deriv_polys, deriv_polys)
def test_deriv_leibniz_rule(p, q):
    # u*(pq)' = (u*p')*q + p*(u*q')
    lhs = mul(p, q).u_deriv()
    rhs = mul(p.u_deriv(), q) + mul(p, q.u_deriv())
    assert lhs.struct_eq(rhs, tol=1e-10)


# -- textual form --------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "1 - 1.25 u^{1/2} - 2.25 u",
    "u^3",
    "-u + 0.25",
    "2/9 - u^2",
    "0",
    "1 - 15 u^3 - 16 u^6",
    "1e-05 u",
    "2.5e-07 - u^2",
    "1e+20 + u",
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


# -- compiled evaluation -----------------------------------------------------------

def reference_evaluate(p, u):
    """Horner's rule interpreted step by step: the operations that
    ``PowerPoly.evaluate`` compiles, in the same order."""
    rising, fractional, below = [], [], 0
    for e, c in p.terms:
        if e.denominator == 1:
            rising += [None] * (e.numerator - below)
            rising.append(c)
            below = e.numerator
        else:
            fractional.append((c, float(e)))
    total = 0.0
    for c in reversed(rising):
        if c is None:
            total *= u
        else:
            total += c
    if fractional:
        if np.any(u < 0) if isinstance(u, np.ndarray) else u < 0:
            raise DomainError(
                f"cannot evaluate fractional powers at negative u = {np.min(u):g}"
            )
        for c, e in fractional:
            total += c * u ** e
    elif below == 0 and isinstance(u, np.ndarray):
        return np.full(u.shape, total)
    return total


def outcome(evaluate, u):
    """The bits and type of a result, or the type and text of the error."""
    try:
        value = evaluate(u)
    except DomainError as exc:
        return "DomainError", str(exc)
    return type(value), np.shape(value), np.asarray(value).tobytes()


# exponents up to 20, so that gaps are both written out and looped over
wide_exponents = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(7, 3), Fraction(5, 4)]),
)
wide_coeffs = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
wide_polys = st.lists(st.tuples(wide_exponents, wide_coeffs),
                      min_size=0, max_size=6).map(PowerPoly)
points = st.floats(min_value=-3.0, max_value=3.0)


@given(wide_polys, points)
@example(PowerPoly(), -1.5)
@example(PowerPoly([(0, 0.25)]), 2.0)
@example(PowerPoly([(Fraction(1, 2), 1.0), (3, -2.0)]), -0.5)
@example(PowerPoly([(0, 1.0), (10**6, -1.0)]), 0.9999995)
def test_compiled_evaluate_is_the_reference_on_floats(p, u):
    assert outcome(p.evaluate, u) == outcome(lambda x: reference_evaluate(p, x), u)


@given(wide_polys, st.lists(points, min_size=1, max_size=8))
@example(PowerPoly(), [0.5, -1.0])
@example(PowerPoly([(0, -3.0)]), [0.5, 2.0])
def test_compiled_evaluate_is_the_reference_on_arrays(p, us):
    arr = np.array(us)
    assert outcome(p.evaluate, arr) == outcome(lambda x: reference_evaluate(p, x), arr)
    assert np.array_equal(arr, us)      # u itself is never written into


def test_compiled_code_does_not_grow_with_the_exponent():
    def code(n):
        p = PowerPoly([(0, 1.0), (n, -1.0)])
        p.evaluate(0.5)
        return p._compiled.__code__.co_code

    assert code(10**6) == code(100)


def test_compiled_code_is_freed_without_the_garbage_collector():
    # simulate_front compiles a polynomial per run; a reference cycle would
    # keep each one until a full collection
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        p = PowerPoly([(0, 1.0), (Fraction(1, 2), -1.25), (7, 3.0)])
        p.evaluate(0.3)
        del p
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_copies_and_pickles_of_an_evaluated_poly():
    p = PowerPoly([(0, 1.0), (Fraction(1, 2), -1.25), (7, 3.0)])
    value = p.evaluate(0.3)
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin.terms == p.terms
        assert twin.evaluate(0.3) == value


def test_copies_and_pickles_of_an_ode():
    ode = run_pipeline(parse_preset("mt6")).ode
    value = ode.F.evaluate(0.4)
    for twin in (copy.copy(ode), copy.deepcopy(ode), pickle.loads(pickle.dumps(ode))):
        assert twin == ode
        assert twin.F.evaluate(0.4) == value
