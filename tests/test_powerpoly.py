import copy
import gc
import math
import pickle
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinkfactor import verify
from kinkfactor.errors import DomainError
from kinkfactor.presets import parse_preset, run_pipeline
from kinkfactor.powerpoly import (
    MAX_ORDER,
    PowerPoly,
    _compile,
    _define,
    _horner_into,
    as_exponent,
    format_poly,
    mul,
    parse_poly,
)


def test_canonicalize_merges_and_cancels():
    p = PowerPoly([(0, 1.0), (Fraction(1, 2), 2.0), (Fraction(1, 2), -2.0)])
    assert p.terms == ((Fraction(0), 1.0),)


def test_canonicalize_sorts():
    p = PowerPoly([(3, 1.0), (0, 1.0)])
    assert p.exponents() == (Fraction(0), Fraction(3))


def test_canonicalize_drops_structural_zero():
    assert PowerPoly([(3, 1e-15)]).is_zero()
    assert not PowerPoly([(3, 2e-12)]).is_zero()


def test_powerpoly_is_an_immutable_value():
    p = PowerPoly([(0, 1.0), (2, -1.0)])
    with pytest.raises(AttributeError, match="^PowerPoly is immutable$"):
        p.terms = ()
    assert (p == 1) is False
    same = PowerPoly([(2, -1.0), (0, 1.0)])
    assert p == same and hash(p) == hash(same)


def test_negative_exponent_rejected():
    with pytest.raises(DomainError):
        PowerPoly([(-1, 1.0)])


@pytest.mark.parametrize("terms,named", [
    ([(0, math.nan), (1, 1.0)], "nan of u^0"),
    ([(0, math.inf), (1, 1.0)], "inf of u^0"),
    ([(Fraction(1, 2), -math.inf)], "-inf of u^1/2"),
    # finite coefficients whose sum overflows
    ([(3, 1e308), (3, 1e308)], "inf of u^3"),
])
def test_non_finite_coefficient_rejected(terms, named):
    with pytest.raises(DomainError, match=re.escape(f"coefficient {named} ")):
        PowerPoly(terms)


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


# The parser before it read one signed term at a time: the text was first cut
# into chunks at every sign outside braces and outside a number's exponent,
# and each chunk was then read on its own.  It is kept as the reference.
_CHUNK_TERM_RE = re.compile(
    r"""^\s*
    (?P<coeff>[0-9.]+(?:[eE][+-]?[0-9]+)?(?:/[0-9]+)?)?
    \s*\*?\s*
    (?P<var>u(?:\^(?:\{(?P<bexp>-?[0-9]+(?:/0*[1-9][0-9]*)?)\}
                 |(?P<exp>-?[0-9]+(?:/0*[1-9][0-9]*)?)))?)?
    \s*$""",
    re.VERBOSE,
)
_MANTISSA_END = re.compile(r"[0-9.][eE]$")


def chunked_parse_poly(text):
    cleaned = text.strip()
    if cleaned in ("0", ""):
        return PowerPoly()
    chunks, depth, current = [], 0, ""
    for ch in cleaned:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if (ch in "+-" and depth == 0 and current.strip()
                and not _MANTISSA_END.search(current)):
            chunks.append(current)
            current = ch
        else:
            current += ch
    if current.strip():
        chunks.append(current)
    terms = []
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1.0
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        match = _CHUNK_TERM_RE.match(chunk)
        if not match or (match.group("coeff") is None and match.group("var") is None):
            raise DomainError(f"cannot parse polynomial term {chunk!r} in {text!r}")
        coeff = match.group("coeff")
        if coeff:
            try:
                value = float(Fraction(coeff)) if "/" in coeff else float(coeff)
            except (ValueError, ZeroDivisionError, OverflowError):
                value = math.nan
            if not math.isfinite(value):
                raise DomainError(f"cannot read {coeff!r} as a finite number")
        coeff = sign * (value if coeff else 1.0)
        if match.group("var") is None:
            exp = Fraction(0)
        else:
            raw = match.group("bexp") or match.group("exp")
            exp = Fraction(raw) if raw else Fraction(1)
            if exp > MAX_ORDER:
                raise DomainError(f"exponent {exp} in {text!r} exceeds {MAX_ORDER}")
        terms.append((as_exponent(exp), coeff))
    return PowerPoly(terms)


def parsed(parse, text):
    """The exponents and coefficient bits read from ``text``, or the error type."""
    try:
        poly = parse(text)
    except Exception as exc:
        return type(exc).__name__
    return [(e, c.hex()) for e, c in poly.terms]


poly_tokens = st.sampled_from([
    "u", "^", "{", "}", "+", "-", "*", "/", ".", "e", "E", " ", "\t",
    "0", "1", "2", "7", "u^{1/2}", "u^{-1}", "u^3", "1e-5", "2.5E+3", "2/9", "^-",
    " - ", " + ", "3 u", "-u^2",
])


@settings(max_examples=400)
@given(st.lists(poly_tokens, max_size=12).map("".join))
@example("--45")
@example("+ - 9")
@example("u^-2")
@example("u^-0")
@example("u^{-1}")
@example("1e-05u")
@example("1 +")
@example("-")
@example("  0 ")
@example("")
@example("2*u - 3 u^{3/2}")
def test_parse_reads_what_the_chunked_parser_read(text):
    assert parsed(parse_poly, text) == parsed(chunked_parse_poly, text)


# -- compiled evaluation -----------------------------------------------------------

def reference_evaluate(p, u):
    """Horner's rule interpreted step by step: the operations that
    ``PowerPoly.evaluate`` compiles, in the same order.  ``p`` is a PowerPoly
    or a raw sorted term list, whose coefficients may be zero."""
    rising, fractional, below = [], [], 0
    for e, c in p.terms if isinstance(p, PowerPoly) else p:
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


def horner_into(terms, u):
    """The polynomial at the array ``u``, written by the ``_horner_into``
    lines into a buffer of u's size."""
    names = {"add": np.add, "multiply": np.multiply, "any_": np.any,
             "out": np.empty_like(u)}
    lines = _horner_into(terms, "u", "out", names, "any_(u < 0)")
    return _define("run(u)", lines + ["return out"], names, "test")(u)


@st.composite
def folded_terms(draw):
    """Sorted raw terms as the FTCS kernel folds them: unique exponents, the
    highest integer one at least 1, coefficients that may be +0.0 or -0.0."""
    coeffs = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-2.0, max_value=2.0))
    top = draw(st.integers(min_value=1, max_value=150))
    exponents = draw(st.sets(st.integers(min_value=0, max_value=top - 1), max_size=70))
    exponents |= draw(st.sets(st.builds(Fraction, st.integers(min_value=1, max_value=600),
                                        st.sampled_from([2, 3, 7]))
                              .filter(lambda e: e.denominator != 1), max_size=70))
    terms = [(Fraction(e), draw(coeffs)) for e in exponents]
    terms.append((Fraction(top), -0.0 if draw(st.booleans()) else draw(coeffs)))
    return sorted(terms)


def wide_terms(count):
    """``count`` integer terms with gaps of 1 to 12 and ``count`` fractional
    ones; every seventh coefficient is +0.0 and the top one is -0.0."""
    exps = [sum(i % 12 + 1 for i in range(k)) for k in range(1, count + 1)]
    terms = [(Fraction(e), 0.0 if k % 7 == 0 else 0.5 * (-1) ** k)
             for k, e in enumerate(exps)]
    terms += [(Fraction(2 * k + 1, 4), 0.25 * (-1) ** k) for k in range(count)]
    terms[count - 1] = (terms[count - 1][0], -0.0)
    return sorted(terms)


@settings(deadline=None)
@given(folded_terms(), st.lists(points.map(lambda u: u / 3.0), min_size=1, max_size=8))
# a -0.0 top coefficient: 0.0 + -0.0 is +0.0, so every zero cell stays +0.0
@example([(Fraction(1), -0.0)], [0.0, 0.5])
@example([(Fraction(0), -0.0), (Fraction(2), -0.0)], [-0.0, 0.5])
# gaps over 8, more than 50 integer and 50 fractional terms, and with a
# negative cell a DomainError
@example(wide_terms(60), [0.0, 0.25, 0.999])
@example(wide_terms(60), [0.5, -0.25])
def test_buffer_and_expression_spellings_are_the_reference(terms, us):
    u = np.array(us)
    expected = outcome(lambda x: reference_evaluate(terms, x), u)
    assert outcome(lambda x: horner_into(terms, x), u) == expected
    assert outcome(_compile(terms), u) == expected
    assert np.array_equal(u, us)


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


def test_front_kernel_is_freed_without_the_garbage_collector(monkeypatch):
    # simulate_front generates its step kernel per run; a reference cycle
    # would keep each kernel, and its buffers, until a full collection
    kernels = []

    def kernel(*args):
        steps = build(*args)
        kernels.append(weakref.ref(steps))
        return steps

    build = verify._ftcs_kernel
    monkeypatch.setattr(verify, "_ftcs_kernel", kernel)
    result = run_pipeline(parse_preset("mt6"))
    F = PowerPoly([(1, 1.0), (Fraction(3, 2), -1.25), (12, 1e-3)])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        verify.simulate_front(F, result.kink, (-40.0, 40.0, 0.1), 4e-3, 0.1)
        assert len(kernels) == 1 and kernels[0]() is None
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
