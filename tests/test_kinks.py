import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kinkfactor.errors import DomainError, UnsupportedFamilyError
from kinkfactor.kinks import KinkProfile, real_power, solve_binomial_flow
from kinkfactor.powerpoly import PowerPoly
from kinkfactor.presets import STANDARD_PRESETS, _kink_dict

SQ6 = math.sqrt(6.0)


def fisher_phi1(n, gamma_sign="positive"):
    """Inner factor of the generalized Fisher factorization."""
    h = math.sqrt(n / 2.0 + 1.0)
    sign = 1.0 if gamma_sign == "positive" else -1.0
    # gamma > 0 pair: phi1 = (1/h)(u^{n/2} - 1)
    return PowerPoly([(0, -sign / h), (Fraction(n, 2), sign / h)])


def fisher_phi2(n):
    """Outer factor of the gamma > 0 Fisher factorization: -h(1 + u^{n/2})."""
    h = math.sqrt(n / 2.0 + 1.0)
    return PowerPoly([(0, -h), (Fraction(n, 2), -h)])


# -- solve_binomial_flow: parameters ---------------------------------------------

def test_fisher_flow_rate_and_amplitude():
    n = 6
    h = math.sqrt(n / 2.0 + 1.0)
    kink = solve_binomial_flow(fisher_phi1(n))
    assert kink.rate == pytest.approx(h - 1.0 / h, abs=1e-14)
    assert kink.amplitude == pytest.approx(1.0)
    assert kink.inv_exponent == Fraction(2, n)
    assert kink.core_sign == 1


def test_dto_flow_rate():
    A, n = 2.0 / 9.0, 4
    g = math.sqrt(n / 2.0)
    root = math.sqrt(A)
    phi = PowerPoly([(0, -root / g), (n // 2 - 1, 1.0 / g)])
    kink = solve_binomial_flow(phi)
    assert kink.rate == pytest.approx(root * (g - 1.0 / g), abs=1e-14)
    assert kink.amplitude == pytest.approx(root)
    assert kink.inv_exponent == Fraction(2, n - 2)


def test_susy_fisher_flow_is_canonicalized():
    n = 6
    h = 2.0
    kink = solve_binomial_flow(fisher_phi2(n))
    assert kink.rate == pytest.approx(h ** 3 - h, abs=1e-12)
    assert kink.amplitude == pytest.approx(1.0)
    assert kink.core_sign == -1
    assert kink.note is not None          # provenance of the canonicalization
    assert kink.is_real_valued            # cube root of a negative core is real


def test_positive_twin_is_the_directly_built_kink(pipeline):
    kink = pipeline("mt6").partner_kink
    assert kink.core_sign == -1 and kink.note is not None
    twin = kink.positive_twin()
    fresh = KinkProfile(amplitude=kink.amplitude, rate=kink.rate,
                        inv_exponent=kink.inv_exponent, shift=kink.shift,
                        gamma_sign=kink.gamma_sign, core_sign=1)
    assert twin.note is None
    assert twin == fresh


def test_flow_rejects_monomial_and_constant():
    with pytest.raises(UnsupportedFamilyError):
        solve_binomial_flow(PowerPoly([(1, -1.0)]))
    with pytest.raises(UnsupportedFamilyError):
        solve_binomial_flow(PowerPoly([(0, 2.0)]))


# -- evaluation --------------------------------------------------------------------

def test_fisher1_midpoint_value():
    kink = solve_binomial_flow(fisher_phi1(1))
    assert kink.value(kink.shift) == pytest.approx(0.25, abs=1e-15)


def test_mt6_midpoint_value():
    kink = solve_binomial_flow(fisher_phi1(6))
    assert kink.value(kink.shift) == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-15)


def test_plus_branch_asymptotics():
    kink = solve_binomial_flow(fisher_phi1(6))
    assert kink.value(kink.shift + 60.0) == pytest.approx(0.0, abs=1e-12)
    assert kink.value(kink.shift - 60.0) == pytest.approx(1.0, abs=1e-12)
    assert kink.asymptotes() == (1.0, 0.0)


def test_eval_derivatives_match_finite_differences():
    # independent oracle: five-point central differences of the closed form
    kink = solve_binomial_flow(fisher_phi1(1), xi0=0.3)
    h = 1e-4
    for xi in (-3.0, 0.3, 2.1):
        u, du, ddu = kink.eval(xi)
        vals = [kink.value(xi + k * h) for k in (-2, -1, 0, 1, 2)]
        fd1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        fd2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        assert u == pytest.approx(vals[2])
        assert du == pytest.approx(fd1, abs=1e-9)
        assert ddu == pytest.approx(fd2, abs=1e-6)


def test_flow_compatibility_on_grid():
    # u'(xi) equals phi(u)*u along the kink, 201 points over +/-10 widths
    for n in (1, 2, 6):
        phi = fisher_phi1(n)
        kink = solve_binomial_flow(phi)
        span = 10.0 * kink.width
        for i in range(201):
            xi = kink.shift - span + i * span / 100.0
            u, du, _ = kink.eval(xi)
            assert abs(du - kink.along(phi)(xi) * kink.value(xi)) < 1e-10


def test_signed_core_flow_compatibility():
    # the susy flow in canonical form satisfies u' = phi(u)*u through its core
    phi = fisher_phi2(6)
    kink = solve_binomial_flow(phi)
    for xi in (-1.0, 0.0, 0.5, 2.0):
        u, du, _ = kink.eval(xi)
        assert abs(du - kink.along(phi)(xi) * kink.value(xi)) < 1e-10


@pytest.mark.parametrize("preset", ["fisher(1)", "mt6", "dto(2/9,4)",
                                    "dto(3/16,6)", "fhn(3,1)", "fhn(3,2)"])
def test_flow_compatibility_all_presets(preset, pipeline):
    result = pipeline(preset)
    kink, phi = result.kink, result.pair.phi1
    span = 10.0 * kink.width
    for i in range(201):
        xi = kink.shift - span + i * span / 100.0
        _, du, _ = kink.eval(xi)
        assert abs(du - kink.along(phi)(xi) * kink.value(xi)) < 1e-10


def test_gamma_sign_mirror():
    pos = solve_binomial_flow(fisher_phi1(1, "positive"), "positive")
    neg = solve_binomial_flow(fisher_phi1(1, "negative"), "negative")
    assert neg.rate == pytest.approx(-pos.rate)
    for d in (0.0, 0.7, 2.5, 9.0):
        assert neg.value(neg.shift - d) == pytest.approx(pos.value(pos.shift + d),
                                                         rel=1e-13)
    assert pos.mirrored().rate == neg.rate


# -- hyperbolic form -----------------------------------------------------------------

def tanh_value(kink, xi):
    """u = (core_sign*prefactor*(1 - tanh[half_rate*(xi - xi0)]))^power, as printed."""
    printed = _kink_dict(kink)
    hyp = printed["hyperbolic"]
    core = hyp["prefactor"] * (1.0 - math.tanh(hyp["half_rate"] * (xi - printed["shift"])))
    return real_power(printed["core_sign"] * core, Fraction(hyp["power"]))


def test_hyperbolic_parameters_fisher():
    for n, expected_half in ((1, SQ6 / 12.0), (6, 0.75)):
        kink = solve_binomial_flow(fisher_phi1(n))
        hyp = _kink_dict(kink)["hyperbolic"]
        assert hyp["kind"] == "tanh"
        assert hyp["half_rate"] == pytest.approx(expected_half, abs=1e-14)
        assert hyp["prefactor"] == pytest.approx(0.5, abs=1e-15)
        assert hyp["power"] == str(kink.inv_exponent)


def test_hyperbolic_susy_half_rate():
    kink = solve_binomial_flow(fisher_phi2(6))
    assert _kink_dict(kink)["hyperbolic"]["half_rate"] == pytest.approx(3.0, abs=1e-12)


def test_hyperbolic_matches_exponential_pointwise():
    # the fisher originals, and the mt6 partner on the negative core
    for phi in (fisher_phi1(1), fisher_phi1(2), fisher_phi1(6), fisher_phi2(6)):
        kink = solve_binomial_flow(phi)
        span = 10.0 * kink.width
        for i in range(41):
            xi = kink.shift - span + i * span / 20.0
            assert tanh_value(kink, xi) == pytest.approx(kink.value(xi), rel=1e-13)


# -- compiled evaluation against the real_power reference -------------------------------
#
# The reference is the evaluation through Fraction exponents and real_power that
# KinkProfile.value, eval and poly_along used before they were compiled.

def reference_value(kink, xi):
    return real_power(kink.core(xi), kink.inv_exponent)


def reference_eval(kink, xi):
    expo = math.exp(kink.rate * (xi - kink.shift))
    w = 1.0 / (1.0 + expo)
    u = real_power(kink.core_sign * kink.amplitude * w, kink.inv_exponent)
    q, r = float(kink.inv_exponent), kink.rate
    one_w = 1.0 - w
    return u, -q * r * one_w * u, r * r * one_w * u * (q * q * one_w - q * w)


def reference_poly_along(kink, poly, xi):
    y = kink.core(xi)
    total = 0.0
    for exp, coeff in poly.terms:
        total += coeff * real_power(y, exp * kink.inv_exponent)
    return total


KINK_CASES = [(preset, gamma_sign, role) for preset in STANDARD_PRESETS
              for gamma_sign in ("positive", "negative")
              for role in ("original", "partner")]


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(KINK_CASES),
       widths=st.floats(min_value=-10.0, max_value=10.0))
# negative cores with odd roots: u = y^{1/3} and u = y
@example(case=("mt6", "positive", "partner"), widths=0.5)
@example(case=("fisher(2)", "negative", "partner"), widths=-3.0)
def test_compiled_kink_evaluation_is_the_real_power_reference(pipeline, case, widths):
    preset, gamma_sign, role = case
    result = pipeline(preset, gamma_sign)
    if role == "original":
        kink, F = result.kink, result.ode.F
    else:
        kink, F = result.partner_kink, result.partner.partner.F
    assume(kink is not None)
    xi = kink.shift + widths * kink.width
    assert kink.value(xi) == reference_value(kink, xi)
    assert kink.eval(xi) == reference_eval(kink, xi)
    expected = reference_poly_along(kink, F, xi)
    assert kink.along(F)(xi) == expected
    assert kink.poly_along(F, xi) == expected


def test_even_root_of_a_negative_core_raises(pipeline):
    result = pipeline("dto(3/16,6)")
    kink, F = result.partner.kink(), result.partner.partner.F
    assert kink.core_sign == -1 and kink.inv_exponent == Fraction(1, 2)
    assert not kink.is_real_valued
    xi = kink.shift + 0.5 * kink.width
    with pytest.raises(DomainError, match="profile is not real-valued"):
        kink.eval(xi)
    message = f"({kink.core(xi):g})^(1/2) is not real (even root of a negative number)"
    for call in (kink.value, kink.along(F), lambda x: kink.poly_along(F, x)):
        with pytest.raises(DomainError) as info:
            call(xi)
        assert str(info.value) == message


@pytest.mark.parametrize("role", ["original", "partner"])
def test_far_tail_is_the_zero_limit(pipeline, role):
    result = pipeline("fisher(2)")
    kink = result.kink if role == "original" else result.partner_kink
    F = result.ode.F if role == "original" else result.partner.partner.F
    # r (xi - xi0) = 1000: e^1000 is beyond the float range
    xi = kink.shift + 1000.0 * math.copysign(kink.width, kink.rate)
    assert kink.value(xi) == 0.0
    assert kink.eval(xi) == (0.0, 0.0, 0.0)
    assert kink.poly_along(F, xi) == 0.0


# -- susy rate ratios --------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 1.5), (2, 2.0), (6, 4.0)])
def test_fisher_susy_rate_ratio(n, expected):
    original = solve_binomial_flow(fisher_phi1(n))
    partner = solve_binomial_flow(fisher_phi2(n))
    assert partner.rate / original.rate == pytest.approx(expected, abs=1e-12)


def test_dto4_susy_rate_ratio():
    A, g = 2.0 / 9.0, math.sqrt(2.0)
    root = math.sqrt(A)
    original = solve_binomial_flow(PowerPoly([(0, -root / g), (1, 1.0 / g)]))
    partner = solve_binomial_flow(PowerPoly([(0, -root * g), (1, -g)]))
    assert partner.rate / original.rate == pytest.approx(2.0, abs=1e-12)


# -- real_power helper ----------------------------------------------------------------------

def test_real_power_semantics():
    assert real_power(4.0, Fraction(1, 2)) == 2.0
    assert real_power(-8.0, Fraction(1, 3)) == pytest.approx(-2.0)
    assert real_power(-8.0, Fraction(2, 3)) == pytest.approx(4.0)
    assert real_power(-3.0, Fraction(0)) == 1.0
    with pytest.raises(DomainError):
        real_power(-1.0, Fraction(1, 2))
