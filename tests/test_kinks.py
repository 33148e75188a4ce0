import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kinkfactor.errors import DomainError, UnsupportedFamilyError
from kinkfactor.kinks import KinkProfile, solve_binomial_flow
from kinkfactor.powerpoly import PowerPoly
from kinkfactor.presets import STANDARD_PRESETS, _kink_dict
from kinkfactor.verify import default_grid, grid_points
from test_powerpoly import reference_evaluate

SQ6 = math.sqrt(6.0)
EPS = 2.0 ** -52


def real_power(base: float, exp: Fraction) -> float:
    """Real rational power with odd-root semantics for negative bases: the
    reference that a kink's values, its end states and the polynomials along
    it are checked against.  A negative base has a real power exactly when the
    reduced denominator of the exponent is odd, of sign (-1)^numerator."""
    if exp == 0:
        return 1.0
    if base >= 0.0:
        return math.pow(base, float(exp))
    if exp.denominator % 2 == 0:
        raise DomainError(f"({base:g})^({exp}) is not real (even root of a negative number)")
    return (-1.0 if exp.numerator % 2 else 1.0) * math.pow(-base, float(exp))


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


@pytest.mark.parametrize("c1, core_sign", [(-1.7976931348623157e308, 1),
                                           (1.7976931348623157e308, -1)])
def test_flow_second_fixed_point_is_never_zero(c1, core_sign):
    # a constant of 1e-12 over the largest finite slope: lam0 is subnormal,
    # not 0 (a smaller constant can underflow it, see the next test)
    kink = solve_binomial_flow(PowerPoly([(0, 1.0000001e-12), (1, c1)]))
    assert kink.amplitude == 1.0000001e-12 / abs(c1) > 5.5e-321
    assert kink.core_sign == core_sign


def test_flow_whose_second_fixed_point_underflows_is_refused():
    # PowerPoly keeps the constant 5e-324, and c0/beta underflows to 0
    with pytest.raises(DomainError, match="^amplitude must be positive, got 0.0$"):
        solve_binomial_flow(PowerPoly([(0, 5e-324), (1, -1e300)]))


@pytest.mark.parametrize("field, value, message", [
    ("amplitude", 0.0, "amplitude must be positive"),
    ("inv_exponent", Fraction(0), "inv_exponent must be positive"),
    ("core_sign", 2, "core_sign must be \\+1 or -1"),
    ("amplitude", math.nan, "amplitude must be positive"),
    ("rate", 0.0, "rate must be nonzero"),
    ("rate", math.nan, "rate must be nonzero"),
    ("shift", math.nan, "shift must be finite"),
    ("shift", math.inf, "shift must be finite"),
])
def test_kink_profile_validates_its_fields(field, value, message):
    fields = {"amplitude": 1.0, "rate": 1.0, "inv_exponent": Fraction(1), "shift": 0.0}
    with pytest.raises(DomainError, match=message):
        KinkProfile(**{**fields, field: value})


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
            assert abs(du - kink.poly_along(phi, xi) * kink.value(xi)) < 1e-10


def test_signed_core_flow_compatibility():
    # the susy flow in canonical form satisfies u' = phi(u)*u through its core
    phi = fisher_phi2(6)
    kink = solve_binomial_flow(phi)
    for xi in (-1.0, 0.0, 0.5, 2.0):
        u, du, _ = kink.eval(xi)
        assert abs(du - kink.poly_along(phi, xi) * kink.value(xi)) < 1e-10


@pytest.mark.parametrize("preset", ["fisher(1)", "mt6", "dto(2/9,4)",
                                    "dto(3/16,6)", "fhn(3,1)", "fhn(3,2)"])
def test_flow_compatibility_all_presets(preset, pipeline):
    result = pipeline(preset)
    kink, phi = result.kink, result.pair.phi1
    span = 10.0 * kink.width
    for i in range(201):
        xi = kink.shift - span + i * span / 100.0
        _, du, _ = kink.eval(xi)
        assert abs(du - kink.poly_along(phi, xi) * kink.value(xi)) < 1e-10


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


# -- compiled evaluation against its references ------------------------------------------
#
# u is s*(lam/den)**q with den = 1 + e^{r(xi-xi0)}, in value and in eval.  A
# polynomial along the kink is the polynomial in |y|, y the signed core, whose
# terms are (p/m, s_p*c), with s_p the sign of y^{p/m}; it is evaluated by the
# Horner code of PowerPoly.evaluate.  The real_power sum over the terms, which
# along computed before it was compiled, stays as a closeness check.

def logistic_den(kink, xi):
    try:
        return 1.0 + math.exp(kink.rate * (xi - kink.shift))
    except OverflowError:
        return math.inf


def signed_core(kink, xi):
    return kink.core_sign * kink.amplitude / logistic_den(kink, xi)


def reference_value(kink, xi):
    return real_power(signed_core(kink, xi), kink.inv_exponent)


def reference_eval(kink, xi):
    w = 1.0 / logistic_den(kink, xi)
    u = reference_value(kink, xi)
    q, r = float(kink.inv_exponent), kink.rate
    one_w = 1.0 - w
    return u, -q * r * one_w * u, r * r * one_w * u * (q * q * one_w - q * w)


def reference_poly_along(kink, poly, xi):
    """Horner's rule at |y| on the terms (p/m, s_p*c); s_p = real_power(sign of y, p/m)."""
    q, sign = kink.inv_exponent, float(kink.core_sign)
    terms = [(exp * q, real_power(sign, exp * q) * coeff) for exp, coeff in poly.terms]
    return reference_evaluate(PowerPoly(terms), abs(signed_core(kink, xi)))


def real_power_sum(kink, poly, xi):
    """The sum of real_power terms that along computed before it was compiled,
    and the largest term."""
    y = signed_core(kink, xi)
    total, largest = 0.0, 0.0
    for exp, coeff in poly.terms:
        term = coeff * real_power(y, exp * kink.inv_exponent)
        total += term
        largest = max(largest, abs(term))
    return total, largest


KINK_CASES = [(preset, gamma_sign, role) for preset in STANDARD_PRESETS
              for gamma_sign in ("positive", "negative")
              for role in ("original", "partner")]


def real_kink(pipeline, case):
    """The kink and F of a case, or (None, F) when the partner kink is not real."""
    preset, gamma_sign, role = case
    result = pipeline(preset, gamma_sign)
    if role == "original":
        return result.kink, result.ode.F
    return result.partner_kink, result.partner.partner.F


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(KINK_CASES),
       widths=st.floats(min_value=-10.0, max_value=10.0))
# negative cores with odd roots: u = y^{1/3} and u = y
@example(case=("mt6", "positive", "partner"), widths=0.5)
@example(case=("fisher(2)", "negative", "partner"), widths=-3.0)
def test_compiled_kink_evaluation_is_the_real_power_reference(pipeline, case, widths):
    kink, F = real_kink(pipeline, case)
    assume(kink is not None)
    xi = kink.shift + widths * kink.width
    assert kink.value(xi) == reference_value(kink, xi)
    assert kink.eval(xi) == reference_eval(kink, xi)
    expected = reference_poly_along(kink, F, xi)
    assert kink.poly_along(F, xi) == expected
    total, largest = real_power_sum(kink, F, xi)
    assert abs(expected - total) <= 4 * EPS * largest


def test_end_states_are_the_value_where_the_exponential_vanishes(pipeline):
    # e^{r(xi - xi0)} underflows to 0 at xi0 - 800/r, so value there is the
    # nonzero end state, the real power of the signed amplitude
    negative_cores = 0
    for case in KINK_CASES:
        kink, _ = real_kink(pipeline, case)
        if kink is None:
            continue
        top = kink.value(kink.shift - 800.0 / kink.rate)
        assert top == real_power(kink.core_sign * kink.amplitude, kink.inv_exponent)
        assert kink.asymptotes() == ((top, 0.0) if kink.rate > 0 else (0.0, top))
        negative_cores += kink.core_sign == -1
    # the partners of fisher(1), fisher(2), mt6, dto(2/9,4) and newell_whitehead
    # on both branches: u = y^2, and the odd roots u = y and u = y^{1/3}
    assert negative_cores == 10


def test_a_profile_that_is_not_real_has_no_end_states(pipeline):
    profile = pipeline("dto(3/16,6)").partner_profile
    assert profile is not None and not profile.is_real_valued
    with pytest.raises(DomainError, match=r"^profile is not real-valued \(even root"):
        profile.value(profile.shift)
    with pytest.raises(DomainError, match=r"^profile is not real-valued \(even root"):
        profile.asymptotes()


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(KINK_CASES),
       widths=st.floats(min_value=-1000.0, max_value=1000.0))
# amplitude*(1/den) and amplitude/den round apart here
@example(case=("dto(2/9,4)", "positive", "original"), widths=4.65625)
def test_value_is_the_u_of_eval(pipeline, case, widths):
    kink, _ = real_kink(pipeline, case)
    assume(kink is not None)
    xi = kink.shift + widths * kink.width
    assert kink.value(xi) == kink.eval(xi)[0]


def test_value_is_the_u_of_eval_on_every_residual_grid_point(pipeline):
    checked = 0
    for case in KINK_CASES:
        kink, _ = real_kink(pipeline, case)
        if kink is None:
            continue
        for xi in grid_points(default_grid(kink)):
            assert kink.value(xi) == kink.eval(xi)[0]
            checked += 1
    assert checked == 60030


def test_even_root_of_a_negative_core_raises(pipeline):
    result = pipeline("dto(3/16,6)")
    kink, F = result.partner.kink(), result.partner.partner.F
    assert kink.core_sign == -1 and kink.inv_exponent == Fraction(1, 2)
    assert not kink.is_real_valued
    xi = kink.shift + 0.5 * kink.width
    for call in (kink.value, kink.eval):
        with pytest.raises(DomainError) as info:
            call(xi)
        assert str(info.value) == "profile is not real-valued (even root of a negative core)"
    # F's lowest term u is (core)^(1/2) along the kink: poly_along refuses F
    # before it compiles anything
    with pytest.raises(DomainError) as info:
        kink.poly_along(F, xi)
    assert str(info.value) == ("u^(1) along the kink is (core)^(1/2), not real"
                               " (even root of a negative core)")


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
