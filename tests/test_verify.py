import gc
import math
import tracemalloc
import warnings
from array import array
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinkfactor import powerpoly, verify
from kinkfactor.errors import (
    CflError,
    DomainError,
    InstabilityError,
    TruncatedRunError,
)
from kinkfactor.factorizer import OdeSpec
from kinkfactor.kinks import KinkProfile
from kinkfactor.powerpoly import STRUCTURAL_TOLERANCE, PowerPoly, _compile, _define
from kinkfactor.presets import STANDARD_PRESETS
from kinkfactor.verify import (
    FRONT_SAMPLE_EVERY,
    ResidualReport,
    _axis,
    _steps,
    default_grid,
    grid_points,
    residual_max,
    rk4_flow,
    rk4_second_order,
    simulate_front,
    summary_line,
)
from test_kinks import real_power, reference_poly_along
from test_powerpoly import outcome, reference_evaluate

ALL_PRESETS = ["fisher(1)", "fisher(2)", "mt6", "dto(2/9,4)", "dto(3/16,6)",
               "fhn(3,1)", "fhn(3,2)", "newell_whitehead"]


# -- residual_max ------------------------------------------------------------------

@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_original_kinks_are_exact(preset, pipeline):
    result = pipeline(preset)
    report = residual_max(result.ode, result.kink, default_grid(result.kink))
    assert report.max_abs_residual < 1e-10


def test_mt6_partner_kink_is_exact(pipeline):
    result = pipeline("mt6")
    report = residual_max(result.partner.partner, result.partner_kink,
                          default_grid(result.partner_kink))
    assert report.max_abs_residual < 1e-10


def test_residual_negative_control(pipeline):
    result = pipeline("fisher(1)")
    report = residual_max(result.partner.partner, result.kink,
                          default_grid(result.kink))
    assert report.max_abs_residual > 0.01


def test_nan_residual_is_the_reported_maximum_and_fails(pipeline):
    result = pipeline("fisher(1)")
    grid = default_grid(result.kink)
    report = residual_max(OdeSpec(gamma=math.nan, F=result.ode.F), result.kink, grid)
    assert math.isnan(report.max_abs_residual)
    assert report.argmax_xi == grid[0]
    assert result.passes()
    assert not replace(result, original_residual=report).passes()
    assert not replace(result, partner_residual=report).passes()


def test_residual_grid_validation(pipeline):
    result = pipeline("fisher(1)")
    with pytest.raises(DomainError):
        residual_max(result.ode, result.kink, (0.0, 1.0, 2))
    with pytest.raises(DomainError):
        residual_max(result.ode, result.kink, (1.0, -1.0, 11))
    result = pipeline("mt6")
    for grid, message in [((math.nan, 1.0, 11), "finite ends"),
                          ((-1.0, math.inf, 11), "finite ends"),
                          ((-1.0, 1.0, 10.5), "integer count of at least 3")]:
        with pytest.raises(DomainError, match=f"residual grid .* {message}"):
            residual_max(result.ode, result.kink, grid)


def reference_residual_max(ode, kink, grid):
    """The scan with the logistic denominator as a call per point, F as
    Horner's rule interpreted at |y| on the terms (p/m, s_p*c), where y is the
    signed core and s_p the sign of y^{p/m}, and the points as lo + i*step.
    An OverflowError or an F that is not finite is the DomainError that
    names the point."""
    def den(xi):
        try:
            return 1.0 + math.exp(kink.rate * (xi - kink.shift))
        except OverflowError:
            return math.inf

    q, sign = kink.inv_exponent, float(kink.core_sign)
    along = PowerPoly([(exp * q, real_power(sign, exp * q) * coeff)
                       for exp, coeff in ode.F.terms])

    def F(xi):
        return reference_evaluate(along, kink.amplitude / den(xi))

    lo, hi, count = grid
    step = (hi - lo) / (count - 1)
    worst, worst_xi = -1.0, lo
    for i in range(count):
        xi = lo + i * step
        try:
            u, du, ddu = kink.eval(xi)
            f = F(xi)
        except OverflowError:
            f = math.inf
        if not math.isfinite(f):
            raise DomainError(f"the residual overflows the float range at xi = {xi:g}")
        res = abs(ddu + ode.gamma * du + f)
        if not res <= worst:
            worst, worst_xi = res, xi
            if res != res:
                break
    return ResidualReport(max_abs_residual=worst, argmax_xi=worst_xi, grid=grid)


@pytest.mark.parametrize("gamma_sign", ["positive", "negative"])
# the standard presets, a high and a very high order, a large amplitude and
# two fractional parameters
@pytest.mark.parametrize("preset", [*STANDARD_PRESETS, "fisher(6)", "fisher(100)",
                                    "dto(1e4,4)", "fhn(0.3,1)", "fhn(2/7,2)"])
def test_residual_scan_is_the_reference_scan(preset, gamma_sign, pipeline):
    result = pipeline(preset, gamma_sign)
    cases = [(result.ode, result.kink, result.original_residual)]
    if result.partner_kink is not None:
        cases.append((result.partner.partner, result.partner_kink,
                      result.partner_residual))
    for ode, kink, report in cases:
        expected = reference_residual_max(ode, kink, default_grid(kink))
        assert residual_max(ode, kink, default_grid(kink)) == expected
        assert report == expected
        shifted = replace(kink, shift=0.7)
        assert (residual_max(ode, shifted, default_grid(shifted))
                == reference_residual_max(ode, shifted, default_grid(shifted)))


def scan_outcome(scan, ode, kink, grid):
    """The bits of a scan's report, or the type and text of its error."""
    try:
        report = scan(ode, kink, grid)
    except DomainError as exc:
        return "DomainError", str(exc)
    return report.max_abs_residual.hex(), report.argmax_xi.hex(), report.grid


# exponents up to 20, so that gaps are both written out and looped over, and
# fractional ones with odd and even denominators
scan_polys = st.lists(
    st.tuples(st.one_of(st.integers(min_value=0, max_value=20),
                        st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(7, 3)])),
              st.floats(min_value=-2.0, max_value=2.0)),
    max_size=5,
).map(PowerPoly)


@st.composite
def scan_kinks(draw):
    """A real kink whose default grid is not finer than the float spacing: its
    shift is a number of widths; a large amplitude or rate overflows."""
    rate = draw(st.floats(min_value=1e-2, max_value=1e2) | st.just(1e200))
    rate *= draw(st.sampled_from([1.0, -1.0]))
    q = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2)]))
    sign = draw(st.sampled_from([1, -1]) if q.denominator % 2 else st.just(1))
    return KinkProfile(
        amplitude=draw(st.floats(min_value=1e-2, max_value=1e2) | st.sampled_from([1e40, 1e200])),
        rate=rate, inv_exponent=q,
        shift=draw(st.floats(min_value=-20.0, max_value=20.0)) / abs(rate),
        core_sign=sign)


@settings(deadline=None)
@given(scan_polys, scan_kinks(),
       st.floats(min_value=-3.0, max_value=3.0) | st.just(math.nan),
       st.integers(min_value=3, max_value=101),
       st.sampled_from([10.0, 1000.0]))
# an integer power beyond the float range: Horner's products give inf, from
# xi = -4 on
@example(PowerPoly([(1, 1.0), (9, -1.0)]), KinkProfile(1e36, -1.0, Fraction(1), 0.0), 0.5,
         11, 10.0)
# a fractional power beyond the float range raises OverflowError
@example(PowerPoly([(Fraction(7, 3), 1.0)]), KinkProfile(1e200, 1.0, Fraction(1), 0.0),
         0.5, 11, 10.0)
# so does eval's power u = (lam/den)^2
@example(PowerPoly([(1, 1.0)]), KinkProfile(1e200, 1.0, Fraction(2), 0.0), 0.5, 11, 10.0)
# a NaN residual at the first point ends the scan
@example(PowerPoly([(1, 1.0), (2, -1.0)]), KinkProfile(1.0, 1.0, Fraction(1), 0.0),
         math.nan, 11, 10.0)
# r*r overflows, so u'' is inf, or NaN where it is inf * 0
@example(PowerPoly([(1, 1.0)]), KinkProfile(1.0, 1e200, Fraction(1), 0.0), 0.5, 11, 10.0)
# a negative core: the signed terms of an odd root
@example(PowerPoly([(1, 1.0), (Fraction(1, 3), -0.5), (4, 1.5)]),
         KinkProfile(2.0, -1.0, Fraction(1, 3), 0.25, core_sign=-1), 0.5, 21, 10.0)
# q = 1 on a negative core, where e^{r(xi - xi0)} overflows from xi = 710 on:
# u = -0.0 there, and the scan's |y| = -u is +0.0
@example(PowerPoly([(1, 1.0), (2, -0.5), (3, 0.25)]),
         KinkProfile(2.0, 1.0, Fraction(1), 0.0, core_sign=-1), 0.5, 21, 1000.0)
# q = 1 with amplitude and rate 1e200: u is near 1e200, u' and u'' are
# -inf, and the residual is NaN at xi = 0
@example(PowerPoly([(1, 1.0)]), KinkProfile(1e200, 1e200, Fraction(1), 0.0), 0.5, 11, 10.0)
def test_residual_scan_is_the_reference_scan_on_drawn_kinks(F, kink, gamma, count, widths):
    # widths = 10 is the default grid; on 1000 widths the exponential
    # overflows at one end
    span = widths * kink.width
    ode, grid = OdeSpec(gamma=gamma, F=F), (kink.shift - span, kink.shift + span, count)
    expected = scan_outcome(reference_residual_max, ode, kink, grid)
    if expected[1].endswith("(even root of a negative number)"):
        # a term of F that is not real along the kink: the scan refuses F
        # before its first point, with poly_along's text
        expected = outcome(lambda F: kink.poly_along(F, kink.shift), F)
    assert scan_outcome(residual_max, ode, kink, grid) == expected


@pytest.mark.parametrize("q,core_sign,per_point", [
    (Fraction(1), 1, 1), (Fraction(1), -1, 1), (Fraction(1, 3), -1, 2), (Fraction(2), 1, 2)])
def test_a_scan_point_takes_one_exponential_when_q_is_1(monkeypatch, q, core_sign,
                                                         per_point):
    # with q = 1 the scan reads |y| from eval's u; any other q computes it
    # from a second exponential
    kink = KinkProfile(1.5, -2.0, q, 0.25, core_sign=core_sign)
    ode = OdeSpec(gamma=0.5, F=PowerPoly([(1, 1.0), (3, -2.0)]))
    grid = default_grid(kink, 101)
    expected = reference_residual_max(ode, kink, grid)
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
    assert residual_max(ode, kink, grid) == expected
    assert len(calls) == per_point * 101


def test_a_scan_of_the_same_shape_compiles_nothing(monkeypatch, pipeline):
    # the scan's code names the kink's numbers and F's coefficients, so scans
    # of one shape share it and each call binds its own values
    kink = pipeline("mt6").kink
    first = OdeSpec(gamma=0.5, F=PowerPoly([(1, 1.0), (Fraction(3, 2), -1.25), (7, 3.0)]))
    second = OdeSpec(gamma=-0.25, F=PowerPoly([(1, -0.5), (Fraction(3, 2), 2.0), (7, -0.75)]))
    other = replace(kink, amplitude=2.5, rate=-0.75, shift=0.7)
    expected = reference_residual_max(second, other, default_grid(other, 101))
    residual_max(first, kink, default_grid(kink, 101))
    compiled = []
    monkeypatch.setattr(powerpoly, "compile",
                        lambda *a: compiled.append(a) or compile(*a), raising=False)
    assert residual_max(second, other, default_grid(other, 101)) == expected
    assert compiled == []


@pytest.mark.parametrize("xi0", [1e15, 1e16, 1e300])
def test_residual_grid_finer_than_float_spacing_is_an_error(xi0, pipeline):
    # 2001 points over 20 widths of mt6 collapse onto 107 floats at 1e15, 7 at
    # 1e16 and 1 at 1e300
    result = pipeline("mt6")
    kink = replace(result.kink, shift=xi0)
    with pytest.raises(DomainError, match="not above the float spacing"):
        residual_max(result.ode, kink, default_grid(kink))


def test_residual_grid_far_out_but_above_float_spacing_passes(pipeline):
    result = pipeline("mt6")
    for kink, ode in ((result.kink, result.ode),
                      (result.partner_kink, result.partner.partner)):
        kink = replace(kink, shift=1e12)
        grid = default_grid(kink)
        assert len(set(grid_points(grid))) == 2001
        assert residual_max(ode, kink, grid).max_abs_residual < 1e-9


# -- the grid rule ------------------------------------------------------------------

@pytest.mark.parametrize("lo, hi, step, message", [
    # each grid fails this check and every later one
    (math.inf, 0.0, math.nan, r"\[inf, 0.0\] must have finite ends"),
    (1.0, 0.0, math.nan, r"\[1.0, 0.0\] must have lo < hi"),
    (0.0, 1e300, 1e-300, r"has step 1e-300, not above the float spacing 1.48\d*e\+284 there"),
    (0.0, 1e8, 1e-3, r"would take 1e\+11 steps of 0.001; at most 1e\+07 are allowed"),
    (0.0, 4e-4, 1e-3, r"\[0.0, 0.0004\] rounds to no step of 0.001"),
], ids=["ends", "order", "spacing", "max_steps", "no_step"])
def test_grid_rule_refuses_in_order(lo, hi, step, message):
    with pytest.raises(DomainError, match=rf"^axis .*{message}$"):
        _steps(lo, hi, step, "axis")


def test_grid_rule_takes_max_steps():
    assert _steps(-10.0, 10.0, 20.0 / verify.MAX_STEPS, "axis") == verify.MAX_STEPS


@settings(deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=0.1, max_value=2000.0))
# a range of less than half a step rounds to none
@example(0.0, 1.0, 0.4)
# points between the floats at 1e6, which lie 1.2e-10 apart
@example(1e6, 1e-3, 1000.0)
def test_axis_is_lo_plus_i_step(lo, span, divisions):
    hi, step = lo + span, span / divisions
    count = round((hi - lo) / step)
    if not count:
        with pytest.raises(DomainError, match="rounds to no step"):
            _axis(lo, hi, step, "axis")
        return
    assert _axis(lo, hi, step, "axis").tolist() == [lo + i * step for i in range(count + 1)]


def test_residual_grid_of_more_than_max_steps_is_refused_before_the_scan(monkeypatch,
                                                                         pipeline):
    result = pipeline("mt6")
    monkeypatch.setattr(verify, "_scan", lambda *a: pytest.fail("the scan started"))
    grid = (-10.0, 10.0, verify.MAX_STEPS + 2)
    with pytest.raises(DomainError, match="^residual grid .* at most 1e\\+07 are allowed$"):
        residual_max(result.ode, result.kink, grid)


@pytest.mark.parametrize("oracle", ["flow", "second_order"])
def test_rk4_refuses_a_grid_finer_than_float_spacing(oracle, pipeline):
    # steps of 1e-3 at 1e14, where the floats are 1/64 apart, would give a run
    # whose xi values repeat
    result = pipeline("mt6")
    kink = replace(result.kink, shift=1e14)
    u0, v0, _ = kink.eval(kink.shift)
    xi_range = (kink.shift, kink.shift + 10.0 * kink.width)
    with pytest.raises(DomainError, match=r"^xi range .* has step 0.001, not above the"
                                          r" float spacing 0.015625 there$"):
        if oracle == "flow":
            rk4_flow(result.pair.phi1, u0, xi_range, 1e-3)
        else:
            rk4_second_order(result.ode, u0, v0, xi_range, 1e-3)


def test_front_refuses_a_grid_finer_than_float_spacing(monkeypatch, pipeline):
    # cells of 0.05 at 1e17, where the floats are 16 apart, once measured a
    # front speed of 1372 against gamma = 2.5; the refusal comes before any step
    result = pipeline("mt6")
    kink = replace(result.kink, shift=1e17)
    monkeypatch.setattr(verify, "_ftcs_kernel", lambda *a: pytest.fail("the run started"))
    with pytest.raises(DomainError, match=r"^x grid .* has step 0.05, not above the"
                                          r" float spacing 16 there$"):
        simulate_front(result.ode.F, kink, (1e17 - 40.0, 1e17 + 40.0, 0.05), 1e-3, 5.0)


def test_mirror_symmetry_of_residuals(pipeline):
    pos = pipeline("fisher(1)", "positive")
    neg = pipeline("fisher(1)", "negative")
    span = 10.0 * pos.kink.width
    rep_pos = residual_max(pos.ode, pos.kink, (-span, span, 501))
    rep_neg = residual_max(neg.ode, neg.kink, (-span, span, 501))
    assert abs(rep_pos.max_abs_residual - rep_neg.max_abs_residual) < 1e-12


def test_branch2_partner_variant_resolution(pipeline):
    # the branch-2 reversal kink u = 1/(1 + e^{sqrt2 xi}) is exact in the
    # derived partner u(u-1)(a-4u) and fails in the cubic variant
    result = pipeline("fhn(3,2)", "negative")
    kink = result.partner_kink
    assert kink.rate == pytest.approx(math.sqrt(2.0), abs=1e-12)
    derived = residual_max(result.partner.partner, kink, default_grid(kink))
    assert derived.max_abs_residual < 1e-9
    a = 3.0
    variant = OdeSpec(
        gamma=result.pair.gamma,
        F=PowerPoly([(1, -a), (2, a + 1.0), (3, 2.0), (4, -3.0)]),
    )
    rep = residual_max(variant, kink, default_grid(kink))
    assert rep.max_abs_residual > 1e-3
    assert rep.max_abs_residual == pytest.approx(3.0 / 16.0, rel=1e-6)


# -- rk4_flow ------------------------------------------------------------------------

def test_rk4_flow_matches_closed_form(pipeline):
    result = pipeline("fisher(1)")
    kink = result.kink
    xis, us = rk4_flow(result.pair.phi1, kink.value(kink.shift),
                       (kink.shift, kink.shift + 10.0), 1e-3)
    exact = np.array([kink.value(x) for x in xis])
    assert np.max(np.abs(us - exact)) < 1e-8


@pytest.mark.parametrize("preset", ["fisher(2)", "mt6", "dto(2/9,4)", "newell_whitehead"])
def test_rk4_flow_negative_field_partner(preset, pipeline):
    # the partner kink runs from 0 down to the negative fixed point of its phi
    result = pipeline(preset)
    kink = result.partner_kink
    assert kink.midpoint_value() < 0
    xis, us = rk4_flow(result.partner.compatible_phi, kink.value(kink.shift),
                       (kink.shift, kink.shift + 10.0 * kink.width), 1e-3)
    exact = np.array([kink.value(x) for x in xis])
    assert np.max(np.abs(us - exact)) < 1e-8


def test_rk4_flow_fixed_points(pipeline):
    result = pipeline("fisher(1)")
    xis, us = rk4_flow(result.pair.phi1, 0.0, (0.0, 5.0), 1e-3)
    assert np.max(np.abs(us)) == 0.0
    xis, us = rk4_flow(result.pair.phi1, 1.0, (0.0, 5.0), 1e-3)
    assert np.max(np.abs(us - 1.0)) < 1e-12


def test_rk4_flow_fourth_order_convergence(pipeline):
    result = pipeline("fisher(1)")
    kink = result.kink
    span = 10.0 * kink.width
    errs = []
    h0 = 0.2 * kink.width
    for h in (h0, h0 / 2.0, h0 / 4.0):
        xis, us = rk4_flow(result.pair.phi1, kink.value(kink.shift),
                           (kink.shift, kink.shift + span), h)
        exact = np.array([kink.value(x) for x in xis])
        errs.append(np.max(np.abs(us - exact)))
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_rk4_flow_instability_guard(pipeline):
    result = pipeline("fisher(1)")
    with pytest.raises(InstabilityError):
        rk4_flow(result.pair.phi1, 1.5, (0.0, 40.0), 1e-2)


def test_rk4_flow_with_no_real_second_fixed_point():
    # 1 + u^2 has no real root, so only the slack below 0 bounds the state,
    # and u' = (1 + u^2) u blows up in finite time
    with pytest.raises(InstabilityError, match="^flow integration diverged at step 36$"):
        rk4_flow(PowerPoly([(0, 1.0), (2, 1.0)]), 1.0, (0.0, 5.0), 1e-2)
    # -1 - u^2 has none either; its state decays towards 0
    xis, us = rk4_flow(PowerPoly([(0, -1.0), (2, -1.0)]), 0.5, (0.0, 5.0), 1e-2)
    assert 0.0 < us[-1] < us[0]


def test_rk4_flow_validates_arguments(pipeline):
    result = pipeline("fisher(1)")
    with pytest.raises(DomainError):
        rk4_flow(result.pair.phi1, 0.5, (0.0, 1.0), -1e-3)
    with pytest.raises(DomainError):
        rk4_flow(result.pair.phi1, 0.5, (1.0, 0.0), 1e-3)


@pytest.mark.parametrize("oracle", ["flow", "second_order"])
@pytest.mark.parametrize("quantity, xi_range, step", [
    ("step", (0.0, 1.0), math.nan),
    ("xi range", (0.0, math.inf), 1e-3),
    ("xi range", (math.nan, 1.0), 1e-3),
])
def test_rk4_rejects_non_finite_inputs(oracle, quantity, xi_range, step, pipeline):
    # the grid rule checks the ends first, then the step
    result = pipeline("fisher(1)")
    message = ("has step nan, not above the float spacing" if quantity == "step"
               else "must have finite ends")
    with pytest.raises(DomainError, match=rf"^xi range \[.*\] {message}"):
        if oracle == "flow":
            rk4_flow(result.pair.phi1, 0.5, xi_range, step)
        else:
            rk4_second_order(result.ode, 0.5, 0.0, xi_range, step)


@pytest.mark.parametrize("oracle, xi_range", [("flow", (0, 4e-4)),
                                              ("second_order", (0, 4.9e-4))],
                         ids=["flow", "second_order"])
def test_rk4_refuses_a_range_of_no_step(oracle, xi_range, pipeline):
    # the range rounds to zero steps, so the run would return only its start
    result = pipeline("mt6")
    with pytest.raises(DomainError) as info:
        if oracle == "flow":
            rk4_flow(result.pair.phi1, 0.5, xi_range, 1e-3)
        else:
            rk4_second_order(result.ode, 0.5, 0.0, xi_range, 1e-3)
    assert str(info.value) == f"xi range [0.0, {xi_range[1]!r}] rounds to no step of 0.001"


# -- rk4_second_order ---------------------------------------------------------------------

def test_rk4_second_order_shadows_kink(pipeline):
    result = pipeline("fisher(1)")
    kink = result.kink
    span = 10.0 * kink.width
    u0, v0, _ = kink.eval(kink.shift)
    xis, us, vs = rk4_second_order(result.ode, u0, v0,
                                   (kink.shift, kink.shift + span), 1e-3)
    exact = np.array([kink.value(x) for x in xis])
    assert np.max(np.abs(us - exact)) < 1e-6


def test_rk4_second_order_fixed_points(pipeline):
    result = pipeline("fisher(1)")
    xis, us, vs = rk4_second_order(result.ode, 0.0, 0.0, (0.0, 5.0), 1e-3)
    assert np.max(np.abs(us)) == 0.0
    xis, us, vs = rk4_second_order(result.ode, 1.0, 0.0, (0.0, 5.0), 1e-3)
    assert np.max(np.abs(us - 1.0)) < 1e-12


def test_rk4_second_order_blowup_guard():
    ode = OdeSpec(gamma=-1.0, F=PowerPoly([(3, -10.0)]))
    with pytest.raises(InstabilityError):
        rk4_second_order(ode, 2.0, 5.0, (0.0, 20.0), 1e-2)


def test_rk4_runner_integrates_a_field_neither_oracle_uses(pipeline):
    # along a kink p = u' is phi1(u)*u, and in u it obeys the phase-plane
    # field dp/du = -gamma - F(u)/p; u runs as a clock state of slope 1
    result = pipeline("fhn(3,2)")
    phi, ode = result.pair.phi1, result.ode
    errs = []
    for du in (0.02, 0.01, 0.005):
        p0 = phi.evaluate(0.2) * 0.2
        grid, (us, ps), failed = verify._rk4(
            ode.F, (0.2, 0.8), du, {"u": (0.2, "1.0"), "p": (p0, "-gamma - ({poly}) / {p}")},
            "-inf < p < inf", "phase-plane integration", gamma=ode.gamma)
        assert failed == 0
        assert np.max(np.abs(us - grid)) < 1e-14
        errs.append(np.max(np.abs(ps - phi.evaluate(us) * us)))
    assert errs[0] < 1e-8
    assert 15.0 < errs[0] / errs[1] < 17.0
    assert 15.0 < errs[1] / errs[2] < 17.0


def reference_fixed_point(phi):
    """The real root of -c0/c1 to the power 1/m of a binomial c0 + c1*u^m, or None.

    The odd-root rule is written out here, so the reference does not share
    the kink's fixed points.
    """
    shape = phi.binomial()
    if shape is None:
        return None
    c0, m, c1 = shape
    base, q = -c0 / c1, 1 / m
    if base >= 0.0:
        return math.pow(base, float(q))
    if q.denominator % 2 == 0:
        return None
    return (-1.0 if q.numerator % 2 else 1.0) * math.pow(-base, float(q))


def reference_rk4_flow(phi, u0, xi_range, step):
    """The flow loop with one ``phi.evaluate`` call per stage."""
    xis = _axis(*xi_range, step, "xi range")
    root = reference_fixed_point(phi)
    slack = 1e-6
    if root is None:
        low, high = -slack, math.inf
    else:
        low, high = min(0.0, root) - slack, max(0.0, root) + slack
    f, half = phi.evaluate, 0.5 * step
    us = np.empty(len(xis))
    us[0] = u = u0
    for i in range(len(xis) - 1):
        k1 = f(u) * u
        x = u + half * k1
        k2 = f(x) * x
        x = u + half * k2
        k3 = f(x) * x
        x = u + step * k3
        k4 = f(x) * x
        u = u + step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(u):
            raise InstabilityError(f"flow integration diverged at step {i}")
        if not low <= u <= high:
            raise InstabilityError(
                f"flow state {u:g} left [{low:g}, {high:g}] at xi = {xis[i + 1]:g}"
            )
        us[i + 1] = u
    return xis, us


def reference_rk4_second_order(ode, u0, v0, xi_range, step):
    """The second-order loop with one ``F.evaluate`` call per stage."""
    xis = _axis(*xi_range, step, "xi range")
    f, half, gamma = ode.F.evaluate, 0.5 * step, ode.gamma
    us, vs = np.empty(len(xis)), np.empty(len(xis))
    us[0], vs[0] = u, v = u0, v0
    for i in range(len(xis) - 1):
        a1 = -gamma * v - f(u)
        u2, v2 = u + half * v, v + half * a1
        a2 = -gamma * v2 - f(u2)
        u3, v3 = u + half * v2, v + half * a2
        a3 = -gamma * v3 - f(u3)
        u4, v4 = u + step * v3, v + step * a3
        a4 = -gamma * v4 - f(u4)
        u = u + step * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
        v = v + step * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        if not (math.isfinite(u) and math.isfinite(v)) or abs(u) > 1e6:
            raise InstabilityError(f"second-order integration blew up at step {i}")
        us[i + 1], vs[i + 1] = u, v
    return xis, us, vs


def rk4_outcome(oracle, *args):
    """The bits of every returned array, or the type and text of the error."""
    try:
        arrays = oracle(*args)
    except (DomainError, InstabilityError) as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def reference_outcome(oracle, overflow, *args):
    """rk4_outcome of a reference loop, where a fractional power of a diverging
    state raises OverflowError; the oracles report it as InstabilityError
    with the text ``overflow``."""
    try:
        return rk4_outcome(oracle, *args)
    except OverflowError:
        return InstabilityError, overflow


FLOW_OVERFLOW = "flow integration overflowed the float range"
SECOND_OVERFLOW = "second-order integration overflowed the float range"


def assert_rk4_is_the_reference(phi, ode, u0, v0, xi_range, step):
    flow = rk4_outcome(rk4_flow, phi, u0, xi_range, step)
    assert flow == reference_outcome(reference_rk4_flow, FLOW_OVERFLOW,
                                     phi, u0, xi_range, step)
    second = rk4_outcome(rk4_second_order, ode, u0, v0, xi_range, step)
    assert second == reference_outcome(reference_rk4_second_order, SECOND_OVERFLOW,
                                       ode, u0, v0, xi_range, step)
    return flow, second


@pytest.mark.parametrize("gamma_sign", ["positive", "negative"])
@pytest.mark.parametrize("preset", STANDARD_PRESETS)
def test_compiled_rk4_is_the_reference_loop_on_every_kink(preset, gamma_sign, pipeline):
    # the oracles' runs from the kink's midpoint, at a coarser step; negative
    # gamma blows some second-order runs up, and those must raise alike
    result = pipeline(preset, gamma_sign)
    roles = [(result.kink, result.pair.phi1, result.ode)]
    if result.partner_kink is not None:
        roles.append((result.partner_kink, result.partner.compatible_phi,
                      result.partner.partner))
    for kink, phi, ode in roles:
        u0, v0, _ = kink.eval(kink.shift)
        assert_rk4_is_the_reference(phi, ode, kink.value(kink.shift), v0,
                                    (kink.shift, kink.shift + 10.0 * kink.width), 1e-2)
        assert_rk4_is_the_reference(phi, ode, u0, v0,
                                    (kink.shift, kink.shift + 10.0 * kink.width), 1e-2)


# integer and fractional exponents, with gaps both written out and looped over
rk4_polys = st.lists(
    st.tuples(st.one_of(st.integers(min_value=0, max_value=20),
                        st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)])),
              st.floats(min_value=-2.0, max_value=2.0)),
    max_size=6,
).map(PowerPoly)


@settings(deadline=None)
@given(rk4_polys, st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-2.0, max_value=2.0))
@example(PowerPoly([(0, 1.0), (Fraction(1, 2), -1.0), (12, 0.5)]), -0.5, 1.0)
@example(PowerPoly([(0, 1.0), (1, -1.0)]), 0.5, -1.0)
# a gap of 8 is written into the expression, a gap of 9 is a loop
@example(PowerPoly([(0, 1.0), (8, -0.5)]), 0.9, 0.5)
@example(PowerPoly([(0, 1.0), (9, -0.5)]), 0.9, 0.5)
# only fractional terms: the expression starts at 0.0
@example(PowerPoly([(Fraction(1, 2), 1.0), (Fraction(3, 2), -1.0)]), 0.5, 1.0)
# 250 integer terms: more than the 200 parentheses the parser nests
@example(PowerPoly([(k, 0.5 * (-1) ** k) for k in range(250)]), 0.5, 1.0)
# a second fixed point c^-2 of about 3.2e337, beyond the float range
@example(PowerPoly([(0, 1.0), (Fraction(1, 2), 1.7662439519826803e-169)]), 0.0, 0.0)
def test_compiled_rk4_is_the_reference_loop_on_drawn_polynomials(p, u0, gamma):
    flow, second = assert_rk4_is_the_reference(
        p, OdeSpec(gamma=gamma, F=p.times_u()), u0, -0.5 * u0, (0.0, 3.0), 1e-2)
    if u0 < 0 and any(e.denominator != 1 for e in p.exponents()):
        assert flow[0] is DomainError and second[0] is DomainError


def test_six_thousand_fractional_terms_compile_and_run(pipeline):
    # one flat sum of fractional terms nests a level of the compiler's
    # recursion per term, which CPython 3.11 exhausts near 3,000 terms
    n = 6000
    F = PowerPoly([(Fraction(2 * k + 1, 2 * n), (-1) ** k / n) for k in range(n)])
    assert len(F.terms) == n and all(e.denominator != 1 for e in F.exponents())
    for u in (0.3, 0.7, -0.5, np.linspace(0.0, 1.0, 257)):
        assert outcome(F.evaluate, u) == outcome(lambda x: reference_evaluate(F, x), u)
    kink = pipeline("fisher(1)").kink
    xis = list(grid_points(default_grid(kink, 11)))
    assert [kink.poly_along(F, xi) for xi in xis] == [
        reference_poly_along(kink, F, xi) for xi in xis]
    ode, run = OdeSpec(gamma=0.5, F=F), (0.5, -0.1, (0.0, 0.03), 1e-2)
    assert rk4_outcome(rk4_second_order, ode, *run) == reference_outcome(
        reference_rk4_second_order, SECOND_OVERFLOW, ode, *run)


def test_an_overflowing_fractional_power_is_an_instability():
    # the reference loops let the OverflowError of x ** e escape, as the
    # oracles did before they mapped it
    phi = PowerPoly([(Fraction(1, 2), 1.0), (Fraction(7, 3), 1.0),
                     (3, -1.1302325175544687), (19, 1.0)])
    with pytest.raises(OverflowError):
        reference_rk4_flow(phi, 0.798, (0.0, 3.0), 1e-2)
    with pytest.raises(InstabilityError) as info:
        rk4_flow(phi, 0.798, (0.0, 3.0), 1e-2)
    assert str(info.value) == FLOW_OVERFLOW
    ode = OdeSpec(gamma=0.0,
                  F=PowerPoly([(0, -1.0), (Fraction(3, 2), -1.0), (12, -2.0)]).times_u())
    with pytest.raises(OverflowError):
        reference_rk4_second_order(ode, 0.5, -0.25, (0.0, 3.0), 1e-2)
    with pytest.raises(InstabilityError) as info:
        rk4_second_order(ode, 0.5, -0.25, (0.0, 3.0), 1e-2)
    assert str(info.value) == SECOND_OVERFLOW


def recorded_rk4_loops(monkeypatch):
    """The list each compiled RK4 loop is appended to from now on; the other
    functions that verify generates, such as the residual scans, are not."""
    loops = []

    def define(signature, body, names, filename):
        function = _define(signature, body, names, filename)
        if filename == "verify.rk4":
            loops.append(function)
        return function

    monkeypatch.setattr(verify, "_define", define)
    return loops


def test_compiled_rk4_code_does_not_grow_with_the_exponent(monkeypatch, pipeline):
    loops = recorded_rk4_loops(monkeypatch)
    for n in (100, 10**6):
        result = pipeline(f"fisher({n})")
        rk4_flow(result.pair.phi1, 0.5, (0.0, 1e-3), 1e-3)
        rk4_second_order(result.ode, 0.5, 0.0, (0.0, 1e-3), 1e-3)
    flow, second, big_flow, big_second = (loop.__code__.co_code for loop in loops)
    assert big_flow == flow and big_second == second


def test_compiled_rk4_loop_is_freed_without_the_garbage_collector():
    # every oracle call compiles its loop; a reference cycle would keep each
    # one until a full collection
    p = PowerPoly([(0, 1.0), (Fraction(1, 2), -1.25), (12, 3.0)])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        rk4_flow(p, 0.1, (0.0, 0.01), 1e-3)
        rk4_second_order(OdeSpec(gamma=1.0, F=p.times_u()), 0.1, 0.0, (0.0, 0.01), 1e-3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_polynomial_of_the_same_shape_compiles_nothing(monkeypatch, pipeline):
    # the generated code names the coefficients, so polynomials of one shape
    # share it and each call binds its own values
    kink = pipeline("mt6").kink
    first = PowerPoly([(1, 1.0), (Fraction(3, 2), -1.25), (7, 3.0)])
    second = PowerPoly([(1, -0.5), (Fraction(3, 2), 2.0), (7, -0.75)])
    args = (0.1, (0.0, 0.5), 1e-2)
    xis = list(grid_points(default_grid(kink, 101)))
    along = [reference_poly_along(kink, second, xi) for xi in xis]
    flow = reference_outcome(reference_rk4_flow, FLOW_OVERFLOW, second, *args)
    kink.poly_along(first, kink.shift)
    rk4_flow(first, *args)
    compiled = []
    monkeypatch.setattr(powerpoly, "compile",
                        lambda *a: compiled.append(a) or compile(*a), raising=False)
    assert [kink.poly_along(second, xi) for xi in xis] == along
    assert rk4_outcome(rk4_flow, second, *args) == flow
    assert compiled == []


def test_rk4_takes_numpy_scalars_and_returns_writable_float_arrays(pipeline):
    result = pipeline("fisher(1)")
    xi_range = (0.0, 2.0)
    flows = [rk4_flow(result.pair.phi1, u0, xi_range, 1e-3)
             for u0 in (0.5, np.float64(0.5))]
    seconds = [rk4_second_order(result.ode, u0, v0, xi_range, 1e-3)
               for u0, v0 in ((0.5, -0.125), (np.float64(0.5), np.float64(-0.125)))]
    for plain, numpy_run in (flows, seconds):
        assert [a.tobytes() for a in numpy_run] == [a.tobytes() for a in plain]
    for a in (*flows[0], *seconds[0]):
        assert a.dtype == np.float64
        assert a.flags.writeable and a.flags.c_contiguous


# -- simulate_front -----------------------------------------------------------------------

def test_cfl_violation_rejected(pipeline):
    result = pipeline("mt6")
    with pytest.raises(CflError):
        simulate_front(result.ode.F, result.kink, (-40.0, 40.0, 0.05),
                       dt=0.01, T=1.0)


def test_margin_precondition(pipeline):
    result = pipeline("mt6")
    with pytest.raises(DomainError):
        simulate_front(result.ode.F, result.kink, (-3.0, 3.0, 0.05),
                       dt=1e-3, T=0.1)


@pytest.mark.parametrize("T", [3.0, 3.013])
@pytest.mark.parametrize("snapshot_every", [None, 1, 3, 7])
@pytest.mark.parametrize("gamma_sign", ["positive", "negative"])
def test_front_truncation_guard(gamma_sign, snapshot_every, T, pipeline):
    # a coarse grid widens the 5-cell guard band so the moving front enters it
    result = pipeline("mt6", gamma_sign)
    # the allocating reference loop reaches 3.09426 at step 125, or -3.09426
    # on the mirrored front, whatever blocks the snapshots cut the steps into
    # and whether the last step is a multiple of FRONT_SAMPLE_EVERY
    reached = r"3\.09426" if gamma_sign == "positive" else r"-3\.09426"
    with pytest.raises(TruncatedRunError, match=rf"^front reached {reached}, "):
        simulate_front(result.ode.F, result.kink, (-8.0, 8.0, 1.0),
                       dt=0.01, T=T, snapshot_every=snapshot_every)


def test_zero_reaction_front_is_subballistic(pipeline):
    # pure diffusion: no reaction term, the midpoint crossing drifts O(sqrt(T))
    result = pipeline("mt6")
    sim = simulate_front(PowerPoly(), result.kink, (-40.0, 40.0, 0.1),
                         dt=4e-3, T=2.0)
    assert abs(sim.fitted_speed) < 0.5 * abs(result.pair.gamma)


def test_front_snapshots_only_when_asked(pipeline):
    result = pipeline("mt6")
    run = (result.ode.F, result.kink, (-40.0, 40.0, 0.1), 4e-3, 0.4)
    plain = simulate_front(*run)
    kept = simulate_front(*run, snapshot_every=50)
    assert plain.snapshots == ()
    assert [t for t, _ in kept.snapshots] == pytest.approx([0.0, 0.2, 0.4])
    assert all(u.shape == (801,) for _, u in kept.snapshots)
    assert kept.front_positions == plain.front_positions


SHORT_RUN = ((-40.0, 40.0, 0.1), 4e-3, 0.4)


def _reference_run(step, initial, grid, dt, T, snapshot_every=None):
    """An allocating FTCS loop: ``step(u)`` returns the next field as a new array."""
    x_min, x_max, dx = grid
    n = int(round((x_max - x_min) / dx)) + 1
    x = x_min + dx * np.arange(n)
    u = np.array([initial.value(xi) for xi in x])
    level = initial.midpoint_value()

    def crossing(u):
        d = u - level
        signs = np.signbit(d)
        i = int(np.nonzero(signs[1:] != signs[:-1])[0][0])
        frac = d[i] / (d[i] - d[i + 1])
        return float(x[i] + frac * (x[i + 1] - x[i]))

    times, fronts = [0.0], [crossing(u)]
    snapshots = [(0.0, u.copy())] if snapshot_every else []
    n_steps = int(round(T / dt))
    for k in range(1, n_steps + 1):
        u = step(u)
        if k % FRONT_SAMPLE_EVERY == 0 or k == n_steps:
            times.append(k * dt)
            fronts.append(crossing(u))
        if snapshot_every and k % snapshot_every == 0:
            snapshots.append((k * dt, u.copy()))
    t_arr, p_arr = np.array(times), np.array(fronts)
    half = t_arr >= T / 2.0
    slope, intercept = np.polyfit(t_arr[half], p_arr[half], 1)
    fit = slope * t_arr[half] + intercept
    rms = float(np.sqrt(np.mean((p_arr[half] - fit) ** 2)))
    return times, fronts, float(slope), rms, level, snapshots


def _reference_front(F, initial, grid, dt, T, snapshot_every=None):
    """The folded update u[1:-1] <- a*(u[2:] + u[:-2]) + H(u[1:-1]), allocating.

    H(u) = (1 - 2a)*u + dt*F(u) is built from F's raw terms, so a u term that
    cancels is kept, as in simulate_front.
    """
    dx = grid[2]
    a = dt / (dx * dx)
    terms = {e: dt * c for e, c in F.terms}
    terms[Fraction(1)] = terms.get(Fraction(1), 0.0) + (1.0 - 2.0 * a)
    H = _compile(sorted(terms.items()))

    def step(u):
        v = u.copy()
        v[1:-1] = a * (u[2:] + u[:-2]) + H(u[1:-1])
        return v

    return _reference_run(step, initial, grid, dt, T, snapshot_every)


def _unfolded_reference_front(F, initial, grid, dt, T, snapshot_every=None):
    """The update u + dt*(u_xx + F(u)) with the ends pinned, in that order."""
    dx = grid[2]
    inv_dx2 = 1.0 / (dx * dx)

    def step(u):
        lap = np.zeros_like(u)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
        v = u + dt * (lap + F.evaluate(u))
        v[0], v[-1] = u[0], u[-1]
        return v

    return _reference_run(step, initial, grid, dt, T, snapshot_every)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _assert_bitwise_the_reference(F, kink):
    # the kernel runs in blocks up to the next sample or snapshot; 103 steps
    # end off a multiple of FRONT_SAMPLE_EVERY
    grid, dt, T = SHORT_RUN
    for run_T, every in [(T, None), (T, 1), (T, 3), (T, 5), (T, 7), (103 * dt, 3)]:
        run = (grid, dt, run_T)
        sim = simulate_front(F, kink, *run, snapshot_every=every)
        times, fronts, speed, rms, level, snapshots = _reference_front(
            F, kink, *run, snapshot_every=every)
        assert _bits(sim.times) == _bits(times)
        assert _bits(sim.front_positions) == _bits(fronts)
        assert _bits([sim.fitted_speed, sim.fit_residual, sim.level]) == _bits(
            [speed, rms, level])
        assert len(sim.snapshots) == len(snapshots)
        for (t, u), (t_ref, u_ref) in zip(sim.snapshots, snapshots):
            assert t == t_ref and u.tobytes() == u_ref.tobytes()


def _runs(result):
    """(F, kink) of the original and, when real, of the partner."""
    runs = [(result.ode.F, result.kink)]
    if result.partner_kink is not None:
        runs.append((result.partner.partner.F, result.partner_kink))
    return runs


@pytest.mark.parametrize("gamma_sign", ["positive", "negative"])
@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_front_kernel_is_bitwise_the_allocating_loop(preset, gamma_sign, pipeline):
    # originals and real partners cover positive and negative fields u
    for F, kink in _runs(pipeline(preset, gamma_sign)):
        _assert_bitwise_the_reference(F, kink)


@pytest.mark.parametrize("n", [1, 7, 1599])
def test_front_buffers_start_on_64_bytes(n):
    buffer = verify._aligned(n)
    assert buffer.shape == (n,) and buffer.dtype == float
    assert buffer.ctypes.data % 64 == 0


def test_front_kernel_keeps_folded_coefficients_below_the_structural_tolerance(pipeline):
    # dt * 1e-10 = 4e-13 is below STRUCTURAL_TOLERANCE; H keeps it as the
    # unfolded scheme does
    F = PowerPoly([(1, 1.0), (2, -1.0), (3, 1e-10)])
    assert abs(SHORT_RUN[1] * F.coefficient(3)) <= STRUCTURAL_TOLERANCE
    _assert_bitwise_the_reference(F, pipeline("fisher(1)").kink)


def _assert_close_to_the_unfolded_scheme(F, kink, run, tol):
    sim = simulate_front(F, kink, *run)
    times, fronts, speed, _, _, _ = _unfolded_reference_front(F, kink, *run)
    assert sim.times == tuple(times)
    assert np.max(np.abs(np.array(sim.front_positions) - fronts)) <= tol
    assert abs(sim.fitted_speed - speed) <= tol * abs(speed)


@pytest.mark.parametrize("gamma_sign", ["positive", "negative"])
@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_folded_kernel_is_close_to_the_unfolded_scheme(preset, gamma_sign, pipeline):
    # the folded update only sums in another order: front positions within
    # 1e-12 absolute and the speed within 1e-12 relative on the short run
    for F, kink in _runs(pipeline(preset, gamma_sign)):
        _assert_close_to_the_unfolded_scheme(F, kink, SHORT_RUN, 1e-12)


def test_folded_kernel_is_close_to_the_unfolded_scheme_on_the_default_run(pipeline):
    # 5,000 steps on 1,601 cells: rounding differences grow, within 1e-9
    result = pipeline("mt6")
    _assert_close_to_the_unfolded_scheme(
        result.ode.F, result.kink, ((-40.0, 40.0, 0.05), 1e-3, 5.0), 1e-9)


@pytest.mark.parametrize("dt", [4e-3, 5e-3])
def test_pure_diffusion_keeps_the_discrete_maximum_principle(dt, pipeline):
    # with a = dt/dx^2 <= 1/2 each new value is a convex combination of three
    # old ones, so no snapshot leaves the initial range beyond rounding
    kink = pipeline("mt6").kink
    sim = simulate_front(PowerPoly(), kink, SHORT_RUN[0], dt, 0.4, snapshot_every=1)
    (_, u0), *rest = sim.snapshots
    slack = 4.0 * np.finfo(float).eps * np.max(np.abs(u0))
    low, high = u0.min() - slack, u0.max() + slack
    assert len(rest) == int(round(0.4 / dt))
    for _, u in rest:
        assert low <= u.min() and u.max() <= high


def test_too_few_samples_for_the_fit_is_an_error_before_the_run(pipeline):
    # the check counts the samples the loop would take at t >= T/2
    kink = pipeline("mt6").kink
    grid, dt = SHORT_RUN[0], SHORT_RUN[1]
    for steps in range(13):
        for T in (steps * dt or 0.3 * dt, (steps + 0.4) * dt):
            n = int(round(T / dt))
            sampled = [0.0] + [k * dt for k in range(1, n + 1)
                               if k % FRONT_SAMPLE_EVERY == 0 or k == n]
            if sum(t >= T / 2.0 for t in sampled) < 2:
                # T = 0.3*dt has no time step at all
                message = "^not enough samples" if n else "rounds to no step"
                with pytest.raises(DomainError, match=message):
                    simulate_front(PowerPoly(), kink, grid, dt, T)
            else:
                assert simulate_front(PowerPoly(), kink, grid, dt, T).times == tuple(sampled)


@pytest.mark.parametrize("n, accepted", [(400, True), (1000, False), (5000, False)])
def test_cfl_bound_counts_the_stiffness_of_the_reaction(n, accepted, pipeline):
    # fisher(n) has F'(1) = -n: dt*(4/dx^2 + s) is 2.0, 2.6 and 6.6 on the
    # default grid at dt = 1e-3; T is short, only the check is under test
    result = pipeline(f"fisher({n})")
    run = (result.ode.F, result.kink, (-40.0, 40.0, 0.05), 1e-3, 0.01)
    if accepted:
        simulate_front(*run)
    else:
        with pytest.raises(CflError, match=rf"stiffness s = {n}$"):
            simulate_front(*run)


def test_front_snapshots_are_independent_copies(pipeline):
    result = pipeline("mt6")
    sim = simulate_front(result.ode.F, result.kink, *SHORT_RUN, snapshot_every=50)
    (_, first), (_, middle), (_, last) = sim.snapshots
    x_min, x_max, dx = SHORT_RUN[0]
    initial = [result.kink.value(xi) for xi in x_min + dx * np.arange(first.size)]
    assert first.tobytes() == np.array(initial).tobytes()
    assert not np.array_equal(first, middle)
    assert not np.array_equal(middle, last)


def _sampled_crossing(x, u, level):
    """The crossing that the front kernel stores for the field u at t = 0.

    ``steps(0, 0)`` takes the t = 0 sample and no step, so F, a and dt do not
    matter; a failed sample raises its error.
    """
    fronts = array("d", [math.nan])
    steps = verify._ftcs_kernel(PowerPoly(), 0.0, 0.0, u, x, level,
                                (-math.inf, math.inf), 0, fronts)
    with np.errstate(over="ignore"):
        steps(0, 0)
    return fronts[0]


def reference_crossing(x, u, level):
    """The crossing at the first flip of signbit(u - level), in numpy scalars."""
    with np.errstate(over="ignore"):
        d = u - level
        signs = np.signbit(d)
        flips = signs[1:] != signs[:-1]
        i = int(flips.argmax())
        if not flips[i]:
            raise TruncatedRunError("tracking level is no longer crossed in the domain")
        frac = d[i] / (d[i] - d[i + 1])
        return float(x[i] + frac * (x[i + 1] - x[i]))


def crossing_outcome(crossing, x, u, level):
    try:
        return np.float64(crossing(x, u, level)).tobytes()
    except (TruncatedRunError, InstabilityError) as exc:
        return type(exc)


# None stands for a cell exactly at the level
crossing_cells = st.one_of(st.none(), st.floats(-3.0, 3.0),
                           st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(crossing_cells, min_size=2, max_size=12),
       st.floats(-2.0, 2.0).filter(bool),
       st.sampled_from(["drawn", "rising", "falling"]),
       st.floats(-50.0, 50.0), st.floats(1e-3, 10.0))
@example([1.0, 2.0, 3.0], 0.5, "drawn", 0.0, 1.0)             # all above
@example([1.0, 2.0, 3.0], 4.0, "drawn", 0.0, 1.0)             # all below
@example([None, None, 1.0], 0.5, "drawn", 0.0, 1.0)           # level, then above
@example([0.0, None, None, 1.0], 0.5, "drawn", 0.0, 1.0)      # below, then level
@example([1.0, 0.0, 1.0, 0.0, 1.0], 0.5, "drawn", 0.0, 1.0)   # several crossings
@example([-0.0, 1.0, -1.0], -0.5, "falling", -3.0, 0.25)
def test_front_crossing_is_the_signbit_formula(cells, level, order, x0, dx):
    # the level of simulate_front is never 0, where a cell at -0.0 would have
    # its sign bit set without being below the level
    u = np.array([level if c is None else c for c in cells])
    if order != "drawn":
        u.sort()
        u = u if order == "rising" else u[::-1].copy()
    x = x0 + dx * np.arange(u.size)
    expected = crossing_outcome(reference_crossing, x, u, level)
    # the kernel's one comparison: a field whose u.u is not finite fails the
    # sample as a blow-up before its crossing is taken
    with np.errstate(over="ignore"):
        blown = not math.isfinite(u.dot(u))
    assert crossing_outcome(_sampled_crossing, x, u, level) == (
        InstabilityError if blown else expected)


def test_front_crossing_takes_the_first_of_several():
    x = np.arange(8.0)
    u = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    assert _sampled_crossing(x, u, 0.75) == 1.25


def test_front_crossing_without_a_crossing_is_a_truncated_run():
    x = np.arange(8.0)
    with pytest.raises(TruncatedRunError, match="^tracking level is no longer crossed"):
        _sampled_crossing(x, np.linspace(1.0, 2.0, 8), 0.5)


def test_front_inside_the_guard_at_t0_is_refused_before_the_first_step():
    # the initial crossing -9.78804 lies within 5 cells of x_min = -10, so
    # the t = 0 sample refuses the run before its first step; the sample at
    # step 5 would report the front at -9.82285
    kink = KinkProfile(1.0, 50.0, Fraction(1, 2), -9.79)
    F = PowerPoly([(1, 1.0), (3, -1.0)])
    with pytest.raises(TruncatedRunError, match=r"^front reached -9\.78804, within 5 cells"):
        simulate_front(F, kink, (-10.0, 10.0, 0.1), 1e-3, 0.1)


def test_front_blowup_is_an_instability(pipeline):
    # a strong cubic source drives the field to inf and then NaN; the
    # allocating reference loop first sees u.u overflow at step 10, t = 0.04,
    # whatever blocks the snapshots cut the steps into
    result = pipeline("fisher(1)")
    F = PowerPoly([(1, 1.0), (3, 1e3)])
    for every in (None, 3, 7):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InstabilityError, match=r"at step 10 \(t = 0\.04\)$"):
                simulate_front(F, result.kink, (-40.0, 40.0, 0.1), dt=4e-3, T=2.0,
                               snapshot_every=every)


def test_front_kernel_steps_allocate_no_array():
    # an F with no fractional power: every numpy call writes into the run's
    # buffers and each sample stores its position into the run's array, so
    # 1,000 steps with their 200 samples hold less memory than one array of
    # the inner cells, which an allocating step would hold (gap 10 runs
    # Horner's loop)
    F = PowerPoly([(0, 0.5), (1, 1.0), (2, -1.5), (12, 1e-3)])
    u = verify._aligned(801)
    u[:] = np.linspace(0.0, 1.0, u.size)
    x = np.linspace(-40.0, 40.0, u.size)
    # the pinned ends 0 and 1 keep the level 0.5 crossed; no band to leave
    fronts = array("d", [math.nan]) * 202
    steps = verify._ftcs_kernel(F, 0.4, 4e-3, u, x, 0.5, (-math.inf, math.inf), 1005,
                                fronts)
    steps(0, 5)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        steps(5, 1005)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(-40.0 < pos < 40.0 for pos in fronts)
    assert peak - before < u[1:-1].nbytes


def test_front_blowup_warns_about_nothing(pipeline):
    # u^3 overflows within a few steps; the only report is the InstabilityError
    F = PowerPoly([(1, 1.0), (3, 1e300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError):
            simulate_front(F, pipeline("fisher(2)").kink, (-20.0, 20.0, 0.1), 1e-3, 1.0)


# the x grid is [x_min, x_max] in steps of dx, the time axis [0, T] in steps of dt
FRONT_REFUSALS = [
    ("dt", 0.0, "time axis [0.0, 0.4] has step 0, not above the float spacing 5.55112e-17 there"),
    ("dt", -4e-3,
     "time axis [0.0, 0.4] has step -0.004, not above the float spacing 5.55112e-17 there"),
    ("dt", math.nan,
     "time axis [0.0, 0.4] has step nan, not above the float spacing 5.55112e-17 there"),
    ("T", 0.0, "time axis [0.0, 0.0] rounds to no step of 0.004"),
    ("T", -1.0, "time axis [0.0, -1.0] must have lo < hi"),
    ("T", math.nan, "time axis [0.0, nan] must have finite ends"),
    ("T", math.inf, "time axis [0.0, inf] must have finite ends"),
    ("x_min", math.nan, "x grid [nan, 40.0] must have finite ends"),
    ("x_max", math.inf, "x grid [-40.0, inf] must have finite ends"),
    ("dx", math.nan,
     "x grid [-40.0, 40.0] has step nan, not above the float spacing 7.10543e-15 there"),
    ("snapshot_every", 0, "snapshot_every must be >= 1, got 0"),
]


@pytest.mark.parametrize("quantity, value, message", FRONT_REFUSALS,
                         ids=[f"{quantity}-{value}" for quantity, value, _ in FRONT_REFUSALS])
def test_front_rejects_invalid_inputs(quantity, value, message, pipeline):
    result = pipeline("mt6")
    run = {"x_min": -40.0, "x_max": 40.0, "dx": 0.1, "dt": 4e-3, "T": 0.4,
           "snapshot_every": None}
    run[quantity] = value
    with pytest.raises(DomainError) as info:
        simulate_front(result.ode.F, result.kink, (run["x_min"], run["x_max"], run["dx"]),
                       run["dt"], run["T"], snapshot_every=run["snapshot_every"])
    assert str(info.value) == message


@pytest.mark.slow
def test_front_speed_matches_gamma(pipeline):
    result = pipeline("mt6")
    sim = simulate_front(result.ode.F, result.kink, (-40.0, 40.0, 0.05),
                         dt=1e-3, T=5.0)
    assert 2.45 <= sim.fitted_speed <= 2.55
    assert sim.fit_residual < 1e-2
    diffs = np.diff(np.array(sim.front_positions))
    assert np.all(diffs > 0)          # strictly monotone advance


def test_summary_line_format():
    line = summary_line("mt6", 2.5, 2.498, 1e-12)
    assert line.startswith("preset=mt6 gamma=2.5 fitted_speed=")
    assert "residual_max=" in line
