import math
from dataclasses import replace

import numpy as np
import pytest

from kinkfactor.errors import (
    CflError,
    DomainError,
    InstabilityError,
    TruncatedRunError,
)
from kinkfactor.factorizer import OdeSpec
from kinkfactor.kinks import MINUS, solve_binomial_flow
from kinkfactor.powerpoly import PowerPoly
from kinkfactor.verify import (
    default_grid,
    residual_max,
    rk4_flow,
    rk4_second_order,
    simulate_front,
    summary_line,
)

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


def test_minus_branch_grid_next_to_the_pole_is_rejected(pipeline):
    result = pipeline("fisher(1)", "negative")
    kink = replace(result.kink, branch=MINUS)
    assert kink.rate < 0                  # defined for xi > xi0
    # r * 1e-48 is so small that e^{r (xi - xi0)} rounds to 1: den = 0
    xi = kink.shift + 1e-48
    assert not kink.domain_contains(xi)
    assert kink.domain_contains(kink.shift + 1.0)
    assert not kink.domain_contains(kink.shift - 1.0)
    with pytest.raises(DomainError, match="crosses the minus-branch pole"):
        residual_max(result.ode, kink, (xi, kink.shift + 10.0, 11))


def test_residual_grid_validation(pipeline):
    result = pipeline("fisher(1)")
    with pytest.raises(DomainError):
        residual_max(result.ode, result.kink, (0.0, 1.0, 2))
    with pytest.raises(DomainError):
        residual_max(result.ode, result.kink, (1.0, -1.0, 11))


def test_residual_rejects_grid_across_pole(pipeline):
    result = pipeline("fisher(2)")
    coth = solve_binomial_flow(result.pair.phi1, branch=MINUS)
    with pytest.raises(DomainError):
        residual_max(result.ode, coth, (-1.0, 1.0, 21))
    # but the valid half-line works and the coth solution is exact there
    report = residual_max(result.ode, coth, (-8.0, -0.5, 301))
    assert report.max_abs_residual < 1e-9


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


def test_rk4_flow_validates_arguments(pipeline):
    result = pipeline("fisher(1)")
    with pytest.raises(DomainError):
        rk4_flow(result.pair.phi1, 0.5, (0.0, 1.0), -1e-3)
    with pytest.raises(DomainError):
        rk4_flow(result.pair.phi1, 0.5, (1.0, 0.0), 1e-3)


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


def test_front_truncation_guard(pipeline):
    # a coarse grid widens the 5-cell guard band so the moving front enters it
    result = pipeline("mt6")
    with pytest.raises(TruncatedRunError):
        simulate_front(result.ode.F, result.kink, (-8.0, 8.0, 1.0),
                       dt=0.01, T=3.0)


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
