import dataclasses
import math
from fractions import Fraction

import pytest

from kinkfactor.factorizer import FactorizationPair
from kinkfactor.kinks import KinkProfile
from kinkfactor.powerpoly import PowerPoly, mul
from kinkfactor.presets import STANDARD_PRESETS
from kinkfactor.susy import PartnerResult, second_reversal_check
from kinkfactor.verify import default_grid, residual_max


def operator_expansion_partner(pair: FactorizationPair) -> PowerPoly:
    """Independent route to the partner nonlinearity via symbolic expansion.

    Expand [D - f1][D - f2]u = u'' - (u*f2' + f1 + f2)u' + f1*f2*u directly,
    then substitute u*u' -> f2*u^2 in the u-dependent friction part.  The
    u-dependent friction is (u*f2' + f1 + f2) - (-gamma) by the source pair's
    constant-friction condition, so the substituted terms are
    -(u*f2' - u*f1')*f2*u added to f1*f2*u.
    """
    f1, f2 = pair.phi1, pair.phi2
    residual_friction = f2.u_deriv() + f1 + f2   # equals -gamma + (u*f2' - u*f1')
    # subtract the constant part; what remains multiplies u' and is absorbed
    u_dependent = residual_friction - PowerPoly([(0, residual_friction.constant_term())])
    absorbed = mul(u_dependent, f2).times_u()    # (u-dependent)*f2*u
    return mul(f1, f2).times_u() - absorbed


# -- partner nonlinearity identities ----------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_fisher_partner_general_form(n, pipeline):
    # F~/u = (1 + u^{n/2})(1 - h^4 u^{n/2}) with h^2 = n/2 + 1
    result = pipeline(f"fisher({n})")
    h4 = (n / 2.0 + 1.0) ** 2
    half = Fraction(n, 2)
    expected = mul(
        PowerPoly([(0, 1.0), (half, 1.0)]),
        PowerPoly([(0, 1.0), (half, -h4)]),
    ).times_u()
    assert result.partner.partner.F.max_coeff_diff(expected) < 1e-12


def test_fisher1_partner_exact_coefficients(pipeline):
    result = pipeline("fisher(1)")
    expected = PowerPoly([(1, 1.0), (Fraction(3, 2), -1.25), (2, -2.25)])
    assert result.partner.partner.F.max_coeff_diff(expected) < 1e-12


def test_mt6_partner_exact_coefficients(pipeline):
    result = pipeline("mt6")
    expected = PowerPoly([(1, 1.0), (4, -15.0), (7, -16.0)])
    assert result.partner.partner.F.max_coeff_diff(expected) < 1e-12


@pytest.mark.parametrize("preset,A,n", [("dto(2/9,4)", 2.0 / 9.0, 4),
                                        ("dto(3/16,6)", 3.0 / 16.0, 6)])
def test_dto_partner_form(preset, A, n, pipeline):
    # F~/u = (sqrt A + u^{n/2-1})(sqrt A - (n^2/4) u^{n/2-1})
    result = pipeline(preset)
    root = math.sqrt(A)
    m = n // 2 - 1
    expected = mul(
        PowerPoly([(0, root), (m, 1.0)]),
        PowerPoly([(0, root), (m, -(n * n) / 4.0)]),
    ).times_u()
    assert result.partner.partner.F.max_coeff_diff(expected) < 1e-12


def test_fhn_branch1_partner_form(pipeline):
    # F~ = u(4u - 1)(a - u) for a = 3
    result = pipeline("fhn(3,1)")
    expected = mul(
        PowerPoly([(0, -1.0), (1, 4.0)]),
        PowerPoly([(0, 3.0), (1, -1.0)]),
    ).times_u()
    assert result.partner.partner.F.max_coeff_diff(expected) < 1e-12


def test_fhn_branch2_partner_derived_form(pipeline):
    # direct operator expansion gives F~ = u(u - 1)(a - 4u), not the
    # cubic variant; the residual tests in test_verify decide between them
    result = pipeline("fhn(3,2)")
    expected = mul(
        PowerPoly([(0, -1.0), (1, 1.0)]),
        PowerPoly([(0, 3.0), (1, -4.0)]),
    ).times_u()
    assert result.partner.partner.F.max_coeff_diff(expected) < 1e-12


# -- structural invariants -----------------------------------------------------------

@pytest.mark.parametrize("preset", ["fisher(1)", "fisher(2)", "mt6",
                                    "dto(2/9,4)", "dto(3/16,6)",
                                    "fhn(3,1)", "fhn(3,2)", "newell_whitehead"])
def test_gamma_is_preserved(preset, pipeline):
    result = pipeline(preset)
    assert result.partner.partner.gamma == result.pair.gamma


@pytest.mark.parametrize("preset", ["fisher(1)", "fisher(2)", "mt6",
                                    "dto(2/9,4)", "fhn(3,1)", "fhn(3,2)"])
def test_operator_expansion_consistency(preset, pipeline):
    result = pipeline(preset)
    alt = operator_expansion_partner(result.pair)
    assert result.partner.partner.F.max_coeff_diff(alt) < 1e-12


def test_compatible_phi_is_outer_factor(pipeline):
    result = pipeline("fisher(1)")
    assert result.partner.compatible_phi.struct_eq(result.pair.phi2)


@pytest.mark.parametrize("record,derived", [(KinkProfile, "note"),
                                            (FactorizationPair, "branch"),
                                            (PartnerResult, "compatible_phi")])
def test_derived_quantities_are_read_only_properties(record, derived):
    assert derived not in {f.name for f in dataclasses.fields(record)}
    prop = getattr(record, derived)
    assert isinstance(prop, property) and prop.fset is None


# The linearization of y = u^m at y = 0 gives each kink q*|r| = |phi(0)| for its
# flow u' = phi*u, and phi1(0)*phi2(0) = F'(0), so the product of the two is
# |F'(0)|; fhn(3,.) has F'(0) = -3.  It holds of the parameters, so also of
# the partner of dto(3/16,6), which is not real-valued.
RATE_PRODUCT_PRESETS = [*STANDARD_PRESETS, "fisher(6)", "dto(1/5,8)",
                        *(f"fhn({a},{b})" for a in ("1/2", "-1/2", "1/3") for b in (1, 2))]


@pytest.mark.parametrize("gamma_sign", ["positive", "negative"])
@pytest.mark.parametrize("preset", RATE_PRODUCT_PRESETS)
def test_kink_rate_product_is_linear_coefficient(preset, gamma_sign, pipeline):
    result = pipeline(preset, gamma_sign)
    kink, partner = result.kink, result.partner.kink()
    product = kink.inv_exponent * abs(kink.rate) * partner.inv_exponent * abs(partner.rate)
    assert product == pytest.approx(abs(result.ode.F.coefficient(1)), rel=1e-12)


# -- partner kinks ---------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["fisher(1)", "fisher(2)", "mt6",
                                    "dto(2/9,4)", "fhn(3,1)", "fhn(3,2)",
                                    "newell_whitehead"])
def test_partner_kink_solves_partner_ode(preset, pipeline):
    result = pipeline(preset)
    assert result.partner_kink is not None
    report = residual_max(result.partner.partner, result.partner_kink,
                          default_grid(result.partner_kink))
    assert report.max_abs_residual < 1e-9


def test_even_root_partner_kink_is_flagged_non_real(pipeline):
    # dto n = 6 reverses onto a flow whose core is negative with an even
    # outer root; no real exact kink exists for that partner
    result = pipeline("dto(3/16,6)")
    assert result.partner_kink is None
    candidate = result.partner.kink()
    assert candidate.core_sign == -1
    assert not candidate.is_real_valued


def test_original_kink_fails_partner_ode(pipeline):
    # negative control: the source kink is not a solution of the partner
    result = pipeline("fisher(1)")
    report = residual_max(result.partner.partner, result.kink,
                          default_grid(result.kink))
    assert report.max_abs_residual > 0.01


# -- second reversal obstruction ----------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_second_reversal_obstructed_for_positive_orders(n):
    report = second_reversal_check(n)
    assert report.status == "obstructed"
    assert report.condition_defect != 0
    assert report.gamma_mismatch is not None and report.gamma_mismatch > 0


def test_second_reversal_exceptional_orders():
    zero = second_reversal_check(0)
    assert zero.status == "solvable" and zero.linear and not zero.milne_pinney
    special = second_reversal_check(-4)
    assert special.status == "solvable" and special.milne_pinney
    assert special.condition_defect == 0


def test_second_reversal_defect_is_exact():
    report = second_reversal_check(6)
    # (h^2 - 1)^2 (h^2 + 1) with h^2 = 4
    assert report.condition_defect == Fraction(45)
    assert report.scale_tilde == pytest.approx(8.0)
