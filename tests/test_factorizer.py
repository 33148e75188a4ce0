import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kinkfactor.errors import (
    DomainError,
    InconsistentFactorizationError,
    InfeasibleFactorizationError,
    UnsupportedFamilyError,
)
from kinkfactor.factorizer import (
    FactorAnsatz,
    FactorizationPair,
    Family,
    OdeSpec,
    berkovich_convert,
    expand_grouping,
    friction_poly,
    rescale_frame,
    solve_scale_condition,
    split_nonlinearity,
)
from kinkfactor.powerpoly import PowerPoly, mul

SQ6 = math.sqrt(6.0)


def fisher_F_over_u(n):
    return PowerPoly([(0, 1.0), (n, -1.0)])


# -- split_nonlinearity -----------------------------------------------------------

def test_split_difference_n6():
    ansatz = split_nonlinearity(fisher_F_over_u(6), Family.DIFFERENCE)
    assert len(ansatz) == 2
    assert ansatz[0].P.struct_eq(PowerPoly([(0, 1.0), (3, -1.0)]))
    assert ansatz[0].Q.struct_eq(PowerPoly([(0, 1.0), (3, 1.0)]))
    # swapped assignment: the scale moves to the other factor
    assert ansatz[1].P.struct_eq(ansatz[0].Q)
    assert ansatz[1].Q.struct_eq(ansatz[0].P)
    for a in ansatz:
        assert mul(a.P, a.Q).struct_eq(fisher_F_over_u(6))


def test_split_difference_odd_n_has_half_exponents():
    ansatz = split_nonlinearity(fisher_F_over_u(1), Family.DIFFERENCE)
    assert ansatz[0].P.exponents() == (Fraction(0), Fraction(1, 2))


def test_split_dto():
    F_over_u = PowerPoly([(0, 2.0 / 9.0), (2, -1.0)])
    ansatz = split_nonlinearity(F_over_u, Family.DTO)
    root = math.sqrt(2.0 / 9.0)
    assert ansatz[0].P.struct_eq(PowerPoly([(0, root), (1, -1.0)]))
    assert ansatz[0].Q.struct_eq(PowerPoly([(0, root), (1, 1.0)]))
    assert mul(ansatz[0].P, ansatz[0].Q).struct_eq(F_over_u)


def test_split_quadratic_orderings():
    # (u - 1)(3 - u) = -3 + 4u - u^2
    F_over_u = PowerPoly([(0, -3.0), (1, 4.0), (2, -1.0)])
    ansatz = split_nonlinearity(F_over_u, Family.QUADRATIC)
    assert ansatz[0].P.struct_eq(PowerPoly([(0, -1.0), (1, 1.0)]))      # u - 1
    assert ansatz[0].Q.struct_eq(PowerPoly([(0, 3.0), (1, -1.0)]))      # 3 - u
    assert ansatz[1].P.struct_eq(ansatz[0].Q)
    assert ansatz[1].Q.struct_eq(ansatz[0].P)
    for a in ansatz:
        assert mul(a.P, a.Q).struct_eq(F_over_u)


def test_split_unsupported_shapes():
    with pytest.raises(UnsupportedFamilyError):
        split_nonlinearity(PowerPoly([(0, 1.0), (1, 1.0), (3, 1.0)]),
                           Family.DIFFERENCE)
    with pytest.raises(UnsupportedFamilyError):
        split_nonlinearity(PowerPoly([(0, -1.0), (2, -1.0)]), Family.DTO)
    with pytest.raises(UnsupportedFamilyError):
        # complex roots
        split_nonlinearity(PowerPoly([(0, 1.0), (1, 0.0), (2, 1.0)]),
                           Family.QUADRATIC)


# -- solve_scale_condition --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_fisher_scale_and_velocity(n):
    h = math.sqrt(n / 2.0 + 1.0)
    ansatz = split_nonlinearity(fisher_F_over_u(n), Family.DIFFERENCE)[0]
    pairs = solve_scale_condition(ansatz)
    assert len(pairs) == 2
    assert [p.scale_a for p in pairs] == sorted(p.scale_a for p in pairs)
    scales = sorted(abs(p.scale_a) for p in pairs)
    assert scales[0] == pytest.approx(1.0 / h, abs=1e-14)
    gammas = sorted(p.gamma for p in pairs)
    assert gammas[1] == pytest.approx(h + 1.0 / h, abs=1e-13)
    assert gammas[0] == pytest.approx(-(h + 1.0 / h), abs=1e-13)


def test_fisher6_velocity_is_five_halves():
    ansatz = split_nonlinearity(fisher_F_over_u(6), Family.DIFFERENCE)[0]
    gammas = sorted(p.gamma for p in solve_scale_condition(ansatz))
    assert gammas[1] == pytest.approx(2.5, abs=1e-14)


def test_fhn_velocity_branches():
    a = 3.0
    F_over_u = PowerPoly([(0, -a), (1, 1.0 + a), (2, -1.0)])
    first, second = split_nonlinearity(F_over_u, Family.QUADRATIC)
    g1 = sorted(p.gamma for p in solve_scale_condition(first))
    assert g1[1] == pytest.approx((2 * a - 1) / math.sqrt(2.0), abs=1e-13)
    assert g1[0] == pytest.approx(-(2 * a - 1) / math.sqrt(2.0), abs=1e-13)
    g2 = sorted(p.gamma for p in solve_scale_condition(second))
    assert g2[1] == pytest.approx((a - 2) / math.sqrt(2.0), abs=1e-13)


def test_dto_velocity_is_unity():
    F_over_u = PowerPoly([(0, 2.0 / 9.0), (2, -1.0)])
    ansatz = split_nonlinearity(F_over_u, Family.DTO)[0]
    gammas = sorted(p.gamma for p in solve_scale_condition(ansatz))
    assert gammas[1] == pytest.approx(1.0, abs=1e-14)


def test_infeasible_ansatz_raises():
    # product (1 + u^3)(u^3 - 1) = u^6 - 1; the scale condition needs a^2 < 0
    ansatz = FactorAnsatz(PowerPoly([(0, 1.0), (3, 1.0)]),
                          PowerPoly([(0, -1.0), (3, 1.0)]))
    with pytest.raises(InfeasibleFactorizationError):
        solve_scale_condition(ansatz)


def test_constant_templates_are_underdetermined():
    ansatz = FactorAnsatz(PowerPoly([(0, 2.0)]), PowerPoly([(0, 0.5)]))
    with pytest.raises(InfeasibleFactorizationError):
        solve_scale_condition(ansatz)


def test_friction_polynomial_is_constant_for_valid_pairs():
    ansatz = split_nonlinearity(fisher_F_over_u(6), Family.DIFFERENCE)[0]
    for pair in solve_scale_condition(ansatz):
        fric = friction_poly(pair.phi1, pair.phi2)
        for u in [0.1 + 0.2 * i for i in range(10)]:
            assert fric.evaluate(u) + pair.gamma == pytest.approx(0.0, abs=1e-10)


# -- expand_grouping ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 6])
def test_expand_round_trips_fisher(n):
    F_over_u = fisher_F_over_u(n)
    for ansatz in split_nonlinearity(F_over_u, Family.DIFFERENCE):
        for pair in solve_scale_condition(ansatz):
            ode = expand_grouping(pair)
            assert ode.F.max_coeff_diff(F_over_u.times_u()) < 1e-12
            assert ode.gamma == pair.gamma


def test_expand_fisher1_example():
    ansatz = split_nonlinearity(fisher_F_over_u(1), Family.DIFFERENCE)[0]
    pair = max(solve_scale_condition(ansatz), key=lambda p: p.gamma)
    ode = expand_grouping(pair)
    assert ode.gamma == pytest.approx(5.0 * SQ6 / 6.0, abs=1e-13)
    assert ode.F.struct_eq(PowerPoly([(1, 1.0), (2, -1.0)]))


def test_expand_dto_example():
    F_over_u = PowerPoly([(0, 2.0 / 9.0), (2, -1.0)])
    ansatz = split_nonlinearity(F_over_u, Family.DTO)[0]
    pair = max(solve_scale_condition(ansatz), key=lambda p: p.gamma)
    ode = expand_grouping(pair)
    assert ode.gamma == pytest.approx(1.0, abs=1e-14)
    assert ode.F.struct_eq(PowerPoly([(1, 2.0 / 9.0), (3, -1.0)]))


def test_expand_zero_phi2_gives_linear_ode():
    pair = FactorizationPair(
        phi1=PowerPoly([(0, -2.0)]), phi2=PowerPoly(),
        scale_a=1.0, gamma=2.0, branch="upper",
    )
    ode = expand_grouping(pair)
    assert ode.F.is_zero()


def test_expand_rejects_inconsistent_pair():
    bad = FactorizationPair(
        phi1=PowerPoly([(0, 1.0), (1, 1.0)]), phi2=PowerPoly([(0, 1.0)]),
        scale_a=1.0, gamma=-2.0, branch="lower",
    )
    with pytest.raises(InconsistentFactorizationError):
        expand_grouping(bad)


def test_swapped_assignment_gives_same_equation():
    F_over_u = fisher_F_over_u(6)
    first, swapped = split_nonlinearity(F_over_u, Family.DIFFERENCE)
    for p0 in solve_scale_condition(first):
        match = [p1 for p1 in solve_scale_condition(swapped)
                 if abs(p1.gamma - p0.gamma) < 1e-12]
        assert len(match) == 1
        assert expand_grouping(match[0]).F.struct_eq(expand_grouping(p0).F)
        assert not match[0].phi1.struct_eq(p0.phi1)


def test_gamma_branches_are_exact_negatives():
    for family, poly in [
        (Family.DIFFERENCE, fisher_F_over_u(6)),
        (Family.DTO, PowerPoly([(0, 2.0 / 9.0), (2, -1.0)])),
        (Family.QUADRATIC, PowerPoly([(0, -3.0), (1, 4.0), (2, -1.0)])),
    ]:
        for ansatz in split_nonlinearity(poly, family):
            low, high = solve_scale_condition(ansatz)
            assert low.gamma == pytest.approx(-high.gamma, abs=1e-14)


# -- randomized family sweeps --------------------------------------------------------

@given(st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.2, max_value=5.0,
                 allow_nan=False, allow_infinity=False))
def test_difference_family_round_trip(n, c):
    F_over_u = PowerPoly([(0, c), (n, -c)])
    for ansatz in split_nonlinearity(F_over_u, Family.DIFFERENCE):
        for pair in solve_scale_condition(ansatz):
            ode = expand_grouping(pair)
            assert ode.F.max_coeff_diff(F_over_u.times_u()) < 1e-12 * max(1.0, c)


@given(st.sampled_from([4, 6, 8, 10]),
       st.floats(min_value=0.05, max_value=4.0,
                 allow_nan=False, allow_infinity=False))
def test_dto_family_round_trip(n, A):
    F_over_u = PowerPoly([(0, A), (n - 2, -1.0)])
    for ansatz in split_nonlinearity(F_over_u, Family.DTO):
        pair = max(solve_scale_condition(ansatz), key=lambda p: p.gamma)
        g = math.sqrt(n / 2.0)
        assert pair.gamma == pytest.approx(math.sqrt(A) * (g + 1.0 / g), rel=1e-12)
        assert expand_grouping(pair).F.max_coeff_diff(F_over_u.times_u()) < 1e-11


@given(st.floats(min_value=-4.0, max_value=4.0,
                 allow_nan=False, allow_infinity=False))
def test_quadratic_family_round_trip(a):
    F_over_u = PowerPoly([(0, -a), (1, 1.0 + a), (2, -1.0)])
    for ansatz in split_nonlinearity(F_over_u, Family.QUADRATIC):
        for pair in solve_scale_condition(ansatz):
            ode = expand_grouping(pair)
            scale = max(1.0, abs(a))
            assert ode.F.max_coeff_diff(F_over_u.times_u()) < 1e-12 * scale


# -- berkovich_convert --------------------------------------------------------------

def test_berkovich_sum_condition():
    ansatz = split_nonlinearity(fisher_F_over_u(2), Family.DIFFERENCE)[0]
    for pair in solve_scale_condition(ansatz):
        f1b, f2b = berkovich_convert(pair)
        total = f1b + f2b
        assert total.exponents() in ((), (0,))
        assert total.constant_term() == pytest.approx(-pair.gamma, abs=1e-12)


def test_berkovich_constant_phi1_is_identity():
    pair = FactorizationPair(
        phi1=PowerPoly([(0, -2.0)]), phi2=PowerPoly([(0, 1.0), (1, 1.0)]),
        scale_a=1.0, gamma=1.0, branch="upper",
    )
    f1b, f2b = berkovich_convert(pair)
    assert f2b.struct_eq(pair.phi2)


def test_berkovich_round_trip():
    ansatz = split_nonlinearity(fisher_F_over_u(6), Family.DIFFERENCE)[0]
    for pair in solve_scale_condition(ansatz):
        f1b, f2b = berkovich_convert(pair)
        assert (f2b - f1b.u_deriv()).struct_eq(pair.phi2)


# -- rescale_frame --------------------------------------------------------------------

def test_rescale_identity():
    ode = OdeSpec(2.5, PowerPoly([(1, 1.0), (7, -1.0)]))
    same = rescale_frame(ode, 1.0)
    assert same.gamma == ode.gamma and same.F.struct_eq(ode.F)


def test_rescale_fisher1_by_two():
    ode = OdeSpec(5.0 * SQ6 / 6.0, PowerPoly([(1, 1.0), (2, -1.0)]))
    scaled = rescale_frame(ode, 2.0)
    assert scaled.gamma == pytest.approx(5.0 * SQ6 / 12.0, abs=1e-14)
    assert scaled.F.struct_eq(PowerPoly([(1, 0.25), (2, -0.25)]))


def test_rescale_group_property():
    ode = OdeSpec(1.0, PowerPoly([(1, 2.0 / 9.0), (3, -1.0)]))
    back = rescale_frame(rescale_frame(ode, 3.0), 1.0 / 3.0)
    assert back.gamma == pytest.approx(ode.gamma, rel=1e-15)
    assert back.F.struct_eq(ode.F)


def test_rescale_rejects_nonpositive_k():
    ode = OdeSpec(1.0, PowerPoly([(1, 1.0)]))
    with pytest.raises(DomainError):
        rescale_frame(ode, 0.0)
    with pytest.raises(DomainError):
        rescale_frame(ode, -2.0)
