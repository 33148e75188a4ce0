import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

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
    rescale_frame,
    solve_scale_condition,
    split_nonlinearity,
)
from kinkfactor.powerpoly import PowerPoly, mul
from kinkfactor.presets import STANDARD_PRESETS, parse_preset

SQ6 = math.sqrt(6.0)
EPS = 2.0 ** -52


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
    # (u - 1)(3 - u) = -3 + 4u - u^2: c2*(u - r_hi) = 3 - u comes first as P
    F_over_u = PowerPoly([(0, -3.0), (1, 4.0), (2, -1.0)])
    ansatz = split_nonlinearity(F_over_u, Family.QUADRATIC)
    assert ansatz[0].P.struct_eq(PowerPoly([(0, 3.0), (1, -1.0)]))      # 3 - u
    assert ansatz[0].Q.struct_eq(PowerPoly([(0, -1.0), (1, 1.0)]))      # u - 1
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


def test_family_is_only_a_check_on_the_shape():
    # every shape splits without a family; a family that admits it changes nothing
    D, O, Q = Family.DIFFERENCE, Family.DTO, Family.QUADRATIC
    for poly, admitted in [
        (PowerPoly([(0, 2.0), (3, -2.0)]), {D, O}),
        (PowerPoly([(0, 2.0 / 9.0), (2, -1.0)]), {O, Q}),
        (PowerPoly([(0, -3.0), (1, 4.0), (2, -1.0)]), {Q}),
    ]:
        for family in Family:
            if family in admitted:
                assert split_nonlinearity(poly, family) == split_nonlinearity(poly)
            else:
                with pytest.raises(UnsupportedFamilyError, match="family requires"):
                    split_nonlinearity(poly, family)
    # a shape no family admits: (1 - v)(v - 0.3) with v = u^2
    poly = PowerPoly([(0, -0.3), (2, 1.3), (4, -1.0)])
    at_hi, at_lo = (a.P for a in split_nonlinearity(poly))
    assert at_hi.struct_eq(PowerPoly([(0, 1.0), (2, -1.0)]))
    assert at_lo.struct_eq(PowerPoly([(0, -0.3), (2, 1.0)]))


@pytest.mark.parametrize("poly", [
    PowerPoly([(0, 1.0)]), PowerPoly(),
    PowerPoly([(0, 1.0), (1, 1.0), (3, -1.0)]),     # u^1 is not at 0, 3/2 or 3
])
def test_split_needs_exponents_0_h_and_2h(poly):
    with pytest.raises(UnsupportedFamilyError, match="shape with h > 0"):
        split_nonlinearity(poly)


# The splitters the root-based one replaced, written out: sqrt(A) -/+ sqrt(B)*v
# for c0 + c_p*u^p, and (u - r1), c2*(u - r2) with r1 <= r2 for a quadratic in u,
# whose root of smaller magnitude is now c0/(c2*r) from the other root r.

def binomial_reference(F_over_u):
    c0, p, cp = F_over_u.binomial()
    minus = PowerPoly([(0, math.sqrt(c0)), (p / 2, -math.sqrt(-cp))])
    plus = PowerPoly([(0, math.sqrt(c0)), (p / 2, math.sqrt(-cp))])
    return [(minus, plus), (plus, minus)]


def quadratic_reference(F_over_u):
    c0, c1, c2 = (F_over_u.coefficient(e) for e in (0, 1, 2))
    sq = math.sqrt(c1 * c1 - 4.0 * c2 * c0)
    big = max((-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2), key=abs)
    r1, r2 = sorted((big, c0 / (c2 * big)))
    first = PowerPoly([(0, -r1), (1, 1.0)])
    second = PowerPoly([(0, -r2 * c2), (1, c2)])
    return [(first, second), (second, first)]


def bits(poly):
    return [(e, c.hex()) for e, c in poly.terms]


# the standard presets and every id perfbench's draw_presets can produce
REFERENCE_PRESETS = {
    "standard": list(STANDARD_PRESETS),
    "fisher": [f"fisher({n})" for n in range(1, 13)],
    "dto": sorted({f"dto({Fraction(p, q)},{n})" for p in range(1, 10)
                   for q in range(1, 10) for n in (4, 6, 8, 10)}),
    "fhn": sorted({f"fhn({Fraction(p, q)},{b})" for p in range(1, 7)
                   for q in range(1, 7) if p != q for b in (1, 2)}),
}


@pytest.mark.parametrize("group", REFERENCE_PRESETS)
def test_split_is_bitwise_the_family_splitters(group):
    for preset_id in REFERENCE_PRESETS[group]:
        preset = parse_preset(preset_id)
        F_over_u = preset.F_over_u()
        splits = split_nonlinearity(F_over_u, preset.family())
        assert splits == split_nonlinearity(F_over_u)
        got = [(bits(a.P), bits(a.Q)) for a in splits]
        if preset.kind == "fhn":
            # the quadratic splitter put (u - r1) inner first, so the orderings
            # are swapped, and branch 2 took its second one
            old = quadratic_reference(F_over_u)
            expected, old_index = old[::-1], (1 if preset.fhn_branch == 2 else 0)
        else:
            old = expected = binomial_reference(F_over_u)
            old_index = 0
        assert got == [(bits(P), bits(Q)) for P, Q in expected], preset_id
        assert got[preset.ansatz_index()] == tuple(map(bits, old[old_index])), preset_id


HALF_EXPONENTS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]

# The draws below leave out double roots, which have a property of their own.


def assert_split_round_trips(F_over_u, tol):
    for ansatz in split_nonlinearity(F_over_u):
        assert mul(ansatz.P, ansatz.Q).max_coeff_diff(F_over_u) < tol
        for pair in solve_scale_condition(ansatz):
            ode = expand_grouping(pair)
            assert ode.gamma == pair.gamma
            assert ode.F.max_coeff_diff(F_over_u.times_u()) < tol


@given(st.sampled_from(HALF_EXPONENTS),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.01, max_value=3.0),
       st.floats(min_value=-3.0, max_value=-0.1))
# a root near 0 keeps its template's constant
@example(Fraction(1), 1e-13, 1.0, -1.0)
def test_split_round_trips_every_shape(h, r_lo, gap, c2):
    # c2*(v - r_lo)*(v - r_hi) with v = u^h
    r_hi = r_lo + gap
    F_over_u = PowerPoly([(0, c2 * r_lo * r_hi), (h, -c2 * (r_lo + r_hi)), (2 * h, c2)])
    scale = max(1.0, max(abs(c) for _, c in F_over_u.terms))
    assert_split_round_trips(F_over_u, 1e-12 * scale)


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=-0.1))
# c1^2 - 4*c2*c0 rounds to -1.4e-17 here
@example(1.5736804947476521, -0.10610755471822102)
# c0 = c2*r^2 is subnormal, and the discriminant rounds to -2 subnormal spacings
@example(3.06e-161, -1.0)
def test_split_takes_an_exact_double_root(r, c2):
    # c2*(u - r)^2, whose discriminant rounds to either side of 0
    F_over_u = PowerPoly([(0, c2 * r * r), (1, -2.0 * c2 * r), (2, c2)])
    splits = split_nonlinearity(F_over_u)
    if F_over_u.constant_term() == 0 and r != 0:
        # c2*r^2 underflowed to exactly 0, so PowerPoly dropped it: F/u is no
        # longer a square, only accepting it is checked
        return
    at_hi, at_lo = splits[0].P, splits[0].Q     # c2*(u - r_hi) and (u - r_lo)
    assert -at_hi.constant_term() / c2 == pytest.approx(r, rel=1e-12)
    assert -at_lo.constant_term() == pytest.approx(r, rel=1e-12)
    scale = max(1.0, max(abs(c) for _, c in F_over_u.terms))
    assert_split_round_trips(F_over_u, 1e-12 * scale)


@given(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3)]),
       st.floats(min_value=-4.0, max_value=4.0))
@example(Fraction(2), -0.5)
@example(Fraction(2), 0.3)
@example(Fraction(3), 3.0)
# the template constant -a is below STRUCTURAL_TOLERANCE
@example(Fraction(2), 1.558205987399167e-12)
# fhn(1e-17,.), fhn(1e17,.) and fhn(-1e17,.): a root 1e17 times the other,
# which (-c1 -+ sqrt(disc))/(2*c2) cancelled to 0
@example(Fraction(1), 1e-17)
@example(Fraction(1), 1e17)
@example(Fraction(1), -1e17)
def test_split_round_trips_generalized_fhn(m, a):
    # F = u(1 - u^m)(u^m - a): its F/u is -a + (1 + a)u^m - u^(2m)
    assume(abs(a - 1.0) > 1e-6)
    F_over_u = PowerPoly([(0, -a), (m, 1.0 + a), (2 * m, -1.0)])
    assert_split_round_trips(F_over_u, 1e-12 * max(1.0, abs(a)))


@pytest.mark.parametrize("a", [1e-17, 1e17, -1e17, 0.3, -0.4])
def test_split_keeps_the_smaller_root(a):
    # F/u = -(u - 1)(u - a): the roots 1 and a, each exact
    at_hi, at_lo = (s.P for s in split_nonlinearity(
        PowerPoly([(0, -a), (1, 1.0 + a), (2, -1.0)])))
    assert sorted([at_hi.constant_term(), -at_lo.constant_term()]) == sorted([1.0, a])


@pytest.mark.parametrize("F_over_u, roots", [
    (PowerPoly([(0, 1e308), (2, -1.0)]), [-1e154, 1e154]),            # 4*c2*c0 overflows
    (PowerPoly([(0, -1e160), (1, 1e160), (2, -1.0)]), [1.0, 1e160]),  # c1^2 overflows
    (PowerPoly([(0, 1.0), (1, -5e307), (2, 1e308)]), [2e-308, 0.5]),  # and 2*c2 would
    (PowerPoly([(0, 1.7e308), (2, -1.7e308)]), [-1.0, 1.0]),          # and sqrt(disc) would
    # and q = -(c1 + sqrt(disc))/2 would: the roots (-1 -+ sqrt(5))/2 of u^2 + u - 1
    (PowerPoly([(0, -1.7e308), (1, 1.7e308), (2, 1.7e308)]),
     [-1.618033988749895, 0.6180339887498948]),
], ids=["dto", "fhn", "double-c2", "full-sqrt", "large-q"])
def test_split_scales_an_overflowing_discriminant(F_over_u, roots):
    # the two P are c2*(u - r_hi) and u - r_lo
    at_hi, at_lo = (s.P for s in split_nonlinearity(F_over_u))
    assert [-at_lo.constant_term(), -at_hi.constant_term() / at_hi.coefficient(1)] == roots


def test_split_of_an_overflowing_discriminant_has_a_feasible_scale():
    # -1 + 5e307 u - 1e308 u^2 = -1e308 (u - 1/2)(u - 2e-308); with P = u - 2e-308,
    # a^2 = -Q_1/(2*P_1) = 5e307
    ansatz = split_nonlinearity(PowerPoly([(0, -1.0), (1, 5e307), (2, -1e308)]))[1]
    assert [p.scale_a for p in solve_scale_condition(ansatz)] == pytest.approx(
        [-math.sqrt(5e307), math.sqrt(5e307)], rel=1e-15)


@pytest.mark.parametrize("F_over_u, shown", [
    (PowerPoly([(0, 1.0), (2, 1.0)]), "-4"),
    (PowerPoly([(0, 1e200), (1, 1e200), (2, 1e200)]), "-1.28005*2^1330"),
], ids=["finite", "overflowing"])
def test_split_complex_roots_name_the_discriminant(F_over_u, shown):
    # an overflowing discriminant is shown as the scaled one times its power of 2
    with pytest.raises(UnsupportedFamilyError, match=f"^F/u has complex roots in v = u:"
                       f" discriminant = {re.escape(shown)}$"):
        split_nonlinearity(F_over_u)


@pytest.mark.parametrize("scale", [1.0, 1.7e308])
def test_a_split_with_no_real_scale_is_refused_at_any_scale(scale):
    # scale*(-1 + u + u^2): a^2 is -1/(2*scale) or -scale/2 < 0, also where
    # c1^2 overflows
    F_over_u = PowerPoly([(0, -scale), (1, scale), (2, scale)])
    for ansatz in split_nonlinearity(F_over_u):
        with pytest.raises(InfeasibleFactorizationError, match=r"a\^2 = -[0-9.e+-]+ <= 0"):
            solve_scale_condition(ansatz)


def test_split_keeps_a_coefficient_that_is_subnormal_in_that_frame():
    # c1^2 overflows, and c2 = -2^-52 is 0 over the 2^1024 of c0: each root is
    # a quotient of mantissas, so both keep Vieta's sum and product
    c0, c1, c2 = 1.7e308, 2.0 ** 512, -(2.0 ** -52)
    at_hi, at_lo = (s.P for s in split_nonlinearity(PowerPoly([(0, c0), (1, c1), (2, c2)])))
    r_lo, r_hi = -at_lo.constant_term(), -at_hi.constant_term() / at_hi.coefficient(1)
    assert Fraction(r_lo) * Fraction(r_hi) == pytest.approx(Fraction(c0) / Fraction(c2),
                                                            rel=4 * EPS)
    assert r_lo + r_hi == pytest.approx(-c1 / c2, rel=4 * EPS)


@pytest.mark.parametrize("preset", ["fhn(3,1)", "dto(2/9,4)"])
@pytest.mark.parametrize("k", [-500, -100, 100, 511, 520, 1000])
def test_split_is_covariant_under_a_power_of_2(preset, k):
    # F/u times 2^k has the same roots: v - r_lo to the bit, and c2*(v - r_hi)
    # times 2^k; at k = 511 (fhn) and 520 and 1000 (both) c1^2 - 4*c2*c0 overflows
    F_over_u = parse_preset(preset).F_over_u()
    (at_hi, at_lo), (scaled_hi, scaled_lo) = (
        (ansatz.P, ansatz.Q) for ansatz in (split_nonlinearity(F_over_u)[0],
                                            split_nonlinearity(F_over_u.scale(2.0 ** k))[0]))
    assert scaled_lo.terms == at_lo.terms
    assert scaled_hi.terms == tuple((e, math.ldexp(c, k)) for e, c in at_hi.terms)


@pytest.mark.parametrize("F_over_u, scales", [
    # P = c2*(u - r_hi): (h+1)*P_h = 2*c2 overflows
    (PowerPoly([(0, 1.7e308), (2, -1.7e308)]),
     [-5.423261445466405e-155, 5.423261445466405e-155,
      -9.219544457292887e+153, 9.219544457292887e+153]),
    (PowerPoly([(0, -1.0), (1, 5e307), (2, -1e308)]),
     [-7.071067811865475e-155, 7.071067811865475e-155,
      -7.071067811865475e+153, 7.071067811865475e+153]),
], ids=["full-sqrt", "double-c2"])
def test_scale_condition_is_solved_on_mantissas(F_over_u, scales):
    # a^2 = -Q_h/((h+1)*P_h) for the split's two orders: 1/(2*c2) and c2/2
    pairs = [pair for ansatz in split_nonlinearity(F_over_u)
             for pair in solve_scale_condition(ansatz)]
    assert [pair.scale_a for pair in pairs] == pytest.approx(scales, rel=4 * EPS)


def test_scale_condition_past_the_float_range_is_inf():
    # c2 = -5e-324: a^2 = -1/(2*c2) is 1e323, which the split's P scales to inf
    with pytest.raises(DomainError, match="^coefficient -?inf of u\\^0 is not finite$"):
        solve_scale_condition(split_nonlinearity(PowerPoly([(0, 1.0), (2, -5e-324)]))[0])


def test_split_refuses_a_root_past_the_float_range():
    # c1^2 overflows, and the root near -c1/c2 = -1e318 lies beyond the largest float
    with pytest.raises(DomainError, match="^coefficient -?inf of u\\^0 is not finite$"):
        split_nonlinearity(PowerPoly([(0, 1.0), (1, 1e308), (2, 1e-10)]))


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
    # the (u - r_lo)-inner ordering is the second one, fhn branch 1
    second, first = split_nonlinearity(F_over_u, Family.QUADRATIC)
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


def test_constant_q_gives_a_zero_scale():
    # Q has no u^h term, so a^2 = 0: the boundary of the a^2 > 0 test, where
    # a = 0 would divide Q by zero
    ansatz = FactorAnsatz(PowerPoly([(0, 1.0), (1, -1.0)]), PowerPoly([(0, 2.0)]))
    with pytest.raises(InfeasibleFactorizationError, match=r"a\^2 = 0 <= 0"):
        solve_scale_condition(ansatz)


@pytest.mark.parametrize("P, Q", [
    # two u-dependent exponents: both give a^2 = 1, but only u^h is matched
    (PowerPoly([(1, 1.0), (2, -1.0)]), PowerPoly([(1, -2.0), (2, 3.0)])),
    # a constant P: u^h only in Q, and no scale can cancel it
    (PowerPoly([(0, 2.0)]), PowerPoly([(0, 1.0), (2, 1.0)])),
])
def test_scale_needs_binomials_sharing_one_exponent(P, Q):
    with pytest.raises(InfeasibleFactorizationError, match="one h > 0"):
        solve_scale_condition(FactorAnsatz(P, Q))


def test_friction_polynomial_is_constant_for_valid_pairs():
    ansatz = split_nonlinearity(fisher_F_over_u(6), Family.DIFFERENCE)[0]
    for pair in solve_scale_condition(ansatz):
        fric = pair.phi1.u_deriv() + pair.phi1 + pair.phi2
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
        scale_a=1.0, gamma=2.0,
    )
    ode = expand_grouping(pair)
    assert ode.F.is_zero()


def test_expand_rejects_inconsistent_pair():
    # the friction 2 + 2u is not constant, so the pair cannot even be built
    with pytest.raises(InconsistentFactorizationError, match=r"gamma leaves 2 u, not 0"):
        FactorizationPair(
            phi1=PowerPoly([(0, 1.0), (1, 1.0)]), phi2=PowerPoly([(0, 1.0)]),
            scale_a=1.0, gamma=-2.0,
        )


@pytest.mark.parametrize("gamma, message", [
    pytest.param(math.nan, r"gamma = nan is not finite", id="nan"),
    pytest.param(1.5, r"gamma leaves -0\.5, not 0", id="1.5"),
])
def test_pair_with_wrong_or_nan_gamma_is_not_built(gamma, message):
    # the friction is the constant -2, so only gamma = 2 is consistent
    with pytest.raises(InconsistentFactorizationError, match=message):
        FactorizationPair(phi1=PowerPoly([(0, -2.0)]), phi2=PowerPoly(),
                          scale_a=1.0, gamma=gamma)


def real_root_coefficients(r_lo, gap, c2):
    """(c0, c1, c2) of c2*(v - r_lo)*(v - r_hi), r_hi = r_lo + gap."""
    return c2 * r_lo * (r_lo + gap), -c2 * (2.0 * r_lo + gap), c2


# c2 < 0, so both splits have both scales a = -root, root: four pairs
@given(st.sampled_from(HALF_EXPONENTS),
       st.builds(real_root_coefficients,
                 st.floats(min_value=-3.0, max_value=3.0),
                 st.floats(min_value=0.01, max_value=3.0),
                 st.floats(min_value=-3.0, max_value=-0.1)),
       st.integers(min_value=-60, max_value=60))
# dto(1e29,4): gamma = 6.7e14 was refused by an absolute 1e-10 at k = 1
@example(Fraction(1), (1e29, 0.0, -1.0), 0)
# fhn(1/2,2): a*P_0 + Q_0/a cancels to gamma = +-1.1e-16, which the friction
# check must judge against the terms that went into it
@example(Fraction(1), (-0.5, 1.5, -1.0), 0)
@example(Fraction(1), (-0.5, 1.5, -1.0), 60)
def test_every_pair_is_built_at_every_power_of_4_scale(h, coefficients, i):
    # k = 4^i scales c0, c1, c2 exactly, leaves the roots in v alone, and so
    # scales each a by 2^-i or 2^i and each gamma by 2^i, all exactly; the
    # drop rule is relative, so each pair is consistent at every k or at none
    assume(all(c == 0 or abs(c) > 1e-80 for c in coefficients))   # no underflow
    F_over_u = PowerPoly(zip((0, h, 2 * h), coefficients))

    def gammas(k):
        return [pair.gamma for ansatz in split_nonlinearity(F_over_u.scale(k))
                for pair in solve_scale_condition(ansatz)]

    at_1 = gammas(1.0)
    assert len(at_1) == 4
    assert gammas(4.0 ** i) == [g * 2.0 ** i for g in at_1]


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
            assert {low.branch, high.branch} == {"lower", "upper"}


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
# the scaled -a u terms of phi1*phi2 are below STRUCTURAL_TOLERANCE
@example(1.3788136975245107e-12)
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
        phi1=PowerPoly([(0, -2.0)]), phi2=PowerPoly([(0, 1.0)]),
        scale_a=1.0, gamma=1.0,
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


@pytest.mark.parametrize("k", [math.nan, math.inf, 1e200, 1e-200])
def test_rescale_rejects_k_whose_square_is_not_positive_and_finite(k):
    # mt6's F; k^2 overflows to inf at 1e200 and underflows to 0 at 1e-200
    ode = OdeSpec(1.0, PowerPoly([(1, 1.0), (7, -1.0)]))
    with pytest.raises(DomainError) as info:
        rescale_frame(ode, k)
    assert str(info.value).endswith(f"got {k}")
