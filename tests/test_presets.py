import json
import math
import sys

import pytest
from hypothesis import example, given, strategies as st

import kinkfactor
from kinkfactor.errors import DomainError, UnsupportedFamilyError
from kinkfactor.powerpoly import PowerPoly
from kinkfactor.presets import (
    STANDARD_PRESETS,
    Preset,
    parse_preset,
    report_dict,
    run_pipeline,
)
from kinkfactor.susy import PartnerResult


def test_all_exports_resolve():
    for name in kinkfactor.__all__:
        assert getattr(kinkfactor, name) is not None


@pytest.mark.parametrize("text,expected_id", [
    ("fisher(1)", "fisher(1)"),
    ("fisher(6)", "fisher(6)"),
    ("fisher(1000000)", "fisher(1000000)"),
    ("mt6", "mt6"),
    ("dto(2/9,4)", "dto(2/9,4)"),
    ("dto(0.1875, 6)", "dto(3/16,6)"),
    # a number no fraction with denominator up to 10^6 matches: its shortest decimal
    ("dto(0.1234567891,4)", "dto(0.1234567891,4)"),
    # an exponent keeps no + and no leading 0, and beats a long integer or fraction
    ("dto(1e29,4)", "dto(1e29,4)"),
    ("dto(1e-6,4)", "dto(1e-6,4)"),
    ("fhn(3,1)", "fhn(3,1)"),
    ("newell_whitehead", "newell_whitehead"),
    ("nw", "newell_whitehead"),
])
def test_parse_preset_ids(text, expected_id):
    assert parse_preset(text).id == expected_id


@pytest.mark.parametrize("text", ["dto(1e-20,4)", "dto(3e-16,4)", "fhn(1e-16,1)"])
def test_tiny_parameters_are_not_shown_as_0(text):
    # a value no fraction with denominator up to 10^6 equals exactly is shown
    # as its shortest decimal, however near 0 it lies
    preset = parse_preset(text)
    assert preset.id == text
    assert parse_preset(preset.id) == preset


finite = st.floats(allow_nan=False, allow_infinity=False)
drawn_presets = st.one_of(
    st.builds(Preset, st.just("dto"), A=finite.filter(lambda A: A > 0),
              n=st.integers(min_value=2, max_value=50).map(lambda k: 2 * k)),
    st.builds(Preset, st.just("fhn"), a=finite, fhn_branch=st.sampled_from([1, 2])),
)


@given(drawn_presets, drawn_presets)
# two values whose 6 significant digits agree
@example(Preset(kind="dto", A=0.1234567, n=4), Preset(kind="dto", A=0.1234568, n=4))
# 6 significant digits named another preset
@example(Preset(kind="fhn", a=0.30000001, fhn_branch=1), Preset(kind="fhn", a=0.3, fhn_branch=1))
# the exact integer of 1e29, 29 digits long
@example(Preset(kind="dto", A=1e29, n=4), Preset(kind="dto", A=1e-29, n=4))
# a decimal point and a fraction bar read alike in a slug
@example(Preset(kind="dto", A=3.7, n=4), Preset(kind="dto", A=3 / 7, n=4))
def test_preset_ids_round_trip_and_slugs_differ(first, second):
    assert parse_preset(first.id) == first
    assert (first.slug == second.slug) == (first == second)


def test_standard_slugs():
    assert [parse_preset(p).slug for p in STANDARD_PRESETS] == [
        "fisher_1", "fisher_2", "mt6", "dto_2_9_4", "dto_3_16_6",
        "fhn_3_1", "fhn_3_2", "newell_whitehead",
    ]


def test_signed_presets_have_distinct_slugs():
    # figures --out writes <slug>_kinks.csv, so the sign must reach the file name
    for a in ("2/5", "3", "1e-13", "1e17"):
        assert parse_preset(f"fhn(-{a},1)").slug != parse_preset(f"fhn({a},1)").slug
    assert parse_preset("fhn(-2/5,1)").slug == "fhn_-2_5_1"


@pytest.mark.parametrize("bad", [
    "fisher(0)", "fisher(-3)", "dto(0,4)", "dto(2/9,5)", "dto(2/9,2)",
    "fhn(3,3)", "zeta(9)", "fisher", "fhn(3)", "fisher(1",
    # unreadable numbers and arguments a kind does not take
    "fisher(1.5)", "dto(abc,4)", "dto(1/0,4)", "mt6(3)", "nw(1)",
    "dto(inf,4)", "fhn(nan,1)", "fhn(3,1,2)",
    # orders above MAX_ORDER
    "fisher(1000001)", "dto(2/9,1000002)",
    # fractions beyond the float range
    pytest.param(f"dto(1{'0' * 400}/1,4)", id="dto(1e400/1,4)"),
    pytest.param(f"fhn(1{'0' * 400}/3,1)", id="fhn(1e400/3,1)"),
])
def test_parse_preset_rejects(bad):
    with pytest.raises(DomainError):
        parse_preset(bad)


def test_mt6_matches_fisher6():
    assert parse_preset("mt6").F_over_u().struct_eq(
        parse_preset("fisher(6)").F_over_u())


def test_newell_whitehead_matches_fisher2(pipeline):
    nw = pipeline("newell_whitehead")
    f2 = pipeline("fisher(2)")
    assert nw.pair.gamma == f2.pair.gamma
    assert nw.ode.F.struct_eq(f2.ode.F)
    # and it is the a = -1 quadratic: (u-1)(-1-u) = 1 - u^2
    quad = PowerPoly([(0, 1.0), (2, -1.0)])
    assert nw.preset.F_over_u().struct_eq(quad)


def test_fhn_branches_differ(pipeline):
    b1 = pipeline("fhn(3,1)")
    b2 = pipeline("fhn(3,2)")
    assert b1.pair.gamma == pytest.approx(5.0 / math.sqrt(2.0))
    assert b2.pair.gamma == pytest.approx(1.0 / math.sqrt(2.0))
    assert not b1.partner.partner.F.struct_eq(b2.partner.partner.F)


def test_run_pipeline_rejects_bad_gamma_sign():
    with pytest.raises(DomainError):
        run_pipeline(parse_preset("mt6"), gamma_sign="sideways")


def test_pipeline_respects_xi0():
    result = run_pipeline(parse_preset("mt6"), xi0=1.25)
    assert result.kink.shift == 1.25
    assert result.kink.value(1.25) == pytest.approx(2.0 ** (-1.0 / 3.0))
    assert result.original_residual.max_abs_residual < 1e-10


@pytest.mark.parametrize("preset_id", STANDARD_PRESETS)
def test_report_dict_is_json_serializable(preset_id, pipeline):
    payload = report_dict(pipeline(preset_id))
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["preset"] == preset_id
    assert back["passes"] is True
    assert back["residuals"]["original"]["max_abs_residual"] < 1e-9


def test_preset_direct_construction_validates():
    with pytest.raises(DomainError):
        Preset(kind="fisher")
    with pytest.raises(DomainError):
        Preset(kind="dto", A=1.0, n=3)
    with pytest.raises(DomainError):
        Preset(kind="made_up")
    with pytest.raises(DomainError):
        Preset(kind="mt6", n=3)
    with pytest.raises(DomainError):
        Preset(kind="fisher", n=1.5)
    with pytest.raises(DomainError):
        Preset(kind="dto", A=math.nan, n=4)
    # an int beyond the float range, which would overflow in .id and F_over_u
    with pytest.raises(DomainError):
        Preset(kind="dto", A=10**400, n=4)
    with pytest.raises(DomainError):
        Preset(kind="fhn", a=-(10**309), fhn_branch=1)
    largest = Preset(kind="dto", A=int(sys.float_info.max), n=4)
    assert largest.F_over_u().constant_term() == sys.float_info.max
    assert Preset(kind="dto", A=0.1875, n=6).id == "dto(3/16,6)"
    assert Preset(kind="fhn", a=-0.4, fhn_branch=1).id == "fhn(-2/5,1)"


def test_preset_rejects_bool_fields():
    # a bool is an int to Python, but never a preset parameter
    with pytest.raises(DomainError):
        Preset(kind="fisher", n=True)
    with pytest.raises(DomainError):
        Preset(kind="dto", A=True, n=4)


def test_pipeline_takes_a_partner_refusal_as_no_kink_only_at_a_root_at_0(monkeypatch):
    def refuse(self, xi0=0.0):
        raise UnsupportedFamilyError("flow nonlinearity must have shape beta*(lam - u^m)")

    monkeypatch.setattr(PartnerResult, "kink", refuse)
    # F/u = -3 + 4u - u^2 has no root at 0, so a refused partner flow is a fault
    with pytest.raises(UnsupportedFamilyError, match="^flow nonlinearity"):
        run_pipeline(parse_preset("fhn(3,2)"))
    result = run_pipeline(parse_preset("fhn(0,2)"))
    assert result.partner_profile is None and result.partner_kink is None
    assert result.partner_residual is None and result.passes()
