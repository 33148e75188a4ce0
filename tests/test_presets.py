import json
import math

import pytest

import kinkfactor
from kinkfactor.errors import DomainError
from kinkfactor.powerpoly import PowerPoly
from kinkfactor.presets import (
    STANDARD_PRESETS,
    Preset,
    parse_preset,
    report_dict,
    run_pipeline,
)


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
    ("fhn(3,1)", "fhn(3,1)"),
    ("newell_whitehead", "newell_whitehead"),
    ("nw", "newell_whitehead"),
])
def test_parse_preset_ids(text, expected_id):
    assert parse_preset(text).id == expected_id


@pytest.mark.parametrize("bad", [
    "fisher(0)", "fisher(-3)", "dto(0,4)", "dto(2/9,5)", "dto(2/9,2)",
    "fhn(3,3)", "zeta(9)", "fisher", "fhn(3)",
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
    assert Preset(kind="dto", A=0.1875, n=6).id == "dto(3/16,6)"
    assert Preset(kind="fhn", a=-0.4, fhn_branch=1).id == "fhn(-2/5,1)"


def test_preset_rejects_bool_fields():
    # a bool is an int to Python, but never a preset parameter
    with pytest.raises(DomainError):
        Preset(kind="fisher", n=True)
    with pytest.raises(DomainError):
        Preset(kind="dto", A=True, n=4)
