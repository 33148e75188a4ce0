import json
import math
import xml.etree.ElementTree as ET

import pytest

from kinkfactor import cli
from kinkfactor.cli import emit_figures, main
from kinkfactor.presets import parse_preset, run_pipeline


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def crossing(rows):
    """Interpolated (xi, u) where the two curves cross."""
    for (x0, a0, b0), (x1, a1, b1) in zip(rows, rows[1:]):
        d0, d1 = a0 - b0, a1 - b1
        if d0 == 0.0:
            return x0, a0
        if d0 * d1 < 0.0:
            frac = d0 / (d0 - d1)
            return x0 + frac * (x1 - x0), a0 + frac * (a1 - a0)
    raise AssertionError("curves do not cross")


def test_emit_figures_fisher1(tmp_path):
    csv_path, svg_path = emit_figures(parse_preset("fisher(1)"), tmp_path)
    header, rows = read_csv(csv_path)
    assert header == ["xi", "u_original", "u_susy"]
    assert len(rows) == 1001
    xi_c, u_c = crossing(rows)
    assert abs(xi_c) < 1e-9
    assert abs(u_c - 0.25) < 1e-6
    # the partner curve is steeper by the rate ratio 3/2
    tree = ET.parse(svg_path)
    assert tree.getroot().tag.endswith("svg")


def test_emit_figures_mt6(tmp_path):
    csv_path, svg_path = emit_figures(parse_preset("mt6"), tmp_path)
    _, rows = read_csv(csv_path)
    xi_c, u_c = crossing(rows)
    assert abs(xi_c) < 1e-9
    assert abs(u_c - 2.0 ** (-1.0 / 3.0)) < 1e-6
    ET.parse(svg_path)  # well-formed XML


def test_emit_figures_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    csv1, svg1 = emit_figures(parse_preset("mt6"), a)
    csv2, svg2 = emit_figures(parse_preset("mt6"), b)
    assert csv1.read_bytes() == csv2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()


def test_cli_factor_json(capsys):
    code = main(["factor", "--preset", "fisher(1)", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selected_gamma"] == pytest.approx(5 * math.sqrt(6) / 6)
    assert "berkovich_f1b" in payload


def test_cli_kink_writes_csv(tmp_path, capsys):
    code = main(["kink", "--preset", "mt6", "--out", str(tmp_path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hyperbolic_half_rate"] == pytest.approx(0.75)
    lines = (tmp_path / "mt6_kink.csv").read_text().splitlines()
    assert lines[0] == "xi,u,du,ddu"
    assert len(lines) == 1002


def test_cli_partner(capsys):
    code = main(["partner", "--preset", "mt6", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partner_F"] == "u - 15 u^4 - 16 u^7"
    assert payload["rate_ratio"] == pytest.approx(4.0)
    assert payload["second_reversal"] == "obstructed"


def test_cli_verify_exit_code(capsys):
    assert main(["verify", "--preset", "dto(2/9,4)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passes"] is True
    assert payload["residuals"]["original"]["max_abs_residual"] < 1e-9


def test_cli_negative_branch(capsys):
    code = main(["factor", "--preset", "fisher(1)", "--branch", "negative",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selected_gamma"] == pytest.approx(-5 * math.sqrt(6) / 6)


def test_cli_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"preset": "fisher(2)", "json": True}))
    code = main(["factor", "--scenario", str(scenario)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["preset"] == "fisher(2)"
    # flags override scenario values
    code = main(["factor", "--scenario", str(scenario), "--preset", "mt6"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["preset"] == "mt6"


def test_cli_factor_raw_polynomial(capsys):
    code = main(["factor", "--poly", "2/9 - u^2", "--family", "dto", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    gammas = sorted(p["gamma"] for p in payload["pairs"])
    assert gammas[-1] == pytest.approx(1.0)
    assert len(payload["pairs"]) == 4      # two orderings x two scale signs


def test_cli_factor_raw_polynomial_requires_family(capsys):
    assert main(["factor", "--poly", "1 - u^2"]) == 2


@pytest.mark.parametrize("preset", ["fisher(1)", "fisher(2)", "mt6",
                                    "dto(2/9,4)", "dto(3/16,6)",
                                    "fhn(3,1)", "fhn(3,2)", "newell_whitehead"])
def test_cli_every_preset_verifies_clean(preset, capsys):
    assert main(["verify", "--preset", preset, "--json"]) == 0
    capsys.readouterr()


def test_cli_unknown_preset_errors(capsys):
    code = main(["factor", "--preset", "zeta(9)"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_missing_preset_errors(capsys):
    code = main(["factor"])
    assert code == 2


def test_cli_figures_runs_the_pipeline_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return run_pipeline(*args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", counting)
    assert main(["figures", "--preset", "mt6", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_unwritable_output_errors(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    code = main(["figures", "--preset", "mt6", "--out", str(blocker)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.slow
def test_cli_simulate_summary(tmp_path, capsys):
    code = main([
        "simulate", "--preset", "mt6", "--json", "--out", str(tmp_path),
        "--xmin", "-25", "--xmax", "25", "--tmax", "2.0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    summary, json_text = out.split("\n", 1)
    assert summary.startswith("preset=mt6 gamma=2.5 ")
    payload = json.loads(json_text)
    assert 2.4 <= payload["fitted_speed"] <= 2.6
    assert (tmp_path / "mt6_front.csv").exists()
    assert (tmp_path / "mt6_field.csv").read_text().startswith("t,x,u")
