import ast
import json
import math
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, strategies as st

from kinkfactor import cli
from kinkfactor.cli import emit_figures, main
from kinkfactor.presets import RESIDUAL_PASS, STANDARD_PRESETS, parse_preset, run_pipeline
from kinkfactor.verify import summary_line


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def assert_clean_error(capsys):
    """Nothing on stdout, and one error line on stderr (returned): no traceback."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


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


def reference_render_svg(rows, title):
    """_render_svg as it formatted each point with its own f-string."""
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [r[0] for r in rows]
    ys = [v for r in rows for v in (r[1], r[2])]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    x_text = [f"{sx(x):.2f}" for x in xs]
    stroke = {"stroke": "black", "stroke_width": 1}
    tick_font = {"font_family": "monospace", "font_size": 11}
    element = cli._svg_element
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        element("rect", x=0, y=0, width=width, height=height, fill="white"),
        element("text", title, x=f"{width / 2:.0f}", y=24, text_anchor="middle",
                font_family="monospace", font_size=16),
        element("line", x1=ml, y1=height - mb, x2=width - mr, y2=height - mb, **stroke),
        element("line", x1=ml, y1=mt, x2=ml, y2=height - mb, **stroke),
    ]
    for tick in cli._svg_ticks(x_lo, x_hi):
        px = f"{sx(tick):.2f}"
        parts.append(element("line", x1=px, y1=height - mb, x2=px, y2=height - mb + 5,
                             **stroke))
        parts.append(element("text", f"{tick:.4g}", x=px, y=height - mb + 20,
                             text_anchor="middle", **tick_font))
    for tick in cli._svg_ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(element("line", x1=ml - 5, y1=f"{py:.2f}", x2=ml, y2=f"{py:.2f}",
                             **stroke))
        parts.append(element("text", f"{tick:.4g}", x=ml - 9, y=f"{py + 4:.2f}",
                             text_anchor="end", **tick_font))
    curves = (("original", "#1f77b4"), ("partner", "#d62728"))
    for i, (_, color) in enumerate(curves, 1):
        pts = " ".join(f"{x},{sy(r[i]):.2f}" for x, r in zip(x_text, rows))
        parts.append(element("polyline", fill="none", stroke=color, stroke_width=2,
                             points=pts))
    for i, (label, color) in enumerate(curves):
        parts.append(element("text", label, x=width - mr - 10, y=mt + 16 + 18 * i,
                             text_anchor="end", font_family="monospace", font_size=12,
                             fill=color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def rendered(render, rows):
    """The SVG text, or the error type when all x are equal."""
    try:
        return render(rows, "drawn")
    except ZeroDivisionError:
        return ZeroDivisionError


svg_values = st.floats(min_value=-1e3, max_value=1e3) | st.sampled_from(
    [-0.004, -0.0, -1e-300, 0.005, 2.675])


@given(st.lists(st.tuples(svg_values, svg_values, svg_values), min_size=1, max_size=40))
# data values that round to -0.00, a half-way value and equal x
@example([(-0.004, -0.0, -0.004), (0.0, -1e-300, 2.675), (0.005, 0.0, -0.001)])
@example([(1.0, 0.5, 0.25), (1.0, 0.0, 1.0)])
def test_svg_is_the_per_point_formatting_on_drawn_rows(rows):
    assert rendered(cli._render_svg, rows) == rendered(reference_render_svg, rows)


def test_percent_and_format_agree_where_svg_coordinates_round():
    # the bulk form formats with %; the per-point form with format specs
    for v in (-0.004, -0.0, -1e-300, 0.005, 2.675, 449.995, math.inf, math.nan):
        assert "%.2f" % v == f"{v:.2f}"


def test_cli_factor_json(capsys):
    code = main(["factor", "--preset", "fisher(1)", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == pytest.approx(5 * math.sqrt(6) / 6)
    assert "berkovich_f1b" in payload


def test_cli_kink_writes_csv(tmp_path, capsys):
    code = main(["kink", "--preset", "mt6", "--out", str(tmp_path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hyperbolic"]["half_rate"] == pytest.approx(0.75)
    assert payload["hyperbolic"]["kind"] == "tanh"
    lines = (tmp_path / "mt6_kink.csv").read_text().splitlines()
    assert lines[0] == "xi,u,du,ddu"
    assert len(lines) == 1002


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("preset", STANDARD_PRESETS)
def test_cli_kink_csv_and_figures_write_the_same_u(preset, branch, tmp_path, capsys):
    # both sample the kink on its default grid of 1001 points
    argv = ["--preset", preset, "--branch", branch, "--out", str(tmp_path)]
    assert main(["kink", *argv]) == 0
    assert main(["figures", *argv]) == 0
    capsys.readouterr()
    slug = parse_preset(preset).slug
    kink = [line.split(",") for line in
            (tmp_path / f"{slug}_kink.csv").read_text().splitlines()]
    figures = [line.split(",") for line in
               (tmp_path / f"{slug}_kinks.csv").read_text().splitlines()]
    assert kink[0][:2] == ["xi", "u"] and figures[0][:2] == ["xi", "u_original"]
    assert [row[:2] for row in kink[1:]] == [row[:2] for row in figures[1:]]


#: The verdict section that ends every pipeline subcommand's report.
VERDICT = ("residuals", "passes")


def _words(report):
    """Every key and string value of a JSON report, at every depth."""
    if isinstance(report, dict):
        return {word for key, value in report.items() for word in (key, *_words(value))}
    if isinstance(report, list):
        return {word for value in report for word in _words(value)}
    return {report} if isinstance(report, str) else set()


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("preset", STANDARD_PRESETS)
def test_cli_verify_and_kink_print_one_branch_word_and_one_record(preset, branch, tmp_path,
                                                                  capsys):
    argv = ["--preset", preset, "--branch", branch, "--json"]
    assert main(["verify", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["branch"] == branch
    assert not _words(report) & {"upper", "lower", "plus", "gamma_sign"}
    # kink prints verify's record, with the preset, gamma, width and csv beside
    # it, and verify's verdict section
    assert main(["kink", *argv, "--out", str(tmp_path)]) == 0
    kink = json.loads(capsys.readouterr().out)
    others = {key: kink.pop(key) for key in ("preset", "gamma", "width", "csv", *VERDICT)}
    assert kink == report["kink"]
    assert {key: others[key] for key in ("preset", "gamma", *VERDICT)} == {
        key: report[key] for key in ("preset", "gamma", *VERDICT)}


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("preset", STANDARD_PRESETS)
def test_cli_factor_partner_and_factor_poly_print_sections_of_the_verify_record(
        preset, branch, capsys):
    argv = ["--preset", preset, "--branch", branch, "--json"]
    reports = {}
    for command in ("verify", "factor", "partner"):
        assert main([command, *argv]) == 0
        reports[command] = json.loads(capsys.readouterr().out)
    report = reports["verify"]
    # factor prints the symbolic section, with the Berkovich brackets beside
    # it, and verify's verdict section
    factor = reports["factor"]
    assert set(VERDICT) <= set(factor)
    assert sorted(set(factor) - set(report)) == ["berkovich_f1b", "berkovich_f2b"]
    assert {key: report[key] for key in factor.keys() & report.keys()} == {
        key: factor[key] for key in factor.keys() & report.keys()}
    # partner prints the partner section, with the preset, the rate ratio and
    # the second-reversal obstruction beside it, and verify's verdict section
    partner = reports["partner"]
    others = {key: partner.pop(key) for key in ("preset", "rate_ratio", "second_reversal",
                                                 "second_reversal_defect", *VERDICT)}
    assert partner == report["partner"]
    assert {key: others[key] for key in ("preset", "rate_ratio", *VERDICT)} == {
        key: report[key] for key in ("preset", "rate_ratio", *VERDICT)}
    # factor --poly lists the selected pair's record among the pairs of F/u,
    # written with each coefficient's repr: str(F/u) rounds 2/9 to 12 digits
    terms = parse_preset(preset).F_over_u().terms
    poly = " ".join(f"{'-' if c < 0 else '+'} {abs(c)!r}*u^{{{e}}}" for e, c in terms)
    assert main(["factor", f"--poly={poly}", "--json"]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    selected = {key: report[key] for key in ("gamma", "branch", "scale_a", "phi1", "phi2")}
    assert selected in pairs


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_cli_json_stdout_is_one_json_document(command, tmp_path, capsys):
    # a front run's summary line heads only a text report
    flags = {"verify": ["--front"], "kink": ["--out", str(tmp_path)],
             "simulate": ["--out", str(tmp_path)], "figures": ["--out", str(tmp_path)]}
    assert main([command, "--preset", "mt6", *flags.get(command, []), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["preset"] == "mt6"


@pytest.mark.parametrize("preset", STANDARD_PRESETS)
def test_cli_factor_poly_gives_one_pair_per_branch_and_ordering(preset, capsys):
    poly = parse_preset(preset).F_over_u()
    assert main(["factor", f"--poly={poly}", "--json"]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert len(pairs) == 4
    # each ordering's two scales -a, a, in that order
    for ordering in (pairs[:2], pairs[2:]):
        assert sorted(p["branch"] for p in ordering) == ["negative", "positive"]
        assert ordering[0]["scale_a"] == -ordering[1]["scale_a"]


def test_cli_factor_poly_refuses_an_infinite_a_squared(capsys):
    # a^2 = -1/(2*c2) = 2^1073 for c2 = -5e-324, past the largest float
    assert main(["factor", "--poly", "1 - 5e-324 u^2"]) == 2
    assert assert_clean_error(capsys) == (
        "error: scale condition gives a^2 = inf beyond the float range at u^1\n")


def test_cli_partner(capsys):
    code = main(["partner", "--preset", "mt6", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["F"] == "u - 15 u^4 - 16 u^7"
    assert payload["rate_ratio"] == pytest.approx(4.0)
    assert payload["second_reversal"] == "obstructed"


# The defect of the fisher form whose order is F/u's top exponent, so order
# n - 2 for dto(A,n): dto(2/9,4) has the fisher(2) defect 3, dto(3/16,6) the
# fisher(4) defect 16.  An F/u with a u^h term is not of that form: fhn(a,.)
# unless a = -1, where F/u = 1 - u^2 is fisher(2)'s.
SECOND_REVERSAL_DEFECTS = {
    "fisher(1)": "5/8", "fisher(2)": "3", "mt6": "45", "dto(2/9,4)": "3",
    "dto(3/16,6)": "16", "fhn(3,1)": None, "fhn(3,2)": None, "fhn(-1,1)": "3",
    "newell_whitehead": "3",
}


@pytest.mark.parametrize("preset", SECOND_REVERSAL_DEFECTS)
def test_cli_partner_second_reversal_defect(preset, capsys):
    defect = SECOND_REVERSAL_DEFECTS[preset]
    assert main(["partner", "--preset", preset, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    status = "not derived" if defect is None else "obstructed"
    assert (payload["second_reversal"], payload["second_reversal_defect"]) == (
        status, defect)


def test_cli_verify_exit_code(capsys):
    assert main(["verify", "--preset", "dto(2/9,4)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passes"] is True
    assert payload["residuals"]["original"]["max_abs_residual"] < 1e-9


#: Each subcommand that runs the pipeline, with its flags besides the preset;
#: OUT stands for the test's output directory.
PIPELINE_CALLS = {"factor": [], "kink": ["--out", "OUT"], "partner": [], "verify": [],
                  "figures": ["--out", "OUT"],
                  "simulate": ["--xmin", "-25", "--xmax", "25", "--tmax", "2"]}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command, preset", [
    (command, preset) for command in PIPELINE_CALLS for preset in ("mt6", "dto(1e4,4)")
    # dto(1e4,4) is too stiff for simulate's default dt, a refusal (exit 2)
    if (command, preset) != ("simulate", "dto(1e4,4)")])
def test_cli_exit_status_is_the_printed_passes(command, preset, as_json, tmp_path, capsys):
    flags = [str(tmp_path) if flag == "OUT" else flag for flag in PIPELINE_CALLS[command]]
    code = main([command, "--preset", preset, *flags, *(["--json"] if as_json else [])])
    out = capsys.readouterr().out
    if as_json:
        report = json.loads(out)
    else:
        # a text report ends with the verdict section, one line a key
        *_, residuals, passes = out.splitlines()
        report = {"residuals": ast.literal_eval(residuals.removeprefix("residuals: ")),
                  "passes": {"passes: True": True, "passes: False": False}[passes]}
    assert code == (0 if report["passes"] else 1)
    scans = {name: scan["max_abs_residual"] for name, scan in report["residuals"].items()}
    if preset == "mt6":
        assert report["passes"] is True
    else:
        # the exact partner kink of dto(1e4,4) scans at 1.19e-9, above RESIDUAL_PASS
        assert report["passes"] is False
        assert scans["original"] < RESIDUAL_PASS < scans["partner"]
        assert scans["partner"] == pytest.approx(1.19e-9, rel=0.01)


def test_cli_negative_branch(capsys):
    code = main(["factor", "--preset", "fisher(1)", "--branch", "negative",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == pytest.approx(-5 * math.sqrt(6) / 6)


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
    code = main(["factor", "--poly", "2/9 - u^2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["F_over_u", "pairs"]
    gammas = sorted(p["gamma"] for p in payload["pairs"])
    assert gammas[-1] == pytest.approx(1.0)
    assert len(payload["pairs"]) == 4      # two orderings x two scale signs


# a single case, so that the test's id (ending in [None]) stays stable
@pytest.mark.parametrize("family", [None])
def test_cli_factor_raw_polynomial_in_u_squared(family, capsys):
    # -0.3 + 1.3 v - v^2 = (1 - v)(v - 0.3) with v = u^2
    assert main(["factor", "--poly", "-0.3 + 1.3 u^2 - u^4", "--json"]) == 0
    gammas = sorted(p["gamma"] for p in json.loads(capsys.readouterr().out)["pairs"])
    slow, fast = 0.1 / math.sqrt(3.0), 0.9 * math.sqrt(3.0)
    assert gammas == pytest.approx([-fast, -slow, slow, fast], rel=1e-12)


def test_cli_factor_poly_with_an_overflowing_discriminant_splits(capsys):
    # 4*c2*c0 overflows; the split scales it and takes the roots +-1e154
    assert main(["factor", "--poly", "1e308 - u^2", "--json"]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    assert [p["phi1"] for p in pairs[:2]] == ["-7.07106781187e+153 + 0.707106781187 u",
                                              "7.07106781187e+153 - 0.707106781187 u"]


@pytest.mark.parametrize("argv", [
    ["--preset", "dto(1e308,4)"], ["--preset", "fhn(1e160,1)"],
], ids=["dto", "fhn"])
def test_cli_factor_overflowing_discriminant_is_a_clean_error(argv, capsys):
    # c1^2 - 4*c2*c0 overflows, and the split scales it; the preset's kink
    # then stops the residual scan, whose F overflows the float range
    assert main(["factor", *argv]) == 2
    assert assert_clean_error(capsys).startswith(
        "error: the residual overflows the float range at xi = ")


@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_cli_verify_fhn_with_no_partner_kink(branch, capsys):
    # F = u^2 (1 - u) splits at the double root 0 on branch 2, so the
    # partner flow phi2 = -+sqrt(2) u has one fixed point and no kink
    assert main(["verify", "--preset", "fhn(0,2)", "--branch", branch, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["partner"]["kink"] is None and report["partner"]["kink_is_real"] is False
    assert report["residuals"]["partner"] is None and report["rate_ratio"] is None
    assert report["residuals"]["original"]["max_abs_residual"] < 1e-15
    assert main(["partner", "--preset", "fhn(0,2)", "--branch", branch, "--json"]) == 0
    partner = json.loads(capsys.readouterr().out)
    assert partner["kink"] is None and partner["kink_is_real"] is False


@pytest.mark.parametrize("command, purpose", [(["figures"], "draw"),
                                              (["simulate", "--partner"], "simulate")],
                         ids=["figures", "simulate"])
def test_cli_missing_partner_kink_is_a_clean_error(command, purpose, tmp_path, capsys):
    argv = [*command, "--preset", "fhn(0,2)", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert assert_clean_error(capsys) == (
        "error: no partner kink: the partner flow phi = -1.41421356237 u is not of the"
        f" shape beta*(lam - u^m); nothing to {purpose}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset", ["fisher(1)", "fisher(2)", "mt6",
                                    "dto(2/9,4)", "dto(3/16,6)",
                                    "fhn(3,1)", "fhn(3,2)", "newell_whitehead"])
def test_cli_every_preset_verifies_clean(preset, capsys):
    assert main(["verify", "--preset", preset, "--json"]) == 0
    capsys.readouterr()


def test_cli_verify_large_coefficient_builds_its_pairs(capsys):
    # gamma = 6.7e14: the friction check judges it against the terms that
    # went into it, so the pair is built and nothing is an error
    main(["verify", "--preset", "dto(1e29,4)"])
    assert capsys.readouterr().err == ""


def test_cli_in_process_calls_are_independent(tmp_path, capsys):
    # the parser is built once per process; no call may see an earlier one's flags
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"preset": "fisher(2)", "xi0": 2}))
    calls = [
        ["verify", "--preset", "mt6", "--front", "--json"],
        ["verify", "--preset", "mt6", "--xi0", "1"],
        ["verify", "--scenario", str(scenario)],
        ["verify"],
    ]
    shared = []
    for argv in calls:
        code = main(argv)
        shared.append((code, capsys.readouterr().out))
    for argv, seen in zip(calls, shared):
        cli._build_parser.cache_clear()
        code = main(argv)
        assert (code, capsys.readouterr().out) == seen
    assert [code for code, _ in shared] == [0, 0, 0, 2]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], [],
                                  ["verify", "--branch", "sideways"],
                                  ["simulate", "--dx", "abc"],
                                  ["factor", "--preset", "mt6", "--family", "dto"]])
def test_cli_help_and_usage_errors_do_not_depend_on_earlier_calls(argv, capsys):
    def run():
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        return info.value.code, captured.out, captured.err

    cli._build_parser.cache_clear()
    fresh = run()
    assert main(["factor", "--preset", "mt6", "--json"]) == 0
    capsys.readouterr()
    assert run() == fresh
    assert fresh[0] == (0 if "--help" in argv else 2)


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("text", ["dto(1e-20,4)", "fhn(1e-13,1)"])
def test_cli_verify_keeps_a_constant_below_the_structural_tolerance(text, branch, capsys):
    # F/u's constant (A, or -a) is far below 1e-12 and nothing cancels it, so
    # it is kept and gives the flow its constant
    assert main(["verify", "--preset", text, "--branch", branch]) == 0
    assert capsys.readouterr().err == ""


def test_cli_grid_finer_than_float_spacing_is_a_clean_error(capsys):
    # xi0 +/- 10 widths is one float at 1e300
    assert main(["verify", "--preset", "mt6", "--xi0", "1e300"]) == 2
    assert capsys.readouterr().err == (
        "error: residual grid [1e+300, 1e+300] has step 0, not above the float"
        " spacing 1.48702e+284 there\n"
    )


def test_cli_refused_branch_names_the_velocities_found(capsys):
    # A = 5e-324 makes both velocities of the split zero, +0 and -0, and both
    # are of the positive branch (gamma >= 0)
    argv = ["verify", "--preset", "dto(5e-324,4)", "--branch", "negative"]
    assert main(argv) == 2
    assert assert_clean_error(capsys) == (
        "error: no factorization with gamma < 0; the velocities found are 0, -0\n")


def test_cli_unknown_preset_errors(capsys):
    code = main(["factor", "--preset", "zeta(9)"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "fisher(1.5)", "dto(abc,4)", "dto(1/0,4)", "mt6(3)", "nw(1)",
    # orders above MAX_ORDER; the evaluation plan grows linearly with n
    "fisher(1000001)", "dto(2/9,1000002)",
    pytest.param(f"fisher({'9' * 400})", id="fisher(400 nines)"),
    # fractions beyond the float range
    pytest.param(f"dto(1{'0' * 400}/1,4)", id="dto(1e400/1,4)"),
    pytest.param(f"fhn(1{'0' * 400}/3,1)", id="fhn(1e400/3,1)"),
    # F(u) overflows the float range along the kink in the residual scan
    "dto(1e250,4)",
])
def test_cli_malformed_preset_is_a_clean_error(text, capsys):
    assert main(["factor", "--preset", text]) == 2
    assert_clean_error(capsys)


@pytest.mark.parametrize("poly", [
    "u^{1/0}", "1/0 - u", "1.2.3 - u", "1e999 - u^2", "2/9 - u^1000001",
    # more digits than Python reads into an int
    pytest.param("u^" + "1" * 5000, id="u^(5000 ones)"),
    pytest.param("u^{" + "1" * 5000 + "}", id="u^{5000 ones}"),
])
def test_cli_malformed_poly_is_a_clean_error(poly, capsys):
    assert main(["factor", "--poly", poly]) == 2
    assert_clean_error(capsys)


@pytest.mark.parametrize("poly, spaced", [("-u^2", "-u^2 "), ("-1/3+u", "-1/3 + u")],
                         ids=["-u^2", "-1/3+u"])
def test_cli_poly_starting_with_minus_needs_the_equals_form(poly, spaced, capsys):
    # argparse reads a value that starts with "-" and holds no space as an option
    with pytest.raises(SystemExit) as info:
        main(["factor", "--poly", poly])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("argument --poly: expected one argument\n")
    # --poly=TEXT reads it, as a value with a space does
    code = main(["factor", f"--poly={poly}", "--json"])
    joined = (code, *capsys.readouterr())
    assert (main(["factor", "--poly", spaced, "--json"]), *capsys.readouterr()) == joined
    assert joined[0] == (0 if poly == "-u^2" else 2)


@pytest.mark.parametrize("text", [
    "{", "[1, 2]", '{"preset": "mt6", "xi0": "abc"}', '{"preset": "mt6", "xi0": NaN}',
    '{"preset": "mt6", "xi0": true}', '{"preset": "mt6", "json": 1}', '{"preset": 6}',
])
def test_cli_malformed_scenario_is_a_clean_error(text, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    assert main(["factor", "--scenario", str(scenario)]) == 2
    assert_clean_error(capsys)


def test_cli_factor_raw_polynomial_with_exponent_notation(capsys):
    code = main(["factor", "--poly", "1e-05 - u^2", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["F_over_u"] == "1e-05 - u^2"


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


def test_cli_simulate_far_tail_exits_without_traceback(capsys):
    # the initial kink is sampled 2000 cells out, where e^{r xi} overflows
    code = main(["simulate", "--preset", "fisher(2)", "--xmin", "-2000",
                 "--xmax", "2000", "--dx", "1", "--dt", "0.5", "--tmax", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: not enough samples in the second half of the run\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["--preset", "dto(3/16,6)", "--partner"],
     "partner kink is not real-valued; nothing to simulate"),
    (["--preset", "mt6", "--xmin", "40", "--xmax", "-40"],
     "x grid [40.0, -40.0] must have lo < hi"),
], ids=["partner-not-real", "reversed-grid"])
def test_cli_simulate_refusals_name_their_cause(argv, message, capsys):
    assert main(["simulate", *argv]) == 2
    assert assert_clean_error(capsys) == f"error: {message}\n"


@pytest.mark.parametrize("out", [False, True], ids=["", "out"])
@pytest.mark.parametrize("bad", [
    ["--dt", "0"], ["--tmax", "nan"],
    # step counts beyond verify.MAX_STEPS, or not finite
    ["--xmax", "1e300"], ["--xmin=-1e308", "--xmax", "1e308"],
    ["--dt", "1e-320", "--tmax", "1e300"], ["--tmax", "1e300"],
    # kinks narrower than cli.MIN_WIDTH_CELLS cells of dx (the later
    # --preset replaces mt6)
    ["--preset", "fisher(150)"], ["--preset", "fisher(400)"],
], ids=["dt=0", "tmax=nan", "xmax=1e300", "x=+-1e308", "dt=1e-320,tmax=1e300",
        "tmax=1e300", "fisher(150)", "fisher(400)"])
def test_cli_simulate_invalid_time_is_a_clean_error(bad, out, tmp_path, capsys):
    argv = ["simulate", "--preset", "mt6", *bad]
    if out:
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert_clean_error(capsys)
    assert not (tmp_path / "run").exists()


def test_cli_simulate_stiff_reaction_is_a_cfl_error_before_the_run(capsys):
    # F'(1) = -5000 makes dt = 1e-3 unstable on the default grid; the check
    # runs before the first step
    assert main(["simulate", "--preset", "fisher(5000)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: dt = 0\.001 violates the stability bound dt <= 2/\(4/dx\^2 \+ s\)"
        r" = 0\.000303\d*, with dx = 0\.05 and stiffness s = 5000\n", captured.err)


@pytest.mark.slow
def test_cli_simulate_summary(tmp_path, capsys):
    code = main([
        "simulate", "--preset", "mt6", "--json", "--out", str(tmp_path),
        "--xmin", "-25", "--xmax", "25", "--tmax", "2.0",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["preset"], payload["gamma"]) == ("mt6", 2.5)
    assert 2.4 <= payload["fitted_speed"] <= 2.6
    assert (tmp_path / "mt6_front.csv").exists()
    assert (tmp_path / "mt6_field.csv").read_text().startswith("t,x,u")


def test_cli_simulate_partner_prints_the_partner_residual(capsys):
    code = main(["simulate", "--preset", "mt6", "--partner",
                 "--xmin", "-25", "--xmax", "25", "--tmax", "2"])
    summary = capsys.readouterr().out.splitlines()[0]
    result = run_pipeline(parse_preset("mt6"))
    partner = result.partner_residual.max_abs_residual
    assert partner != result.original_residual.max_abs_residual
    assert summary.startswith("preset=mt6:partner ")
    assert summary.endswith(f" residual_max={partner:.17g}")
    assert code == 0


@pytest.mark.slow
def test_cli_simulate_fails_on_a_backward_front(capsys):
    # the fisher(1) partner equation read as a plain real F runs backwards
    code = main(["simulate", "--preset", "fisher(1)", "--partner", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["fitted_speed"] < 0 < payload["gamma"]
    assert payload["speed_matches_gamma"] is False
    assert code == 1


@pytest.mark.slow
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_cli_simulate_mt6_speed_carries_gamma_sign(branch, capsys):
    code = main(["simulate", "--preset", "mt6", "--branch", branch, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["speed_matches_gamma"] is True
    assert code == 0


@pytest.mark.slow
@pytest.mark.parametrize("command", [["verify", "--front"], ["simulate"]])
def test_cli_front_speed_off_gamma_fails_both_commands(command, capsys):
    # fisher(125) spans 2.55 cells of dx = 0.05, so the run is made, and its
    # front runs at 7.35 against gamma = 8.09: 9% off
    # its residuals pass, so the printed passes is false for the front alone
    code = main([*command, "--preset", "fisher(125)", "--json"])
    payload = json.loads(capsys.readouterr().out)
    front = payload.get("front", payload)
    assert abs(front["fitted_speed"] - front["gamma"]) > 0.05 * front["gamma"]
    assert front["speed_matches_gamma"] is False
    assert run_pipeline(parse_preset("fisher(125)")).passes()
    assert payload["passes"] is False
    assert code == 1


@pytest.mark.slow
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_cli_verify_front_is_the_simulate_run(branch, capsys):
    argv = ["--preset", "mt6", "--branch", branch]
    assert main(["verify", "--front", *argv, "--json"]) == 0
    verify_json = capsys.readouterr().out
    assert main(["simulate", *argv, "--json"]) == 0
    # simulate prints the front section and then verify's verdict section
    simulate = json.loads(capsys.readouterr().out)
    verdict = {key: simulate.pop(key) for key in VERDICT}
    assert json.loads(verify_json)["front"] == simulate
    assert verdict == {key: json.loads(verify_json)[key] for key in VERDICT}
    # a text report opens with the summary line of the payload's fields
    assert main(["simulate", *argv]) == 0
    front = json.loads(verify_json)["front"]
    assert capsys.readouterr().out.splitlines()[0] == summary_line(
        front["preset"], front["gamma"], front["fitted_speed"], front["residual_max"])
