"""Command-line front end: factor, kink, partner, verify, simulate, figures.

Every subcommand takes a preset (``--preset fisher(1)`` etc.), an optional
shift ``--xi0``, a velocity branch ``--branch positive|negative``, an output
directory ``--out`` and ``--json`` for a machine-readable report, one JSON
document on stdout.  The same fields may be supplied through a JSON scenario
file (``--scenario``); explicit flags override file values.  Every
subcommand that runs the pipeline ends its report with the verdict section of
:func:`~kinkfactor.presets.verdict_record`, ``residuals`` and ``passes``, and
its exit status is 0 iff the printed ``passes`` is true; ``factor --poly``
runs no pipeline and exits 0.  A refused input exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .errors import DomainError, KinkFactorError
from .factorizer import berkovich_convert, solve_scale_condition, split_nonlinearity
from .kinks import GAMMA_NEGATIVE, GAMMA_POSITIVE
from .powerpoly import parse_poly
from .presets import (SPEED_REL_TOL, Preset, PipelineResult, kink_record, pair_record,
                      parse_preset, partner_record, report_dict, run_pipeline,
                      symbolic_record, verdict_record)
from .susy import second_reversal_check
from .verify import (
    SAMPLE_POINTS as FIGURE_POINTS,
    _front_setup,
    default_grid,
    grid_points,
    simulate_front,
    summary_line,
    write_csv,
    write_front_csv,
    write_kink_csv,
    write_snapshots_csv,
)

#: The default front run of ``simulate`` and the one ``verify --front`` makes:
#: grid (xmin, xmax, dx), time step dt and end time T.
FRONT_RUN = ((-40.0, 40.0, 0.05), 1e-3, 5.0)

#: Fewest grid cells a kink's natural width may span in a front run; a
#: narrower front stalls on the lattice (fisher(150) at dx = 0.05 spans 2.3
#: cells and runs at 6.87 against gamma = 8.83).
MIN_WIDTH_CELLS = 2.5


# -- figures -------------------------------------------------------------------

def _figure_rows(result: PipelineResult) -> list[tuple[float, float, float]]:
    """(xi, u_original, u_susy) on the original kink's default grid of FIGURE_POINTS."""
    if result.partner_profile is None:
        raise KinkFactorError(f"{_missing_partner(result)}; nothing to draw")
    kink = result.kink
    susy = result.partner_profile.positive_twin()
    points = grid_points(default_grid(kink, FIGURE_POINTS))
    return [(xi, kink.value(xi), susy.value(xi)) for xi in points]


def _missing_partner(result: PipelineResult) -> str:
    """Why ``result`` has no real partner kink."""
    if result.partner_profile is None:
        return (f"no partner kink: the partner flow phi = {result.partner.compatible_phi}"
                " is not of the shape beta*(lam - u^m)")
    return "partner kink is not real-valued"


def _svg_ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 5
    return [lo + i * step for i in range(6)]


def _svg_element(tag: str, text: str | None = None, **attrs) -> str:
    """``<tag a="v" .../>``, or ``<tag ...>text</tag>``; a ``_`` in a name is a ``-``.

    The attribute values are written as given, so each is formatted beforehand.
    """
    head = " ".join([tag, *(f'{k.replace("_", "-")}="{v}"' for k, v in attrs.items())])
    return f"<{head}/>" if text is None else f"<{head}>{text}</{tag}>"


def _render_svg(rows, title: str) -> str:
    """Self-contained SVG line plot of the two kink curves."""
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [r[0] for r in rows]
    ys = [v for r in rows for v in (r[1], r[2])]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    x_scale, y_scale = x_hi - x_lo, y_hi - y_lo
    x_span, y_span = width - ml - mr, height - mt - mb

    def sx(x: float) -> float:
        return ml + (x - x_lo) / x_scale * x_span

    def sy(y: float) -> float:
        return height - mb - (y - y_lo) / y_scale * y_span

    # one % operation formats the x values into a template that both curves
    # fill with theirs, by one more each; the lists repeat sx's and sy's
    # arithmetic inline, in its order
    template = " ".join(["%.2f,%%.2f"] * len(rows)) % tuple(
        [ml + (x - x_lo) / x_scale * x_span for x in xs])
    stroke = {"stroke": "black", "stroke_width": 1}
    tick_font = {"font_family": "monospace", "font_size": 11}
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        _svg_element("rect", x=0, y=0, width=width, height=height, fill="white"),
        _svg_element("text", title, x=f"{width / 2:.0f}", y=24, text_anchor="middle",
                     font_family="monospace", font_size=16),
        _svg_element("line", x1=ml, y1=height - mb, x2=width - mr, y2=height - mb,
                     **stroke),
        _svg_element("line", x1=ml, y1=mt, x2=ml, y2=height - mb, **stroke),
    ]
    for tick in _svg_ticks(x_lo, x_hi):
        px = f"{sx(tick):.2f}"
        parts.append(_svg_element("line", x1=px, y1=height - mb, x2=px,
                                  y2=height - mb + 5, **stroke))
        parts.append(_svg_element("text", f"{tick:.4g}", x=px, y=height - mb + 20,
                                  text_anchor="middle", **tick_font))
    for tick in _svg_ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(_svg_element("line", x1=ml - 5, y1=f"{py:.2f}", x2=ml,
                                  y2=f"{py:.2f}", **stroke))
        parts.append(_svg_element("text", f"{tick:.4g}", x=ml - 9, y=f"{py + 4:.2f}",
                                  text_anchor="end", **tick_font))
    curves = (("original", "#1f77b4"), ("partner", "#d62728"))
    for i, (_, color) in enumerate(curves, 1):
        pts = template % tuple(
            [height - mb - (r[i] - y_lo) / y_scale * y_span for r in rows])
        parts.append(_svg_element("polyline", fill="none", stroke=color,
                                  stroke_width=2, points=pts))
    for i, (label, color) in enumerate(curves):
        parts.append(_svg_element("text", label, x=width - mr - 10, y=mt + 16 + 18 * i,
                                  text_anchor="end", font_family="monospace",
                                  font_size=12, fill=color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_figures(preset: Preset, out_dir) -> tuple[Path, Path]:
    """Write <slug>_kinks.csv and .svg comparing original and partner kinks.

    The kinks are those of the positive velocity branch at xi0 = 0.  Output
    bytes are deterministic for fixed inputs.
    """
    return _write_figures(run_pipeline(preset), out_dir)


def _write_figures(result: PipelineResult, out_dir) -> tuple[Path, Path]:
    rows = _figure_rows(result)
    csv_path = Path(out_dir) / f"{result.preset.slug}_kinks.csv"
    svg_path = Path(out_dir) / f"{result.preset.slug}_kinks.svg"
    write_csv(csv_path, ("xi", "u_original", "u_susy"), rows)
    svg_path.write_text(
        _render_svg(rows, f"{result.preset.id}: original and partner kinks")
    )
    return csv_path, svg_path


# -- argument handling ------------------------------------------------------------

#: The fields a flag or a scenario file may set: the one JSON type each takes,
#: the value used when neither a flag nor the file sets it, and the keywords
#: of its flag.
_SCENARIO_FIELDS = {
    "preset": (str, None, {"help": "preset id, e.g. fisher(1), mt6, dto(2/9,4)"}),
    "xi0": (float, 0.0, {"type": float, "help": "kink shift (default 0)"}),
    "branch": (str, GAMMA_POSITIVE, {"choices": (GAMMA_POSITIVE, GAMMA_NEGATIVE),
                                     "help": "velocity branch (default positive)"}),
    "out": (str, None, {"help": "output directory for files"}),
    "json": (bool, False, {"action": "store_true",
                           "help": "emit a JSON report on stdout"}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones.

    ``parse_args`` leaves the parser unchanged and returns a new namespace, so
    in-process calls of :func:`main` stay independent.
    """
    parser = argparse.ArgumentParser(
        prog="kinkfactor",
        description=(
            "Factorize u'' + gamma u' + F(u) = 0 into first-order brackets, "
            "derive kinks and reversed-bracket partner equations, and verify "
            "them numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        for key, (_, _, keywords) in _SCENARIO_FIELDS.items():
            p.add_argument(f"--{key}", default=None, **keywords)
        p.add_argument("--scenario", default=None,
                       help="JSON file with the same fields; flags override")

    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def _read_scenario(path: str) -> dict:
    """The JSON object of a scenario file; each known field must have its type."""
    try:
        # integers are read as floats, so xi0 may be written 2, and 10**400 is inf
        scenario = json.loads(Path(path).read_text(), parse_int=float)
    except ValueError as exc:    # not JSON, or not UTF-8 text
        raise DomainError(f"scenario file {path} is not JSON: {exc}") from None
    if not isinstance(scenario, dict):
        raise DomainError(f"scenario file {path} must hold a JSON object")
    for key, (typ, _, _) in _SCENARIO_FIELDS.items():
        if key in scenario and type(scenario[key]) is not typ:
            raise DomainError(
                f"scenario field {key!r} must be a {typ.__name__}, got {scenario[key]!r}"
            )
    return scenario


def _apply_scenario(args: argparse.Namespace) -> None:
    scenario = _read_scenario(args.scenario) if args.scenario else {}
    for key, (_, fallback, _) in _SCENARIO_FIELDS.items():
        if getattr(args, key) is None:
            setattr(args, key, scenario.get(key, fallback))
    if not math.isfinite(args.xi0):
        raise DomainError(f"xi0 must be finite, got {args.xi0}")
    if args.preset is None and getattr(args, "poly", None) is None:
        raise KinkFactorError("a preset is required (flag or scenario file)")


def _print(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


# -- subcommand implementations ---------------------------------------------------

def _cmd_factor(result: PipelineResult, args) -> dict:
    f1b, f2b = berkovich_convert(result.pair)
    return {**symbolic_record(result), "berkovich_f1b": str(f1b),
            "berkovich_f2b": str(f2b), **verdict_record(result)}


def _cmd_kink(result: PipelineResult, args) -> dict:
    kink = result.kink
    payload = {"preset": result.preset.id, "gamma": result.pair.gamma,
               **kink_record(kink), "width": kink.width}
    if args.out:
        path = Path(args.out) / f"{result.preset.slug}_kink.csv"
        write_kink_csv(path, kink)
        payload["csv"] = str(path)
    return {**payload, **verdict_record(result)}


def _cmd_partner(result: PipelineResult, args) -> dict:
    # an F/u with no u^h term rescales to the fisher form whose order is its
    # top exponent 2h; the obstruction is derived for that form only
    F_over_u = result.preset.F_over_u()
    top = F_over_u.exponents()[-1]
    status, defect = "not derived", None
    if F_over_u.coefficient(top / 2) == 0:
        report = second_reversal_check(int(top))
        status, defect = report.status, str(report.condition_defect)
    return {
        "preset": result.preset.id,
        **partner_record(result),
        "rate_ratio": result.rate_ratio,
        "second_reversal": status,
        "second_reversal_defect": defect,
        **verdict_record(result),
    }


def _cmd_raw_factor(args) -> dict:
    poly = parse_poly(args.poly)
    pairs = [pair_record(pair) for ansatz in split_nonlinearity(poly)
             for pair in solve_scale_condition(ansatz)]
    return {"F_over_u": str(poly), "pairs": pairs}


def _run_front(result: PipelineResult, partner: bool, grid, dt, T, out=None) -> dict:
    """Run the front of the original or partner kink: the front section,
    which ``simulate`` prints above its verdict section and ``verify --front``
    prints under ``front``; the verdict reads its ``speed_matches_gamma``.

    The section holds every field of the summary line (``preset``, ``gamma``,
    ``fitted_speed`` and the simulated kink's ``residual_max``), which
    :func:`main` prints above a text report.  With ``out``, writes
    <slug>_front.csv and <slug>_field.csv there.  A kink narrower than
    MIN_WIDTH_CELLS cells of dx is refused before the first step, after
    simulate_front's own checks, so a run that fails one of those reports it;
    only a refused run makes those checks twice.
    """
    if partner:
        kink, F = result.partner_kink, result.partner.partner.F
        label, residual = f"{result.preset.id}:partner", result.partner_residual
    else:
        kink, F = result.kink, result.ode.F
        label, residual = result.preset.id, result.original_residual
    if kink is None:
        raise KinkFactorError(f"{_missing_partner(result)}; nothing to simulate")
    # with out, keep about 20 field snapshots for <slug>_field.csv; when the
    # step count is not a finite number, simulate_front rejects dt or T itself
    steps = T / dt if dt else math.inf
    every = max(1, int(round(steps / 20))) if out and math.isfinite(steps) else None
    if kink.width < MIN_WIDTH_CELLS * grid[2]:
        _front_setup(F, kink, grid, dt, T, every)
        raise DomainError(
            f"kink width {kink.width:g} is under {MIN_WIDTH_CELLS:g} cells of"
            f" dx = {grid[2]:g}; the grid cannot resolve the front"
        )
    sim = simulate_front(F, kink, grid, dt, T, every)
    if out:
        write_front_csv(Path(out) / f"{result.preset.slug}_front.csv", sim)
        write_snapshots_csv(Path(out) / f"{result.preset.slug}_field.csv", sim)
    gamma = result.pair.gamma
    return {
        "preset": label,
        "gamma": gamma,
        "fitted_speed": sim.fitted_speed,
        "residual_max": residual.max_abs_residual,
        "fit_residual": sim.fit_residual,
        "level": sim.level,
        "speed_matches_gamma": abs(sim.fitted_speed - gamma)
        <= SPEED_REL_TOL * abs(gamma),
    }


def _cmd_verify(result: PipelineResult, args) -> dict:
    return report_dict(result, _run_front(result, False, *FRONT_RUN) if args.front else None)


def _cmd_simulate(result: PipelineResult, args) -> dict:
    front = _run_front(result, args.partner, (args.xmin, args.xmax, args.dx),
                       args.dt, args.tmax, args.out)
    return {**front, **verdict_record(result, front)}


def _cmd_figures(result: PipelineResult, args) -> dict:
    csv_path, svg_path = _write_figures(result, args.out or ".")
    return {"preset": result.preset.id, "csv": str(csv_path), "svg": str(svg_path),
            **verdict_record(result)}


#: Each subcommand, in the order ``--help`` lists them: its help, the flags it
#: takes besides the scenario fields and ``--scenario``, and its handler.
_COMMANDS = {
    "factor": ("show the factorization pairs and admissible velocities",
               {"--poly": {"default": None, "help": "factor a raw F(u)/u instead of a"
                                                    ' preset, e.g. "2/9 - u^2"'}},
               _cmd_factor),
    "kink": ("show the kink closed forms; with --out, sample to CSV", {}, _cmd_kink),
    "partner": ("show the reversed-bracket partner equation and its kink", {},
                _cmd_partner),
    "verify": ("run residual checks for the original and partner kinks",
               {"--front": {"action": "store_true",
                            "help": "append a PDE front-speed measurement"}},
               _cmd_verify),
    "simulate": ("measure the front speed in the reaction-diffusion PDE",
                 {**{f"--{name}": {"type": float, "default": value} for name, value
                     in zip(("xmin", "xmax", "dx", "dt", "tmax"),
                            (*FRONT_RUN[0], *FRONT_RUN[1:]))},
                  "--partner": {"action": "store_true",
                                "help": "simulate the partner equation instead"}},
                 _cmd_simulate),
    "figures": ("emit CSV and SVG comparing original and partner kinks", {}, _cmd_figures),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_scenario(args)
        if args.command == "factor" and args.poly is not None:
            _print(_cmd_raw_factor(args), args.json)
            return 0
        preset = parse_preset(args.preset)
        result = run_pipeline(preset, args.branch, args.xi0)
        _, _, handler = _COMMANDS[args.command]
        payload = handler(result, args)
        front = payload.get("front", payload)
        # a front run's summary line heads a text report only, so that a
        # --json stdout is one JSON document
        if "fitted_speed" in front and not args.json:
            print(summary_line(front["preset"], front["gamma"], front["fitted_speed"],
                               front["residual_max"]))
        _print(payload, args.json)
        return 0 if payload["passes"] else 1
    except (KinkFactorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
