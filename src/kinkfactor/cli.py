"""Command-line front end: factor, kink, partner, verify, simulate, figures.

Every subcommand takes a preset (``--preset fisher(1)`` etc.), an optional
shift ``--xi0``, a velocity branch ``--branch positive|negative``, an output
directory ``--out`` and ``--json`` for a machine-readable report, one JSON
document on stdout.  The same fields may be supplied through a JSON scenario
file (``--scenario``); explicit flags override file values.  A subcommand
that runs the pipeline returns its own sections and the front section of the
front it ran, or None; :func:`main` ends every such report with the verdict
section of :func:`~kinkfactor.presets.verdict_record`, ``residuals`` and
``passes``, judged with that front, and exits 0 iff the printed ``passes`` is
true.  ``factor --poly`` runs no pipeline and exits 0.  A refused input
exits 2.

:mod:`kinkfactor.presets` builds every section of a report and applies both
pass rules; ``simulate`` and ``verify --front`` run their front through
:func:`~kinkfactor.presets.run_front`.  This module keeps the arguments, the
files written and the printing.
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
from .presets import (Preset, PipelineResult, kink_record, missing_partner, pair_record,
                      parse_preset, partner_record, report_dict, run_front, run_pipeline,
                      symbolic_record, verdict_record)
from .susy import second_reversal_check
from .verify import (
    SAMPLE_POINTS as FIGURE_POINTS,
    default_grid,
    grid_points,
    summary_line,
    write_csv,
    write_front_csv,
    write_kink_csv,
    write_snapshots_csv,
)

#: The default front run of ``simulate`` and the one ``verify --front`` makes:
#: grid (xmin, xmax, dx), time step dt and end time T.
FRONT_RUN = ((-40.0, 40.0, 0.05), 1e-3, 5.0)


# -- figures -------------------------------------------------------------------

def _figure_rows(result: PipelineResult) -> list[tuple[float, float, float]]:
    """(xi, u_original, u_susy) on the original kink's default grid of FIGURE_POINTS."""
    if result.partner_profile is None:
        raise KinkFactorError(f"{missing_partner(result)}; nothing to draw")
    kink = result.kink
    susy = result.partner_profile.positive_twin()
    points = grid_points(default_grid(kink, FIGURE_POINTS))
    return [(xi, kink.value(xi), susy.value(xi)) for xi in points]


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
    """The JSON object of a scenario file; it holds only scenario fields, each
    of its type."""
    try:
        # integers are read as floats, so xi0 may be written 2, and 10**400 is inf
        scenario = json.loads(Path(path).read_text(), parse_int=float)
    except ValueError as exc:    # not JSON, or not UTF-8 text
        raise DomainError(f"scenario file {path} is not JSON: {exc}") from None
    if not isinstance(scenario, dict):
        raise DomainError(f"scenario file {path} must hold a JSON object")
    for key in scenario:
        if key not in _SCENARIO_FIELDS:
            raise DomainError(f"scenario field {key!r} is unknown; the fields are"
                              f" {', '.join(_SCENARIO_FIELDS)}")
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
# Each handler returns its own sections of the report and the front section
# of the front it ran, or None; main appends the verdict section.

def _cmd_factor(result: PipelineResult, args) -> tuple[dict, None]:
    f1b, f2b = berkovich_convert(result.pair)
    return {**symbolic_record(result), "berkovich_f1b": str(f1b),
            "berkovich_f2b": str(f2b)}, None


def _cmd_kink(result: PipelineResult, args) -> tuple[dict, None]:
    kink = result.kink
    payload = {"preset": result.preset.id, "gamma": result.pair.gamma,
               **kink_record(kink), "width": kink.width}
    if args.out:
        path = Path(args.out) / f"{result.preset.slug}_kink.csv"
        write_kink_csv(path, kink)
        payload["csv"] = str(path)
    return payload, None


def _cmd_partner(result: PipelineResult, args) -> tuple[dict, None]:
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
    }, None


def _cmd_raw_factor(args) -> dict:
    poly = parse_poly(args.poly)
    pairs = [pair_record(pair) for ansatz in split_nonlinearity(poly)
             for pair in solve_scale_condition(ansatz)]
    return {"F_over_u": str(poly), "pairs": pairs}


def _cmd_verify(result: PipelineResult, args) -> tuple[dict, dict | None]:
    front = run_front(result, False, *FRONT_RUN)[0] if args.front else None
    return report_dict(result, front), front


def _cmd_simulate(result: PipelineResult, args) -> tuple[dict, dict]:
    # with --out, keep about 20 field snapshots for <slug>_field.csv; when the
    # step count is not a finite number, simulate_front rejects dt or T itself
    steps = args.tmax / args.dt if args.dt else math.inf
    every = max(1, int(round(steps / 20))) if args.out and math.isfinite(steps) else None
    front, sim = run_front(result, args.partner, (args.xmin, args.xmax, args.dx),
                           args.dt, args.tmax, every)
    if args.out:
        write_front_csv(Path(args.out) / f"{result.preset.slug}_front.csv", sim)
        write_snapshots_csv(Path(args.out) / f"{result.preset.slug}_field.csv", sim)
    return front, front


def _cmd_figures(result: PipelineResult, args) -> tuple[dict, None]:
    csv_path, svg_path = _write_figures(result, args.out or ".")
    return {"preset": result.preset.id, "csv": str(csv_path), "svg": str(svg_path)}, None


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
        sections, front = handler(result, args)
        # the verdict section ends every pipeline report, and the exit status
        # is its passes; verify's run record holds it already, in its place
        payload = {**sections, **verdict_record(result, front)}
        # a front run's summary line heads a text report only, so that a
        # --json stdout is one JSON document
        if front is not None and not args.json:
            print(summary_line(front["preset"], front["gamma"], front["fitted_speed"],
                               front["residual_max"]))
        _print(payload, args.json)
        return 0 if payload["passes"] else 1
    except (KinkFactorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
