"""Command-line front end: factor, kink, partner, verify, simulate, figures.

Every subcommand takes a preset (``--preset fisher(1)`` etc.), an optional
shift ``--xi0``, a velocity branch ``--branch positive|negative``, an output
directory ``--out`` and ``--json`` for machine-readable reports.  The same
fields may be supplied through a JSON scenario file (``--scenario``); explicit
flags override file values.  Exit status is 0 iff all residual checks pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import KinkFactorError
from .factorizer import Family, berkovich_convert, solve_scale_condition, split_nonlinearity
from .kinks import write_kink_csv
from .powerpoly import parse_poly
from .presets import (
    Preset,
    PipelineResult,
    parse_preset,
    report_dict,
    run_pipeline,
)
from .susy import second_reversal_check
from .verify import simulate_front, summary_line, write_front_csv, write_snapshots_csv

FIGURE_POINTS = 1001
FIGURE_WIDTHS = 10.0


# -- figures -------------------------------------------------------------------

def _figure_rows(result: PipelineResult) -> list[tuple[float, float, float]]:
    """(xi, u_original, u_susy) over xi0 +/- 10 original widths, 1001 points."""
    kink = result.kink
    susy = result.partner.kink(kink.shift).positive_twin()
    span = FIGURE_WIDTHS * kink.width
    lo = kink.shift - span
    step = 2.0 * span / (FIGURE_POINTS - 1)
    rows = []
    for i in range(FIGURE_POINTS):
        xi = lo + i * step
        rows.append((xi, kink.value(xi), susy.value(xi)))
    return rows


def _svg_ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


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

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y: float) -> float:
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    def polyline(idx: int, color: str) -> str:
        pts = " ".join(f"{sx(r[0]):.2f},{sy(r[idx]):.2f}" for r in rows)
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{pts}"/>'
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for tick in _svg_ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{height - mb}" x2="{px:.2f}" '
            f'y2="{height - mb + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{tick:.4g}</text>'
        )
    for tick in _svg_ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{tick:.4g}</text>'
        )
    parts.append(polyline(1, "#1f77b4"))
    parts.append(polyline(2, "#d62728"))
    parts.append(
        f'<text x="{width - mr - 10}" y="{mt + 16}" text-anchor="end" '
        'font-family="monospace" font-size="12" fill="#1f77b4">original</text>'
    )
    parts.append(
        f'<text x="{width - mr - 10}" y="{mt + 34}" text-anchor="end" '
        'font-family="monospace" font-size="12" fill="#d62728">partner</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_figures(preset: Preset, out_dir, xi0: float = 0.0,
                 gamma_sign: str = "positive") -> tuple[Path, Path]:
    """Write <slug>_kinks.csv and .svg comparing original and partner kinks.

    Output bytes are deterministic for fixed inputs.
    """
    return _write_figures(run_pipeline(preset, gamma_sign, xi0), out_dir)


def _write_figures(result: PipelineResult, out_dir) -> tuple[Path, Path]:
    rows = _figure_rows(result)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{result.preset.slug}_kinks.csv"
    svg_path = out / f"{result.preset.slug}_kinks.svg"
    with open(csv_path, "w", newline="") as fh:
        fh.write("xi,u_original,u_susy\n")
        for xi, u1, u2 in rows:
            fh.write(f"{xi:.17g},{u1:.17g},{u2:.17g}\n")
    svg_path.write_text(
        _render_svg(rows, f"{result.preset.id}: original and partner kinks")
    )
    return csv_path, svg_path


# -- argument handling ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--preset", help="preset id, e.g. fisher(1), mt6, dto(2/9,4)")
        p.add_argument("--xi0", type=float, default=None, help="kink shift (default 0)")
        p.add_argument(
            "--branch", choices=("positive", "negative"), default=None,
            help="velocity branch (default positive)",
        )
        p.add_argument("--out", default=None, help="output directory for files")
        p.add_argument("--json", action="store_true", default=None,
                       help="emit a JSON report on stdout")
        p.add_argument("--scenario", default=None,
                       help="JSON file with the same fields; flags override")

    for name, help_text in (
        ("factor", "show the factorization pairs and admissible velocities"),
        ("kink", "show the kink closed forms; with --out, sample to CSV"),
        ("partner", "show the reversed-bracket partner equation and its kink"),
        ("verify", "run residual checks for the original and partner kinks"),
        ("simulate", "measure the front speed in the reaction-diffusion PDE"),
        ("figures", "emit CSV and SVG comparing original and partner kinks"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name == "factor":
            p.add_argument("--poly", default=None,
                           help="factor a raw F(u)/u instead of a preset, "
                                'e.g. "2/9 - u^2"')
            p.add_argument("--family",
                           choices=[f.value for f in Family], default=None,
                           help="template family for --poly")
        if name == "verify":
            p.add_argument("--front", action="store_true",
                           help="append a PDE front-speed measurement")
        if name == "simulate":
            p.add_argument("--xmin", type=float, default=-40.0)
            p.add_argument("--xmax", type=float, default=40.0)
            p.add_argument("--dx", type=float, default=0.05)
            p.add_argument("--dt", type=float, default=1e-3)
            p.add_argument("--tmax", type=float, default=5.0)
            p.add_argument("--partner", action="store_true",
                           help="simulate the partner equation instead")
    return parser


def _apply_scenario(args: argparse.Namespace) -> None:
    defaults = {"xi0": 0.0, "branch": "positive", "out": None, "json": False}
    scenario = {}
    if args.scenario:
        scenario = json.loads(Path(args.scenario).read_text())
    for key, fallback in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, scenario.get(key, fallback))
    if args.preset is None and getattr(args, "poly", None) is None:
        if "preset" not in scenario:
            raise KinkFactorError("a preset is required (flag or scenario file)")
        args.preset = scenario["preset"]


def _print(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


# -- subcommand implementations ---------------------------------------------------

def _cmd_factor(result: PipelineResult, args) -> dict:
    f1b, f2b = berkovich_convert(result.pair)
    return {
        "preset": result.preset.id,
        "F_over_u": str(result.preset.F_over_u()),
        "velocities": [p.gamma for p in result.pairs],
        "selected_gamma": result.pair.gamma,
        "scale_a": result.pair.scale_a,
        "phi1": str(result.pair.phi1),
        "phi2": str(result.pair.phi2),
        "ode": str(result.ode),
        "berkovich_f1b": str(f1b),
        "berkovich_f2b": str(f2b),
    }


def _cmd_kink(result: PipelineResult, args) -> dict:
    kink = result.kink
    hyp = kink.to_hyperbolic()
    payload = {
        "preset": result.preset.id,
        "gamma": result.pair.gamma,
        "amplitude": kink.amplitude,
        "rate": kink.rate,
        "inv_exponent": str(kink.inv_exponent),
        "hyperbolic_half_rate": hyp.half_rate,
        "hyperbolic_kind": hyp.kind,
        "midpoint": kink.midpoint_value(),
        "width": kink.width,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{result.preset.slug}_kink.csv"
        write_kink_csv(path, kink)
        payload["csv"] = str(path)
    return payload


def _cmd_partner(result: PipelineResult, args) -> dict:
    partner_kink = result.partner.kink(result.kink.shift)
    report = second_reversal_check(result.preset.order)
    return {
        "preset": result.preset.id,
        "gamma": result.partner.partner.gamma,
        "partner_F": str(result.partner.partner.F),
        "partner_ode": str(result.partner.partner),
        "compatible_phi": str(result.partner.compatible_phi),
        "partner_rate": partner_kink.rate,
        "partner_kink_real": partner_kink.is_real_valued,
        "rate_ratio": result.rate_ratio,
        "second_reversal": report.status,
        "second_reversal_defect": str(report.condition_defect),
    }


def _cmd_raw_factor(args) -> dict:
    if args.family is None:
        raise KinkFactorError("--poly requires --family")
    poly = parse_poly(args.poly)
    pairs = []
    for ansatz in split_nonlinearity(poly, Family(args.family)):
        for pair in solve_scale_condition(ansatz):
            pairs.append({
                "phi1": str(pair.phi1),
                "phi2": str(pair.phi2),
                "scale_a": pair.scale_a,
                "gamma": pair.gamma,
                "branch": pair.branch,
            })
    return {"F_over_u": str(poly), "family": args.family, "pairs": pairs}


def _cmd_verify(result: PipelineResult, args) -> dict:
    payload = report_dict(result)
    if args.front:
        sim = simulate_front(result.ode.F, result.kink,
                             (-40.0, 40.0, 0.05), 1e-3, 5.0)
        payload["front"] = {
            "fitted_speed": sim.fitted_speed,
            "fit_residual": sim.fit_residual,
            "level": sim.level,
        }
        print(summary_line(result.preset.id, result.pair.gamma,
                           sim.fitted_speed,
                           result.original_residual.max_abs_residual))
    return payload


def _cmd_simulate(result: PipelineResult, args) -> dict:
    if args.partner:
        kink = result.partner_kink
        if kink is None:
            raise KinkFactorError(
                "partner kink is not real-valued; nothing to simulate"
            )
        F = result.partner.partner.F
        label = f"{result.preset.id}:partner"
    else:
        kink = result.kink
        F = result.ode.F
        label = result.preset.id
    grid = (args.xmin, args.xmax, args.dx)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        sim, snapshots = simulate_front(
            F, kink, grid, args.dt, args.tmax,
            snapshot_every=max(1, int(round(args.tmax / args.dt / 20))),
        )
        write_front_csv(out / f"{result.preset.slug}_front.csv", sim)
        write_snapshots_csv(out / f"{result.preset.slug}_field.csv", grid, snapshots)
    else:
        sim = simulate_front(F, kink, grid, args.dt, args.tmax)
    print(summary_line(label, result.pair.gamma, sim.fitted_speed,
                       result.original_residual.max_abs_residual))
    return {
        "preset": label,
        "gamma": result.pair.gamma,
        "fitted_speed": sim.fitted_speed,
        "fit_residual": sim.fit_residual,
        "level": sim.level,
        "speed_matches_gamma": abs(abs(sim.fitted_speed) - abs(result.pair.gamma))
        <= 0.02 * abs(result.pair.gamma),
    }


def _cmd_figures(result: PipelineResult, args) -> dict:
    csv_path, svg_path = _write_figures(result, args.out or ".")
    return {"preset": result.preset.id, "csv": str(csv_path), "svg": str(svg_path)}


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
        handler = {
            "factor": _cmd_factor,
            "kink": _cmd_kink,
            "partner": _cmd_partner,
            "verify": _cmd_verify,
            "simulate": _cmd_simulate,
            "figures": _cmd_figures,
        }[args.command]
        payload = handler(result, args)
        _print(payload, args.json)
        return 0 if result.passes() else 1
    except (KinkFactorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
