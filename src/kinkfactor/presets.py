"""Named equation presets and the end-to-end pipeline.

Each preset fixes a reaction nonlinearity F(u) and the template family used
to split F/u:

* ``fisher(n)``         u'' + gamma u' + u(1 - u^n) = 0, integer n >= 1
* ``mt6``               the n = 6 microtubule-polymerization framing of fisher(6)
* ``dto(A, n)``         u'' + gamma u' + u(A - u^{n-2}) = 0, A > 0, even n >= 4
* ``fhn(a, branch)``    u'' + gamma u' + u(u-1)(a-u) = 0 with the two
                        inequivalent factor orderings as branch 1 / branch 2
* ``newell_whitehead``  the a = -1 case, which coincides with fisher(2)

The pipeline runs: split -> scale condition -> kink -> bracket reversal ->
partner kink -> residual verification, optionally followed by a
reaction-diffusion front-speed measurement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UnsupportedFamilyError
from .factorizer import (
    FactorizationPair,
    Family,
    OdeSpec,
    expand_grouping,
    solve_scale_condition,
    split_nonlinearity,
)
from .kinks import GAMMA_NEGATIVE, GAMMA_POSITIVE, KinkProfile, solve_binomial_flow
from .powerpoly import PowerPoly
from .susy import PartnerResult, reverse_partner
from .verify import ResidualReport, default_grid, residual_max

#: Residual threshold every preset's exact kinks must meet.
RESIDUAL_PASS = 1e-9


@dataclass(frozen=True)
class Preset:
    """A named equation instance; see the module docstring for the catalogue."""

    kind: str
    n: int | None = None
    A: float | None = None
    a: float | None = None
    fhn_branch: int | None = None

    def __post_init__(self):
        if self.kind == "fisher":
            if self.n is None or self.n < 1:
                raise DomainError("fisher preset requires integer n >= 1")
        elif self.kind == "mt6":
            pass
        elif self.kind == "dto":
            if self.A is None or self.A <= 0:
                raise DomainError("dto preset requires A > 0")
            if self.n is None or self.n < 4 or self.n % 2:
                raise DomainError("dto preset requires even integer n >= 4")
        elif self.kind == "fhn":
            if self.a is None:
                raise DomainError("fhn preset requires a real parameter a")
            if self.fhn_branch not in (1, 2):
                raise DomainError("fhn preset requires branch 1 or 2")
        elif self.kind == "newell_whitehead":
            pass
        else:
            raise DomainError(f"unknown preset kind {self.kind!r}")

    @property
    def id(self) -> str:
        if self.kind == "fisher":
            return f"fisher({self.n})"
        if self.kind == "dto":
            return f"dto({_short_float(self.A)},{self.n})"
        if self.kind == "fhn":
            return f"fhn({_short_float(self.a)},{self.fhn_branch})"
        return self.kind

    @property
    def slug(self) -> str:
        return re.sub(r"[^A-Za-z0-9]+", "_", self.id).strip("_")

    def family(self) -> Family:
        if self.kind in ("fisher", "mt6", "newell_whitehead"):
            return Family.DIFFERENCE
        if self.kind == "dto":
            return Family.DTO
        return Family.QUADRATIC

    @property
    def order(self) -> int:
        """Order n of the preset; mt6 is 6, newell_whitehead and quadratic fhn are 2."""
        return {"mt6": 6, "newell_whitehead": 2, "fhn": 2}.get(self.kind, self.n)

    def F_over_u(self) -> PowerPoly:
        if self.kind in ("fisher", "mt6", "newell_whitehead"):
            return PowerPoly([(0, 1.0), (self.order, -1.0)])
        if self.kind == "dto":
            return PowerPoly([(0, self.A), (self.n - 2, -1.0)])
        # fhn: (u - 1)(a - u) = -a + (1 + a) u - u^2
        a = self.a
        return PowerPoly([(0, -a), (1, 1.0 + a), (2, -1.0)])

    def F(self) -> PowerPoly:
        return self.F_over_u().times_u()

    def ansatz_index(self) -> int:
        """Which ordered split realizes this preset (fhn branch 2 swaps)."""
        return 1 if (self.kind == "fhn" and self.fhn_branch == 2) else 0


def _short_float(value: float) -> str:
    frac = Fraction(value).limit_denominator(10**6)
    if abs(float(frac) - value) < 1e-15:
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    return f"{value:g}"


_PRESET_RE = re.compile(r"^\s*([a-z_0-9]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_preset(text: str) -> Preset:
    """Parse preset ids like ``fisher(6)``, ``dto(2/9,4)``, ``fhn(3,1)``."""
    match = _PRESET_RE.match(text.lower())
    if not match:
        raise DomainError(f"cannot parse preset {text!r}")
    name, raw_args = match.group(1), match.group(2)
    args = [s.strip() for s in raw_args.split(",")] if raw_args else []

    def as_number(s: str) -> float:
        return float(Fraction(s)) if "/" in s else float(s)

    if name == "fisher":
        if len(args) != 1:
            raise DomainError("fisher preset takes one argument: fisher(n)")
        return Preset(kind="fisher", n=int(args[0]))
    if name == "mt6":
        return Preset(kind="mt6")
    if name == "dto":
        if len(args) != 2:
            raise DomainError("dto preset takes two arguments: dto(A, n)")
        return Preset(kind="dto", A=as_number(args[0]), n=int(args[1]))
    if name == "fhn":
        if len(args) != 2:
            raise DomainError("fhn preset takes two arguments: fhn(a, branch)")
        return Preset(kind="fhn", a=as_number(args[0]), fhn_branch=int(args[1]))
    if name in ("newell_whitehead", "nw"):
        return Preset(kind="newell_whitehead")
    raise DomainError(f"unknown preset {name!r}")


STANDARD_PRESETS = (
    "fisher(1)",
    "fisher(2)",
    "mt6",
    "dto(2/9,4)",
    "dto(3/16,6)",
    "fhn(3,1)",
    "fhn(3,2)",
    "newell_whitehead",
)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the pipeline derives for one preset and velocity branch."""

    preset: Preset
    pairs: tuple[FactorizationPair, ...]
    pair: FactorizationPair
    ode: OdeSpec
    kink: KinkProfile
    partner: PartnerResult
    partner_kink: KinkProfile | None
    original_residual: ResidualReport
    partner_residual: ResidualReport | None

    @property
    def rate_ratio(self) -> float | None:
        if self.partner_kink is None:
            return None
        return abs(self.partner_kink.rate / self.kink.rate)

    def passes(self, tol: float = RESIDUAL_PASS) -> bool:
        """Every residual is below ``tol``; a NaN residual fails."""
        reports = (self.original_residual, self.partner_residual)
        return all(r.max_abs_residual < tol for r in reports if r is not None)


def run_pipeline(
    preset: Preset,
    gamma_sign: str = GAMMA_POSITIVE,
    xi0: float = 0.0,
) -> PipelineResult:
    """Factor the preset, build both kinks, reverse the brackets, verify."""
    if gamma_sign not in (GAMMA_POSITIVE, GAMMA_NEGATIVE):
        raise DomainError(f"gamma_sign must be positive or negative, got {gamma_sign}")

    splits = split_nonlinearity(preset.F_over_u(), preset.family())
    ansatz = splits[preset.ansatz_index()]
    pairs = tuple(solve_scale_condition(ansatz))

    want_positive = gamma_sign == GAMMA_POSITIVE
    matching = [p for p in pairs if (p.gamma >= 0) == want_positive]
    if not matching:
        raise UnsupportedFamilyError(
            f"no factorization with gamma {'>= 0' if want_positive else '< 0'}"
        )
    pair = matching[0]

    ode = expand_grouping(pair)
    kink = solve_binomial_flow(pair.phi1, gamma_sign, xi0)
    partner = reverse_partner(pair)

    original_residual = residual_max(ode, kink, default_grid(kink))

    partner_kink = None
    partner_residual = None
    candidate = partner.kink(xi0)
    if candidate.is_real_valued:
        partner_kink = candidate
        partner_residual = residual_max(
            partner.partner, partner_kink, default_grid(partner_kink)
        )

    return PipelineResult(
        preset=preset,
        pairs=pairs,
        pair=pair,
        ode=ode,
        kink=kink,
        partner=partner,
        partner_kink=partner_kink,
        original_residual=original_residual,
        partner_residual=partner_residual,
    )


def _kink_dict(kink: KinkProfile) -> dict:
    hyp = kink.to_hyperbolic()
    return {
        "amplitude": kink.amplitude,
        "rate": kink.rate,
        "inv_exponent": str(kink.inv_exponent),
        "shift": kink.shift,
        "branch": kink.branch,
        "gamma_sign": kink.gamma_sign,
        "core_sign": kink.core_sign,
        "real_valued": kink.is_real_valued,
        "midpoint": kink.midpoint_value() if kink.is_real_valued else None,
        "hyperbolic": {
            "prefactor": hyp.prefactor,
            "kind": hyp.kind,
            "half_rate": hyp.half_rate,
            "power": str(hyp.power),
        },
        "note": kink.note,
    }


def _residual_dict(report: ResidualReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "max_abs_residual": report.max_abs_residual,
        "argmax_xi": report.argmax_xi,
        "grid": list(report.grid),
    }


def report_dict(result: PipelineResult) -> dict:
    """JSON-serializable report of a pipeline run."""
    return {
        "preset": result.preset.id,
        "gamma": result.pair.gamma,
        "branch": result.pair.branch,
        "scale_a": result.pair.scale_a,
        "phi1": str(result.pair.phi1),
        "phi2": str(result.pair.phi2),
        "ode": str(result.ode),
        "F_over_u": str(result.preset.F_over_u()),
        "velocities": [p.gamma for p in result.pairs],
        "kink": _kink_dict(result.kink),
        "partner": {
            "ode": str(result.partner.partner),
            "F": str(result.partner.partner.F),
            "gamma": result.partner.partner.gamma,
            "compatible_phi": str(result.partner.compatible_phi),
            "kink": _kink_dict(result.partner.kink(result.kink.shift)),
            "kink_is_real": result.partner_kink is not None,
        },
        "rate_ratio": result.rate_ratio,
        "residuals": {
            "original": _residual_dict(result.original_residual),
            "partner": _residual_dict(result.partner_residual),
        },
        "passes": result.passes(),
    }
