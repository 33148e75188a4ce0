"""Named equation presets and the end-to-end pipeline.

Each preset fixes a reaction nonlinearity F(u).  The preset table validates
its parameters, and every valid F/u has the one shape that
:func:`~kinkfactor.factorizer.split_nonlinearity` splits:

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

import math
import re
import sys
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
from .powerpoly import MAX_ORDER, PowerPoly
from .susy import PartnerResult, reverse_partner
from .verify import ResidualReport, default_grid, residual_max

#: Residual threshold every preset's exact kinks must meet.
RESIDUAL_PASS = 1e-9

#: A front run fails when its fitted speed v has |v - gamma| above this
#: fraction of |gamma|.
SPEED_REL_TOL = 0.02


@dataclass(frozen=True)
class Preset:
    """A named equation instance; see the module docstring for the catalogue.

    The kind's row in :data:`_KINDS` names the parameter fields it uses; every
    other field must be None.
    """

    kind: str
    n: int | None = None
    A: float | None = None
    a: float | None = None
    fhn_branch: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown preset kind {self.kind!r}")
        params, _, valid, phrase = _KINDS[self.kind]
        fits = all(_fits(getattr(self, f), params.get(f)) for f in _FIELDS)
        if not (fits and valid(self)):  # valid() reads the fields, so they must fit
            raise DomainError(f"{self.kind} preset requires {phrase}")

    @property
    def id(self) -> str:
        shown = [_SHOW[typ](getattr(self, f)) for f, typ in _KINDS[self.kind][0].items()]
        return f"{self.kind}({','.join(shown)})" if shown else self.kind

    @property
    def slug(self) -> str:
        # the sign and the decimal point stay, so fhn(-2/5,1) and fhn(2/5,1),
        # and dto(3.7,4) and dto(3/7,4), write different files
        return re.sub(r"[^A-Za-z0-9.-]+", "_", self.id).strip("_")

    def family(self) -> Family:
        """The kind's family column; kept because perfbench/workloads.py calls it."""
        return _KINDS[self.kind][1]

    def F_over_u(self) -> PowerPoly:
        if self.kind == "dto":
            return PowerPoly([(0, self.A), (self.n - 2, -1.0)])
        if self.kind == "fhn":
            # (u - 1)(a - u) = -a + (1 + a) u - u^2
            return PowerPoly([(0, -self.a), (1, 1.0 + self.a), (2, -1.0)])
        # mt6 is fisher(6) and newell_whitehead is fisher(2)
        n = {"mt6": 6, "newell_whitehead": 2}.get(self.kind, self.n)
        return PowerPoly([(0, 1.0), (n, -1.0)])

    def ansatz_index(self) -> int:
        """Which ordered split realizes this preset.

        The first puts c2*(v - r_hi) in the inner bracket; fhn branch 1 takes
        the second, (u - r_lo) inner.
        """
        return 1 if (self.kind == "fhn" and self.fhn_branch == 1) else 0


#: The preset table, one row per kind: its parameter fields in id order mapped
#: to their types (int for an integer, float for a finite number), its template
#: family (read only by :meth:`Preset.family`), and its requirement as a
#: predicate and a phrase.
_KINDS = {
    "fisher": ({"n": int}, Family.DIFFERENCE, lambda p: 1 <= p.n <= MAX_ORDER,
               f"integer 1 <= n <= {MAX_ORDER}"),
    "mt6": ({}, Family.DIFFERENCE, lambda p: True, "no parameters"),
    "dto": ({"A": float, "n": int}, Family.DTO,
            lambda p: p.A > 0 and 4 <= p.n <= MAX_ORDER and p.n % 2 == 0,
            f"finite A > 0 and even integer 4 <= n <= {MAX_ORDER}"),
    "fhn": ({"a": float, "fhn_branch": int}, Family.QUADRATIC,
            lambda p: p.fhn_branch in (1, 2), "a finite parameter a and branch 1 or 2"),
    "newell_whitehead": ({}, Family.DIFFERENCE, lambda p: True, "no parameters"),
}
_FIELDS = ("n", "A", "a", "fhn_branch")


def _fits(value, typ: type | None) -> bool:
    """An unused field (typ None) holds None, a used one a finite value of its type.

    A bool is an int to Python but never a preset parameter.
    """
    if typ is None:
        return value is None
    # the comparison is exact for an int of any size, and fails for a NaN
    return (isinstance(value, int if typ is int else (int, float))
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


def _short_float(value: float) -> str:
    """The shortest text that reads back as ``value``: its shortest decimal, or
    the fraction with denominator at most 10^6 that equals it, which wins a tie."""
    frac = Fraction(value).limit_denominator(10**6)
    # repr's exponent drops its sign + and leading zeros: 1e+29 -> 1e29, 1e-06 -> 1e-6
    decimal = re.sub(r"e\+?(-?)0*", r"e\1", repr(float(value)))
    if float(frac) == value and len(str(frac)) <= len(decimal):
        return str(frac)
    return decimal


#: How a parameter of each type is written in a preset id.
_SHOW = {int: str, float: _short_float}


def _read(arg: str, typ: type) -> int | float:
    """A decimal int or float, or a fraction p/q (always a float)."""
    try:
        return float(Fraction(arg)) if "/" in arg else typ(arg)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"cannot read preset argument {arg!r} as {typ.__name__}") from None


_PRESET_RE = re.compile(r"^\s*([a-z_0-9]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_preset(text: str) -> Preset:
    """Parse preset ids like ``fisher(6)``, ``dto(2/9,4)``, ``fhn(3,1)``, ``nw``."""
    match = _PRESET_RE.match(text.lower())
    if not match:
        raise DomainError(f"cannot parse preset {text!r}")
    name, raw_args = match.groups()
    name = {"nw": "newell_whitehead"}.get(name, name)
    if name not in _KINDS:
        raise DomainError(f"unknown preset {name!r}")
    params = _KINDS[name][0]
    args = [s.strip() for s in raw_args.split(",")] if raw_args else []
    if len(args) != len(params):
        raise DomainError(f"preset {name} takes {len(params)} argument(s), got {len(args)}")
    values = {f: _read(arg, typ) for (f, typ), arg in zip(params.items(), args)}
    return Preset(kind=name, **values)


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
    """Everything the pipeline derives for one preset and velocity branch.

    ``partner_profile`` is the partner flow's kink, real or not, and None
    when that flow has no kink; ``partner_kink`` is it when it is real.
    """

    preset: Preset
    pairs: tuple[FactorizationPair, ...]
    pair: FactorizationPair
    ode: OdeSpec
    kink: KinkProfile
    partner: PartnerResult
    partner_profile: KinkProfile | None
    original_residual: ResidualReport
    partner_residual: ResidualReport | None

    @property
    def partner_kink(self) -> KinkProfile | None:
        profile = self.partner_profile
        return profile if profile is not None and profile.is_real_valued else None

    @property
    def rate_ratio(self) -> float | None:
        if self.partner_kink is None:
            return None
        return abs(self.partner_kink.rate / self.kink.rate)

    def passes(self) -> bool:
        """Every residual is below :data:`RESIDUAL_PASS`; a NaN residual fails."""
        reports = (self.original_residual, self.partner_residual)
        return all(r.max_abs_residual < RESIDUAL_PASS for r in reports if r is not None)


def run_pipeline(
    preset: Preset,
    gamma_sign: str = GAMMA_POSITIVE,
    xi0: float = 0.0,
) -> PipelineResult:
    """Factor the preset, build both kinks, reverse the brackets, verify."""
    if gamma_sign not in (GAMMA_POSITIVE, GAMMA_NEGATIVE):
        raise DomainError(f"gamma_sign must be positive or negative, got {gamma_sign}")

    splits = split_nonlinearity(preset.F_over_u())
    ansatz = splits[preset.ansatz_index()]
    pairs = tuple(solve_scale_condition(ansatz))

    matching = [p for p in pairs if p.branch == gamma_sign]
    if not matching:
        bound = ">= 0" if gamma_sign == GAMMA_POSITIVE else "< 0"
        raise UnsupportedFamilyError(f"no factorization with gamma {bound}; the velocities"
                                     f" found are {', '.join(f'{p.gamma:g}' for p in pairs)}")
    pair = matching[0]

    ode = expand_grouping(pair)
    kink = solve_binomial_flow(pair.phi1, pair.branch, xi0)
    partner = reverse_partner(pair)

    original_residual = residual_max(ode, kink, default_grid(kink))

    try:
        partner_profile = partner.kink(xi0)
    except UnsupportedFamilyError:
        # an F/u with no constant term has the root v = 0, so the partner flow
        # can be c*u, such as fhn(0,2)'s -sqrt(2)*u, with one fixed point and
        # no kink; any other refusal is a fault of the partner flow
        if preset.F_over_u().constant_term() != 0:
            raise
        partner_profile = None
    partner_residual = None
    if partner_profile is not None and partner_profile.is_real_valued:
        partner_residual = residual_max(
            partner.partner, partner_profile, default_grid(partner_profile)
        )

    return PipelineResult(
        preset=preset,
        pairs=pairs,
        pair=pair,
        ode=ode,
        kink=kink,
        partner=partner,
        partner_profile=partner_profile,
        original_residual=original_residual,
        partner_residual=partner_residual,
    )


def kink_record(kink: KinkProfile) -> dict:
    """The JSON record of one kink that ``verify`` and ``kink`` print.

    The closed form u = (core_sign*amplitude/(1 + e^{rate*(xi - shift)}))^inv_exponent
    is also given in tanh form under ``hyperbolic``.  The velocity branch is
    the report's, so the record does not repeat it.
    """
    return {
        "amplitude": kink.amplitude,
        "rate": kink.rate,
        "inv_exponent": str(kink.inv_exponent),
        "shift": kink.shift,
        "core_sign": kink.core_sign,
        "real_valued": kink.is_real_valued,
        "midpoint": kink.midpoint_value() if kink.is_real_valued else None,
        "hyperbolic": {
            "prefactor": kink.amplitude / 2.0,
            "kind": "tanh",
            "half_rate": kink.rate / 2.0,
            "power": str(kink.inv_exponent),
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


def pair_record(pair: FactorizationPair) -> dict:
    """The JSON record of one factorization pair: its velocity gamma, its
    branch word (the sign of gamma), the scale a and the two brackets.

    ``verify`` and ``factor`` print the selected pair's record at the top
    level of their reports; ``factor --poly`` lists one per pair.
    """
    return {
        "gamma": pair.gamma,
        "branch": pair.branch,
        "scale_a": pair.scale_a,
        "phi1": str(pair.phi1),
        "phi2": str(pair.phi2),
    }


def symbolic_record(result: PipelineResult) -> dict:
    """The symbolic section of a run's report, which ``verify`` and ``factor`` print.

    The preset id, the selected pair's :func:`pair_record`, the factored
    ``ode``, the preset's ``F_over_u`` and the ``velocities`` of every pair
    of the preset's split, in solver order.
    """
    return {
        "preset": result.preset.id,
        **pair_record(result.pair),
        "ode": str(result.ode),
        "F_over_u": str(result.preset.F_over_u()),
        "velocities": [p.gamma for p in result.pairs],
    }


def partner_record(result: PipelineResult) -> dict:
    """The partner section of a run's report: ``verify`` prints it under
    ``partner``, and ``partner`` prints it at its top level.

    The partner equation's ``ode``, ``F`` and ``gamma`` (the original's), the
    partner flow ``compatible_phi``, its ``kink`` (the :func:`kink_record`,
    real or not; null when the flow has no kink) and ``kink_is_real``.
    """
    return {
        "ode": str(result.partner.partner),
        "F": str(result.partner.partner.F),
        "gamma": result.partner.partner.gamma,
        "compatible_phi": str(result.partner.compatible_phi),
        "kink": kink_record(result.partner_profile) if result.partner_profile else None,
        "kink_is_real": result.partner_kink is not None,
    }


def verdict_record(result: PipelineResult, front: dict | None = None) -> dict:
    """The verdict section that ends every pipeline subcommand's report, and
    the one pass rule: the exit status is 0 iff its ``passes`` is true.

    ``residuals`` holds the residual scan of the original and of the partner
    kink (null without a real partner kink).  ``passes`` is
    :meth:`PipelineResult.passes`, and, when a front ran, also the front
    section's ``speed_matches_gamma``.
    """
    return {
        "residuals": {"original": _residual_dict(result.original_residual),
                      "partner": _residual_dict(result.partner_residual)},
        "passes": result.passes() and (front is None or front["speed_matches_gamma"]),
    }


def report_dict(result: PipelineResult, front: dict | None = None) -> dict:
    """The run record of a pipeline run, JSON-serializable; ``verify`` prints it.

    Its sections, in order: the :func:`symbolic_record`, the original
    ``kink`` (:func:`kink_record`), the :func:`partner_record` under
    ``partner``, the partner-to-original ``rate_ratio`` (null without a real
    partner kink), the :func:`verdict_record` (``residuals`` and ``passes``)
    judged with ``front``, and ``front`` when a front ran (``verify --front``
    passes its front run in).  The other subcommands print sections of this
    record, each ending with the verdict section: ``factor`` the symbolic
    one, ``partner`` the partner one and ``kink`` the kink record.
    """
    return {
        **symbolic_record(result),
        "kink": kink_record(result.kink),
        "partner": partner_record(result),
        "rate_ratio": result.rate_ratio,
        **verdict_record(result, front),
        **({} if front is None else {"front": front}),
    }
