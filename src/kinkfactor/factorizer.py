"""Operator-bracket factorization of u'' + gamma*u' + F(u) = 0.

Writing the equation as ``[D - phi2(u)] [D - phi1(u)] u = 0`` and expanding
gives

    u'' - (u*dphi1/du + phi1 + phi2) u' + phi1*phi2*u = 0,

so a valid factorization must satisfy two conditions:

    phi1 * phi2 = F(u) / u                     (product condition)
    u*dphi1/du + phi1 + phi2 = -gamma          (constant-friction condition)

Given a split of F/u into two binomial templates P*Q, we set phi1 = a*P and
phi2 = Q/a and solve the constant-friction condition for the scale a by
coefficient matching: every u-dependent coefficient must vanish exactly, which
yields a quadratic in a, and the surviving constant part fixes gamma.  Both
real roots are kept; they give the two velocity branches gamma > 0 and
gamma < 0.

The alternative grouping that keeps the whole friction factor on the brackets
("f1b/f2b" form, with f1b + f2b = -gamma) is related to the grouping above by
``f2b = phi2 + u*dphi1/du`` and is exposed via :func:`berkovich_convert`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    DomainError,
    InconsistentFactorizationError,
    InfeasibleFactorizationError,
    UnsupportedFamilyError,
)
from .powerpoly import PowerPoly, mul

#: Largest admissible magnitude for a u-dependent coefficient of the friction
#: polynomial of a valid factorization pair.
FRICTION_TOLERANCE = 1e-10


class Family(str, Enum):
    """Supported shapes of F(u)/u for :func:`split_nonlinearity`."""

    DIFFERENCE = "difference"   # c - c*u^n      (generalized Fisher)
    DTO = "dto"                 # A - B*u^(n-2)  (damped anharmonic oscillator)
    QUADRATIC = "quadratic"     # quadratic in u with real roots (FitzHugh-Nagumo)


@dataclass(frozen=True)
class FactorAnsatz:
    """An ordered split F/u = P*Q before the scale has been fixed."""

    P: PowerPoly
    Q: PowerPoly

    def product(self) -> PowerPoly:
        return mul(self.P, self.Q)


@dataclass(frozen=True)
class FactorizationPair:
    """A concrete factorization phi1 = a*P, phi2 = Q/a with its velocity.

    ``branch`` tags the velocity family: "upper" for gamma >= 0, "lower" for
    gamma < 0.  The friction polynomial u*dphi1/du + phi1 + phi2 of a valid
    pair is constant and equals -gamma.
    """

    phi1: PowerPoly
    phi2: PowerPoly
    scale_a: float
    gamma: float
    branch: str

    def friction(self) -> PowerPoly:
        return friction_poly(self.phi1, self.phi2)

    def validate(self, tol: float = FRICTION_TOLERANCE) -> None:
        fric = self.friction()
        for exp, coeff in fric.terms:
            if exp != 0 and abs(coeff) > tol:
                raise InconsistentFactorizationError(
                    f"friction term has non-constant coefficient {coeff:g} at u^{exp}"
                )
        if abs(fric.constant_term() + self.gamma) > tol:
            raise InconsistentFactorizationError(
                f"friction constant {fric.constant_term():g} != -gamma = {-self.gamma:g}"
            )


@dataclass(frozen=True)
class OdeSpec:
    """A concrete equation u'' + gamma*u' + F(u) = 0."""

    gamma: float
    F: PowerPoly

    def __str__(self) -> str:
        return f"u'' + {self.gamma:.12g} u' + ({self.F}) = 0"


def friction_poly(phi1: PowerPoly, phi2: PowerPoly) -> PowerPoly:
    """The u'-coefficient polynomial u*dphi1/du + phi1 + phi2 (negated gamma)."""
    return phi1.u_deriv() + phi1 + phi2


def split_nonlinearity(F_over_u: PowerPoly, family: Family) -> list[FactorAnsatz]:
    """Split F/u into every supported ordered pair of binomial templates.

    Both orderings are returned because assigning the scale to the other
    factor produces a genuinely different bracket pair for the same equation.
    """
    if family == Family.DIFFERENCE:
        return _split_difference(F_over_u)
    if family == Family.DTO:
        return _split_dto(F_over_u)
    if family == Family.QUADRATIC:
        return _split_quadratic(F_over_u)
    raise UnsupportedFamilyError(f"unknown family {family!r}")


def _two_term_shape(p: PowerPoly) -> tuple[float, Fraction, float]:
    """Return (c0, exp, c_exp) for a poly of shape c0 + c_exp*u^exp, exp > 0."""
    shape = p.binomial()
    if shape is None:
        raise UnsupportedFamilyError(f"expected 'c0 + c*u^p' shape, got {p}")
    return shape


def _split_difference(F_over_u: PowerPoly) -> list[FactorAnsatz]:
    """The difference family c*(1 - u^n) is the oscillator case A = B = c."""
    c0, exp, cn = _two_term_shape(F_over_u)
    if c0 <= 0 or not math.isclose(cn, -c0, rel_tol=1e-12):
        raise UnsupportedFamilyError(
            f"difference family requires c*(1 - u^n) with c > 0, got {F_over_u}"
        )
    return _split_dto(PowerPoly([(0, c0), (exp, -c0)]))


def _split_dto(F_over_u: PowerPoly) -> list[FactorAnsatz]:
    c0, exp, cn = _two_term_shape(F_over_u)
    if c0 <= 0 or cn >= 0:
        raise UnsupportedFamilyError(
            f"oscillator family requires A - B*u^p with A, B > 0, got {F_over_u}"
        )
    root_a = math.sqrt(c0)
    root_b = math.sqrt(-cn)
    half = exp / 2
    minus = PowerPoly([(0, root_a), (half, -root_b)])
    plus = PowerPoly([(0, root_a), (half, root_b)])
    return [FactorAnsatz(minus, plus), FactorAnsatz(plus, minus)]


def _split_quadratic(F_over_u: PowerPoly) -> list[FactorAnsatz]:
    c0 = F_over_u.coefficient(0)
    c1 = F_over_u.coefficient(1)
    c2 = F_over_u.coefficient(2)
    if any(e not in (0, 1, 2) for e in F_over_u.exponents()) or c2 == 0.0:
        raise UnsupportedFamilyError(
            f"quadratic family requires degree-2 polynomial in u, got {F_over_u}"
        )
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0:
        raise UnsupportedFamilyError(
            f"quadratic family requires real roots, discriminant = {disc:g}"
        )
    sq = math.sqrt(disc)
    r1 = (-c1 - sq) / (2.0 * c2)
    r2 = (-c1 + sq) / (2.0 * c2)
    r1, r2 = min(r1, r2), max(r1, r2)
    first = PowerPoly([(0, -r1), (1, 1.0)])              # (u - r1)
    second = PowerPoly([(0, -r2 * c2), (1, c2)])         # c2*(u - r2)
    return [FactorAnsatz(first, second), FactorAnsatz(second, first)]


def solve_scale_condition(ansatz: FactorAnsatz) -> list[FactorizationPair]:
    """Fix the scale a in phi1 = a*P, phi2 = Q/a by coefficient matching.

    For every u-dependent exponent the condition
    ``a*(e+1)*P_e + Q_e/a = 0`` must hold, which is a quadratic in a after
    clearing 1/a.  All real nonzero roots are returned sorted ascending, each
    with its velocity gamma = -(a*P_0 + Q_0/a).
    """
    P, Q = ansatz.P, ansatz.Q
    if len(P.terms) > 2 or len(Q.terms) > 2:
        raise UnsupportedFamilyError("scale condition supports binomial templates only")

    exps = {e for e in P.exponents() if e != 0} | {e for e in Q.exponents() if e != 0}
    if not exps:
        raise InfeasibleFactorizationError(
            "both templates are constant; the scale is underdetermined"
        )

    a_squared: float | None = None
    for e in sorted(exps):
        lever = float(e + 1) * P.coefficient(e)   # from u*d(aP)/du + aP
        load = Q.coefficient(e)
        if lever == 0.0:
            if abs(load) > 0.0:
                raise InfeasibleFactorizationError(
                    f"u^{e} appears only in Q; no scale can cancel it"
                )
            continue
        candidate = -load / lever
        if candidate <= 0.0:
            raise InfeasibleFactorizationError(
                f"scale condition gives a^2 = {candidate:g} <= 0 at u^{e}"
            )
        if a_squared is None:
            a_squared = candidate
        elif not math.isclose(a_squared, candidate, rel_tol=1e-9):
            raise InfeasibleFactorizationError(
                "scale condition is overdetermined with incompatible exponents"
            )
    if a_squared is None:
        raise InfeasibleFactorizationError("no u-dependent term constrains the scale")

    root = math.sqrt(a_squared)
    pairs = []
    for a in sorted((-root, root)):
        gamma = -(a * P.constant_term() + Q.constant_term() / a)
        pair = FactorizationPair(
            phi1=P.scale(a),
            phi2=Q.scale(1.0 / a),
            scale_a=a,
            gamma=gamma,
            branch="upper" if gamma >= 0 else "lower",
        )
        pair.validate()
        pairs.append(pair)
    return pairs


def expand_grouping(pair: FactorizationPair) -> OdeSpec:
    """Reassemble the second-order equation encoded by a factorization pair."""
    pair.validate()
    return OdeSpec(gamma=pair.gamma, F=mul(pair.phi1, pair.phi2).times_u())


def berkovich_convert(pair: FactorizationPair) -> tuple[PowerPoly, PowerPoly]:
    """Convert to the sum-form grouping (f1b, f2b) with f1b + f2b = -gamma."""
    f1b = pair.phi1
    f2b = pair.phi2 + pair.phi1.u_deriv()
    return f1b, f2b


def phi2_from_berkovich(f1b: PowerPoly, f2b: PowerPoly) -> PowerPoly:
    """Inverse of :func:`berkovich_convert`: phi2 = f2b - u*df1b/du."""
    return f2b - f1b.u_deriv()


def rescale_frame(ode: OdeSpec, k: float) -> OdeSpec:
    """Rescale the travelling coordinate by k: gamma -> gamma/k, F -> F/k^2.

    Kinks of the result are the original kinks with their argument scaled
    by k.  The map is a group action: rescaling by k then 1/k is the identity.
    """
    if k <= 0:
        raise DomainError(f"frame scale must be positive, got {k}")
    return OdeSpec(gamma=ode.gamma / k, F=ode.F.scale(1.0 / (k * k)))
