"""Bracket reversal: partner equations in the supersymmetric pairing style.

A factorization ``[D - f2][D - f1]u = 0`` of u'' + gamma*u' + F(u) = 0 can have
its brackets reordered to ``[D - f1][D - f2]u = 0``.  The reordered operator
equation has a u-dependent friction term, but every solution of the inner flow
u' = f2*u also satisfies the unique constant-friction equation

    u'' + gamma*u' + F~(u) = 0,
    F~(u) = u * [ f1*f2 + (df1/du - df2/du) * f2 * u ],

obtained by substituting the flow into the non-constant part.  This is the
partner equation: same velocity gamma, different polynomial nonlinearity, and
a kink of different width generated by u' = f2*u.

Reversal is deliberately not iterated: the partner's velocity is already
pinned to the discrete family value, and re-applying the construction is
solvable only at exceptional polynomial orders (see
:func:`second_reversal_check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import KinkFactorError
from .factorizer import FactorizationPair, OdeSpec
from .kinks import KinkProfile, solve_binomial_flow
from .powerpoly import PowerPoly, mul


@dataclass(frozen=True)
class PartnerResult:
    """Outcome of one bracket reversal.

    ``compatible_phi`` is the outer factor f2 of the source pair; the partner
    kink is the solution of u' = f2*u.  The partner always inherits gamma.
    """

    partner: OdeSpec
    compatible_phi: PowerPoly
    source: FactorizationPair

    def kink(self, xi0: float = 0.0) -> KinkProfile:
        """The partner kink, i.e. the kink of the compatible flow."""
        sign = "positive" if self.source.gamma >= 0 else "negative"
        return solve_binomial_flow(self.compatible_phi, sign, xi0)

    def has_real_kink(self) -> bool:
        """Whether the compatible flow's kink is real-valued.

        Flows with a negative second fixed point produce a real kink only when
        the outer power 1/m has an odd reduced denominator (odd real root).
        """
        try:
            return self.kink().is_real_valued
        except KinkFactorError:
            return False


def reverse_partner(pair: FactorizationPair) -> PartnerResult:
    """Reorder the brackets of ``pair`` and reduce to constant friction.

    With f1 = pair.phi1 (inner) and f2 = pair.phi2 (outer), the partner
    nonlinearity is F~ = u*[f1*f2 + (f1' - f2')*f2*u]; the derivative
    difference is assembled as u*d/du quantities so fractional exponents
    below one never appear.
    """
    pair.validate()
    f1, f2 = pair.phi1, pair.phi2
    correction = mul(f1.u_deriv() - f2.u_deriv(), f2)   # (f1'-f2')*f2*u
    f_tilde = (mul(f1, f2) + correction).times_u()
    return PartnerResult(
        partner=OdeSpec(gamma=pair.gamma, F=f_tilde),
        compatible_phi=f2,
        source=pair,
    )


def operator_expansion_partner(pair: FactorizationPair) -> PowerPoly:
    """Independent route to the partner nonlinearity via symbolic expansion.

    Expand [D - f1][D - f2]u = u'' - (u*f2' + f1 + f2)u' + f1*f2*u directly,
    then substitute u*u' -> f2*u^2 in the u-dependent friction part.  The
    u-dependent friction is (u*f2' + f1 + f2) - (-gamma) by the source pair's
    constant-friction condition, so the substituted terms are
    -(u*f2' - u*f1')*f2*u added to f1*f2*u.
    """
    f1, f2 = pair.phi1, pair.phi2
    residual_friction = f2.u_deriv() + f1 + f2   # equals -gamma + (u*f2' - u*f1')
    # subtract the constant part; what remains multiplies u' and is absorbed
    u_dependent = residual_friction - PowerPoly([(0, residual_friction.constant_term())])
    absorbed = mul(u_dependent, f2).times_u()    # (u-dependent)*f2*u
    return mul(f1, f2).times_u() - absorbed


@dataclass(frozen=True)
class SecondReversalReport:
    """Feasibility of re-reversing a partner equation at its inherited velocity.

    The re-factorization templates for the partner nonlinearity
    (1 + u^{n/2})(1 - h^4 u^{n/2}) fix the new scale to +/- h^3, which is
    compatible with the inherited velocity only when
    (h^2 - 1)^2 (h^2 + 1) = 0 with h^2 = n/2 + 1, i.e. n = 0 (linear) or
    n = -4 (a Milne-Pinney equation, out of scope beyond detection).
    ``condition_defect`` is that product as an exact rational; zero means
    solvable.
    """

    n: int
    solvable: bool
    condition_defect: Fraction
    linear: bool
    milne_pinney: bool
    scale_tilde: float | None
    gamma_mismatch: float | None

    @property
    def status(self) -> str:
        return "solvable" if self.solvable else "obstructed"


def second_reversal_check(n: int) -> SecondReversalReport:
    """Report whether a second bracket reversal is possible at order n."""
    h2 = Fraction(n, 2) + 1
    defect = (h2 - 1) ** 2 * (h2 + 1)
    solvable = defect == 0

    scale_tilde = None
    gamma_mismatch = None
    if h2 > 0:
        h = math.sqrt(float(h2))
        scale_tilde = h ** 3
        gamma_mismatch = (h ** 3 + h ** -3) - (h + 1.0 / h)

    return SecondReversalReport(
        n=n,
        solvable=solvable,
        condition_defect=defect,
        linear=(n == 0),
        milne_pinney=(n == -4),
        scale_tilde=scale_tilde,
        gamma_mismatch=gamma_mismatch,
    )
