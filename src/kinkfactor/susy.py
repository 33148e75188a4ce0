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

Reversal is deliberately not iterated.  The partner's F~/u does factor
again: :func:`~kinkfactor.factorizer.split_nonlinearity` and
:func:`~kinkfactor.factorizer.solve_scale_condition` on it give a pair at the
inherited gamma for every standard preset.  What is obstructed is the other
bracket ordering of F~/u, whose velocity differs from gamma: 2.3814 against
2.0412 for fisher(1), 8.125 against 2.5 for mt6, 1.5 against 1.0 for
dto(2/9,4) and 8.1317 against 3.5355 for fhn(3,1).
:func:`second_reversal_check` gives that mismatch in closed form for the
Fisher form of order n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .factorizer import FactorizationPair, OdeSpec
from .kinks import KinkProfile, solve_binomial_flow
from .powerpoly import PowerPoly, mul


@dataclass(frozen=True)
class PartnerResult:
    """Outcome of one bracket reversal.

    The partner kink is the solution of u' = f2*u, f2 the outer factor of the
    source pair.  The partner always inherits gamma.
    """

    partner: OdeSpec
    source: FactorizationPair

    @property
    def compatible_phi(self) -> PowerPoly:
        """The outer factor f2 of the source pair, the partner kink's flow."""
        return self.source.phi2

    def kink(self, xi0: float = 0.0) -> KinkProfile:
        """The partner kink, i.e. the kink of the compatible flow, on the
        source pair's velocity branch."""
        return solve_binomial_flow(self.compatible_phi, self.source.branch, xi0)


def reverse_partner(pair: FactorizationPair) -> PartnerResult:
    """Reorder the brackets of ``pair`` and reduce to constant friction.

    With f1 = pair.phi1 (inner) and f2 = pair.phi2 (outer), the partner
    nonlinearity is F~ = u*[f1*f2 + (f1' - f2')*f2*u]; the derivative
    difference is assembled as u*d/du quantities so fractional exponents
    below one never appear.
    """
    f1, f2 = pair.phi1, pair.phi2
    correction = mul(f1.u_deriv() - f2.u_deriv(), f2)   # (f1'-f2')*f2*u
    f_tilde = (mul(f1, f2) + correction).times_u()
    return PartnerResult(
        partner=OdeSpec(gamma=pair.gamma, F=f_tilde),
        source=pair,
    )


@dataclass(frozen=True)
class SecondReversalReport:
    """Whether the other bracket ordering of a partner keeps the inherited velocity.

    The order-n Fisher partner's F~/u splits as (1 + u^{n/2})(1 - h^4 u^{n/2})
    with h^2 = n/2 + 1.  The opposite ordering of that split factors the
    partner at the inherited velocity h + 1/h; this ordering fixes the scale
    to +/- h^3 and the velocity to h^3 + h^-3, which equals h + 1/h only when
    (h^2 - 1)^2 (h^2 + 1) = 0, i.e. n = 0 (linear) or n = -4 (a Milne-Pinney
    equation, out of scope beyond detection).  ``condition_defect`` is that
    product as an exact rational; zero means solvable.  ``gamma_mismatch`` is
    (h^3 + h^-3) - (h + 1/h).
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
