"""Operator-bracket factorization of u'' + gamma*u' + F(u) = 0.

Writing the equation as ``[D - phi2(u)] [D - phi1(u)] u = 0`` and expanding
gives

    u'' - (u*dphi1/du + phi1 + phi2) u' + phi1*phi2*u = 0,

so a valid factorization must satisfy two conditions:

    phi1 * phi2 = F(u) / u                     (product condition)
    u*dphi1/du + phi1 + phi2 = -gamma          (constant-friction condition)

Every supported F/u has one shape, c0 + c1*v + c2*v^2 in v = u^h with real
roots r_lo <= r_hi, where h is half its top exponent.  It splits into the
binomial templates c2*(v - r_hi) and (v - r_lo), in either order as P*Q.
That one shape rule decides every split; the program never passes a
template family.

Given P*Q, we set phi1 = a*P and phi2 = Q/a and solve the constant-friction
condition for the scale a by coefficient matching.  The templates are
c + d*u^h with one shared h > 0, so u^h is the only u-dependent coefficient;
it must vanish, which gives the closed form a^2 = -Q_h / ((h+1)*P_h), and the
surviving constant part fixes gamma = -(a*P_0 + Q_0/a).  Both real roots a
are kept; they give the two velocity branches, positive (gamma >= 0) and
negative (:attr:`FactorizationPair.branch`).  A :class:`FactorizationPair`
checks its friction when it is built, so every pair in circulation
satisfies both conditions.

The alternative grouping that keeps the whole friction factor on the brackets
("f1b/f2b" form, with f1b + f2b = -gamma) is related to the grouping above by
``f2b = phi2 + u*dphi1/du`` and is exposed via :func:`berkovich_convert`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DomainError,
    InconsistentFactorizationError,
    InfeasibleFactorizationError,
    UnsupportedFamilyError,
)
from .kinks import GAMMA_NEGATIVE, GAMMA_POSITIVE
from .powerpoly import STRUCTURAL_TOLERANCE, PowerPoly, mul


class Family(str, Enum):
    """Shapes of F(u)/u that :func:`split_nonlinearity` can be asked to check.

    Kept because tests/test_acceptance.py passes ``Family.DIFFERENCE``.
    """

    DIFFERENCE = "difference"   # c - c*u^n      (generalized Fisher)
    DTO = "dto"                 # A - B*u^(n-2)  (damped anharmonic oscillator)
    QUADRATIC = "quadratic"     # quadratic in u with real roots (FitzHugh-Nagumo)


#: What each family admits of F/u = c0 + c1*v + c2*v^2, v = u^h, as a test on
#: (h, c0, c1, c2), and the error when it does not.
#: Kept because tests/test_acceptance.py passes ``Family.DIFFERENCE``.
_ADMITS = {
    Family.DIFFERENCE: (lambda h, c0, c1, c2: c1 == 0 and c0 > 0
                        and math.isclose(c2, -c0, rel_tol=STRUCTURAL_TOLERANCE),
                        "difference family requires c*(1 - u^n) with c > 0"),
    Family.DTO: (lambda h, c0, c1, c2: c1 == 0 and c0 > 0 > c2,
                 "oscillator family requires A - B*u^p with A, B > 0"),
    Family.QUADRATIC: (lambda h, c0, c1, c2: h == 1,
                       "quadratic family requires degree-2 polynomial in u"),
}


@dataclass(frozen=True)
class FactorAnsatz:
    """An ordered split F/u = P*Q before the scale has been fixed."""

    P: PowerPoly
    Q: PowerPoly


@dataclass(frozen=True)
class FactorizationPair:
    """A concrete factorization phi1 = a*P, phi2 = Q/a with its velocity.

    Building a pair checks its constant-friction condition: the terms of
    u*dphi1/du, phi1 and phi2, and the constant gamma, merged into one
    :class:`PowerPoly`, must all cancel under its drop rule, so no separate
    tolerance decides what is zero.  A gamma that is not finite, or a
    leftover term, raises :class:`InconsistentFactorizationError`.
    """

    phi1: PowerPoly
    phi2: PowerPoly
    scale_a: float
    gamma: float

    @property
    def branch(self) -> str:
        """The velocity branch, in the words of ``--branch``: "positive" for
        gamma >= 0 (so also for gamma = -0.0), "negative" for gamma < 0.

        This is the program's one test of gamma's sign: the pipeline picks its
        pair by it, and each kink's ``gamma_sign`` is it.
        """
        return GAMMA_POSITIVE if self.gamma >= 0 else GAMMA_NEGATIVE

    def __post_init__(self) -> None:
        # checked first: PowerPoly refuses a NaN with a DomainError
        if not math.isfinite(self.gamma):
            raise InconsistentFactorizationError(f"gamma = {self.gamma} is not finite")
        # one merge: summed apart, a*P_0 + Q_0/a could cancel to nothing and
        # leave a tiny gamma alone, which the drop rule keeps
        leftover = PowerPoly(self.phi1.u_deriv().terms + self.phi1.terms
                             + self.phi2.terms + ((0, self.gamma),))
        if not leftover.is_zero():
            raise InconsistentFactorizationError(
                f"friction u*dphi1/du + phi1 + phi2 + gamma leaves {leftover}, not 0"
            )


@dataclass(frozen=True)
class OdeSpec:
    """A concrete equation u'' + gamma*u' + F(u) = 0."""

    gamma: float
    F: PowerPoly

    def __str__(self) -> str:
        return f"u'' + {self.gamma:.12g} u' + ({self.F}) = 0"


def split_nonlinearity(F_over_u: PowerPoly,
                       family: Family | None = None) -> list[FactorAnsatz]:
    """Split F/u = c0 + c1*v + c2*v^2, v = u^h, at its real roots r_lo <= r_hi.

    h is half the top exponent of F/u, and every exponent must be 0, h or 2h.
    The templates are c2*(v - r_hi) and (v - r_lo), returned in both orders,
    c2*(v - r_hi) as P first: assigning the scale to the other factor produces
    a genuinely different bracket pair for the same equation.  A discriminant
    c1^2 - 4*c2*c0 within 4 float epsilons of c1^2 + 4*|c2*c0|, plus
    (2*|c2| + 2) subnormal spacings for the absolute rounding of a c0 or a
    c1^2 near 0, is the rounding of a double root and is taken as 0.  Where
    it overflows, the discriminant and q = -(c1 + sign(c1)*sqrt(disc))/2 are
    taken from the c's divided by the power of 2 that brings the largest below
    1, and each root is a quotient of mantissas scaled by its power of 2
    (:func:`_ldexp`), so neither q nor a coefficient that goes subnormal in
    that frame costs a root its bits; a root past the float range is inf,
    which PowerPoly refuses.  The roots are computed without cancellation, so
    a root far smaller than the other (as in fhn(1e-17,1) or fhn(1e17,1))
    keeps its digits.  A ``family`` only checks that F/u has a shape it
    admits (see :data:`_ADMITS`); kept because tests/test_acceptance.py
    passes one.
    """
    exps = F_over_u.exponents()
    h = exps[-1] / 2 if exps else 0
    if h <= 0 or any(e not in (0, h, 2 * h) for e in exps):
        raise UnsupportedFamilyError(
            f"expected 'c0 + c1*u^h + c2*u^(2h)' shape with h > 0, got {F_over_u}"
        )
    c0, c1, c2 = (F_over_u.coefficient(e) for e in (0, h, 2 * h))
    if family is not None:
        admits, requirement = _ADMITS[Family(family)]
        if not admits(h, c0, c1, c2):
            raise UnsupportedFamilyError(f"{requirement}, got {F_over_u}")
    disc = c1 * c1 - 4.0 * c2 * c0
    # where c1^2 or 4*c2*c0 overflows, the discriminant is that of the c's
    # over the 2^e that brings the largest below 1; elsewhere e = 0 and d = c,
    # since a tiny c beside a large one would go subnormal and lose bits
    e = 0 if math.isfinite(disc) else math.frexp(max(abs(c0), abs(c1), abs(c2)))[1]
    d0, d1, d2 = (math.ldexp(c, -e) for c in (c0, c1, c2))
    scaled = d1 * d1 - 4.0 * d2 * d0
    if abs(scaled) <= (4.0 * sys.float_info.epsilon * (d1 * d1 + 4.0 * abs(d2 * d0))
                       + (2.0 * abs(d2) + 2.0) * math.ulp(0.0)):
        scaled = 0.0     # a double root, up to the rounding of c1^2 and 4*c2*c0
    if scaled < 0:
        shown = f"{disc:g}" if e == 0 else f"{scaled:g}*2^{2 * e}"
        raise UnsupportedFamilyError(
            f"F/u has complex roots in v = {PowerPoly([(h, 1.0)])}:"
            f" discriminant = {shown}"
        )
    # d1/2 and sqrt(disc)/2 are exact halves, and a power of 2 scales exactly,
    # so a finite discriminant gives each root that is a normal float as
    # (-c1 -+ sqrt(disc))/(2*c2) to the bit
    half_sq = math.sqrt(scaled) / 2.0
    (m0, k0), (m2, k2) = math.frexp(c0), math.frexp(c2)
    if d1 and half_sq:
        # q*2^e/c2 is the root of larger magnitude, where -d1/2 and the root
        # term add without cancelling; the other is c0/(c2*r) = c0/(q*2^e)
        q = -(d1 / 2.0 + math.copysign(half_sq, d1))
        roots = (_ldexp(q / m2, e - k2), _ldexp(m0 / q, k0 - e))
    else:
        # exactly symmetric for d1 = 0, and both -c1/(2*c2) for a double root
        roots = tuple(_ldexp((-d1 / 2.0 + s) / m2, e - k2) for s in (-half_sq, half_sq))
    r_lo, r_hi = sorted(roots)
    at_hi = PowerPoly([(0, -r_hi * c2), (h, c2)])        # c2*(v - r_hi)
    at_lo = PowerPoly([(0, -r_lo), (h, 1.0)])            # (v - r_lo)
    return [FactorAnsatz(at_hi, at_lo), FactorAnsatz(at_lo, at_hi)]


def _ldexp(x: float, n: int) -> float:
    """x * 2^n: exact where it is a normal float, and inf past the float range.

    The quotients of the split and the scale condition are formed on the
    mantissas of their operands and scaled here, so no operand overflows or
    goes subnormal on the way; ``math.ldexp`` raises where this returns inf.
    """
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def solve_scale_condition(ansatz: FactorAnsatz) -> list[FactorizationPair]:
    """Fix the scale a in phi1 = a*P, phi2 = Q/a by coefficient matching.

    P and Q must be templates c + d*u^h sharing one h > 0, with u^h in P.
    The u^h coefficient of the friction, ``a*(h+1)*P_h + Q_h/a``, vanishes
    for a^2 = -Q_h / ((h+1)*P_h), which is solved on the mantissas of P_h and
    Q_h and scaled by the power of 2 of their exponents, so (h+1)*P_h cannot
    overflow.  Both roots are returned, ascending, each with its velocity
    gamma = -(a*P_0 + Q_0/a).  Any other template pair, or an a^2 that is
    not a finite positive number (a^2 <= 0, or a^2 = inf past the float
    range), is an :class:`InfeasibleFactorizationError` that names a^2.
    """
    P, Q = ansatz.P, ansatz.Q
    h = max(P.exponents(), default=0)
    if h <= 0 or {e for e in P.exponents() + Q.exponents() if e != 0} != {h}:
        raise InfeasibleFactorizationError(
            f"scale condition needs templates c + d*u^h with one h > 0 and u^h"
            f" in P, got P = {P}, Q = {Q}"
        )
    (p, i), (q, j) = math.frexp(P.coefficient(h)), math.frexp(Q.coefficient(h))
    a_squared = _ldexp(-q / (float(h + 1) * p), j - i)
    if not 0.0 < a_squared < math.inf:
        fault = "<= 0" if a_squared <= 0.0 else "beyond the float range"
        raise InfeasibleFactorizationError(
            f"scale condition gives a^2 = {a_squared:g} {fault} at u^{h}"
        )
    root = math.sqrt(a_squared)
    return [
        FactorizationPair(phi1=P.scale(a), phi2=Q.scale(1.0 / a), scale_a=a,
                          gamma=-(a * P.constant_term() + Q.constant_term() / a))
        for a in (-root, root)
    ]


def expand_grouping(pair: FactorizationPair) -> OdeSpec:
    """Reassemble the second-order equation encoded by a factorization pair."""
    return OdeSpec(gamma=pair.gamma, F=mul(pair.phi1, pair.phi2).times_u())


def berkovich_convert(pair: FactorizationPair) -> tuple[PowerPoly, PowerPoly]:
    """Convert to the sum-form grouping (f1b, f2b) with f1b + f2b = -gamma."""
    f1b = pair.phi1
    f2b = pair.phi2 + pair.phi1.u_deriv()
    return f1b, f2b


def rescale_frame(ode: OdeSpec, k: float) -> OdeSpec:
    """Rescale the travelling coordinate by k: gamma -> gamma/k, F -> F/k^2.

    Kinks of the result are the original kinks with their argument scaled
    by k.  The map is a group action: rescaling by k then 1/k is the identity.
    """
    # k^2 must be a positive finite float too, or F/k^2 loses F or overflows
    if not (k > 0 and 0 < k * k < math.inf):
        raise DomainError(f"frame scale must be positive with a finite nonzero square, got {k}")
    return OdeSpec(gamma=ode.gamma / k, F=ode.F.scale(1.0 / (k * k)))
