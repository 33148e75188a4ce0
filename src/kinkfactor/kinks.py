"""Closed-form kinks of the compatible first-order flows u' = phi(u)*u.

For a binomial ``phi = beta*(lam - u^m)`` the substitution y = u^m turns the
flow into a logistic equation, so every kink is a logistic-power profile

    u(xi) = ( s * lam / (1 +/- e^{r (xi - xi0)}) )^(1/m),   r = -phi(0) * m.

The integration constant is fixed to 1 (all translation freedom lives in xi0)
and the "+/-" is the branch: "plus" is the globally defined monotone kink,
"minus" is the coth-type solution with a pole at xi0, valid on one half-line.

The sign s is the *core sign*.  Flows whose second fixed point is negative
(lam < 0, e.g. phi = -h*(1 + u^m)) have their kink running between 0 and a
negative value of u^m.  Such profiles are stored with core_sign = -1 and an
amplitude |lam|; their plotted form is the positive mirror (see
:meth:`KinkProfile.positive_twin`) while evaluation follows the true signed
core using real rational powers (odd roots of negatives are real, even roots
are a domain error).  All power evaluation along a kink goes through the core,
which is what makes profiles like u = y^2 with y = u^{1/2} < 0 exact solutions
of their partner equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DomainError, UnsupportedFamilyError
from .powerpoly import PowerPoly

PLUS = "plus"
MINUS = "minus"

GAMMA_POSITIVE = "positive"
GAMMA_NEGATIVE = "negative"


def real_power(base: float, exp: Fraction) -> float:
    """Real rational power with odd-root semantics for negative bases.

    For base < 0 the value is real exactly when the reduced denominator of the
    exponent is odd; the sign is (-1)**numerator.
    """
    if exp == 0:
        return 1.0
    if base >= 0.0:
        return math.pow(base, float(exp))
    if exp.denominator % 2 == 0:
        raise DomainError(
            f"({base:g})^({exp}) is not real (even root of a negative number)"
        )
    sign = -1.0 if exp.numerator % 2 else 1.0
    return sign * math.pow(-base, float(exp))


@dataclass(frozen=True)
class HyperbolicForm:
    """Kink rewritten as (prefactor * (1 -/+ tanh|coth[half_rate*(xi-xi0)]))^power."""

    prefactor: float
    kind: str            # "tanh" for the plus branch, "coth" for the minus branch
    half_rate: float
    power: Fraction
    shift: float
    core_sign: int = 1

    def value(self, xi: float) -> float:
        arg = self.half_rate * (xi - self.shift)
        if self.kind == "tanh":
            core = self.prefactor * (1.0 - math.tanh(arg))
        else:
            if arg == 0.0:
                raise DomainError("coth form has a pole at xi0")
            core = self.prefactor * (1.0 - 1.0 / math.tanh(arg))
        return real_power(self.core_sign * core, self.power)


@dataclass(frozen=True)
class KinkProfile:
    """Parameterized logistic-power kink with analytic derivatives.

    amplitude    lam > 0 of the logistic core y = core_sign*lam/(1 +/- E)
    rate         signed exponential rate r
    inv_exponent 1/m as an exact fraction (the outer power of the core)
    shift        xi0
    branch       "plus" (global kink) or "minus" (coth form, pole at xi0)
    gamma_sign   which velocity family produced the profile (metadata)
    core_sign    +1, or -1 when the true flow core is negative
    note         provenance note set when a negative-core flow was canonicalized
    """

    amplitude: float
    rate: float
    inv_exponent: Fraction
    shift: float
    branch: str = PLUS
    gamma_sign: str = GAMMA_POSITIVE
    core_sign: int = 1
    note: str | None = None

    def __post_init__(self):
        if self.amplitude <= 0:
            raise DomainError(f"amplitude must be positive, got {self.amplitude}")
        if self.inv_exponent <= 0:
            raise DomainError(f"inv_exponent must be positive, got {self.inv_exponent}")
        if self.branch not in (PLUS, MINUS):
            raise DomainError(f"branch must be 'plus' or 'minus', got {self.branch!r}")
        if self.core_sign not in (1, -1):
            raise DomainError("core_sign must be +1 or -1")

    # -- basic descriptors ---------------------------------------------------

    @property
    def width(self) -> float:
        """Natural width 1/|rate| of the transition region."""
        return 1.0 / abs(self.rate)

    @property
    def is_real_valued(self) -> bool:
        """Whether u = (signed core)^(1/m) is real on the whole branch."""
        return self.core_sign == 1 or self.inv_exponent.denominator % 2 == 1

    def valid_halfline(self) -> str:
        """Human-readable evaluation domain ('all xi' for the plus branch)."""
        if self.branch == PLUS:
            return "all xi"
        return "xi < xi0" if self.rate > 0 else "xi > xi0"

    def domain_contains(self, xi: float) -> bool:
        if self.branch == PLUS:
            return True
        return (xi - self.shift) * self.rate < 0

    # -- evaluation -----------------------------------------------------------

    def _den(self, xi: float) -> float:
        """1 +/- e^{r(xi-xi0)}, the logistic denominator; raises off the branch domain."""
        expo = math.exp(self.rate * (xi - self.shift))
        den = 1.0 + expo if self.branch == PLUS else 1.0 - expo
        if self.branch == MINUS and den <= 0.0:
            raise DomainError(
                f"xi = {xi:g} is outside the minus-branch domain ({self.valid_halfline()})"
            )
        return den

    def core(self, xi: float) -> float:
        """The signed logistic core y(xi) = core_sign * lam / (1 +/- e^{r(xi-xi0)})."""
        return self.core_sign * self.amplitude / self._den(xi)

    def value(self, xi: float) -> float:
        """u(xi)."""
        return real_power(self.core(xi), self.inv_exponent)

    def eval(self, xi: float) -> tuple[float, float, float]:
        """(u, u', u'') by analytic differentiation of the closed form."""
        if not self.is_real_valued:
            raise DomainError(
                "profile is not real-valued (even root of a negative core)"
            )
        w = 1.0 / self._den(xi)
        u = real_power(self.core_sign * self.amplitude * w, self.inv_exponent)
        q = float(self.inv_exponent)
        r = self.rate
        one_w = 1.0 - w
        du = -q * r * one_w * u
        ddu = r * r * one_w * u * (q * q * one_w - q * w)
        return u, du, ddu

    def poly_along(self, poly: PowerPoly, xi: float) -> float:
        """Evaluate a PowerPoly at u(xi), routing every power through the core.

        A term c*u^p becomes c * y^{p/m} with y the signed core; for positive
        cores this agrees with plain evaluation, for negative cores it applies
        the real-root semantics that make the profile an exact solution.
        """
        y = self.core(xi)
        total = 0.0
        for exp, coeff in poly.terms:
            total += coeff * real_power(y, exp * self.inv_exponent)
        return total

    def flow_velocity(self, phi: PowerPoly, xi: float) -> float:
        """phi(u)*u evaluated along the kink through the core."""
        y = self.core(xi)
        u = real_power(y, self.inv_exponent)
        return self.poly_along(phi, xi) * u

    # -- alternate representations ----------------------------------------------

    def to_hyperbolic(self) -> HyperbolicForm:
        """Exact hyperbolic rewriting of the exponential closed form.

        plus branch:  core = core_sign*(lam/2)*(1 - tanh[(r/2)(xi-xi0)])
        minus branch: core = core_sign*(lam/2)*(1 - coth[(r/2)(xi-xi0)])
        """
        return HyperbolicForm(
            prefactor=self.amplitude / 2.0,
            kind="tanh" if self.branch == PLUS else "coth",
            half_rate=self.rate / 2.0,
            power=self.inv_exponent,
            shift=self.shift,
            core_sign=self.core_sign,
        )

    def positive_twin(self) -> "KinkProfile":
        """The canonical positive-core rendering used for display and figures."""
        if self.core_sign == 1:
            return self
        return replace(self, core_sign=1)

    def mirrored(self) -> "KinkProfile":
        """The xi -> 2*xi0 - xi reflection (the opposite velocity family)."""
        return replace(
            self,
            rate=-self.rate,
            gamma_sign=(
                GAMMA_NEGATIVE if self.gamma_sign == GAMMA_POSITIVE else GAMMA_POSITIVE
            ),
        )

    def asymptotes(self) -> tuple[float, float]:
        """(u at xi -> -inf, u at xi -> +inf) for the plus branch."""
        top = real_power(self.core_sign * self.amplitude, self.inv_exponent)
        return (top, 0.0) if self.rate > 0 else (0.0, top)

    def midpoint_value(self) -> float:
        """u(xi0): the level used to track fronts."""
        return self.value(self.shift)


def solve_binomial_flow(
    phi: PowerPoly,
    gamma_sign: str = GAMMA_POSITIVE,
    xi0: float = 0.0,
    branch: str = PLUS,
) -> KinkProfile:
    """Integrate u' = phi(u)*u for a binomial phi = beta*(lam - u^m).

    The kink runs between the flow's two fixed points u^m = 0 and u^m = lam
    with exponential rate r = -phi(0)*m.  For lam < 0 the profile is stored
    with a negative core and a provenance note; its positive twin is the
    conventional plotted form.
    """
    shape = phi.binomial()
    if shape is None:
        raise UnsupportedFamilyError(
            f"flow nonlinearity must have shape beta*(lam - u^m), got {phi}"
        )
    c0, m, c1 = shape
    beta = -c1
    lam0 = c0 / beta
    if lam0 == 0.0:
        raise UnsupportedFamilyError(
            "flow has no second fixed point; no kink exists"
        )
    core_sign = 1 if lam0 > 0 else -1
    note = None
    if core_sign == -1:
        note = (
            "flow fixed point u^m = lam is negative; profile stored on the "
            "negative core, positive twin available for display"
        )
    rate = -c0 * float(m)
    return KinkProfile(
        amplitude=abs(lam0),
        rate=rate,
        inv_exponent=Fraction(1, 1) / m,
        shift=xi0,
        branch=branch,
        gamma_sign=gamma_sign,
        core_sign=core_sign,
        note=note,
    )


def sample_kink(kink: KinkProfile, n_points: int, half_span: float | None = None):
    """Yield (xi, u, u', u'') rows over xi0 +/- half_span (default 10 widths)."""
    if n_points < 2:
        raise DomainError("need at least two sample points")
    span = 10.0 * kink.width if half_span is None else half_span
    lo, hi = kink.shift - span, kink.shift + span
    if kink.branch == MINUS:
        raise DomainError("sampling across xi0 is undefined for the minus branch")
    step = (hi - lo) / (n_points - 1)
    for i in range(n_points):
        xi = lo + i * step
        u, du, ddu = kink.eval(xi)
        yield xi, u, du, ddu


def write_kink_csv(path, kink: KinkProfile, n_points: int = 1001,
                   half_span: float | None = None) -> None:
    """Sample a kink to CSV with columns xi, u, u', u''."""
    with open(path, "w", newline="") as fh:
        fh.write("xi,u,du,ddu\n")
        for xi, u, du, ddu in sample_kink(kink, n_points, half_span):
            fh.write(f"{xi:.17g},{u:.17g},{du:.17g},{ddu:.17g}\n")
