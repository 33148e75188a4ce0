"""Closed-form kinks of the compatible first-order flows u' = phi(u)*u.

For a binomial ``phi = beta*(lam - u^m)`` the substitution y = u^m turns the
flow into a logistic equation, so every kink is a logistic-power profile

    u(xi) = ( s * lam / (1 + e^{r (xi - xi0)}) )^(1/m),   r = -phi(0) * m,

the globally defined monotone front between the fixed points u^m = 0 and
u^m = lam.  The integration constant is fixed to 1 (all translation freedom
lives in xi0).

The sign s is the *core sign*.  Flows whose second fixed point is negative
(lam < 0, e.g. phi = -h*(1 + u^m)) have their kink running between 0 and a
negative value of u^m.  Such profiles are stored with core_sign = -1 and an
amplitude |lam|; their plotted form is the positive mirror (see
:meth:`KinkProfile.positive_twin`) while evaluation follows the true signed
core using real rational powers (odd roots of negatives are real, even roots
are a domain error).

One formula gives u: with den = 1 + e^{r(xi - xi0)}, u = sign * (lam/den)^(1/m),
where sign is +1, or the sign of the odd root of a negative core;
:meth:`KinkProfile.value` and :meth:`KinkProfile.eval` compute it alike, bit
for bit, and the end states (:meth:`KinkProfile.asymptotes`) are its
limits: 0 at one end, and ``value`` where e^{r(xi - xi0)} is 0 at the other.
A polynomial along the kink (:meth:`KinkProfile.poly_along`) is a polynomial
in |y| = lam/den, with each term's sign taken from the core once, evaluated
by Horner's operations in the order ``PowerPoly.evaluate`` runs them.  That
is what makes profiles like u = y^2 with y = u^{1/2} < 0 exact solutions of
their partner equations.  Where 1/m = 1, |y| is sign*u bit for bit, so the
residual scan, which holds eval's u, reads |y| from it and takes no second
exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DomainError, UnsupportedFamilyError
from .powerpoly import PowerPoly, _define, _horner_expression

GAMMA_POSITIVE = "positive"
GAMMA_NEGATIVE = "negative"


def _negative_base_sign(exp: Fraction) -> float | None:
    """Sign of b**exp for b < 0: (-1)**numerator, or None for an even root.

    For a negative base the power is real exactly when the reduced denominator
    of the exponent is odd.
    """
    if exp.denominator % 2 == 0:
        return None
    return -1.0 if exp.numerator % 2 else 1.0


_NOT_REAL = "profile is not real-valued (even root of a negative core)"


@dataclass(frozen=True)
class KinkProfile:
    """Parameterized logistic-power kink with analytic derivatives.

    amplitude    lam > 0 of the logistic core y = core_sign*lam/(1 + E)
    rate         signed exponential rate r
    inv_exponent 1/m as an exact fraction (the outer power of the core)
    shift        xi0
    gamma_sign   the velocity branch, "positive" or "negative", of the pair whose
                 flow gave the profile (``FactorizationPair.branch``); no
                 formula reads it, and :meth:`mirrored` flips it
    core_sign    +1, or -1 when the true flow core is negative
    """

    amplitude: float
    rate: float
    inv_exponent: Fraction
    shift: float
    gamma_sign: str = GAMMA_POSITIVE
    core_sign: int = 1

    def __post_init__(self):
        # NaN fails each test; an infinite amplitude or rate passes, since
        # solve_binomial_flow gives one when c0/beta or c0*m overflows
        if not self.amplitude > 0:
            raise DomainError(f"amplitude must be positive, got {self.amplitude}")
        if not abs(self.rate) > 0:
            raise DomainError(f"rate must be nonzero, got {self.rate}")
        if not math.isfinite(self.shift):
            raise DomainError(f"shift must be finite, got {self.shift}")
        if self.inv_exponent <= 0:
            raise DomainError(f"inv_exponent must be positive, got {self.inv_exponent}")
        if self.core_sign not in (1, -1):
            raise DomainError("core_sign must be +1 or -1")
        # u = s * |core|**q: the real-root rule worked out once per kink; None
        # when u is not real (an even root of a negative core).  Not a field,
        # so equality, hashing and repr are unchanged.
        sign = 1.0 if self.core_sign == 1 else _negative_base_sign(self.inv_exponent)
        q, r = float(self.inv_exponent), self.rate
        object.__setattr__(self, "_root", None if sign is None else (sign, q))
        # the leading products of eval's u' and u''
        object.__setattr__(self, "_slopes", (-q * r, r * r, q * q))

    # -- basic descriptors ---------------------------------------------------

    @property
    def width(self) -> float:
        """Natural width 1/|rate| of the transition region."""
        return 1.0 / abs(self.rate)

    @property
    def note(self) -> str | None:
        """Provenance of a kink stored on the negative core; None otherwise."""
        if self.core_sign == 1:
            return None
        return ("flow fixed point u^m = lam is negative; profile stored on the "
                "negative core, positive twin available for display")

    @property
    def is_real_valued(self) -> bool:
        """Whether u = (signed core)^(1/m) is real on the whole line."""
        return self._root is not None

    # -- evaluation -----------------------------------------------------------

    def value(self, xi: float) -> float:
        """u(xi) = s * (lam / den)**q, with den = 1 + e^{r(xi-xi0)}."""
        if self._root is None:
            raise DomainError(_NOT_REAL)
        sign, q = self._root
        # figures and the RK4 checks call this per point, the checks with
        # numpy scalars, whose arithmetic is slower than a float's and rounds
        # the same
        try:
            den = 1.0 + math.exp(self.rate * (float(xi) - self.shift))
        except OverflowError:
            # beyond the float range: u = 0, the exact limit
            den = math.inf
        return sign * math.pow(self.amplitude / den, q)

    def eval(self, xi: float) -> tuple[float, float, float]:
        """(u, u', u'') by analytic differentiation of the closed form.

        u is computed as in :meth:`value`, bit for bit; w = 1/den gives
        u' = -q r (1 - w) u and u'' = r^2 (1 - w) u (q^2 (1 - w) - q w).
        """
        if self._root is None:
            raise DomainError(_NOT_REAL)
        sign, q = self._root
        # the residual scan calls this per grid point; the products -q*r, r*r
        # and q*q open the left-to-right products below, so they are computed
        # once per kink, in __post_init__, with the same bits
        nqr, rr, qq = self._slopes
        try:
            den = 1.0 + math.exp(self.rate * (xi - self.shift))
        except OverflowError:
            den = math.inf
        u = sign * math.pow(self.amplitude / den, q)
        w = 1.0 / den
        one_w = 1.0 - w
        return u, nqr * one_w * u, rr * one_w * u * (qq * one_w - q * w)

    def _along_lines(self, poly: PowerPoly, names: dict[str, object],
                     u: str | None = None) -> tuple[list[str], str]:
        """Lines that compute |y| at ``xi``, then an expression of poly(u(xi)) in it.

        With y the signed core, a term c*u^p is c*y^{p/m} = s*c*|y|^{p/m},
        where s is the sign of y^{p/m}: +1 on a positive core, and on a
        negative one (-1)^numerator of an odd root.  So poly(u) is the
        polynomial in |y| with the terms (p/m, s*c), worked out here once.
        The lines compute |y| = lam/den as :meth:`value` does, then hold the
        lines of that polynomial's Horner expression in |y|
        (:func:`powerpoly._horner_expression`: the operations of
        ``PowerPoly.evaluate``, in its order).  When ``u`` names a variable
        that holds u(xi) and the outer power q is 1, |y| is read from it
        instead, with no second exponential: u = s*pow(lam/den, 1.0), and
        pow(x, 1.0) is x and s = +-1.0, so s*u is |y| bit for bit, +0.0 too
        where the exponential overflows.  The names the lines read
        (``amplitude``, ``rate``, ``shift`` and ``exp`` when they compute
        den, and the Horner names) are bound in ``names``.  A term that is
        not real on the kink is a :class:`DomainError`.
        """
        terms = []
        for exp, coeff in poly.terms:
            p = exp * self.inv_exponent
            sign = 1.0 if self.core_sign == 1 else _negative_base_sign(p)
            if sign is None:
                raise DomainError(
                    f"u^({exp}) along the kink is (core)^({p}), not real"
                    " (even root of a negative core)"
                )
            terms.append((p, sign * coeff))
        if u is not None and self.inv_exponent == 1:
            lines = [f"y = {u}" if self.core_sign == 1 else f"y = -{u}"]
        else:
            names.update(amplitude=self.amplitude, rate=self.rate, shift=self.shift,
                         exp=math.exp)
            # beyond the float range den = inf and |y| = 0, as in value
            lines = ["try:", "    y = amplitude / (1.0 + exp(rate * (xi - shift)))",
                     "except OverflowError:", "    y = 0.0"]
        # amplitude > 0, so y is never negative: no test of a negative base
        horner, value = _horner_expression(terms, "y", names, None)
        return lines + horner, value

    def poly_along(self, poly: PowerPoly, xi: float) -> float:
        """poly(u(xi)), computed through the core.

        It compiles the lines of :meth:`_along_lines` into one function and
        returns their expression at ``xi``; the code of each shape is compiled
        once (:func:`powerpoly._define`).  A term that is not real on the kink
        (an even root of a negative core) is a :class:`DomainError`.
        """
        names: dict[str, object] = {}
        lines, value = self._along_lines(poly, names)
        return _define("along(xi)", lines + [f"return {value}"], names,
                       "KinkProfile.along")(xi)

    # -- related kinks -----------------------------------------------------------

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
        """(u at xi -> -inf, u at xi -> +inf): the two fixed points of the flow.

        The nonzero end is :meth:`value` where e^{r(xi - xi0)} is 0, so a
        profile that is not real raises its :class:`DomainError`.
        """
        if self.rate > 0:
            return self.value(-math.inf), 0.0
        return 0.0, self.value(math.inf)

    def midpoint_value(self) -> float:
        """u(xi0): the level used to track fronts."""
        return self.value(self.shift)


def solve_binomial_flow(
    phi: PowerPoly,
    gamma_sign: str = GAMMA_POSITIVE,
    xi0: float = 0.0,
) -> KinkProfile:
    """Integrate u' = phi(u)*u for a binomial phi = beta*(lam - u^m).

    The kink runs between the flow's two fixed points u^m = 0 and u^m = lam
    with exponential rate r = -phi(0)*m.  For lam < 0 the profile is stored
    with a negative core (see :attr:`KinkProfile.note`); its positive twin is
    the conventional plotted form.
    """
    shape = phi.binomial()
    if shape is None:
        raise UnsupportedFamilyError(
            f"flow nonlinearity must have shape beta*(lam - u^m), got {phi}"
        )
    c0, m, c1 = shape
    beta = -c1
    # c0 and beta are nonzero, but c0/beta underflows to 0 when |c0| is
    # far below |beta|; KinkProfile refuses that amplitude
    lam0 = c0 / beta
    rate = -c0 * float(m)
    return KinkProfile(
        amplitude=abs(lam0),
        rate=rate,
        inv_exponent=Fraction(1, 1) / m,
        shift=xi0,
        gamma_sign=gamma_sign,
        core_sign=1 if lam0 > 0 else -1,
    )

