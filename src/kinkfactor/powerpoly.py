"""Sparse generalized polynomials in u with exact rational exponents.

A :class:`PowerPoly` is a finite sum ``c0 + c1*u^p1 + c2*u^p2 + ...`` where the
exponents are non-negative rationals stored exactly as :class:`fractions.Fraction`
and the coefficients are floats.  Exponents must be exact so that term merging
(``u^{1/2} * u^{1/2} == u``) never depends on floating point; coefficients are
floats because scale factors and velocities involve square roots.

Structural equality of two polynomials means equal exponent support with
coefficients agreeing within :data:`STRUCTURAL_TOLERANCE`, which is also the
threshold below which coefficients are dropped during canonicalization.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Tuple, Union

import numpy as np

from .errors import DomainError

#: Coefficients with magnitude below this are structurally zero.  The same
#: constant is the tolerance for structural comparisons between polynomials.
STRUCTURAL_TOLERANCE = 1e-12

Exponent = Fraction

ExponentLike = Union[Fraction, int, str]
TermsLike = Iterable[Tuple[ExponentLike, float]]


def as_exponent(value: ExponentLike) -> Fraction:
    """Coerce ``value`` (int, Fraction, or a string like ``"3/2"``) to an exponent."""
    exp = Fraction(value)
    if exp < 0:
        raise DomainError(f"exponents must be non-negative, got {exp}")
    return exp


class PowerPoly:
    """Canonical sum of terms ``coefficient * u**exponent``.

    Terms are kept sorted by strictly increasing exponent, merged by equal
    exponent, and stripped of structurally-zero coefficients.  The empty term
    tuple represents the zero polynomial.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike = ()):
        merged: dict[Fraction, float] = {}
        for exp, coeff in terms:
            exp = as_exponent(exp)
            merged[exp] = merged.get(exp, 0.0) + float(coeff)
        clean = tuple(
            (exp, coeff)
            for exp, coeff in sorted(merged.items())
            if abs(coeff) > STRUCTURAL_TOLERANCE
        )
        object.__setattr__(self, "_terms", clean)

    @property
    def terms(self) -> tuple[tuple[Fraction, float], ...]:
        return self._terms

    def __setattr__(self, name, value):
        raise AttributeError("PowerPoly is immutable")

    # -- predicates and accessors -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(exp == 0 for exp, _ in self._terms)

    def coefficient(self, exp: ExponentLike) -> float:
        """Coefficient of ``u**exp`` (0.0 when the term is absent)."""
        exp = Fraction(exp)
        for e, c in self._terms:
            if e == exp:
                return c
        return 0.0

    def constant_term(self) -> float:
        return self.coefficient(0)

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(e for e, _ in self._terms)

    def binomial(self) -> tuple[float, Fraction, float] | None:
        """``(c0, p, c_p)`` if the polynomial is ``c0 + c_p*u^p`` (p > 0), else None."""
        if len(self._terms) != 2 or self._terms[0][0] != 0:
            return None
        (_, c0), (p, c_p) = self._terms
        return c0, p, c_p

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "PowerPoly") -> "PowerPoly":
        return PowerPoly(list(self._terms) + list(other._terms))

    def __sub__(self, other: "PowerPoly") -> "PowerPoly":
        return PowerPoly(list(self._terms) + [(e, -c) for e, c in other._terms])

    def __neg__(self) -> "PowerPoly":
        return self.scale(-1.0)

    def __mul__(self, other: "PowerPoly") -> "PowerPoly":
        return mul(self, other)

    def scale(self, factor: float) -> "PowerPoly":
        return PowerPoly((e, c * factor) for e, c in self._terms)

    def times_u(self) -> "PowerPoly":
        """Multiply by u: every exponent shifts up by one."""
        return PowerPoly((e + 1, c) for e, c in self._terms)

    def deriv(self) -> "PowerPoly":
        """Term-wise formal derivative ``c*p*u^{p-1}``.

        Exponents strictly between 0 and 1 would produce a negative exponent
        and are rejected; use :meth:`u_deriv` for the combination ``u * d/du``
        which is always representable.
        """
        out = []
        for e, c in self._terms:
            if e == 0:
                continue
            if e < 1:
                raise DomainError(
                    f"derivative of u^{e} has a negative exponent; use u_deriv"
                )
            out.append((e - 1, c * float(e)))
        return PowerPoly(out)

    def u_deriv(self) -> "PowerPoly":
        """The combination ``u * d(self)/du``, i.e. each term becomes ``c*p*u^p``."""
        return PowerPoly((e, c * float(e)) for e, c in self._terms)

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, u: float | np.ndarray) -> float | np.ndarray:
        """Evaluate at a float ``u``, or element-wise on a numpy array ``u``.

        Negative ``u`` is allowed only when every exponent is an integer;
        fractional powers of negative numbers raise :class:`DomainError`.
        """
        total = 0.0
        for e, c in self._terms:
            if e == 0:
                total += c
            elif e.denominator == 1:
                total += c * u ** int(e)
            # np.any on a float costs microseconds; RK4 calls this per stage
            elif np.any(u < 0) if isinstance(u, np.ndarray) else u < 0:
                raise DomainError(
                    f"cannot evaluate fractional powers at negative u = {np.min(u):g}"
                )
            else:
                total += c * u ** float(e)
        return total

    # -- comparison --------------------------------------------------------------

    def struct_eq(self, other: "PowerPoly", tol: float = STRUCTURAL_TOLERANCE) -> bool:
        """Structural equality: same support, coefficients within ``tol``."""
        return self.max_coeff_diff(other) <= tol

    def max_coeff_diff(self, other: "PowerPoly") -> float:
        """Largest absolute coefficient difference over the merged support."""
        exps = {e for e, _ in self._terms} | {e for e, _ in other._terms}
        if not exps:
            return 0.0
        return max(abs(self.coefficient(e) - other.coefficient(e)) for e in exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    # -- rendering ------------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"PowerPoly({list(self._terms)!r})"


def canonicalize(raw_terms: TermsLike) -> PowerPoly:
    """Merge, sort and clean raw ``(exponent, coefficient)`` pairs."""
    return PowerPoly(raw_terms)


def mul(p: PowerPoly, q: PowerPoly) -> PowerPoly:
    """Distributive product of two polynomials, canonicalized."""
    out = []
    for ep, cp in p.terms:
        for eq, cq in q.terms:
            out.append((ep + eq, cp * cq))
    return PowerPoly(out)


def constant(value: float) -> PowerPoly:
    return PowerPoly([(0, value)])


ZERO = PowerPoly()
ONE = constant(1.0)


# -- textual form -------------------------------------------------------------------
#
# Rendering is "c0 + c1 u^{p1} + ..." with fractional exponents printed inside
# braces ("u^{1/2}") and integer exponents bare ("u^3").  The parser accepts the
# same grammar, plus simple fraction coefficients like "2/9".

def _format_coeff(value: float) -> str:
    text = f"{value:.12g}"
    return text


def _format_power(exp: Fraction) -> str:
    if exp == 1:
        return "u"
    if exp.denominator == 1:
        return f"u^{exp.numerator}"
    return f"u^{{{exp.numerator}/{exp.denominator}}}"


def format_poly(p: PowerPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i, (exp, coeff) in enumerate(p.terms):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if exp == 0:
            body = _format_coeff(mag)
        elif math.isclose(mag, 1.0, rel_tol=0, abs_tol=STRUCTURAL_TOLERANCE):
            body = _format_power(exp)
        else:
            body = f"{_format_coeff(mag)} {_format_power(exp)}"
        if i == 0:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"""^\s*
    (?P<coeff>[0-9.]+(?:[eE][+-]?[0-9]+)?(?:/[0-9]+)?)?   # number or simple fraction
    \s*\*?\s*
    (?P<var>u(?:\^(?:\{(?P<bexp>-?[0-9]+(?:/[0-9]+)?)\}|(?P<exp>-?[0-9]+(?:/[0-9]+)?)))?)?
    \s*$""",
    re.VERBOSE,
)


def _parse_number(text: str) -> float:
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def parse_poly(text: str) -> PowerPoly:
    """Parse the textual polynomial grammar produced by :func:`format_poly`."""
    cleaned = text.strip()
    if cleaned in ("0", ""):
        return ZERO
    # split into signed chunks at top-level signs (not inside ^{a/b})
    chunks = []
    depth = 0
    current = ""
    for ch in cleaned:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch in "+-" and depth == 0 and current.strip():
            chunks.append(current)
            current = ch
        else:
            current += ch
    if current.strip():
        chunks.append(current)

    terms = []
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1.0
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        match = _TERM_RE.match(chunk)
        if not match or (match.group("coeff") is None and match.group("var") is None):
            raise DomainError(f"cannot parse polynomial term {chunk!r} in {text!r}")
        coeff = sign * (_parse_number(match.group("coeff")) if match.group("coeff") else 1.0)
        if match.group("var") is None:
            exp = Fraction(0)
        else:
            raw = match.group("bexp") or match.group("exp")
            exp = Fraction(raw) if raw else Fraction(1)
        terms.append((as_exponent(exp), coeff))
    return PowerPoly(terms)
