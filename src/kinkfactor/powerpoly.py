"""Sparse generalized polynomials in u with exact rational exponents.

A :class:`PowerPoly` is a finite sum ``c0 + c1*u^p1 + c2*u^p2 + ...`` where the
exponents are non-negative rationals stored exactly as :class:`fractions.Fraction`
and the coefficients are floats.  Exponents must be exact so that term merging
(``u^{1/2} * u^{1/2} == u``) never depends on floating point; coefficients are
floats because scale factors and velocities involve square roots.

Every polynomial is built by one canonicalizer, :class:`PowerPoly`'s
constructor, with one drop rule: a merged coefficient is dropped when it is
exactly 0, or when it is a cancellation residue, at most
:data:`STRUCTURAL_TOLERANCE` times the largest term that went into its sum.
A coefficient that nothing cancels is kept however small, so the algebra
commutes with scaling every coefficient by a power of 2.  Structural
equality of two polynomials means equal exponent support with coefficients
agreeing within :data:`STRUCTURAL_TOLERANCE`.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Tuple, Union

import numpy as np

from .errors import DomainError

#: A merged coefficient within this share of the largest term of its sum is
#: a cancellation residue, structurally zero.  The same constant is the
#: absolute tolerance of structural comparisons between polynomials.
STRUCTURAL_TOLERANCE = 1e-12

#: Largest exponent that text input may ask for: a ``parse_poly`` exponent or a
#: preset order n.  The algebra on PowerPoly instances is not bounded, and
#: evaluation time grows linearly with the exponent (see ``_UNROLLED_GAP``).
MAX_ORDER = 10**6

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

    Terms are kept sorted by strictly increasing exponent and merged by equal
    exponent, summed in the order given.  The merge key is the exact
    (numerator, denominator) of the reduced exponent; an exponent that is
    already a non-negative Fraction is kept, any other goes through
    :func:`as_exponent`.  A sum that is not finite is a
    :class:`DomainError`.  A sum of at most STRUCTURAL_TOLERANCE times the
    largest of its terms is dropped: an exact 0, or a cancellation residue.
    So a lone term is kept unless it is 0.  The empty term tuple represents
    the zero polynomial.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike = ()):
        # each exponent, its sum and the largest |term| that went into it,
        # under the exact key (numerator, denominator) of the reduced
        # exponent: a Fraction key would run Fraction.__hash__, Python code
        # that takes a modular inverse on every call
        merged: dict[tuple[int, int], tuple[Fraction, float, float]] = {}
        for exp, coeff in terms:
            if type(exp) is not Fraction or exp.numerator < 0:
                exp = as_exponent(exp)
            coeff = float(coeff)
            key = exp.numerator, exp.denominator
            exp, total, largest = merged.get(key, (exp, 0.0, 0.0))
            merged[key] = (exp, total + coeff, max(largest, abs(coeff)))
        for exp, coeff, _ in merged.values():
            if not math.isfinite(coeff):
                raise DomainError(f"coefficient {coeff} of u^{exp} is not finite")
        # n/d in increasing order is n*(lcm/d), an integer, over a common lcm
        lcm = math.lcm(*(d for _, d in merged))
        rising = sorted((n * (lcm // d), entry) for (n, d), entry in merged.items())
        clean = tuple(
            (exp, coeff)
            for _, (exp, coeff, largest) in rising
            if abs(coeff) > STRUCTURAL_TOLERANCE * largest
        )
        object.__setattr__(self, "_terms", clean)

    @property
    def terms(self) -> tuple[tuple[Fraction, float], ...]:
        return self._terms

    def __setattr__(self, name, value):
        raise AttributeError("PowerPoly is immutable")

    def __reduce__(self):
        # copies and pickles are rebuilt from the terms, past __setattr__
        return (PowerPoly, (self._terms,))

    # -- predicates and accessors -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

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

    def scale(self, factor: float) -> "PowerPoly":
        return PowerPoly((e, c * factor) for e, c in self._terms)

    def times_u(self) -> "PowerPoly":
        """Multiply by u: every exponent shifts up by one."""
        return PowerPoly((e + 1, c) for e, c in self._terms)

    def u_deriv(self) -> "PowerPoly":
        """The combination ``u * d(self)/du``, i.e. each term becomes ``c*p*u^p``."""
        return PowerPoly((e, c * float(e)) for e, c in self._terms)

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, u: float | np.ndarray) -> float | np.ndarray:
        """Evaluate at a float ``u``, or element-wise on a numpy array ``u``.

        Integer powers are built by repeated multiplication, so for integer
        exponents a float and an array element give bit-identical results.
        Negative ``u`` is allowed only when every exponent is an integer;
        fractional powers of negative numbers raise :class:`DomainError`.
        Each call compiles the polynomial (see :func:`_compile`), which
        costs microseconds, since :func:`_code` keeps the code object of each
        shape.
        """
        return _compile(self._terms)(u)

    # -- comparison --------------------------------------------------------------

    def struct_eq(self, other: "PowerPoly") -> bool:
        """Structural equality: coefficients within STRUCTURAL_TOLERANCE over the
        merged support, a missing term counting as 0."""
        return self.max_coeff_diff(other) <= STRUCTURAL_TOLERANCE

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


#: Longest exponent gap whose Horner multiplications are written out one line
#: each; a longer gap is a loop, so compiled code grows with the number of
#: terms and not with the exponents.
_UNROLLED_GAP = 8


def _negative_u_error(u) -> DomainError:
    return DomainError(f"cannot evaluate fractional powers at negative u = {np.min(u):g}")


def _horner_steps(terms, x: str, names: dict[str, object], negative: str | None):
    """Horner's steps of the terms at the variable ``x``.

    Returns the ``(c, gap)`` pairs of the integer exponents from the highest
    down, each gap the distance to the next lower exponent (the lowest term's
    gap is its own exponent); the lines that raise :class:`DomainError` when
    the test ``negative`` holds, if there are fractional terms and a test (a
    caller whose ``x`` is never negative passes None); and those terms as
    expressions ``f0 * x ** e0, ...``, with their coefficients and float
    exponents bound in ``names``, as is ``negative_u`` with the lines.
    """
    rising, below = [], 0
    for e, c in terms:
        if e.denominator == 1:
            rising.append((c, e.numerator - below))
            below = e.numerator
    check, fractional = [], []
    for j, (e, c) in enumerate((e, c) for e, c in terms if e.denominator != 1):
        names[f"f{j}"], names[f"e{j}"] = c, float(e)
        fractional.append(f"f{j} * {x} ** e{j}")
    if fractional and negative is not None:
        names["negative_u"] = _negative_u_error
        check = [f"if {negative}:", f"    raise negative_u({x})"]
    return rising[::-1], check, fractional


#: Most terms that one :func:`_horner_expression` expression nests in each of
#: its two sums: an integer term nests one parenthesis, and CPython's parser
#: refuses more than 200; a fractional term nests one level of the compiler's
#: recursion, which CPython 3.11 exhausts near 3,000.
_NESTED_TERMS = 50


def _horner_expression(terms, x: str, names: dict[str, object],
                       negative: str | None) -> tuple[list[str], str]:
    """Lines, then one expression that is the polynomial at ``x``.

    Horner's rule runs on the integer-exponent terms from the highest
    exponent down (:func:`_horner_steps`): it adds a coefficient, then
    multiplies by ``x`` once per unit of the gap to the next lower exponent.
    The fractional terms ``f0 * x ** e0, ...`` are added after it, from the
    left.  The expression holds these operations in this order with no store
    between them: coefficients c0, c1 with gaps 2 and 1 give
    ``(c0 * x * x + c1) * x``.  ``c0`` is bound to Horner's first sum
    ``0.0 + c``, which differs from ``c`` at ``c = -0.0``.  A gap over
    :data:`_UNROLLED_GAP` stores ``total`` and runs ``for _ in range(g0):
    total *= x``; every :data:`_NESTED_TERMS`-th term of either sum stores
    ``total`` too.  So the code grows with neither the exponents nor the
    compiler's nesting, and the operations keep their order and bits.  The
    lines hold those stores and, with fractional terms and a test
    ``negative`` (None is no test), that test first, which raises
    :class:`DomainError` when it holds.  The names ``c0, g0, f0, e0, ...``
    and ``negative_u`` are bound in ``names``; the same terms always bind the
    same values, so one ``names`` can serve several calls.  A float or a
    numpy array ``x`` runs the same code, and an array ``x`` is never written
    into.
    """
    rising, lines, fractional = _horner_steps(terms, x, names, negative)
    value = "0.0"
    for i, (c, gap) in enumerate(rising):
        names[f"c{i}"] = c if i else 0.0 + c
        value = f"({value} + c{i})" if i else "c0"
        if gap > _UNROLLED_GAP or i % _NESTED_TERMS == _NESTED_TERMS - 1:
            lines.append(f"total = {value}")
            value = "total"
        if gap > _UNROLLED_GAP:
            names[f"g{i}"] = gap
            lines += [f"for _ in range(g{i}):", f"    total *= {x}"]
        else:
            value += f" * {x}" * gap
    for j, term in enumerate(fractional):
        value = f"{value} + {term}"
        if j % _NESTED_TERMS == _NESTED_TERMS - 1:
            lines.append(f"total = {value}")
            value = "total"
    return lines, value


def _horner_into(terms, x: str, out: str, names: dict[str, object],
                 negative: str) -> list[str]:
    """Lines that write the polynomial at the numpy array ``x`` into ``out``.

    The lines run :func:`_horner_expression`'s operations in its order, one
    numpy call each, every one with ``out`` as its output: first
    ``multiply(x, c0, out)``, then ``multiply(out, x, out)`` per further unit
    of a gap (a loop past :data:`_UNROLLED_GAP`) and ``add(out, c1, out)``
    per coefficient.  The test ``negative`` and the fractional terms
    ``add(out, f0 * x ** e0, out)`` come last; only those terms allocate.
    The names are the expression's, but each coefficient is bound as a 0-d
    float64 array, which numpy takes with less overhead per call than a
    float, with the same bits.  ``names`` must bind ``add`` and ``multiply``
    to numpy's.  The highest integer exponent must be at least 1, so that
    the first call writes ``out``.
    """
    rising, check, fractional = _horner_steps(terms, x, names, negative)
    lines = []
    for i, (c, gap) in enumerate(rising):
        if i:
            names[f"c{i}"] = np.array(c)
            lines.append(f"add({out}, c{i}, {out})")
        else:
            names["c0"] = np.array(0.0 + c)
            lines.append(f"multiply({x}, c0, {out})")
            gap -= 1
        if gap > _UNROLLED_GAP:
            names[f"g{i}"] = gap
            lines += [f"for _ in range(g{i}):", f"    multiply({out}, {x}, {out})"]
        else:
            lines += [f"multiply({out}, {x}, {out})"] * gap
    return lines + check + [f"add({out}, {term}, {out})" for term in fractional]


@functools.lru_cache(maxsize=256)
def _code(source: str, filename: str):
    """The code object of ``source``, compiled once per source text."""
    return compile(source, f"<{filename}>", "exec")


def _define(signature: str, body: list[str], names: dict[str, object],
            filename: str) -> Callable:
    """The function ``def <signature>:`` with the lines ``body``.

    The code holds only generated names; their values in ``names`` are bound
    to them as closure variables, as ``dataclasses`` builds its methods.  So
    polynomials of one shape with other coefficients share one code object
    (:func:`_code`), and each call binds its own values.
    """
    source = "\n".join(
        [f"def make({', '.join(names)}):", f"    def {signature}:"]
        + [f"        {line}" for line in body]
        + [f"    return {signature.partition('(')[0]}"]
    )
    namespace: dict[str, object] = {}
    exec(_code(source, filename), namespace)
    # popping make leaves no reference cycle, so a dropped function is freed
    # at once and not at the next full garbage collection; the values go in
    # by position, since matching n keywords takes n*n/2 comparisons
    return namespace.pop("make")(*names.values())


def _compile(terms) -> Callable:
    """One Python function ``u -> value`` for the terms.

    It returns the :func:`_horner_expression` expression in ``u``, after that
    function's lines; a float or an array u takes the same code.  A constant
    (or zero) polynomial returns an array of ``u``'s shape for an array ``u``.
    """
    names: dict[str, object] = {"ndarray": np.ndarray, "full": np.full, "any_": np.any}
    # np.any on a float costs microseconds, so a float u takes the plain test
    body, value = _horner_expression(
        terms, "u", names, "any_(u < 0) if isinstance(u, ndarray) else u < 0")
    if all(e == 0 for e, _ in terms):
        # no operation multiplies by u, so the value is a float
        body += ["if isinstance(u, ndarray):", f"    return full(u.shape, {value})"]
    return _define("evaluate(u)", body + [f"return {value}"], names, "PowerPoly.evaluate")


def mul(p: PowerPoly, q: PowerPoly) -> PowerPoly:
    """Distributive product of two polynomials, canonicalized by PowerPoly."""
    return PowerPoly([(ep + eq, cp * cq) for ep, cp in p.terms for eq, cq in q.terms])


# -- textual form -------------------------------------------------------------------
#
# Rendering is "c0 + c1 u^{p1} + ..." with fractional exponents printed inside
# braces ("u^{1/2}") and integer exponents bare ("u^3").  The parser accepts the
# same grammar, plus simple fraction coefficients like "2/9".

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
            body = f"{mag:.12g}"
        elif math.isclose(mag, 1.0, rel_tol=0, abs_tol=STRUCTURAL_TOLERANCE):
            body = _format_power(exp)
        else:
            body = f"{mag:.12g} {_format_power(exp)}"
        if i == 0:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


#: One term, read at the current position: an optional sign (only the first
#: term may leave it out), an optional number or simple fraction, an optional
#: ``*`` and an optional ``u``, ``u^p`` or ``u^{p}``.
_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
    (?P<coeff>[0-9.]+(?:[eE][+-]?[0-9]+)?(?:/[0-9]+)?)?   # number or simple fraction
    \s*\*?\s*
    (?P<var>u(?:\^(?:\{(?P<bexp>-?[0-9]+(?:/0*[1-9][0-9]*)?)\}   # exponent p or p/q, q > 0
                 |(?P<exp>[0-9]+(?:/0*[1-9][0-9]*)?)))?)?
    \s*""",
    re.VERBOSE,
)


def _parse_number(text: str) -> float:
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"cannot read {text!r} as a finite number")
    return value


def parse_poly(text: str) -> PowerPoly:
    """Parse the textual polynomial grammar produced by :func:`format_poly`.

    Each :data:`_TERM_RE` match reads one term; blank text is the zero
    polynomial.
    """
    terms, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        match = _TERM_RE.match(text, pos)
        if (match["coeff"] is None and match["var"] is None) or (terms and not match["sign"]):
            raise DomainError(f"cannot parse polynomial term {text[pos:]!r} in {text!r}")
        sign = -1.0 if match["sign"] == "-" else 1.0
        coeff = sign * (_parse_number(match["coeff"]) if match["coeff"] else 1.0)
        raw = match["bexp"] or match["exp"] or ("1" if match["var"] else "0")
        try:
            exp = Fraction(raw)
        except ValueError:      # int() reads at most sys.get_int_max_str_digits()
            raise DomainError(
                f"cannot read an exponent of {len(raw)} characters; at most {MAX_ORDER}"
                " is allowed"
            ) from None
        if exp > MAX_ORDER:
            raise DomainError(f"exponent {exp} in {text!r} exceeds {MAX_ORDER}")
        terms.append((as_exponent(exp), coeff))
        pos = match.end()
    return PowerPoly(terms)
