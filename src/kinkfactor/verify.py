"""Independent numerical verification of factorizations and kinks.

Three layers of evidence, each independent of the symbolic pipeline:

* :func:`residual_max` evaluates u'' + gamma*u' + F(u) along a closed-form
  kink using its analytic derivatives (never finite differences, so exact
  solutions verify to machine precision instead of discretization noise).
* :func:`rk4_flow` and :func:`rk4_second_order` integrate the compatible
  first-order flow and the full second-order equation with the classical
  fourth-order Runge-Kutta scheme and compare trajectories against the
  closed forms.  The RK4 scheme is written once, in the runner :func:`_rk4`,
  which compiles the whole loop into one Python function from the slopes
  each oracle passes (phi(u)*u; v and -gamma*v - F(u)) with the polynomial's
  Horner expression (:func:`powerpoly._horner_expression`) written into each
  stage, so a step makes no ``evaluate`` call and stores nothing between
  Horner's operations.  An oracle keeps only its slopes, its state check and
  its error texts.
* :func:`simulate_front` evolves the reaction-diffusion equation
  u_t = u_xx + F(u) with an explicit FTCS scheme from an exact kink initial
  condition and measures the front speed by tracking a level crossing, which
  should reproduce the velocity gamma of the travelling frame.  Its steps run
  in one kernel generated per run, :func:`_ftcs_kernel`, with the Horner
  operations of the folded reaction polynomial written into it, each one
  numpy call into a buffer of the run (:func:`powerpoly._horner_into`).  The
  kernel is the one place that samples the front: at t = 0, every
  FRONT_SAMPLE_EVERY steps and at the last step it checks the field, stores
  the crossing and raises the error of a failed sample, so the run returns
  to Python only at snapshots and at the end.

Every uniform axis above (the residual scan, the kink samples, the RK4 xi
grid and the FTCS x grid and time axis) is lo + i*step, checked by one rule,
:func:`_steps`, before its first point: finite increasing ends, a step above
the float spacing at the ends, at most MAX_STEPS steps and at least one.

Kink samples, front tracks and field snapshots are written as CSV through the
one writer :func:`write_csv`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (
    CflError,
    DomainError,
    InstabilityError,
    TruncatedRunError,
    UnsupportedFamilyError,
)
from .factorizer import OdeSpec
from .kinks import KinkProfile, solve_binomial_flow
from .powerpoly import PowerPoly, _define, _horner_expression, _horner_into

#: ``simulate_front`` records the front position every this many time steps.
FRONT_SAMPLE_EVERY = 5

#: Points of a kink sample: the kink CSV and the figures.
SAMPLE_POINTS = 1001

#: Most steps of a uniform axis (:func:`_steps`): residual scan, kink sample,
#: RK4 run, FTCS x grid and time axis; a larger count is a
#: :class:`DomainError`, not a huge allocation or an endless loop.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class ResidualReport:
    """Maximum absolute residual of a kink in an ODE over a uniform grid."""

    max_abs_residual: float
    argmax_xi: float
    grid: tuple[float, float, int]


@dataclass(frozen=True)
class FrontSimResult:
    """Outcome of a front-propagation run.

    ``front_positions[i]`` is the interpolated crossing of the tracking level
    at ``times[i]``; ``fitted_speed`` is the least-squares slope over the
    second half of the run and ``fit_residual`` its RMS deviation.
    ``snapshots`` holds ``(t, u)`` field copies when the run was asked for
    them, and is empty otherwise.
    """

    times: tuple[float, ...]
    front_positions: tuple[float, ...]
    fitted_speed: float
    fit_residual: float
    grid: tuple[float, float, float]
    dt: float
    level: float
    snapshots: tuple[tuple[float, np.ndarray], ...] = field(
        default=(), repr=False, compare=False
    )


def residual_max(
    ode: OdeSpec,
    kink: KinkProfile,
    grid: tuple[float, float, int],
) -> ResidualReport:
    """Max of |u'' + gamma*u' + F(u)| along the kink over a uniform grid.

    The scan is one generated function (:func:`_scan`), whose code is
    compiled once per shape of F.  At each point lo + i*step it makes one ``kink.eval``
    call for u, u' and u'', and computes F inline from the lines of
    :meth:`KinkProfile._along_lines`: a polynomial in the magnitude of the
    core, so that signed-core profiles are checked against the equation they
    actually solve.  For a kink with outer power 1 that magnitude is +-u, so
    a point takes one exponential, the one in ``eval``; any other kink takes
    a second one for it.  The first maximum is reported, and a NaN residual
    counts as larger than any number.  A value beyond the float range is a
    :class:`DomainError` that names the point: a power that raises
    ``OverflowError``, or an F value that is not finite, since Horner's
    products overflow to inf instead of raising.  So is a count that is not
    an integer of at least 3, and a grid that :func:`_steps` refuses with
    step = (hi - lo)/(count - 1), before the first point.
    """
    lo, hi, count = grid
    if not (isinstance(count, int) and count >= 3):
        raise DomainError(f"residual grid {grid} needs an integer count of at least 3")
    step = (hi - lo) / (count - 1)
    _steps(lo, hi, step, "residual grid")
    worst, worst_xi = _scan(ode, kink)(lo, step, count)
    return ResidualReport(max_abs_residual=worst, argmax_xi=worst_xi, grid=grid)


def _overflow(xi: float) -> DomainError:
    return DomainError(f"the residual overflows the float range at xi = {xi:g}")


def _scan(ode: OdeSpec, kink: KinkProfile):
    """The loop of :func:`residual_max`: ``scan(lo, step, count)`` returns
    the maximum and its point.

    Per point it calls ``kink.eval``, runs the lines of F along the kink
    (:meth:`KinkProfile._along_lines`, given ``u``, so that a kink with
    outer power 1 reads the core's magnitude from eval's u) and tests that F
    is finite: a power raises ``OverflowError``, but Horner's products
    overflow to inf, and a NaN fails the comparison too.  Either way the
    loop raises the :class:`DomainError` of the point.
    """
    names: dict[str, object] = {"ev": kink.eval, "gamma": ode.gamma, "inf": math.inf,
                                "overflow": _overflow}
    lines, f = kink._along_lines(ode.F, names, "u")
    body = [
        "worst = -1.0",
        "worst_xi = lo",
        "try:",
        "    for i in range(count):",
        "        xi = lo + i * step",
        "        u, du, ddu = ev(xi)",
        *(f"        {line}" for line in lines),
        f"        f = {f}",
        "        if not -inf < f < inf:",
        "            raise OverflowError",
        "        res = abs(ddu + gamma * du + f)",
        "        if not res <= worst:",
        "            worst = res",
        "            worst_xi = xi",
        "            if res != res:",   # nothing is larger than a NaN
        "                break",
        "except OverflowError:",
        "    raise overflow(xi) from None",
        "return worst, worst_xi",
    ]
    return _define("scan(lo, step, count)", body, names, "verify.scan")


def default_grid(kink: KinkProfile, count: int = 2001):
    """Uniform (lo, hi, count) grid spanning xi0 +/- 10 natural widths."""
    span = 10.0 * kink.width
    return (kink.shift - span, kink.shift + span, count)


def grid_points(grid: tuple[float, float, int]):
    """The points lo + i*step, i < count, of a grid as floats; step = (hi - lo)/(count - 1)."""
    lo, hi, count = grid
    return _axis(lo, hi, (hi - lo) / (count - 1), "kink sample grid").tolist()


def rk4_flow(
    phi: PowerPoly,
    u0: float,
    xi_range: tuple[float, float],
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 integration of the scalar flow u' = phi(u)*u.

    When phi's kink (:func:`solve_binomial_flow`) is real, the state must stay
    between its asymptotes, the flow's fixed points 0 and u* (of either sign),
    up to a 1e-6 tolerance; otherwise it must stay above -1e-6.  Leaving that
    region (or producing a non-finite value, or a fractional power that
    overflows) raises :class:`InstabilityError`.
    """
    try:
        kink = solve_binomial_flow(phi)
    except UnsupportedFamilyError:
        kink = None
    # with no real second fixed point the region is [0, inf), widened by the slack
    real = kink is not None and kink.is_real_valued
    try:
        ends = kink.asymptotes() if real else (0.0, math.inf)
    except OverflowError:       # a second fixed point beyond the float range
        raise InstabilityError("flow integration overflowed the float range") from None
    low, high = min(ends) - 1e-6, max(ends) + 1e-6

    # the chained comparisons are isfinite and the range check without a
    # call; a NaN fails every comparison
    xis, (us,), i = _rk4(phi, xi_range, step, {"u": (u0, "({poly}) * {u}")},
                         "-inf < u < inf and low <= u <= high", "flow integration",
                         low=low, high=high)
    if i:
        if not math.isfinite(us[i]):
            raise InstabilityError(f"flow integration diverged at step {i - 1}")
        raise InstabilityError(
            f"flow state {us[i]:g} left [{low:g}, {high:g}] at xi = {xis[i]:g}"
        )
    return xis, us


def _rk4(poly: PowerPoly, xi_range: tuple[float, float], step: float, states,
         check: str, what: str, **names):
    """Run the compiled classical RK4 loop of ``states`` over ``xi_range``.

    The one place the RK4 scheme is written.  ``states`` maps each state's
    name to its start and its slope: an expression in which ``{name}`` stands
    for that state at the stage and ``{poly}`` for poly at the stage's value
    of the first state, written out as the :func:`_horner_expression`
    expression (after that function's lines, if any).  Stage 1 takes the
    states themselves; at stage j = 2, 3, 4 a state x is ``x<j>`` = x + h*k,
    k being its slope at stage j - 1 and h step/2, step/2 and step.  The step
    then sets each state x to x + step*(k1 + 2*k2 + 2*k3 + k4)/6 over its four
    slopes, in the order of ``states``.  So a slope that is this state or a
    later one, such as u' = v, is read in place, and any other is stored once
    per stage as ``d<x><j>``.  The slopes and ``check``, an expression that
    must hold after each step, may read ``half``, ``step``, ``inf`` and the
    keys of ``names``.  The loop is ``def run(u, us)`` (``run(u, v, us, vs)``
    for the states u and v) over the steps 1, 2, ... < len(us): it stores
    each state into its array and returns i when ``check`` fails.

    Returns the xi grid :func:`_axis` builds, one float array per state
    (entry 0 holds the start) and the step that failed its check, or 0.  An
    ``OverflowError``, from a fractional power of a diverging state, is an
    :class:`InstabilityError` that says ``what`` overflowed.
    """
    xis = _axis(*xi_range, step, "xi range")
    # 0.5 * step * k is (0.5 * step) * k, so half * k has the same bits
    names.update(half=0.5 * step, step=step, inf=math.inf)
    order = list(states)
    at, slopes, body = dict(zip(order, order)), {s: [] for s in order}, []
    for stage, reach in enumerate(["half", "half", "step", None], 1):
        setup, value = _horner_expression(poly.terms, at[order[0]], names,
                                          f"{at[order[0]]} < 0")
        body += setup
        for k, (s, (_, slope)) in enumerate(states.items()):
            # the step has not yet written this state or a later one
            in_place = slope in [f"{{{t}}}" for t in order[k:]]
            slopes[s].append(slope.format(**at) if in_place else f"d{s}{stage}")
            body += [] if in_place else [f"d{s}{stage} = {slope.format(poly=value, **at)}"]
        if reach:
            at = {s: f"{s}{stage + 1}" for s in order}
            body += [f"{at[s]} = {s} + {reach} * {slopes[s][-1]}" for s in order]
    body += [f"{s} = {s} + step * ({k1} + 2.0 * {k2} + 2.0 * {k3} + {k4}) / 6.0"
             for s, (k1, k2, k3, k4) in slopes.items()]
    body += [f"{s}s[i] = {s}" for s in order] + [f"if not ({check}):", "    return i"]
    run = _define(f"run({', '.join(order + [s + 's' for s in order])})",
                  ["for i in range(1, len(us)):", *(f"    {line}" for line in body),
                   "return 0"], names, "verify.rk4")
    arrays = [array("d", [float(start)]) * len(xis) for start, _ in states.values()]
    try:
        i = run(*(a[0] for a in arrays), *arrays)
    except OverflowError:       # a fractional power of a diverging state
        raise InstabilityError(f"{what} overflowed the float range") from None
    return xis, [np.frombuffer(a) for a in arrays], i


def _steps(lo: float, hi: float, step: float, what: str) -> int:
    """The step count round((hi - lo)/step) of the uniform axis lo + i*step.

    The one grid rule: the residual scan, the kink samples, the RK4 xi grid
    and the FTCS x grid and time axis are all checked here before their first
    point, and the error names the axis ``what``, its ends and its step.  A :class:`DomainError` refuses, in this order: an end that is not
    finite; ends that decrease; a step that is not above the float spacing at
    the ends, where the points would collapse onto a few floats; more than
    MAX_STEPS steps; a range that rounds to no step.  Equal ends fail one of
    the last three, so a grid whose ends round to one float names the spacing.
    """
    ends = f"[{float(lo)!r}, {float(hi)!r}]"
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{what} {ends} must have finite ends")
    if lo > hi:
        raise DomainError(f"{what} {ends} must have lo < hi")
    spacing = math.ulp(max(abs(lo), abs(hi)))
    if not step > spacing:      # also a NaN step
        raise DomainError(
            f"{what} {ends} has step {step:g}, not above the float spacing {spacing:g}"
            " there"
        )
    count = (hi - lo) / step
    if not count <= MAX_STEPS:      # also an infinite count
        raise DomainError(
            f"{what} {ends} would take {count:.3g} steps of {step:g}; at most"
            f" {MAX_STEPS:.0e} are allowed"
        )
    count = int(round(count))
    if not count:
        raise DomainError(f"{what} {ends} rounds to no step of {step:g}")
    return count


def _axis(lo: float, hi: float, step: float, what: str) -> np.ndarray:
    """The points lo + i*step, i = 0, ..., :func:`_steps`, of the axis ``what``."""
    return lo + step * np.arange(_steps(lo, hi, step, what) + 1)


def rk4_second_order(
    ode: OdeSpec,
    u0: float,
    v0: float,
    xi_range: tuple[float, float],
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 on the first-order system (u, u') for u'' + gamma*u' + F(u) = 0.

    A state with |u| > 1e6 or one that is not finite, and a fractional power
    that overflows, raise :class:`InstabilityError`.
    """
    # -gamma * v is (-gamma) * v, so ngamma * v has the same bits; |u| > 1e6
    # or a state that is not finite fails the check
    xis, (us, vs), i = _rk4(ode.F, xi_range, step,
                            {"u": (u0, "{v}"), "v": (v0, "ngamma * {v} - ({poly})")},
                            "-1e6 <= u <= 1e6 and -inf < v < inf",
                            "second-order integration", ngamma=-ode.gamma)
    if i:
        raise InstabilityError(f"second-order integration blew up at step {i - 1}")
    return xis, us, vs


def _stiffness(F: PowerPoly, u: np.ndarray) -> float:
    """max(0, -min F'(u)) over the cells of ``u`` that are not 0.

    F'(u) is ``u * dF/du`` (:meth:`PowerPoly.u_deriv`) divided by u.  A NaN
    slope is ignored by the max, so it leaves the plain diffusion bound.
    """
    cells = u[u != 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = F.u_deriv().evaluate(cells) / cells
    return max(0.0, -float(slopes.min(initial=math.inf)))


def _front_setup(F: PowerPoly, initial: KinkProfile, grid: tuple[float, float, float],
                 dt: float, T: float, snapshot_every: int | None):
    """The checks :func:`simulate_front` makes before its first step.

    Returns the x grid, the initial field on it and the step count.
    """
    x_min, x_max, dx = grid
    x = _axis(x_min, x_max, dx, "x grid")
    n_steps = _steps(0.0, T, dt, "time axis")
    if snapshot_every is not None and snapshot_every < 1:
        raise DomainError(f"snapshot_every must be >= 1, got {snapshot_every}")
    margin = 10.0 * initial.width
    if initial.shift - margin < x_min or initial.shift + margin > x_max:
        raise DomainError(
            "initial kink needs >= 10 natural widths of margin to each boundary"
        )

    u = _aligned(len(x))
    # Python floats: numpy-scalar arithmetic is slower, with the same bits
    u[:] = [initial.value(xi) for xi in x.tolist()]
    # the fit needs two samples at t >= T/2: the last step and the multiple of
    # FRONT_SAMPLE_EVERY before it (step 0 is the initial field)
    if FRONT_SAMPLE_EVERY * ((n_steps - 1) // FRONT_SAMPLE_EVERY) * dt < T / 2.0:
        raise DomainError("not enough samples in the second half of the run")
    stiffness = _stiffness(F, u)
    bound = 2.0 / (4.0 / (dx * dx) + stiffness)
    if dt > bound * (1.0 + 1e-12):
        raise CflError(
            f"dt = {dt:g} violates the stability bound dt <= 2/(4/dx^2 + s)"
            f" = {bound:g}, with dx = {dx:g} and stiffness s = {stiffness:g}"
        )
    return x, u, n_steps


def _aligned(n: int) -> np.ndarray:
    """An uninitialized float array of n elements that starts on a 64-byte boundary.

    Where malloc placed numpy's buffers moved a front run's time by 3-5%, and
    with plain ``np.empty`` buffers the ``fronts`` benchmark's pass_s read 10%
    slower on a 2-core AVX-512 Xeon (10 of 10 pairs of 25 s runs).
    """
    raw = np.empty(n + 7)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    return raw[skip:skip + n]


def _ftcs_kernel(F: PowerPoly, a: float, dt: float, u: np.ndarray, x: np.ndarray,
                 level: float, band: tuple[float, float], last: int, fronts: array):
    """``steps(k, stop)``: folded FTCS steps k + 1, ..., stop on the field ``u``.

    One step is u_i <- a*(u_{i-1} + u_{i+1}) + H(u_i) on the inner cells, in
    place, with H(u) = (1 - 2a)*u + dt*F(u): ``add(u_up, u_down, w)``,
    ``multiply(w, a, w)``, H's Horner operations into the buffer ``h``
    (:func:`powerpoly._horner_into`), then ``add(w, h, u)``.  H reads the
    inner cells and writes h before they are written.  ``a`` is a 0-d float64
    array, as H's coefficients are.

    A call with k = 0 first samples the field as it is, at t = 0, so
    ``steps(0, 0)`` only samples.  A step k that is a multiple of
    FRONT_SAMPLE_EVERY, or the ``last`` step, is a sample too.  A sample is
    checked in this order, and the first check that fails raises its error
    from the kernel: u.u is finite, else an :class:`InstabilityError` that
    names the step and its time k*dt; the level is still crossed on the grid
    ``x``, else a :class:`TruncatedRunError`; the crossing lies within
    ``band``, else a :class:`TruncatedRunError` that names it.  The position
    goes into ``fronts[ceil(k / FRONT_SAMPLE_EVERY)]``; ``steps`` returns
    nothing.

    The crossing is linearly interpolated in the first cell pair (j - 1, j)
    across the level, between d_{j-1} = u_{j-1} - level and d_j.  The end
    cells are never written, so the side of the level that u_0 is on holds
    for the run, and j is the first cell of ``past(u, level)``, ``past``
    being ``less`` or ``greater_equal`` and ``level`` a 0-d float64 array
    there.  That is exact for a field whose u.u is finite, one with no NaN.
    For such a field j is where the sign bit of u - level first changes,
    except at ``level`` = +0.0, where a cell u = -0.0 has d = -0.0, a set sign
    bit, and is not below; ``simulate_front``'s level is never 0.  The code is
    generated by :func:`powerpoly._define` and shared by every H of one
    shape.
    """
    # H's coefficients are dt*c and 1 - 2a added to u's, folded from the raw
    # terms: PowerPoly's + would drop a u term that cancels, and where u is
    # H's only integer power the Horner code makes its first write into h
    # with that term
    folded = {e: dt * c for e, c in F.terms}
    one = Fraction(1)
    folded[one] = folded.get(one, 0.0) + (1.0 - 2.0 * a)
    n = len(u) - 2
    side = np.empty(len(u), dtype=bool)
    # the views of u follow its in-place updates; no name refers to the kernel,
    # so a dropped kernel is freed at once
    names = {"add": np.add, "multiply": np.multiply, "any_": np.any, "a": np.array(a),
             "u": u[1:-1], "u_up": u[2:], "u_down": u[:-2],
             "w": _aligned(n), "h": _aligned(n),
             "field": u, "dot": u.dot, "item": u.item, "isfinite": math.isfinite,
             "past": np.greater_equal if u[0] < level else np.less,
             "level_array": np.array(level), "side": side, "first": side.argmax,
             "xs": x.tolist(), "level": level, "low": band[0], "high": band[1],
             "last": last, "fronts": fronts, "dt": dt,
             "InstabilityError": InstabilityError, "TruncatedRunError": TruncatedRunError}
    # H has a u term, so its highest integer exponent is at least 1
    step = (["add(u_up, u_down, w)", "multiply(w, a, w)"]
            + _horner_into(sorted(folded.items()), "u", "h", names, "any_(u < 0)")
            + ["add(w, h, u)",
               f"if k % {FRONT_SAMPLE_EVERY} and k != last:", "    continue"])
    sample = [
        # u.u is finite unless u holds a NaN, an inf or a value beyond 1e154
        "if not isfinite(dot(field)):",
        "    raise InstabilityError("
        "f'FTCS field blew up at step {k} (t = {k * dt:g})')",
        "past(field, level_array, side)",
        "j = int(first())",
        "if not j:",
        "    raise TruncatedRunError("
        "'tracking level is no longer crossed in the domain')",
        "d0 = item(j - 1) - level",
        "d1 = item(j) - level",
        "x0 = xs[j - 1]",
        "pos = x0 + d0 / (d0 - d1) * (xs[j] - x0)",
        "if pos < low or pos > high:",
        "    raise TruncatedRunError("
        "f'front reached {pos:g}, within 5 cells of the boundary')",
        f"fronts[-(-k // {FRONT_SAMPLE_EVERY})] = pos",
    ]
    return _define("steps(k, stop)",
                   ["if not k:"] + [f"    {line}" for line in sample]
                   + ["for k in range(k + 1, stop + 1):"]
                   + [f"    {line}" for line in step + sample],
                   names, "verify.ftcs")


def simulate_front(
    F: PowerPoly,
    initial: KinkProfile,
    grid: tuple[float, float, float],
    dt: float,
    T: float,
    snapshot_every: int | None = None,
) -> FrontSimResult:
    """Explicit FTCS evolution of u_t = u_xx + F(u) from an exact kink.

    Boundaries are Dirichlet, pinned to the kink's asymptotic values.  The
    front position is the interpolated crossing of the kink's own midpoint
    level, and the speed is the least-squares slope of position vs time over
    the second half of the run.  The x grid and the time axis (0, T in steps
    of dt) must pass the grid rule :func:`_steps`, and the initial kink needs
    at least 10 natural widths of margin to each boundary.  A front
    within 5 cells of a boundary aborts the run, at t = 0 too, and so does a
    field that has blown up (a NaN, an infinity or a value beyond 1e154) at a
    sampling step.  With ``snapshot_every`` (>= 1) set, the field is also kept
    at t = 0 and every that many steps, in ``FrontSimResult.snapshots``.

    The time step must satisfy the stiffness-aware stability bound
    0 < dt <= 2/(4/dx^2 + s), where s = max(0, -min F'(u)) over the cells of
    the initial field with u != 0; with s = 0 this is dt <= dx^2/2.  A larger
    dt is a :class:`CflError` that names dt, the bound and s.

    Each step is the folded FTCS update u_i <- a*(u_{i-1} + u_{i+1}) + H(u_i)
    on the inner cells, with a = dt/dx^2 and the one polynomial
    H(u) = (1 - 2a)*u + dt*F(u), built once per run from F's raw terms.
    Since a <= 1/2 this is u + dt*(u_xx + F(u)) with its sums in another
    order.  The steps run in one kernel generated per run
    (:func:`_ftcs_kernel`), with H's Horner operations written into it: a
    step makes three numpy calls on the grid plus one per Horner operation,
    all writing into buffers of the run, so a step with no fractional power
    allocates no array; the end cells are never written.  The kernel also
    takes every front sample, t = 0 included, storing its position into an
    array of the run and raising the error of a sample that fails, so the
    loop only calls it once per block of steps up to the next snapshot or the
    last step and copies the snapshot.  The field, the neighbour sum and H's
    buffer start on 64-byte boundaries.
    """
    x_min, x_max, dx = grid
    x, u, n_steps = _front_setup(F, initial, grid, dt, T, snapshot_every)
    level = initial.midpoint_value()

    times = [k * dt for k in [*range(0, n_steps, FRONT_SAMPLE_EVERY), n_steps]]
    # every entry is a sample of the kernel; a NaN left over would show
    fronts = array("d", [math.nan]) * len(times)
    snapshots: list[tuple[float, np.ndarray]] = []
    if snapshot_every is not None:
        snapshots.append((0.0, u.copy()))

    guard = 5 * dx
    steps = _ftcs_kernel(F, dt / (dx * dx), dt, u, x, level,
                         (x_min + guard, x_max - guard), n_steps, fronts)
    cut = snapshot_every or n_steps
    # a blowing-up field overflows before the u.u check sees it; that check
    # is the report, so numpy warns about nothing in the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n_steps, cut):
            stop = min(n_steps, k + cut)
            steps(k, stop)
            if snapshot_every is not None and stop % snapshot_every == 0:
                snapshots.append((stop * dt, u.copy()))

    t_arr = np.array(times)
    p_arr = np.frombuffer(fronts)
    half = t_arr >= T / 2.0
    slope, intercept = np.polyfit(t_arr[half], p_arr[half], 1)
    fit = slope * t_arr[half] + intercept
    rms = float(np.sqrt(np.mean((p_arr[half] - fit) ** 2)))

    return FrontSimResult(
        times=tuple(times),
        front_positions=tuple(fronts),
        fitted_speed=float(slope),
        fit_residual=rms,
        grid=grid,
        dt=dt,
        level=level,
        snapshots=tuple(snapshots),
    )


def write_csv(path, header: tuple[str, ...], rows) -> None:
    """CSV with the named columns; every value is a 17-significant-digit float.

    Each row is a tuple of Python numbers, one per column.  Missing parent
    directories are created.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_kink_csv(path, kink: KinkProfile) -> None:
    """The kink on ``default_grid(kink, SAMPLE_POINTS)``: CSV columns xi, u, du, ddu."""
    points = grid_points(default_grid(kink, SAMPLE_POINTS))
    write_csv(path, ("xi", "u", "du", "ddu"), ((xi, *kink.eval(xi)) for xi in points))


def write_front_csv(path, result: FrontSimResult) -> None:
    """Front track as CSV with columns t, front_position."""
    write_csv(path, ("t", "front_position"), zip(result.times, result.front_positions))


def write_snapshots_csv(path, result: FrontSimResult) -> None:
    """Field snapshots of a run as CSV with columns t, x, u."""
    x_min, x_max, dx = result.grid
    xs = _axis(x_min, x_max, dx, "x grid").tolist()
    rows = ((t, x, v) for t, u in result.snapshots for x, v in zip(xs, u.tolist()))
    write_csv(path, ("t", "x", "u"), rows)


def summary_line(preset_id: str, gamma: float, fitted_speed: float,
                 residual: float) -> str:
    """The one-line summary of a front run, which heads a text report of
    ``simulate`` or ``verify --front``; with ``--json`` the one JSON document
    is the record, and this line is not printed."""
    return (
        f"preset={preset_id} gamma={gamma:.17g} "
        f"fitted_speed={fitted_speed:.17g} residual_max={residual:.17g}"
    )
