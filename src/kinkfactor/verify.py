"""Independent numerical verification of factorizations and kinks.

Three layers of evidence, each independent of the symbolic pipeline:

* :func:`residual_max` evaluates u'' + gamma*u' + F(u) along a closed-form
  kink using its analytic derivatives (never finite differences, so exact
  solutions verify to machine precision instead of discretization noise).
* :func:`rk4_flow` and :func:`rk4_second_order` integrate the compatible
  first-order flow and the full second-order equation with the classical
  fourth-order Runge-Kutta scheme and compare trajectories against the
  closed forms.  Both run through one runner, :func:`_rk4`, which compiles
  the whole loop into one Python function.  Each stage is one line with the
  polynomial's Horner expression (:func:`powerpoly._horner_expression`)
  written into it, so a step makes no ``evaluate`` call and stores nothing
  between Horner's operations; the second-order loop binds -gamma once, as
  ``ngamma``.
* :func:`simulate_front` evolves the reaction-diffusion equation
  u_t = u_xx + F(u) with an explicit FTCS scheme from an exact kink initial
  condition and measures the front speed by tracking a level crossing, which
  should reproduce the velocity gamma of the travelling frame.  Its steps run
  in one kernel generated per run, :func:`_ftcs_kernel`, with the Horner
  operations of the folded reaction polynomial written into it, each one
  numpy call into a buffer of the run (:func:`powerpoly._horner_into`).

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

#: Most steps an RK4 run may take, and most cells and time steps of an FTCS
#: run; a larger count is a :class:`DomainError`, not a huge allocation or an
#: endless loop.
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

    Each point makes one ``kink.eval`` call for u, u' and u''.  F is compiled
    along the kink once per scan (:meth:`KinkProfile.along`), as a polynomial
    in the magnitude of the core, so that signed-core profiles are checked
    against the equation they actually solve.  The first maximum is reported,
    and a NaN residual counts as larger than any number.  A value beyond the
    float range is a :class:`DomainError` that names the point: a power that
    raises ``OverflowError``, or an F value that is not finite, since Horner's
    products overflow to inf instead of raising.  So is a grid whose step is
    not above the float spacing at its ends, where its points would collapse
    onto a few floats.  So is a grid with an end that is not finite, or a count
    that is not an integer of at least 3.
    """
    lo, hi, count = grid
    if not (isinstance(count, int) and count >= 3):
        raise DomainError(f"residual grid {grid} needs an integer count of at least 3")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"residual grid {grid} must have finite ends")
    if lo > hi:
        raise DomainError("residual grid must have lo < hi")
    step = (hi - lo) / (count - 1)
    spacing = math.ulp(max(abs(lo), abs(hi)))
    if step <= spacing:
        raise DomainError(
            f"residual grid [{lo:.17g}, {hi:.17g}] of {count} points is finer than"
            f" the float spacing {spacing:g} there"
        )
    gamma, inf = ode.gamma, math.inf
    F = kink.along(ode.F)
    ev = kink.eval
    worst = -1.0
    worst_xi = lo
    try:
        for xi in grid_points(grid):
            u, du, ddu = ev(xi)
            f = F(xi)
            # a power raises OverflowError, but Horner's products overflow to
            # inf; a NaN fails the comparison too
            if not -inf < f < inf:
                raise OverflowError
            res = abs(ddu + gamma * du + f)
            if not res <= worst:
                worst, worst_xi = res, xi
                if res != res:     # nothing is larger than a NaN
                    break
    except OverflowError:
        raise DomainError(
            f"the residual overflows the float range at xi = {xi:g}"
        ) from None
    return ResidualReport(max_abs_residual=worst, argmax_xi=worst_xi, grid=grid)


def default_grid(kink: KinkProfile, count: int = 2001):
    """Uniform (lo, hi, count) grid spanning xi0 +/- 10 natural widths."""
    span = 10.0 * kink.width
    return (kink.shift - span, kink.shift + span, count)


def grid_points(grid: tuple[float, float, int]):
    """The points lo + i*step, i < count, of a grid; step = (hi - lo)/(count - 1)."""
    lo, hi, count = grid
    step = (hi - lo) / (count - 1)
    return (lo + i * step for i in range(count))


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
    ends = kink.asymptotes() if real else (0.0, math.inf)
    low, high = min(ends) - 1e-6, max(ends) + 1e-6

    # the chained comparisons are isfinite and the range check without a
    # call; a NaN fails every comparison
    xis, (us,), i = _rk4(phi, xi_range, step, [u0], [
        ("u", ["k1 = ({}) * u", "x = u + half * k1"]),
        ("x", ["k2 = ({}) * x", "x = u + half * k2"]),
        ("x", ["k3 = ({}) * x", "x = u + step * k3"]),
        ("x", ["k4 = ({}) * x",
               "u = u + step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0",
               "us[i] = u",
               "if not (-inf < u < inf and low <= u <= high):",
               "    return i"]),
    ], "flow integration", low=low, high=high)
    if i:
        if not math.isfinite(us[i]):
            raise InstabilityError(f"flow integration diverged at step {i - 1}")
        raise InstabilityError(
            f"flow state {us[i]:g} left [{low:g}, {high:g}] at xi = {xis[i]:g}"
        )
    return xis, us


def _rk4(poly: PowerPoly, xi_range: tuple[float, float], step: float, starts,
         stages, what: str, **names):
    """Run the compiled RK4 loop of ``stages`` from ``starts`` over ``xi_range``.

    ``starts`` holds the start of the state ``u``, or of the pair ``(u, v)``;
    the loop is ``def run(u, us)`` or ``def run(u, v, us, vs)`` over the
    steps 1, 2, ... < len(us).  ``stages`` holds four ``(x, lines)`` pairs: each
    stage runs its lines, in which ``{}`` stands for poly(x), written out as
    the :func:`_horner_expression` expression (after that function's lines, if
    any).  The lines store step i in ``us`` (and ``vs``) and ``return i`` when
    the state fails its check.  They may read ``half``, ``step``, ``inf`` and
    the keys of ``names``.

    Returns the :func:`_rk4_grid` grid, one float array per start (entry 0
    holds the start) and the step that failed its check, or 0.  An
    ``OverflowError``, from a fractional power of a diverging state, is an
    :class:`InstabilityError` that says ``what`` overflowed.
    """
    xis = _rk4_grid(xi_range, step)
    # 0.5 * step * k is (0.5 * step) * k, so half * k has the same bits
    names.update(half=0.5 * step, step=step, inf=math.inf)
    body = ["for i in range(1, len(us)):"]
    for x, lines in stages:
        setup, value = _horner_expression(poly.terms, x, names, f"{x} < 0")
        body += [f"    {line}" for line in setup + [line.format(value) for line in lines]]
    signature = "run(u, us)" if len(starts) == 1 else "run(u, v, us, vs)"
    run = _define(signature, body + ["return 0"], names, "verify.rk4")
    arrays = [array("d", [float(start)]) * len(xis) for start in starts]
    try:
        i = run(*(a[0] for a in arrays), *arrays)
    except OverflowError:       # a fractional power of a diverging state
        raise InstabilityError(f"{what} overflowed the float range") from None
    return xis, [np.frombuffer(a) for a in arrays], i


def _rk4_grid(xi_range: tuple[float, float], step: float) -> np.ndarray:
    """The xi grid lo, lo + step, ... of an RK4 run over ``xi_range``.

    A step that is not finite and positive, a range that is not finite and
    increasing, or a range that rounds to no step at all is a
    :class:`DomainError`.
    """
    lo, hi = xi_range
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"step must be finite and positive, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"xi range must be finite and increasing, got {xi_range}")
    xis = _axis(lo, hi, step, "the RK4 run")
    if len(xis) == 1:
        raise DomainError(f"xi range {xi_range} rounds to no step of {step:g}")
    return xis


def _step_count(span: float, step: float, what: str) -> int:
    """round(span / step), the number of steps across ``span``; at most MAX_STEPS."""
    count = span / step
    if not count <= MAX_STEPS:      # also an infinite count
        raise DomainError(
            f"{what} would take {count:.3g} steps of {step:g}; at most {MAX_STEPS:.0e}"
            " are allowed"
        )
    return int(round(count))


def _axis(lo: float, hi: float, step: float, what: str) -> np.ndarray:
    """The points lo, lo + step, ... up to hi, rounded to a whole number of steps."""
    return lo + step * np.arange(_step_count(hi - lo, step, what) + 1)


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
    # -gamma * v is (-gamma) * v, so ngamma * v has the same bits
    xis, (us, vs), i = _rk4(ode.F, xi_range, step, [u0, v0], [
        ("u", ["a1 = ngamma * v - ({})", "u2 = u + half * v", "v2 = v + half * a1"]),
        ("u2", ["a2 = ngamma * v2 - ({})", "u3 = u + half * v2", "v3 = v + half * a2"]),
        ("u3", ["a3 = ngamma * v3 - ({})", "u4 = u + step * v3", "v4 = v + step * a3"]),
        ("u4", ["a4 = ngamma * v4 - ({})",
                "u = u + step * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0",
                "v = v + step * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0",
                "us[i] = u",
                "vs[i] = v",
                # |u| > 1e6 or a state that is not finite
                "if not (-1e6 <= u <= 1e6 and -inf < v < inf):",
                "    return i"]),
    ], "second-order integration", ngamma=-ode.gamma)
    if i:
        raise InstabilityError(f"second-order integration blew up at step {i - 1}")
    return xis, us, vs


def _front_crossing(x: np.ndarray, u: np.ndarray, level: float,
                    below: np.ndarray) -> float:
    """Linearly interpolated first crossing of ``level`` by the field ``u``.

    The crossing is in the first cell pair (i, i + 1) where ``u < level``
    changes, between d_i = u_i - level and d_{i+1}.  ``below`` is a scratch
    bool buffer of u's size, so a run allocates it once.  For finite u this
    is where the sign bit of u - level first changes, except at ``level`` =
    +0.0, where a cell u = -0.0 has d = -0.0, a set sign bit, and is not
    below; ``simulate_front``'s level is never 0.
    """
    np.less(u, level, out=below)
    # below[0] is a copy, so the compare can overwrite below
    np.not_equal(below, below[0], out=below)
    j = int(below.argmax())
    if not j:
        raise TruncatedRunError("tracking level is no longer crossed in the domain")
    d0, d1 = u.item(j - 1) - level, u.item(j) - level
    x0, x1 = x.item(j - 1), x.item(j)
    return x0 + d0 / (d0 - d1) * (x1 - x0)


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
    for name, value in (("x_min", x_min), ("x_max", x_max), ("dx", dx),
                        ("dt", dt), ("T", T)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if dx <= 0 or x_max <= x_min:
        raise DomainError("grid must satisfy x_min < x_max and dx > 0")
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt:g}")
    if T <= 0:
        raise DomainError(f"T must be positive, got {T:g}")
    if snapshot_every is not None and snapshot_every < 1:
        raise DomainError(f"snapshot_every must be >= 1, got {snapshot_every}")
    x = _axis(x_min, x_max, dx, "the x grid")
    margin = 10.0 * initial.width
    if initial.shift - margin < x_min or initial.shift + margin > x_max:
        raise DomainError(
            "initial kink needs >= 10 natural widths of margin to each boundary"
        )

    u = _aligned(len(x))
    # Python floats: numpy-scalar arithmetic is slower, with the same bits
    u[:] = [initial.value(xi) for xi in x.tolist()]
    n_steps = _step_count(T, dt, "the time stepping")
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

    Where malloc placed numpy's buffers moved a front run's time by 3-5%.
    """
    raw = np.empty(n + 7)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    return raw[skip:skip + n]


def _ftcs_kernel(F: PowerPoly, a: float, dt: float, u: np.ndarray):
    """``steps(count)``: ``count`` folded FTCS steps on the field ``u``, in place.

    One step is u_i <- a*(u_{i-1} + u_{i+1}) + H(u_i) on the inner cells, with
    H(u) = (1 - 2a)*u + dt*F(u): ``add(u_up, u_down, w)``, ``multiply(w, a,
    w)``, H's Horner operations into the buffer ``h``
    (:func:`powerpoly._horner_into`), then ``add(w, h, u)``.  H reads the
    inner cells and writes h before they are written.  ``a`` is a 0-d float64
    array, as H's coefficients are.  The code is generated by
    :func:`powerpoly._define` and shared by every H of one shape.
    """
    # H's coefficients are dt*c and 1 - 2a added to u's; PowerPoly.scale and +
    # would drop every one of magnitude <= STRUCTURAL_TOLERANCE and so change
    # the equation
    folded = {e: dt * c for e, c in F.terms}
    one = Fraction(1)
    folded[one] = folded.get(one, 0.0) + (1.0 - 2.0 * a)
    n = len(u) - 2
    # the views of u follow its in-place updates
    names = {"add": np.add, "multiply": np.multiply, "any_": np.any, "a": np.array(a),
             "u": u[1:-1], "u_up": u[2:], "u_down": u[:-2],
             "w": _aligned(n), "h": _aligned(n)}
    # H has a u term, so its highest integer exponent is at least 1
    body = (["add(u_up, u_down, w)", "multiply(w, a, w)"]
            + _horner_into(sorted(folded.items()), "u", "h", names, "any_(u < 0)")
            + ["add(w, h, u)"])
    return _define("steps(count)", ["for _ in range(count):"] + [f"    {line}" for line in body],
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
    the second half of the run.  T must be positive, and the initial kink
    needs at least 10 natural widths of margin to each boundary.  A front
    coming within 5 cells of a boundary aborts the run, and so does a field
    that has blown up (a NaN, an infinity or a value beyond 1e154) at a
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
    allocates no array; the end cells are never written.  The loop calls the
    kernel once per block of steps up to the next sample, snapshot or last
    step.  The field, the neighbour sum and H's buffer start on 64-byte
    boundaries.
    """
    x_min, x_max, dx = grid
    x, u, n_steps = _front_setup(F, initial, grid, dt, T, snapshot_every)
    level = initial.midpoint_value()
    below = np.empty(len(x), dtype=bool)

    times = [0.0]
    fronts = [_front_crossing(x, u, level, below)]
    snapshots: list[tuple[float, np.ndarray]] = []
    if snapshot_every is not None:
        snapshots.append((0.0, u.copy()))

    guard = 5 * dx
    steps = _ftcs_kernel(F, dt / (dx * dx), dt, u)
    k = 0
    # a blowing-up field overflows before the u.u check sees it; that check
    # is the report, so numpy warns about nothing in the loop
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_steps:
            stop = min(n_steps, k - k % FRONT_SAMPLE_EVERY + FRONT_SAMPLE_EVERY)
            if snapshot_every is not None:
                stop = min(stop, k - k % snapshot_every + snapshot_every)
            steps(stop - k)
            k = stop
            t = k * dt
            if k % FRONT_SAMPLE_EVERY == 0 or k == n_steps:
                # u.u is finite unless u holds a NaN, an inf or a value beyond 1e154
                if not math.isfinite(u.dot(u)):
                    raise InstabilityError(f"FTCS field blew up at step {k} (t = {t:g})")
                pos = _front_crossing(x, u, level, below)
                if pos < x_min + guard or pos > x_max - guard:
                    raise TruncatedRunError(
                        f"front reached {pos:g}, within 5 cells of the boundary"
                    )
                times.append(t)
                fronts.append(pos)
            if snapshot_every is not None and k % snapshot_every == 0:
                snapshots.append((t, u.copy()))

    t_arr = np.array(times)
    p_arr = np.array(fronts)
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
    xs = _axis(x_min, x_max, dx, "the x grid").tolist()
    rows = ((t, x, v) for t, u in result.snapshots for x, v in zip(xs, u.tolist()))
    write_csv(path, ("t", "x", "u"), rows)


def summary_line(preset_id: str, gamma: float, fitted_speed: float,
                 residual: float) -> str:
    """Single-line machine-readable run record."""
    return (
        f"preset={preset_id} gamma={gamma:.17g} "
        f"fitted_speed={fitted_speed:.17g} residual_max={residual:.17g}"
    )
