"""Independent numerical verification of factorizations and kinks.

Three layers of evidence, each independent of the symbolic pipeline:

* :func:`residual_max` evaluates u'' + gamma*u' + F(u) along a closed-form
  kink using its analytic derivatives (never finite differences, so exact
  solutions verify to machine precision instead of discretization noise).
* :func:`rk4_flow` and :func:`rk4_second_order` integrate the compatible
  first-order flow and the full second-order equation with the classical
  fourth-order Runge-Kutta scheme and compare trajectories against the
  closed forms.
* :func:`simulate_front` evolves the reaction-diffusion equation
  u_t = u_xx + F(u) with an explicit FTCS scheme from an exact kink initial
  condition and measures the front speed by tracking a level crossing, which
  should reproduce the velocity gamma of the travelling frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CflError,
    DomainError,
    InstabilityError,
    TruncatedRunError,
)
from .factorizer import OdeSpec
from .kinks import MINUS, KinkProfile
from .powerpoly import PowerPoly


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
    """

    times: tuple[float, ...]
    front_positions: tuple[float, ...]
    fitted_speed: float
    fit_residual: float
    grid: tuple[float, float, float]
    dt: float
    level: float


def residual_max(
    ode: OdeSpec,
    kink: KinkProfile,
    grid: tuple[float, float, int],
) -> ResidualReport:
    """Max of |u'' + gamma*u' + F(u)| along the kink over a uniform grid.

    F is evaluated through the kink's core so that signed-core profiles are
    checked against the equation they actually solve.
    """
    lo, hi, count = grid
    if count < 3:
        raise DomainError("residual grid needs at least 3 points")
    if lo >= hi:
        raise DomainError("residual grid must have lo < hi")
    if kink.branch == MINUS and not (
        kink.domain_contains(lo) and kink.domain_contains(hi)
    ):
        raise DomainError(
            f"grid [{lo:g}, {hi:g}] crosses the minus-branch pole at xi0"
        )
    worst = -1.0
    worst_xi = lo
    step = (hi - lo) / (count - 1)
    for i in range(count):
        xi = lo + i * step
        u, du, ddu = kink.eval(xi)
        res = abs(ddu + ode.gamma * du + kink.poly_along(ode.F, xi))
        if res > worst:
            worst, worst_xi = res, xi
    return ResidualReport(max_abs_residual=worst, argmax_xi=worst_xi, grid=grid)


def default_grid(kink: KinkProfile, count: int = 2001, widths: float = 10.0):
    """Uniform grid spanning xi0 +/- the requested number of natural widths."""
    span = widths * kink.width
    return (kink.shift - span, kink.shift + span, count)


def rk4_flow(
    phi: PowerPoly,
    u0: float,
    xi_range: tuple[float, float],
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 integration of the scalar flow u' = phi(u)*u.

    The state must stay inside (0, upper fixed point) up to a 1e-6 tolerance
    when the flow has a positive second fixed point; leaving that region (or
    producing a non-finite value) raises :class:`InstabilityError`.
    """
    if step <= 0:
        raise DomainError("step must be positive")
    lo, hi = xi_range
    if hi <= lo:
        raise DomainError("xi range must be increasing")

    upper = _positive_fixed_point(phi)
    slack = 1e-6

    def rhs(u: float) -> float:
        return phi.evaluate(u) * u

    n_steps = int(round((hi - lo) / step))
    xis = np.empty(n_steps + 1)
    us = np.empty(n_steps + 1)
    xis[0], us[0] = lo, u0
    u = u0
    for i in range(n_steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * step * k1)
        k3 = rhs(u + 0.5 * step * k2)
        k4 = rhs(u + step * k3)
        u = u + step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not np.isfinite(u):
            raise InstabilityError(f"flow integration diverged at step {i}")
        if u < -slack or (upper is not None and u > upper + slack):
            raise InstabilityError(
                f"flow state {u:g} left (0, {upper}) at xi = {xis[i] + step:g}"
            )
        xis[i + 1] = lo + (i + 1) * step
        us[i + 1] = u
    return xis, us


def _positive_fixed_point(phi: PowerPoly) -> float | None:
    """The positive root of phi for binomial shapes, if any."""
    shape = phi.binomial()
    if shape is None:
        return None
    c0, m, c1 = shape
    lam = -c0 / c1
    if lam <= 0:
        return None
    return lam ** (1.0 / float(m))


def rk4_second_order(
    ode: OdeSpec,
    u0: float,
    v0: float,
    xi_range: tuple[float, float],
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 on the first-order system (u, u') for u'' + gamma*u' + F(u) = 0."""
    if step <= 0:
        raise DomainError("step must be positive")
    lo, hi = xi_range
    if hi <= lo:
        raise DomainError("xi range must be increasing")

    gamma = ode.gamma
    F = ode.F

    def rhs(state: np.ndarray) -> np.ndarray:
        u, v = state
        return np.array([v, -gamma * v - F.evaluate(u)])

    n_steps = int(round((hi - lo) / step))
    xis = np.empty(n_steps + 1)
    us = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    xis[0], us[0], vs[0] = lo, u0, v0
    state = np.array([u0, v0], dtype=float)
    for i in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * step * k1)
        k3 = rhs(state + 0.5 * step * k2)
        k4 = rhs(state + step * k3)
        state = state + step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not np.all(np.isfinite(state)) or abs(state[0]) > 1e6:
            raise InstabilityError(f"second-order integration blew up at step {i}")
        xis[i + 1] = lo + (i + 1) * step
        us[i + 1], vs[i + 1] = state
    return xis, us, vs


def _front_crossing(x: np.ndarray, u: np.ndarray, level: float) -> float:
    """Linearly interpolated crossing of ``level`` by a monotone profile."""
    d = u - level
    signs = np.signbit(d)
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    if flips.size == 0:
        raise TruncatedRunError("tracking level is no longer crossed in the domain")
    i = int(flips[0])
    frac = d[i] / (d[i] - d[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def simulate_front(
    F: PowerPoly,
    initial: KinkProfile,
    grid: tuple[float, float, float],
    dt: float,
    T: float,
    sample_every: int = 5,
    snapshot_every: int | None = None,
) -> FrontSimResult | tuple[FrontSimResult, list[tuple[float, np.ndarray]]]:
    """Explicit FTCS evolution of u_t = u_xx + F(u) from an exact kink.

    Boundaries are Dirichlet, pinned to the kink's asymptotic values.  The
    front position is the interpolated crossing of the kink's own midpoint
    level, and the speed is the least-squares slope of position vs time over
    the second half of the run.  The time step must satisfy dt <= dx^2/2 and
    the initial kink needs at least 10 natural widths of margin to each
    boundary; a front coming within 5 cells of a boundary aborts the run.
    """
    x_min, x_max, dx = grid
    if dx <= 0 or x_max <= x_min:
        raise DomainError("grid must satisfy x_min < x_max and dx > 0")
    if dt > dx * dx / 2.0 * (1.0 + 1e-12):
        raise CflError(f"dt = {dt:g} violates dt <= dx^2/2 = {dx * dx / 2:g}")

    n = int(round((x_max - x_min) / dx)) + 1
    x = x_min + dx * np.arange(n)

    margin = 10.0 * initial.width
    if initial.shift - margin < x_min or initial.shift + margin > x_max:
        raise DomainError(
            "initial kink needs >= 10 natural widths of margin to each boundary"
        )

    u = np.array([initial.value(xi) for xi in x])
    left, right = u[0], u[-1]
    level = initial.midpoint_value()

    times = [0.0]
    fronts = [_front_crossing(x, u, level)]
    snapshots: list[tuple[float, np.ndarray]] = []
    if snapshot_every is not None:
        snapshots.append((0.0, u.copy()))

    inv_dx2 = 1.0 / (dx * dx)
    n_steps = int(round(T / dt))
    guard = 5 * dx
    for k in range(1, n_steps + 1):
        lap = np.empty_like(u)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
        lap[0] = lap[-1] = 0.0
        u = u + dt * (lap + F.evaluate(u))
        u[0], u[-1] = left, right
        if k % sample_every == 0 or k == n_steps:
            t = k * dt
            pos = _front_crossing(x, u, level)
            if pos < x_min + guard or pos > x_max - guard:
                raise TruncatedRunError(
                    f"front reached {pos:g}, within 5 cells of the boundary"
                )
            times.append(t)
            fronts.append(pos)
        if snapshot_every is not None and k % snapshot_every == 0:
            snapshots.append((k * dt, u.copy()))

    t_arr = np.array(times)
    p_arr = np.array(fronts)
    half = t_arr >= T / 2.0
    if np.count_nonzero(half) < 2:
        raise DomainError("not enough samples in the second half of the run")
    slope, intercept = np.polyfit(t_arr[half], p_arr[half], 1)
    fit = slope * t_arr[half] + intercept
    rms = float(np.sqrt(np.mean((p_arr[half] - fit) ** 2)))

    result = FrontSimResult(
        times=tuple(times),
        front_positions=tuple(fronts),
        fitted_speed=float(slope),
        fit_residual=rms,
        grid=grid,
        dt=dt,
        level=level,
    )
    if snapshot_every is not None:
        return result, snapshots
    return result


def write_front_csv(path, result: FrontSimResult) -> None:
    """Front track as CSV with columns t, front_position."""
    with open(path, "w", newline="") as fh:
        fh.write("t,front_position\n")
        for t, p in zip(result.times, result.front_positions):
            fh.write(f"{t:.17g},{p:.17g}\n")


def write_snapshots_csv(path, grid, snapshots) -> None:
    """Field snapshots as CSV with columns t, x, u."""
    x_min, x_max, dx = grid
    n = int(round((x_max - x_min) / dx)) + 1
    xs = x_min + dx * np.arange(n)
    with open(path, "w", newline="") as fh:
        fh.write("t,x,u\n")
        for t, u in snapshots:
            for xi, ui in zip(xs, u):
                fh.write(f"{t:.17g},{xi:.17g},{ui:.17g}\n")


def summary_line(preset_id: str, gamma: float, fitted_speed: float,
                 residual: float) -> str:
    """Single-line machine-readable run record."""
    return (
        f"preset={preset_id} gamma={gamma:.17g} "
        f"fitted_speed={fitted_speed:.17g} residual_max={residual:.17g}"
    )
