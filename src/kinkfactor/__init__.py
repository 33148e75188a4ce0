"""Factorization of u'' + gamma*u' + F(u) = 0 into first-order brackets.

The package splits polynomial nonlinearities into factor templates, solves
for the admissible scale and velocity, integrates the compatible first-order
flows into closed-form kinks, builds reversed-bracket partner equations that
share the velocity, and verifies everything numerically: exact residuals,
Runge-Kutta trajectories, and measured reaction-diffusion front speeds.

The top level re-exports the names the README and the demos use; everything
else is imported from its submodule (``kinkfactor.presets``,
``kinkfactor.susy``, ...).
"""

from .factorizer import OdeSpec, berkovich_convert, expand_grouping, rescale_frame
from .powerpoly import PowerPoly
from .verify import (
    default_grid,
    residual_max,
    simulate_front,
    summary_line,
    write_front_csv,
    write_kink_csv,
)

__version__ = "0.1.0"

__all__ = [
    "OdeSpec",
    "PowerPoly",
    "berkovich_convert",
    "default_grid",
    "expand_grouping",
    "rescale_frame",
    "residual_max",
    "simulate_front",
    "summary_line",
    "write_front_csv",
    "write_kink_csv",
]
