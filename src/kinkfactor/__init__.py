"""Factorization of u'' + gamma*u' + F(u) = 0 into first-order brackets.

The package splits polynomial nonlinearities into factor templates, solves
for the admissible scale and velocity, integrates the compatible first-order
flows into closed-form kinks, builds reversed-bracket partner equations that
share the velocity, and verifies everything numerically: exact residuals,
Runge-Kutta trajectories, and measured reaction-diffusion front speeds.
"""

from .errors import (
    CflError,
    DomainError,
    InconsistentFactorizationError,
    InfeasibleFactorizationError,
    InstabilityError,
    KinkFactorError,
    TruncatedRunError,
    UnsupportedFamilyError,
)
from .factorizer import (
    FactorAnsatz,
    FactorizationPair,
    Family,
    OdeSpec,
    berkovich_convert,
    expand_grouping,
    friction_poly,
    phi2_from_berkovich,
    rescale_frame,
    solve_scale_condition,
    split_nonlinearity,
)
from .kinks import (
    HyperbolicForm,
    KinkProfile,
    real_power,
    sample_kink,
    solve_binomial_flow,
    write_kink_csv,
)
from .powerpoly import (
    STRUCTURAL_TOLERANCE,
    PowerPoly,
    as_exponent,
    canonicalize,
    format_poly,
    mul,
    parse_poly,
)
from .presets import (
    STANDARD_PRESETS,
    PipelineResult,
    Preset,
    parse_preset,
    report_dict,
    run_pipeline,
)
from .susy import (
    PartnerResult,
    SecondReversalReport,
    operator_expansion_partner,
    reverse_partner,
    second_reversal_check,
)
from .verify import (
    FrontSimResult,
    ResidualReport,
    default_grid,
    residual_max,
    rk4_flow,
    rk4_second_order,
    simulate_front,
    summary_line,
    write_front_csv,
    write_snapshots_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CflError",
    "DomainError",
    "FactorAnsatz",
    "FactorizationPair",
    "Family",
    "FrontSimResult",
    "HyperbolicForm",
    "InconsistentFactorizationError",
    "InfeasibleFactorizationError",
    "InstabilityError",
    "KinkFactorError",
    "KinkProfile",
    "OdeSpec",
    "PartnerResult",
    "PipelineResult",
    "PowerPoly",
    "Preset",
    "ResidualReport",
    "STANDARD_PRESETS",
    "STRUCTURAL_TOLERANCE",
    "SecondReversalReport",
    "TruncatedRunError",
    "UnsupportedFamilyError",
    "as_exponent",
    "berkovich_convert",
    "canonicalize",
    "default_grid",
    "expand_grouping",
    "format_poly",
    "friction_poly",
    "mul",
    "operator_expansion_partner",
    "parse_poly",
    "parse_preset",
    "phi2_from_berkovich",
    "real_power",
    "report_dict",
    "rescale_frame",
    "residual_max",
    "reverse_partner",
    "rk4_flow",
    "rk4_second_order",
    "run_pipeline",
    "sample_kink",
    "second_reversal_check",
    "simulate_front",
    "solve_binomial_flow",
    "solve_scale_condition",
    "split_nonlinearity",
    "summary_line",
    "write_front_csv",
    "write_kink_csv",
    "write_snapshots_csv",
]
