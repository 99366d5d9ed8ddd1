"""Higher-order intensity correlations of thermal light at magic detector positions.

Three independent routes to the same N00N-like fringes: explicit quantum-path
summation, the permanent of the mutual coherence matrix, and pseudothermal
speckle Monte Carlo; plus a truncated Fock-space module for the projected
N00N-like state behind them.
"""

from .analytic import ClosedForm, closed_form, crossover_threshold
from .curves import CorrelationCurve, default_grid
from .errors import (
    AccumulatorOverflowError,
    CapacityError,
    NumericalError,
    TruncationError,
    ZeroProbabilityError,
)
from .fockstate import (
    IsomorphismReport,
    TwoModeDensityMatrix,
    default_cutoff,
    g_detectors,
    g_moving,
    noon_overlap,
    noon_state,
    project_magic,
    thermal_two_mode,
    verify_isomorphism,
)
from .geometry import (
    DetectorLayout,
    SourceArray,
    magic_positions,
    phase_from_angle,
)
from .pathsum import (
    coherence_matrix,
    correlation_pathsum,
    correlation_permanent,
    correlation_permanent_bounded,
    enumerate_partitions,
)
from .speckle import (
    FitResult,
    SpeckleConfig,
    dominant_frequency,
    fit_cosine,
    simulate_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AccumulatorOverflowError",
    "CapacityError",
    "ClosedForm",
    "CorrelationCurve",
    "DetectorLayout",
    "FitResult",
    "IsomorphismReport",
    "NumericalError",
    "SourceArray",
    "SpeckleConfig",
    "TruncationError",
    "TwoModeDensityMatrix",
    "ZeroProbabilityError",
    "closed_form",
    "coherence_matrix",
    "correlation_pathsum",
    "correlation_permanent",
    "correlation_permanent_bounded",
    "crossover_threshold",
    "default_cutoff",
    "default_grid",
    "dominant_frequency",
    "enumerate_partitions",
    "fit_cosine",
    "g_detectors",
    "g_moving",
    "magic_positions",
    "noon_overlap",
    "noon_state",
    "phase_from_angle",
    "project_magic",
    "simulate_curve",
    "thermal_two_mode",
    "verify_isomorphism",
]
