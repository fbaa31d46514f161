"""Averaged pair-intensity correlations for multiport interferometers.

Computes the normalized average of <I_i I_j> / (<I_i> <I_j>) over detector
pairs for classical stochastic fields and for phase-averaged quantum inputs,
evaluates the classical/quantum/divisibility thresholds, and certifies
nonclassicality or indivisibility from analytic, simulated, or measured data.
"""

from .bounds import (
    WitnessVerdict,
    classical_min,
    divisibility_threshold,
    divisibility_witness,
    nonclassicality_witness,
    symmetric_quantum_min,
)
from .classical_engine import (
    ClassicalSetup,
    classical_gbar,
    mc_estimate_gbar,
)
from .errors import (
    ConfigError,
    DegenerateSetupError,
    DimensionError,
    InsufficientSamplesError,
    InvalidStatisticsError,
    MatrixValidationError,
    MultiportError,
    OracleLimitError,
    PreconditionError,
    TruncationError,
    UndefinedEtaError,
)
from .ingestion import (
    GbarEstimate,
    ShotRecord,
    correlation_report_from_records,
    estimate_gbar_from_records,
    read_shot_records,
)
from .interferometer import (
    UnitaryMatrix,
    direct_sum,
    ftm,
    load_matrix,
    matrix_from_text,
    matrix_to_text,
    random_unitary,
    save_matrix,
)
from .optimizer import (
    FrameInequalities,
    MultistartResult,
    PsiConfiguration,
    check_frame_inequalities,
    gbar_gradient,
    gbar_objective,
    minimize_classical_gbar,
    multistart_minimize,
    optimal_configuration,
)
from .quantum_engine import (
    QuantumSetup,
    oracle_gbar,
    quantum_gbar,
)
from .report import CorrelationReport
from .sources import (
    ClassicalSource,
    OverlapMatrix,
    PhotonStatistics,
    classical_moments,
    coherent,
    eta,
    fixed_source,
    fock,
    is_sub_poissonian,
    pseudo_thermal_source,
    squeezed_vacuum,
    thermal,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalSetup",
    "ClassicalSource",
    "ConfigError",
    "CorrelationReport",
    "DegenerateSetupError",
    "DimensionError",
    "FrameInequalities",
    "GbarEstimate",
    "InsufficientSamplesError",
    "InvalidStatisticsError",
    "MatrixValidationError",
    "MultiportError",
    "MultistartResult",
    "OracleLimitError",
    "OverlapMatrix",
    "PhotonStatistics",
    "PreconditionError",
    "PsiConfiguration",
    "QuantumSetup",
    "ShotRecord",
    "TruncationError",
    "UndefinedEtaError",
    "UnitaryMatrix",
    "WitnessVerdict",
    "check_frame_inequalities",
    "classical_gbar",
    "classical_min",
    "classical_moments",
    "correlation_report_from_records",
    "coherent",
    "direct_sum",
    "divisibility_threshold",
    "divisibility_witness",
    "estimate_gbar_from_records",
    "eta",
    "fixed_source",
    "fock",
    "ftm",
    "gbar_gradient",
    "gbar_objective",
    "is_sub_poissonian",
    "load_matrix",
    "matrix_from_text",
    "matrix_to_text",
    "mc_estimate_gbar",
    "minimize_classical_gbar",
    "multistart_minimize",
    "nonclassicality_witness",
    "optimal_configuration",
    "oracle_gbar",
    "pseudo_thermal_source",
    "quantum_gbar",
    "random_unitary",
    "read_shot_records",
    "save_matrix",
    "squeezed_vacuum",
    "symmetric_quantum_min",
    "thermal",
]
