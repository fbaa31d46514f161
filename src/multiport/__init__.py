"""Averaged pair-intensity correlations for multiport interferometers.

Computes the normalized average of <I_i I_j> / (<I_i> <I_j>) over detector
pairs for classical stochastic fields and for phase-averaged quantum inputs,
evaluates the classical/quantum/divisibility thresholds, and certifies
nonclassicality or indivisibility from analytic, simulated, or measured data.

Each public name is imported from its module when it is first read (PEP 562),
so ``import multiport`` loads no engine and no numpy; the thresholds and the
witnesses never need them.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_HOMES = {
    name: module
    for module, names in {
        "bounds": "WitnessVerdict classical_min divisibility_threshold divisibility_witness"
        " nonclassicality_witness symmetric_quantum_min",
        "classical_engine": "ClassicalSetup classical_gbar mc_estimate_gbar",
        "errors": "ConfigError DegenerateSetupError DimensionError InsufficientSamplesError"
        " InvalidStatisticsError MatrixValidationError MultiportError OracleLimitError"
        " PreconditionError TruncationError UndefinedEtaError",
        "ingestion": "GbarEstimate ShotRecord correlation_report_from_records"
        " estimate_gbar_from_records read_shot_records",
        "interferometer": "UnitaryMatrix direct_sum ftm load_matrix matrix_from_text matrix_to_text"
        " random_unitary save_matrix",
        "optimizer": "FrameInequalities MultistartResult PsiConfiguration check_frame_inequalities"
        " gbar_gradient gbar_objective minimize_classical_gbar multistart_minimize"
        " optimal_configuration",
        "quantum_engine": "QuantumSetup oracle_gbar quantum_gbar",
        "report": "CorrelationReport",
        "sources": "ClassicalSource OverlapMatrix PhotonStatistics classical_moments coherent eta"
        " fixed_source fock is_sub_poissonian pseudo_thermal_source squeezed_vacuum thermal",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """A public name, read from its module, which is imported on first use."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
