"""Sparse recovery of polynomial-phase signals from partial samples.

The pipeline: model a signal as a sum of polynomial-phase components,
demodulate candidate chirp rates from a grid, detect concentrated spectral
peaks in the rescaled masked spectrum, correct amplitudes by joint least
squares, and reconstruct.  Windowed variants handle piecewise rates; the
analysis module measures noise behaviour and recovery phase transitions.
"""

from .analysis import (
    PhaseTransitionGrid,
    SnrReport,
    phase_transition,
    relative_error,
    snr_db,
    snr_experiment,
    theoretical_snr_out,
)
from .config import ConfigError, ExperimentConfig, Piece, parse_config, parse_config_string
from .experiments import ExperimentOutcome, run_experiment, synthesize_config_signal
from .lpft import (
    LpftRecoveryResult,
    WindowAssignment,
    lpft,
    lpft_cs_estimate,
    lpft_recover,
    lpft_sweep,
)
from .model import (
    MeasurementSet,
    MultiComponentSignal,
    NoiseSpec,
    PolyPhaseComponent,
    apply_noise,
    phase_cycles,
    select_measurements,
    synthesize,
    synthesize_components,
)
from .recovery import (
    COND_LIMIT,
    DetectedComponent,
    ParameterGrid,
    RankDeficiencyError,
    RecoverConfig,
    RecoveryResult,
    SweepResult,
    ThresholdPolicy,
    amplitude_correction,
    cs_spectral_estimate,
    reconstruct,
    recover,
    sweep,
)
from .transform import (
    KernelParams,
    Spectrum,
    dft,
    idft,
    kernel_values_at,
    pft,
)

__version__ = "0.1.0"

__all__ = [
    "COND_LIMIT",
    "ConfigError",
    "DetectedComponent",
    "ExperimentConfig",
    "ExperimentOutcome",
    "KernelParams",
    "LpftRecoveryResult",
    "MeasurementSet",
    "MultiComponentSignal",
    "NoiseSpec",
    "ParameterGrid",
    "PhaseTransitionGrid",
    "Piece",
    "PolyPhaseComponent",
    "RankDeficiencyError",
    "RecoverConfig",
    "RecoveryResult",
    "SnrReport",
    "Spectrum",
    "SweepResult",
    "ThresholdPolicy",
    "WindowAssignment",
    "amplitude_correction",
    "apply_noise",
    "cs_spectral_estimate",
    "dft",
    "idft",
    "kernel_values_at",
    "lpft",
    "lpft_cs_estimate",
    "lpft_recover",
    "lpft_sweep",
    "parse_config",
    "parse_config_string",
    "pft",
    "phase_cycles",
    "phase_transition",
    "reconstruct",
    "recover",
    "relative_error",
    "run_experiment",
    "select_measurements",
    "snr_db",
    "snr_experiment",
    "synthesize",
    "synthesize_components",
    "synthesize_config_signal",
    "sweep",
    "theoretical_snr_out",
]
