"""Noise behaviour of the recovery pipeline: SNR tables and phase transitions.

Reducing a length-``M`` signal to ``N`` measurements trades SNR for
sampling: with ``K`` detected components the reconstruction SNR follows
``SNR_out = SNR_in - 10 log10(K / N)``.  This module measures that
relationship over Monte-Carlo trials and maps the success region of exact
recovery over the ``(K, N)`` plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    MeasurementSet,
    MultiComponentSignal,
    NoiseSpec,
    PolyPhaseComponent,
    apply_noise,
    select_measurements,
    synthesize,
)
from .recovery import (
    ParameterGrid,
    RankDeficiencyError,
    RecoverConfig,
    ThresholdPolicy,
    recover,
)

__all__ = [
    "snr_db",
    "theoretical_snr_out",
    "SnrReport",
    "snr_experiment",
    "PhaseTransitionGrid",
    "phase_transition",
]

# Relative reconstruction error energy below which a phase-transition trial
# counts as an exact recovery.
SUCCESS_TOL = 1e-10


def snr_db(reference, estimate) -> float:
    """``10 log10`` of reference energy over error energy (inf if exact)."""
    ref = np.asarray(reference, dtype=np.complex128)
    err = np.asarray(estimate, dtype=np.complex128) - ref
    ref_energy = float(np.sum(np.abs(ref) ** 2))
    err_energy = float(np.sum(np.abs(err) ** 2))
    if ref_energy <= 0.0:
        raise ValueError("reference signal has no energy")
    if err_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(ref_energy / err_energy)


def theoretical_snr_out(snr_in_db: float, k_components: int, n_measurements: int) -> float:
    """Predicted reconstruction SNR: ``SNR_in - 10 log10(K / N)``."""
    if k_components < 1 or n_measurements < 1:
        raise ValueError("component and measurement counts must be positive")
    return snr_in_db - 10.0 * math.log10(k_components / n_measurements)


def _trial_rng(seed, extra) -> np.random.Generator:
    """PCG64 stream keyed by ``(seed entropy..., extra...)`` integers."""
    base = tuple(int(s) for s in seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    ent = base + tuple(int(e) for e in extra)
    return np.random.default_rng(np.random.SeedSequence(ent))


def _true_support(signal: MultiComponentSignal) -> frozenset:
    out = set()
    for comp in signal.components:
        linear = comp.phase_coeffs[0]
        bin_index = int(round(linear)) % signal.length
        if abs(linear - round(linear)) > 1e-9:
            raise ValueError("support comparison needs integer linear coefficients")
        out.add((bin_index, tuple(comp.phase_coeffs[1:])))
    return frozenset(out)


@dataclass(frozen=True, eq=False)
class SnrReport:
    """One Monte-Carlo cell of the input/output SNR table.

    ``snr_out_measured_db`` is the ensemble energy ratio over successful
    trials (total signal energy over total error energy), which estimates
    the mean error power without the upward bias a mean of per-trial dB
    values picks up.  Trials whose detected support differs from the true
    one are counted in ``failures`` and excluded from the average.
    """

    snr_in_db: float
    n_measurements: int
    k_components: int
    trials: int
    failures: int
    snr_out_theory_db: float
    snr_out_measured_db: float
    per_trial_db: tuple


def snr_experiment(signal: MultiComponentSignal, snr_in_db: float,
                   n_measurements: int, grid: ParameterGrid,
                   policy: ThresholdPolicy, trials: int, seed,
                   config: RecoverConfig | None = None) -> SnrReport:
    """Monte-Carlo estimate of the reconstruction SNR for one table cell.

    Each trial draws a fresh uniform measurement mask and a fresh noise
    realization scaled exactly to ``snr_in_db`` over the full signal, runs
    the recovery pipeline, and accumulates reconstruction error energy.
    Trial ``t`` uses the PCG64 stream seeded by
    ``(seed..., n_measurements, t)``, mask drawn before noise.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    clean = synthesize(signal)
    truth = _true_support(signal)
    spec = NoiseSpec("complex-gaussian", target_snr_db=snr_in_db)
    k_true = len(signal.components)
    signal_energy = float(np.sum(np.abs(clean) ** 2))

    total_err = 0.0
    failures = 0
    per_trial = []
    for trial in range(trials):
        rng = _trial_rng(seed, (n_measurements, trial))
        positions = select_measurements(signal.length, n_measurements,
                                        signal.index_origin, rng)
        noisy, _ = apply_noise(clean, spec, rng=rng)
        meas = MeasurementSet.from_samples(noisy, positions, signal.length,
                                           signal.index_origin)
        try:
            result = recover(meas, grid, policy, config, reference=clean)
        except RankDeficiencyError:
            failures += 1
            continue
        detected = frozenset(
            (c.freq_bin % signal.length, c.params.higher_coeffs)
            for c in result.components
        )
        if detected != truth:
            failures += 1
            continue
        err = signal_energy * result.residual_energy_ratio
        total_err += err
        per_trial.append(10.0 * math.log10(signal_energy / err) if err > 0 else math.inf)

    successes = trials - failures
    if successes > 0 and total_err > 0.0:
        measured = 10.0 * math.log10(successes * signal_energy / total_err)
    else:
        measured = math.nan
    return SnrReport(snr_in_db, n_measurements, k_true, trials, failures,
                     theoretical_snr_out(snr_in_db, k_true, n_measurements),
                     measured, tuple(per_trial))


@dataclass(frozen=True, eq=False)
class PhaseTransitionGrid:
    """Success fractions of exact recovery over the ``(K, N)`` plane."""

    k_values: tuple
    n_values: tuple
    success: np.ndarray
    trials: int
    length: int
    rate_values: tuple
    seed: int

    def __post_init__(self):
        success = np.asarray(self.success, dtype=np.float64)
        if success.shape != (len(self.k_values), len(self.n_values)):
            raise ValueError("success grid shape must be (len(K), len(N))")
        object.__setattr__(self, "success", success)

    def fraction(self, k: int, n: int) -> float:
        return float(self.success[self.k_values.index(k), self.n_values.index(n)])


def _draw_components(rng: np.random.Generator, k: int, length: int, rate_values) -> list:
    """``k`` unit-amplitude chirps with distinct (bin, rate) pairs.

    A rate ``v`` from the grid corresponds to the phase coefficient ``-v``,
    so the drawn component is matched by grid value ``v`` exactly.
    """
    pairs = []
    seen = set()
    while len(pairs) < k:
        bin_index = int(rng.integers(0, length))
        rate_index = int(rng.integers(0, len(rate_values)))
        if (bin_index, rate_index) in seen:
            continue
        seen.add((bin_index, rate_index))
        pairs.append((bin_index, rate_index))
    return [
        PolyPhaseComponent(1.0, (float(b), -float(rate_values[ri])))
        for b, ri in pairs
    ]


def phase_transition(k_values, n_values, trials: int, seed: int,
                     length: int = 128, rate_values=None) -> PhaseTransitionGrid:
    """Map the exact-recovery success fraction over component/measurement counts.

    Each trial draws ``K`` unit chirps with distinct (bin, rate) pairs, the
    rates uniform over ``rate_values`` (default the 8 values ``i * length/2``),
    measures ``N`` noiseless samples, and recovers with exact pursuit capped
    at ``N // 2`` components; exact pursuit does not depend on the threshold
    policy.  Success means the reconstruction's relative error energy is
    below ``SUCCESS_TOL``; rank-deficient fits count as failures.  Trial
    streams are seeded by ``(seed, K, N, trial)``.  ``K`` may not exceed the
    ``length * len(rate_values)`` distinct pairs.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    k_values = tuple(int(k) for k in k_values)
    n_values = tuple(int(n) for n in n_values)
    if any(k < 1 for k in k_values) or any(n < 2 for n in n_values):
        raise ValueError("component counts must be >= 1 and measurement counts >= 2")
    if max(n_values, default=0) > length:
        raise ValueError(f"measurement count {max(n_values)} exceeds signal length {length}")
    if rate_values is None:
        rate_values = tuple(float(i * length / 2) for i in range(8))
    else:
        rate_values = tuple(float(v) for v in rate_values)
    grid = ParameterGrid.single(2, rate_values)
    n_pairs = length * len(rate_values)
    if max(k_values, default=0) > n_pairs:
        raise ValueError(f"{max(k_values)} components exceed the {n_pairs} distinct "
                         f"(bin, rate) pairs of length {length} and {len(rate_values)} rates")
    policy = ThresholdPolicy.relative(0.5)  # scores the sweep records only

    success = np.zeros((len(k_values), len(n_values)))
    for i, k in enumerate(k_values):
        for j, n in enumerate(n_values):
            config = RecoverConfig(max_components=max(1, n // 2), pursuit="exact")
            wins = 0
            for trial in range(trials):
                rng = _trial_rng(seed, (k, n, trial))
                components = _draw_components(rng, k, length, rate_values)
                signal = MultiComponentSignal(tuple(components), length)
                clean = synthesize(signal)
                positions = select_measurements(length, n, 0, rng)
                meas = MeasurementSet.from_samples(clean, positions, length)
                try:
                    result = recover(meas, grid, policy, config, reference=clean)
                except RankDeficiencyError:
                    continue
                if result.residual_energy_ratio < SUCCESS_TOL:
                    wins += 1
            success[i, j] = wins / trials
    return PhaseTransitionGrid(k_values, n_values, success, trials, length,
                               rate_values, int(seed))
