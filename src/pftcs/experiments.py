"""Experiment runners: config in, CSV artifacts and summary lines out.

Each runner is deterministic for a fixed config: masks, noise, and trial
streams all derive from PCG64 seeded with the config's seeds, so artifact
files are byte-identical across runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import csvio
from .analysis import phase_transition, snr_experiment
from .config import ConfigError, ExperimentConfig
from .lpft import lpft_cs_estimate, lpft_recover
from .model import (
    MeasurementSet,
    MultiComponentSignal,
    apply_noise,
    select_measurements,
    synthesize,
)
from .recovery import cs_spectral_estimate, recover

__all__ = ["ExperimentOutcome", "run_experiment", "synthesize_config_signal"]


@dataclass(frozen=True)
class ExperimentOutcome:
    kind: str
    label: str
    summary: tuple
    files: tuple


def synthesize_config_signal(config: ExperimentConfig) -> np.ndarray:
    """Clean full-length samples for a component or piecewise config."""
    length = config.signal_length
    origin = config.index_origin
    out = np.zeros(length, dtype=np.complex128)
    for comp in config.components:
        out += comp.sample(np.arange(origin, origin + length), length)
    for piece in config.pieces:
        positions = np.arange(piece.start, piece.stop)
        out[piece.start - origin:piece.stop - origin] += piece.component.sample(
            positions, length
        )
    return out


def _global_positions(config: ExperimentConfig) -> np.ndarray:
    length = config.signal_length
    count = config.sampling_count
    if count is None:
        count = int(round(config.sampling_fraction * length))
    return select_measurements(length, count, config.index_origin,
                               np.random.SeedSequence((config.seed,)))


def _per_window_positions(config: ExperimentConfig) -> np.ndarray:
    """Independent uniform masks per window, seeded by (seed, window)."""
    window = config.window
    if window is None:
        raise ConfigError("[sampling] per_window sampling needs an [lpft] window")
    count = config.sampling_count
    if count is None:
        count = int(round(config.sampling_fraction * window))
    if not 1 <= count <= window:
        raise ConfigError(
            f"[sampling] per-window count {count} must be between 1 and the window {window}"
        )
    chunks = []
    for b in range(config.signal_length // window):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, b)))
        start = config.index_origin + b * window
        local = rng.choice(window, size=count, replace=False)
        local.sort()
        chunks.append(local.astype(np.int64) + start)
    return np.concatenate(chunks)


def _measure(config: ExperimentConfig, samples: np.ndarray) -> MeasurementSet:
    positions = (_per_window_positions(config) if config.per_window
                 else _global_positions(config))
    return MeasurementSet.from_samples(samples, positions, config.signal_length,
                                       config.index_origin)


def _rate_label(coeffs) -> str:
    return ", ".join(f"rate_p{order} {value:g}" for order, value in coeffs)


def _write(files, out_dir, name, writer, *args):
    path = os.path.join(out_dir, name)
    writer(path, *args)
    files.append(path)


def _relative_error(reference, estimate) -> float:
    ref = np.asarray(reference)
    err_energy = float(np.sum(np.abs(np.asarray(estimate) - ref) ** 2))
    return err_energy / float(np.sum(np.abs(ref) ** 2))


def _run_sweep_recover(config: ExperimentConfig, out_dir) -> ExperimentOutcome:
    clean = synthesize_config_signal(config)
    samples, achieved = apply_noise(clean, config.noise)
    meas = _measure(config, samples)
    result = recover(meas, config.grid, config.policy, config.recover, reference=clean)
    points = result.sweep

    files = []
    orders = [order for order, _ in config.grid.orders]
    _write(files, out_dir, "signal.csv", csvio.write_signal_csv, clean, config.index_origin)
    _write(files, out_dir, "measurements.csv", csvio.write_measurements_csv, meas)
    _write(files, out_dir, "sweep.csv", csvio.write_sweep_csv, points, orders)
    _write(files, out_dir, "components.csv", csvio.write_components_csv, result.components)
    _write(files, out_dir, "reconstruction.csv", csvio.write_signal_csv,
           result.reconstructed, config.index_origin)
    best = max(points, key=lambda p: p.score)
    _write(files, out_dir, "spectrum.csv", csvio.write_spectrum_csv,
           cs_spectral_estimate(meas, best.params))

    summary = [
        f"measurements: {meas.count} of {config.signal_length}",
    ]
    if config.noise.kind != "none":
        summary.append(f"input SNR achieved: {achieved:.4f} dB")
    detected = [p for p in points if p.score > 0]
    summary.append(f"sweep: {len(detected)} of {len(points)} grid points above threshold")
    for p in sorted(points, key=lambda q: -q.score)[: max(1, len(result.components))]:
        if p.score > 0:
            summary.append(
                f"  grid position {p.index + 1}: {_rate_label(p.coeffs)}, "
                f"bin {p.peak_bin}, score {p.score:.6g}"
            )
    for comp in result.components:
        rates = ", ".join(
            f"rate_p{i + 2} {-c + 0.0:g} (coeff {c:g})"
            for i, c in enumerate(comp.params.higher_coeffs)
        )
        amp = comp.corrected_amplitude
        summary.append(
            f"component: bin {comp.freq_bin}, {rates}, amplitude {amp.real:.6g}{amp.imag:+.6g}j"
        )
    summary.append(f"relative reconstruction error: {result.residual_energy_ratio:.6g}")
    if result.offgrid_suspect:
        summary.append("warning: measurement residual is high; a component may be off-grid")
    return ExperimentOutcome(config.kind, config.label, tuple(summary), tuple(files))


def _runs(assignments):
    current = None
    for a in assignments:
        key = a.grid_index
        if current is None or key != current[2]:
            if current is not None:
                yield current
            current = [a.window_index, a.window_index, key]
        else:
            current[1] = a.window_index
    if current is not None:
        yield current


def _run_lpft_recover(config: ExperimentConfig, out_dir) -> ExperimentOutcome:
    clean = synthesize_config_signal(config)
    samples, achieved = apply_noise(clean, config.noise)
    meas = _measure(config, samples)
    result = lpft_recover(meas, config.grid, config.window, config.policy)
    points = result.sweep
    error = _relative_error(clean, result.reconstructed)

    files = []
    orders = [order for order, _ in config.grid.orders]
    _write(files, out_dir, "signal.csv", csvio.write_signal_csv, clean, config.index_origin)
    _write(files, out_dir, "measurements.csv", csvio.write_measurements_csv, meas)
    _write(files, out_dir, "sweep.csv", csvio.write_sweep_csv, points, orders)
    _write(files, out_dir, "assignments.csv", csvio.write_assignments_csv, result)
    _write(files, out_dir, "reconstruction.csv", csvio.write_signal_csv,
           result.reconstructed, config.index_origin)
    best = max(points, key=lambda p: p.score)
    _write(files, out_dir, "spectrogram.csv", csvio.write_spectrogram_csv,
           lpft_cs_estimate(meas, best.params, config.window))

    summary = [
        f"measurements: {meas.count} of {config.signal_length} "
        f"({config.signal_length // config.window} windows of {config.window})",
    ]
    if config.noise.kind != "none":
        summary.append(f"input SNR achieved: {achieved:.4f} dB")
    for p in sorted(points, key=lambda q: -q.score)[:5]:
        if p.score > 0:
            summary.append(
                f"  grid position {p.index + 1}: {_rate_label(p.coeffs)}, "
                f"peak bin {p.peak_bin}, projection score {p.score:.6g}"
            )
    for first, last, grid_index in _runs(result.assignments):
        label = "unassigned" if grid_index is None else f"grid position {grid_index + 1}"
        summary.append(f"windows {first}-{last}: {label}")
    summary.append(f"relative reconstruction error: {error:.6g}")
    if result.unassigned_windows:
        summary.append(
            f"warning: {len(result.unassigned_windows)} windows had no fitting candidate"
        )
    return ExperimentOutcome(config.kind, config.label, tuple(summary), tuple(files))


def _run_snr_table(config: ExperimentConfig, out_dir) -> ExperimentOutcome:
    signal = MultiComponentSignal(config.components, config.signal_length,
                                  config.index_origin)
    rows = [(s, n) for s in config.snr_in_db for n in config.snr_counts]
    reports = [
        snr_experiment(signal, snr_in, count, config.grid, config.policy,
                       config.snr_trials, (config.snr_seed, row_index), config.recover)
        for row_index, (snr_in, count) in enumerate(rows)
    ]

    files = []
    _write(files, out_dir, "snr_table.csv", csvio.write_snr_table_csv, reports)
    summary = [f"trials per cell: {config.snr_trials}"]
    for rep in reports:
        summary.append(
            f"SNR_in {rep.snr_in_db:g} dB, N={rep.n_measurements}: "
            f"theory {rep.snr_out_theory_db:.4f} dB, "
            f"measured {rep.snr_out_measured_db:.4f} dB "
            f"({rep.failures} of {rep.trials} trials excluded)"
        )
    return ExperimentOutcome(config.kind, config.label, tuple(summary), tuple(files))


def _run_phase_transition(config: ExperimentConfig, out_dir) -> ExperimentOutcome:
    grid = phase_transition(config.pt_components, config.pt_counts, config.pt_trials,
                            config.pt_seed, config.pt_length, config.pt_rates)

    files = []
    _write(files, out_dir, "phase_transition.csv", csvio.write_phase_transition_csv, grid)
    summary = [
        f"signal length {grid.length}, {config.pt_trials} trials per cell",
        "N: " + " ".join(f"{n:>5d}" for n in grid.n_values),
    ]
    for i, k in enumerate(grid.k_values):
        cells = " ".join(f"{grid.success[i, j]:5.2f}" for j in range(len(grid.n_values)))
        summary.append(f"K={k:<3d} {cells}")
    return ExperimentOutcome(config.kind, config.label, tuple(summary), tuple(files))


_RUNNERS = {
    "sweep-recover": _run_sweep_recover,
    "lpft-recover": _run_lpft_recover,
    "snr-table": _run_snr_table,
    "phase-transition": _run_phase_transition,
}

_PLOTS = {
    "sweep-recover": """set datafile separator ','
set terminal pngcairo size 900,600
set output 'sweep.png'
set xlabel 'grid position'
set ylabel 'peak magnitude'
plot 'sweep.csv' skip 1 using 1:(column(-2)) with impulses title 'sweep score'
set output 'spectrum.png'
set xlabel 'bin'
set ylabel 'magnitude'
plot 'spectrum.csv' skip 1 using 1:4 with lines title 'estimate'
""",
    "lpft-recover": """set datafile separator ','
set terminal pngcairo size 900,600
set output 'spectrogram.png'
set xlabel 'window'
set ylabel 'bin'
set view map
splot 'spectrogram.csv' skip 1 using 1:2:5 with points pt 5 ps 2 palette title ''
""",
    "snr-table": """set datafile separator ','
set terminal pngcairo size 900,600
set output 'snr.png'
set xlabel 'row'
set ylabel 'SNR out (dB)'
plot 'snr_table.csv' skip 1 using 0:6 with linespoints title 'theory', \\
     'snr_table.csv' skip 1 using 0:7 with linespoints title 'measured'
""",
    "phase-transition": """set datafile separator ','
set terminal pngcairo size 900,600
set output 'phase_transition.png'
set xlabel 'measurements'
set ylabel 'components'
set view map
splot 'phase_transition.csv' skip 1 using 2:1:3 with points pt 5 ps 3 palette title ''
""",
}


def _with_seed(config: ExperimentConfig, seed) -> ExperimentConfig:
    """``config`` with every seed (sampling, noise, trials) set to ``seed``.

    ``None`` leaves the config unchanged.
    """
    if seed is None:
        return config
    seed = int(seed)
    return replace(config, seed=seed, snr_seed=seed, pt_seed=seed,
                   noise=replace(config.noise, seed=seed))


def run_experiment(config: ExperimentConfig, out_dir, seed=None,
                   plot_script: bool = False) -> ExperimentOutcome:
    """Run one configured experiment, writing artifacts into ``out_dir``.

    ``seed`` overrides every seed in the config (sampling, noise, trials).
    """
    if config.kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {config.kind!r}")
    config = _with_seed(config, seed)
    os.makedirs(out_dir, exist_ok=True)
    outcome = _RUNNERS[config.kind](config, out_dir)
    if plot_script:
        path = os.path.join(out_dir, "plot.gp")
        with open(path, "w") as handle:
            handle.write(_PLOTS[config.kind])
        outcome = replace(outcome, files=outcome.files + (path,))
    return outcome
