"""Experiment runners: config in, CSV artifacts and summary lines out.

Each runner is deterministic for a fixed config: masks, noise, and trial
streams all derive from PCG64 seeded with the config's seeds, so artifact
files are byte-identical across runs.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from . import csvio
from .analysis import phase_transition, relative_error, snr_experiment, snr_table_cells
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
    length, origin = config.signal_length, config.index_origin
    out = synthesize(MultiComponentSignal(config.components, length, origin))
    for piece in config.pieces:
        out[piece.start - origin:piece.stop - origin] += piece.component.sample(
            np.arange(piece.start, piece.stop), length)
    return out


def _measure(config: ExperimentConfig, samples: np.ndarray) -> MeasurementSet:
    """``samples`` at ``sampling_count`` uniform random positions of the whole
    signal, seeded by (seed,), or under ``per_window`` of each window b,
    seeded by (seed, b)."""
    if config.per_window:
        span = config.window
        keys = [(config.seed, b) for b in range(config.signal_length // span)]
    else:
        span, keys = config.signal_length, [(config.seed,)]
    positions = np.concatenate([
        select_measurements(span, config.sampling_count, config.index_origin + i * span,
                            np.random.SeedSequence(key))
        for i, key in enumerate(keys)
    ])
    return MeasurementSet.from_samples(samples, positions, config.signal_length,
                                       config.index_origin)


def _top_lines(swept, count, peak="bin", score="score") -> list:
    """Summary lines of the ``count`` highest positive sweep scores,
    strongest first; equal scores keep grid order."""
    orders = [order for order, _ in swept.grid.orders]
    lines = []
    for g in np.argsort(-swept.scores, kind="stable")[:count].tolist():
        if swept.scores[g] > 0:
            rates = ", ".join(f"rate_p{o} {v:g}" for o, v in zip(orders, swept.grid.rates[g]))
            lines.append(f"  grid position {g + 1}: {rates}, {peak} {swept.peaks[g]}, "
                         f"{score} {swept.scores[g]:.6g}")
    return lines


def _write(files, out_dir, name, writer, *args):
    path = os.path.join(out_dir, name)
    writer(path, *args)
    files.append(path)


def _run_sweep_recover(config: ExperimentConfig, out_dir) -> ExperimentOutcome:
    clean = synthesize_config_signal(config)
    samples, achieved = apply_noise(clean, config.noise)
    meas = _measure(config, samples)
    result = recover(meas, config.grid, config.policy, config.recover)
    error = relative_error(clean, result.reconstructed)
    swept = result.sweep

    files = []
    _write(files, out_dir, "signal.csv", csvio.write_signal_csv, clean, config.index_origin)
    _write(files, out_dir, "measurements.csv", csvio.write_measurements_csv, meas)
    _write(files, out_dir, "sweep.csv", csvio.write_sweep_csv, swept)
    _write(files, out_dir, "components.csv", csvio.write_components_csv, result.components)
    _write(files, out_dir, "reconstruction.csv", csvio.write_signal_csv,
           result.reconstructed, config.index_origin)
    best = config.grid.params(np.argmax(swept.scores))
    _write(files, out_dir, "spectrum.csv", csvio.write_spectrum_csv,
           cs_spectral_estimate(meas, best))

    summary = [
        f"measurements: {meas.count} of {config.signal_length}",
    ]
    if config.noise.kind != "none":
        summary.append(f"input SNR achieved: {achieved:.4f} dB")
    summary.append(f"sweep: {np.count_nonzero(swept.scores)} of {config.grid.n_points} "
                   "grid points above threshold")
    summary += _top_lines(swept, max(1, len(result.components)))
    for comp in result.components:
        rates = ", ".join(
            f"rate_p{i + 2} {-c + 0.0:g} (coeff {c:g})"
            for i, c in enumerate(comp.params.higher_coeffs)
        )
        amp = comp.corrected_amplitude
        summary.append(
            f"component: bin {comp.freq_bin}, {rates}, amplitude {amp.real:.6g}{amp.imag:+.6g}j"
        )
    summary.append(f"relative reconstruction error: {error:.6g}")
    if result.offgrid_suspect:
        summary.append("warning: measurement residual is high; a component may be off-grid")
    return ExperimentOutcome(config.kind, config.label, tuple(summary), tuple(files))


def _runs(assignments):
    """``(first, last, grid_index)`` of each run of windows with one grid index."""
    for key, run in itertools.groupby(assignments, lambda a: a.grid_index):
        run = list(run)
        yield run[0].window_index, run[-1].window_index, key


def _run_lpft_recover(config: ExperimentConfig, out_dir) -> ExperimentOutcome:
    clean = synthesize_config_signal(config)
    samples, achieved = apply_noise(clean, config.noise)
    meas = _measure(config, samples)
    result = lpft_recover(meas, config.grid, config.window, config.policy)
    error = relative_error(clean, result.reconstructed)
    swept = result.sweep

    files = []
    _write(files, out_dir, "signal.csv", csvio.write_signal_csv, clean, config.index_origin)
    _write(files, out_dir, "measurements.csv", csvio.write_measurements_csv, meas)
    _write(files, out_dir, "sweep.csv", csvio.write_sweep_csv, swept)
    _write(files, out_dir, "assignments.csv", csvio.write_assignments_csv, result)
    _write(files, out_dir, "reconstruction.csv", csvio.write_signal_csv,
           result.reconstructed, config.index_origin)
    best = config.grid.params(np.argmax(swept.scores))
    _write(files, out_dir, "spectrogram.csv", csvio.write_spectrogram_csv,
           lpft_cs_estimate(meas, best, config.window))

    summary = [
        f"measurements: {meas.count} of {config.signal_length} "
        f"({config.signal_length // config.window} windows of {config.window})",
    ]
    if config.noise.kind != "none":
        summary.append(f"input SNR achieved: {achieved:.4f} dB")
    summary += _top_lines(swept, 5, "peak bin", "projection score")
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
    cells = snr_table_cells(config.snr_in_db, config.counts, config.trials,
                            config.signal_length)
    reports = [
        snr_experiment(signal, snr_in, count, config.grid, config.policy,
                       config.trials, (config.seed, row_index), config.recover)
        for row_index, (snr_in, count) in enumerate(cells)
    ]

    files = []
    _write(files, out_dir, "snr_table.csv", csvio.write_snr_table_csv, reports)
    summary = [f"trials per cell: {config.trials}"]
    for rep in reports:
        summary.append(
            f"SNR_in {rep.snr_in_db:g} dB, N={rep.n_measurements}: "
            f"theory {rep.snr_out_theory_db:.4f} dB, "
            f"measured {rep.snr_out_measured_db:.4f} dB "
            f"({rep.failures} of {rep.trials} trials excluded)"
        )
    return ExperimentOutcome(config.kind, config.label, tuple(summary), tuple(files))


def _run_phase_transition(config: ExperimentConfig, out_dir) -> ExperimentOutcome:
    grid = phase_transition(config.component_counts, config.counts, config.trials,
                            config.seed, config.signal_length, config.grid.orders[0][1])

    files = []
    _write(files, out_dir, "phase_transition.csv", csvio.write_phase_transition_csv, grid)
    summary = [
        f"signal length {grid.length}, {config.trials} trials per cell",
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


def run_experiment(config: ExperimentConfig, out_dir,
                   plot_script: bool = False) -> ExperimentOutcome:
    """Run one configured experiment, writing artifacts into ``out_dir``."""
    if config.kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {config.kind!r}")
    os.makedirs(out_dir, exist_ok=True)
    outcome = _RUNNERS[config.kind](config, out_dir)
    if plot_script:
        path = os.path.join(out_dir, "plot.gp")
        with open(path, "w") as handle:
            handle.write(_PLOTS[config.kind])
        outcome = replace(outcome, files=outcome.files + (path,))
    return outcome
