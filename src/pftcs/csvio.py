"""CSV artifact writers and their round-trip readers.

Every writer is atomic (temp file in the target directory, then
``os.replace``) and emits floats through ``repr``, the shortest
representation that parses back to the exact same double.  Runs with the
same seeds therefore produce byte-identical files.  Grid positions are
1-based in files; in-memory indices stay 0-based.
"""

from __future__ import annotations

import contextlib
import csv
import os
import tempfile

import numpy as np

from .analysis import PhaseTransitionGrid, SnrReport
from .recovery import DetectedComponent, SweepResult
from .transform import KernelParams, Spectrum

__all__ = [
    "write_signal_csv", "read_signal_csv",
    "write_measurements_csv", "read_measurements_csv",
    "write_spectrum_csv", "read_spectrum_csv",
    "write_sweep_csv", "read_sweep_csv",
    "write_components_csv", "read_components_csv",
    "write_spectrogram_csv", "read_spectrogram_csv",
    "write_assignments_csv", "read_assignments_csv",
    "write_phase_transition_csv", "read_phase_transition_csv",
    "write_snr_table_csv", "read_snr_table_csv",
]


def _fmt(value) -> str:
    return repr(float(value))


def _atomic_write(path, emit):
    """Write rows through ``emit(csv_writer)``; atomic on success."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csvtmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            emit(csv.writer(handle))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _read_rows(path, expected_header) -> list:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != list(expected_header):
        raise ValueError(f"{path}: expected header {list(expected_header)}, got {rows[:1]}")
    return rows[1:]


def write_signal_csv(path, samples, index_origin=0):
    samples = np.asarray(samples, dtype=np.complex128)

    def emit(writer):
        writer.writerow(["index", "re", "im"])
        for offset, value in enumerate(samples):
            writer.writerow([index_origin + offset, _fmt(value.real), _fmt(value.imag)])

    _atomic_write(path, emit)


def read_signal_csv(path):
    """Returns ``(samples, index_origin)``."""
    rows = _read_rows(path, ["index", "re", "im"])
    if not rows:
        raise ValueError(f"{path}: no samples")
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return values, int(rows[0][0])


def write_measurements_csv(path, meas):
    def emit(writer):
        writer.writerow(["position", "re", "im", "signal_length", "index_origin"])
        for pos, value in zip(meas.positions, meas.values):
            writer.writerow([int(pos), _fmt(value.real), _fmt(value.imag),
                             meas.signal_length, meas.index_origin])

    _atomic_write(path, emit)


def read_measurements_csv(path):
    from .model import MeasurementSet

    rows = _read_rows(path, ["position", "re", "im", "signal_length", "index_origin"])
    if not rows:
        raise ValueError(f"{path}: no measurements")
    positions = np.array([int(r[0]) for r in rows], dtype=np.int64)
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return MeasurementSet(positions, values, int(rows[0][3]), int(rows[0][4]))


def write_spectrum_csv(path, spectrum: Spectrum):
    def emit(writer):
        writer.writerow(["bin", "re", "im", "magnitude"])
        for k, value in enumerate(spectrum.coeffs):
            writer.writerow([k, _fmt(value.real), _fmt(value.imag), _fmt(abs(value))])

    _atomic_write(path, emit)


def read_spectrum_csv(path) -> Spectrum:
    rows = _read_rows(path, ["bin", "re", "im", "magnitude"])
    return Spectrum(np.array([complex(float(r[1]), float(r[2])) for r in rows]))


def write_sweep_csv(path, sweep: SweepResult):
    """Sweep scores; ``grid_index`` is 1-based, ``peak_bin`` empty when none."""
    grid = sweep.grid

    def emit(writer):
        writer.writerow(["grid_index", *[f"rate_p{order}" for order, _ in grid.orders],
                         "peak_magnitude", "peak_bin"])
        rows = zip(grid.rates.tolist(), sweep.scores.tolist(), sweep.peaks.tolist())
        for g, (rates, score, peak) in enumerate(rows):
            writer.writerow([g + 1, *map(_fmt, rates), _fmt(score), "" if peak < 0 else peak])

    _atomic_write(path, emit)


def read_sweep_csv(path):
    """Returns ``(orders, rows)``; each row is (grid_index, values, score, peak_bin)."""
    with open(path, newline="") as handle:
        raw = list(csv.reader(handle))
    if not raw or raw[0][:1] != ["grid_index"] or raw[0][-2:] != ["peak_magnitude", "peak_bin"]:
        raise ValueError(f"{path}: not a sweep file")
    orders = [int(name.removeprefix("rate_p")) for name in raw[0][1:-2]]
    rows = []
    for r in raw[1:]:
        values = tuple(float(v) for v in r[1:1 + len(orders)])
        peak_bin = None if r[-1] == "" else int(r[-1])
        rows.append((int(r[0]), values, float(r[-2]), peak_bin))
    return orders, rows


def write_components_csv(path, components):
    """Detected components with their corrected complex amplitudes."""
    components = list(components)
    max_order = max((c.params.max_order for c in components), default=1)
    orders = list(range(2, max_order + 1))

    def emit(writer):
        writer.writerow(["freq_bin", *[f"coeff_p{o}" for o in orders],
                         "raw_magnitude", "amplitude_re", "amplitude_im"])
        for comp in components:
            coeffs = comp.params.full_coeffs()
            amp = comp.corrected_amplitude or 0j
            writer.writerow([
                comp.freq_bin,
                *[_fmt(coeffs[o - 1]) for o in orders],
                _fmt(comp.raw_magnitude), _fmt(amp.real), _fmt(amp.imag),
            ])

    _atomic_write(path, emit)


def read_components_csv(path) -> list:
    with open(path, newline="") as handle:
        raw = list(csv.reader(handle))
    header = raw[0] if raw else []
    if header[:1] != ["freq_bin"] or header[-3:] != ["raw_magnitude", "amplitude_re", "amplitude_im"]:
        raise ValueError(f"{path}: not a components file")
    n_coeffs = len(header) - 4
    out = []
    for r in raw[1:]:
        higher = tuple(float(v) for v in r[1:1 + n_coeffs])
        out.append(DetectedComponent(
            KernelParams(higher), int(r[0]), float(r[-3]),
            complex(float(r[-2]), float(r[-1])),
        ))
    return out


def write_spectrogram_csv(path, spectrogram):
    def emit(writer):
        writer.writerow(["window_index", "bin", "re", "im", "magnitude"])
        for b in range(spectrogram.n_windows):
            for k in range(spectrogram.window):
                value = spectrogram.blocks[b, k]
                writer.writerow([b, k, _fmt(value.real), _fmt(value.imag), _fmt(abs(value))])

    _atomic_write(path, emit)


def read_spectrogram_csv(path) -> np.ndarray:
    """Returns the (windows, bins) complex block matrix."""
    rows = _read_rows(path, ["window_index", "bin", "re", "im", "magnitude"])
    if not rows:
        raise ValueError(f"{path}: empty spectrogram")
    n_win = max(int(r[0]) for r in rows) + 1
    window = max(int(r[1]) for r in rows) + 1
    blocks = np.zeros((n_win, window), dtype=np.complex128)
    for r in rows:
        blocks[int(r[0]), int(r[1])] = complex(float(r[2]), float(r[3]))
    return blocks


def write_assignments_csv(path, result):
    """Per-window winners; bins and amplitudes are semicolon-joined lists."""

    def emit(writer):
        writer.writerow(["window_index", "start", "grid_index", "residual_ratio",
                         "bins", "amplitude_re", "amplitude_im"])
        for a in result.assignments:
            writer.writerow([
                a.window_index, a.start,
                "" if a.grid_index is None else a.grid_index + 1,
                "" if a.residual_ratio is None else _fmt(a.residual_ratio),
                ";".join(str(b) for b in a.bins),
                ";".join(_fmt(amp.real) for amp in a.amplitudes),
                ";".join(_fmt(amp.imag) for amp in a.amplitudes),
            ])

    _atomic_write(path, emit)


def read_assignments_csv(path) -> list:
    """Returns rows of ``(window, start, grid_index, residual, bins, amps)``."""
    rows = _read_rows(path, ["window_index", "start", "grid_index", "residual_ratio",
                             "bins", "amplitude_re", "amplitude_im"])
    out = []
    for r in rows:
        grid_index = None if r[2] == "" else int(r[2]) - 1
        residual = None if r[3] == "" else float(r[3])
        bins = tuple(int(b) for b in r[4].split(";") if b)
        res = [float(v) for v in r[5].split(";") if v]
        ims = [float(v) for v in r[6].split(";") if v]
        amps = tuple(complex(a, b) for a, b in zip(res, ims))
        out.append((int(r[0]), int(r[1]), grid_index, residual, bins, amps))
    return out


def write_phase_transition_csv(path, grid: PhaseTransitionGrid):
    def emit(writer):
        writer.writerow(["components", "measurements", "success_fraction"])
        for i, k in enumerate(grid.k_values):
            for j, n in enumerate(grid.n_values):
                writer.writerow([k, n, _fmt(grid.success[i, j])])

    _atomic_write(path, emit)


def read_phase_transition_csv(path):
    """Returns ``(k_values, n_values, success_matrix)``."""
    rows = _read_rows(path, ["components", "measurements", "success_fraction"])
    if not rows:
        raise ValueError(f"{path}: empty phase-transition table")
    k_values = sorted({int(r[0]) for r in rows})
    n_values = sorted({int(r[1]) for r in rows})
    success = np.full((len(k_values), len(n_values)), np.nan)
    for r in rows:
        success[k_values.index(int(r[0])), n_values.index(int(r[1]))] = float(r[2])
    return tuple(k_values), tuple(n_values), success


_SNR_HEADER = ["snr_in_db", "measurements", "components", "trials", "failures",
               "snr_out_theory_db", "snr_out_measured_db"]


def write_snr_table_csv(path, reports):
    def emit(writer):
        writer.writerow(_SNR_HEADER)
        for rep in reports:
            writer.writerow([_fmt(rep.snr_in_db), rep.n_measurements,
                             rep.k_components, rep.trials, rep.failures,
                             _fmt(rep.snr_out_theory_db), _fmt(rep.snr_out_measured_db)])

    _atomic_write(path, emit)


def read_snr_table_csv(path) -> list:
    rows = _read_rows(path, _SNR_HEADER)
    return [
        SnrReport(float(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4]),
                  float(r[5]), float(r[6]), ())
        for r in rows
    ]
