"""CSV artifact writers and their round-trip readers.

Every writer is atomic (temp file in the target directory, then
``os.replace``) and writes the same bytes that ``csv.writer``'s default
dialect would: a header row, ``\\r\\n`` line ends and no quoting (no cell
holds a comma, quote or line break).  Floats are written as the ``repr``
of the Python float, the shortest text that parses back to the exact same
double, and magnitudes as ``abs()`` of each Python ``complex`` (libm
``hypot``, ``inf`` where it overflows; vectorised ``np.abs`` can differ in
the last bit).  Runs with the same seeds therefore produce byte-identical
files.  Writers format a column at a time and write each file in one
call.  Grid positions are 1-based in files; in-memory indices stay 0-based.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import itertools
import math
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


def _floats(values):
    """A float column: each value as a Python float, whose ``%s`` is its ``repr``."""
    return np.asarray(values, dtype=np.float64).tolist()


def _magnitude(value: complex) -> float:
    # Python's abs() of a value with a NaN part and no infinite one returns
    # nan without clearing errno, so a stale overflow from an earlier value
    # would raise there
    if cmath.isnan(value) and not cmath.isinf(value):
        return math.nan
    # Python raises where the modulus of a finite value overflows
    try:
        return abs(value)
    except OverflowError:
        return math.inf


def _magnitudes(values):
    """A float column of ``abs()`` of each value as a Python complex, inf
    where that overflows."""
    values = np.asarray(values, dtype=np.complex128).tolist()
    try:
        return list(map(abs, values))
    except OverflowError:
        return list(map(_magnitude, values))


def _atomic_write(path, header, *columns):
    """Write ``header`` and one row per entry of the equal-length
    ``columns`` (cells of text, ints or Python floats); atomic on success."""
    row = ",".join(["%s"] * len(header)) + "\r\n"
    text = ",".join(header) + "\r\n" + "".join(map(row.__mod__, zip(*columns)))
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csvtmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
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
    _atomic_write(path, ["index", "re", "im"],
                  range(index_origin, index_origin + samples.size),
                  _floats(samples.real), _floats(samples.imag))


def read_signal_csv(path):
    """Returns ``(samples, index_origin)``."""
    rows = _read_rows(path, ["index", "re", "im"])
    if not rows:
        raise ValueError(f"{path}: no samples")
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return values, int(rows[0][0])


def write_measurements_csv(path, meas):
    _atomic_write(path, ["position", "re", "im", "signal_length", "index_origin"],
                  meas.positions.tolist(), _floats(meas.values.real), _floats(meas.values.imag),
                  itertools.repeat(meas.signal_length), itertools.repeat(meas.index_origin))


def read_measurements_csv(path):
    from .model import MeasurementSet

    rows = _read_rows(path, ["position", "re", "im", "signal_length", "index_origin"])
    if not rows:
        raise ValueError(f"{path}: no measurements")
    positions = np.array([int(r[0]) for r in rows], dtype=np.int64)
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return MeasurementSet(positions, values, int(rows[0][3]), int(rows[0][4]))


def write_spectrum_csv(path, spectrum: Spectrum):
    coeffs = spectrum.coeffs
    _atomic_write(path, ["bin", "re", "im", "magnitude"], range(coeffs.size),
                  _floats(coeffs.real), _floats(coeffs.imag), _magnitudes(coeffs))


def read_spectrum_csv(path) -> Spectrum:
    rows = _read_rows(path, ["bin", "re", "im", "magnitude"])
    return Spectrum(np.array([complex(float(r[1]), float(r[2])) for r in rows]))


def write_sweep_csv(path, sweep: SweepResult):
    """Sweep scores; ``grid_index`` is 1-based, ``peak_bin`` empty when none."""
    grid = sweep.grid
    _atomic_write(path, ["grid_index", *[f"rate_p{order}" for order, _ in grid.orders],
                         "peak_magnitude", "peak_bin"],
                  range(1, grid.n_points + 1), *map(_floats, grid.rates.T), _floats(sweep.scores),
                  ["" if peak < 0 else peak for peak in sweep.peaks.tolist()])


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
    """Detected components with their corrected complex amplitudes.

    A component with fewer phase coefficients than the others has its
    missing higher coefficients written as ``0.0``.
    """
    components = list(components)
    max_order = max((c.params.max_order for c in components), default=1)
    orders = list(range(2, max_order + 1))
    coeffs = [comp.params.full_coeffs() + (0.0,) * (max_order - comp.params.max_order)
              for comp in components]
    amps = np.array([comp.corrected_amplitude or 0j for comp in components], dtype=np.complex128)
    _atomic_write(path, ["freq_bin", *[f"coeff_p{o}" for o in orders],
                         "raw_magnitude", "amplitude_re", "amplitude_im"],
                  [comp.freq_bin for comp in components],
                  *[_floats([c[o - 1] for c in coeffs]) for o in orders],
                  _floats([comp.raw_magnitude for comp in components]),
                  _floats(amps.real), _floats(amps.imag))


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


def write_spectrogram_csv(path, blocks):
    """The (windows, bins) complex block matrix, one row per (window, bin)."""
    n_windows, window = np.shape(blocks)
    values = np.ravel(blocks)
    _atomic_write(path, ["window_index", "bin", "re", "im", "magnitude"],
                  np.repeat(np.arange(n_windows), window).tolist(),
                  np.tile(np.arange(window), n_windows).tolist(),
                  _floats(values.real), _floats(values.imag), _magnitudes(values))


def read_spectrogram_csv(path) -> np.ndarray:
    """Returns the (windows, bins) complex block matrix; every (window, bin)
    cell must have exactly one row."""
    rows = _read_rows(path, ["window_index", "bin", "re", "im", "magnitude"])
    if not rows:
        raise ValueError(f"{path}: empty spectrogram")
    cells = np.array([(int(r[0]), int(r[1])) for r in rows], dtype=np.int64)
    if cells.min() < 0:
        raise ValueError(f"{path}: negative window index or bin")
    n_win, window = (cells.max(axis=0) + 1).tolist()
    flat = cells[:, 0] * window + cells[:, 1]
    counts = np.bincount(flat, minlength=n_win * window)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        b, k = divmod(int(bad[0]), window)
        what = "missing" if counts[bad[0]] == 0 else "repeated"
        raise ValueError(f"{path}: {what} cell (window {b}, bin {k})")
    blocks = np.zeros(n_win * window, dtype=np.complex128)
    blocks[flat] = [complex(float(r[2]), float(r[3])) for r in rows]
    return blocks.reshape(n_win, window)


def write_assignments_csv(path, result):
    """Per-window winners; bins and amplitudes are semicolon-joined lists."""
    rows = result.assignments
    amps = [np.array(a.amplitudes, dtype=np.complex128) for a in rows]
    _atomic_write(path, ["window_index", "start", "grid_index", "residual_ratio",
                         "bins", "amplitude_re", "amplitude_im"],
                  [a.window_index for a in rows], [a.start for a in rows],
                  ["" if a.grid_index is None else a.grid_index + 1 for a in rows],
                  ["" if a.residual_ratio is None else float(a.residual_ratio)
                   for a in rows],
                  [";".join(map(str, a.bins)) for a in rows],
                  [";".join(map(repr, amp.real.tolist())) for amp in amps],
                  [";".join(map(repr, amp.imag.tolist())) for amp in amps])


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
    _atomic_write(path, ["components", "measurements", "success_fraction"],
                  [k for k in grid.k_values for _ in grid.n_values],
                  [n for _ in grid.k_values for n in grid.n_values],
                  _floats(grid.success.ravel()))


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
    reports = list(reports)
    _atomic_write(path, _SNR_HEADER,
                  _floats([r.snr_in_db for r in reports]),
                  *[[getattr(r, key) for r in reports]
                    for key in ("n_measurements", "k_components", "trials", "failures")],
                  _floats([r.snr_out_theory_db for r in reports]),
                  _floats([r.snr_out_measured_db for r in reports]))


def read_snr_table_csv(path) -> list:
    rows = _read_rows(path, _SNR_HEADER)
    return [
        SnrReport(float(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4]),
                  float(r[5]), float(r[6]), ())
        for r in rows
    ]
