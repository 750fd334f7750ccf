"""Local polynomial Fourier transform and piecewise recovery.

The signal is split into adjacent equal windows; each window gets its own
short spectrum after demodulation.  The demodulator is the slice of the
full-length kernel over that window's actual sample positions, so a
component that is matched globally stays concentrated in every window it
occupies and the single-window transform degenerates exactly to the full
transform.  Piecewise signals are recovered window by window: every
candidate from the rate grid fits the window's demodulated measurements
with a few local Fourier bins, and the candidate with the smallest
residual wins.  A window's candidates are fitted as stacks, one per bin
count.  The masked window spectra come from the same scatter-FFT
estimator as the global transform, one batched FFT for every window and
grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MeasurementSet
from .recovery import (
    ParameterGrid,
    SweepResult,
    ThresholdPolicy,
    _kernel_matrix,
    _normal_equations,
    _residual_ratio,
    _scatter_spectra,
    _sweep_records,
)
from .transform import KernelParams, kernel_values_at

__all__ = [
    "LpftSpectrogram",
    "WindowAssignment",
    "LpftRecoveryResult",
    "lpft",
    "lpft_cs_estimate",
    "lpft_sweep",
    "lpft_recover",
]


def _check_window(window: int, length: int):
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    if length % window != 0:
        raise ValueError(f"window {window} does not divide signal length {length}")


@dataclass(frozen=True, eq=False)
class LpftSpectrogram:
    """Per-window spectra: ``blocks[b, k]`` is window ``b``, bin ``k``.

    ``counts`` holds the number of samples that fed each window;
    ``empty_windows`` lists windows that had none (their rows are zero).
    """

    blocks: np.ndarray
    window: int
    length: int
    index_origin: int
    params: KernelParams
    counts: tuple
    empty_windows: tuple = ()

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=np.complex128)
        if blocks.ndim != 2 or blocks.shape != (self.length // self.window, self.window):
            raise ValueError("blocks must be (length // window, window)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_windows(self) -> int:
        return self.blocks.shape[0]

    def window_start(self, index: int) -> int:
        return self.index_origin + index * self.window

    def magnitude(self) -> np.ndarray:
        return np.abs(self.blocks)


def lpft(samples, params: KernelParams, window: int, index_origin=0) -> LpftSpectrogram:
    """Local transform of fully sampled data.

    Window ``b`` covers positions ``m0 + b*W .. m0 + (b+1)*W - 1``; its
    spectrum is the length-``W`` DFT of the demodulated samples, indexed by
    the offset into the window.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    length = samples.size
    _check_window(window, length)
    positions = np.arange(index_origin, index_origin + length)
    demod = samples * kernel_values_at(params, positions, length)
    n_win = length // window
    blocks = np.fft.fft(demod.reshape(n_win, window), axis=1)
    return LpftSpectrogram(blocks, window, length, index_origin, params,
                           (window,) * n_win)


def _window_of(meas: MeasurementSet, window: int) -> np.ndarray:
    return (meas.positions - meas.index_origin) // window


def _window_counts(meas: MeasurementSet, window: int) -> np.ndarray:
    return np.bincount(_window_of(meas, window), minlength=meas.signal_length // window)


def lpft_cs_estimate(meas: MeasurementSet, params: KernelParams, window: int) -> LpftSpectrogram:
    """Masked per-window spectra, unbiased at matched bins.

    Window ``b`` with ``N_b`` of its ``W`` samples available gets
    ``(W/N_b) * sum y(m) phi(m) exp(-2j pi k (m - start_b)/W)``.  Windows
    with no samples are zero and reported in ``empty_windows``.
    """
    length = meas.signal_length
    _check_window(window, length)
    phi = kernel_values_at(params, meas.positions, length)
    blocks = _scatter_spectra(meas, (meas.values * phi)[:, None], window)[0]
    counts = _window_counts(meas, window)
    return LpftSpectrogram(blocks, window, length, meas.index_origin, params,
                           tuple(int(c) for c in counts),
                           tuple(int(b) for b in np.flatnonzero(counts == 0)))


def lpft_sweep(meas: MeasurementSet, grid: ParameterGrid, window: int,
               policy: ThresholdPolicy) -> SweepResult:
    """Score each grid point by its cross-window detection projection.

    Per window, bins at or above the policy threshold keep their magnitude
    and everything else is zeroed; the surviving magnitudes are summed
    across windows per bin.  ``scores[g]`` is grid point ``g``'s largest bin
    total (0 where nothing survives) and ``peaks[g]`` that bin (-1 where
    none).  A rate matched anywhere accumulates over every window it
    occupies, so piecewise constant rates still stand out against
    per-window clutter.
    """
    return _sweep(meas, grid, window, policy)[0]


def _sweep(meas: MeasurementSet, grid: ParameterGrid, window: int,
           policy: ThresholdPolicy):
    """:func:`lpft_sweep`'s result, the (N, G) demodulated samples and
    their (G, n_windows, W) spectrum magnitudes with every bin below its
    window's threshold zeroed: the detections."""
    _check_window(window, meas.signal_length)
    weighted = meas.values[:, None] * _kernel_matrix(meas, grid)
    mags = np.abs(_scatter_spectra(meas, weighted, window))
    # an empty window is all zeros and detects nothing
    thresholds = policy.column_thresholds(mags)
    detected = np.where((mags >= thresholds[..., None]) & (mags > 0.0), mags, 0.0)
    return _sweep_records(grid, detected.sum(axis=1), 0.0), weighted, detected


@dataclass(frozen=True)
class WindowAssignment:
    """Winning candidate for one window (or none, when nothing fitted)."""

    window_index: int
    start: int
    grid_index: int | None
    params: KernelParams | None
    bins: tuple
    amplitudes: tuple
    residual_ratio: float | None


@dataclass(frozen=True, eq=False)
class LpftRecoveryResult:
    """Per-window assignments, the stitched reconstruction, and the sweep."""

    assignments: tuple
    reconstructed: np.ndarray
    unassigned_windows: tuple
    sweep: SweepResult

    @property
    def n_windows(self) -> int:
        return len(self.assignments)


def _candidate_fits(demodulated, rows, chosen):
    """Least-squares local Fourier fits of a stack of candidates in one window.

    Row ``c`` of the (C, N_b) ``demodulated`` holds the window's samples
    demodulated by candidate ``c``'s kernel, ``rows`` holds the (N_b, W)
    Fourier-table rows of the samples' offsets into the window, and row
    ``c`` of the (C, k) ``chosen`` holds candidate ``c``'s bins.  The
    kernel has unit modulus, so each fit is that of the raw samples to the
    atoms ``conj(phi) * exp(2j pi k (m - start)/W)``.  Returns the mask of
    candidates that pass the rank rule and, for those, their (C', k)
    amplitudes and relative residual energies.
    """
    # column-major (N_b, k) atoms, the layout of ``rows[:, bins]``, so that
    # each stacked product rounds as the same product of one candidate does
    atoms = rows.T[chosen].swapaxes(1, 2)
    gram, rhs, _, solvable = _normal_equations(atoms, demodulated)
    atoms, demodulated = atoms[solvable], demodulated[solvable]
    amps = np.linalg.solve(gram[solvable], rhs[solvable])[..., 0]
    left = demodulated - (atoms @ amps[..., None])[..., 0]
    return solvable, amps, _residual_ratio(left, demodulated)


def lpft_recover(meas: MeasurementSet, grid: ParameterGrid, window: int,
                 policy: ThresholdPolicy) -> LpftRecoveryResult:
    """Window-by-window recovery of a piecewise polynomial-phase signal.

    Candidates are the grid points whose sweep score is positive.  For each
    window, every candidate is tried on the window's demodulated samples:
    its bins are the sweep's detections in that window (the sweep
    thresholds, strongest first, capped at ``max(1, N_b // 2 - 1)`` to
    leave residual headroom for the comparison), the local Fourier
    amplitudes are fitted by least squares, and the candidate with the
    smallest computed relative residual is assigned.  The candidates with
    the same number of bins are fitted as one stack, with the rank rule of
    every amplitude solve; a rank-deficient candidate is skipped.  A later
    candidate displaces the best only with a strictly smaller ratio, so
    candidates that tie in exact arithmetic are decided by the rounding of
    their ratios, in either direction.  Windows with no measurements or no
    fitting candidate reconstruct as zeros and are listed in
    ``unassigned_windows``.  The result carries the :func:`lpft_sweep`
    result in ``sweep``; compare ``reconstructed`` with a reference by
    :func:`pftcs.analysis.relative_error`.
    """
    length = meas.signal_length
    swept, weighted, detected = _sweep(meas, grid, window, policy)
    cands = np.flatnonzero(swept.scores > 0)
    owner = _window_of(meas, window)
    offsets = np.arange(window)
    table = np.exp(2j * np.pi * (np.outer(offsets, offsets) % window) / window)

    assignments = []
    unassigned = []
    reconstructed = np.zeros(length, dtype=np.complex128)
    for b in range(length // window):
        start = meas.index_origin + b * window
        sel = np.flatnonzero(owner == b)
        cap = max(1, sel.size // 2 - 1)
        found = detected[cands, b]
        # each candidate's detected bins come first, strongest first, ties
        # to the lower bin
        ranked = np.argsort(-found, axis=1, kind="stable")
        taken = np.minimum(np.count_nonzero(found, axis=1), cap)
        demodulated = weighted[sel][:, cands].T
        rows = table[meas.positions[sel] - start]
        ratios = np.full(cands.size, np.inf)  # +inf: no bins or rank-deficient
        amps = np.zeros((cands.size, cap), dtype=np.complex128)
        for k in range(1, cap + 1):
            group = np.flatnonzero(taken == k)
            if group.size:
                solvable, fitted, ratio = _candidate_fits(
                    demodulated[group], rows, ranked[group, :k])
                ratios[group[solvable]] = ratio
                amps[group[solvable], :k] = fitted
        solved = np.flatnonzero(ratios != np.inf)
        if not solved.size:
            assignments.append(WindowAssignment(b, start, None, None, (), (), None))
            unassigned.append(b)
            continue
        # a later candidate wins only with a strictly smaller ratio, so the
        # winner is the first minimum, and a NaN first fit is never displaced
        j = solved[0] if np.isnan(ratios[solved[0]]) else int(np.nanargmin(ratios))
        g, k = int(cands[j]), int(taken[j])
        chosen, fitted = ranked[j, :k], amps[j, :k]
        params = grid.params(g)
        assignments.append(WindowAssignment(b, start, g, params, tuple(chosen.tolist()),
                                            tuple(complex(a) for a in fitted),
                                            float(ratios[j])))
        inv = np.conj(kernel_values_at(params, start + offsets, length))
        reconstructed[b * window:(b + 1) * window] = inv * (table[:, chosen] @ fitted)
    return LpftRecoveryResult(tuple(assignments), reconstructed, tuple(unassigned), swept)
