"""Local polynomial Fourier transform and piecewise recovery.

The signal is split into adjacent equal windows; each window gets its own
short spectrum after demodulation.  The demodulator is the slice of the
full-length kernel over that window's actual sample positions, so a
component that is matched globally stays concentrated in every window it
occupies and the single-window transform degenerates exactly to the full
transform.  Piecewise signals are recovered window by window: every
candidate from the rate grid fits the window's demodulated measurements
with a few local Fourier bins, and the candidate with the smallest
residual wins.  The (candidate, window) pairs are fitted as stacks, one
stack per (window sample count, bin count) across all windows.  The masked
window spectra come from the same scatter-FFT estimator as the global
transform, one batched FFT for every window and grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MeasurementSet
from .recovery import (
    ParameterGrid,
    SweepResult,
    ThresholdPolicy,
    _fits,
    _kernel_matrix,
    _roots,
    _scatter_spectra,
    _sweep_records,
)
from .transform import KernelParams, kernel_values_at

__all__ = [
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


def lpft(samples, params: KernelParams, window: int, index_origin=0) -> np.ndarray:
    """Local transform of fully sampled data, as a (M // W, W) complex array.

    Row ``b`` is window ``b``, which covers positions
    ``m0 + b*W .. m0 + (b+1)*W - 1``: the length-``W`` DFT of its
    demodulated samples, indexed by the offset into the window.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    length = samples.size
    _check_window(window, length)
    positions = np.arange(index_origin, index_origin + length)
    demod = samples * kernel_values_at(params, positions, length)
    return np.fft.fft(demod.reshape(length // window, window), axis=1)


def _window_counts(meas: MeasurementSet, window: int) -> np.ndarray:
    return np.bincount((meas.positions - meas.index_origin) // window,
                       minlength=meas.signal_length // window)


def lpft_cs_estimate(meas: MeasurementSet, params: KernelParams, window: int) -> np.ndarray:
    """Masked per-window spectra, unbiased at matched bins, as a
    (M // W, W) complex array.

    Row ``b``, window ``b`` with ``N_b`` of its ``W`` samples available,
    is ``(W/N_b) * sum y(m) phi(m) exp(-2j pi k (m - start_b)/W)`` at bin
    ``k``.  Windows with no samples are zero rows.
    """
    length = meas.signal_length
    _check_window(window, length)
    phi = kernel_values_at(params, meas.positions, length)
    return _scatter_spectra(meas, (meas.values * phi)[:, None], window)[0]


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


# Most atom cells (pairs times samples times bins) fitted in one stack.  A
# stack's temporaries grow with it, and this keeps them below the sweep's
# memory peak while one stack still holds a few hundred small fits.
FIT_STACK_CELLS = 2**13


def lpft_recover(meas: MeasurementSet, grid: ParameterGrid, window: int,
                 policy: ThresholdPolicy) -> LpftRecoveryResult:
    """Window-by-window recovery of a piecewise polynomial-phase signal.

    Candidates are the grid points whose sweep score is positive.  For each
    window, every candidate is tried on the window's demodulated samples:
    its bins are the sweep's detections in that window (the sweep
    thresholds, strongest first, capped at ``max(1, N_b // 2 - 1)`` to
    leave residual headroom for the comparison), the local Fourier
    amplitudes are fitted by least squares, and the candidate with the
    smallest computed relative residual is assigned.  The (candidate,
    window) pairs are fitted as one stack per (window sample count, bin
    count) across all windows, split only to bound memory, by
    :func:`pftcs.recovery._fits`; a pair that fails its rank rule is
    skipped.  A pair fits its demodulated samples to the Fourier atoms of
    its bins, which the unit-modulus kernel makes the fit of the raw
    samples to ``conj(phi) * exp(2j pi k (m - start)/W)``.  A later
    candidate displaces the best only with a strictly smaller ratio, so
    candidates that tie in exact arithmetic are decided by the rounding of
    their ratios, in either direction.  Windows with no measurements or
    no fitting candidate reconstruct as zeros and are listed in
    ``unassigned_windows``.  The result carries the :func:`lpft_sweep`
    result in ``sweep``; compare ``reconstructed`` with a reference by
    :func:`pftcs.analysis.relative_error`.
    """
    length = meas.signal_length
    swept, weighted, detected = _sweep(meas, grid, window, policy)
    cands = np.flatnonzero(swept.scores > 0)
    counts = _window_counts(meas, window)
    n_win = counts.size
    # positions are strictly increasing, so window b's samples are one run
    first = np.cumsum(counts) - counts
    starts = meas.index_origin + window * np.arange(n_win)
    # window b's Fourier atom at bin k samples roots[(offset * k) % W]
    roots = _roots(window)
    # a stable sort of the negated detections puts each pair's detected
    # bins first, strongest first, ties to the lower bin; no pair fits more
    # than the largest cap of them.  Negated in place and dropped after
    # ranking, the detections leave their memory to the fit stacks below.
    found = detected[cands]
    del detected
    np.negative(found, out=found)
    caps = np.maximum(1, counts // 2 - 1)
    taken = np.minimum(np.count_nonzero(found, axis=-1), caps)  # 0 in empty windows
    ranked = np.argsort(found, axis=-1, kind="stable")[..., :caps.max()].copy()
    del found

    # +inf: no bins or rank-deficient; the last row, never fitted, gives
    # every window a first minimum even without candidates
    ratios = np.full((cands.size + 1, n_win), np.inf)
    amps = np.zeros((cands.size, n_win, caps.max()), dtype=np.complex128)
    for n in sorted(set(counts.tolist()) - {0}):
        wins = np.flatnonzero(counts == n)
        samples = first[wins, None] + np.arange(n)
        offsets = meas.positions[samples] - starts[wins, None]
        n_bins = taken[:, wins]
        for k in sorted(set(n_bins.ravel().tolist()) - {0}):
            cand, win = np.nonzero(n_bins == k)
            step = max(1, FIT_STACK_CELLS // (n * k))
            for s in range(0, cand.size, step):
                c, w = cand[s:s + step], win[s:s + step]
                # column-major (n, k) atoms, the layout of a single pair's
                # atoms gathered column by column, so that each stacked
                # product rounds as that of one pair does
                turns = ranked[c, wins[w], :k, None] * offsets[w, None, :]
                atoms = roots[turns % window].swapaxes(1, 2)
                passed, fitted, _, ratio = _fits(atoms, weighted[samples[w], cands[c, None]])
                c, b = c[passed], wins[w[passed]]
                ratios[c, b] = ratio
                amps[c, b, :k] = fitted
    # a later candidate wins only with a strictly smaller ratio, so the
    # winner is the first minimum; no ratio is NaN, since MeasurementSet
    # bounds its values and _residual_ratio bounds its scales from below
    best = np.argmin(ratios, axis=0)

    assignments = []
    unassigned = []
    reconstructed = np.zeros(length, dtype=np.complex128)
    span = np.arange(window)
    for b, j in enumerate(best.tolist()):
        start = int(starts[b])
        if ratios[j, b] == np.inf:
            assignments.append(WindowAssignment(b, start, None, None, (), (), None))
            unassigned.append(b)
            continue
        g, k = int(cands[j]), int(taken[j, b])
        chosen, fitted = ranked[j, b, :k], amps[j, b, :k]
        params = grid.params(g)
        assignments.append(WindowAssignment(b, start, g, params, tuple(chosen.tolist()),
                                            tuple(complex(a) for a in fitted),
                                            float(ratios[j, b])))
        inv = np.conj(kernel_values_at(params, start + span, length))
        # column-major (W, k) atoms, as for the fits: the layout fixes how
        # the product rounds
        atoms = roots[np.outer(chosen, span) % window].T
        reconstructed[b * window:(b + 1) * window] = inv * (atoms @ fitted)
    return LpftRecoveryResult(tuple(assignments), reconstructed, tuple(unassigned), swept)
