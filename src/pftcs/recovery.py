"""Compressive-sensing recovery over a chirp-rate parameter sweep.

The estimator rescales a masked demodulated DFT so that a matched component
appears at its frequency bin with magnitude ``M * |r|`` regardless of the
mask.  Detection thresholds against the missing-sample interference floor,
amplitudes are corrected by a joint least-squares solve over all detected
components, and recovery iterates residual refinement so the number of
components never has to be known in advance.

Grid values follow the demodulation-rate convention: a grid value ``v``
tests the demodulator ``exp(+j*2*pi*v*(m/M)**p)``, which concentrates a
component whose order-``p`` phase coefficient is ``-v``.  Detected
components always carry their actual phase coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import MeasurementSet, phase_cycles
from .transform import KernelParams, Spectrum, kernel_values_at

__all__ = [
    "RankDeficiencyError",
    "ParameterGrid",
    "ThresholdPolicy",
    "DetectedComponent",
    "SweepPoint",
    "RecoverConfig",
    "RecoveryResult",
    "cs_spectral_estimate",
    "detect_components",
    "sweep",
    "amplitude_correction",
    "reconstruct",
    "recover",
]

# Condition-number ceiling for the normal equations of the amplitude solve.
COND_LIMIT = 1e12
# Strongest positive cells that :func:`_best_pair` pairs up.
PAIR_POOL = 40
# Support entries whose amplitude is at most this fraction of the strongest
# are pruned after the pursuit.
PRUNE_RATIO = 1e-8
# Measurement residual (relative energy) at which the pursuit stops.
RESIDUAL_TOL = 1e-24
# Measurement residual (relative energy) above which a fit is flagged as a
# possible off-grid component.
OFFGRID_RESIDUAL = 1e-6
# Most grid points a ParameterGrid may hold.
MAX_GRID_POINTS = 1 << 16
# Most cells (signal length M times grid points) of the complex (M, points)
# estimate that every sweep round allocates: 256 MiB.
MAX_ESTIMATE_CELLS = 1 << 24


class RankDeficiencyError(RuntimeError):
    """Amplitude system is underdetermined or numerically rank-deficient."""


@dataclass(frozen=True)
class ParameterGrid:
    """Candidate demodulation rates, one value list per polynomial order.

    ``orders`` is a tuple of ``(order, values)`` pairs with orders >= 2 and
    strictly increasing values; multi-order grids enumerate the cross
    product in row-major order.  ``rates`` holds that enumeration as a
    read-only ``(points, orders)`` array: row ``g`` is grid point ``g``.
    """

    orders: tuple
    rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.orders:
            raise ValueError("grid needs at least one order")
        norm = []
        seen = set()
        for order, values in self.orders:
            order = int(order)
            values = tuple(float(v) for v in values)
            if order < 2:
                raise ValueError(f"grid orders start at 2 (the linear term is the DFT axis), got {order}")
            if order in seen:
                raise ValueError(f"duplicate grid order {order}")
            seen.add(order)
            if not values:
                raise ValueError(f"grid order {order} has no values")
            if any(not math.isfinite(v) for v in values):
                raise ValueError(f"grid order {order} has non-finite values")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"grid order {order} values must be strictly increasing")
            norm.append((order, values))
        norm.sort()
        object.__setattr__(self, "orders", tuple(norm))
        n_points = math.prod(len(values) for _, values in norm)
        if n_points > MAX_GRID_POINTS:
            raise ValueError(f"grid has {n_points} points, more than {MAX_GRID_POINTS}")
        axes = np.meshgrid(*(values for _, values in norm), indexing="ij")
        rates = np.stack(axes, axis=-1).reshape(n_points, len(norm))
        rates.flags.writeable = False
        object.__setattr__(self, "rates", rates)

    @classmethod
    def single(cls, degree, values) -> "ParameterGrid":
        return cls(((int(degree), tuple(values)),))

    @classmethod
    def from_range(cls, degree, start, stop, step) -> "ParameterGrid":
        if step <= 0:
            raise ValueError("grid step must be positive")
        steps = (stop - start) / step
        if not math.isfinite(steps):
            raise ValueError("grid range must be finite")
        count = int(round(steps)) + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid range has {count} points, more than {MAX_GRID_POINTS}")
        if count < 1 or start + (count - 1) * step > stop + step * 1e-9:
            raise ValueError("empty grid range")
        return cls.single(degree, tuple(start + i * step for i in range(count)))

    @property
    def n_points(self) -> int:
        return self.rates.shape[0]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Detection threshold rule applied to a spectrum's magnitudes.

    ``relative-to-max`` keeps bins within ``ratio`` of the strongest bin.
    ``missing-sample-statistic`` estimates the interference floor robustly
    (Rayleigh median inversion over all bins) and thresholds at
    ``sigma * sqrt(2 ln(M / (1 - confidence)))``, the level the maximum of M
    floor bins exceeds with probability about ``1 - confidence``.
    """

    kind: str
    ratio: float = 0.5
    confidence: float = 0.99

    _KINDS = ("relative-to-max", "missing-sample-statistic")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"policy kind must be one of {self._KINDS}, got {self.kind!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")

    @classmethod
    def relative(cls, ratio=0.5) -> "ThresholdPolicy":
        return cls("relative-to-max", ratio=ratio)

    @classmethod
    def statistic(cls, confidence=0.99) -> "ThresholdPolicy":
        return cls("missing-sample-statistic", confidence=confidence)

    def threshold(self, magnitudes) -> float:
        mags = np.asarray(magnitudes, dtype=np.float64)
        return float(self.column_thresholds(mags[:, None])[0]) if mags.size else 0.0

    def column_thresholds(self, mags: np.ndarray) -> np.ndarray:
        """Threshold of every column of ``mags``: the rule applied along axis 0."""
        if self.kind == "relative-to-max":
            return self.ratio * mags.max(axis=0)
        sigma = _column_median(mags) / math.sqrt(2.0 * math.log(2.0))
        return sigma * math.sqrt(2.0 * math.log(mags.shape[0] / (1.0 - self.confidence)))


def _column_median(mags: np.ndarray) -> np.ndarray:
    """``np.median(mags, axis=0)``, bit for bit, from one single-kth partition."""
    half = mags.shape[0] // 2
    part = np.partition(mags, half, axis=0)
    # np.median averages the middle values by a sum that starts at +0.0,
    # which turns a -0.0 sum into +0.0
    if mags.shape[0] % 2:
        return part[half] + 0.0
    return (part[:half].max(axis=0) + part[half] + 0.0) / 2


@dataclass(frozen=True)
class DetectedComponent:
    """One detected component: matched coefficients, bin, magnitudes."""

    params: KernelParams
    freq_bin: int
    raw_magnitude: float
    corrected_amplitude: complex | None = None

    def __post_init__(self):
        if self.freq_bin < 0:
            raise ValueError("freq_bin must be non-negative")
        if not self.raw_magnitude > 0:
            raise ValueError("raw_magnitude must be positive")

    def phase_coeffs(self) -> tuple:
        """Full phase coefficients ``c_1 .. c_n`` (bin as the linear term)."""
        return self.params.full_coeffs(linear=self.freq_bin)


@dataclass(frozen=True)
class SweepPoint:
    """Sweep record: grid point, its top surviving peak, and the peak bin."""

    index: int
    coeffs: tuple
    params: KernelParams
    score: float
    peak_bin: int | None


@dataclass(frozen=True)
class RecoverConfig:
    """Knobs for :func:`recover`.

    ``max_components`` caps the support (default ``max(1, N-1)``, which keeps
    a residual degree of freedom so spurious columns can be pruned; a square
    fit reproduces any measurement vector).  ``pursuit`` selects between
    admitting threshold survivors until none is left (``"threshold"``) and
    orthogonal matching pursuit, which admits the single strongest cell per
    round, threshold or not, until the measurement residual is numerically
    zero (``"exact"``, for noiseless data; the threshold policy does not
    change what it recovers).
    """

    max_components: int | None = None
    pursuit: str = "threshold"

    def __post_init__(self):
        if self.pursuit not in ("threshold", "exact"):
            raise ValueError(f"pursuit must be 'threshold' or 'exact', got {self.pursuit!r}")
        if self.max_components is not None and self.max_components < 1:
            raise ValueError("max_components must be positive")


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Detected components, the reconstructed signal, and the :func:`sweep`."""

    components: tuple
    reconstructed: np.ndarray
    measurement_residual_ratio: float
    offgrid_suspect: bool
    residual_energy_ratio: float | None = None
    sweep: tuple = ()


def _check_estimate_cells(length: int, n_points: int):
    """Raise ValueError when an (M, G) estimate would exceed ``MAX_ESTIMATE_CELLS``."""
    if length * n_points > MAX_ESTIMATE_CELLS:
        raise ValueError(f"signal length {length} times {n_points} grid points "
                         f"is more than {MAX_ESTIMATE_CELLS} estimate cells")


def _scatter_spectra(meas: MeasurementSet, weighted, window=None) -> np.ndarray:
    """Masked per-window spectra of every column, via one zero-filled FFT.

    ``weighted`` is (N, G): per grid point, the measurement values already
    multiplied by that point's kernel.  The length-``M`` index range is cut
    into ``M // window`` windows (one window of length ``M`` by default);
    window ``b`` holding ``N_b`` samples gets
    ``(W/N_b) * sum_{j in b} weighted[j, g] * exp(-2j*pi*k*(q_j - b*W)/W)``,
    which is unbiased at a matched component's bin.  Windows with no
    samples are zero.  Returns the (n_windows, W, G) array.
    """
    m_len = meas.signal_length
    _check_estimate_cells(m_len, weighted.shape[1])
    window = m_len if window is None else window
    n_win = m_len // window
    q = meas.positions - meas.index_origin
    full = np.zeros((m_len, weighted.shape[1]), dtype=np.complex128)
    full[q, :] = weighted
    spectra = np.fft.fft(full.reshape(n_win, window, -1), axis=1)
    # the global estimate runs once per pursuit round; skip its bincount
    counts = np.bincount(q // window, minlength=n_win) if n_win > 1 else (meas.count,)
    for b, n_b in enumerate(counts):
        spectra[b] *= window / max(int(n_b), 1)
    return spectra


def cs_spectral_estimate(meas: MeasurementSet, params: KernelParams) -> Spectrum:
    """Masked spectral estimate, unbiased at a matched component's bin.

    ``X(k) = (M/N) * sum_{m in positions} y(m) phi(m) exp(-2j pi k (m-m0)/M)``;
    with full data this is exactly the polynomial Fourier transform.
    """
    phi = kernel_values_at(params, meas.positions, meas.signal_length)
    return Spectrum(_scatter_spectra(meas, (meas.values * phi)[:, None])[0, :, 0])


def detect_components(est: Spectrum, policy: ThresholdPolicy, max_count=None,
                      params: KernelParams = KernelParams()) -> list:
    """Bins at or above the policy threshold, strongest first.

    Ties in magnitude break toward the lower bin; the list is truncated to
    ``max_count`` when given.  Zero-magnitude bins never count.
    """
    column = est.magnitude()[:, None]
    bins, _ = _ranked_hits(column, policy.column_thresholds(column))
    return [
        DetectedComponent(params, b, float(column[b, 0]))
        for b in bins[:max_count].tolist()
    ]


def _ranked_hits(mags: np.ndarray, thresholds: np.ndarray, exclude=np.False_):
    """``(bins, columns)`` of the cells at or above their column's threshold,
    by magnitude descending, then column, then bin; zero cells and cells set
    in the boolean ``exclude`` never count."""
    hit = (mags >= thresholds) & (mags > 0.0) & ~exclude
    bins, cols = np.nonzero(hit)
    order = np.lexsort((bins, cols, -mags[bins, cols]))
    return bins[order], cols[order]


def _kernel_coeffs(grid: ParameterGrid) -> np.ndarray:
    """(max_order, G) kernel coefficients ``c_1 .. c_n`` of every grid point.

    The linear term is zero.  A rate ``v`` demodulates ``exp(+j2pi v t^p)``,
    so its kernel coefficient is ``-v``; orders the grid does not sweep are
    zero.
    """
    coeffs = np.zeros((grid.orders[-1][0], grid.n_points))
    for j, (order, _) in enumerate(grid.orders):
        coeffs[order - 1] = -grid.rates[:, j]
    return coeffs


def _kernel_matrix(meas: MeasurementSet, grid: ParameterGrid) -> np.ndarray:
    """(N, G) kernel samples: column ``g`` is ``kernel_values_at`` of grid point ``g``."""
    cycles = phase_cycles(_kernel_coeffs(grid), meas.positions[:, None], meas.signal_length)
    return np.exp(-2j * np.pi * cycles)


def _atoms(meas: MeasurementSet, kernels: np.ndarray, bins) -> np.ndarray:
    """(N, K) atoms ``conj(kernels[:, i]) * exp(2j*pi*bins[i]*m/M)`` at the
    measurement positions ``m``: the unit components the kernels demodulate
    into those bins."""
    turns = np.outer(meas.positions, bins) % meas.signal_length
    return np.conj(kernels) * np.exp(2j * np.pi * turns / meas.signal_length)


def _grid_estimates(meas: MeasurementSet, kernels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(M, G) spectral estimates of ``values`` for every grid point at once."""
    return _scatter_spectra(meas, values[:, None] * kernels)[0]


def sweep(meas: MeasurementSet, grid: ParameterGrid, policy: ThresholdPolicy) -> list:
    """Single-pass sweep: per grid point, the top surviving peak (0 if none)."""
    mags = np.abs(_grid_estimates(meas, _kernel_matrix(meas, grid), meas.values))
    return _sweep_records(grid, mags, policy.column_thresholds(mags))


def _sweep_records(grid: ParameterGrid, mags: np.ndarray, thresholds: np.ndarray) -> list:
    peaks = np.argmax(mags, axis=0)  # ties go to the lower bin
    top = mags[peaks, np.arange(mags.shape[1])]
    scores = np.where(top >= thresholds, top, 0.0).tolist()
    orders = [order for order, _ in grid.orders]
    higher = _kernel_coeffs(grid)[1:].T.tolist()
    return [SweepPoint(g, tuple(zip(orders, rates)), KernelParams(tuple(higher[g])), scores[g],
                       int(peaks[g]) if scores[g] > 0 else None)
            for g, rates in enumerate(grid.rates.tolist())]


def _solve_amplitudes(atoms: np.ndarray, values: np.ndarray) -> np.ndarray:
    n, k = atoms.shape
    if n < k:
        raise RankDeficiencyError(
            f"{k} components from {n} measurements: system is underdetermined"
        )
    gram = atoms.conj().T @ atoms
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise RankDeficiencyError(
            f"amplitude system condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )
    return np.linalg.solve(gram, atoms.conj().T @ values)


def amplitude_correction(meas: MeasurementSet, detected) -> np.ndarray:
    """Joint least-squares amplitudes for the detected components.

    Solves the normal equations of ``y = A x`` where column ``i`` samples
    component ``i``'s unit-amplitude phase polynomial at the measurement
    positions.  Raises :class:`RankDeficiencyError` when there are fewer
    measurements than components or the system is ill-conditioned.
    """
    detected = list(detected)
    if not detected:
        return np.zeros(0, dtype=np.complex128)
    kernels = np.stack([kernel_values_at(c.params, meas.positions, meas.signal_length)
                        for c in detected], axis=1)
    atoms = _atoms(meas, kernels, [c.freq_bin for c in detected])
    return _solve_amplitudes(atoms, meas.values)


def reconstruct(components, length, index_origin=0) -> np.ndarray:
    """Full-length signal from detected components (corrected amplitudes)."""
    m = np.arange(index_origin, index_origin + length)
    out = np.zeros(length, dtype=np.complex128)
    for comp in components:
        if comp.corrected_amplitude is None:
            raise ValueError("component amplitudes are uncorrected; run amplitude_correction")
        out += comp.corrected_amplitude * np.exp(
            2j * np.pi * phase_cycles(comp.phase_coeffs(), m, length)
        )
    return out


def _energy(x) -> float:
    return float(np.sum(np.abs(np.asarray(x)) ** 2))


def _residual_ratio(left, y) -> float:
    """``|left|^2 / |y|^2`` with both vectors first divided by ``max|y|``.

    Scaling ``y`` and ``left`` by a power of two then leaves the ratio bit
    for bit unchanged, even where the residual energy is subnormal.
    """
    scale = float(np.max(np.abs(y)))
    return _energy(left / scale) / _energy(y / scale)


def _best_pair(meas: MeasurementSet, kernels: np.ndarray, mags: np.ndarray):
    """Strongest two-atom joint fit among the strongest positive cells of ``mags``.

    Components of comparable strength can all sit below the largest clutter
    value of a sparse estimate, in which case no single-atom greedy start
    recovers them; a joint two-atom fit is far more selective because only
    the true pair drives the residual toward zero.  Returns the best pair as
    ``[(point_index, bin, magnitude), ...]`` or ``None`` when fewer than two
    cells are positive.  ``mags`` is the estimate of the measurements and
    ``kernels`` the (N, G) kernel matrix.  The pool is the ``PAIR_POOL``
    strongest cells and nearly collinear pairs are skipped.
    """
    bins, cols = _ranked_hits(mags, 0.0)
    bins, cols = bins[:PAIR_POOL], cols[:PAIR_POOL]
    if bins.size < 2:
        return None
    atoms = _atoms(meas, kernels[:, cols], bins)
    gram = atoms.conj().T @ atoms
    corr = atoms.conj().T @ meas.values
    diag = np.real(np.diag(gram)).copy()
    det = diag[:, None] * diag[None, :] - np.abs(gram) ** 2
    # closed-form 2x2 least squares for every (i, j) pair at once
    num_i = diag[None, :] * corr[:, None] - gram * corr[None, :]
    num_j = diag[:, None] * corr[None, :] - gram.conj() * corr[:, None]
    captured = np.real(corr.conj()[:, None] * num_i + corr.conj()[None, :] * num_j)
    valid = np.triu(np.ones(det.shape, dtype=bool), k=1)
    valid &= det > 1e-9 * diag[:, None] * diag[None, :]
    if not valid.any():
        return None
    score = np.where(valid, np.divide(captured, det, where=det > 0,
                                      out=np.zeros_like(captured)), -np.inf)
    i, j = np.unravel_index(int(np.argmax(score)), score.shape)
    return [(int(cols[k]), int(bins[k]), float(mags[bins[k], cols[k]])) for k in (i, j)]


def recover(meas: MeasurementSet, grid: ParameterGrid, policy: ThresholdPolicy,
            config: RecoverConfig | None = None, reference=None) -> RecoveryResult:
    """Full pipeline: sweep, detect, joint amplitude correction, reconstruct.

    Component discovery is a growth-only pursuit: each round estimates the
    current measurement residual at all grid points, extends the support,
    re-solves the joint least squares, and subtracts the fit; a pass ends
    when the residual vanishes, the support is full, or nothing is left to
    admit.  Threshold mode admits every cell at or above the policy
    threshold per round.  Exact mode is orthogonal matching pursuit: it
    admits the single strongest untried cell per round, whatever the
    threshold, so noiseless on-grid signals are driven to a numerically
    zero residual, and a pass that misses is restarted once from the best
    two-atom fit.  The policy then only scores the sweep records.  Spurious
    support entries are pruned by relative amplitude afterwards.

    An empty detection yields an empty result, not an error; rank problems
    in the amplitude solve propagate as :class:`RankDeficiencyError`.  The
    result carries the :func:`sweep` records of the measurements in ``sweep``.
    """
    cfg = config or RecoverConfig()
    exact = cfg.pursuit == "exact"
    m_len, n_meas = meas.signal_length, meas.count
    kernels = _kernel_matrix(meas, grid)
    y = meas.values
    y_energy = _energy(y)
    cap = cfg.max_components if cfg.max_components is not None else max(1, min(m_len, n_meas - 1))
    first = np.abs(_grid_estimates(meas, kernels, y))
    first_thresholds = policy.column_thresholds(first)
    records = tuple(_sweep_records(grid, first, first_thresholds))

    def refit(entries):
        cols, bins, _ = zip(*entries)
        atoms = _atoms(meas, kernels[:, cols], bins)
        fitted = _solve_amplitudes(atoms, y)
        left = y - atoms @ fitted
        ratio = _residual_ratio(left, y) if y_energy > 0 else 0.0
        return fitted, left, ratio

    def try_extend(entries, candidate):
        """Fit with one more atom; None if that makes the system degenerate.

        Skipping (rather than failing on) a candidate that is numerically
        dependent on the current atoms keeps near-duplicate bins, which are
        strongly correlated over few measurements, out of the support.
        """
        trial = entries + [candidate]
        try:
            return (trial,) + refit(trial)
        except RankDeficiencyError:
            return None

    def pursue(seed=()):
        """One growth-only pass; returns (support, amps, residual, ratio).

        Each admission re-solves the joint least squares over a superset of
        the previous support, so the residual never grows and the last fit
        is the pass's best.
        """
        support = []      # [(point_index, bin, raw_magnitude)]
        tried = np.zeros(first.shape, dtype=bool)  # cells never considered twice
        amps = np.zeros(0, dtype=np.complex128)
        residual = y.copy()
        residual_ratio = 1.0 if y_energy > 0 else 0.0

        for pi, b, mag in seed:
            if len(support) >= cap or tried[b, pi]:
                continue
            tried[b, pi] = True
            extended = try_extend(support, (pi, b, mag))
            if extended is not None:
                support, amps, residual, residual_ratio = extended

        # a round may admit nothing when every candidate is rank-deficient
        for _ in range(8 * cap + 64):
            if residual_ratio <= RESIDUAL_TOL or len(support) >= cap:
                break
            if support:
                mags = np.abs(_grid_estimates(meas, kernels, residual))
                thresholds = 0.0 if exact else policy.column_thresholds(mags)
            else:  # the residual is still y
                mags, thresholds = first, 0.0 if exact else first_thresholds
            bins, cols = _ranked_hits(mags, thresholds, tried)
            if not bins.size:
                break
            # grow the support with this round's strongest candidates
            admitted = 0
            limit = 1 if exact else cap - len(support)
            for b, pi in zip(bins.tolist(), cols.tolist()):
                if admitted >= limit or residual_ratio <= RESIDUAL_TOL:
                    break
                tried[b, pi] = True
                extended = try_extend(support, (pi, b, float(mags[b, pi])))
                if extended is None:
                    continue
                support, amps, residual, residual_ratio = extended
                admitted += 1
        return support, amps, residual, residual_ratio

    best = pursue()
    if exact and best[3] > RESIDUAL_TOL and cap >= 3:
        # seed with the best joint two-atom fit instead of the single
        # strongest cell, which rescues components of similar size that all
        # sit just below the sparse estimate's clutter maximum
        pair = _best_pair(meas, kernels, first)
        if pair is not None:
            best = min(best, pursue(seed=pair), key=lambda fit: fit[3])
    support, amps, _, residual_ratio = best

    if support:
        scale = float(np.max(np.abs(amps)))
        keep = [i for i in range(len(support)) if abs(amps[i]) > PRUNE_RATIO * scale]
        if len(keep) < len(support):
            support = [support[i] for i in keep]
            if support:
                amps, _, residual_ratio = refit(support)

    # an empty support keeps the ratio 1 (0 for zero data) and reconstructs zeros
    order = sorted(range(len(support)),
                   key=lambda i: (-support[i][2], support[i][0], support[i][1]))
    components = tuple(
        DetectedComponent(records[support[i][0]].params, support[i][1],
                          support[i][2], complex(amps[i]))
        for i in order
    )
    reconstructed = reconstruct(components, m_len, meas.index_origin)
    ratio = None
    if reference is not None:
        ref = np.asarray(reference, dtype=np.complex128)
        ratio = _energy(ref - reconstructed) / _energy(ref)
    return RecoveryResult(components, reconstructed, residual_ratio,
                          residual_ratio > OFFGRID_RESIDUAL, ratio, records)
