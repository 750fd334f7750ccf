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

from .model import FIT_GAIN, MeasurementSet, phase_cycles
from .transform import KernelParams, Spectrum, kernel_values_at

__all__ = [
    "RankDeficiencyError",
    "ParameterGrid",
    "ThresholdPolicy",
    "DetectedComponent",
    "SweepResult",
    "RecoverConfig",
    "RecoveryResult",
    "cs_spectral_estimate",
    "sweep",
    "amplitude_correction",
    "reconstruct",
    "recover",
]

# Condition-number ceiling for the normal equations of the amplitude solve;
# it caps every fitted amplitude at FIT_GAIN * max|measurement|.
COND_LIMIT = FIT_GAIN ** 2
# Strongest positive cells that :func:`_best_pair` pairs up.
PAIR_POOL = 40
# Support entries whose amplitude is at most this fraction of the strongest
# are pruned after the pursuit.
PRUNE_RATIO = 1e-8
# Measurement residual (relative energy) at which the pursuit stops.
RESIDUAL_TOL = 1e-24
# Least scale by which a residual ratio divides: the smallest normal double.
MIN_SCALE = float(np.finfo(np.float64).tiny)
# Measurement residual (relative energy) above which a fit is flagged as a
# possible off-grid component.
OFFGRID_RESIDUAL = 1e-6
# Most grid points a ParameterGrid may hold.
MAX_GRID_POINTS = 1 << 16
# Most cells (grid points times signal length M) of the complex (points, M)
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

    def params(self, g) -> KernelParams:
        """Kernel coefficients of grid point ``g``: column ``g`` of
        :func:`_kernel_coeffs` without its linear term, from row ``g`` alone."""
        coeffs = [0.0] * (self.orders[-1][0] - 1)
        for (order, _), rate in zip(self.orders, self.rates[g].tolist()):
            coeffs[order - 2] = -rate
        return KernelParams(tuple(coeffs))


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

    def column_thresholds(self, mags: np.ndarray) -> np.ndarray:
        """Threshold of every spectrum in ``mags``: the rule applied along
        the last (bin) axis."""
        if self.kind == "relative-to-max":
            return self.ratio * mags.max(axis=-1)
        sigma = _column_median(mags) / math.sqrt(2.0 * math.log(2.0))
        return sigma * math.sqrt(2.0 * math.log(mags.shape[-1] / (1.0 - self.confidence)))


def _column_median(mags: np.ndarray) -> np.ndarray:
    """``np.median(mags, axis=-1)``, bit for bit, from one single-kth partition."""
    half = mags.shape[-1] // 2
    part = np.partition(mags, half, axis=-1)
    # np.median averages the middle values by a sum that starts at +0.0,
    # which turns a -0.0 sum into +0.0
    if mags.shape[-1] % 2:
        return part[..., half] + 0.0
    return (part[..., :half].max(axis=-1) + part[..., half] + 0.0) / 2


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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Sweep scores over a grid: ``scores[g]`` is grid point ``g``'s top
    surviving peak (0 where none survives) and ``peaks[g]`` its bin (-1
    where none)."""

    grid: ParameterGrid
    scores: np.ndarray
    peaks: np.ndarray


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
    sweep: SweepResult


def _check_estimate_cells(length: int, n_points: int):
    """Raise ValueError when a (G, M) estimate would exceed ``MAX_ESTIMATE_CELLS``."""
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
    samples are zero.  Returns the (G, n_windows, W) array, grid point
    first, so that its row-major order is the (grid point, bin) tie order.
    """
    m_len = meas.signal_length
    n_points = weighted.shape[1]
    _check_estimate_cells(m_len, n_points)
    window = m_len if window is None else window
    n_win = m_len // window
    q = meas.positions - meas.index_origin
    full = np.zeros((n_points, m_len), dtype=np.complex128)
    full[:, q] = weighted.T
    spectra = np.fft.fft(full.reshape(n_points, n_win, window), axis=-1)
    # the global estimate runs once per pursuit round; skip its bincount
    counts = np.bincount(q // window, minlength=n_win) if n_win > 1 else (meas.count,)
    for b, n_b in enumerate(counts):
        spectra[:, b] *= window / max(int(n_b), 1)
    return spectra


def cs_spectral_estimate(meas: MeasurementSet, params: KernelParams) -> Spectrum:
    """Masked spectral estimate, unbiased at a matched component's bin.

    ``X(k) = (M/N) * sum_{m in positions} y(m) phi(m) exp(-2j pi k (m-m0)/M)``;
    with full data this is exactly the polynomial Fourier transform.
    """
    phi = kernel_values_at(params, meas.positions, meas.signal_length)
    return Spectrum(_scatter_spectra(meas, (meas.values * phi)[:, None])[0, 0])


def _ranked_hits(mags: np.ndarray, thresholds):
    """``(points, bins)`` of the cells of a (G, M) ``mags`` at or above
    ``thresholds`` (which broadcasts against ``mags``), by magnitude
    descending, then grid point, then bin; zero cells never count."""
    flat = np.flatnonzero((mags >= thresholds) & (mags > 0.0))
    # row-major flat order is the (point, bin) tie order
    flat = flat[np.argsort(-mags.ravel()[flat], kind="stable")]
    return np.divmod(flat, mags.shape[1])


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


def _roots(n: int) -> np.ndarray:
    """The ``n`` roots of unity ``exp(2j*pi*t/n)``, ``t = 0 .. n-1``.

    Every Fourier atom gathers its samples from them by ``(m * k) % n``,
    which gives the bits of the direct ``exp(2j*pi*((m*k) % n)/n)``.
    """
    return np.exp(2j * np.pi * np.arange(n) / n)


def _atoms(meas: MeasurementSet, kernels: np.ndarray, bins, roots=None) -> np.ndarray:
    """(N, K) atoms ``conj(kernels[:, i]) * exp(2j*pi*bins[i]*m/M)`` at the
    measurement positions ``m``: the unit components the kernels demodulate
    into those bins; one (N,) kernel and one bin give the one (N,) atom.
    ``roots`` is ``_roots(M)``, built here when omitted."""
    roots = _roots(meas.signal_length) if roots is None else roots
    return np.conj(kernels) * roots[np.multiply.outer(meas.positions, bins) % meas.signal_length]


def _grid_estimates(meas: MeasurementSet, kernels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(G, M) spectral estimates of ``values`` for every grid point at once."""
    return _scatter_spectra(meas, values[:, None] * kernels)[:, 0]


def sweep(meas: MeasurementSet, grid: ParameterGrid, policy: ThresholdPolicy) -> SweepResult:
    """Single-pass sweep: per grid point, the top peak at or above its
    column's policy threshold (0 where none) and its bin (-1 where none;
    ties go to the lower bin)."""
    mags = np.abs(_grid_estimates(meas, _kernel_matrix(meas, grid), meas.values))
    return _sweep_records(grid, mags, policy.column_thresholds(mags))


def _sweep_records(grid: ParameterGrid, mags: np.ndarray, thresholds) -> SweepResult:
    """Top cell of every row of a (G, M) ``mags`` that reaches its threshold."""
    peaks = np.argmax(mags, axis=1)  # ties go to the lower bin
    top = mags[np.arange(mags.shape[0]), peaks]
    scores = np.where(top >= thresholds, top, 0.0)
    return SweepResult(grid, scores, np.where(scores > 0, peaks, -1))


def _rank_rule(n: int, k: int, gram, bound=math.inf):
    """Whether systems of ``n`` measurements and ``k`` atoms pass the rank
    rule of every amplitude fit: a bool, or a mask over a stack.

    A system fails when it has fewer measurements than atoms (N < K), or
    when its Gram matrix has a condition number ``lam_max / lam_min`` that
    exceeds ``COND_LIMIT`` or a least eigenvalue that is not positive.
    ``gram`` is a function that returns the (..., K, K) Gram matrices.
    ``bound`` is an upper bound on the condition numbers that the caller
    may know; at most half of ``COND_LIMIT``, it passes the systems without
    their eigenvalues, which rounding moves by far less than that margin,
    and ``gram`` is not called.
    """
    if n < k:
        return False
    if bound <= COND_LIMIT / 2:
        return True
    lam = np.linalg.eigvalsh(gram())  # ascending
    return (lam[..., 0] > 0.0) & (lam[..., -1] <= COND_LIMIT * lam[..., 0])


def _fits(atoms: np.ndarray, values: np.ndarray):
    """Least-squares fits ``values[c] ~ atoms[c] @ x`` of a (C, N, K) stack,
    by the normal equations, under :func:`_rank_rule`.

    Returns the (C,) mask of systems that pass and, for those C' systems,
    their (C', K) amplitudes, (C', N) residuals and (C',) relative residual
    energies.
    """
    adjoint = atoms.conj().swapaxes(-1, -2)
    gram, rhs = adjoint @ atoms, adjoint @ values[..., None]
    passed = np.broadcast_to(_rank_rule(*atoms.shape[-2:], lambda: gram), gram.shape[:-2])
    if not passed.all():  # the masked copies cost more than a small fit
        atoms, values, gram, rhs = atoms[passed], values[passed], gram[passed], rhs[passed]
    amps = np.linalg.solve(gram, rhs)[..., 0]
    left = values - (atoms @ amps[..., None])[..., 0]
    return passed, amps, left, _residual_ratio(left, values)


class _GrownFit:
    """Least-squares fit of ``y`` to a support that grows one atom at a time.

    Keeps a QR factor of the support's ``size`` atoms ``A = V R``, grown by
    classical Gram-Schmidt with one reorthogonalization: V (N, size) has
    orthogonal columns of energies ``d``, and R (size, size) is unit upper
    triangular.  The columns of V are left unnormalized, so a first atom
    enters as itself.  With it come the projections ``c`` of ``y`` on V and
    the explicit residual of ``y`` outside V's span.  The Gram matrix of
    the atoms is ``G = R^H diag(d) R``, by which :func:`_rank_rule` judges
    each admission.

    ``trace(G) * trace(G^-1)`` bounds the condition number ``lam_max /
    lam_min`` from above, and both traces grow by one term per atom:
    ``|a|^2``, and ``(|R^-1 r|^2 + 1) / |v|^2`` for the atom's column
    ``r`` of R above the diagonal and its orthogonal part ``v``; the rule
    takes the bound with the Gram.  ``R^-1`` is kept for it.

    The arrays hold room for more atoms than the support has, and double
    when it is full, so that an admission writes one column of each.
    ``ratio`` is the residual's energy relative to ``y``'s, both divided
    by the ``scale`` of :func:`_ratio_scale` (whose ``energy`` is the
    latter) as in :func:`_residual_ratio`, so that it scales exactly with
    ``y``.
    """

    def __init__(self, y: np.ndarray, scale, energy):
        self.size = 0
        self.basis = np.zeros((y.size, 0), dtype=np.complex128)
        self.d = np.zeros(0)
        self.c = np.zeros(0, dtype=np.complex128)
        self.tri = self.inverse = np.zeros((0, 0), dtype=np.complex128)
        self.traces = (0.0, 0.0)  # trace(G), trace(G^-1)
        self.residual = y
        self.scale, self.energy = scale, energy
        # not the energy: squared, |y| below about 1e-162 underflows to 0
        self.ratio = 1.0 if y.any() else 0.0

    def _grow(self):
        """Double the room of every array (at least 4 atoms)."""
        k = self.size
        room = max(4, 2 * k)
        basis = np.zeros((self.basis.shape[0], room), dtype=np.complex128)
        basis[:, :k] = self.basis
        d, c = np.zeros(room), np.zeros(room, dtype=np.complex128)
        d[:k], c[:k] = self.d, self.c
        tri, inverse = np.eye(room, dtype=np.complex128), np.eye(room, dtype=np.complex128)
        tri[:k, :k], inverse[:k, :k] = self.tri, self.inverse
        self.basis, self.d, self.c, self.tri, self.inverse = basis, d, c, tri, inverse

    def admit(self, atom: np.ndarray) -> bool:
        """Append ``atom`` to the support, unless the grown system fails the
        rank rule; returns whether it was appended."""
        k = self.size
        if k == self.d.size:
            self._grow()
        basis, d = self.basis[:, :k], self.d[:k]
        adjoint = basis.conj().T
        proj = (adjoint @ atom) / d
        left = atom - basis @ proj
        again = (adjoint @ left) / d
        left -= basis @ again
        column = proj + again
        rest = np.vdot(left, left).real
        solved = self.inverse[:k, :k] @ column
        # an atom in the span of the basis leaves rest 0 and no inverse
        inverse_term = (np.vdot(solved, solved).real + 1.0) / rest if rest > 0.0 else math.inf
        traces = (self.traces[0] + np.vdot(atom, atom).real, self.traces[1] + inverse_term)
        # column k beyond the support is scratch until the atom is admitted
        self.tri[:k, k], self.d[k] = column, rest
        tri, d = self.tri[:k + 1, :k + 1], self.d[:k + 1]
        if not _rank_rule(atom.size, k + 1, lambda: tri.conj().T @ (d[:, None] * tri),
                          traces[0] * traces[1]):
            return False
        np.negative(solved, out=self.inverse[:k, k])
        self.basis[:, k] = left
        # the residual is orthogonal to the basis, so this is left^H y / |left|^2
        self.c[k] = coeff = np.vdot(left, self.residual) / rest
        self.residual = self.residual - coeff * left
        scaled = self.residual / self.scale
        self.ratio = float(np.vdot(scaled, scaled).real / self.energy)
        self.traces, self.size = traces, k + 1
        return True

    def amplitudes(self) -> np.ndarray:
        """The support's amplitudes, from ``R x = c``."""
        k = self.size
        if not k:
            return self.c[:0]
        return np.linalg.solve(self.tri[:k, :k], self.c[:k])


def amplitude_correction(meas: MeasurementSet, detected) -> np.ndarray:
    """Joint least-squares amplitudes for the detected components.

    Solves the normal equations of ``y = A x`` where column ``i`` samples
    component ``i``'s unit-amplitude phase polynomial at the measurement
    positions.  Raises :class:`RankDeficiencyError` when the system fails
    the rank rule of :func:`_fits`: fewer measurements than components, or
    an ill-conditioned Gram matrix.
    """
    detected = list(detected)
    if not detected:
        return np.zeros(0, dtype=np.complex128)
    kernels = np.stack([kernel_values_at(c.params, meas.positions, meas.signal_length)
                        for c in detected], axis=1)
    atoms = _atoms(meas, kernels, [c.freq_bin for c in detected])
    passed, amps, _, _ = _fits(atoms[None], meas.values[None])
    if not passed[0]:
        raise RankDeficiencyError(
            f"{len(detected)} components from {meas.count} measurements: fewer "
            f"measurements than components, or a condition number above {COND_LIMIT:.0e}")
    return amps[0]


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


def _energy(x):
    """Energy of a vector, or of each row of a stack."""
    return np.sum(np.abs(x) ** 2, axis=-1)


def _ratio_scale(y):
    """``(scale, energy)`` by which :func:`_residual_ratio` measures
    residuals of ``y``, a vector or a stack of rows: ``max|y|`` of every
    row, raised to ``MIN_SCALE``, and the energy of ``y / scale``, raised to
    ``MIN_SCALE``."""
    scale = np.maximum(np.max(np.abs(y), axis=-1, keepdims=True), MIN_SCALE)
    return scale, np.maximum(_energy(y / scale), MIN_SCALE)


def _residual_ratio(left, y):
    """``|left|^2 / |y|^2`` of every row of (C, N) stacks, with both rows
    first divided by the row's ``max|y|``: a (C,) array.

    Scaling ``y`` and ``left`` by a power of two that keeps ``max|y|``
    normal then leaves the ratio bit for bit unchanged, even where the
    residual energy is subnormal.  A subnormal ``max|y|`` is raised to
    ``MIN_SCALE``, the smallest normal double: the reciprocal of a
    subnormal can overflow, and dividing by a power of two is exact.  A
    nonzero row then has a scaled energy of at least 2^-104, so raising
    the energies to ``MIN_SCALE`` changes only a zero row, whose ratio is 0.
    """
    scale, energy = _ratio_scale(y)
    return _energy(left / scale) / energy


def _best_pair(meas: MeasurementSet, kernels: np.ndarray, mags: np.ndarray):
    """Strongest two-atom joint fit among the strongest positive cells of ``mags``.

    Components of comparable strength can all sit below the largest clutter
    value of a sparse estimate, in which case no single-atom greedy start
    recovers them; a joint two-atom fit is far more selective because only
    the true pair drives the residual toward zero.  Returns the best pair as
    ``[(point_index, bin, magnitude), ...]`` or ``None`` when fewer than two
    cells are positive.  ``mags`` is the (G, M) estimate of the measurements
    and ``kernels`` the (N, G) kernel matrix.  The pool is the ``PAIR_POOL``
    strongest cells and nearly collinear pairs are skipped.
    """
    cols, bins = _ranked_hits(mags, 0.0)
    cols, bins = cols[:PAIR_POOL], bins[:PAIR_POOL]
    if bins.size < 2:
        return None
    atoms = _atoms(meas, kernels[:, cols], bins)
    gram = atoms.conj().T @ atoms
    corr = atoms.conj().T @ meas.values
    # the scores below are quadratic in corr; scaling it by a power of two to
    # max|corr| in [0.5, 1) keeps them finite and scales each by the same
    # power of two, so the argmax stays (ldexp also reaches subnormal corr)
    exponent = np.frexp(np.max(np.abs(corr)))[1]
    corr = np.ldexp(corr.view(np.float64), -exponent).view(np.complex128)
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
    return [(int(cols[k]), int(bins[k]), float(mags[cols[k], bins[k]])) for k in (i, j)]


def recover(meas: MeasurementSet, grid: ParameterGrid, policy: ThresholdPolicy,
            config: RecoverConfig | None = None) -> RecoveryResult:
    """Full pipeline: sweep, detect, joint amplitude correction, reconstruct.

    Component discovery is a growth-only pursuit: each round estimates the
    current measurement residual at all grid points, extends the support
    and its joint least-squares fit (:class:`_GrownFit`), and subtracts the
    fit; a pass ends when the residual vanishes, the support is full, or a
    round admits nothing.  Each admission is the argmax of the round's open
    cells: the untried cells at or above the policy threshold, with ties
    going to the lower grid point, then the lower bin.  A candidate whose
    fit fails :func:`_rank_rule` is skipped, and the next argmax is taken;
    this keeps near-duplicate atoms, which are strongly correlated over few
    measurements, out of the support.  Threshold mode admits open cells
    until none is left.  Exact mode is orthogonal matching pursuit: its
    threshold is 0 and it admits one cell per round, so noiseless on-grid
    signals are driven to a numerically zero residual, and a pass that
    misses is restarted once from the best two-atom fit.  The policy then
    only scores the sweep.  Spurious support entries are pruned by relative
    amplitude afterwards, and a fit worse than none (a relative residual
    above 1) is dropped for the empty support.

    An empty detection yields an empty result, not an error, and since
    failing candidates are skipped, no fit raises
    :class:`RankDeficiencyError`.  The result carries the :func:`sweep` of
    the measurements in ``sweep``; compare ``reconstructed`` with a
    reference by :func:`pftcs.analysis.relative_error`.
    """
    cfg = config or RecoverConfig()
    exact = cfg.pursuit == "exact"
    m_len, n_meas = meas.signal_length, meas.count
    kernels = _kernel_matrix(meas, grid)
    roots = _roots(m_len)
    y = meas.values
    scale, y_energy = _ratio_scale(y)
    cap = cfg.max_components if cfg.max_components is not None else max(1, min(m_len, n_meas - 1))
    first = np.abs(_grid_estimates(meas, kernels, y))
    first_thresholds = policy.column_thresholds(first)
    swept = _sweep_records(grid, first, first_thresholds)

    def pursue(seed=()):
        """One growth-only pass; returns its support and its :class:`_GrownFit`.

        Each admission extends the least squares over a superset of the
        previous support, so the residual never grows and the last fit is
        the pass's best.
        """
        support = []      # [(point_index, bin, raw_magnitude)]
        tried = np.zeros(first.shape, dtype=bool)  # cells never considered twice
        fit = _GrownFit(y, scale, y_energy)

        def admit(pi, b, mag):
            tried[pi, b] = True
            if not fit.admit(_atoms(meas, kernels[:, pi], b, roots)):
                return False
            support.append((pi, b, mag))
            return True

        for pi, b, mag in seed:
            admit(pi, b, mag)

        while fit.ratio > RESIDUAL_TOL and len(support) < cap:
            if support:
                mags = np.abs(_grid_estimates(meas, kernels, fit.residual))
            else:  # the residual is still y
                mags = first
            open_cells = np.where(tried, 0.0, mags)
            if not exact:  # exact mode's threshold is 0
                thresholds = policy.column_thresholds(mags) if support else first_thresholds
                open_cells[mags < thresholds[:, None]] = 0.0
            admitted = 0
            limit = 1 if exact else cap - len(support)
            while admitted < limit and fit.ratio > RESIDUAL_TOL:
                # the first maximum in row-major order breaks ties
                pi, b = divmod(int(np.argmax(open_cells)), m_len)
                if not open_cells[pi, b] > 0.0:
                    break
                open_cells[pi, b] = 0.0
                admitted += admit(pi, b, float(mags[pi, b]))
            if not admitted:
                break
        return support, fit

    support, fit = pursue()
    if exact and fit.ratio > RESIDUAL_TOL and cap >= 3:
        # seed with the best joint two-atom fit instead of the single
        # strongest cell, which rescues components of similar size that all
        # sit just below the sparse estimate's clutter maximum
        pair = _best_pair(meas, kernels, first)
        if pair is not None:
            support, fit = min((support, fit), pursue(seed=pair), key=lambda run: run[1].ratio)
    amps, residual_ratio = fit.amplitudes(), fit.ratio

    if support:
        top = float(np.max(np.abs(amps)))
        kept = [entry for entry, amp in zip(support, amps) if abs(amp) > PRUNE_RATIO * top]
        if not kept:  # every amplitude is 0
            support = []
        elif len(kept) < len(support):
            # a principal sub-Gram is no worse conditioned than the Gram in
            # exact arithmetic, so only rounding at the COND_LIMIT edge can
            # reject this refit; the unpruned fit then stands
            cols, bins, _ = zip(*kept)
            passed, fitted, _, ratios = _fits(_atoms(meas, kernels[:, cols], bins, roots)[None],
                                              y[None])
            if passed[0]:
                support, amps, residual_ratio = kept, fitted[0], float(ratios[0])
    if residual_ratio > 1.0:  # a fit worse than none: no bits left to fit
        support, residual_ratio = [], 1.0

    # an empty support keeps the ratio 1 (0 for zero data) and reconstructs zeros
    order = sorted(range(len(support)),
                   key=lambda i: (-support[i][2], support[i][0], support[i][1]))
    components = tuple(
        DetectedComponent(grid.params(support[i][0]), support[i][1],
                          support[i][2], complex(amps[i]))
        for i in order
    )
    reconstructed = reconstruct(components, m_len, meas.index_origin)
    return RecoveryResult(components, reconstructed, residual_ratio,
                          residual_ratio > OFFGRID_RESIDUAL, swept)
