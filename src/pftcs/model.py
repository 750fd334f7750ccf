"""Polynomial-phase signal model.

Signals are sums of components ``r * exp(j*2*pi * sum_p c_p * (m/M)**p)``
sampled at integer positions ``m`` in ``[m0, m0 + M)``.  The module holds the
model types plus synthesis, random sampling-mask selection, and additive
complex noise scaled exactly to a target input SNR.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolyPhaseComponent",
    "MultiComponentSignal",
    "MeasurementSet",
    "NoiseSpec",
    "phase_cycles",
    "synthesize",
    "synthesize_components",
    "select_measurements",
    "apply_noise",
]

# Most a least-squares amplitude can exceed max|measurement| by: over atoms of
# unit modulus whose Gram matrix has a condition number of at most
# ``recovery.COND_LIMIT = FIT_GAIN**2``, the amplitude vector's norm is at
# most ``FIT_GAIN`` times the largest measurement modulus.
FIT_GAIN = 1e6


def phase_cycles(coeffs, positions, length):
    """Evaluate the phase polynomial, in cycles, at integer positions.

    Parameters
    ----------
    coeffs : sequence of float
        Polynomial coefficients ``c_1 .. c_n`` (linear term first); the
        polynomial is ``sum_p c_p * (m / length)**p`` with no constant term.
    positions : array_like of int
        Sample indices ``m`` (may be negative for centered signals).
    length : int
        Normalization length ``M``.

    Returns
    -------
    numpy.ndarray of float
    """
    t = np.asarray(positions, dtype=np.float64) / float(length)
    acc = np.zeros_like(t)
    for c in reversed(tuple(coeffs)):
        acc = acc * t + c
    return acc * t


def check_index_origin(origin: int, length: int):
    """Raise ValueError unless ``-length <= origin <= 0``: every index m of
    ``[origin, origin + length)`` then has ``|m/M| <= 1``, which bounds each
    phase by the sum of its coefficients' moduli."""
    if not -length <= origin <= 0:
        raise ValueError(f"origin: {origin} is outside [-{length}, 0], "
                         "where every index m keeps |m/M| <= 1")


@dataclass(frozen=True)
class PolyPhaseComponent:
    """One constant-amplitude component with polynomial phase.

    ``phase_coeffs`` lists ``c_1 .. c_n`` in normalized units: the component's
    samples are ``amplitude * exp(j*2*pi * sum_p c_p * (m/M)**p)``.
    """

    amplitude: complex
    phase_coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.phase_coeffs)
        object.__setattr__(self, "phase_coeffs", coeffs)
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if len(coeffs) < 1:
            raise ValueError("phase_coeffs needs at least the linear term")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("phase_coeffs must be finite")
        if self.amplitude == 0 or not (
            math.isfinite(self.amplitude.real) and math.isfinite(self.amplitude.imag)
        ):
            raise ValueError("amplitude must be nonzero and finite")

    @property
    def degree(self) -> int:
        return len(self.phase_coeffs)

    def sample(self, positions, length) -> np.ndarray:
        """Component values at integer positions."""
        return self.amplitude * np.exp(
            2j * np.pi * phase_cycles(self.phase_coeffs, positions, length)
        )


@dataclass(frozen=True)
class MultiComponentSignal:
    """A sum of polynomial-phase components on ``[m0, m0 + M)``, where
    ``-M <= m0 <= 0`` (:func:`check_index_origin`).
    """

    components: tuple
    length: int
    index_origin: int = 0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")
        check_index_origin(self.index_origin, self.length)
        for comp in self.components:
            if not isinstance(comp, PolyPhaseComponent):
                raise TypeError("components must be PolyPhaseComponent instances")

    def indices(self) -> np.ndarray:
        return np.arange(self.index_origin, self.index_origin + self.length)


def synthesize(signal: MultiComponentSignal) -> np.ndarray:
    """Sample a multi-component signal on its full index range."""
    m = signal.indices()
    out = np.zeros(signal.length, dtype=np.complex128)
    for comp in signal.components:
        out += comp.sample(m, signal.length)
    return out


def synthesize_components(components, length, index_origin=0) -> np.ndarray:
    """Convenience wrapper building the signal container first."""
    return synthesize(MultiComponentSignal(tuple(components), length, index_origin))


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Randomly retained samples of one signal.

    ``positions`` are strictly increasing integers in
    ``[index_origin, index_origin + signal_length)``, where
    ``-signal_length <= index_origin <= 0``; ``values`` holds the
    signal at those positions, each of modulus at most the largest double
    over ``signal_length * FIT_GAIN``.  The largest intermediates of a
    recovery are then finite: a scatter-FFT cell sums up to ``M`` values, a
    normal-equation right-hand side ``N <= M``, and a fitted amplitude is
    at most ``FIT_GAIN`` times ``max|v|``.
    """

    positions: np.ndarray
    values: np.ndarray
    signal_length: int
    index_origin: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", val)
        if pos.ndim != 1 or val.ndim != 1 or pos.size != val.size:
            raise ValueError("positions and values must be 1-d and the same size")
        if not 1 <= pos.size <= self.signal_length:
            raise ValueError(
                f"need between 1 and {self.signal_length} measurements, got {pos.size}"
            )
        bound = sys.float_info.max / (self.signal_length * FIT_GAIN)
        peak = float(np.max(np.abs(val)))
        if not peak <= bound:  # also catches nan
            raise ValueError(f"measurement values must be finite with modulus at most "
                             f"{bound!r}, the largest double over signal_length "
                             f"{self.signal_length} times {FIT_GAIN:g}; got {peak!r}")
        check_index_origin(self.index_origin, self.signal_length)
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        lo = self.index_origin
        hi = self.index_origin + self.signal_length
        if pos[0] < lo or pos[-1] >= hi:
            raise ValueError(f"positions must lie in [{lo}, {hi})")

    @property
    def count(self) -> int:
        return int(self.positions.size)

    @classmethod
    def from_samples(cls, samples, positions, signal_length, index_origin=0):
        """Pick measurement values out of a full-length sample vector."""
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.size != signal_length:
            raise ValueError("samples length must equal signal_length")
        pos = np.asarray(positions, dtype=np.int64)
        return cls(pos, samples[pos - index_origin], signal_length, index_origin)


def select_measurements(length, count, index_origin=0, seed=None) -> np.ndarray:
    """Draw ``count`` distinct positions uniformly from ``[m0, m0 + M)``.

    Returns the sorted position array.  ``seed`` feeds
    ``numpy.random.default_rng`` and may be an int or a SeedSequence.
    """
    if not 1 <= count <= length:
        raise ValueError(
            f"measurement count {count} must be between 1 and the signal length {length}"
        )
    rng = np.random.default_rng(seed)
    pos = rng.choice(length, size=count, replace=False)
    pos.sort()
    return pos.astype(np.int64) + index_origin


@dataclass(frozen=True)
class NoiseSpec:
    """Additive-noise description: kind, target input SNR in dB, seed."""

    kind: str = "none"
    target_snr_db: float = math.inf
    seed: int = 0

    _KINDS = ("none", "complex-gaussian")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"noise kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.kind == "complex-gaussian" and not math.isfinite(self.target_snr_db):
            raise ValueError("complex-gaussian noise needs a finite target_snr_db")


def apply_noise(samples, spec: NoiseSpec, rng=None):
    """Add noise to a sample vector, scaled exactly to the target SNR.

    The realized noise draw is rescaled so that
    ``10*log10(sum|x|^2 / sum|eps|^2)`` hits ``spec.target_snr_db`` on this
    draw, not merely in expectation.  Returns ``(noisy, achieved_snr_db)``;
    for ``kind='none'`` the samples pass through and the achieved SNR is
    ``inf``.  An explicit ``rng`` takes precedence over ``spec.seed`` so
    trial loops can share one stream.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.size == 0:
        raise ValueError("samples must be non-empty")
    if spec.kind == "none":
        return x.copy(), math.inf
    energy = float(np.sum(np.abs(x) ** 2))
    if energy <= 0.0:
        raise ValueError("cannot set an SNR against an all-zero signal")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    draw = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    draw_energy = float(np.sum(np.abs(draw) ** 2))
    target_energy = energy / 10.0 ** (spec.target_snr_db / 10.0)
    noise = draw * math.sqrt(target_energy / draw_energy)
    achieved = 10.0 * math.log10(energy / float(np.sum(np.abs(noise) ** 2)))
    return x + noise, achieved
