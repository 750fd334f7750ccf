"""Discrete polynomial Fourier transform: DFT after chirp demodulation.

The demodulation kernel carries ``exp(-j*2*pi * sum_{p>=2} g_p * (m/M)**p)``
so that multiplying a component whose phase coefficients equal the kernel's
cancels every higher-order term, leaving a pure sinusoid the DFT concentrates
into a single bin.  The DFT convention is the unnormalized forward sum over
the stored sample order, ``X[k] = sum_q x[m0+q] * exp(-j*2*pi*k*q/M)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import phase_cycles

__all__ = [
    "KernelParams",
    "Spectrum",
    "kernel_values_at",
    "dft",
    "idft",
    "pft",
]


@dataclass(frozen=True)
class KernelParams:
    """Demodulation coefficients ``g_2 .. g_n`` (orders two and up).

    The tuple may be empty, which reduces the transform to a plain DFT.
    Values are in the same normalized units as component phase coefficients;
    a kernel matches a component when its coefficients equal the component's
    ``c_2 .. c_n``.
    """

    higher_coeffs: tuple = ()

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.higher_coeffs)
        object.__setattr__(self, "higher_coeffs", coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("kernel coefficients must be finite")

    @property
    def max_order(self) -> int:
        return 1 + len(self.higher_coeffs)

    def full_coeffs(self, linear=0.0) -> tuple:
        """Coefficients ``c_1 .. c_n`` with the given linear term prepended."""
        return (float(linear),) + self.higher_coeffs


def kernel_values_at(params: KernelParams, positions, length) -> np.ndarray:
    """Kernel samples at arbitrary integer positions (unit modulus)."""
    if not params.higher_coeffs:
        return np.ones(np.asarray(positions).shape, dtype=np.complex128)
    cycles = phase_cycles(params.full_coeffs(), positions, length)
    return np.exp(-2j * np.pi * cycles)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Unnormalized forward-DFT coefficients, bins ``0 .. M-1``."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.complex128))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("spectrum coefficients must be a non-empty vector")

    def __len__(self) -> int:
        return int(self.coeffs.size)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.coeffs)


def dft(samples) -> Spectrum:
    """Forward DFT of a stored sample vector (computed by the FFT)."""
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty vector")
    return Spectrum(np.fft.fft(x))


def idft(spectrum: Spectrum) -> np.ndarray:
    """Exact inverse of :func:`dft`, returning the stored sample order."""
    return np.fft.ifft(spectrum.coeffs)


def pft(samples, params: KernelParams, index_origin=0) -> Spectrum:
    """Polynomial Fourier transform: DFT of the demodulated samples."""
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty vector")
    if not params.higher_coeffs:
        return dft(x)
    m = np.arange(index_origin, index_origin + x.size)
    return dft(x * kernel_values_at(params, m, x.size))
