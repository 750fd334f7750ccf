"""Transform tests: DFT conventions, kernels, matched concentration."""

import numpy as np
import pytest

from pftcs import (
    KernelParams,
    PolyPhaseComponent,
    Spectrum,
    dft,
    idft,
    kernel_values_at,
    pft,
    synthesize_components,
)


def brute_force_dft(samples):
    """Independent double-loop DFT used as the oracle."""
    x = np.asarray(samples, dtype=np.complex128)
    m = x.size
    out = np.zeros(m, dtype=np.complex128)
    for k in range(m):
        for q in range(m):
            out[k] += x[q] * np.exp(-2j * np.pi * k * q / m)
    return out


def dense_dft_matrix(length):
    """Dense DFT matrix, the O(M^2) oracle for the FFT-based transforms."""
    k = np.arange(length)
    return np.exp(-2j * np.pi / length * np.outer(k, k))


class TestDft:
    @pytest.mark.parametrize("length", [1, 2, 7, 16])
    def test_matches_brute_force(self, length):
        rng = np.random.default_rng(length)
        x = rng.normal(size=length) + 1j * rng.normal(size=length)
        expected = brute_force_dft(x)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(dft(x).coeffs, expected, atol=1e-10 * max(scale, 1))

    def test_fast_equals_direct(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        direct = dense_dft_matrix(64) @ x
        fast = dft(x).coeffs
        np.testing.assert_allclose(fast, direct, atol=1e-9 * np.max(np.abs(direct)))

    # odd lengths take a different FFT factorization than powers of two
    @pytest.mark.parametrize("odd", [False, True])
    def test_idft_inverts_dft(self, odd):
        rng = np.random.default_rng(7)
        x = rng.normal(size=48 + odd) + 1j * rng.normal(size=48 + odd)
        back = idft(dft(x))
        np.testing.assert_allclose(back, x, atol=1e-10)

    @pytest.mark.parametrize("odd", [False, True])
    def test_dft_inverts_idft(self, odd):
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=32 + odd) + 1j * rng.normal(size=32 + odd)
        spec = Spectrum(coeffs)
        roundtrip = dft(idft(spec)).coeffs
        np.testing.assert_allclose(roundtrip, coeffs, atol=1e-10 * np.max(np.abs(coeffs)))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            dft(np.zeros(0))
        with pytest.raises(ValueError):
            dft(np.zeros((4, 4)))


class TestKernel:
    def test_values_match_formula(self):
        params = KernelParams((-512.0, 16.0))
        m = np.arange(-64, 64)
        length = 128
        t = m / length
        expected = np.exp(-2j * np.pi * (-512.0 * t**2 + 16.0 * t**3))
        np.testing.assert_allclose(kernel_values_at(params, m, length), expected,
                                   atol=1e-12)

    def test_empty_params_are_ones(self):
        out = kernel_values_at(KernelParams(), np.arange(8), 8)
        np.testing.assert_array_equal(out, np.ones(8))

    def test_unit_modulus(self):
        params = KernelParams((3.7, -0.2, 11.0))
        vals = kernel_values_at(params, np.arange(-16, 16), 32)
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-12)

    def test_phase_additivity(self):
        # demodulating twice with rates a and b equals once with a + b
        m = np.arange(64)
        a = kernel_values_at(KernelParams((5.0,)), m, 64)
        b = kernel_values_at(KernelParams((-2.5,)), m, 64)
        both = kernel_values_at(KernelParams((2.5,)), m, 64)
        np.testing.assert_allclose(a * b, both, atol=1e-12)

    def test_pft_demodulates_over_index_range(self):
        # the kernel is sampled at m0 .. m0 + M - 1, not at 0 .. M - 1
        rng = np.random.default_rng(4)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        params = KernelParams((4.0,))
        expected = dense_dft_matrix(16) @ (x * kernel_values_at(params, np.arange(-8, 8), 16))
        np.testing.assert_allclose(pft(x, params, index_origin=-8).coeffs, expected,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_full_coeffs_prepends_linear(self):
        assert KernelParams((2.0, 3.0)).full_coeffs(linear=5.0) == (5.0, 2.0, 3.0)
        assert KernelParams().max_order == 1


class TestMatchedConcentration:
    """A matched kernel collapses a component into exactly one bin."""

    def test_single_bin_equals_length_times_amplitude(self):
        length = 128
        amp = 0.75 - 0.35j
        comp = PolyPhaseComponent(amp, (16.0, -48.0, 8.0))
        x = synthesize_components([comp], length)
        spec = pft(x, KernelParams((-48.0, 8.0)))
        mags = spec.magnitude()
        peak = length * abs(amp)
        assert mags[16] == pytest.approx(peak, rel=1e-9)
        others = np.delete(mags, 16)
        assert np.max(others) < 1e-9 * peak

    def test_centered_signal_concentrates_too(self):
        length = 64
        comp = PolyPhaseComponent(1.5, (10.0, 24.0))
        x = synthesize_components([comp], length, index_origin=-32)
        spec = pft(x, KernelParams((24.0,)), index_origin=-32)
        mags = spec.magnitude()
        assert mags[10] == pytest.approx(length * 1.5, rel=1e-9)
        assert np.max(np.delete(mags, 10)) < 1e-9 * length * 1.5

    def test_mismatched_kernel_spreads(self):
        length = 64
        comp = PolyPhaseComponent(1.0, (10.0, 24.0))
        x = synthesize_components([comp], length)
        matched = pft(x, KernelParams((24.0,))).magnitude().max()
        mismatched = pft(x, KernelParams((0.0,))).magnitude().max()
        assert mismatched < 0.7 * matched

    def test_empty_kernel_reduces_to_dft(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        np.testing.assert_array_equal(pft(x, KernelParams()).coeffs, dft(x).coeffs)

    def test_fast_matches_direct(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        params = KernelParams((-20.0, 4.0))
        direct = dense_dft_matrix(64) @ (x * kernel_values_at(params, np.arange(64), 64))
        fast = pft(x, params).coeffs
        np.testing.assert_allclose(fast, direct, atol=1e-9 * np.max(np.abs(direct)))


class TestSpectrum:
    def test_magnitude_and_len(self):
        spec = Spectrum(np.array([3 + 4j, 1.0]))
        assert len(spec) == 2
        np.testing.assert_allclose(spec.magnitude(), [5.0, 1.0], atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Spectrum(np.zeros(0))
