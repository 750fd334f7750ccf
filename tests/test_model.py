"""Signal model tests: synthesis, sampling masks, noise scaling."""

import math
import re
import sys

import numpy as np
import pytest

from pftcs import (
    MeasurementSet,
    MultiComponentSignal,
    NoiseSpec,
    PolyPhaseComponent,
    apply_noise,
    phase_cycles,
    select_measurements,
    synthesize,
    synthesize_components,
)
from pftcs.model import FIT_GAIN


class TestPhaseCycles:
    """The phase polynomial evaluator against a literal power sum."""

    def test_matches_explicit_power_sum(self):
        rng = np.random.default_rng(101)
        length = 128
        for _ in range(25):
            degree = int(rng.integers(1, 5))
            coeffs = rng.normal(size=degree) * 10.0
            m = rng.integers(-64, 64, size=17)
            t = m / length
            expected = np.zeros_like(t)
            for p, c in enumerate(coeffs, start=1):
                expected += c * t**p
            got = phase_cycles(coeffs, m, length)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    def test_no_constant_term(self):
        # the polynomial starts at the linear term, so t=0 gives phase 0
        assert phase_cycles((3.0, 5.0, -2.0), [0], 64)[0] == 0.0

    def test_scalar_like_positions(self):
        out = phase_cycles((64.0,), [32], 128)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(16.0)


class TestPolyPhaseComponent:
    def test_sample_matches_formula(self):
        comp = PolyPhaseComponent(2.0 - 1.0j, (5.0, -3.0, 0.5))
        m = np.arange(-8, 8)
        length = 16
        t = m / length
        expected = (2.0 - 1.0j) * np.exp(
            2j * np.pi * (5.0 * t - 3.0 * t**2 + 0.5 * t**3)
        )
        np.testing.assert_allclose(comp.sample(m, length), expected, atol=1e-12)

    def test_degree(self):
        assert PolyPhaseComponent(1.0, (1.0,)).degree == 1
        assert PolyPhaseComponent(1.0, (1.0, 2.0, 3.0)).degree == 3

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            PolyPhaseComponent(0.0, (1.0,))

    def test_rejects_empty_coeffs(self):
        with pytest.raises(ValueError):
            PolyPhaseComponent(1.0, ())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PolyPhaseComponent(1.0, (math.nan,))
        with pytest.raises(ValueError):
            PolyPhaseComponent(math.inf, (1.0,))


class TestMultiComponentSignal:
    def test_indices_zero_based(self):
        sig = MultiComponentSignal((), 8)
        np.testing.assert_array_equal(sig.indices(), np.arange(8))

    def test_indices_centered(self):
        sig = MultiComponentSignal((), 8, index_origin=-4)
        np.testing.assert_array_equal(sig.indices(), np.arange(-4, 4))

    def test_rejects_other_origins(self):
        with pytest.raises(ValueError):
            MultiComponentSignal((), 8, index_origin=3)

    def test_accepts_any_origin_in_the_phase_rule(self):
        np.testing.assert_array_equal(MultiComponentSignal((), 8, -3).indices(),
                                      np.arange(-3, 5))

    @pytest.mark.parametrize("origin", [1, -9])
    def test_rejects_origin_outside_the_phase_rule(self, origin):
        with pytest.raises(ValueError, match="origin"):
            MultiComponentSignal((), 8, origin)

    def test_synthesize_sums_components(self):
        comps = (
            PolyPhaseComponent(1.0, (3.0,)),
            PolyPhaseComponent(0.5j, (7.0, -2.0)),
        )
        sig = MultiComponentSignal(comps, 32, index_origin=-16)
        m = sig.indices()
        expected = comps[0].sample(m, 32) + comps[1].sample(m, 32)
        np.testing.assert_allclose(synthesize(sig), expected, atol=1e-12)

    def test_synthesize_components_wrapper(self):
        comps = (PolyPhaseComponent(1.0, (3.0,)),)
        direct = synthesize(MultiComponentSignal(comps, 16))
        np.testing.assert_array_equal(synthesize_components(comps, 16), direct)


class TestMeasurementSet:
    def test_from_samples_zero_origin(self):
        samples = np.arange(10, dtype=np.complex128)
        meas = MeasurementSet.from_samples(samples, [1, 4, 7], 10)
        np.testing.assert_array_equal(meas.values, [1, 4, 7])
        assert meas.count == 3

    def test_from_samples_centered(self):
        samples = np.arange(8, dtype=np.complex128)
        meas = MeasurementSet.from_samples(samples, [-4, 0, 3], 8, index_origin=-4)
        # position m maps to storage slot m - origin
        np.testing.assert_array_equal(meas.values, [0, 4, 7])

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError):
            MeasurementSet(np.array([3, 1]), np.zeros(2), 8)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            MeasurementSet(np.array([2, 2]), np.zeros(2), 8)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MeasurementSet(np.array([0, 8]), np.zeros(2), 8)
        with pytest.raises(ValueError):
            MeasurementSet(np.array([-5, 0]), np.zeros(2), 8, index_origin=-4)

    @pytest.mark.parametrize("origin", [1, -65, 10**9])
    def test_rejects_origin_outside_the_phase_rule(self, origin):
        # every index m of [origin, origin + M) must keep |m/M| <= 1
        with pytest.raises(ValueError, match="origin"):
            MeasurementSet(np.array([origin]), np.ones(1), 64, origin)

    def test_accepts_origins_at_the_rule_edges(self):
        for origin in (-64, 0):
            assert MeasurementSet(np.array([origin]), np.ones(1), 64, origin).count == 1

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            MeasurementSet(np.array([0, 1]), np.zeros(3), 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MeasurementSet(np.array([0, 1]), np.array([1.0, bad]), 8)

    def test_rejects_values_whose_estimate_overflows(self):
        # a scatter-FFT cell sums up to M values, so M * max|v| must be finite
        with pytest.raises(ValueError, match="modulus"):
            MeasurementSet(np.arange(0, 64, 4), np.full(16, 1e307 + 1e307j), 64)

    def test_accepts_values_at_the_bound(self):
        bound = sys.float_info.max / (64 * FIT_GAIN)
        meas = MeasurementSet(np.arange(0, 64, 4), np.full(16, bound + 0j), 64)
        assert np.max(np.abs(meas.values)) == bound
        with pytest.raises(ValueError, match=re.escape(repr(bound))):
            MeasurementSet(np.arange(0, 64, 4), np.full(16, np.nextafter(bound, np.inf)), 64)


class TestSelectMeasurements:
    def test_deterministic_for_seed(self):
        a = select_measurements(128, 32, seed=5)
        b = select_measurements(128, 32, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_sorted_distinct_in_range(self):
        pos = select_measurements(100, 40, index_origin=-50, seed=1)
        assert pos.size == 40
        assert np.all(np.diff(pos) > 0)
        assert pos[0] >= -50 and pos[-1] < 50

    def test_full_sampling_returns_everything(self):
        pos = select_measurements(16, 16, seed=0)
        np.testing.assert_array_equal(pos, np.arange(16))

    def test_generator_seed_accepted(self):
        rng = np.random.default_rng(9)
        pos = select_measurements(64, 8, seed=rng)
        assert pos.size == 8

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            select_measurements(16, 0)
        with pytest.raises(ValueError):
            select_measurements(16, 17)


class TestApplyNoise:
    def test_none_passes_through(self):
        x = np.ones(8, dtype=np.complex128)
        noisy, achieved = apply_noise(x, NoiseSpec())
        np.testing.assert_array_equal(noisy, x)
        assert achieved == math.inf

    def test_achieved_snr_is_exact(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        spec = NoiseSpec("complex-gaussian", target_snr_db=7.5, seed=11)
        noisy, achieved = apply_noise(x, spec)
        assert achieved == pytest.approx(7.5, abs=1e-9)
        ratio = np.sum(np.abs(x) ** 2) / np.sum(np.abs(noisy - x) ** 2)
        assert 10 * math.log10(ratio) == pytest.approx(7.5, abs=1e-9)

    def test_deterministic_under_spec_seed(self):
        x = np.ones(16, dtype=np.complex128)
        spec = NoiseSpec("complex-gaussian", target_snr_db=0.0, seed=4)
        a, _ = apply_noise(x, spec)
        b, _ = apply_noise(x, spec)
        np.testing.assert_array_equal(a, b)

    def test_explicit_rng_wins_over_spec_seed(self):
        x = np.ones(16, dtype=np.complex128)
        a, _ = apply_noise(x, NoiseSpec("complex-gaussian", 0.0, seed=1),
                           rng=np.random.default_rng(42))
        b, _ = apply_noise(x, NoiseSpec("complex-gaussian", 0.0, seed=2),
                           rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            apply_noise(np.zeros(4), NoiseSpec("complex-gaussian", 10.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("pink")
        with pytest.raises(ValueError):
            NoiseSpec("complex-gaussian", math.inf)
