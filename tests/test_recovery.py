"""Recovery tests: spectral estimate, detection, least squares, pursuit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pftcs import (
    DetectedComponent,
    KernelParams,
    MeasurementSet,
    ParameterGrid,
    PolyPhaseComponent,
    RankDeficiencyError,
    RecoverConfig,
    ThresholdPolicy,
    amplitude_correction,
    cs_spectral_estimate,
    kernel_values_at,
    lpft_recover,
    pft,
    recover,
    reconstruct,
    relative_error,
    select_measurements,
    sweep,
    synthesize_components,
)
from pftcs import phase_cycles, recovery
from pftcs.model import FIT_GAIN
from pftcs.csvio import write_sweep_csv
from pftcs.recovery import (
    _GrownFit,
    _atoms,
    _best_pair,
    _column_median,
    _grid_estimates,
    _kernel_coeffs,
    _kernel_matrix,
    _ranked_hits,
    _ratio_scale,
    _residual_ratio,
    _scatter_spectra,
    _sweep_records,
)


def direct_estimate(meas, params):
    """Literal double-loop evaluation of the masked spectral estimate."""
    m_len = meas.signal_length
    phi = kernel_values_at(params, meas.positions, m_len)
    out = np.zeros(m_len, dtype=np.complex128)
    for k in range(m_len):
        for pos, val, f in zip(meas.positions, meas.values, phi):
            q = pos - meas.index_origin
            out[k] += val * f * np.exp(-2j * np.pi * k * q / m_len)
    return out * (m_len / meas.count)


def phase_atoms(meas, detected):
    """Atoms evaluated from each component's full phase polynomial."""
    return np.stack([
        np.exp(2j * np.pi * phase_cycles(c.phase_coeffs(), meas.positions, meas.signal_length))
        for c in detected
    ], axis=1)


def chirp_measurements(length=64, count=24, seed=8, coeffs=(10.0, 24.0),
                       amplitude=1.0, index_origin=0):
    comp = PolyPhaseComponent(amplitude, coeffs)
    samples = synthesize_components([comp], length, index_origin)
    positions = select_measurements(length, count, index_origin, seed)
    return MeasurementSet.from_samples(samples, positions, length, index_origin), comp


class TestSpectralEstimate:
    def test_matches_double_loop(self):
        meas, _ = chirp_measurements(length=32, count=12, index_origin=-16)
        params = KernelParams((24.0,))
        expected = direct_estimate(meas, params)
        got = cs_spectral_estimate(meas, params).coeffs
        np.testing.assert_allclose(got, expected, atol=1e-12 * np.max(np.abs(expected)))

    def test_full_data_equals_transform(self):
        length = 128
        comp = PolyPhaseComponent(1.0 - 0.5j, (12.0, -40.0, 6.0))
        samples = synthesize_components([comp], length)
        meas = MeasurementSet.from_samples(samples, np.arange(length), length)
        params = KernelParams((-40.0, 6.0))
        est = cs_spectral_estimate(meas, params).coeffs
        spec = pft(samples, params).coeffs
        np.testing.assert_allclose(est, spec, atol=1e-12 * np.max(np.abs(spec)))

    def test_fft_batch_matches_direct_estimate(self):
        meas, _ = chirp_measurements(length=64, count=20, index_origin=-32)
        grid = ParameterGrid.single(2, (0.0, 16.0, 24.0))
        batch = _grid_estimates(meas, _kernel_matrix(meas, grid), meas.values)
        for g, rate in enumerate((0.0, 16.0, 24.0)):
            single = cs_spectral_estimate(meas, KernelParams((-rate,))).coeffs
            np.testing.assert_allclose(batch[g], single,
                                       atol=1e-9 * np.max(np.abs(single)))

    def test_unbiased_at_matched_bin(self):
        # with the (M/N) scaling the matched bin reads M * amplitude exactly
        # when every sample is kept
        length = 32
        meas, comp = chirp_measurements(length=length, count=length,
                                        coeffs=(5.0, 12.0), amplitude=2.0)
        est = cs_spectral_estimate(meas, KernelParams((12.0,))).coeffs
        assert abs(est[5]) == pytest.approx(length * 2.0, rel=1e-12)


@st.composite
def atom_cases(draw):
    """Measurements at either origin, a 1- or 2-order grid, gathered cells.

    Rates stay within +-64, so the phase-polynomial oracle itself is
    accurate to well below the 1e-12 tolerance."""
    length = draw(st.sampled_from([32, 64]))
    origin = draw(st.sampled_from([0, -(length // 2)]))
    positions = select_measurements(length, draw(st.integers(1, min(length, 64))), origin,
                                    draw(st.integers(0, 2**32 - 1)))
    meas = MeasurementSet(positions, np.ones(positions.size), length, origin)
    rate = st.floats(-64.0, 64.0, allow_nan=False, allow_infinity=False)
    orders = draw(st.sampled_from([(2,), (3,), (2, 3)]))
    grid = ParameterGrid(tuple((order, tuple(sorted(draw(st.sets(rate, min_size=1, max_size=3)))))
                               for order in orders))
    cells = draw(st.lists(st.tuples(st.integers(0, grid.n_points - 1),
                                    st.integers(0, length - 1)), min_size=1, max_size=4))
    return meas, grid, cells


class TestAtomFactorization:
    """Dictionary columns factor into inverse kernel times Fourier atom."""

    @settings(max_examples=200, deadline=None)
    @given(atom_cases())
    def test_atom_is_kernel_conjugate_times_fourier(self, case):
        meas, grid, cells = case
        cols, bins = (list(c) for c in zip(*cells))
        atoms = _atoms(meas, _kernel_matrix(meas, grid)[:, cols], bins)
        expected = phase_atoms(meas, [DetectedComponent(grid.params(g), b, 1.0)
                                      for g, b in cells])
        np.testing.assert_allclose(atoms, expected, rtol=0, atol=1e-12)

    def test_matrix_form(self):
        meas, _ = chirp_measurements(length=32, count=16)
        params = KernelParams((6.0,))
        kernel = kernel_values_at(params, meas.positions, meas.signal_length)
        atoms = _atoms(meas, np.stack([kernel] * 3, axis=1), [2, 9, 20])
        fourier = np.exp(
            2j * np.pi * np.outer(meas.positions, [2, 9, 20]) / meas.signal_length
        )
        np.testing.assert_allclose(atoms, np.conj(kernel)[:, None] * fourier,
                                   atol=1e-12)


def spectrum_threshold(policy, mags):
    """The policy's threshold of one spectrum with these magnitudes."""
    return float(policy.column_thresholds(np.asarray(mags)[None, :])[0])


class TestThresholdPolicy:
    def test_relative_threshold(self):
        policy = ThresholdPolicy.relative(0.25)
        assert spectrum_threshold(policy, [1.0, 8.0, 2.0]) == pytest.approx(2.0)

    def test_statistic_threshold_frozen_value(self):
        # median 4.5 over 8 bins at confidence 0.99:
        # sigma = 4.5 / sqrt(2 ln 2), threshold = sigma * sqrt(2 ln(8/0.01))
        policy = ThresholdPolicy.statistic(0.99)
        mags = np.arange(1.0, 9.0)
        assert spectrum_threshold(policy, mags) == pytest.approx(13.974551436197805, rel=1e-12)

    def test_statistic_scales_with_magnitudes(self):
        policy = ThresholdPolicy.statistic(0.999)
        mags = np.abs(np.random.default_rng(0).normal(size=64)) + 0.1
        assert spectrum_threshold(policy, 3 * mags) == pytest.approx(
            3 * spectrum_threshold(policy, mags))

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy("quantile")
        with pytest.raises(ValueError):
            ThresholdPolicy.relative(0.0)
        with pytest.raises(ValueError):
            ThresholdPolicy.statistic(1.0)


def detected_bins(mags, policy):
    """Bins :func:`_ranked_hits` finds in one spectrum with these magnitudes."""
    row = np.asarray(mags)[None, :]
    _, bins = _ranked_hits(row, policy.column_thresholds(row)[:, None])
    return bins.tolist()


class TestDetection:
    def test_strongest_first(self):
        mags = np.array([0.0, 5.0, 9.0, 5.0, 1.0])
        assert detected_bins(mags, ThresholdPolicy.relative(0.5)) == [2, 1, 3]

    def test_tie_breaks_to_lower_bin(self):
        mags = np.array([4.0, 0.0, 4.0, 0.0])
        assert detected_bins(mags, ThresholdPolicy.relative(1.0)) == [0, 2]

    def test_zero_spectrum_detects_nothing(self):
        mags = np.zeros(8)
        assert detected_bins(mags, ThresholdPolicy.relative(0.5)) == []


# few distinct levels make ties within and across columns common
LEVELS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 4.0]) | st.floats(0.0, 8.0)


@st.composite
def ranking_cases(draw):
    """(G, M) magnitudes with ties and all-zero rows, and a policy."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 33)))
    mags = draw(arrays(np.float64, shape, elements=LEVELS))
    mags[draw(arrays(bool, shape[:1]))] = 0.0
    policy = draw(st.sampled_from([ThresholdPolicy.relative(0.5), ThresholdPolicy.relative(1.0),
                                   ThresholdPolicy.statistic(0.5),
                                   ThresholdPolicy.statistic(0.99)]))
    return mags, policy


class TestArrayDetection:
    """One threshold pass and one ranking over a (G, M) magnitude matrix
    against per-grid-point detection."""

    @settings(max_examples=300, deadline=None)
    @given(ranking_cases())
    def test_matches_per_column_oracle(self, detect_bins_oracle, case):
        mags, policy = case
        thresholds = policy.column_thresholds(mags)
        found = _sweep_records(ParameterGrid.single(2, range(mags.shape[0])), mags, thresholds)
        expected = []
        for g in range(mags.shape[0]):
            threshold, bins = detect_bins_oracle(mags[g], policy)
            assert thresholds[g] == threshold
            assert detected_bins(mags[g], policy) == bins
            top = (mags[g, bins[0]], bins[0]) if bins else (0.0, -1)
            assert (found.scores[g], found.peaks[g]) == top
            expected += [(-mags[g, b], g, b) for b in bins]
        cols, bins = _ranked_hits(mags, thresholds[:, None])
        assert list(zip(cols.tolist(), bins.tolist())) == [(g, b) for _, g, b in sorted(expected)]

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 40)),
                  elements=st.floats(-1e300, 1e300) | LEVELS))
    def test_single_kth_median_is_numpy_median(self, mags):
        assert _column_median(mags).tobytes() == np.median(mags, axis=-1).tobytes()

    def test_kernel_matrix_matches_per_point_kernels(self):
        meas, _ = chirp_measurements(length=64, count=24, index_origin=-32)
        grid = ParameterGrid(((2, (-24.0, 0.0, 8.5)), (3, (-3.0, 16.0))))
        expected = np.stack([kernel_values_at(KernelParams((-a, -b)), meas.positions, 64)
                             for a in (-24.0, 0.0, 8.5) for b in (-3.0, 16.0)], axis=1)
        assert _kernel_matrix(meas, grid).tobytes() == expected.tobytes()


class TestParameterGrid:
    def test_from_range_includes_endpoints(self):
        grid = ParameterGrid.from_range(3, -640.0, 640.0, 32.0)
        assert grid.n_points == 41
        assert grid.rates.shape == (41, 1)
        assert grid.rates[0].tolist() == [-640.0]
        assert grid.rates[40].tolist() == [640.0]
        # 0-based index 36 carries rate 512, index 28 carries rate 256
        assert grid.rates[36].tolist() == [512.0]
        assert grid.rates[28].tolist() == [256.0]

    def test_kernel_params_negate_rates(self):
        grid = ParameterGrid(((2, (256.0,)), (3, (-32.0,))))
        assert grid.rates.tolist() == [[256.0, -32.0]]
        assert grid.params(0) == KernelParams((-256.0, 32.0))

    def test_missing_orders_fill_with_zero(self):
        params = ParameterGrid.single(3, (16.0,)).params(0)
        assert params == KernelParams((0.0, -16.0))
        assert math.copysign(1.0, params.higher_coeffs[0]) == 1.0

    def test_params_match_kernel_coeffs(self):
        # orders 2 and 4, so order 3 is a gap; rates of both zero signs
        grid = ParameterGrid(((4, (-0.0, 3.0)), (2, (-8.0, 0.0, 2.5))))
        coeffs = _kernel_coeffs(grid)
        assert coeffs.shape == (4, 6)
        for g in range(grid.n_points):
            higher = np.array(grid.params(g).higher_coeffs)
            assert higher.tobytes() == coeffs[1:, g].tobytes()

    def test_cross_product_enumeration(self):
        grid = ParameterGrid(((3, (5.0, 6.0, 7.0)), (2, (0.0, 1.0))))
        assert grid.n_points == 6
        assert grid.rates.tolist() == [[0.0, 5.0], [0.0, 6.0], [0.0, 7.0],
                                       [1.0, 5.0], [1.0, 6.0], [1.0, 7.0]]
        assert grid.params(1) == KernelParams((-0.0, -6.0))

    def test_negative_zero_rate_keeps_its_sign(self, tmp_path):
        grid = ParameterGrid.single(2, (-0.0, 8.0))
        assert math.copysign(1.0, grid.rates[0, 0]) == -1.0
        assert math.copysign(1.0, grid.params(0).higher_coeffs[0]) == 1.0
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, _sweep_records(grid, np.zeros((grid.n_points, 1)), 1.0))
        assert path.read_text().splitlines()[1] == "1,-0.0,0.0,"

    def test_equality_and_hash_by_orders(self):
        grid = ParameterGrid(((2, (0.0, 1.0)), (3, (5.0,))))
        same = ParameterGrid(((3, [5]), (2, [0, 1])))
        assert grid == same and hash(grid) == hash(same)
        assert grid != ParameterGrid(((2, (0.0, 1.0)), (3, (6.0,))))
        assert not grid.rates.flags.writeable

    def test_point_count_bounded(self, monkeypatch):
        monkeypatch.setattr(recovery, "MAX_GRID_POINTS", 10)
        assert ParameterGrid.from_range(2, 0.0, 9.0, 1.0).n_points == 10
        with pytest.raises(ValueError, match="grid range has 11 points, more than 10"):
            ParameterGrid.from_range(2, 0.0, 10.0, 1.0)
        with pytest.raises(ValueError, match="grid has 12 points, more than 10"):
            ParameterGrid(((2, range(4)), (3, range(3))))

    def test_estimate_cells_bounded(self, monkeypatch):
        # signal_length may be huge with few measurements; the bound is
        # checked before the (G, M) estimate is allocated
        monkeypatch.setattr(recovery, "MAX_ESTIMATE_CELLS", 64)
        meas = MeasurementSet(np.arange(4), np.ones(4), 32)
        assert _scatter_spectra(meas, np.ones((4, 2))).shape == (2, 1, 32)
        with pytest.raises(ValueError, match="signal length 32 times 3 grid points "
                                             "is more than 64 estimate cells"):
            _scatter_spectra(meas, np.ones((4, 3)))
        with pytest.raises(ValueError, match="more than 64 estimate cells"):
            recover(meas, ParameterGrid.single(2, (0.0, 1.0, 2.0)), ThresholdPolicy.relative())

    def test_range_counted_before_it_is_built(self):
        with pytest.raises(ValueError, match="grid range has 65537 points"):
            ParameterGrid.from_range(2, 0.0, 65536.0, 1.0)
        with pytest.raises(ValueError, match="grid range must be finite"):
            ParameterGrid.from_range(2, 0.0, math.inf, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterGrid(())
        with pytest.raises(ValueError):
            ParameterGrid.single(1, (0.0,))
        with pytest.raises(ValueError):
            ParameterGrid.single(2, ())
        with pytest.raises(ValueError):
            ParameterGrid.single(2, (3.0, 1.0))
        with pytest.raises(ValueError):
            ParameterGrid(((2, (0.0,)), (2, (1.0,))))
        with pytest.raises(ValueError):
            ParameterGrid.from_range(2, 0.0, 10.0, -1.0)


class TestAmplitudeCorrection:
    def test_exact_amplitudes_noiseless(self):
        length = 64
        comps = [
            PolyPhaseComponent(1.5 - 0.5j, (10.0, 24.0)),
            PolyPhaseComponent(0.7j, (30.0, -8.0)),
        ]
        samples = synthesize_components(comps, length)
        positions = select_measurements(length, 32, seed=4)
        meas = MeasurementSet.from_samples(samples, positions, length)
        detected = [
            DetectedComponent(KernelParams((24.0,)), 10, 1.0),
            DetectedComponent(KernelParams((-8.0,)), 30, 1.0),
        ]
        amps = amplitude_correction(meas, detected)
        np.testing.assert_allclose(amps, [1.5 - 0.5j, 0.7j], atol=1e-10)

    def test_residual_orthogonal_to_atoms(self):
        rng = np.random.default_rng(21)
        length = 128
        meas, _ = chirp_measurements(length=length, count=40, seed=3)
        y = rng.normal(size=40) + 1j * rng.normal(size=40)
        meas = MeasurementSet(meas.positions, y, length)
        detected = [
            DetectedComponent(KernelParams((rate,)), b, 1.0)
            for rate, b in [(0.0, 5), (16.0, 40), (-32.0, 90)]
        ]
        amps = amplitude_correction(meas, detected)
        atoms = phase_atoms(meas, detected)
        residual = y - atoms @ amps
        # least-squares optimality: the residual has no component along
        # any atom
        assert np.max(np.abs(atoms.conj().T @ residual)) < 1e-9 * np.linalg.norm(y)

    def test_matches_qr_least_squares(self):
        rng = np.random.default_rng(22)
        meas, _ = chirp_measurements(length=64, count=24, seed=9)
        y = rng.normal(size=24) + 1j * rng.normal(size=24)
        meas = MeasurementSet(meas.positions, y, 64)
        detected = [
            DetectedComponent(KernelParams((8.0,)), b, 1.0) for b in (3, 17, 50)
        ]
        amps = amplitude_correction(meas, detected)
        oracle, *_ = np.linalg.lstsq(phase_atoms(meas, detected), y, rcond=None)
        np.testing.assert_allclose(amps, oracle, atol=1e-9)

    def test_underdetermined_raises(self):
        meas, _ = chirp_measurements(length=32, count=2, seed=5)
        detected = [
            DetectedComponent(KernelParams(), b, 1.0) for b in (1, 2, 3)
        ]
        with pytest.raises(RankDeficiencyError):
            amplitude_correction(meas, detected)

    def test_duplicate_atoms_raise(self):
        meas, _ = chirp_measurements(length=32, count=8, seed=5)
        detected = [DetectedComponent(KernelParams(), 4, 1.0)] * 2
        with pytest.raises(RankDeficiencyError):
            amplitude_correction(meas, detected)

    def test_empty_support(self):
        meas, _ = chirp_measurements()
        assert amplitude_correction(meas, []).size == 0


class TestSweep:
    def grid(self):
        return ParameterGrid.single(2, tuple(float(v) for v in range(-32, 33, 8)))

    def test_matched_point_wins(self):
        meas, comp = chirp_measurements(length=128, count=32, seed=2,
                                        coeffs=(20.0, -24.0))
        found = sweep(meas, self.grid(), ThresholdPolicy.relative(0.5))
        best = np.argmax(found.scores)
        # rate 24 demodulates the c2 = -24 component
        assert found.grid.rates[best, 0] == pytest.approx(24.0)
        assert found.peaks[best] == 20

    def test_scores_scale_linearly_argmax_fixed(self):
        meas, _ = chirp_measurements(length=128, count=32, seed=2,
                                     coeffs=(20.0, -24.0))
        scaled = MeasurementSet(meas.positions, 3.0 * meas.values,
                                meas.signal_length, meas.index_origin)
        for policy in (ThresholdPolicy.relative(0.5), ThresholdPolicy.statistic(0.999)):
            base = sweep(meas, self.grid(), policy)
            other = sweep(scaled, self.grid(), policy)
            assert np.argmax(base.scores) == np.argmax(other.scores)
            assert other.scores == pytest.approx(3.0 * base.scores, rel=1e-9)
            assert np.array_equal(base.peaks, other.peaks)

    @pytest.mark.parametrize("policy", [ThresholdPolicy.relative(0.5),
                                        ThresholdPolicy.statistic(0.999)])
    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_recover_returns_its_sweep(self, policy, scale):
        meas, _ = chirp_measurements(length=128, count=32, seed=2, coeffs=(20.0, -24.0))
        meas = MeasurementSet(meas.positions, scale * meas.values,
                              meas.signal_length, meas.index_origin)
        result = recover(meas, self.grid(), policy, RecoverConfig(pursuit="exact"))
        found = sweep(meas, self.grid(), policy)
        assert result.sweep.grid == found.grid
        assert np.array_equal(result.sweep.scores, found.scores)
        assert np.array_equal(result.sweep.peaks, found.peaks)

    def test_no_detection_scores_zero(self):
        meas, _ = chirp_measurements(length=64, count=64, coeffs=(7.0, 16.0))
        found = sweep(meas, ParameterGrid.single(2, (16.0,)),
                      ThresholdPolicy.relative(1.0))
        assert found.scores[0] > 0
        assert (found.peaks[found.scores == 0.0] == -1).all()


class TestRecover:
    def grid(self):
        return ParameterGrid.single(2, (0.0, 8.0, 16.0, 24.0, 32.0))

    def test_single_component_exact(self):
        meas, comp = chirp_measurements(length=64, count=24, seed=6,
                                        coeffs=(10.0, -24.0), amplitude=2.0 - 1.0j)
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5))
        assert len(result.components) == 1
        found = result.components[0]
        assert found.freq_bin == 10
        assert found.params == KernelParams((-24.0,))
        assert found.corrected_amplitude == pytest.approx(2.0 - 1.0j, abs=1e-10)
        reference = synthesize_components([comp], 64)
        assert relative_error(reference, result.reconstructed) < 1e-20
        assert result.measurement_residual_ratio < 1e-20
        assert not result.offgrid_suspect

    def test_two_components_joint(self):
        length = 64
        comps = [
            PolyPhaseComponent(1.0, (10.0, -8.0)),
            PolyPhaseComponent(1.0, (40.0, -24.0)),
        ]
        samples = synthesize_components(comps, length)
        positions = select_measurements(length, 32, seed=1)
        meas = MeasurementSet.from_samples(samples, positions, length)
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5))
        assert len(result.components) == 2
        bins = sorted(c.freq_bin for c in result.components)
        assert bins == [10, 40]
        np.testing.assert_allclose(result.reconstructed, samples, atol=1e-8)

    def test_exact_pursuit_reaches_zero_residual(self):
        length = 64
        comps = [
            PolyPhaseComponent(1.0, (10.0, -8.0)),
            PolyPhaseComponent(0.05, (41.0, -24.0)),
        ]
        samples = synthesize_components(comps, length)
        positions = select_measurements(length, 40, seed=12)
        meas = MeasurementSet.from_samples(samples, positions, length)
        # the weak component hides below a relative threshold; exact mode
        # keeps pulling candidates until the residual is numerically zero
        config = RecoverConfig(max_components=8, pursuit="exact")
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5), config)
        assert result.measurement_residual_ratio < 1e-20
        assert relative_error(samples, result.reconstructed) < 1e-10

    def test_max_components_cap(self):
        length = 64
        comps = [
            PolyPhaseComponent(1.0, (10.0, -8.0)),
            PolyPhaseComponent(1.0, (40.0, -24.0)),
        ]
        samples = synthesize_components(comps, length)
        positions = select_measurements(length, 32, seed=1)
        meas = MeasurementSet.from_samples(samples, positions, length)
        config = RecoverConfig(max_components=1)
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5), config)
        assert len(result.components) == 1

    def test_offgrid_component_flagged(self):
        meas, _ = chirp_measurements(length=64, count=32, seed=7,
                                     coeffs=(10.0, -13.0))
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5))
        assert result.offgrid_suspect
        assert result.measurement_residual_ratio > 1e-6

    def test_zero_signal_empty_result(self):
        meas = MeasurementSet(np.arange(8), np.zeros(8, dtype=np.complex128), 16)
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5))
        assert result.components == ()
        np.testing.assert_array_equal(result.reconstructed, np.zeros(16))
        assert not result.offgrid_suspect

    def test_components_sorted_by_magnitude(self):
        length = 64
        comps = [
            PolyPhaseComponent(0.5, (10.0, -8.0)),
            PolyPhaseComponent(2.0, (40.0, -24.0)),
        ]
        samples = synthesize_components(comps, length)
        positions = select_measurements(length, 32, seed=1)
        meas = MeasurementSet.from_samples(samples, positions, length)
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.25))
        mags = [c.raw_magnitude for c in result.components]
        assert mags == sorted(mags, reverse=True)

    def test_centered_signal_recovers(self):
        length = 64
        comp = PolyPhaseComponent(1.0, (10.0, -16.0))
        samples = synthesize_components([comp], length, index_origin=-32)
        positions = select_measurements(length, 24, index_origin=-32, seed=3)
        meas = MeasurementSet.from_samples(samples, positions, length, -32)
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5))
        assert relative_error(samples, result.reconstructed) < 1e-18
        np.testing.assert_allclose(
            reconstruct(result.components, length, -32), samples, atol=1e-9
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecoverConfig(pursuit="greedy")
        with pytest.raises(ValueError):
            RecoverConfig(max_components=0)


SCALE_RATES = (0.0, 8.0, 16.0, 24.0)


@st.composite
def scaled_cases(draw):
    """Noiseless on-grid signal, its mask, and a power-of-two scale factor."""
    length = draw(st.sampled_from([32, 64]))
    origin = draw(st.sampled_from([0, -(length // 2)]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, length - 1), st.sampled_from(SCALE_RATES)),
        min_size=1, max_size=3, unique=True,
    ))
    amps = draw(st.lists(
        st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                           allow_nan=False, allow_infinity=False),
        min_size=len(pairs), max_size=len(pairs),
    ))
    comps = [PolyPhaseComponent(a, (float(b), -rate)) for (b, rate), a in zip(pairs, amps)]
    samples = synthesize_components(comps, length, origin)
    positions = select_measurements(length, draw(st.integers(4, length)), origin,
                                    draw(st.integers(0, 2**32 - 1)))
    meas = MeasurementSet.from_samples(samples, positions, length, origin)
    factor = 2.0 ** draw(st.integers(-40, 40))
    scaled = MeasurementSet(meas.positions, factor * meas.values, length, origin)
    policy = draw(st.sampled_from([ThresholdPolicy.relative(0.5),
                                   ThresholdPolicy.statistic(0.99)]))
    return meas, scaled, factor, policy


def _recover_on_scale_rates(meas, policy, pursuit):
    return recover(meas, ParameterGrid.single(2, SCALE_RATES), policy,
                   RecoverConfig(pursuit=pursuit))


class TestScaleInvariance:
    """Scaling the data by ``c = 2**j`` scales every magnitude, threshold and
    amplitude exactly, so detection and pursuit decisions cannot change."""

    @settings(max_examples=60, deadline=None)
    @given(scaled_cases())
    def test_sweep_peaks_fixed_scores_scale(self, case):
        meas, scaled, factor, policy = case
        grid = ParameterGrid.single(2, SCALE_RATES)
        base, other = sweep(meas, grid, policy), sweep(scaled, grid, policy)
        assert np.array_equal(other.peaks, base.peaks)
        assert np.array_equal(other.scores, factor * base.scores)

    @settings(max_examples=40, deadline=None)
    @given(scaled_cases(), st.sampled_from(["threshold", "exact"]))
    def test_recover_support_fixed_amplitudes_scale(self, case, pursuit):
        meas, scaled, factor, policy = case
        base = _recover_on_scale_rates(meas, policy, pursuit)
        other = _recover_on_scale_rates(scaled, policy, pursuit)
        assert [(c.params, c.freq_bin) for c in other.components] == [
            (c.params, c.freq_bin) for c in base.components
        ]
        for a, b in zip(base.components, other.components):
            assert b.raw_magnitude == factor * a.raw_magnitude
            assert b.corrected_amplitude == factor * a.corrected_amplitude
        np.testing.assert_array_equal(other.reconstructed, factor * base.reconstructed)
        assert other.measurement_residual_ratio == base.measurement_residual_ratio

    def test_subnormal_residual_ratio_scales_exactly(self):
        # a chirp 1e-159 below a constant survives only in the imaginary
        # parts; fitting the constant leaves it as a residual whose energy is
        # subnormal, where squaring unscaled samples loses low bits
        # differently for y and 2y
        samples = synthesize_components([PolyPhaseComponent(1.0, (0.0,)),
                                         PolyPhaseComponent(1e-159, (5.0, -8.0))], 32)
        meas = MeasurementSet.from_samples(samples, select_measurements(32, 22, 0, 0), 32)
        doubled = MeasurementSet(meas.positions, 2.0 * meas.values, 32)
        base = _recover_on_scale_rates(meas, ThresholdPolicy.relative(0.5), "threshold")
        other = _recover_on_scale_rates(doubled, ThresholdPolicy.relative(0.5), "threshold")
        assert 0.0 < base.measurement_residual_ratio < np.finfo(np.float64).tiny
        assert other.measurement_residual_ratio == base.measurement_residual_ratio


@st.composite
def shifted_cases(draw):
    """One noiseless on-grid sample set, its offsets declared from origin 0
    and from origin -M/2."""
    length = draw(st.sampled_from([32, 64]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, length - 1), st.sampled_from(SCALE_RATES)),
        min_size=1, max_size=3, unique=True,
    ))
    amps = draw(st.lists(
        st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                           allow_nan=False, allow_infinity=False),
        min_size=len(pairs), max_size=len(pairs),
    ))
    comps = [PolyPhaseComponent(a, (float(b), -rate)) for (b, rate), a in zip(pairs, amps)]
    samples = synthesize_components(comps, length)
    offsets = select_measurements(length, draw(st.integers(length // 2, length)), 0,
                                  draw(st.integers(0, 2**32 - 1)))
    zero = MeasurementSet.from_samples(samples, offsets, length)
    centered = MeasurementSet(offsets - length // 2, zero.values, length, -(length // 2))
    policy = draw(st.sampled_from([ThresholdPolicy.relative(0.5),
                                   ThresholdPolicy.statistic(0.99)]))
    return zero, centered, policy


class TestOriginShift:
    """Moving the index origin from 0 to ``-M/2`` multiplies the rate-``v``
    demodulator by ``exp(-2j*pi*v*q/M)`` times a constant phase, so for integer
    rates every estimate column rolls by ``-v`` bins and recovery finds the
    same signal with every bin moved by ``-v``."""

    GRID = ParameterGrid.single(2, SCALE_RATES)

    @settings(max_examples=60, deadline=None)
    @given(shifted_cases())
    def test_sweep_columns_roll_by_rate(self, case):
        zero, centered, policy = case
        length, rates = zero.signal_length, [int(v) for v in SCALE_RATES]
        mags = [np.abs(_grid_estimates(m, _kernel_matrix(m, self.GRID), m.values))
                for m in (zero, centered)]
        tol = 1e-9 * mags[0].max()
        for g, v in enumerate(rates):
            np.testing.assert_allclose(mags[1][g], np.roll(mags[0][g], -v), atol=tol)
        a, c = sweep(zero, self.GRID, policy), sweep(centered, self.GRID, policy)
        for g, v in enumerate(rates):
            assert c.scores[g] == pytest.approx(a.scores[g], abs=tol)
            if a.peaks[g] >= 0:
                # a tie may take either bin; its magnitude must be the peak's
                assert mags[0][g, (c.peaks[g] + v) % length] == pytest.approx(
                    a.scores[g], abs=tol)

    @settings(max_examples=40, deadline=None)
    @given(shifted_cases())
    def test_recover_same_signal_bins_moved(self, case):
        zero, centered, policy = case
        length = zero.signal_length
        base, other = (recover(m, self.GRID, policy, RecoverConfig(pursuit="exact"))
                       for m in (zero, centered))
        assert (other.measurement_residual_ratio < 1e-20) == (
            base.measurement_residual_ratio < 1e-20)
        if base.measurement_residual_ratio >= 1e-20:
            return
        moved = {(c.params, (c.freq_bin + c.params.higher_coeffs[0]) % length)
                 for c in base.components}
        assert {(c.params, c.freq_bin) for c in other.components} == moved
        scale = np.abs(base.reconstructed).max()
        np.testing.assert_allclose(other.reconstructed, base.reconstructed, atol=1e-9 * scale)


@st.composite
def exact_cases(draw):
    """Noiseless on-grid signal of 1-4 chirps, its mask, and a support cap."""
    length = draw(st.sampled_from([32, 64]))
    origin = draw(st.sampled_from([0, -(length // 2)]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, length - 1), st.sampled_from(SCALE_RATES)),
        min_size=1, max_size=4, unique=True,
    ))
    amps = draw(st.lists(
        st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                           allow_nan=False, allow_infinity=False),
        min_size=len(pairs), max_size=len(pairs),
    ))
    comps = [PolyPhaseComponent(a, (float(b), -rate)) for (b, rate), a in zip(pairs, amps)]
    samples = synthesize_components(comps, length, origin)
    positions = select_measurements(length, draw(st.integers(4, length)), origin,
                                    draw(st.integers(0, 2**32 - 1)))
    meas = MeasurementSet.from_samples(samples, positions, length, origin)
    cap = draw(st.sampled_from([None, 1, 2, 4, 8]))
    return meas, RecoverConfig(max_components=cap, pursuit="exact")


class TestExactPursuitPolicy:
    """Exact pursuit picks from every positive cell, so the threshold policy
    only scores the sweep records and never changes what is recovered."""

    @settings(max_examples=60, deadline=None)
    @given(exact_cases())
    def test_components_independent_of_policy(self, case):
        meas, config = case
        grid = ParameterGrid.single(2, SCALE_RATES)
        results = [recover(meas, grid, policy, config).components
                   for policy in (ThresholdPolicy.relative(0.5), ThresholdPolicy.statistic(0.99))]
        assert results[0] == results[1]



class TestPursuitRounds:
    """A round that admits nothing ends the pass, so no estimate of an
    unchanged residual is computed twice."""

    @pytest.mark.parametrize("pursuit, estimates", [("threshold", 2), ("exact", 3)])
    def test_round_admitting_nothing_ends_pass(self, monkeypatch, pursuit, estimates):
        length = 64
        comps = [PolyPhaseComponent(1.0, (5.0, 16.0)), PolyPhaseComponent(0.8, (20.0, 0.0)),
                 PolyPhaseComponent(0.6, (40.0, -16.0))]
        samples = synthesize_components(comps, length)
        meas = MeasurementSet.from_samples(samples, select_measurements(length, 24, seed=3),
                                           length)
        rule, estimate = recovery._rank_rule, recovery._grid_estimates
        calls = 0

        def one_atom_only(n, k, gram, bound=math.inf):
            # every second atom fails the rank rule, so each pass admits one
            return False if k >= 2 else rule(n, k, gram, bound)

        def counted(*args):
            nonlocal calls
            calls += 1
            return estimate(*args)

        monkeypatch.setattr(recovery, "_rank_rule", one_atom_only)
        monkeypatch.setattr(recovery, "_grid_estimates", counted)
        result = recover(meas, ParameterGrid.single(2, (-16.0, 0.0, 16.0)),
                         ThresholdPolicy.relative(0.3), RecoverConfig(pursuit=pursuit))
        assert len(result.components) == 1
        # the sweep, then one residual round per pass (exact mode restarts
        # once from the best pair)
        assert calls == estimates


PT_RATES = tuple(float(16 * i) for i in range(8))


@st.composite
def crowded_cases(draw):
    """Noiseless length-32 signal of 1-4 chirps on an 8-rate grid, measured
    by 2K to 6K samples: the underdetermined range of the phase-transition
    map, where a pursuit admits atoms that the prune then removes."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 31), st.sampled_from(PT_RATES)),
                          min_size=1, max_size=4, unique=True))
    amps = draw(st.lists(
        st.just(1.0) | st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                                          allow_nan=False, allow_infinity=False),
        min_size=len(pairs), max_size=len(pairs),
    ))
    comps = [PolyPhaseComponent(a, (float(b), -rate)) for (b, rate), a in zip(pairs, amps)]
    count = draw(st.integers(2 * len(pairs), min(6 * len(pairs), 32)))
    positions = select_measurements(32, count, 0, draw(st.integers(0, 2**32 - 1)))
    return MeasurementSet.from_samples(synthesize_components(comps, 32), positions, 32)


class TestPrune:
    """Every returned component exceeds ``PRUNE_RATIO`` of the strongest
    amplitude, in both pursuit modes."""

    @settings(max_examples=200, deadline=None)
    @given(crowded_cases(), st.sampled_from(["threshold", "exact"]),
           st.sampled_from([ThresholdPolicy.relative(0.5), ThresholdPolicy.statistic(0.99)]))
    def test_components_exceed_prune_ratio(self, meas, pursuit, policy):
        config = RecoverConfig(max_components=max(1, meas.count // 2), pursuit=pursuit)
        result = recover(meas, ParameterGrid.single(2, PT_RATES), policy, config)
        amps = np.abs([c.corrected_amplitude for c in result.components])
        assert (amps > recovery.PRUNE_RATIO * amps.max(initial=0.0)).all()


class TestPruneRefitRejected:
    def test_unpruned_fit_stands(self, monkeypatch):
        # a sub-Gram is no worse conditioned in exact arithmetic, but rounding
        # at the COND_LIMIT edge could reject the prune's refit; the pass's
        # unpruned fit is then returned, and nothing raises
        comps = [PolyPhaseComponent(1.0, (24.0, -48.0)), PolyPhaseComponent(1.0, (19.0, -48.0))]
        meas = MeasurementSet.from_samples(synthesize_components(comps, 32),
                                           select_measurements(32, 10, 0, 21), 32)
        args = (meas, ParameterGrid.single(2, PT_RATES), ThresholdPolicy.relative(0.5),
                RecoverConfig(max_components=5))
        assert len(recover(*args).components) == 2  # the prune removes atoms here
        monkeypatch.setattr(recovery, "PRUNE_RATIO", 0.0)
        unpruned = recover(*args)
        monkeypatch.undo()
        rule = recovery._rank_rule
        widest = []  # atom count of the widest system that passed

        def reject_narrower(n, k, gram, bound=math.inf):
            if widest and k < widest[0]:
                # threshold pursuit only grows its support: this is the prune
                return False
            passed = rule(n, k, gram, bound)
            if np.all(passed):
                widest[:] = [k]
            return passed

        monkeypatch.setattr(recovery, "_rank_rule", reject_narrower)
        result = recover(*args)
        assert len(result.components) == widest[0] == len(unpruned.components) == 4
        assert result.measurement_residual_ratio == unpruned.measurement_residual_ratio


class TestFits:
    """``_fits`` holds the one rank rule of every amplitude fit."""

    def random_stack(self, shape, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def test_stack_of_passing_and_ill_conditioned_systems(self):
        atoms, values = self.random_stack((3, 6, 2), 4), self.random_stack((3, 6), 5)
        atoms[1, :, 1] = atoms[1, :, 0] + 1e-8 * atoms[1, :, 1]  # condition number ~1e16
        atoms[2, :, 1] = atoms[2, :, 0]  # singular
        passed, amps, left, ratios = recovery._fits(atoms, values)
        assert passed.tolist() == [True, False, False]
        assert (amps.shape, left.shape, ratios.shape) == ((1, 2), (1, 6), (1,))
        oracle, *_ = np.linalg.lstsq(atoms[0], values[0], rcond=None)
        np.testing.assert_allclose(amps[0], oracle, rtol=1e-12)
        np.testing.assert_allclose(left[0], values[0] - atoms[0] @ oracle, atol=1e-12)
        assert ratios[0] == _residual_ratio(left, values[:1])[0]
        for c in range(3):  # each system alone gets the same verdict and bits
            alone = recovery._fits(atoms[c:c + 1], values[c:c + 1])
            assert alone[0].tolist() == [passed[c]]
            if passed[c]:
                assert np.array_equal(alone[1][0], amps[0]) and alone[3][0] == ratios[0]

    def test_fewer_measurements_than_atoms_fail(self):
        atoms, values = self.random_stack((2, 2, 3), 6), self.random_stack((2, 2), 7)
        passed, amps, left, ratios = recovery._fits(atoms, values)
        assert passed.tolist() == [False, False]
        assert (amps.shape, left.shape, ratios.shape) == ((0, 3), (0, 2), (0,))

    def test_zero_data_fits_with_ratio_zero(self):
        passed, amps, left, ratios = recovery._fits(self.random_stack((1, 4, 2), 8),
                                                    np.zeros((1, 4), dtype=np.complex128))
        assert passed.tolist() == [True]
        assert not amps.any() and not left.any() and ratios.tolist() == [0.0]
        meas = MeasurementSet(np.arange(4), np.zeros(4, dtype=np.complex128), 8)
        detected = [DetectedComponent(KernelParams(), b, 1.0) for b in (1, 2)]
        assert not amplitude_correction(meas, detected).any()


@st.composite
def grown_cases(draw):
    """Random measurements of a length-32 or length-64 signal and a random
    support of distinct (grid point, bin) cells on the ``SCALE_RATES`` grid."""
    length = draw(st.sampled_from([32, 64]))
    count = draw(st.integers(4, length))
    positions = select_measurements(length, count, 0, draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    meas = MeasurementSet(positions, rng.normal(size=count) + 1j * rng.normal(size=count),
                          length)
    cells = draw(st.lists(st.tuples(st.integers(0, len(SCALE_RATES) - 1),
                                    st.integers(0, length - 1)),
                          min_size=1, max_size=count, unique=True))
    return meas, cells


class TestGrownFit:
    """The pursuit's fit, grown one atom at a time, is the least-squares fit
    of the atoms it admits, and it admits only what the rank rule passes."""

    @staticmethod
    def grow(meas, cells):
        kernels = _kernel_matrix(meas, ParameterGrid.single(2, SCALE_RATES))
        fit = _GrownFit(meas.values, *_ratio_scale(meas.values))
        admitted = [(g, b) for g, b in cells
                    if fit.admit(_atoms(meas, kernels[:, g], b))]
        cols, bins = zip(*admitted)
        return fit, _atoms(meas, kernels[:, cols], bins)

    @settings(max_examples=150, deadline=None)
    @given(grown_cases())
    def test_matches_lstsq(self, case):
        meas, cells = case
        y = meas.values
        fit, atoms = self.grow(meas, cells)
        assert atoms.shape[1] <= meas.count
        oracle, *_ = np.linalg.lstsq(atoms, y, rcond=None)
        scale = np.abs(oracle).max()
        np.testing.assert_allclose(fit.amplitudes(), oracle, rtol=0, atol=1e-10 * scale)
        y_norm = np.linalg.norm(y)
        np.testing.assert_allclose(fit.residual, y - atoms @ oracle, rtol=0, atol=1e-10 * y_norm)
        # unit-modulus atoms have norm sqrt(N)
        assert np.abs(atoms.conj().T @ fit.residual).max() <= 1e-10 * np.sqrt(meas.count) * y_norm
        assert fit.ratio == pytest.approx(_residual_ratio(fit.residual[None], y[None])[0],
                                          rel=1e-12, abs=1e-300)
        # the traces bound the condition number of the admitted atoms' Gram,
        # which the rank rule keeps within COND_LIMIT up to rounding
        lam = np.linalg.eigvalsh(atoms.conj().T @ atoms)
        assert lam[-1] <= fit.traces[0] * fit.traces[1] * lam[0] * (1 + 1e-9)
        assert lam[-1] <= 2 * recovery.COND_LIMIT * lam[0]

    def test_bound_decides_without_the_gram(self):
        def unformed():
            raise AssertionError("the Gram was formed")

        limit = recovery.COND_LIMIT
        assert recovery._rank_rule(4, 2, unformed, limit / 2) is True
        assert recovery._rank_rule(1, 2, unformed, 1.0) is False  # N < K comes first
        gram = np.diag([1.0, 2.0 / limit])  # condition number limit / 2
        assert recovery._rank_rule(4, 2, lambda: gram, limit)
        assert not recovery._rank_rule(4, 2, lambda: np.diag([1.0, 0.5 / limit]), limit / 2 + 1)

    def test_rule_rejects_duplicate_and_near_duplicate_atoms(self):
        rng = np.random.default_rng(3)
        atoms = np.exp(2j * np.pi * rng.random((16, 3)))
        y = rng.normal(size=16) + 1j * rng.normal(size=16)
        fit = _GrownFit(y, *_ratio_scale(y))
        assert fit.admit(atoms[:, 0])
        assert not fit.admit(atoms[:, 0].copy())
        # a Gram condition number near 1e18, above COND_LIMIT
        assert not fit.admit(atoms[:, 0] * np.exp(1e-9j * atoms[:, 1].real))
        assert fit.size == 1
        assert fit.admit(atoms[:, 2])
        oracle, *_ = np.linalg.lstsq(atoms[:, [0, 2]], y, rcond=None)
        np.testing.assert_allclose(fit.amplitudes(), oracle, rtol=1e-12)

    def test_rejected_candidate_yields_to_next_argmax(self, monkeypatch):
        # rates 0 and 1e-9 give nearly equal atoms at bin 5, so the second of
        # them fails the rule, and the round admits the next cell instead
        length = 64
        comps = [PolyPhaseComponent(1.0, (5.0, 0.0)), PolyPhaseComponent(0.8, (20.0, -16.0))]
        meas = MeasurementSet.from_samples(synthesize_components(comps, length),
                                           select_measurements(length, 24, 0, 3), length)
        rule, verdicts = recovery._rank_rule, []

        def recorded(n, k, gram, bound=math.inf):
            passed = rule(n, k, gram, bound)
            verdicts.append((k, bool(np.all(passed))))
            return passed

        monkeypatch.setattr(recovery, "_rank_rule", recorded)
        grid = ParameterGrid.single(2, (0.0, 1e-9, 16.0))
        result = recover(meas, grid, ThresholdPolicy.relative(0.3))
        assert verdicts == [(1, True), (2, False), (2, True)]
        assert {c.freq_bin for c in result.components} == {5, 20}
        assert result.measurement_residual_ratio < 1e-20


@st.composite
def degenerate_cases(draw):
    """Few measurements, a support cap above their count, and grids whose
    near-duplicate rates give nearly collinear atoms."""
    length = draw(st.sampled_from([16, 32]))
    count = draw(st.integers(1, 8))
    positions = select_measurements(length, count, 0, draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from(SCALE_RATES))
    gaps = draw(st.lists(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1.0]),
                         min_size=1, max_size=3))
    rates = sorted({base, *(base + np.cumsum(gaps)).tolist()})
    if draw(st.booleans()):  # an on-grid chirp
        comp = PolyPhaseComponent(1.0, (float(draw(st.integers(0, length - 1))), -base))
        meas = MeasurementSet.from_samples(synthesize_components([comp], length),
                                           positions, length)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        meas = MeasurementSet(positions, rng.normal(size=count) + 1j * rng.normal(size=count),
                              length)
    cap = draw(st.integers(count + 1, 3 * count + 4))
    return meas, ParameterGrid.single(2, rates), cap


class TestRecoverNeverRaises:
    @settings(max_examples=150, deadline=None)
    @given(degenerate_cases(), st.sampled_from(["threshold", "exact"]),
           st.sampled_from([ThresholdPolicy.relative(0.5), ThresholdPolicy.statistic(0.99)]))
    def test_returns_a_result(self, case, pursuit, policy):
        meas, grid, cap = case
        result = recover(meas, grid, policy, RecoverConfig(max_components=cap, pursuit=pursuit))
        # every admitted fit passed the rank rule, which needs N >= K
        assert len(result.components) <= meas.count
        assert np.isfinite(result.measurement_residual_ratio)
        assert all(np.isfinite(c.corrected_amplitude) for c in result.components)


class TestBestPair:
    def test_finds_true_pair(self):
        length = 64
        comps = [
            PolyPhaseComponent(1.0, (10.0, 0.0)),
            PolyPhaseComponent(1.0, (40.0, -32.0)),
        ]
        samples = synthesize_components(comps, length)
        positions = select_measurements(length, 14, seed=2)
        meas = MeasurementSet.from_samples(samples, positions, length)
        grid = ParameterGrid.single(2, (0.0, 16.0, 32.0))
        kernels = _kernel_matrix(meas, grid)
        mags = np.abs(_grid_estimates(meas, kernels, meas.values))
        pair = _best_pair(meas, kernels, mags)
        assert pair is not None
        got = {(grid.rates[pi, 0], b) for pi, b, _ in pair}
        assert got == {(0.0, 10), (32.0, 40)}
        assert all(mag == mags[pi, b] for pi, b, mag in pair)

    def test_single_candidate_returns_none(self):
        meas, _ = chirp_measurements(length=32, count=32, coeffs=(5.0,))
        kernels = _kernel_matrix(meas, ParameterGrid.single(2, (0.0,)))
        # a full-sampled tone leaves round-off in every bin, so the pool is
        # cut down to the one positive cell by hand
        mags = np.zeros((1, 32))
        mags[0, 5] = 32.0
        assert _best_pair(meas, kernels, mags) is None


class TestLargestMeasurements:
    """Measurements at the ``MeasurementSet`` bound, ``M * FIT_GAIN * max|v|``
    just finite, run through both recovery paths without overflow."""

    GRID = ParameterGrid.single(2, (-16.0, 0.0, 16.0))
    POSITIONS = np.arange(0, 64, 4)

    def at_bound(self, seed):
        if seed is None:  # all samples equal, as in a constant signal
            values = np.full(16, 1 + 1j)
        else:
            rng = np.random.default_rng(seed)
            values = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
        # one part in 1e15 below, so that rounding cannot cross the bound
        values *= np.finfo(np.float64).max / (64 * FIT_GAIN) / np.max(np.abs(values)) * (1 - 1e-15)
        return MeasurementSet(self.POSITIONS, values, 64)

    def test_overflowing_values_never_reach_recovery(self):
        with pytest.raises(ValueError, match="modulus"):
            MeasurementSet(self.POSITIONS, np.full(16, 1e307 + 1e307j), 64)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    @pytest.mark.parametrize("pursuit", ["threshold", "exact"])
    def test_recover(self, seed, pursuit):
        result = recover(self.at_bound(seed), self.GRID, ThresholdPolicy.relative(0.5),
                         RecoverConfig(pursuit=pursuit))
        assert result.components
        assert np.isfinite(result.measurement_residual_ratio)
        assert all(np.isfinite(c.corrected_amplitude) for c in result.components)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_lpft_recover(self, seed):
        result = lpft_recover(self.at_bound(seed), self.GRID, 16, ThresholdPolicy.relative(0.5))
        fitted = [a for a in result.assignments if a.grid_index is not None]
        assert fitted
        for a in fitted:
            assert np.isfinite(a.residual_ratio)
            assert np.all(np.isfinite(a.amplitudes))



class TestSubnormalMeasurements:
    """Measurements whose largest modulus is subnormal run through both
    recovery paths without overflow: a residual ratio divides by at least
    the smallest normal double, a power of two, so the division is exact."""

    GRID = ParameterGrid.single(2, (-16.0, 0.0, 16.0))
    POSITIONS = np.arange(0, 64, 4)

    def unit(self, seed):
        rng = np.random.default_rng(seed)
        return np.exp(2j * np.pi * rng.random(16))

    def test_ratio_is_unchanged_in_the_normal_range(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        y[1] *= np.finfo(np.float64).tiny
        left = 1e-3 * (rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))) * np.abs(y)
        scale = np.max(np.abs(y), axis=-1, keepdims=True)
        literal = np.sum(np.abs(left / scale) ** 2, axis=-1) / np.sum(np.abs(y / scale) ** 2,
                                                                      axis=-1)
        assert np.array_equal(_residual_ratio(left, y), literal)

    def test_subnormal_ratio_matches_the_scaled_up_one(self):
        # 2^-1040 makes every value subnormal; scaling back up is exact
        y = self.unit(4) * 2.0 ** -520 * 2.0 ** -520
        left = y * np.linspace(0.0, 0.5, 16)
        ratio = _residual_ratio(left, y)
        scaled = _residual_ratio(left * 2.0 ** 520 * 2.0 ** 520, y * 2.0 ** 520 * 2.0 ** 520)
        assert ratio == pytest.approx(scaled, rel=1e-9)

    @pytest.mark.parametrize("pursuit", ["threshold", "exact"])
    def test_recover(self, pursuit):
        # 16 values of modulus 1e-310 at M = 64
        meas = MeasurementSet(self.POSITIONS, 1e-310 * self.unit(0), 64)
        result = recover(meas, self.GRID, ThresholdPolicy.relative(0.5),
                         RecoverConfig(pursuit=pursuit))
        assert result.components
        assert np.isfinite(result.measurement_residual_ratio)

    @pytest.mark.parametrize("pursuit", ["threshold", "exact"])
    def test_bottom_of_subnormal_range_fits_nothing(self, pursuit):
        # 16 values of modulus 5e-324 at M = 64 keep no significant bits, so
        # every fit is worse than none
        meas = MeasurementSet(self.POSITIONS, 5e-324 * self.unit(0), 64)
        result = recover(meas, ParameterGrid.single(2, (0.0, 16.0, 32.0, 48.0)),
                         ThresholdPolicy.statistic(0.99), RecoverConfig(pursuit=pursuit))
        assert result.components == ()
        assert result.measurement_residual_ratio == 1.0

    @settings(max_examples=80, deadline=None)
    @given(length=st.sampled_from([32, 64]), seed=st.integers(0, 2**32 - 1),
           count=st.integers(2, 32),
           scale=st.sampled_from([5e-324, 1e-320, 1e-310, 1.0, 1e300]),
           policy=st.sampled_from([ThresholdPolicy.relative(0.5),
                                   ThresholdPolicy.statistic(0.99)]),
           pursuit=st.sampled_from(["threshold", "exact"]))
    def test_no_fit_is_worse_than_none(self, length, seed, count, scale, policy, pursuit):
        rng = np.random.default_rng(seed)
        positions = np.sort(rng.choice(length, size=count, replace=False))
        meas = MeasurementSet(positions, scale * np.exp(2j * np.pi * rng.random(count)), length)
        result = recover(meas, ParameterGrid.single(2, (0.0, 8.0, 16.0, 24.0)), policy,
                         RecoverConfig(pursuit=pursuit))
        assert result.measurement_residual_ratio <= 1.0

    def test_lpft_recover_with_one_subnormal_window(self):
        # window 1 of 4 holds values of modulus 1e-310, the others of 1
        scales = np.repeat([1.0, 1e-310, 1.0, 1.0], 4)
        meas = MeasurementSet(self.POSITIONS, scales * self.unit(1), 64)
        result = lpft_recover(meas, self.GRID, 16, ThresholdPolicy.relative(0.5))
        assert result.unassigned_windows == ()
        for a in result.assignments:
            assert np.isfinite(a.residual_ratio)
            assert np.all(np.isfinite(a.amplitudes))


class TestReconstruct:
    def test_requires_corrected_amplitudes(self):
        comp = DetectedComponent(KernelParams((8.0,)), 3, 1.0)
        with pytest.raises(ValueError):
            reconstruct([comp], 16)

    def test_rebuilds_from_amplitude(self):
        comp = DetectedComponent(KernelParams((-24.0,)), 10, 1.0,
                                 corrected_amplitude=2.0 - 1.0j)
        out = reconstruct([comp], 64)
        expected = synthesize_components(
            [PolyPhaseComponent(2.0 - 1.0j, (10.0, -24.0))], 64
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)
