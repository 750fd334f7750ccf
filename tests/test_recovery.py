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
    Spectrum,
    ThresholdPolicy,
    amplitude_correction,
    cs_spectral_estimate,
    detect_components,
    kernel_values_at,
    pft,
    recover,
    reconstruct,
    select_measurements,
    sweep,
    synthesize_components,
)
from pftcs import phase_cycles, recovery
from pftcs.csvio import write_sweep_csv
from pftcs.recovery import (
    _atoms,
    _best_pair,
    _column_median,
    _grid_estimates,
    _kernel_matrix,
    _ranked_hits,
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


def grid_records(grid):
    """The grid's :class:`SweepPoint` records, all scored zero."""
    return _sweep_records(grid, np.zeros((1, grid.n_points)), 1.0)


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
            np.testing.assert_allclose(batch[:, g], single,
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
        records = grid_records(grid)
        expected = phase_atoms(meas, [DetectedComponent(records[g].params, b, 1.0)
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


class TestThresholdPolicy:
    def test_relative_threshold(self):
        policy = ThresholdPolicy.relative(0.25)
        assert policy.threshold([1.0, 8.0, 2.0]) == pytest.approx(2.0)

    def test_statistic_threshold_frozen_value(self):
        # median 4.5 over 8 bins at confidence 0.99:
        # sigma = 4.5 / sqrt(2 ln 2), threshold = sigma * sqrt(2 ln(8/0.01))
        policy = ThresholdPolicy.statistic(0.99)
        mags = np.arange(1.0, 9.0)
        assert policy.threshold(mags) == pytest.approx(13.974551436197805, rel=1e-12)

    def test_statistic_scales_with_magnitudes(self):
        policy = ThresholdPolicy.statistic(0.999)
        mags = np.abs(np.random.default_rng(0).normal(size=64)) + 0.1
        assert policy.threshold(3 * mags) == pytest.approx(3 * policy.threshold(mags))

    def test_empty_magnitudes(self):
        assert ThresholdPolicy.relative().threshold([]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy("quantile")
        with pytest.raises(ValueError):
            ThresholdPolicy.relative(0.0)
        with pytest.raises(ValueError):
            ThresholdPolicy.statistic(1.0)


def detected_bins(mags, policy, max_count=None):
    """Bins :func:`detect_components` finds in a spectrum with these magnitudes."""
    return [c.freq_bin for c in detect_components(Spectrum(mags), policy, max_count)]


class TestDetection:
    def test_strongest_first_and_truncation(self):
        mags = np.array([0.0, 5.0, 9.0, 5.0, 1.0])
        policy = ThresholdPolicy.relative(0.5)
        assert detected_bins(mags, policy) == [2, 1, 3]
        assert detected_bins(mags, policy, max_count=2) == [2, 1]

    def test_tie_breaks_to_lower_bin(self):
        mags = np.array([4.0, 0.0, 4.0, 0.0])
        assert detected_bins(mags, ThresholdPolicy.relative(1.0)) == [0, 2]

    def test_zero_spectrum_detects_nothing(self):
        mags = np.zeros(8)
        assert detected_bins(mags, ThresholdPolicy.relative(0.5)) == []

    def test_detect_components_wraps_bins(self):
        spec = Spectrum(np.array([0.0, 3.0, 0.5, 0.0]))
        found = detect_components(spec, ThresholdPolicy.relative(0.5),
                                  params=KernelParams((7.0,)))
        assert len(found) == 1
        assert found[0].freq_bin == 1
        assert found[0].raw_magnitude == pytest.approx(3.0)
        assert found[0].phase_coeffs() == (1.0, 7.0)


# few distinct levels make ties within and across columns common
LEVELS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 4.0]) | st.floats(0.0, 8.0)


@st.composite
def ranking_cases(draw):
    """Magnitudes with ties and all-zero columns, an exclude mask, a policy."""
    shape = (draw(st.integers(1, 33)), draw(st.integers(1, 6)))
    mags = draw(arrays(np.float64, shape, elements=LEVELS))
    mags[:, draw(arrays(bool, shape[1:]))] = 0.0
    exclude = draw(arrays(bool, shape))
    policy = draw(st.sampled_from([ThresholdPolicy.relative(0.5), ThresholdPolicy.relative(1.0),
                                   ThresholdPolicy.statistic(0.5),
                                   ThresholdPolicy.statistic(0.99)]))
    return mags, exclude, policy


class TestArrayDetection:
    """One threshold pass and one ranking over an (M, G) magnitude matrix
    against per-column detection."""

    @settings(max_examples=300, deadline=None)
    @given(ranking_cases())
    def test_matches_per_column_oracle(self, detect_bins_oracle, case):
        mags, exclude, policy = case
        thresholds = policy.column_thresholds(mags)
        records = _sweep_records(ParameterGrid.single(2, range(mags.shape[1])), mags, thresholds)
        expected = []
        for g in range(mags.shape[1]):
            threshold, bins = detect_bins_oracle(mags[:, g], policy)
            assert thresholds[g] == threshold
            assert detected_bins(mags[:, g], policy) == bins
            top = (mags[bins[0], g], bins[0]) if bins else (0.0, None)
            assert (records[g].score, records[g].peak_bin) == top
            expected += [(-mags[b, g], g, b) for b in bins if not exclude[b, g]]
        bins, cols = _ranked_hits(mags, thresholds, exclude)
        assert list(zip(cols.tolist(), bins.tolist())) == [(g, b) for _, g, b in sorted(expected)]

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)),
                  elements=st.floats(-1e300, 1e300) | LEVELS))
    def test_single_kth_median_is_numpy_median(self, mags):
        assert _column_median(mags).tobytes() == np.median(mags, axis=0).tobytes()

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
        record, = grid_records(ParameterGrid(((2, (256.0,)), (3, (-32.0,)))))
        assert record.coeffs == ((2, 256.0), (3, -32.0))
        assert record.params == KernelParams((-256.0, 32.0))

    def test_missing_orders_fill_with_zero(self):
        record, = grid_records(ParameterGrid.single(3, (16.0,)))
        assert record.coeffs == ((3, 16.0),)
        assert record.params == KernelParams((0.0, -16.0))
        assert math.copysign(1.0, record.params.higher_coeffs[0]) == 1.0

    def test_cross_product_enumeration(self):
        grid = ParameterGrid(((3, (5.0, 6.0, 7.0)), (2, (0.0, 1.0))))
        assert grid.n_points == 6
        assert grid.rates.tolist() == [[0.0, 5.0], [0.0, 6.0], [0.0, 7.0],
                                       [1.0, 5.0], [1.0, 6.0], [1.0, 7.0]]
        records = grid_records(grid)
        assert [p.index for p in records] == list(range(6))
        assert [p.coeffs for p in records][::5] == [((2, 0.0), (3, 5.0)), ((2, 1.0), (3, 7.0))]
        assert records[1].params == KernelParams((-0.0, -6.0))

    def test_negative_zero_rate_keeps_its_sign(self, tmp_path):
        grid = ParameterGrid.single(2, (-0.0, 8.0))
        record = grid_records(grid)[0]
        assert math.copysign(1.0, dict(record.coeffs)[2]) == -1.0
        assert math.copysign(1.0, record.params.higher_coeffs[0]) == 1.0
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, grid_records(grid), [2])
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
        # checked before the (M, G) estimate is allocated
        monkeypatch.setattr(recovery, "MAX_ESTIMATE_CELLS", 64)
        meas = MeasurementSet(np.arange(4), np.ones(4), 32)
        assert _scatter_spectra(meas, np.ones((4, 2))).shape == (1, 32, 2)
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
        points = sweep(meas, self.grid(), ThresholdPolicy.relative(0.5))
        best = max(points, key=lambda p: p.score)
        # rate 24 demodulates the c2 = -24 component
        assert dict(best.coeffs)[2] == pytest.approx(24.0)
        assert best.peak_bin == 20

    def test_scores_scale_linearly_argmax_fixed(self):
        meas, _ = chirp_measurements(length=128, count=32, seed=2,
                                     coeffs=(20.0, -24.0))
        scaled = MeasurementSet(meas.positions, 3.0 * meas.values,
                                meas.signal_length, meas.index_origin)
        for policy in (ThresholdPolicy.relative(0.5), ThresholdPolicy.statistic(0.999)):
            base = sweep(meas, self.grid(), policy)
            other = sweep(scaled, self.grid(), policy)
            assert np.argmax([p.score for p in base]) == np.argmax(
                [p.score for p in other]
            )
            for a, b in zip(base, other):
                assert b.score == pytest.approx(3.0 * a.score, rel=1e-9)
                assert a.peak_bin == b.peak_bin

    @pytest.mark.parametrize("policy", [ThresholdPolicy.relative(0.5),
                                        ThresholdPolicy.statistic(0.999)])
    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_recover_returns_its_sweep(self, policy, scale):
        meas, _ = chirp_measurements(length=128, count=32, seed=2, coeffs=(20.0, -24.0))
        meas = MeasurementSet(meas.positions, scale * meas.values,
                              meas.signal_length, meas.index_origin)
        result = recover(meas, self.grid(), policy, RecoverConfig(pursuit="exact"))
        assert result.sweep == tuple(sweep(meas, self.grid(), policy))

    def test_no_detection_scores_zero(self):
        meas, _ = chirp_measurements(length=64, count=64, coeffs=(7.0, 16.0))
        points = sweep(meas, ParameterGrid.single(2, (16.0,)),
                       ThresholdPolicy.relative(1.0))
        assert points[0].score > 0
        zero = [p for p in points if p.score == 0.0]
        assert all(p.peak_bin is None for p in zero)


class TestRecover:
    def grid(self):
        return ParameterGrid.single(2, (0.0, 8.0, 16.0, 24.0, 32.0))

    def test_single_component_exact(self):
        meas, comp = chirp_measurements(length=64, count=24, seed=6,
                                        coeffs=(10.0, -24.0), amplitude=2.0 - 1.0j)
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5),
                         reference=synthesize_components([comp], 64))
        assert len(result.components) == 1
        found = result.components[0]
        assert found.freq_bin == 10
        assert found.params == KernelParams((-24.0,))
        assert found.corrected_amplitude == pytest.approx(2.0 - 1.0j, abs=1e-10)
        assert result.residual_energy_ratio < 1e-20
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
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5),
                         reference=samples)
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
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5),
                         config, reference=samples)
        assert result.measurement_residual_ratio < 1e-20
        assert result.residual_energy_ratio < 1e-10

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
        result = recover(meas, self.grid(), ThresholdPolicy.relative(0.5),
                         reference=samples)
        assert result.residual_energy_ratio < 1e-18
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


def _recover_or_error(meas, policy, pursuit):
    try:
        return recover(meas, ParameterGrid.single(2, SCALE_RATES), policy,
                       RecoverConfig(pursuit=pursuit))
    except RankDeficiencyError as exc:
        return exc


class TestScaleInvariance:
    """Scaling the data by ``c = 2**j`` scales every magnitude, threshold and
    amplitude exactly, so detection and pursuit decisions cannot change."""

    @settings(max_examples=60, deadline=None)
    @given(scaled_cases())
    def test_sweep_peaks_fixed_scores_scale(self, case):
        meas, scaled, factor, policy = case
        grid = ParameterGrid.single(2, SCALE_RATES)
        for a, b in zip(sweep(meas, grid, policy), sweep(scaled, grid, policy)):
            assert b.peak_bin == a.peak_bin
            assert b.score == factor * a.score

    @settings(max_examples=40, deadline=None)
    @given(scaled_cases(), st.sampled_from(["threshold", "exact"]))
    def test_recover_support_fixed_amplitudes_scale(self, case, pursuit):
        meas, scaled, factor, policy = case
        base = _recover_or_error(meas, policy, pursuit)
        other = _recover_or_error(scaled, policy, pursuit)
        if isinstance(base, RankDeficiencyError):
            assert isinstance(other, RankDeficiencyError)
            return
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
        base = _recover_or_error(meas, ThresholdPolicy.relative(0.5), "threshold")
        other = _recover_or_error(doubled, ThresholdPolicy.relative(0.5), "threshold")
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
            np.testing.assert_allclose(mags[1][:, g], np.roll(mags[0][:, g], -v), atol=tol)
        for v, a, c in zip(rates, sweep(zero, self.GRID, policy),
                           sweep(centered, self.GRID, policy)):
            assert c.score == pytest.approx(a.score, abs=tol)
            if a.peak_bin is not None:
                # a tie may take either bin; its magnitude must be the peak's
                assert mags[0][(c.peak_bin + v) % length, a.index] == pytest.approx(
                    a.score, abs=tol)

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
    """Exact pursuit ranks every positive cell, so the threshold policy only
    scores the sweep records and never changes what is recovered."""

    @settings(max_examples=60, deadline=None)
    @given(exact_cases())
    def test_components_independent_of_policy(self, case):
        meas, config = case
        grid = ParameterGrid.single(2, SCALE_RATES)
        results = []
        for policy in (ThresholdPolicy.relative(0.5), ThresholdPolicy.statistic(0.99)):
            try:
                results.append(recover(meas, grid, policy, config).components)
            except RankDeficiencyError as exc:
                results.append(str(exc))
        assert results[0] == results[1]


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
        assert all(mag == mags[b, pi] for pi, b, mag in pair)

    def test_single_candidate_returns_none(self):
        meas, _ = chirp_measurements(length=32, count=32, coeffs=(5.0,))
        kernels = _kernel_matrix(meas, ParameterGrid.single(2, (0.0,)))
        # a full-sampled tone leaves round-off in every bin, so the pool is
        # cut down to the one positive cell by hand
        mags = np.zeros((32, 1))
        mags[5, 0] = 32.0
        assert _best_pair(meas, kernels, mags) is None


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
