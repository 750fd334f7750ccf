"""CSV artifact tests: round-trips, byte stability, file vocabulary."""

import numpy as np
import pytest

from pftcs import (
    DetectedComponent,
    KernelParams,
    MeasurementSet,
    ParameterGrid,
    PolyPhaseComponent,
    Spectrum,
    SweepResult,
    ThresholdPolicy,
    lpft_cs_estimate,
    lpft_recover,
    phase_transition,
    select_measurements,
    snr_experiment,
    sweep,
    synthesize_components,
    MultiComponentSignal,
)
from pftcs import csvio


def file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture
def sample_measurements():
    comp = PolyPhaseComponent(1.0 - 0.25j, (10.0, -24.0))
    samples = synthesize_components([comp], 64, index_origin=-32)
    positions = select_measurements(64, 20, index_origin=-32, seed=6)
    return MeasurementSet.from_samples(samples, positions, 64, -32), samples


class TestSignalCsv:
    def test_round_trip(self, tmp_path, sample_measurements):
        _, samples = sample_measurements
        path = tmp_path / "signal.csv"
        csvio.write_signal_csv(path, samples, index_origin=-32)
        back, origin = csvio.read_signal_csv(path)
        assert origin == -32
        np.testing.assert_array_equal(back, samples)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            csvio.read_signal_csv(path)

    def test_byte_identical_rewrites(self, tmp_path, sample_measurements):
        _, samples = sample_measurements
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        csvio.write_signal_csv(first, samples, -32)
        csvio.write_signal_csv(second, samples, -32)
        assert file_bytes(first) == file_bytes(second)

    def test_no_temp_files_left(self, tmp_path, sample_measurements):
        _, samples = sample_measurements
        csvio.write_signal_csv(tmp_path / "signal.csv", samples)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".csvtmp"]
        assert leftovers == []


class TestMeasurementsCsv:
    def test_round_trip(self, tmp_path, sample_measurements):
        meas, _ = sample_measurements
        path = tmp_path / "meas.csv"
        csvio.write_measurements_csv(path, meas)
        back = csvio.read_measurements_csv(path)
        np.testing.assert_array_equal(back.positions, meas.positions)
        np.testing.assert_array_equal(back.values, meas.values)
        assert back.signal_length == meas.signal_length
        assert back.index_origin == meas.index_origin


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        spec = Spectrum(rng.normal(size=16) + 1j * rng.normal(size=16))
        path = tmp_path / "spec.csv"
        csvio.write_spectrum_csv(path, spec)
        back = csvio.read_spectrum_csv(path)
        np.testing.assert_array_equal(back.coeffs, spec.coeffs)


class TestSweepCsv:
    def make_sweep(self, sample_measurements):
        meas, _ = sample_measurements
        grid = ParameterGrid.single(2, (0.0, 24.0, 32.0))
        return sweep(meas, grid, ThresholdPolicy.relative(0.5))

    def test_round_trip(self, tmp_path, sample_measurements):
        found = self.make_sweep(sample_measurements)
        path = tmp_path / "sweep.csv"
        csvio.write_sweep_csv(path, found)
        orders, rows = csvio.read_sweep_csv(path)
        assert orders == [2]
        assert len(rows) == found.grid.n_points
        for g, (grid_index, values, score, peak_bin) in enumerate(rows):
            assert grid_index == g + 1
            assert values == tuple(found.grid.rates[g].tolist())
            assert score == found.scores[g]
            assert peak_bin == (None if found.peaks[g] < 0 else found.peaks[g])

    def test_grid_index_is_one_based_in_file(self, tmp_path, sample_measurements):
        path = tmp_path / "sweep.csv"
        csvio.write_sweep_csv(path, self.make_sweep(sample_measurements))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("grid_index,rate_p2,")
        assert lines[1].startswith("1,")

    def test_missing_peak_bin_is_empty_cell(self, tmp_path):
        found = SweepResult(ParameterGrid.single(2, (8.0,)), np.zeros(1), np.full(1, -1))
        path = tmp_path / "sweep.csv"
        csvio.write_sweep_csv(path, found)
        _, rows = csvio.read_sweep_csv(path)
        assert rows[0][3] is None

    def test_two_order_header_and_rows(self, tmp_path):
        grid = ParameterGrid(((3, (5.0,)), (2, (-0.0, 1.0))))
        found = SweepResult(grid, np.array([0.0, 2.5]), np.array([-1, 7]))
        path = tmp_path / "sweep.csv"
        csvio.write_sweep_csv(path, found)
        assert path.read_text().splitlines() == [
            "grid_index,rate_p2,rate_p3,peak_magnitude,peak_bin",
            "1,-0.0,5.0,0.0,",
            "2,1.0,5.0,2.5,7",
        ]
        orders, rows = csvio.read_sweep_csv(path)
        assert orders == [2, 3]
        assert rows == [(1, (-0.0, 5.0), 0.0, None), (2, (1.0, 5.0), 2.5, 7)]


class TestComponentsCsv:
    def test_round_trip(self, tmp_path):
        comps = [
            DetectedComponent(KernelParams((-512.0, 16.0)), 128, 1024.0,
                              corrected_amplitude=1.0 - 0.125j),
            DetectedComponent(KernelParams((-256.0, 0.0)), 12, 88.5,
                              corrected_amplitude=0.5 + 2.0j),
        ]
        path = tmp_path / "components.csv"
        csvio.write_components_csv(path, comps)
        back = csvio.read_components_csv(path)
        assert back == comps

    def test_header_names_orders(self, tmp_path):
        comps = [DetectedComponent(KernelParams((-8.0, 2.0)), 3, 5.0, 1.0 + 0j)]
        path = tmp_path / "components.csv"
        csvio.write_components_csv(path, comps)
        header = path.read_text().splitlines()[0]
        assert header == "freq_bin,coeff_p2,coeff_p3,raw_magnitude,amplitude_re,amplitude_im"


class TestSpectrogramCsv:
    def test_round_trip(self, tmp_path, sample_measurements):
        meas, _ = sample_measurements
        spect = lpft_cs_estimate(meas, KernelParams((-24.0,)), 16)
        path = tmp_path / "spectrogram.csv"
        csvio.write_spectrogram_csv(path, spect)
        back = csvio.read_spectrogram_csv(path)
        np.testing.assert_array_equal(back, spect.blocks)


class TestAssignmentsCsv:
    def test_round_trip(self, tmp_path, sample_measurements):
        meas, _ = sample_measurements
        grid = ParameterGrid.single(2, (0.0, 24.0))
        result = lpft_recover(meas, grid, 16, ThresholdPolicy.relative(0.5))
        path = tmp_path / "assignments.csv"
        csvio.write_assignments_csv(path, result)
        rows = csvio.read_assignments_csv(path)
        assert len(rows) == len(result.assignments)
        for a, (window, start, grid_index, residual, bins, amps) in zip(
            result.assignments, rows
        ):
            assert window == a.window_index
            assert start == a.start
            assert grid_index == a.grid_index
            assert residual == a.residual_ratio
            assert bins == a.bins
            assert amps == a.amplitudes


class TestPhaseTransitionCsv:
    def test_round_trip(self, tmp_path):
        grid = phase_transition((1, 2), (4, 8, 12), trials=3, seed=2, length=32,
                                rate_values=(0.0, 16.0))
        path = tmp_path / "pt.csv"
        csvio.write_phase_transition_csv(path, grid)
        k_values, n_values, success = csvio.read_phase_transition_csv(path)
        assert k_values == (1, 2)
        assert n_values == (4, 8, 12)
        np.testing.assert_array_equal(success, grid.success)


class TestSnrTableCsv:
    def test_round_trip(self, tmp_path):
        signal = MultiComponentSignal(
            (PolyPhaseComponent(1.0, (8.0, -32.0)),), 64
        )
        grid = ParameterGrid.single(2, (0.0, 32.0))
        report = snr_experiment(signal, 12.0, 32, grid,
                                ThresholdPolicy.statistic(0.999),
                                trials=4, seed=5)
        path = tmp_path / "snr.csv"
        csvio.write_snr_table_csv(path, [report])
        back = csvio.read_snr_table_csv(path)
        assert len(back) == 1
        assert back[0].snr_in_db == report.snr_in_db
        assert back[0].n_measurements == report.n_measurements
        assert back[0].k_components == report.k_components
        assert back[0].trials == report.trials
        assert back[0].failures == report.failures
        assert back[0].snr_out_theory_db == report.snr_out_theory_db
        assert back[0].snr_out_measured_db == report.snr_out_measured_db


class TestFloatFidelity:
    def test_repr_floats_survive_round_trip(self, tmp_path):
        # shortest-repr doubles must parse back bit-for-bit
        values = np.array([1 / 3 + 1j * np.pi, np.e + 0.1j, 2.0 ** -40 + 0j])
        path = tmp_path / "signal.csv"
        csvio.write_signal_csv(path, values)
        back, _ = csvio.read_signal_csv(path)
        np.testing.assert_array_equal(back, values)
