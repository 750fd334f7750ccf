"""CSV artifact tests: round-trips, byte stability, file vocabulary."""

import cmath
import csv
import io
import math
import os
import tempfile
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    PhaseTransitionGrid,
    SnrReport,
    WindowAssignment,
    parse_config,
    run_experiment,
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

    def test_mixed_coefficient_counts_write_missing_as_zero(self, tmp_path):
        comps = [DetectedComponent(KernelParams((1.0,)), 3, 5.0, 1.0 + 0j),
                 DetectedComponent(KernelParams((1.0, 2.0)), 7, 6.0, 0.5 - 1j)]
        path = tmp_path / "components.csv"
        csvio.write_components_csv(path, comps)
        assert path.read_text().splitlines()[1] == "3,1.0,0.0,5.0,1.0,0.0"
        back = csvio.read_components_csv(path)
        assert back == [DetectedComponent(KernelParams((1.0, 0.0)), 3, 5.0, 1.0 + 0j),
                        comps[1]]


class TestSpectrogramCsv:
    def test_round_trip(self, tmp_path, sample_measurements):
        meas, _ = sample_measurements
        spect = lpft_cs_estimate(meas, KernelParams((-24.0,)), 16)
        path = tmp_path / "spectrogram.csv"
        csvio.write_spectrogram_csv(path, spect)
        back = csvio.read_spectrogram_csv(path)
        assert back.dtype == spect.dtype and back.shape == spect.shape
        assert back.tobytes() == spect.tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:2] + rows[3:], r"missing cell \(window 0, bin 2\)"),
        (lambda rows: rows + rows[5:6], r"repeated cell \(window 1, bin 1\)"),
        (lambda rows: rows[:1] + [["-1", "0", "1.0", "0.0", "1.0"]] + rows[1:],
         "negative"),
    ], ids=["deleted-row", "repeated-row", "negative-index"])
    def test_every_cell_exactly_once(self, tmp_path, edit, message):
        path = tmp_path / "spectrogram.csv"
        csvio.write_spectrogram_csv(path, np.arange(8.0).reshape(2, 4) + 1j)
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        path.write_text("\n".join([lines[0]] + [",".join(r) for r in edit(rows)]) + "\n")
        with pytest.raises(ValueError, match=message):
            csvio.read_spectrogram_csv(path)


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


# Edge floats every writer must render like ``repr``: signed zero,
# subnormals, the exponent switch points of repr, and the non-finite values.
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -2.5e-310, 1e-05, 1e+16, 1.5e308,
               math.inf, -math.inf, math.nan)
any_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS[:6]), st.floats(-1e300, 1e300))


def complex_array(parts):
    values = np.empty(len(parts), dtype=np.complex128)
    values.real = [re for re, _ in parts]
    values.imag = [im for _, im in parts]
    return values


complex_lists = st.lists(st.tuples(any_floats, any_floats), max_size=40).map(complex_array)


def complex_blocks(shape):
    size = shape[0] * shape[1]
    return st.lists(st.tuples(any_floats, any_floats), min_size=size, max_size=size).map(
        lambda parts: complex_array(parts).reshape(shape))


# a modulus that overflows leaves errno set for the NaN modulus before it
NAN_THEN_OVERFLOW = complex_array([(-0.0, math.nan), (1.5e308, 1.5e308)])


def cell(value):
    return repr(float(value))


def magnitude(value):
    value = complex(value)
    # C99's modulus; abs() would read a stale errno here, and raise
    if cmath.isnan(value) and not cmath.isinf(value):
        return "nan"
    try:
        return cell(abs(value))
    except OverflowError:  # the modulus of a finite value can exceed every double
        return "inf"


def reference(header, rows):
    """The byte format: ``csv.writer``'s default dialect over text cells."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


def written(write, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write(path, *args)
        assert os.listdir(tmp) == ["out.csv"]
        return file_bytes(path)


class TestByteFormatOracle:
    """Every writer emits exactly the bytes of the row-by-row reference."""

    @settings(max_examples=60, deadline=None)
    @given(complex_lists, st.integers(-100, 100))
    def test_signal(self, samples, origin):
        expected = reference(["index", "re", "im"],
                             [[origin + k, cell(v.real), cell(v.imag)]
                              for k, v in enumerate(samples)])
        assert written(csvio.write_signal_csv, samples, origin) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(0, 63), min_size=1, max_size=20),
           st.lists(st.tuples(finite_floats, finite_floats), min_size=20, max_size=20))
    def test_measurements(self, positions, parts):
        positions = sorted(positions)
        meas = MeasurementSet(positions, complex_array(parts[:len(positions)]), 64, 0)
        expected = reference(["position", "re", "im", "signal_length", "index_origin"],
                             [[p, cell(v.real), cell(v.imag), 64, 0]
                              for p, v in zip(positions, meas.values)])
        assert written(csvio.write_measurements_csv, meas) == expected

    @settings(max_examples=60, deadline=None)
    @given(complex_lists.filter(len))
    @example(NAN_THEN_OVERFLOW)
    def test_spectrum(self, coeffs):
        expected = reference(["bin", "re", "im", "magnitude"],
                             [[k, cell(v.real), cell(v.imag), magnitude(v)]
                              for k, v in enumerate(coeffs)])
        assert written(csvio.write_spectrum_csv, Spectrum(coeffs)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sweep(self, data):
        rates = st.lists(finite_floats, min_size=1, max_size=4, unique=True).map(sorted)
        grid = ParameterGrid(((2, data.draw(rates)), (3, data.draw(rates))))
        size = grid.n_points
        scores = data.draw(st.lists(any_floats, min_size=size, max_size=size))
        peaks = data.draw(st.lists(st.integers(-1, 100), min_size=size, max_size=size))
        expected = reference(
            ["grid_index", "rate_p2", "rate_p3", "peak_magnitude", "peak_bin"],
            [[g + 1, cell(r2), cell(r3), cell(score), "" if peak < 0 else peak]
             for g, ((r2, r3), score, peak) in enumerate(zip(grid.rates, scores, peaks))])
        found = SweepResult(grid, np.array(scores), np.array(peaks))
        assert written(csvio.write_sweep_csv, found) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2), st.data())
    def test_components(self, n_higher, data):
        component = st.builds(
            DetectedComponent,
            st.lists(finite_floats, min_size=n_higher, max_size=n_higher).map(KernelParams),
            st.integers(0, 1024),
            st.floats(min_value=0.0, exclude_min=True),
            st.one_of(st.none(), st.builds(complex, any_floats, any_floats)),
        )
        comps = data.draw(st.lists(component, max_size=6))
        orders = range(2, n_higher + 2) if comps else ()
        rows = []
        for c in comps:
            amp = c.corrected_amplitude or 0j
            rows.append([c.freq_bin, *[cell(c.params.full_coeffs()[o - 1]) for o in orders],
                         cell(c.raw_magnitude), cell(amp.real), cell(amp.imag)])
        expected = reference(["freq_bin", *[f"coeff_p{o}" for o in orders],
                              "raw_magnitude", "amplitude_re", "amplitude_im"], rows)
        assert written(csvio.write_components_csv, comps) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 8)).flatmap(complex_blocks))
    @example(NAN_THEN_OVERFLOW.reshape(1, 2))
    def test_spectrogram(self, blocks):
        n_windows, _ = blocks.shape
        expected = reference(["window_index", "bin", "re", "im", "magnitude"],
                             [[b, k, cell(v.real), cell(v.imag), magnitude(v)]
                              for b in range(n_windows) for k, v in enumerate(blocks[b])])
        assert written(csvio.write_spectrogram_csv, blocks) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(0, 40)),
        st.one_of(st.none(), any_floats),
        st.lists(st.tuples(st.integers(0, 63), st.builds(complex, any_floats, any_floats)),
                 max_size=3),
    ), max_size=6))
    def test_assignments(self, drawn):
        rows = [WindowAssignment(b, 16 * b, g, None, tuple(k for k, _ in fits),
                                 tuple(a for _, a in fits), ratio)
                for b, (g, ratio, fits) in enumerate(drawn)]
        expected = reference(
            ["window_index", "start", "grid_index", "residual_ratio",
             "bins", "amplitude_re", "amplitude_im"],
            [[a.window_index, a.start, "" if a.grid_index is None else a.grid_index + 1,
              "" if a.residual_ratio is None else cell(a.residual_ratio),
              ";".join(str(k) for k in a.bins),
              ";".join(cell(amp.real) for amp in a.amplitudes),
              ";".join(cell(amp.imag) for amp in a.amplitudes)] for a in rows])
        written_bytes = written(csvio.write_assignments_csv, SimpleNamespace(assignments=rows))
        assert written_bytes == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_phase_transition(self, n_k, n_n, data):
        success = np.array(data.draw(st.lists(any_floats, min_size=n_k * n_n,
                                              max_size=n_k * n_n))).reshape(n_k, n_n)
        k_values = tuple(range(1, n_k + 1))
        n_values = tuple(range(4, 4 * n_n + 1, 4))
        grid = PhaseTransitionGrid(k_values, n_values, success, 1, 64, (0.0,), 0)
        expected = reference(["components", "measurements", "success_fraction"],
                             [[k, n, cell(success[i, j])] for i, k in enumerate(k_values)
                              for j, n in enumerate(n_values)])
        assert written(csvio.write_phase_transition_csv, grid) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(any_floats, st.integers(1, 1024), st.integers(1, 8),
                              st.integers(0, 1000), any_floats, any_floats), max_size=5))
    def test_snr_table(self, drawn):
        reports = [SnrReport(snr, n, k, trials, trials // 3, theory, measured, ())
                   for snr, n, k, trials, theory, measured in drawn]
        expected = reference(csvio._SNR_HEADER,
                             [[cell(r.snr_in_db), r.n_measurements, r.k_components, r.trials,
                               r.failures, cell(r.snr_out_theory_db),
                               cell(r.snr_out_measured_db)] for r in reports])
        assert written(csvio.write_snr_table_csv, reports) == expected


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_bundled_example_reruns_are_byte_identical(tmp_path, name):
    with resources.as_file(resources.files("pftcs").joinpath("configs", f"{name}.cfg")) as path:
        config = parse_config(path)
    run_experiment(config, str(tmp_path / "first"))
    run_experiment(config, str(tmp_path / "second"))
    names = sorted(os.listdir(tmp_path / "first"))
    assert names == sorted(os.listdir(tmp_path / "second"))
    assert len(names) >= 6
    for n in names:
        assert file_bytes(tmp_path / "first" / n) == file_bytes(tmp_path / "second" / n), n
