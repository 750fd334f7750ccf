"""Noise and Monte-Carlo analysis tests."""

import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from pftcs import (
    MultiComponentSignal,
    ParameterGrid,
    PolyPhaseComponent,
    ThresholdPolicy,
    phase_transition,
    relative_error,
    snr_db,
    snr_experiment,
    theoretical_snr_out,
)
from pftcs.analysis import _draw_components, _trial_rng, _true_support
from pftcs.config import parse_config
from pftcs.csvio import write_phase_transition_csv
from pftcs.experiments import run_experiment

# the 20-trial, seed-17 map of the bundled ex5 config
PINNED_EX5_MAP = Path(__file__).parent / "data" / "ex5_t20_s17.csv"
# the 8-trial table of the bundled ex4 config
PINNED_EX4_TABLE = Path(__file__).parent / "data" / "ex4_t8.csv"


class TestSnrDb:
    def test_known_ratio(self):
        # reference energy 4, error energy 1
        assert snr_db([2.0, 0.0], [2.0, 1.0]) == pytest.approx(
            6.020599913279624, rel=1e-12
        )

    def test_exact_estimate_is_infinite(self):
        assert snr_db([1.0, 2.0], [1.0, 2.0]) == math.inf

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            snr_db([0.0, 0.0], [1.0, 0.0])


class TestRelativeError:
    def test_known_ratio(self):
        # reference energy 4, error energy 1
        assert relative_error([2.0, 0.0], [2.0, 1j]) == 0.25

    def test_exact_estimate_is_zero(self):
        assert relative_error([1.0, 2j], [1.0, 2j]) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="reference signal has no energy"):
            relative_error([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("scale", [1e-320, 1e300])
    def test_extreme_scales(self, scale):
        # the energies underflow to 0 or overflow to inf unless scaled first
        x = scale * np.array([1.0, -3j, 2.0 + 1j])
        assert relative_error(x, x) == 0.0
        assert relative_error(x, 2 * x) == 1.0
        assert snr_db(x, 2 * x) == 0.0


class TestTheory:
    def test_frozen_values(self):
        assert theoretical_snr_out(5.0, 3, 256) == pytest.approx(
            24.31118710592187, rel=1e-12
        )
        assert theoretical_snr_out(5.0, 3, 80) == pytest.approx(
            19.25968732272281, rel=1e-12
        )
        assert theoretical_snr_out(10.0, 3, 256) == pytest.approx(
            29.31118710592187, rel=1e-12
        )
        assert theoretical_snr_out(10.0, 3, 80) == pytest.approx(
            24.25968732272281, rel=1e-12
        )

    def test_gain_depends_on_ratio_only(self):
        assert theoretical_snr_out(0.0, 2, 64) == pytest.approx(
            theoretical_snr_out(0.0, 4, 128)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_snr_out(5.0, 0, 64)


class TestTrialStreams:
    def test_deterministic(self):
        a = _trial_rng(7, (3, 1)).integers(0, 1 << 30, size=4)
        b = _trial_rng(7, (3, 1)).integers(0, 1 << 30, size=4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_per_extra(self):
        a = _trial_rng(7, (3, 1)).integers(0, 1 << 30, size=4)
        b = _trial_rng(7, (3, 2)).integers(0, 1 << 30, size=4)
        assert not np.array_equal(a, b)

    def test_tuple_seed(self):
        a = _trial_rng((7, 0), (1,)).integers(0, 1 << 30, size=4)
        b = _trial_rng((7, 0), (1,)).integers(0, 1 << 30, size=4)
        np.testing.assert_array_equal(a, b)


class TestTrueSupport:
    def test_bins_reduce_modulo_length(self):
        sig = MultiComponentSignal(
            (
                PolyPhaseComponent(1.0, (-128.0, -256.0)),
                PolyPhaseComponent(1.0, (128.0, -256.0)),
            ),
            1024,
        )
        assert _true_support(sig) == frozenset(
            {(896, (-256.0,)), (128, (-256.0,))}
        )

    def test_non_integer_bin_rejected(self):
        sig = MultiComponentSignal((PolyPhaseComponent(1.0, (3.5,)),), 64)
        with pytest.raises(ValueError):
            _true_support(sig)


class TestDrawComponents:
    def test_distinct_pairs_unit_amplitude(self):
        rng = np.random.default_rng(0)
        rates = (0.0, 64.0, 128.0)
        comps = _draw_components(rng, 8, 128, rates)
        assert len(comps) == 8
        pairs = {(c.phase_coeffs[0], c.phase_coeffs[1]) for c in comps}
        assert len(pairs) == 8
        for c in comps:
            assert c.amplitude == 1.0
            assert -c.phase_coeffs[1] in rates


class TestSnrExperiment:
    def make_case(self):
        signal = MultiComponentSignal(
            (PolyPhaseComponent(1.0, (8.0, -32.0)),), 64
        )
        grid = ParameterGrid.single(2, (0.0, 32.0))
        # a relative policy would pass each grid point's own peak every
        # round, flooding noisy supports; the statistic policy only fires
        # above the interference floor
        policy = ThresholdPolicy.statistic(0.999)
        return signal, grid, policy

    def test_report_shape_and_theory(self):
        signal, grid, policy = self.make_case()
        report = snr_experiment(signal, 15.0, 32, grid, policy, trials=6, seed=3)
        assert report.trials == 6
        assert report.k_components == 1
        assert report.n_measurements == 32
        assert report.failures < report.trials
        assert len(report.per_trial_db) == report.trials - report.failures
        assert report.snr_out_theory_db == pytest.approx(
            theoretical_snr_out(15.0, 1, 32)
        )
        # generous window: tiny ensembles scatter a few dB
        assert abs(report.snr_out_measured_db - report.snr_out_theory_db) < 4.0

    def test_deterministic(self):
        signal, grid, policy = self.make_case()
        a = snr_experiment(signal, 10.0, 24, grid, policy, trials=5, seed=9)
        b = snr_experiment(signal, 10.0, 24, grid, policy, trials=5, seed=9)
        np.testing.assert_equal(a.snr_out_measured_db, b.snr_out_measured_db)
        assert a.failures == b.failures
        assert a.per_trial_db == b.per_trial_db

    def test_pinned_ex4_table(self, tmp_path):
        # every trial admits from a threshold-mode scan of 41 rates at
        # M = 1024, so a change in any estimate bit that moves a detection
        # or an amplitude moves the table
        with resources.as_file(resources.files("pftcs").joinpath("configs", "ex4.cfg")) as path:
            config = parse_config(path)
        run_experiment(replace(config, trials=8), str(tmp_path))
        assert (tmp_path / "snr_table.csv").read_bytes() == PINNED_EX4_TABLE.read_bytes()

    def test_trial_count_validation(self):
        signal, grid, policy = self.make_case()
        with pytest.raises(ValueError):
            snr_experiment(signal, 10.0, 24, grid, policy, trials=0, seed=1)


class TestPhaseTransition:
    def test_easy_cell_succeeds_hard_cell_fails(self):
        grid = phase_transition((1,), (2, 16), trials=6, seed=5, length=32,
                                rate_values=(0.0, 16.0))
        assert grid.fraction(1, 16) == 1.0
        assert 0.0 <= grid.fraction(1, 2) <= 1.0

    def test_deterministic(self):
        kwargs = dict(trials=4, seed=11, length=32, rate_values=(0.0, 16.0))
        a = phase_transition((1, 2), (4, 12), **kwargs)
        b = phase_transition((1, 2), (4, 12), **kwargs)
        np.testing.assert_array_equal(a.success, b.success)

    def test_cells_independent_of_grid_shape(self):
        # trial streams are keyed by (seed, K, N, trial), so a cell's value
        # does not depend on which other cells run alongside it
        kwargs = dict(trials=4, seed=11, length=32, rate_values=(0.0, 16.0))
        full = phase_transition((1, 2), (4, 12), **kwargs)
        alone = phase_transition((2,), (12,), **kwargs)
        assert full.fraction(2, 12) == alone.fraction(2, 12)

    def test_default_rates(self):
        grid = phase_transition((1,), (8,), trials=2, seed=1, length=32)
        assert grid.rate_values == tuple(16.0 * i for i in range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_transition((1,), (8,), trials=0, seed=1, length=32)
        with pytest.raises(ValueError):
            phase_transition((0,), (8,), trials=2, seed=1, length=32)
        with pytest.raises(ValueError):
            phase_transition((1,), (64,), trials=2, seed=1, length=32)

    def test_more_components_than_pairs_rejected(self):
        # 16 bins times 2 rates hold only 32 distinct (bin, rate) pairs
        kwargs = dict(trials=1, seed=0, length=16, rate_values=(0.0, 8.0))
        assert phase_transition((32,), (4,), **kwargs).k_values == (32,)
        with pytest.raises(ValueError, match="components: 33 "):
            phase_transition((33,), (4,), **kwargs)

    def test_pinned_ex5_map(self, tmp_path):
        # every cell is a count of exact-pursuit successes, so a change in any
        # admission, restart or prune decision on these trials moves a cell
        grid = phase_transition((2, 4, 8, 16), (4, 8, 12, 16, 24, 32, 48, 64, 96),
                                trials=20, seed=17)
        write_phase_transition_csv(tmp_path / "map.csv", grid)
        assert (tmp_path / "map.csv").read_bytes() == PINNED_EX5_MAP.read_bytes()

    def test_fraction_accessor(self):
        grid = phase_transition((1,), (4, 8), trials=2, seed=2, length=32,
                                rate_values=(0.0, 16.0))
        assert grid.fraction(1, 4) == grid.success[0, 0]
        assert grid.fraction(1, 8) == grid.success[0, 1]
