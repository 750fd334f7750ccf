"""Config grammar and command-line behaviour: parsing, errors, exit codes."""

import math
import os
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pftcs import cli, experiments, phase_transition, recovery
from pftcs.analysis import snr_experiment, snr_table_cells
from pftcs.config import ConfigError, parse_config, parse_config_string
from pftcs.lpft import _check_window
from pftcs.model import MultiComponentSignal
from pftcs.recovery import ThresholdPolicy

TINY_RECOVER = """\
[experiment]
kind = sweep-recover
label = tiny

[signal]
length = 64
origin = zero

[component.1]
amplitude = 1
coeffs = 10 -24

[sampling]
count = 24
seed = 8

[grid]
degree = 2
values = 0 24 32

[policy]
kind = missing-sample-statistic
confidence = 0.999
"""

TINY_LPFT = """\
[experiment]
kind = lpft-recover

[signal]
length = 64

[piece.1]
coeffs = 16 -32
start = 0
stop = 32

[piece.2]
coeffs = 0 -56
start = 32
stop = 64

[lpft]
window = 16

[sampling]
count = 8
per_window = true
seed = 3

[grid]
degree = 2
values = 32 56

[policy]
kind = relative-to-max
ratio = 0.5
"""

TINY_SNR = """\
[experiment]
kind = snr-table

[signal]
length = 64

[component.1]
coeffs = 8 -32

[grid]
degree = 2
values = 0 32

[policy]
kind = missing-sample-statistic
confidence = 0.999

[snr_table]
snr_in_db = 10
counts = 32
trials = 2
seed = 7
"""

TINY_PT = """\
[experiment]
kind = phase-transition

[phase_transition]
length = 32
components = 1
counts = 4 8
trials = 2
seed = 2
rates = 0 16
"""

# sweep-recover with an independent 4-sample mask in each 16-sample window
PER_WINDOW_RECOVER = TINY_RECOVER.replace(
    "count = 24", "count = 4\nper_window = true") + "\n[lpft]\nwindow = 16\n"

# TINY_PT's values, as phase_transition arguments; None leaves rates unset
PT_ARGS = {"length": 32, "components": (1,), "counts": (4, 8), "trials": 2,
           "rates": (0.0, 16.0)}

BAD_PHASE_TRANSITION = [
    pytest.param({"components": (0,)}, "components", id="components-zero"),
    pytest.param({"components": (1, -2)}, "components", id="components-negative"),
    pytest.param({"components": ()}, "components", id="components-empty"),
    pytest.param({"components": (65,)}, "components", id="components-over-pairs"),
    pytest.param({"components": (257,), "rates": None}, "components",
                 id="components-over-default-pairs"),
    pytest.param({"counts": ()}, "counts", id="counts-empty"),
    pytest.param({"counts": (1, 8)}, "counts", id="counts-below-2"),
    pytest.param({"counts": (4, 33)}, "counts", id="counts-over-length"),
    pytest.param({"rates": (16.0, 0.0)}, "rates", id="rates-decreasing"),
    pytest.param({"rates": (0.0, math.nan)}, "rates", id="rates-nan"),
    pytest.param({"rates": (0.0, math.inf)}, "rates", id="rates-inf"),
    pytest.param({"rates": ()}, "rates", id="rates-empty"),
    pytest.param({"length": 2 ** 22, "rates": None}, "length and rates",
                 id="cells-over-cap"),
    pytest.param({"trials": 0}, "trials", id="trials-zero"),
]


def with_origin(text, origin):
    """``text`` with its ``[signal] origin`` set to ``origin``."""
    if "origin = zero" in text:
        return text.replace("origin = zero", f"origin = {origin}")
    return text.replace("length = 64\n", f"length = 64\norigin = {origin}\n")


TINY = {"recover": TINY_RECOVER, "lpft": TINY_LPFT, "snr": TINY_SNR, "pt": TINY_PT,
        "per_window": PER_WINDOW_RECOVER}

# Two equal chirps on a 5-point grid; AMP is replaced by the amplitude.
TWO_CHIRPS = """\
[experiment]
kind = sweep-recover

[signal]
length = 64

[component.1]
amplitude = AMP
coeffs = 10 -24

[component.2]
amplitude = AMP
coeffs = 40 8

[sampling]
count = 16
seed = 8

[grid]
degree = 2
values = -24 -8 0 8 24

[policy]
kind = relative-to-max
ratio = 0.5
"""

# Two components that cancel exactly: the clean reference has zero energy.
CANCELLING = """\
[signal]
length = 64

[component.1]
amplitude = 1
coeffs = 3 8

[component.2]
amplitude = -1
coeffs = 3 8

[sampling]
count = 16
seed = 1

[grid]
degree = 2
values = -8 0 8

[policy]
kind = relative-to-max
ratio = 0.5
"""

BAD_SNR_TABLE = [
    ("counts = 32", "counts = 0", "counts"),
    ("counts = 32", "counts = -3", "counts"),
    ("counts = 32", "counts = 65", "counts"),
    ("counts = 32", "counts =", "counts"),
    ("snr_in_db = 10", "snr_in_db = inf", "snr_in_db"),
    ("snr_in_db = 10", "snr_in_db = nan", "snr_in_db"),
    ("snr_in_db = 10", "snr_in_db =", "snr_in_db"),
]

JOINTLY_OVERFLOWING = ("amplitude = 1.2e153\ncoeffs = 5 8\n\n"
                       "[component.2]\namplitude = 1.2e153\ncoeffs = 9 16")

# Amplitudes whose signal energy length * |amplitude|^2 overflows at length 64.
OVERFLOWING = [
    pytest.param("recover", "[component.1]\namplitude = 1", "[component.1]\namplitude = 1e308",
                 "component.1", id="real"),
    pytest.param("recover", "[component.1]\namplitude = 1", "[component.1]\namplitude = 2e153j",
                 "component.1", id="imaginary"),
    pytest.param("lpft", "[piece.2]\n", "[piece.2]\namplitude = -1e200\n", "piece.2",
                 id="piece"),
    pytest.param("snr", "[component.1]\n", "[component.1]\namplitude = 1e154+1e154j\n",
                 "component.1", id="snr-table"),
    # each alone is finite (64 * 1.2e153^2 = 9.2e307), their sum is not
    pytest.param("recover", "amplitude = 1\ncoeffs = 10 -24", JOINTLY_OVERFLOWING,
                 "component.2", id="joint"),
]

# Phase coefficients whose sum of magnitudes, the largest phase in cycles,
# is above 2**32: a double then keeps at most 20 bits of the phase fraction.
HUGE_COEFFS = [
    pytest.param("recover", "coeffs = 10 -24", "coeffs = 3 1e300", "component.1", id="component"),
    pytest.param("lpft", "coeffs = 0 -56", "coeffs = 0 -4294967297", "piece.2", id="piece"),
    pytest.param("snr", "coeffs = 8 -32", "coeffs = 8 -1e10", "component.1", id="snr-table"),
    # each term is below the bound, their sum is not
    pytest.param("recover", "coeffs = 10 -24", "coeffs = 2147483648 -2147483649",
                 "component.1", id="sum"),
]

# Subnormal amplitudes: a fit's residual ratio divides by max|measurement|.
SUBNORMAL = [
    pytest.param("recover", "[component.1]\namplitude = 1", "[component.1]\namplitude = 1e-320",
                 "component.1", id="component"),
    pytest.param("lpft", "[piece.2]\n", "[piece.2]\namplitude = 2e-310j\n", "piece.2",
                 id="piece"),
]

# Sampling that parse_config rejects: (config, old, new, message pattern).
BAD_SAMPLING = [
    pytest.param("lpft", "count = 8", "count = 40",
                 r"\[sampling\] measurement count 40 exceeds window 16", id="count-per-window"),
    pytest.param("lpft", "count = 8", "fraction = 0.02",
                 r"\[sampling\] fraction 0.02 of window 16 rounds to 0", id="fraction-per-window"),
    pytest.param("recover", "count = 24", "count = 4\nper_window = true",
                 r"missing required section \[lpft\]", id="per-window-without-lpft"),
    pytest.param("recover", "count = 24\n", "", r"\[sampling\] needs count or fraction",
                 id="no-count"),
]


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseHappyPaths:
    def test_sweep_recover_fields(self):
        config = parse_config_string(TINY_RECOVER)
        assert config.kind == "sweep-recover"
        assert config.label == "tiny"
        assert config.signal_length == 64
        assert config.index_origin == 0
        assert len(config.components) == 1
        assert config.components[0].phase_coeffs == (10.0, -24.0)
        assert config.sampling_count == 24
        assert config.seed == 8
        assert config.grid.n_points == 3
        assert config.policy == ThresholdPolicy.statistic(0.999)

    def test_centered_origin(self):
        text = TINY_RECOVER.replace("origin = zero", "origin = centered")
        assert parse_config_string(text).index_origin == -32

    def test_integer_origin(self):
        text = TINY_RECOVER.replace("origin = zero", "origin = -10")
        assert parse_config_string(text).index_origin == -10

    def test_grid_range_form(self):
        text = TINY_RECOVER.replace(
            "values = 0 24 32", "start = 0\nstop = 32\nstep = 8"
        )
        grid = parse_config_string(text).grid
        assert grid.n_points == 5
        assert grid.rates[-1].tolist() == [32.0]

    def test_lpft_pieces_sorted_and_window(self):
        config = parse_config_string(TINY_LPFT)
        assert config.kind == "lpft-recover"
        assert config.window == 16
        assert [p.start for p in config.pieces] == [0, 32]
        assert config.per_window is True
        assert config.sampling_count == 8

    def test_snr_table_fields(self):
        config = parse_config_string(TINY_SNR)
        assert config.snr_in_db == (10.0,)
        assert config.counts == (32,)
        assert config.trials == 2
        assert config.seed == 7

    def test_phase_transition_fields(self):
        config = parse_config_string(TINY_PT)
        assert config.signal_length == 32
        assert config.component_counts == (1,)
        assert config.counts == (4, 8)
        assert config.trials == 2
        assert config.grid.orders == ((2, (0.0, 16.0)),)

    def test_recover_section(self):
        text = TINY_RECOVER + "\n[recover]\nmax_components = 4\npursuit = exact\n"
        recover = parse_config_string(text).recover
        assert recover.max_components == 4
        assert recover.pursuit == "exact"

    def test_noise_section(self):
        text = TINY_RECOVER + "\n[noise]\nkind = complex-gaussian\nsnr_db = 12\nseed = 4\n"
        noise = parse_config_string(text).noise
        assert noise.kind == "complex-gaussian"
        assert noise.target_snr_db == 12.0
        assert noise.seed == 4

    def test_sampling_fraction(self):
        text = TINY_RECOVER.replace("count = 24", "fraction = 0.25")
        assert parse_config_string(text).sampling_count == 16


class TestParseErrors:
    @pytest.mark.parametrize("name", ["recover", "lpft", "snr"])
    def test_signal_length_times_grid_bounded(self, monkeypatch, name):
        # each of these tiny configs has a length-64 signal and 2-3 rates
        monkeypatch.setattr(recovery, "MAX_ESTIMATE_CELLS", 127)
        with pytest.raises(ConfigError, match=r"\[signal\] length and \[grid\]: signal length 64 "
                                              r"times [23] grid points is more than 127"):
            parse_config_string(TINY[name])

    def test_estimate_cells_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(recovery, "MAX_ESTIMATE_CELLS", 64 * 3)
        assert parse_config_string(TINY_RECOVER).grid.n_points == 3
        monkeypatch.setattr(recovery, "MAX_ESTIMATE_CELLS", 64 * 3 - 1)
        with pytest.raises(ConfigError, match="times 3 grid points is more than 191"):
            parse_config_string(TINY_RECOVER)

    def test_huge_signal_length_rejected(self):
        # 2**26 bins times 2**16 rates is 64 TiB per complex estimate
        text = TINY_RECOVER.replace("length = 64", "length = 67108864").replace(
            "values = 0 24 32", "start = 0\nstop = 65535\nstep = 1")
        with pytest.raises(ConfigError, match=r"\[signal\] length and \[grid\]"):
            parse_config_string(text)

    def test_phase_transition_cells_bounded(self, monkeypatch):
        # length 32 times 2 configured rates, or times the 8 default rates
        monkeypatch.setattr(recovery, "MAX_ESTIMATE_CELLS", 64)
        assert parse_config_string(TINY_PT).grid.orders[0][1] == (0.0, 16.0)
        with pytest.raises(ConfigError, match=r"\[phase_transition\] length and rates: "
                                              r"signal length 32 times 8 grid points"):
            parse_config_string(TINY_PT.replace("rates = 0 16\n", ""))
        monkeypatch.setattr(recovery, "MAX_ESTIMATE_CELLS", 63)
        with pytest.raises(ConfigError, match=r"\[phase_transition\] length and rates: "
                                              r"signal length 32 times 2 grid points"):
            parse_config_string(TINY_PT)

    def test_phase_transition_components_bounded_by_pairs(self):
        # 32 bins times 2 configured rates, or times the 8 default rates
        def components(text, k):
            return parse_config_string(text.replace("components = 1", f"components = {k}"))

        assert components(TINY_PT, 64).component_counts == (64,)
        with pytest.raises(ConfigError, match=r"\[phase_transition\] components: 65 "):
            components(TINY_PT, 65)
        no_rates = TINY_PT.replace("rates = 0 16\n", "")
        assert components(no_rates, 256).component_counts == (256,)
        with pytest.raises(ConfigError, match=r"\[phase_transition\] components: 257 "):
            components(no_rates, 257)

    @pytest.mark.parametrize("old, new, key", [
        ("components = 1", "components = 0", "components"),
        ("components = 1", "components = 1 -2", "components"),
        ("components = 1", "components =", "components"),
        ("counts = 4 8", "counts =", "counts"),
        ("counts = 4 8", "counts = 1 8", "counts"),
        ("rates = 0 16", "rates = 16 0", "rates"),
        ("rates = 0 16", "rates = 0 nan", "rates"),
        ("rates = 0 16", "rates = 0 inf", "rates"),
        ("rates = 0 16", "rates =", "rates"),
    ])
    def test_phase_transition_values_rejected(self, old, new, key):
        with pytest.raises(ConfigError, match=rf"\[phase_transition\] {key}: "):
            parse_config_string(TINY_PT.replace(old, new))

    @pytest.mark.parametrize("values, key", BAD_PHASE_TRANSITION)
    def test_phase_transition_rules_shared_with_library(self, values, key):
        # the parser and the library apply one rule set, so each bad input
        # raises the library's message, prefixed with the section by config
        args = {**PT_ARGS, **values}
        with pytest.raises(ValueError) as library:
            phase_transition(args["components"], args["counts"], args["trials"], seed=2,
                             length=args["length"], rate_values=args["rates"])
        assert str(library.value).startswith(key)
        text = "[experiment]\nkind = phase-transition\n\n[phase_transition]\nseed = 2\n"
        for name, value in args.items():
            if value is not None:
                words = value if isinstance(value, tuple) else (value,)
                text += f"{name} = {' '.join(map(str, words))}\n"
        with pytest.raises(ConfigError) as config:
            parse_config_string(text)
        assert str(config.value) == f"[phase_transition] {library.value}"

    @pytest.mark.parametrize("old, new, key", BAD_SNR_TABLE)
    def test_snr_table_values_rejected(self, old, new, key):
        with pytest.raises(ConfigError, match=rf"\[snr_table\] {key}: "):
            parse_config_string(TINY_SNR.replace(old, new))

    @pytest.mark.parametrize("old, new, key", BAD_SNR_TABLE + [("trials = 2", "trials = 0",
                                                                 "trials")])
    def test_snr_table_rules_shared_with_library(self, old, new, key):
        # the parser and the library apply one rule set: snr_experiment
        # raises its one cell's message, the parser the same text prefixed
        # with the section
        good = parse_config_string(TINY_SNR)
        args = {"snr_in_db": good.snr_in_db, "counts": good.counts, "trials": good.trials}
        name, _, raw = (part.strip() for part in new.partition("="))
        words = tuple(map(float if name == "snr_in_db" else int, raw.split()))
        args[name] = words[0] if name == "trials" else words
        with pytest.raises(ValueError) as library:
            snr_table_cells(args["snr_in_db"], args["counts"], args["trials"], 64)
        assert str(library.value).startswith(key)
        if args["snr_in_db"] and args["counts"]:
            signal = MultiComponentSignal(good.components, good.signal_length)
            with pytest.raises(ValueError) as cell:
                snr_experiment(signal, args["snr_in_db"][0], args["counts"][0], good.grid,
                               good.policy, args["trials"], seed=7)
            assert str(cell.value) == str(library.value)
        with pytest.raises(ConfigError) as config:
            parse_config_string(TINY_SNR.replace(old, new))
        assert str(config.value) == f"[snr_table] {library.value}"

    def test_unknown_kind(self):
        text = TINY_RECOVER.replace("kind = sweep-recover", "kind = mystery")
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config_string(text)

    def test_missing_experiment_section(self):
        with pytest.raises(ConfigError, match=r"missing required section \[experiment\]"):
            parse_config_string("[signal]\nlength = 8\n")

    def test_missing_components(self):
        text = TINY_RECOVER.replace("[component.1]", "[ignored]").replace(
            "coeffs = 10 24", "unused = 1"
        ).replace("amplitude = 1", "also_unused = 1")
        with pytest.raises(ConfigError, match="at least one"):
            parse_config_string(text)

    def test_count_and_fraction_conflict(self):
        text = TINY_RECOVER.replace("count = 24", "count = 24\nfraction = 0.5")
        with pytest.raises(ConfigError, match="either count or fraction"):
            parse_config_string(text)

    def test_count_beyond_length(self):
        text = TINY_RECOVER.replace("count = 24", "count = 65")
        with pytest.raises(ConfigError, match="exceeds signal length"):
            parse_config_string(text)

    def test_zero_count_rejected(self):
        text = TINY_RECOVER.replace("count = 24", "count = 0")
        with pytest.raises(ConfigError, match=r"\[sampling\] count"):
            parse_config_string(text)

    def test_fraction_out_of_range(self):
        text = TINY_RECOVER.replace("count = 24", "fraction = 1.5")
        with pytest.raises(ConfigError, match="fraction"):
            parse_config_string(text)

    def test_pieces_must_tile(self):
        text = TINY_LPFT.replace("start = 32", "start = 40")
        with pytest.raises(ConfigError, match="without gaps"):
            parse_config_string(text)

    def test_pieces_must_reach_end(self):
        text = TINY_LPFT.replace("stop = 64", "stop = 56")
        with pytest.raises(ConfigError, match="must end at 64"):
            parse_config_string(text)

    def test_grid_values_and_range_conflict(self):
        text = TINY_RECOVER.replace("values = 0 24 32", "values = 0 24\nstart = 0")
        with pytest.raises(ConfigError, match="not both"):
            parse_config_string(text)

    def test_grid_needs_values_or_range(self):
        text = TINY_RECOVER.replace("values = 0 24 32", "start = 0\nstop = 32")
        with pytest.raises(ConfigError, match="values or all of start/stop/step"):
            parse_config_string(text)

    def test_bad_policy_kind(self):
        text = TINY_RECOVER.replace("kind = missing-sample-statistic", "kind = magic")
        with pytest.raises(ConfigError, match=r"\[policy\]"):
            parse_config_string(text)

    def test_non_integer_length(self):
        text = TINY_RECOVER.replace("length = 64", "length = sixty")
        with pytest.raises(ConfigError, match=r"\[signal\] length: expected an integer"):
            parse_config_string(text)

    def test_bad_origin(self):
        text = TINY_RECOVER.replace("origin = zero", "origin = middle")
        with pytest.raises(ConfigError, match="origin"):
            parse_config_string(text)

    @pytest.mark.parametrize("kind", ["recover", "lpft", "snr"])
    @pytest.mark.parametrize("origin", ["1", "-65", "1000000000"])
    def test_origin_outside_phase_bound(self, kind, origin):
        # the phase bound MAX_PHASE_CYCLES holds for |m/M| <= 1, so every
        # index m in [origin, origin + length) needs origin in [-length, 0]
        with pytest.raises(ConfigError, match=r"\[signal\] origin: .* outside \[-64, 0\]"):
            parse_config_string(with_origin(TINY[kind], origin))

    @pytest.mark.parametrize("origin, expected", [("-64", -64), ("0", 0), ("-1", -1)])
    def test_origin_at_phase_bound(self, origin, expected):
        assert parse_config_string(with_origin(TINY_RECOVER, origin)).index_origin == expected

    def test_window_must_divide_length(self):
        text = TINY_LPFT.replace("window = 16", "window = 24")
        with pytest.raises(ConfigError, match="divide"):
            parse_config_string(text)

    @pytest.mark.parametrize("text, message", [
        (TINY_RECOVER + "\n[recover]\nmax_components = x\n",
         "[recover] max_components: expected an integer, got 'x'"),
        (TINY_RECOVER.replace("confidence = 0.999", "confidence = high"),
         "[policy] confidence: expected a number, got 'high'"),
    ], ids=["recover", "policy"])
    def test_unconvertible_value_named_once(self, text, message):
        # a key's own error passes through the library-error wrapper as is
        with pytest.raises(ConfigError) as error:
            parse_config_string(text)
        assert str(error.value) == message

    def test_bad_boolean(self):
        text = TINY_LPFT.replace("per_window = true", "per_window = maybe")
        with pytest.raises(ConfigError, match="expected a boolean"):
            parse_config_string(text)

    def test_pt_counts_beyond_length(self):
        text = TINY_PT.replace("counts = 4 8", "counts = 4 40")
        with pytest.raises(ConfigError, match="exceeds signal length"):
            parse_config_string(text)

    def test_snr_trials_positive(self):
        text = TINY_SNR.replace("trials = 2", "trials = 0")
        with pytest.raises(ConfigError, match="trials must be positive"):
            parse_config_string(text)

    def test_component_needs_coeffs(self):
        text = TINY_RECOVER.replace("coeffs = 10 -24\n", "")
        with pytest.raises(ConfigError, match="missing required key 'coeffs'"):
            parse_config_string(text)

    def test_zero_amplitude_rejected(self):
        text = TINY_RECOVER.replace("amplitude = 1", "amplitude = 0")
        with pytest.raises(ConfigError, match="amplitude"):
            parse_config_string(text)

    @pytest.mark.parametrize("name, old, new, section", OVERFLOWING)
    def test_overflowing_amplitude_rejected(self, name, old, new, section):
        with pytest.raises(ConfigError, match=rf"\[{section}\] amplitude: "):
            parse_config_string(TINY[name].replace(old, new))

    @pytest.mark.parametrize("name, old, new, section", HUGE_COEFFS)
    def test_huge_phase_coefficients_rejected(self, name, old, new, section):
        with pytest.raises(ConfigError, match=rf"\[{section}\] coeffs: "):
            parse_config_string(TINY[name].replace(old, new))

    def test_phase_coefficients_at_bound_accepted(self):
        text = TINY_RECOVER.replace("coeffs = 10 -24", "coeffs = 2147483648 -2147483648")
        assert parse_config_string(text).components[0].phase_coeffs == (2.0 ** 31, -2.0 ** 31)

    @pytest.mark.parametrize("name, old, new, section", SUBNORMAL)
    def test_subnormal_amplitude_rejected(self, name, old, new, section):
        with pytest.raises(ConfigError, match=rf"\[{section}\] amplitude: magnitude "):
            parse_config_string(TINY[name].replace(old, new))

    @pytest.mark.parametrize("name, old, new, message", BAD_SAMPLING)
    def test_bad_sampling_rejected(self, name, old, new, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_string(TINY[name].replace(old, new))

    def test_large_finite_energy_accepted(self):
        # 64 * (1e153)**2 = 6.4e307 is still finite
        text = TINY_RECOVER.replace("amplitude = 1", "amplitude = 1e153")
        assert parse_config_string(text).components[0].amplitude == 1e153

    def test_ini_syntax_error(self):
        with pytest.raises(ConfigError, match="INI syntax error"):
            parse_config_string("not an ini file at all\n")

    def test_max_components_must_be_integer(self):
        text = TINY_RECOVER + "\n[recover]\nmax_components = soon\n"
        with pytest.raises(ConfigError, match="max_components: expected an integer"):
            parse_config_string(text)

    @pytest.mark.parametrize("kind, section, key", [
        ("recover", "recover", "max_bins_per_point"),
        ("recover", "recover", "per_round"),
        ("recover", "recover", "prune_ratio"),
        ("recover", "recover", "per_rond"),
        ("recover", "policy", "confidance"),
        ("recover", "signal", "lenght"),
        ("recover", "component.1", "coefs"),
        ("recover", "sampling", "sed"),
        ("recover", "grid", "stpe"),
        ("recover", "noise", "snr"),
        ("lpft", "piece.2", "stopp"),
        ("lpft", "lpft", "windows"),
        ("snr", "snr_table", "trails"),
        ("pt", "experiment", "lable"),
        ("pt", "phase_transition", "rate"),
    ])
    def test_unknown_key_rejected(self, kind, section, key):
        base = TINY[kind]
        header = f"[{section}]\n"
        if header in base:
            text = base.replace(header, f"{header}{key} = 1\n")
        else:
            text = base + f"\n{header}{key} = 1\n"
        with pytest.raises(ConfigError, match=rf"\[{section}\] unknown keys: \['{key}'\]"):
            parse_config_string(text)

    @pytest.mark.parametrize("kind, section, entry", [
        ("recover", "noize", "kind = complex-gaussian\nsnr_db = 3"),
        ("lpft", "recover", "max_components = 1"),
        ("pt", "noise", "kind = complex-gaussian"),
        ("pt", "recover", "pursuit = exact"),
        ("pt", "component.1", "coeffs = 8 -32"),
        ("snr", "phase_transition", "trials = 2"),
        ("recover", "snr_table", "snr_in_db = 5\ncounts = 8\ntrials = 3"),
        ("lpft", "snr_table", "snr_in_db = 5\ncounts = 8\ntrials = 3"),
        ("snr", "noise", "kind = complex-gaussian\nsnr_db = 3"),
        ("snr", "sampling", "count = 8"),
        ("snr", "lpft", "window = 8"),
        ("recover", "lpft", "window = 16"),
        ("snr", "piece.1", "coeffs = 3 8\nstart = 0\nstop = 64"),
    ])
    def test_unread_section_rejected(self, kind, section, entry):
        # a misspelled or inapplicable section would be silently ignored
        text = TINY[kind] + f"\n[{section}]\n{entry}\n"
        with pytest.raises(ConfigError, match=rf"\[{section}\] section is not used"):
            parse_config_string(text)

    def test_grid_point_count_bounded(self):
        text = TINY_RECOVER.replace("values = 0 24 32", "start = 0\nstop = 65536\nstep = 1")
        with pytest.raises(ConfigError, match=r"\[grid\] grid range has 65537 points"):
            parse_config_string(text)

    def test_policy_key_of_other_kind_rejected(self):
        # a ratio under the statistic policy would be silently ignored
        text = TINY_RECOVER.replace("confidence = 0.999", "confidence = 0.999\nratio = 0.5")
        with pytest.raises(ConfigError, match=r"\[policy\] unknown keys: \['ratio'\]"):
            parse_config_string(text)

    def test_fraction_rounding_to_zero_rejected(self):
        text = TINY_RECOVER.replace("count = 24", "fraction = 0.001")
        with pytest.raises(ConfigError, match=r"\[sampling\] fraction"):
            parse_config_string(text)

    def test_smallest_fraction_accepted(self):
        # round(0.008 * 64) == 1 measurement
        text = TINY_RECOVER.replace("count = 24", "fraction = 0.008")
        assert parse_config_string(text).sampling_count == 1

    @pytest.mark.parametrize("origin", ["5"])
    def test_snr_table_origin_rejected(self, origin):
        text = TINY_SNR.replace("length = 64\n", f"length = 64\norigin = {origin}\n")
        with pytest.raises(ConfigError, match=r"\[signal\] origin"):
            parse_config_string(text)

    @pytest.mark.parametrize("origin, expected",
                             [("centered", -32), ("-32", -32), ("-31", -31)])
    def test_snr_table_origin_accepted(self, origin, expected):
        text = TINY_SNR.replace("length = 64\n", f"length = 64\norigin = {origin}\n")
        assert parse_config_string(text).index_origin == expected

    def test_snr_table_runs_at_any_origin(self, tmp_path):
        # snr-table takes every origin in [-length, 0], like the other kinds
        text = TINY_SNR.replace("length = 64\n", "length = 64\norigin = -31\n")
        experiments.run_experiment(parse_config_string(text), tmp_path)
        assert (tmp_path / "snr_table.csv").exists()

    @pytest.mark.parametrize("window", [1, 24, 128])
    def test_window_rule_is_lpft_rule(self, window):
        with pytest.raises(ValueError) as library:
            _check_window(window, 64)
        with pytest.raises(ConfigError) as config:
            parse_config_string(TINY_LPFT.replace("window = 16", f"window = {window}"))
        assert str(config.value) == f"[lpft] {library.value}"

    @pytest.mark.parametrize("word, value", [
        ("True", True), ("YES", True), ("1", True), ("on", True),
        ("false", False), ("No", False), ("0", False), ("OFF", False),
    ])
    def test_boolean_words(self, word, value):
        # per_window = true needs an [lpft] window, which false leaves unread
        text = (PER_WINDOW_RECOVER.replace("per_window = true", f"per_window = {word}")
                if value else
                TINY_RECOVER.replace("count = 24", f"count = 24\nper_window = {word}"))
        assert parse_config_string(text).per_window is value


class TestBundledConfigs:
    def test_all_examples_parse(self):
        kinds = {
            "ex1": "sweep-recover",
            "ex2": "sweep-recover",
            "ex3": "lpft-recover",
            "ex4": "snr-table",
            "ex5": "phase-transition",
        }
        for name in cli.EXAMPLES:
            ref = resources.files("pftcs").joinpath("configs", f"{name}.cfg")
            with resources.as_file(ref) as path:
                config = parse_config(path)
            assert config.kind == kinds[name], name


class TestCliExitCodes:
    def test_recover_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER)
        out = tmp_path / "out"
        code = cli.main(["recover", "--config", cfg, "--out", str(out)])
        assert code == 0
        for name in ("signal.csv", "measurements.csv", "sweep.csv",
                     "components.csv", "reconstruction.csv", "spectrum.csv"):
            assert (out / name).exists(), name
        assert "sweep-recover" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER.replace("kind = sweep-recover",
                                                          "kind = nonsense"))
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_estimate_cells_bound_is_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(recovery, "MAX_ESTIMATE_CELLS", 64 * 3 - 1)
        cfg = write_config(tmp_path, TINY_RECOVER)
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[signal] length and [grid]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_count_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER.replace("count = 24", "count = 0"))
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[sampling] count" in capsys.readouterr().err

    def test_unknown_key_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER.replace("confidence = 0.999",
                                                          "confidance = 0.5"))
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[policy] unknown keys: ['confidance']" in capsys.readouterr().err

    def test_unread_section_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER + "\n[noize]\nkind = complex-gaussian\n")
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[noize] section is not used" in capsys.readouterr().err

    def test_grid_too_large_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER.replace(
            "values = 0 24 32", "start = 0\nstop = 65536\nstep = 1"))
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[grid] grid range has 65537 points" in capsys.readouterr().err

    def test_zero_fraction_count_is_2(self, tmp_path, capsys):
        text = TINY_RECOVER.replace("length = 64", "length = 1024").replace(
            "count = 24", "fraction = 0.0001")
        cfg = write_config(tmp_path, text)
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[sampling] fraction" in capsys.readouterr().err

    def test_snr_table_bad_origin_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SNR.replace("length = 64\n",
                                                      "length = 64\norigin = 5\n"))
        code = cli.main(["snr-table", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[signal] origin" in capsys.readouterr().err

    @pytest.mark.parametrize("command, kind", [("recover", "recover"), ("lpft", "lpft"),
                                               ("synth", "recover"), ("sweep", "lpft")])
    def test_origin_outside_phase_bound_is_2(self, tmp_path, capsys, command, kind):
        cfg = write_config(tmp_path, with_origin(TINY[kind], "1000000000"))
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[signal] origin" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sample_of_snr_table_is_2(self, tmp_path, capsys):
        # snr-table draws its masks per trial; it has no measurement set to write
        cfg = write_config(tmp_path, TINY_SNR)
        code = cli.main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "needs an experiment kind" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("components = 1", "components = 0", "components"),
        ("components = 1", "components = 65", "components"),
        ("counts = 4 8", "counts = 1 8", "counts"),
        ("rates = 0 16", "rates = 16 0", "rates"),
    ])
    def test_phase_transition_bad_values_are_2(self, tmp_path, capsys, old, new, key):
        cfg = write_config(tmp_path, TINY_PT.replace(old, new))
        code = cli.main(["phase-transition", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"[phase_transition] {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", BAD_SNR_TABLE)
    def test_snr_table_bad_values_are_2(self, tmp_path, capsys, old, new, key):
        cfg = write_config(tmp_path, TINY_SNR.replace(old, new))
        out = tmp_path / "o"
        code = cli.main(["snr-table", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert f"[snr_table] {key}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, kind, extra", [
        ("recover", "sweep-recover", ""),
        ("lpft", "lpft-recover", "\n[lpft]\nwindow = 16\n"),
    ])
    def test_zero_energy_reference_is_3(self, tmp_path, capsys, command, kind, extra):
        cfg = write_config(tmp_path, f"[experiment]\nkind = {kind}\n\n{CANCELLING}{extra}")
        out = tmp_path / "o"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        assert code == 3
        assert "computation error: reference signal has no energy" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_overflowing_amplitude_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER.replace("amplitude = 1", "amplitude = 1e308"))
        out = tmp_path / "o"
        code = cli.main(["recover", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "[component.1] amplitude: " in capsys.readouterr().err
        assert not out.exists()

    def test_jointly_overflowing_components_are_2(self, tmp_path, capsys):
        text = TINY_RECOVER.replace("amplitude = 1\ncoeffs = 10 -24", JOINTLY_OVERFLOWING)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["recover", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "[component.2] amplitude: " in capsys.readouterr().err
        assert not out.exists()

    def test_huge_phase_coefficients_are_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER.replace("coeffs = 10 -24", "coeffs = 3 1e300"))
        out = tmp_path / "o"
        code = cli.main(["recover", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "[component.1] coeffs: " in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_amplitude_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_CHIRPS.replace("AMP", "1e-320"))
        out = tmp_path / "o"
        code = cli.main(["recover", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "[component.1] amplitude: magnitude 1e-320 " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["1e-300", "2.3e-308"])
    def test_tiny_amplitudes_recovered(self, tmp_path, capsys, amplitude):
        # the squared measurements underflow to 0 below about 1.5e-162
        cfg = write_config(tmp_path, TWO_CHIRPS.replace("AMP", amplitude))
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "component: bin 40, rate_p2 -8 (coeff 8)" in out
        assert "component: bin 10, rate_p2 24 (coeff -24)" in out
        error = re.search(r"relative reconstruction error: (\S+)", out).group(1)
        assert float(error) < 1e-20

    @pytest.mark.parametrize("name, old, new, message", BAD_SAMPLING)
    def test_bad_sampling_is_2(self, tmp_path, capsys, name, old, new, message):
        cfg = write_config(tmp_path, TINY[name].replace(old, new))
        out = tmp_path / "o"
        code = cli.main(["sample", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_missing_config_file_is_4(self, tmp_path, capsys):
        code = cli.main(["recover", "--config", str(tmp_path / "absent.cfg"),
                         "--out", str(tmp_path / "o")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_kind_mismatch_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_PT)
        code = cli.main(["recover", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "needs an experiment kind" in capsys.readouterr().err

    def test_computation_error_is_3(self, tmp_path, capsys):
        # two components cancelling exactly leave nothing to scale noise against
        text = TINY_RECOVER + (
            "\n[component.2]\namplitude = -1\ncoeffs = 10 -24\n"
            "\n[noise]\nkind = complex-gaussian\nsnr_db = 10\n"
        )
        cfg = write_config(tmp_path, text)
        code = cli.main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "computation error" in capsys.readouterr().err


class TestCliStages:
    def test_synth_writes_signal_only(self, tmp_path):
        cfg = write_config(tmp_path, TINY_RECOVER)
        out = tmp_path / "synth"
        assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "signal.csv").exists()
        assert not (out / "measurements.csv").exists()

    def test_sample_adds_measurements(self, tmp_path):
        cfg = write_config(tmp_path, TINY_RECOVER)
        out = tmp_path / "sample"
        assert cli.main(["sample", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "measurements.csv").exists()
        assert not (out / "sweep.csv").exists()

    def test_sweep_stage(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_RECOVER)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert "grid position" in capsys.readouterr().out

    def test_plot_script_flag(self, tmp_path):
        cfg = write_config(tmp_path, TINY_RECOVER)
        out = tmp_path / "plots"
        code = cli.main(["recover", "--config", cfg, "--out", str(out),
                         "--plot-script"])
        assert code == 0
        assert (out / "plot.gp").exists()

    @pytest.mark.parametrize("command", ["synth", "sample", "sweep"])
    def test_stage_commands_reject_plot_script(self, tmp_path, command):
        # the single-stage commands never write plot.gp, so the flag is unknown
        cfg = write_config(tmp_path, TINY_RECOVER)
        out = tmp_path / command
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg, "--out", str(out), "--plot-script"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_snr_table_command(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SNR)
        out = tmp_path / "snr"
        assert cli.main(["snr-table", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "snr_table.csv").exists()

    def test_phase_transition_command(self, tmp_path):
        cfg = write_config(tmp_path, TINY_PT)
        out = tmp_path / "pt"
        assert cli.main(["phase-transition", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "phase_transition.csv").exists()

    def test_example_subcommand(self, tmp_path):
        out = tmp_path / "ex1"
        assert cli.main(["example", "ex1", "--out", str(out)]) == 0
        assert (out / "components.csv").exists()


class TestCliDeterminism:
    def read_all(self, folder):
        return {name: (folder / name).read_bytes() for name in os.listdir(folder)}

    @pytest.mark.parametrize("name, command", [
        ("recover", "recover"), ("lpft", "lpft"), ("per_window", "recover"),
    ])
    def test_sweep_stage_matches_full_run(self, tmp_path, name, command):
        cfg = write_config(tmp_path, TINY[name])
        stage, full = tmp_path / "stage", tmp_path / "full"
        assert cli.main(["sweep", "--config", cfg, "--out", str(stage)]) == 0
        assert cli.main([command, "--config", cfg, "--out", str(full)]) == 0
        for file in ("signal.csv", "measurements.csv", "sweep.csv"):
            assert (stage / file).read_bytes() == (full / file).read_bytes(), file

    def test_same_config_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path, TINY_RECOVER)
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert cli.main(["recover", "--config", cfg, "--out", str(first)]) == 0
        assert cli.main(["recover", "--config", cfg, "--out", str(second)]) == 0
        assert self.read_all(first) == self.read_all(second)

    def test_seed_override_changes_mask(self, tmp_path):
        cfg = write_config(tmp_path, TINY_RECOVER)
        base = tmp_path / "base"
        moved = tmp_path / "moved"
        assert cli.main(["sample", "--config", cfg, "--out", str(base)]) == 0
        assert cli.main(["sample", "--config", cfg, "--out", str(moved),
                         "--seed", "99"]) == 0
        assert ((base / "measurements.csv").read_bytes()
                != (moved / "measurements.csv").read_bytes())

    def test_seed_reaches_snr_table_seed(self, tmp_path):
        # ex4's own seed 7 through --seed is the run without it; seed 8 is not
        text = resources.files("pftcs").joinpath("configs", "ex4.cfg").read_text()
        cfg = write_config(tmp_path, text.replace("trials = 1000", "trials = 2"))
        runs = {}
        for name, flag in (("own", []), ("seven", ["--seed", "7"]), ("eight", ["--seed", "8"])):
            out = str(tmp_path / name)
            assert cli.main(["snr-table", "--config", cfg, "--out", out] + flag) == 0
            runs[name] = (tmp_path / name / "snr_table.csv").read_bytes()
        assert runs["seven"] == runs["own"] != runs["eight"]

    def test_seed_reaches_phase_transition_seed(self, tmp_path):
        # ex5's own seed 17 through --seed writes the pinned 20-trial map
        # that the run without --seed writes; seed 18 does not
        text = resources.files("pftcs").joinpath("configs", "ex5.cfg").read_text()
        cfg = write_config(tmp_path, text.replace("trials = 200", "trials = 20"))
        pinned = os.path.join(os.path.dirname(__file__), "data", "ex5_t20_s17.csv")
        with open(pinned, "rb") as handle:
            expected = handle.read()
        for seed, same in (("17", True), ("18", False)):
            out = tmp_path / seed
            assert cli.main(["phase-transition", "--config", cfg, "--out", str(out),
                             "--seed", seed]) == 0
            assert ((out / "phase_transition.csv").read_bytes() == expected) == same

    @pytest.mark.parametrize("command", ["sweep", "recover"])
    def test_seed_override_equals_config_seed(self, tmp_path, command):
        # --seed 99 and "seed = 99" in the config are one run, for stage and
        # full commands alike
        flag = tmp_path / "flag"
        written = tmp_path / "written"
        cfg = write_config(tmp_path, TINY_RECOVER)
        assert cli.main([command, "--config", cfg, "--out", str(flag), "--seed", "99"]) == 0
        cfg = write_config(tmp_path, TINY_RECOVER.replace("seed = 8", "seed = 99"))
        assert cli.main([command, "--config", cfg, "--out", str(written)]) == 0
        assert self.read_all(flag) == self.read_all(written)


@st.composite
def sampling_cases(draw):
    """A measured config with drawn sampling, window and length, and the
    drawn count (or None) and fraction (or None)."""
    length = draw(st.sampled_from([8, 12, 16, 32, 64]))
    kind = draw(st.sampled_from(["sweep-recover", "lpft-recover"]))
    per_window = draw(st.booleans())
    window = draw(st.sampled_from([2, 4, 8, 16]) | st.integers(-1, 80))
    count = fraction = None
    if draw(st.booleans()):
        count = draw(st.integers(-1, 17) | st.integers(-2, 80))
        amount = f"count = {count}"
    else:
        fraction = draw(st.floats(0, 1) | st.floats(-0.5, 1.5) | st.just(float("nan")))
        amount = f"fraction = {fraction!r}"
    lpft = f"[lpft]\nwindow = {window}\n" if kind == "lpft-recover" or per_window else ""
    text = (f"[experiment]\nkind = {kind}\n\n"
            f"[signal]\nlength = {length}\n"
            f"origin = {draw(st.sampled_from(['zero', 'centered', '-3']))}\n\n"
            "[component.1]\ncoeffs = 3 8\n\n"
            f"[sampling]\n{amount}\nper_window = {per_window}\n"
            f"seed = {draw(st.integers(0, 2**32 - 1))}\n\n"
            "[grid]\ndegree = 2\nvalues = 0 8\n\n"
            f"[policy]\nkind = relative-to-max\n\n{lpft}")
    return text, count, fraction


class TestSamplingResolvedAtParse:
    @settings(max_examples=300, deadline=None)
    @given(sampling_cases())
    def test_parsed_sampling_is_drawable(self, case):
        # a config either fails to parse or draws its masks without error
        text, count, fraction = case
        try:
            config = parse_config_string(text)
        except ConfigError:
            return
        span = config.window if config.per_window else config.signal_length
        assert config.sampling_count == (count if fraction is None else round(fraction * span))
        meas = experiments._measure(config, experiments.synthesize_config_signal(config))
        per_span = np.bincount((meas.positions - config.index_origin) // span,
                               minlength=config.signal_length // span)
        assert per_span.tolist() == [config.sampling_count] * (config.signal_length // span)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
