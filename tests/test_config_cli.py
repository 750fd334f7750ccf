"""Config grammar and command-line behaviour: parsing, errors, exit codes."""

import os
from importlib import resources

import pytest

from pftcs import cli, recovery
from pftcs.config import ConfigError, parse_config, parse_config_string
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

TINY = {"recover": TINY_RECOVER, "lpft": TINY_LPFT, "snr": TINY_SNR, "pt": TINY_PT}


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
        assert config.snr_counts == (32,)
        assert config.snr_trials == 2
        assert config.snr_seed == 7

    def test_phase_transition_fields(self):
        config = parse_config_string(TINY_PT)
        assert config.pt_length == 32
        assert config.pt_components == (1,)
        assert config.pt_counts == (4, 8)
        assert config.pt_trials == 2
        assert config.pt_rates == (0.0, 16.0)

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
        config = parse_config_string(text)
        assert config.sampling_count is None
        assert config.sampling_fraction == 0.25


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
        assert parse_config_string(TINY_PT).pt_rates == (0.0, 16.0)
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

        assert components(TINY_PT, 64).pt_components == (64,)
        with pytest.raises(ConfigError, match=r"\[phase_transition\] components: 65 "):
            components(TINY_PT, 65)
        no_rates = TINY_PT.replace("rates = 0 16\n", "")
        assert components(no_rates, 256).pt_components == (256,)
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

    def test_window_must_divide_length(self):
        text = TINY_LPFT.replace("window = 16", "window = 24")
        with pytest.raises(ConfigError, match="divide"):
            parse_config_string(text)

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
        assert parse_config_string(text).sampling_fraction == 0.008

    @pytest.mark.parametrize("origin", ["5", "-31"])
    def test_snr_table_origin_rejected(self, origin):
        text = TINY_SNR.replace("length = 64\n", f"length = 64\norigin = {origin}\n")
        with pytest.raises(ConfigError, match=r"\[signal\] origin"):
            parse_config_string(text)

    @pytest.mark.parametrize("origin, expected", [("centered", -32), ("-32", -32)])
    def test_snr_table_origin_accepted(self, origin, expected):
        text = TINY_SNR.replace("length = 64\n", f"length = 64\norigin = {origin}\n")
        assert parse_config_string(text).index_origin == expected


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


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
