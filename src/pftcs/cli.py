"""Command-line interface.

Every command reads an INI experiment config, runs the requested stage,
writes CSV artifacts into the output directory, and prints a short
summary.  Exit codes: 0 success, 2 configuration problems, 3 numerical or
computation failures, 4 I/O failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from .config import ConfigError, parse_config
from .csvio import (
    write_measurements_csv,
    write_signal_csv,
    write_sweep_csv,
)
from .experiments import (
    run_experiment,
    synthesize_config_signal,
    _measure,
    _top_lines,
)
from .lpft import lpft_sweep
from .model import apply_noise
from .recovery import sweep

EXAMPLES = ("ex1", "ex2", "ex3", "ex4", "ex5")

_COMMAND_KINDS = {
    "recover": ("sweep-recover",),
    "lpft": ("lpft-recover",),
    "snr-table": ("snr-table",),
    "phase-transition": ("phase-transition",),
    "synth": ("sweep-recover", "lpft-recover", "snr-table"),
    "sample": ("sweep-recover", "lpft-recover"),
    "sweep": ("sweep-recover", "lpft-recover"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pftcs",
        description="Sparse recovery of polynomial-phase signals over chirp-rate sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True, stage=False):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        if not stage:  # only full experiments write plot.gp
            p.add_argument("--plot-script", action="store_true",
                           help="also write a gnuplot script for the artifacts")
        return p

    add("synth", "synthesize the configured signal to signal.csv", stage=True)
    add("sample", "synthesize, apply noise, and write the measurement set", stage=True)
    add("sweep", "run the rate sweep only and write sweep.csv", stage=True)
    add("recover", "full sweep + detection + amplitude-corrected reconstruction")
    add("lpft", "window-by-window recovery of a piecewise signal")
    add("snr-table", "Monte-Carlo input/output SNR table")
    add("phase-transition", "Monte-Carlo exact-recovery success map")
    example = add("example", "run a bundled example config end to end", needs_config=False)
    example.add_argument("name", choices=EXAMPLES, help="bundled example name")
    return parser


def _bundled_config_path(name: str):
    return resources.files("pftcs").joinpath("configs", f"{name}.cfg")


def _load(args):
    if args.command == "example":
        path = _bundled_config_path(args.name)
        with resources.as_file(path) as real:
            return parse_config(real)
    return parse_config(args.config)


def _with_seed(config, seed):
    """``config`` with its seed and its noise seed set to ``seed``, unless None."""
    if seed is None:
        return config
    return replace(config, seed=seed, noise=replace(config.noise, seed=seed))


def _check_kind(command: str, kind: str):
    allowed = _COMMAND_KINDS.get(command)
    if allowed is not None and kind not in allowed:
        raise ConfigError(
            f"command {command!r} needs an experiment kind in {allowed}, got {kind!r}"
        )


def _run_stage(args, config) -> list:
    os.makedirs(args.out, exist_ok=True)
    clean = synthesize_config_signal(config)
    lines = []
    if args.command == "synth":
        path = os.path.join(args.out, "signal.csv")
        write_signal_csv(path, clean, config.index_origin)
        lines.append(f"wrote {path} ({config.signal_length} samples)")
        return lines
    samples, achieved = apply_noise(clean, config.noise)
    meas = _measure(config, samples)
    sig_path = os.path.join(args.out, "signal.csv")
    meas_path = os.path.join(args.out, "measurements.csv")
    write_signal_csv(sig_path, clean, config.index_origin)
    write_measurements_csv(meas_path, meas)
    lines.append(f"wrote {sig_path} and {meas_path} "
                 f"({meas.count} of {config.signal_length} samples kept)")
    if config.noise.kind != "none":
        lines.append(f"input SNR achieved: {achieved:.4f} dB")
    if args.command == "sample":
        return lines
    if config.kind == "lpft-recover":
        swept = lpft_sweep(meas, config.grid, config.window, config.policy)
    else:
        swept = sweep(meas, config.grid, config.policy)
    sweep_path = os.path.join(args.out, "sweep.csv")
    write_sweep_csv(sweep_path, swept)
    lines.append(f"wrote {sweep_path}")
    return lines + _top_lines(swept, 5)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _with_seed(_load(args), args.seed)
        _check_kind(args.command, config.kind)
        if args.command in ("synth", "sample", "sweep"):
            for line in _run_stage(args, config):
                print(line)
            return 0
        outcome = run_experiment(config, args.out, plot_script=args.plot_script)
        title = outcome.kind if not outcome.label else f"{outcome.kind}: {outcome.label}"
        print(title)
        for line in outcome.summary:
            print(line)
        for path in outcome.files:
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
