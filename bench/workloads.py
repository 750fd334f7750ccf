"""The benchmark's workloads: seeded op lists, one op each, output checks.

An op is one closed-loop call into pftcs's public API.  Op ``i`` of a
workload is a pure function of ``(seed, i)``; ops rotate round-robin over
the workload's cells so every run sees the same mix.  ``run`` is the timed
part; ``check`` validates the output afterwards, untimed, and raises
:class:`Malformed` for non-finite values, wrong shapes or a missing or
unreadable CSV.  A recovery miss (wrong support, residual above tolerance,
or a rank-deficient fit inside a trial) is not malformed output: ``check``
returns it as ``hit=False``.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Inputs of the warm-up ops that end set-up, the same for every seed.
WARMUP_SEED = 0
# Seed of the reference trial set behind the quality metrics.  It does not
# follow --seed, so recovery_hit_frac and snr_out_db_mean repeat exactly in
# every run and a change in them is a change in the program.
REFERENCE_SEED = 2014


class Malformed(Exception):
    """An op returned output that fails the benchmark's shape/finite checks."""


def percentile(values, q: float) -> float:
    """``q``-th percentile with linear interpolation (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass(frozen=True)
class Op:
    index: int
    cell: str
    arg: object


@dataclass(frozen=True)
class Checked:
    hit: bool
    snr_db: float | None = None


def _bundled(pkg, name: str) -> str:
    return os.path.join(os.path.dirname(pkg.__file__), "configs", f"{name}.cfg")


def _finite(array, what: str, shape=None):
    array = np.asarray(array)
    if shape is not None and array.shape != shape:
        raise Malformed(f"{what}: shape {array.shape}, expected {shape}")
    if not np.all(np.isfinite(array)):
        raise Malformed(f"{what}: non-finite values")
    return array


class Workload:
    """Base: ``cells`` fixes the rotation; subclasses build ops and run them."""

    name = ""
    cells = ()
    reference_per_cell = 1
    trace_ops = 1

    @classmethod
    def op(cls, seed: int, index: int) -> Op:
        raise NotImplementedError

    @classmethod
    def ops(cls, seed: int, count: int) -> list:
        return [cls.op(seed, i) for i in range(count)]

    @classmethod
    def reference_ops(cls) -> list:
        return cls.ops(REFERENCE_SEED, cls.reference_per_cell * len(cls.cells))

    @classmethod
    def warmup_ops(cls) -> list:
        """One op per cell, so every input shape is seen before timing."""
        return cls.ops(WARMUP_SEED, len(cls.cells))


class SnrTrials(Workload):
    """ex4's three chirps, M=1024, 41 rates, threshold pursuit, noisy input.

    Time goes to the 1024 x 41 scatter-FFT estimate and per-column
    detection; there are only 1-2 pursuit rounds, so the refit path is
    barely exercised.
    """

    name = "snr_trials"
    cells = ((5.0, 256), (5.0, 80), (10.0, 256), (10.0, 80))
    reference_per_cell = 32
    trace_ops = 400

    @classmethod
    def op(cls, seed, index):
        c, trial = index % len(cls.cells), index // len(cls.cells)
        snr_in, n = cls.cells[c]
        return Op(index, f"snr_in={snr_in:g},N={n}", (c, (seed, c, trial)))

    def __init__(self, pkg, workdir):
        self.pkg = pkg
        cfg = pkg.config.parse_config(_bundled(pkg, "ex4"))
        self.signal = pkg.model.MultiComponentSignal(cfg.components, cfg.signal_length,
                                                     cfg.index_origin)
        self.grid, self.policy, self.recover = cfg.grid, cfg.policy, cfg.recover

    def run(self, op):
        c, seed = op.arg
        snr_in, n = self.cells[c]
        return self.pkg.analysis.snr_experiment(self.signal, snr_in, n, self.grid,
                                                self.policy, trials=1, seed=seed,
                                                config=self.recover)

    def check(self, op, report):
        snr_in, n = self.cells[op.arg[0]]
        if (report.trials, report.n_measurements, report.snr_in_db) != (1, n, snr_in):
            raise Malformed("report does not describe the requested trial")
        if report.failures not in (0, 1) or len(report.per_trial_db) != 1 - report.failures:
            raise Malformed(f"{report.failures} failures with "
                            f"{len(report.per_trial_db)} per-trial values")
        _finite(report.per_trial_db, "per-trial SNR")
        _finite(report.snr_out_theory_db, "theoretical SNR")
        if report.failures:
            return Checked(False)
        return Checked(True, float(report.per_trial_db[0]))


class PtTrials(Workload):
    """Noiseless phase-transition trials, M=128, 8 rates, exact pursuit.

    K in {2, 4, 8, 16} at N = 2K and N = 6K, the edges of the acceptance
    gate.  Time goes to refits, the complementary-style retry and
    ``_best_pair``; the N=2K cells fail slowly, so the tail follows pursuit
    depth.
    """

    name = "pt_trials"
    cells = tuple((k, n) for k in (2, 4, 8, 16) for n in (2 * k, 6 * k))
    reference_per_cell = 8
    trace_ops = 96

    @classmethod
    def op(cls, seed, index):
        c, trial = index % len(cls.cells), index // len(cls.cells)
        k, n = cls.cells[c]
        trial_seed = int(np.random.SeedSequence((seed, c, trial)).generate_state(1)[0])
        return Op(index, f"K={k},N={n}", (c, trial_seed))

    def __init__(self, pkg, workdir):
        self.pkg = pkg

    def run(self, op):
        c, trial_seed = op.arg
        k, n = self.cells[c]
        return self.pkg.analysis.phase_transition((k,), (n,), trials=1, seed=trial_seed)

    def check(self, op, grid):
        success = _finite(grid.success, "success grid", (1, 1))
        if success[0, 0] not in (0.0, 1.0):
            raise Malformed(f"one-trial success fraction {success[0, 0]}")
        return Checked(bool(success[0, 0] == 1.0))


class Examples(Workload):
    """Bundled ex1-ex3 through ``run_experiment`` under their own seeds.

    The only workload that reaches ``lpft``, ``csvio`` and ``config``.
    ex1/ex2 are dominated by CSV writing and set the median; ex3 (LPFT,
    window fits) sets the 90th percentile.  The seed only permutes each
    block of three ops.
    """

    name = "examples"
    cells = ("ex1", "ex2", "ex3")
    reference_per_cell = 1
    trace_ops = 24

    _FILES = {
        "sweep-recover": ("signal.csv", "measurements.csv", "sweep.csv",
                          "components.csv", "reconstruction.csv", "spectrum.csv"),
        "lpft-recover": ("signal.csv", "measurements.csv", "sweep.csv",
                         "assignments.csv", "reconstruction.csv", "spectrogram.csv"),
    }
    # Reconstruction error (relative energy) that counts as exact recovery.
    _TOLERANCE = {"sweep-recover": 1e-10, "lpft-recover": 1e-8}

    @classmethod
    def op(cls, seed, index):
        block = np.random.default_rng(np.random.SeedSequence((seed, index // 3)))
        name = cls.cells[int(block.permutation(3)[index % 3])]
        return Op(index, name, name)

    def __init__(self, pkg, workdir):
        self.pkg = pkg
        self.workdir = Path(workdir)
        self.paths = {name: _bundled(pkg, name) for name in self.cells}
        self.configs = {name: pkg.config.parse_config(p) for name, p in self.paths.items()}
        self._runs = 0

    def run(self, op):
        self._runs += 1
        out = self.workdir / f"op{self._runs}"
        cfg = self.pkg.config.parse_config(self.paths[op.arg])
        self.pkg.experiments.run_experiment(cfg, out)
        return out

    def check(self, op, out):
        try:
            return self._check(self.configs[op.arg], out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, cfg, out):
        csvio = self.pkg.csvio
        m_len = cfg.signal_length
        try:
            present = set(os.listdir(out))
            missing = [f for f in self._FILES[cfg.kind] if f not in present]
            if missing:
                raise Malformed(f"missing {', '.join(missing)}")
            signal, _ = csvio.read_signal_csv(out / "signal.csv")
            recon, _ = csvio.read_signal_csv(out / "reconstruction.csv")
            meas = csvio.read_measurements_csv(out / "measurements.csv")
            _, sweep_rows = csvio.read_sweep_csv(out / "sweep.csv")
            if cfg.kind == "sweep-recover":
                csvio.read_components_csv(out / "components.csv")
                spectrum = csvio.read_spectrum_csv(out / "spectrum.csv").coeffs
                _finite(spectrum, "spectrum.csv", (m_len,))
            else:
                assignments = csvio.read_assignments_csv(out / "assignments.csv")
                blocks = csvio.read_spectrogram_csv(out / "spectrogram.csv")
                n_win = m_len // cfg.window
                _finite(blocks, "spectrogram.csv", (n_win, cfg.window))
                if len(assignments) != n_win:
                    raise Malformed(f"assignments.csv has {len(assignments)} windows")
        except (OSError, ValueError, IndexError, KeyError) as err:
            raise Malformed(f"unreadable CSV: {err}") from err
        if len(sweep_rows) != cfg.grid.n_points:
            raise Malformed(f"sweep.csv has {len(sweep_rows)} rows")
        _finite(meas.values, "measurements.csv")
        signal = _finite(signal, "signal.csv", (m_len,))
        recon = _finite(recon, "reconstruction.csv", (m_len,))
        error = float(np.sum(np.abs(recon - signal) ** 2) / np.sum(np.abs(signal) ** 2))
        return Checked(error < self._TOLERANCE[cfg.kind])


WORKLOADS = {w.name: w for w in (SnrTrials, PtTrials, Examples)}
