"""Headline acceptance checks, one recorded pass/fail line per requirement.

These run the full pipeline at the published operating points: the three
worked examples (single cubic chirp, two-chirp joint correction, piecewise
rate switch), the Monte-Carlo SNR table, the exact-recovery phase
transition, and a block of exact structural properties.  Everything here
uses the public API the way the command-line tool does.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest

from pftcs import (
    DetectedComponent,
    KernelParams,
    MeasurementSet,
    ParameterGrid,
    PolyPhaseComponent,
    Spectrum,
    ThresholdPolicy,
    amplitude_correction,
    cs_spectral_estimate,
    dft,
    idft,
    lpft,
    lpft_recover,
    lpft_sweep,
    pft,
    phase_transition,
    reconstruct,
    recover,
    select_measurements,
    sweep,
    synthesize_components,
)
from pftcs.config import parse_config
from pftcs.csvio import read_snr_table_csv
from pftcs.experiments import run_experiment
from pftcs.transform import kernel_values_at

LENGTH = 1024
GRID_STEP = 32.0


def rel_error(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def cubic_grid():
    return ParameterGrid.from_range(3, -640.0, 640.0, GRID_STEP)


def chirp_grid():
    return ParameterGrid.from_range(2, -640.0, 640.0, GRID_STEP)


class TestSingleCubicChirp:
    """One cubic-phase component from 32 of 1024 samples, 100 random masks."""

    def test_unique_peak_and_exact_reconstruction(self, acceptance):
        comp = PolyPhaseComponent(1.0, (128.0, 0.0, -512.0))
        origin = -LENGTH // 2
        clean = synthesize_components([comp], LENGTH, origin)
        grid = cubic_grid()
        policy = ThresholdPolicy.statistic(0.9999)

        successes = 0
        for child in np.random.SeedSequence(1024).spawn(100):
            positions = select_measurements(LENGTH, 32, origin,
                                            np.random.default_rng(child))
            meas = MeasurementSet.from_samples(clean, positions, LENGTH, origin)
            found = sweep(meas, grid, policy)
            if np.flatnonzero(found.scores > 0).tolist() != [36] or found.peaks[36] != 128:
                continue
            result = recover(meas, grid, policy)
            if rel_error(result.reconstructed, clean) < 1e-10:
                successes += 1
        acceptance(
            "single cubic chirp: unique sweep peak at grid position 37, "
            "bin 128, reconstruction error < 1e-10",
            successes >= 95,
            f"{successes}/100 masks",
        )


class TestTwoChirpJointCorrection:
    """Two chirps share one measurement set; amplitudes solved jointly."""

    def test_scores_amplitudes_and_components(self, acceptance):
        first = PolyPhaseComponent(1.0, (128.0, -256.0))
        second = PolyPhaseComponent(1.0, (0.0, -512.0))
        origin = -LENGTH // 2
        clean = synthesize_components([first, second], LENGTH, origin)
        positions = select_measurements(LENGTH, 64, origin,
                                        np.random.SeedSequence((11,)))
        meas = MeasurementSet.from_samples(clean, positions, LENGTH, origin)
        grid = chirp_grid()
        policy = ThresholdPolicy.statistic(0.9999)

        scores = sweep(meas, grid, policy).scores
        top_two = set(np.argsort(-scores, kind="stable")[:2].tolist())
        scores_ok = top_two == {28, 36}

        result = recover(meas, grid, policy)
        amps_ok = len(result.components) == 2 and all(
            abs(c.corrected_amplitude - 1.0) <= 1e-8 for c in result.components
        )

        per_component_ok = len(result.components) == 2
        if per_component_ok:
            truths = {-256.0: first, -512.0: second}
            for det in result.components:
                truth = truths[det.phase_coeffs()[1]]
                alone = reconstruct([det], LENGTH, origin)
                want = synthesize_components([truth], LENGTH, origin)
                per_component_ok &= rel_error(alone, want) < 1e-8

        acceptance(
            "two chirps: top scores at grid positions 29 and 37, unit "
            "amplitudes within 1e-8, per-component error < 1e-8",
            scores_ok and amps_ok and per_component_ok,
            f"top={sorted(top_two)} n_components={len(result.components)}",
        )


class TestPiecewiseRateSwitch:
    """Chirp rate switches mid-stream; recovery runs window by window."""

    WINDOW = 32

    def build_measurements(self):
        origin = -LENGTH // 2
        m = np.arange(origin, origin + LENGTH)
        early = synthesize_components(
            [PolyPhaseComponent(1.0, (128.0, -256.0))], LENGTH, origin)
        late = synthesize_components(
            [PolyPhaseComponent(1.0, (0.0, -448.0))], LENGTH, origin)
        clean = np.where(m < 0, early, late)
        positions = []
        for b in range(LENGTH // self.WINDOW):
            rng = np.random.default_rng(np.random.SeedSequence((3, b)))
            local = np.sort(rng.choice(self.WINDOW, 8, replace=False))
            positions.extend(origin + b * self.WINDOW + local)
        meas = MeasurementSet.from_samples(clean, np.asarray(positions),
                                           LENGTH, origin)
        return meas, clean

    def test_projection_maxima_and_reconstruction(self, acceptance):
        meas, clean = self.build_measurements()
        grid = chirp_grid()
        policy = ThresholdPolicy.relative(0.5)

        scores = lpft_sweep(meas, grid, self.WINDOW, policy).scores
        top_two = set(np.argsort(-scores, kind="stable")[:2].tolist())
        scores_ok = top_two == {28, 34}

        result = lpft_recover(meas, grid, self.WINDOW, policy)
        err = rel_error(result.reconstructed, clean)

        acceptance(
            "piecewise rate switch: projection maxima at grid positions 29 "
            "and 35, windowed reconstruction error < 1e-8",
            scores_ok and err < 1e-8,
            f"top={sorted(top_two)} err={err:.3e}",
        )


class TestSnrTable:
    """Monte-Carlo reconstruction SNR versus theory for a three-chirp signal."""

    EXPECTED = {
        (5.0, 256): 24.31,
        (5.0, 80): 19.26,
        (10.0, 256): 29.31,
        (10.0, 80): 24.26,
    }

    def test_measured_tracks_theory(self, acceptance, tmp_path):
        ref = resources.files("pftcs").joinpath("configs", "ex4.cfg")
        with resources.as_file(ref) as path:
            config = parse_config(path)
        assert config.trials == 1000
        run_experiment(config, str(tmp_path))
        reports = read_snr_table_csv(tmp_path / "snr_table.csv")

        details = []
        all_ok = len(reports) == len(self.EXPECTED)
        for report in reports:
            want = self.EXPECTED[(report.snr_in_db, report.n_measurements)]
            delta = abs(report.snr_out_measured_db - want)
            all_ok &= delta <= 0.5
            details.append(
                f"({report.snr_in_db:g} dB, N={report.n_measurements}): "
                f"{report.snr_out_measured_db:.2f} vs {want:.2f}"
            )
        acceptance(
            "snr table: 1000-trial measured output SNR within 0.5 dB of "
            "theory for all four operating points",
            all_ok,
            "; ".join(details),
        )


class TestPhaseTransition:
    """Exact-recovery probability is high at N = 6K and low at N = 2K."""

    def test_transition_edges(self, acceptance):
        k_values = (2, 4, 8, 16)

        def one(k):
            return phase_transition((k,), (2 * k, 6 * k), trials=200,
                                    seed=17, length=128)

        with ThreadPoolExecutor(max_workers=4) as pool:
            grids = list(pool.map(one, k_values))

        details = []
        all_ok = True
        for k, grid in zip(k_values, grids):
            high = grid.fraction(k, 6 * k)
            low = grid.fraction(k, 2 * k)
            all_ok &= high >= 0.9 and low <= 0.2
            details.append(f"K={k}: {high:.3f}@6K {low:.3f}@2K")
        acceptance(
            "phase transition: success >= 0.9 at N=6K and <= 0.2 at N=2K "
            "for K in {2,4,8,16}, 200 trials per cell",
            all_ok,
            "; ".join(details),
        )


class TestStructuralProperties:
    """Exact identities the implementation must satisfy to machine accuracy."""

    def test_matched_kernel_concentration(self, acceptance):
        comp = PolyPhaseComponent(2.0 - 1.0j, (96.0, 0.0, -512.0))
        samples = synthesize_components([comp], LENGTH, -LENGTH // 2)
        spec = pft(samples, KernelParams((0.0, -512.0)), -LENGTH // 2)
        mags = spec.magnitude()
        peak_ok = int(np.argmax(mags)) == 96
        value_ok = abs(mags[96] - LENGTH * abs(comp.amplitude)) <= 1e-9 * LENGTH
        acceptance(
            "matched kernel concentrates a component into one bin of "
            "magnitude M*|amplitude| (1e-9 relative)",
            peak_ok and value_ok,
            f"peak bin {int(np.argmax(mags))}, magnitude {mags[96]:.6f}",
        )

    def test_transform_round_trip(self, acceptance):
        rng = np.random.default_rng(12)
        x = rng.normal(size=256) + 1j * rng.normal(size=256)
        worst = float(np.max(np.abs(idft(dft(x)) - x)))
        acceptance(
            "inverse transform undoes the forward transform (1e-10)",
            worst < 1e-10,
            f"max deviation {worst:.3e}",
        )

    def test_full_sampling_estimate_matches_transform(self, acceptance):
        comp = PolyPhaseComponent(1.0, (20.0, -96.0))
        samples = synthesize_components([comp], 128)
        meas = MeasurementSet.from_samples(samples, np.arange(128), 128)
        params = KernelParams((-96.0,))
        got = cs_spectral_estimate(meas, params).coeffs
        want = pft(samples, params).coeffs
        err = rel_error(got, want)
        acceptance(
            "sparse spectral estimate with every sample kept equals the "
            "plain transform (1e-12)",
            err < 1e-12,
            f"relative deviation {err:.3e}",
        )

    def test_least_squares_residual_orthogonality(self, acceptance):
        first = PolyPhaseComponent(1.0, (128.0, -256.0))
        second = PolyPhaseComponent(1.0, (0.0, -512.0))
        origin = -LENGTH // 2
        clean = synthesize_components([first, second], LENGTH, origin)
        rng = np.random.default_rng(5)
        noisy = clean + 0.3 * (rng.normal(size=LENGTH)
                               + 1j * rng.normal(size=LENGTH))
        positions = select_measurements(LENGTH, 64, origin, 11)
        meas = MeasurementSet.from_samples(noisy, positions, LENGTH, origin)
        detected = [
            DetectedComponent(KernelParams((-256.0,)), 128, 1.0),
            DetectedComponent(KernelParams((-512.0,)), 0, 1.0),
        ]
        amps = amplitude_correction(meas, detected)
        fitted = [
            DetectedComponent(d.params, d.freq_bin, d.raw_magnitude, a)
            for d, a in zip(detected, amps)
        ]
        slots = meas.positions - origin
        atoms = np.stack(
            [reconstruct([DetectedComponent(d.params, d.freq_bin, 1.0, 1.0 + 0j)],
                         LENGTH, origin)[slots] for d in fitted],
            axis=1,
        )
        residual = meas.values - atoms @ amps
        overlap = float(np.max(np.abs(atoms.conj().T @ residual)))
        bound = 1e-9 * float(np.linalg.norm(meas.values))
        acceptance(
            "least-squares residual is orthogonal to every fitted atom (1e-9)",
            overlap < bound,
            f"max |<atom, residual>| = {overlap:.3e}",
        )

    def test_window_fit_matches_block_diagonal_solve(self, acceptance):
        length, window = 256, 32
        m = np.arange(length)
        early = synthesize_components([PolyPhaseComponent(1.0, (32.0, -64.0))],
                                      length)
        late = synthesize_components([PolyPhaseComponent(1.0, (8.0, -128.0))],
                                     length)
        clean = np.where(m < length // 2, early, late)
        positions = []
        for b in range(length // window):
            rng = np.random.default_rng(np.random.SeedSequence((9, b)))
            positions.extend(b * window
                             + np.sort(rng.choice(window, 16, replace=False)))
        meas = MeasurementSet.from_samples(clean, np.asarray(positions), length)
        grid = ParameterGrid.single(2, (64.0, 128.0))
        result = lpft_recover(meas, grid, window, ThresholdPolicy.relative(0.5))

        columns = []
        stitched = []
        owner = (meas.positions // window).astype(int)
        for a in result.assignments:
            if a.grid_index is None:
                continue
            sel = np.flatnonzero(owner == a.window_index)
            local = (meas.positions[sel] - a.start).astype(np.float64)
            inv = np.conj(kernel_values_at(a.params, meas.positions[sel], length))
            for k in a.bins:
                column = np.zeros(meas.count, dtype=np.complex128)
                column[sel] = inv * np.exp(2j * np.pi * k * local / window)
                columns.append(column)
            stitched.extend(a.amplitudes)
        joint = np.stack(columns, axis=1)
        amps, *_ = np.linalg.lstsq(joint, meas.values, rcond=None)
        err = float(np.max(np.abs(amps - np.asarray(stitched))))
        acceptance(
            "window-by-window fits equal one joint block-diagonal solve (1e-12)",
            err < 1e-12,
            f"max amplitude deviation {err:.3e}",
        )

    def test_single_window_degenerates_to_transform(self, acceptance):
        comp = PolyPhaseComponent(0.5 + 0.5j, (12.0, -40.0))
        samples = synthesize_components([comp], 128)
        params = KernelParams((-40.0,))
        whole = lpft(samples, params, 128)[0]
        plain = pft(samples, params).coeffs
        err = rel_error(whole, plain)
        acceptance(
            "windowed transform with window = signal length equals the "
            "plain transform (1e-12)",
            err < 1e-12,
            f"relative deviation {err:.3e}",
        )

    def test_sweep_argmax_scale_invariance(self, acceptance):
        comp = PolyPhaseComponent(1.0, (20.0, -256.0))
        samples = synthesize_components([comp], LENGTH)
        positions = select_measurements(LENGTH, 48, 0, 13)
        meas = MeasurementSet.from_samples(samples, positions, LENGTH)
        scaled = MeasurementSet(meas.positions, 7.3 * meas.values,
                                LENGTH, meas.index_origin)
        grid = chirp_grid()
        ok = True
        for policy in (ThresholdPolicy.relative(0.5),
                       ThresholdPolicy.statistic(0.9999)):
            base = sweep(meas, grid, policy).scores
            other = sweep(scaled, grid, policy).scores
            ok &= int(np.argmax(base)) == int(np.argmax(other))
        acceptance(
            "sweep argmax is invariant under positive scaling of the "
            "measurements",
            ok,
            "relative and statistic policies",
        )

    def test_fixed_seeds_reproduce_byte_identical_artifacts(self, acceptance,
                                                            tmp_path):
        ref = resources.files("pftcs").joinpath("configs", "ex1.cfg")
        with resources.as_file(ref) as path:
            config = parse_config(path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_experiment(config, str(first))
        run_experiment(config, str(second))
        names = sorted(os.listdir(first))
        same = names == sorted(os.listdir(second)) and all(
            (first / n).read_bytes() == (second / n).read_bytes() for n in names
        )
        acceptance(
            "fixed seeds reproduce byte-identical csv artifacts",
            same,
            f"{len(names)} files compared",
        )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
