"""Windowed transform tests: degeneration, masking, piecewise recovery."""

import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pftcs import (
    KernelParams,
    MeasurementSet,
    ParameterGrid,
    PolyPhaseComponent,
    ThresholdPolicy,
    cs_spectral_estimate,
    kernel_values_at,
    lpft,
    lpft_cs_estimate,
    lpft_recover,
    lpft_sweep,
    pft,
    select_measurements,
    synthesize_components,
)
from pftcs.config import parse_config
from pftcs.experiments import _measure, synthesize_config_signal
from pftcs.lpft import _sweep
from pftcs.recovery import (
    COND_LIMIT,
    _fits,
    _ranked_hits,
    _residual_ratio,
    _scatter_spectra,
)


def piecewise_signal(length=256, window=32, origin=-128):
    """Two half-length chirps with different rates, as one sample vector."""
    first = PolyPhaseComponent(1.0, (16.0, -32.0))
    second = PolyPhaseComponent(1.0, (0.0, -56.0))
    m = np.arange(origin, origin + length)
    out = np.where(m < origin + length // 2,
                   first.sample(m, length), second.sample(m, length))
    return out.astype(np.complex128), first, second


def per_window_mask(length, window, count, origin, seed):
    chunks = []
    for b in range(length // window):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        local = rng.choice(window, size=count, replace=False)
        local.sort()
        chunks.append(local.astype(np.int64) + origin + b * window)
    return np.concatenate(chunks)


def dense_window_spectra(meas, weighted, window):
    """Per-window dense sums: the oracle for the scatter-FFT window spectra.

    Window ``b`` with ``N_b`` samples gets
    ``(W/N_b) * sum_j weighted[j] * exp(-2j pi k (q_j - b W)/W)``; empty
    windows stay zero.  Returns the (G, n_windows, W) array.
    """
    n_win = meas.signal_length // window
    q = meas.positions - meas.index_origin
    owner, local = q // window, (q % window).astype(np.float64)
    k = np.arange(window, dtype=np.float64)
    out = np.zeros((weighted.shape[1], n_win, window), dtype=np.complex128)
    for b in range(n_win):
        sel = np.flatnonzero(owner == b)
        if sel.size:
            basis = np.exp(-2j * np.pi / window * np.outer(k, local[sel]))
            out[:, b] = (window / sel.size) * (basis @ weighted[sel]).T
    return out


@st.composite
def masked_cases(draw):
    """A measurement set whose mask leaves at least one window empty."""
    window = draw(st.integers(2, 12))
    n_win = draw(st.integers(1, 6))
    length = window * n_win
    keep = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    if n_win > 1:
        empty = draw(st.integers(0, n_win - 1))
        keep[empty * window:(empty + 1) * window] = [False] * window
        filled = (empty + 1) % n_win
    else:
        filled = 0
    keep[filled * window] = True
    origin = draw(st.sampled_from([0, -(length // 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = np.flatnonzero(keep) + origin
    values = rng.normal(size=positions.size) + 1j * rng.normal(size=positions.size)
    meas = MeasurementSet(positions, values, length, origin)
    columns = draw(st.integers(1, 4))
    weighted = (rng.normal(size=(positions.size, columns))
                + 1j * rng.normal(size=(positions.size, columns)))
    rate = draw(st.floats(-64.0, 64.0, allow_nan=False))
    return meas, window, weighted, KernelParams((rate,))


class TestOneEstimator:
    """The scatter-FFT estimator agrees with the dense per-window sum."""

    @settings(max_examples=60, deadline=None)
    @given(masked_cases())
    def test_scatter_spectra_match_dense_sum(self, case):
        meas, window, weighted, _ = case
        want = dense_window_spectra(meas, weighted, window)
        got = _scatter_spectra(meas, weighted, window)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(want))))

    @settings(max_examples=60, deadline=None)
    @given(masked_cases())
    def test_lpft_cs_estimate_matches_dense_sum(self, case):
        meas, window, _, params = case
        phi = kernel_values_at(params, meas.positions, meas.signal_length)
        want = dense_window_spectra(meas, (meas.values * phi)[:, None], window)[0]
        spect = lpft_cs_estimate(meas, params, window)
        assert isinstance(spect, np.ndarray)
        assert spect.shape == (meas.signal_length // window, window)
        np.testing.assert_allclose(spect, want, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(want))))

    @settings(max_examples=60, deadline=None)
    @given(masked_cases())
    def test_window_of_full_length_is_global_estimate(self, case):
        meas, _, _, params = case
        global_est = cs_spectral_estimate(meas, params).coeffs
        windowed = lpft_cs_estimate(meas, params, meas.signal_length)
        assert windowed.shape == (1, meas.signal_length)
        np.testing.assert_allclose(windowed[0], global_est, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(global_est))))


class TestLpft:
    def test_full_window_degenerates_to_global_transform(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        params = KernelParams((-20.0, 4.0))
        global_spec = pft(x, params, index_origin=-32).coeffs
        local = lpft(x, params, window=64, index_origin=-32)
        assert local.shape == (1, 64)
        np.testing.assert_allclose(local[0], global_spec,
                                   atol=1e-12 * np.max(np.abs(global_spec)))

    def test_matched_component_concentrates_in_every_window(self):
        length, window = 128, 16
        # linear coefficient a multiple of length/window puts every window
        # exactly on local bin c1 * W / M
        comp = PolyPhaseComponent(1.5, (24.0, -48.0))
        x = synthesize_components([comp], length)
        spect = lpft(x, KernelParams((-48.0,)), window)
        mags = np.abs(spect)
        local_bin = 24 * window // length
        assert mags.shape == (length // window, window)
        for b in range(mags.shape[0]):
            assert mags[b, local_bin] == pytest.approx(window * 1.5, rel=1e-9)
            others = np.delete(mags[b], local_bin)
            assert np.max(others) < 1e-9 * window * 1.5

    def test_window_starts_and_counts(self):
        # row b is window b, which starts at origin + b * W: bin 0 of a
        # window sums its samples, so the positions themselves give
        # W * start + W (W - 1) / 2, and ones give the sample count W
        origin, window = -32, 16
        positions = np.arange(origin, origin + 64).astype(np.complex128)
        spect = lpft(positions, KernelParams(), window, index_origin=origin)
        assert isinstance(spect, np.ndarray) and spect.shape == (4, window)
        starts = np.array([-32, -16, 0, 16])
        np.testing.assert_allclose(spect[:, 0], window * starts + window * (window - 1) / 2)
        ones = lpft(np.ones(64, dtype=np.complex128), KernelParams(), window, origin)
        np.testing.assert_allclose(ones[:, 0], np.full(4, window))

    def test_window_validation(self):
        x = np.ones(12, dtype=np.complex128)
        with pytest.raises(ValueError):
            lpft(x, KernelParams(), 5)
        with pytest.raises(ValueError):
            lpft(x, KernelParams(), 1)


class TestLpftCsEstimate:
    def test_full_sampling_matches_lpft(self):
        x, *_ = piecewise_signal()
        length, window, origin = 256, 32, -128
        meas = MeasurementSet.from_samples(x, np.arange(origin, origin + length),
                                           length, origin)
        params = KernelParams((32.0,))
        masked = lpft_cs_estimate(meas, params, window)
        full = lpft(x, params, window, origin)
        np.testing.assert_allclose(masked, full, atol=1e-12 * np.max(np.abs(full)))

    def test_single_window_equals_global_estimate(self):
        # with W = M the masked window estimate is exactly the masked
        # spectral estimate of the whole signal
        x, *_ = piecewise_signal(length=64, window=8, origin=0)
        positions = per_window_mask(64, 8, 4, 0, seed=3)
        meas = MeasurementSet.from_samples(x, positions, 64)
        params = KernelParams((32.0,))
        windowed = lpft_cs_estimate(meas, params, 64)
        global_est = cs_spectral_estimate(meas, params).coeffs
        np.testing.assert_allclose(windowed[0], global_est,
                                   atol=1e-12 * np.max(np.abs(global_est)))

    def test_empty_windows_flagged_and_zero(self):
        length, window = 64, 16
        x = np.ones(length, dtype=np.complex128)
        positions = np.concatenate([np.arange(0, 8), np.arange(32, 40),
                                    np.arange(48, 56)])
        meas = MeasurementSet.from_samples(x, positions, length)
        spect = lpft_cs_estimate(meas, KernelParams(), window)
        np.testing.assert_array_equal(spect[1], np.zeros(window))
        assert np.all(np.any(spect[[0, 2, 3]], axis=1))

    def test_scaling_is_per_window_count(self):
        # a fully sampled window reads W * amplitude at the matched bin,
        # a half-sampled one still reads W * amplitude in expectation and
        # exactly here because the component is constant after demodulation
        length, window = 64, 16
        comp = PolyPhaseComponent(2.0, (0.0, -24.0))
        x = synthesize_components([comp], length)
        positions = np.concatenate([np.arange(0, 16), np.arange(16, 32, 2)])
        meas = MeasurementSet.from_samples(x, positions, length)
        spect = lpft_cs_estimate(meas, KernelParams((-24.0,)), window)
        assert abs(spect[0, 0]) == pytest.approx(window * 2.0, rel=1e-9)
        assert abs(spect[1, 0]) == pytest.approx(window * 2.0, rel=1e-9)


class TestLpftSweep:
    def test_piecewise_rates_take_top_scores(self):
        x, first, second = piecewise_signal()
        length, window, origin = 256, 32, -128
        positions = per_window_mask(length, window, 16, origin, seed=3)
        meas = MeasurementSet.from_samples(x, positions, length, origin)
        grid = ParameterGrid.single(2, tuple(float(v) for v in range(0, 65, 8)))
        scores = lpft_sweep(meas, grid, window, ThresholdPolicy.relative(0.5)).scores
        ranked = np.argsort(-scores, kind="stable")
        top_rates = {grid.rates[g, 0] for g in ranked[:2]}
        assert top_rates == {32.0, 56.0}
        assert scores[ranked[0]] > scores[ranked[2]]

    def test_recover_returns_its_sweep(self):
        x, *_ = piecewise_signal()
        length, window, origin = 256, 32, -128
        positions = per_window_mask(length, window, 16, origin, seed=3)
        meas = MeasurementSet.from_samples(x, positions, length, origin)
        grid = ParameterGrid.single(2, tuple(float(v) for v in range(0, 65, 8)))
        policy = ThresholdPolicy.relative(0.5)
        found = lpft_sweep(meas, grid, window, policy)
        result = lpft_recover(meas, grid, window, policy)
        assert result.sweep.grid == grid
        assert np.array_equal(result.sweep.scores, found.scores)
        assert np.array_equal(result.sweep.peaks, found.peaks)

    def test_score_zero_means_no_bin(self):
        meas = MeasurementSet(np.arange(8), np.zeros(8, dtype=np.complex128), 32)
        grid = ParameterGrid.single(2, (0.0, 8.0))
        found = lpft_sweep(meas, grid, 8, ThresholdPolicy.relative(0.5))
        assert found.scores.tolist() == [0.0, 0.0]
        assert found.peaks.tolist() == [-1, -1]


def fourier_rows(offsets, window):
    """Rows ``exp(2j pi k u / W)``, k = 0 .. W-1, at in-window offsets ``u``."""
    return np.exp(2j * np.pi * np.outer(offsets, np.arange(window)) / window)


class TestWindowFitBlockStructure:
    def test_per_window_solves_equal_joint_block_solve(self):
        # the joint system over all windows is block-diagonal, so stacking
        # the per-window solutions must reproduce the joint least squares
        x, first, second = piecewise_signal(length=128, window=16, origin=0)
        positions = per_window_mask(128, 16, 10, 0, seed=11)
        meas = MeasurementSet.from_samples(x, positions, 128)
        params = KernelParams((-32.0,))
        window = 16
        owner = (meas.positions - meas.index_origin) // window
        bins_per_window = [2, 3]

        joint_amps = []
        for b in range(2):
            sel = np.flatnonzero(owner == b)
            pos = meas.positions[sel]
            demodulated = meas.values[sel] * kernel_values_at(params, pos, 128)
            atoms = fourier_rows(pos - b * window, window)[:, bins_per_window]
            solvable, amps, _, _ = _fits(atoms[None], demodulated[None, :])
            assert solvable.tolist() == [True]
            joint_amps.append(amps[0])

        # independent joint solve on the block-diagonal system
        rows = meas.positions < 2 * window
        sel = np.flatnonzero(rows)
        n_rows = sel.size
        joint = np.zeros((n_rows, 2 * len(bins_per_window)), dtype=np.complex128)
        for b in range(2):
            block_rows = np.flatnonzero(owner[sel] == b)
            pos = meas.positions[sel][block_rows]
            inv = np.conj(kernel_values_at(params, pos, 128))
            local = (pos - b * window).astype(np.float64)
            for j, k in enumerate(bins_per_window):
                joint[block_rows, b * len(bins_per_window) + j] = inv * np.exp(
                    2j * np.pi * k * local / window
                )
        oracle, *_ = np.linalg.lstsq(joint, meas.values[sel], rcond=None)
        stacked = np.concatenate(joint_amps)
        np.testing.assert_allclose(stacked, oracle, atol=1e-12 * max(1.0, np.max(np.abs(oracle))))

    def test_underdetermined_window_is_rejected(self):
        cases = [
            # fewer measurements than atoms
            (np.ones(1, dtype=np.complex128), np.array([3]), [0, 1]),
            # a duplicate bin repeats an atom, so the Gram matrix is singular
            (np.ones(4, dtype=np.complex128), np.array([0, 2, 3, 5]), [3, 3]),
        ]
        for values, offsets, bins in cases:
            solvable, amps, _, ratios = _fits(fourier_rows(offsets, 8)[:, bins][None],
                                              values[None, :])
            assert solvable.tolist() == [False]
            assert amps.shape == (0, 2) and ratios.shape == (0,)


@st.composite
def window_recover_cases(draw):
    """Random data under per-window masks that include empty and 1-sample windows."""
    window = draw(st.integers(2, 12))
    n_win = draw(st.integers(1, 5))
    length = window * n_win
    origin = draw(st.sampled_from([0, -(length // 2)]))
    offsets = []
    for b in range(n_win):
        count = draw(st.sampled_from([0, 1, window // 2, window]) | st.integers(0, window))
        local = draw(st.permutations(range(window)))[:count]
        offsets.extend(b * window + u for u in sorted(local))
    if not offsets:
        offsets = [0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=len(offsets)) + 1j * rng.normal(size=len(offsets))
    meas = MeasurementSet(np.array(offsets) + origin, values, length, origin)
    rates = draw(st.lists(st.sampled_from([0.0, 4.0, 8.0, 12.5, 16.0]), min_size=1,
                          max_size=4, unique=True))
    policy = draw(st.sampled_from([ThresholdPolicy.relative(0.5),
                                   ThresholdPolicy.statistic(0.9)]))
    return meas, window, ParameterGrid.single(2, sorted(rates)), policy


@st.composite
def many_window_cases(draw):
    """Up to 16 windows of up to 32 samples and up to 8 rates, with one
    empty window and at least two distinct nonzero window sample counts."""
    window = draw(st.integers(4, 32))
    n_win = draw(st.integers(3, 16))
    length = window * n_win
    origin = draw(st.sampled_from([0, -(length // 2)]))
    counts = draw(st.lists(st.integers(0, window), min_size=n_win, max_size=n_win))
    empty, one, other = draw(st.permutations(range(n_win)))[:3]
    counts[empty] = 0
    counts[one] = draw(st.integers(1, window))
    counts[other] = draw(st.integers(1, window).filter(lambda c: c != counts[one]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = np.concatenate([b * window + np.sort(rng.choice(window, c, replace=False))
                                for b, c in enumerate(counts)]) + origin
    values = rng.normal(size=positions.size) + 1j * rng.normal(size=positions.size)
    meas = MeasurementSet(positions, values, length, origin)
    rates = draw(st.lists(st.sampled_from([-24.0, -8.0, 0.0, 4.0, 8.0, 12.5, 16.0, 32.0]),
                          min_size=1, max_size=8, unique=True))
    policy = draw(st.sampled_from([ThresholdPolicy.relative(0.2),
                                   ThresholdPolicy.relative(0.5),
                                   ThresholdPolicy.statistic(0.9)]))
    return meas, window, ParameterGrid.single(2, sorted(rates)), policy


class TestDemodulatedWindowFit:
    """Each assigned window holds the candidate's own detections, capped, and
    the least-squares amplitudes of the undemodulated atoms."""

    @settings(max_examples=150, deadline=None)
    @given(window_recover_cases())
    def test_assignments_match_detection_and_atom_fit(self, detect_bins_oracle, case):
        meas, window, grid, policy = case
        result = lpft_recover(meas, grid, window, policy)
        owner = (meas.positions - meas.index_origin) // window
        for a in result.assignments:
            sel = np.flatnonzero(owner == a.window_index)
            if a.grid_index is None:
                continue
            mags = np.abs(lpft_cs_estimate(meas, a.params, window)[a.window_index])
            _, bins = detect_bins_oracle(mags, policy)
            assert a.bins == tuple(bins[:max(1, sel.size // 2 - 1)])
            pos = meas.positions[sel]
            local = (pos - a.start).astype(np.float64)
            inv = np.conj(kernel_values_at(a.params, pos, meas.signal_length))
            atoms = np.stack([inv * np.exp(2j * np.pi * k * local / window) for k in a.bins],
                             axis=1)
            oracle, *_ = np.linalg.lstsq(atoms, meas.values[sel], rcond=None)
            np.testing.assert_allclose(np.array(a.amplitudes), oracle, rtol=0,
                                       atol=1e-12 * np.max(np.abs(oracle)))
        assert all(result.assignments[b].grid_index is None
                   for b in range(result.n_windows) if not np.any(owner == b))


def normal_equation_fit(atoms, values):
    """One (N, K) least-squares fit by its normal equations, under the rank
    rule: None when N < K or the Gram matrix's condition number is not
    finite or exceeds ``COND_LIMIT``, else the (K,) amplitudes."""
    adjoint = atoms.conj().T
    gram = adjoint @ atoms
    cond = np.linalg.cond(gram)
    if atoms.shape[0] < atoms.shape[1] or not (np.isfinite(cond) and cond <= COND_LIMIT):
        return None
    return np.linalg.solve(gram, adjoint @ values[:, None])[:, 0]


def per_candidate_fits(meas, grid, window, policy):
    """The per-candidate reference for :func:`lpft_recover`'s stacked fits.

    Every candidate is fitted alone by :func:`normal_equation_fit`, one that
    fails the rank rule is skipped, and a later candidate displaces the best
    only with a strictly smaller ratio.  Returns ``(grid index, bins,
    amplitudes, ratio)`` per window, or None where nothing fitted.
    """
    swept, weighted, detected = _sweep(meas, grid, window, policy)
    cands = np.flatnonzero(swept.scores > 0)
    owner = (meas.positions - meas.index_origin) // window
    offsets = np.arange(window)
    table = np.exp(2j * np.pi * (np.outer(offsets, offsets) % window) / window)
    out = []
    for b in range(meas.signal_length // window):
        sel = np.flatnonzero(owner == b)
        best = None
        if sel.size:
            cap = max(1, sel.size // 2 - 1)
            rows = table[meas.positions[sel] - meas.index_origin - b * window]
            cols, bins = _ranked_hits(detected[cands, b], 0.0)
            for j, g in enumerate(cands.tolist()):
                chosen = bins[cols == j][:cap]
                if not chosen.size:
                    continue
                atoms = rows[:, chosen]
                amps = normal_equation_fit(atoms, weighted[sel, g])
                if amps is None:
                    continue
                ratio = _residual_ratio(weighted[sel, g] - atoms @ amps, weighted[sel, g])
                if best is None or ratio < best[3]:
                    best = (g, tuple(chosen.tolist()), tuple(complex(a) for a in amps),
                            float(ratio))
        out.append(best)
    return out


def assert_matches_per_candidate_fits(meas, grid, window, policy):
    result = lpft_recover(meas, grid, window, policy)
    found = [None if a.grid_index is None else
             (a.grid_index, a.bins, a.amplitudes, a.residual_ratio)
             for a in result.assignments]
    assert found == per_candidate_fits(meas, grid, window, policy)
    return result


class TestStackedWindowFits:
    """The stacked fits of a window's candidates equal one solve per candidate."""

    @settings(max_examples=150, deadline=None)
    @given(window_recover_cases())
    def test_equal_per_candidate_loop(self, case):
        meas, window, grid, policy = case
        assert_matches_per_candidate_fits(meas, grid, window, policy)

    @settings(max_examples=100, deadline=None)
    @given(many_window_cases())
    def test_equal_per_candidate_loop_across_many_windows(self, case):
        meas, window, grid, policy = case
        assert_matches_per_candidate_fits(meas, grid, window, policy)

    def test_ex3_equals_per_candidate_loop(self):
        config = parse_config(resources.files("pftcs").joinpath("configs", "ex3.cfg"))
        meas = _measure(config, synthesize_config_signal(config))
        result = assert_matches_per_candidate_fits(meas, config.grid, config.window,
                                                   config.policy)
        assert result.n_windows == 32
        assert np.count_nonzero(result.sweep.scores > 0) == 41

    def test_pairs_of_different_windows_in_one_stack(self):
        # one stack may hold pairs of several windows with the same sample
        # count; each pair fits its own window's rows, as if fitted alone
        rng = np.random.default_rng(9)
        rows = np.stack([fourier_rows(np.array([0, 3, 5, 6]), 8),
                         fourier_rows(np.array([1, 2, 4, 7]), 8)])
        win = np.array([1, 0, 1, 0, 0])
        chosen = np.array([[0, 2], [1, 3], [5, 1], [2, 6], [7, 0]])
        demodulated = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        # lpft_recover's gather: column-major (4, 2) atoms per pair
        solvable, amps, _, ratios = _fits(rows[win[:, None], :, chosen].swapaxes(1, 2),
                                          demodulated)
        assert solvable.all()
        for p in range(5):
            alone = _fits(rows[win[p]][:, chosen[p]][None], demodulated[p:p + 1])
            assert np.array_equal(alone[1][0], amps[p])
            assert alone[3][0] == ratios[p]

    def test_window_without_candidates_is_unassigned(self):
        grid = ParameterGrid.single(2, (0.0, 8.0))
        policy = ThresholdPolicy.relative(0.5)
        # no candidate at all: every grid point scores 0
        zeros = MeasurementSet(np.arange(16), np.zeros(16, dtype=np.complex128), 32)
        result = assert_matches_per_candidate_fits(zeros, grid, 8, policy)
        assert result.unassigned_windows == (0, 1, 2, 3)
        # candidates, but none detects a bin in the all-zero first window
        values = np.where(np.arange(16) < 8, 0.0, np.exp(2j * np.pi * np.arange(16) / 8))
        meas = MeasurementSet(np.arange(16), values, 32)
        result = assert_matches_per_candidate_fits(meas, grid, 8, policy)
        assert result.unassigned_windows == (0, 2, 3)

    def test_rank_deficient_and_full_rank_in_one_stack(self):
        # at offsets {0, 4} of a window of 8, bins 0 and 2 (and 1 and 3) are
        # the same atom, while bins 0 and 1 (and 3 and 2) are not
        rows = fourier_rows(np.array([0, 4]), 8)
        chosen = np.array([[0, 2], [0, 1], [1, 3], [3, 2]])
        rng = np.random.default_rng(5)
        demodulated = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        solvable, amps, _, ratios = _fits(rows[:, chosen].transpose(1, 0, 2), demodulated)
        assert solvable.tolist() == [False, True, False, True]
        for c, fitted, ratio in zip(np.flatnonzero(solvable), amps, ratios):
            atoms = rows[:, chosen[c]]
            alone = normal_equation_fit(atoms, demodulated[c])
            assert np.array_equal(fitted, alone)
            assert ratio == _residual_ratio(demodulated[c] - atoms @ alone, demodulated[c])
        for c in np.flatnonzero(~solvable):
            assert normal_equation_fit(rows[:, chosen[c]], demodulated[c]) is None

    def test_exact_tie_goes_to_lower_grid_index(self):
        # one sample per window, at offset 0: every candidate fits it through
        # bin 0 with a residual of exactly 0, so the first candidate must win
        rng = np.random.default_rng(2)
        positions = np.arange(0, 64, 16)
        meas = MeasurementSet(positions, rng.normal(size=4) + 1j * rng.normal(size=4), 64)
        grid = ParameterGrid.single(2, (0.0, 4.0, 8.0, 12.5))
        result = assert_matches_per_candidate_fits(meas, grid, 16,
                                                   ThresholdPolicy.relative(0.5))
        assert np.count_nonzero(result.sweep.scores > 0) > 1
        first = int(np.flatnonzero(result.sweep.scores > 0)[0])
        for a in result.assignments:
            assert (a.grid_index, a.bins, a.residual_ratio) == (first, (0,), 0.0)


class TestLpftRecover:
    def setup_case(self, count=16, seed=3):
        x, first, second = piecewise_signal()
        length, window, origin = 256, 32, -128
        positions = per_window_mask(length, window, count, origin, seed)
        meas = MeasurementSet.from_samples(x, positions, length, origin)
        grid = ParameterGrid.single(2, tuple(float(v) for v in range(0, 65, 8)))
        return x, meas, grid, window

    def test_reconstruction_and_assignments(self):
        x, meas, grid, window = self.setup_case()
        result = lpft_recover(meas, grid, window, ThresholdPolicy.relative(0.5))
        error = np.sum(np.abs(result.reconstructed - x) ** 2) / np.sum(np.abs(x) ** 2)
        assert error < 1e-10
        assert result.unassigned_windows == ()
        # first half demodulates at rate 32, second half at rate 56
        rates = [result.sweep.grid.rates[a.grid_index, 0] for a in result.assignments]
        assert rates[:4] == [32.0] * 4
        assert rates[4:] == [56.0] * 4

    def test_window_without_measurements_is_unassigned(self):
        x, first, second = piecewise_signal(length=128, window=16, origin=0)
        keep = [p for p in per_window_mask(128, 16, 8, 0, 3) if not 16 <= p < 32]
        meas = MeasurementSet.from_samples(x, np.array(keep), 128)
        grid = ParameterGrid.single(2, (32.0, 56.0))
        result = lpft_recover(meas, grid, 16, ThresholdPolicy.relative(0.5))
        assert 1 in result.unassigned_windows
        assignment = result.assignments[1]
        assert assignment.grid_index is None
        np.testing.assert_array_equal(result.reconstructed[16:32], np.zeros(16))

    def test_ties_break_to_lower_grid_index(self):
        # constant signal: every candidate fits a flat window equally well
        # through bin 0, so the first grid point must win
        x = np.ones(32, dtype=np.complex128)
        meas = MeasurementSet.from_samples(x, np.arange(32), 32)
        grid = ParameterGrid.single(2, (0.0, 8.0))
        result = lpft_recover(meas, grid, 32, ThresholdPolicy.relative(0.9))
        assert result.assignments[0].grid_index == 0

    def test_memory_grows_with_the_samples_not_the_window(self):
        # a window of the full length 2048 holding 64 samples: atoms gathered
        # from one length-W root vector cost pairs x samples x bins cells,
        # where a W x W table of atom values would take 64 MiB
        comp = PolyPhaseComponent(1.0, (300.0, -16.0))
        meas = MeasurementSet.from_samples(synthesize_components([comp], 2048),
                                           select_measurements(2048, 64, 0, 5), 2048)
        grid = ParameterGrid.single(2, (0.0, 16.0, 32.0))
        tracemalloc.start()
        try:
            result = lpft_recover(meas, grid, 2048, ThresholdPolicy.relative(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.assignments[0].grid_index == 1
        assert peak < 8 * 2**20
