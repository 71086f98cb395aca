import tracemalloc

import numpy as np
import pytest

from fractal_xcorr import (
    AlignedPair,
    DetrendConfig,
    InputError,
    TimeSeries,
    iaaft_surrogate,
    classify,
    surrogate_test,
)
from fractal_xcorr import benchmark, surrogate
from fractal_xcorr.errors import DegenerateFluctuationError
from fractal_xcorr.fluctuation import _dma_segment_stats
from fractal_xcorr.mc_arfima import McArfimaSpec, generate
from fractal_xcorr.surrogate import SurrogateTestReport, _iaaft_ensemble, _series_rng, stars
from conftest import gaussian_pair, mark_degenerate, one_row_rho


def arfima_series(seed, n=1024):
    return generate(McArfimaSpec(length=n, seed=seed, truncation=2000)).x


def iaaft_reference(x, n_rows, rng):
    """The IAAFT iteration with the phase taken as exp(i * angle(spec))."""
    N = x.size
    sorted_x = np.sort(x)
    target_amp = np.abs(np.fft.rfft(x))
    target_norm = np.linalg.norm(target_amp)
    cand = np.empty((n_rows, N))
    for i in range(n_rows):
        cand[i] = rng.permutation(x)
    prev = np.full(n_rows, np.inf)
    active = np.arange(n_rows)
    for _ in range(surrogate.IAAFT_MAX_ITERATIONS):
        spec = np.fft.rfft(cand[active], axis=1)
        mismatch = np.linalg.norm(np.abs(spec) - target_amp, axis=1) / target_norm
        rel_change = np.abs(prev[active] - mismatch) / np.maximum(mismatch, 1e-300)
        prev[active] = mismatch
        keep = rel_change >= surrogate.IAAFT_CONVERGENCE_TOL
        if not keep.any():
            break
        active = active[keep]
        phases = np.exp(1j * np.angle(spec[keep]))
        nxt = np.fft.irfft(target_amp * phases, n=N, axis=1)
        order = np.argsort(nxt, axis=1)
        nxt[np.arange(active.size)[:, None], order] = sorted_x[None, :]
        cand[active] = nxt
    return cand


class TestIaaftPhaseStep:
    @pytest.mark.parametrize("n,seed", [(256, 0), (1000, 1), (2000, 2), (1024, 3)])
    def test_bit_identical_to_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_t(3, n) if seed % 2 else arfima_series(seed, n).values
        got = _iaaft_ensemble(x, 20, np.random.default_rng(seed))
        want = iaaft_reference(x, 20, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    def test_bit_identical_to_reference_at_bluestein_length(self, monkeypatch):
        # 4451 is prime (35,608 = 2^3 * 4451), so pocketfft takes its Bluestein
        # path; each of the 6 rows stops iterating at a different iteration
        x = np.random.default_rng(5).standard_t(3, 4451)
        active, irfft = [], np.fft.irfft

        def record(spec, *args, **kwargs):
            active.append(spec.shape[0])
            return irfft(spec, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", record)
        got = _iaaft_ensemble(x, 6, np.random.default_rng(5))
        assert sorted(set(active)) == [1, 2, 3, 4, 5, 6]
        want = iaaft_reference(x, 6, np.random.default_rng(5))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_rows_leave_at_the_iteration_cap(self, monkeypatch, cap):
        # no row converges within 3 iterations, so every row leaves the loop
        # through the cap, with the values of the last rank remap
        monkeypatch.setattr(surrogate, "IAAFT_MAX_ITERATIONS", cap)
        x = np.random.default_rng(9).standard_t(3, 500)
        active, irfft = [], np.fft.irfft

        def record(spec, *args, **kwargs):
            active.append(spec.shape[0])
            return irfft(spec, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", record)
        got = surrogate._iaaft_rows(x, surrogate._permutations(x, 8, np.random.default_rng(9)))
        assert active == [8] * cap
        monkeypatch.setattr(np.fft, "irfft", irfft)
        want = iaaft_reference(x, 8, np.random.default_rng(9))
        assert np.array_equal(got, want)
        assert np.array_equal(np.sort(got, axis=1), np.broadcast_to(np.sort(x), got.shape))

    def test_zero_dc_bin(self):
        # integers summing to exactly zero: the DC bin of every candidate is 0
        x = np.array([3, -1, 4, -1, -5, 9, -2, 6, -5, 3, -5, -6] * 8, dtype=float)
        assert x.sum() == 0.0 and np.fft.rfft(x)[0] == 0.0
        got = _iaaft_ensemble(x, 20, np.random.default_rng(1))
        want = iaaft_reference(x, 20, np.random.default_rng(1))
        assert np.all(np.isfinite(got))
        assert np.array_equal(np.sort(got, axis=1), np.broadcast_to(np.sort(x), got.shape))
        assert np.array_equal(got, want)


class TestIaaftSurrogate:
    def test_value_multiset_preserved(self):
        for seed in range(5):
            x = arfima_series(seed)
            s = iaaft_surrogate(x, seed=seed)
            assert np.array_equal(np.sort(s.values), np.sort(x.values))

    def test_spectrum_match(self):
        # the iteration has an intrinsic fixed-point mismatch floor of a few
        # 1e-3 at this length; anything below 5e-3 means it converged
        x = arfima_series(3)
        s = iaaft_surrogate(x, seed=0)
        amp_x = np.abs(np.fft.rfft(x.values))
        amp_s = np.abs(np.fft.rfft(s.values))
        mismatch = np.linalg.norm(amp_s - amp_x) / np.linalg.norm(amp_x)
        assert mismatch < 5e-3

    def test_different_seeds_near_independent(self):
        x = arfima_series(8)
        for seed in range(20):
            a = iaaft_surrogate(x, seed=seed).values
            b = iaaft_surrogate(x, seed=seed + 1000).values
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.25

    def test_deterministic(self):
        x = arfima_series(2)
        a = iaaft_surrogate(x, seed=5)
        b = iaaft_surrogate(x, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_short_series_rejected(self):
        with pytest.raises(InputError, match="too short"):
            iaaft_surrogate(TimeSeries(np.arange(10.0)))

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match=r"^seed=-1 < 0$"):
            iaaft_surrogate(arfima_series(0), seed=-1)


class TestSurrogateTest:
    cfg = DetrendConfig(scale_grid=(20,), q=2.0)

    def test_anticorrelated_pair_rejected(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000)
        y = -x + 0.05 * rng.standard_normal(5000)
        pair = AlignedPair(TimeSeries(x, label="x"), TimeSeries(y, label="y"))
        reports = surrogate_test(pair, self.cfg, n_surrogates=100)
        assert len(reports) == 1
        assert reports[0].p_value < 0.01
        assert reports[0].observed_rho < -0.9

    def test_pair_swap_symmetry(self):
        pair = gaussian_pair(4, 600, corr=0.5)
        swapped = AlignedPair(pair.y, pair.x)
        a = surrogate_test(pair, self.cfg, n_surrogates=100)
        b = surrogate_test(swapped, self.cfg, n_surrogates=100)
        assert a[0].p_value == b[0].p_value
        assert a[0].observed_rho == pytest.approx(b[0].observed_rho, abs=1e-12)

    @pytest.mark.parametrize("twin", [lambda x: x, lambda x: TimeSeries(x.values.copy())],
                             ids=["same_object", "copy"])
    def test_series_against_itself_is_significant_in_every_cell(self, twin):
        # x and y take their own streams, so the surrogate pairs are
        # independent and none comes near the observed rho = 1
        x = arfima_series(3, 600)
        reports = surrogate_test(AlignedPair(x, twin(x)), DetrendConfig(scale_grid=(10, 20, 40)),
                                 n_surrogates=100, qs=(2.0, 4.0))
        assert len(reports) == 6
        for rep in reports:
            assert rep.observed_rho == pytest.approx(1.0, abs=1e-12)
            assert rep.p_value == 1 / 101 and abs(rep.surrogate_mean) < 0.5
            assert classify(rep) == {2.0: "no hedge", 4.0: "no safe haven"}[rep.q]

    def test_p_value_range_and_add_one(self):
        pair = gaussian_pair(1, 600)
        rep = surrogate_test(pair, self.cfg, n_surrogates=100)[0]
        assert 0.0 < rep.p_value <= 1.0
        # p is a multiple of 1/(n+1) under the add-one correction
        assert (rep.p_value * 101) == pytest.approx(round(rep.p_value * 101))

    def test_monotone_in_correlation(self):
        ps = []
        for corr in (0.0, 0.6, 0.95):
            vals = [
                surrogate_test(gaussian_pair(s, 800, corr=corr), self.cfg,
                               n_surrogates=100)[0].p_value
                for s in range(5)
            ]
            ps.append(np.median(vals))
        assert ps[0] >= ps[1] >= ps[2]

    def test_several_qs_match_single_q_calls(self):
        pair = gaussian_pair(7, 800, corr=-0.3)
        grid = (10, 20, 50)
        joint = surrogate_test(pair, DetrendConfig(scale_grid=grid, q=2.0), n_surrogates=100,
                               seed=3, qs=(2.0, 4.0, -2.0))
        single = [rep for q in (2.0, 4.0, -2.0)
                  for rep in surrogate_test(pair, DetrendConfig(scale_grid=grid, q=q),
                                            n_surrogates=100, seed=3)]
        assert [(r.q, r.scale) for r in joint] == [(r.q, r.scale) for r in single]
        for a, b in zip(joint, single):
            assert np.array_equal(a.surrogate_values, b.surrogate_values)
            assert a.observed_rho == b.observed_rho
            assert a.p_value == b.p_value

    @staticmethod
    def _rho_all_scales_reference(px, py, cfg, qs):
        """A one-row aggregate_q call and rho_q_dmca per (q, scale) cell, NaN
        where they raise."""
        rhos = np.empty((len(qs), len(cfg.scale_grid)))
        for j, s in enumerate(cfg.scale_grid):
            stats = _dma_segment_stats(px, py, s, cfg.theta)
            for i, q in enumerate(qs):
                try:
                    rhos[i, j], _ = one_row_rho(s, q, *stats)
                except DegenerateFluctuationError:
                    rhos[i, j] = np.nan
        return rhos

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scoring_bit_identical_to_per_cell_aggregation(self, seed):
        pair = gaussian_pair(seed, 1000, corr=-0.5)
        px, py = np.cumsum(pair.x.values), np.cumsum(pair.y.values)
        cfg = DetrendConfig(scale_grid=(10, 16, 40, 100, 250))
        qs = (2.0, 4.0, -2.0)
        want = self._rho_all_scales_reference(px, py, cfg, qs)
        assert np.array_equal(surrogate._rho_all_scales(px, py, cfg, qs), want)

    def test_scoring_degenerate_pair_is_nan(self):
        px = np.zeros(600)
        py = np.cumsum(gaussian_pair(1, 600).y.values)
        cfg = DetrendConfig(scale_grid=(10, 20))
        for qs in ((2.0,), (-2.0,), (2.0, -2.0)):
            want = self._rho_all_scales_reference(px, py, cfg, qs)
            assert np.isnan(want).all()
            assert np.array_equal(surrogate._rho_all_scales(px, py, cfg, qs), want, equal_nan=True)

    def test_every_surrogate_degenerate_raises(self, monkeypatch):
        # the observed pair is scored first, in this process; every later
        # scoring (the blocks, in-process or in forked workers, and every
        # retry) reports a degenerate cell
        original = surrogate._rho_all_scales
        calls = []

        def observed_only(*args):
            calls.append(1)
            rhos = original(*args)
            return rhos if len(calls) == 1 else np.full_like(rhos, np.nan)

        monkeypatch.setattr(surrogate, "_rho_all_scales", observed_only)
        with pytest.raises(DegenerateFluctuationError, match="all 100 surrogate pairs"):
            surrogate_test(gaussian_pair(1, 600), self.cfg, n_surrogates=100)

    def test_degenerate_observed_pair_raises(self):
        # a zero series has zero residuals: F_x^q = 0 in every observed cell
        pair = AlignedPair(TimeSeries(np.zeros(600)), gaussian_pair(1, 600).y)
        with pytest.raises(DegenerateFluctuationError,
                           match="^degenerate fluctuation in the observed pair$"):
            surrogate_test(pair, self.cfg, n_surrogates=100)

    def test_preconditions(self):
        pair = gaussian_pair(0, 600)
        with pytest.raises(InputError, match="n_surrogates"):
            surrogate_test(pair, self.cfg, n_surrogates=50)
        short = gaussian_pair(0, 24)
        with pytest.raises(InputError, match="too short"):
            surrogate_test(short, DetrendConfig(scale_grid=(5,), q=2.0),
                           n_surrogates=100)
        with pytest.raises(InputError, match=r"^seed=-1 < 0$"):
            surrogate_test(pair, self.cfg, n_surrogates=100, seed=-1)

    @pytest.mark.parametrize("qs,message", [
        ((), "empty list of fluctuation orders"),
        ((0.0,), "q=0.0 must be finite and nonzero"),
        ((2.0, 0), "q=0 must be finite and nonzero"),
        ((float("nan"),), "q=nan must be finite and nonzero"),
        ((2.0, float("-inf")), "q=-inf must be finite and nonzero"),
        ((2.0, 4.0, 2.0), "q=2.0 given twice"),
    ])
    def test_bad_orders_rejected(self, qs, message):
        with pytest.raises(InputError, match=message):
            surrogate_test(gaussian_pair(0, 600), self.cfg, n_surrogates=100, qs=qs)


def surrogate_test_reference(pair, cfg, n_surrogates, seed, qs):
    """The surrogate test as one ensemble per series, scored one surrogate
    pair at a time, each degenerate pair regenerated in row order."""
    x, y = pair.x.values, pair.y.values
    observed = surrogate._rho_all_scales(np.cumsum(x), np.cumsum(y), cfg, qs)
    rng_x = _series_rng(seed, x)
    rng_y = _series_rng(seed, y)
    sx = _iaaft_ensemble(x, n_surrogates, rng_x)
    sy = _iaaft_ensemble(y, n_surrogates, rng_y)
    surr_rhos = np.empty((n_surrogates, len(qs), len(cfg.scale_grid)))
    failed = np.zeros(n_surrogates, dtype=bool)
    for i in range(n_surrogates):
        rhos = surrogate._rho_all_scales(np.cumsum(sx[i]), np.cumsum(sy[i]), cfg, qs)
        retries = 0
        while np.isnan(rhos).any() and retries < surrogate.MAX_REGENERATION_RETRIES:
            retries += 1
            sx[i] = _iaaft_ensemble(x, 1, rng_x)[0]
            sy[i] = _iaaft_ensemble(y, 1, rng_y)[0]
            rhos = surrogate._rho_all_scales(np.cumsum(sx[i]), np.cumsum(sy[i]), cfg, qs)
        if np.isnan(rhos).any():
            failed[i] = True
        else:
            surr_rhos[i] = rhos
    ok = ~failed
    reports = []
    for k, q in enumerate(qs):
        for j, s in enumerate(cfg.scale_grid):
            vals = surr_rhos[ok, k, j]
            mean = float(vals.mean())
            obs = float(observed[k, j])
            count = int(np.sum(np.abs(vals - mean) >= abs(obs - mean)))
            reports.append(SurrogateTestReport(
                scale=s, q=q, observed_rho=obs, surrogate_mean=mean,
                surrogate_values=vals, p_value=(count + 1) / (vals.size + 1),
                n_failed=int(failed.sum()),
            ))
    return reports


def assert_same_reports(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.scale, a.q, a.observed_rho, a.surrogate_mean, a.p_value, a.n_failed) == (
            b.scale, b.q, b.observed_rho, b.surrogate_mean, b.p_value, b.n_failed)
        assert a.surrogate_values.tobytes() == b.surrogate_values.tobytes()


def record_blocks(monkeypatch) -> list:
    """Make surrogate's _run_jobs record, per call, its job function and the
    x rows of each job as the job is taken."""
    calls, run_jobs = [], benchmark._run_jobs

    def record(fn, jobs):
        sizes = []
        calls.append((fn, sizes))

        def counted():
            for job in jobs:
                sizes.append(len(job[2]))  # the rows of x's initial block
                yield job
        return run_jobs(fn, counted())

    monkeypatch.setattr(surrogate, "_run_jobs", record)
    return calls


class TestSurrogateBlocks:
    cfg = DetrendConfig(scale_grid=(10, 20, 50), q=2.0)
    qs = (2.0, 4.0, -2.0)
    seed = 5

    @pytest.fixture(scope="class")
    def pair(self):
        return gaussian_pair(9, 600, corr=-0.4)

    @pytest.fixture(scope="class")
    def want(self, pair):
        return surrogate_test_reference(pair, self.cfg, 100, self.seed, self.qs)

    @pytest.mark.parametrize("rows", [None, 3, 1])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_same_bits_for_any_block_size_and_cpu_count(self, monkeypatch, pair, want, cpus,
                                                          rows):
        if rows is not None:
            monkeypatch.setattr(benchmark, "BLOCK_POINTS", rows * len(pair))
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: cpus)
        got = surrogate_test(pair, self.cfg, n_surrogates=100, seed=self.seed, qs=self.qs)
        assert_same_reports(got, want)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rows_go_through_in_blocks(self, monkeypatch, pair, cpus):
        calls = record_blocks(monkeypatch)
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: cpus)
        surrogate_test(pair, self.cfg, n_surrogates=130, seed=self.seed)
        assert benchmark.BLOCK_POINTS // len(pair) == 54  # rows a block may hold
        # ceil(130 / 54) = 3 blocks, as even as possible
        assert calls == [(surrogate._surrogate_block, [43, 43, 44])]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_parent_memory_flat_in_the_surrogate_count(self, monkeypatch, cpus):
        # at the paper's length a block is one row, and each block's rows are
        # drawn as its job is taken, so the parent holds the rows of _run_jobs'
        # window, not of the whole ensemble (40 more pairs would be 80 rows)
        n = 35_608
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        cfg = DetrendConfig(scale_grid=(10, 20), q=2.0)
        monkeypatch.setattr(surrogate, "_iaaft_rows", lambda x, cand: cand)
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: cpus)

        def peak(count):
            tracemalloc.start()
            try:
                surrogate._score_new_pairs(x, y, count, np.random.default_rng(0),
                                           np.random.default_rng(1), cfg, (2.0,))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert benchmark._row_blocks(60, n) == [(i, i + 1) for i in range(60)]
        peak(2)  # imports the worker pool's modules before anything is traced
        row = x.nbytes
        assert peak(60) - peak(20) < 4 * row

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_degenerate_row_regenerated_with_the_same_draws(self, monkeypatch, pair, want,
                                                            cpus):
        # rows 37 and 61 are the only surrogate pairs whose x surrogate starts
        # at its value; both are marked degenerate, and so is any retry that
        # starts there
        sx = _iaaft_ensemble(pair.x.values, 100, _series_rng(self.seed, pair.x.values))
        starts = sx[[37, 61], 0]
        assert np.isin(sx[:, 0], starts).sum() == 2 and pair.x.values[0] not in starts
        seen = mark_degenerate(monkeypatch, starts)
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(benchmark, "BLOCK_POINTS", 30 * len(pair))
        got = surrogate_test(pair, self.cfg, n_surrogates=100, seed=self.seed, qs=self.qs)
        del seen[:]
        regenerated = surrogate_test_reference(pair, self.cfg, 100, self.seed, self.qs)
        assert len(seen) >= 1 + 100 + 2  # the observed pair, the ensemble, the retries
        assert regenerated[0].n_failed == 0
        assert_same_reports(got, regenerated)
        assert not np.array_equal(got[0].surrogate_values, want[0].surrogate_values)


    def test_degenerate_rows_retried_in_block_jobs(self, monkeypatch, pair):
        # rows 37 and 61 degenerate (see above): one round of two retry pairs
        # goes through the same block runner as the ensemble
        sx = _iaaft_ensemble(pair.x.values, 100, _series_rng(self.seed, pair.x.values))
        mark_degenerate(monkeypatch, sx[[37, 61], 0])
        calls = record_blocks(monkeypatch)
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: 1)
        reports = surrogate_test(pair, self.cfg, n_surrogates=100, seed=self.seed, qs=self.qs)
        assert reports[0].n_failed == 0
        assert [(fn, sum(sizes)) for fn, sizes in calls] == [(surrogate._surrogate_block, 100),
                                                            (surrogate._surrogate_block, 2)]

    def test_rows_that_use_up_their_retries_match_one_pair_at_a_time(self, monkeypatch, pair):
        # a pair whose x surrogate starts at one of x's 480 smallest values is
        # degenerate (about 80 % of draws), so the retries run over several
        # rounds and some rows fail all MAX_REGENERATION_RETRIES
        x = pair.x.values
        mark_degenerate(monkeypatch, np.setdiff1d(np.sort(x)[:480], x[:1]))
        calls = record_blocks(monkeypatch)
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: 1)
        got = surrogate_test(pair, self.cfg, n_surrogates=100, seed=self.seed, qs=self.qs)
        assert len(calls) > 2 and 0 < got[0].n_failed < 100  # the ensemble, then rounds
        assert_same_reports(got, surrogate_test_reference(pair, self.cfg, 100, self.seed,
                                                          self.qs))


class TestClassify:
    def _report(self, q, rho, p):
        return SurrogateTestReport(scale=20, q=q, observed_rho=rho,
                                   surrogate_mean=0.0,
                                   surrogate_values=np.zeros(1), p_value=p)

    def test_hedge_branches(self):
        assert classify(self._report(2.0, -0.4165, 0.000999)) == "strong hedge"
        assert classify(self._report(2.0, 0.0284, 0.16)) == "weak hedge"
        assert classify(self._report(2.0, 0.3, 0.01)) == "no hedge"

    def test_safe_haven_branches(self):
        assert classify(self._report(4.0, -0.1477, 0.000999)) == "strong safe haven"
        assert classify(self._report(4.0, 0.05, 0.5)) == "weak safe haven"
        assert classify(self._report(4.0, 0.2, 0.02)) == "no safe haven"

    def test_alpha_threshold(self):
        rep = self._report(2.0, -0.3, 0.03)
        assert classify(rep, alpha=0.05) == "strong hedge"
        assert classify(rep, alpha=0.01) == "weak hedge"

    def test_other_orders_labeled(self):
        assert "q=3" in classify(self._report(3.0, -0.3, 0.5))


def test_stars():
    assert stars(0.005) == "***"
    assert stars(0.03) == "**"
    assert stars(0.08) == "*"
    assert stars(0.2) == ""
