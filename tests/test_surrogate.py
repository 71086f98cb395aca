import numpy as np
import pytest

from fractal_xcorr import (
    AlignedPair,
    DetrendConfig,
    IaaftConfig,
    InputError,
    TimeSeries,
    iaaft_surrogate,
    classify,
    surrogate_test,
)
from fractal_xcorr import surrogate
from fractal_xcorr.errors import DegenerateFluctuationError
from fractal_xcorr.fluctuation import _dma_segment_stats, aggregate_q, rho_q_dmca
from fractal_xcorr.mc_arfima import McArfimaSpec, generate
from fractal_xcorr.surrogate import SurrogateTestReport, _iaaft_ensemble, stars
from conftest import gaussian_pair


def arfima_series(seed, n=1024):
    return generate(McArfimaSpec(length=n, seed=seed, truncation=2000)).x


def iaaft_reference(x, n_rows, cfg, rng):
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
    for _ in range(cfg.max_iterations):
        spec = np.fft.rfft(cand[active], axis=1)
        mismatch = np.linalg.norm(np.abs(spec) - target_amp, axis=1) / target_norm
        rel_change = np.abs(prev[active] - mismatch) / np.maximum(mismatch, 1e-300)
        prev[active] = mismatch
        keep = rel_change >= cfg.convergence_tol
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
        cfg = IaaftConfig(seed=seed)
        got = _iaaft_ensemble(x, 20, cfg, np.random.default_rng(seed))
        want = iaaft_reference(x, 20, cfg, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    def test_zero_dc_bin(self):
        # integers summing to exactly zero: the DC bin of every candidate is 0
        x = np.array([3, -1, 4, -1, -5, 9, -2, 6, -5, 3, -5, -6] * 8, dtype=float)
        assert x.sum() == 0.0 and np.fft.rfft(x)[0] == 0.0
        cfg = IaaftConfig(seed=1)
        got = _iaaft_ensemble(x, 20, cfg, np.random.default_rng(1))
        want = iaaft_reference(x, 20, cfg, np.random.default_rng(1))
        assert np.all(np.isfinite(got))
        assert np.array_equal(np.sort(got, axis=1), np.broadcast_to(np.sort(x), got.shape))
        assert np.array_equal(got, want)


class TestIaaftSurrogate:
    def test_value_multiset_preserved(self):
        for seed in range(5):
            x = arfima_series(seed)
            s = iaaft_surrogate(x, IaaftConfig(seed=seed))
            assert np.array_equal(np.sort(s.values), np.sort(x.values))

    def test_spectrum_match(self):
        # the iteration has an intrinsic fixed-point mismatch floor of a few
        # 1e-3 at this length; anything below 5e-3 means it converged
        x = arfima_series(3)
        s = iaaft_surrogate(x, IaaftConfig(seed=0))
        amp_x = np.abs(np.fft.rfft(x.values))
        amp_s = np.abs(np.fft.rfft(s.values))
        mismatch = np.linalg.norm(amp_s - amp_x) / np.linalg.norm(amp_x)
        assert mismatch < 5e-3

    def test_different_seeds_near_independent(self):
        x = arfima_series(8)
        for seed in range(20):
            a = iaaft_surrogate(x, IaaftConfig(seed=seed)).values
            b = iaaft_surrogate(x, IaaftConfig(seed=seed + 1000)).values
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.25

    def test_deterministic(self):
        x = arfima_series(2)
        a = iaaft_surrogate(x, IaaftConfig(seed=5))
        b = iaaft_surrogate(x, IaaftConfig(seed=5))
        assert np.array_equal(a.values, b.values)

    def test_short_series_rejected(self):
        with pytest.raises(InputError, match="too short"):
            iaaft_surrogate(TimeSeries(np.arange(10.0)))

    def test_config_validation(self):
        with pytest.raises(InputError):
            IaaftConfig(max_iterations=0)


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
        iaaft = IaaftConfig(seed=3)
        joint = surrogate_test(pair, DetrendConfig(scale_grid=grid, q=2.0), n_surrogates=100,
                               iaaft=iaaft, qs=(2.0, 4.0, -2.0))
        single = [rep for q in (2.0, 4.0, -2.0)
                  for rep in surrogate_test(pair, DetrendConfig(scale_grid=grid, q=q),
                                            n_surrogates=100, iaaft=iaaft)]
        assert [(r.q, r.scale) for r in joint] == [(r.q, r.scale) for r in single]
        for a, b in zip(joint, single):
            assert np.array_equal(a.surrogate_values, b.surrogate_values)
            assert a.observed_rho == b.observed_rho
            assert a.p_value == b.p_value

    @staticmethod
    def _rho_all_scales_reference(px, py, cfg, qs):
        """One aggregate_q and rho_q_dmca call per (q, scale) cell."""
        rhos = np.empty((len(qs), len(cfg.scale_grid)))
        for j, s in enumerate(cfg.scale_grid):
            stats = _dma_segment_stats(px, py, s, cfg.theta)
            for i, q in enumerate(qs):
                try:
                    rhos[i, j], _ = rho_q_dmca(aggregate_q(s, q, *stats))
                except DegenerateFluctuationError:
                    return None
        return rhos

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scoring_bit_identical_to_per_cell_aggregation(self, seed):
        pair = gaussian_pair(seed, 1000, corr=-0.5)
        px, py = np.cumsum(pair.x.values), np.cumsum(pair.y.values)
        cfg = DetrendConfig(scale_grid=(10, 16, 40, 100, 250))
        qs = (2.0, 4.0, -2.0)
        want = self._rho_all_scales_reference(px, py, cfg, qs)
        assert np.array_equal(surrogate._rho_all_scales(px, py, cfg, qs), want)

    def test_scoring_degenerate_pair_is_none(self):
        px = np.zeros(600)
        py = np.cumsum(gaussian_pair(1, 600).y.values)
        cfg = DetrendConfig(scale_grid=(10, 20))
        for qs in ((2.0,), (-2.0,), (2.0, -2.0)):
            assert self._rho_all_scales_reference(px, py, cfg, qs) is None
            assert surrogate._rho_all_scales(px, py, cfg, qs) is None

    def test_every_surrogate_degenerate_raises(self, monkeypatch):
        original = surrogate._rho_all_scales
        calls = []

        def observed_only(*args):
            calls.append(1)
            return original(*args) if len(calls) == 1 else None

        monkeypatch.setattr(surrogate, "_rho_all_scales", observed_only)
        with pytest.raises(DegenerateFluctuationError, match="all 100 surrogate pairs"):
            surrogate_test(gaussian_pair(1, 600), self.cfg, n_surrogates=100)

    def test_preconditions(self):
        pair = gaussian_pair(0, 600)
        with pytest.raises(InputError, match="n_surrogates"):
            surrogate_test(pair, self.cfg, n_surrogates=50)
        short = gaussian_pair(0, 24)
        with pytest.raises(InputError, match="too short"):
            surrogate_test(short, DetrendConfig(scale_grid=(5,), q=2.0),
                           n_surrogates=100)


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
