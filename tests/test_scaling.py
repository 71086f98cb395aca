import numpy as np
import pytest

from fractal_xcorr import (
    AlignedPair,
    DegenerateFluctuationError,
    DetrendConfig,
    InputError,
    TimeSeries,
    estimate_h_rho,
    estimate_hurst,
    fit_power_law,
    log_scales,
)
from fractal_xcorr import BenchmarkConfig, benchmark, fluctuation, scaling
from fractal_xcorr.mc_arfima import McArfimaSpec, generate
from conftest import gaussian_pair


class TestLogScales:
    def test_endpoints_and_monotone(self):
        grid = log_scales(10, 1000)
        assert grid[0] == 10 and grid[-1] == 1000
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert len(grid) <= 20

    def test_dedup_on_narrow_range(self):
        grid = log_scales(10, 20)
        assert grid == tuple(range(10, 21))

    def test_bad_range(self):
        with pytest.raises(InputError, match=r"^empty scale range \[50, 10\]$"):
            log_scales(50, 10)

    def test_largest_exact_end(self):
        grid = log_scales(20, 2**53, 5)
        assert grid[0] == 20 and grid[-1] == 2**53
        assert all(type(s) is int for s in grid)

    @pytest.mark.parametrize("lo, hi, num", [
        (20, 2**53 + 1, 5),
        (20, 2**63 - 1, 5),  # once cast past int64, which put lo in place of hi
        (20, 2**64 - 1, 5),
        (20, 10**23, 5),  # once a TypeError inside np.geomspace
        (0, 15, 3),
        (-3, 15, 3),
        (4, 15, 0),
        (4, 15, -1),
    ])
    def test_range_outside_exact_integers_rejected(self, lo, hi, num):
        with pytest.raises(InputError, match=fr"^scale range \[{lo}, {hi}\] with {num} points: "):
            log_scales(lo, hi, num)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        pts = [(s, s**0.9) for s in (4, 8, 16, 32, 64)]
        fit = fit_power_law(pts)
        assert fit.exponent == pytest.approx(0.9, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.n_points == 5

    def test_constant_values(self):
        fit = fit_power_law([(s, 3.0) for s in (4, 8, 16)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_prefactor_in_intercept(self):
        fit = fit_power_law([(s, 2.0 * s**0.7) for s in (4, 8, 16, 32)])
        assert fit.exponent == pytest.approx(0.7, abs=1e-10)
        assert np.exp(fit.intercept) == pytest.approx(2.0, abs=1e-9)

    def test_noisy_power_law(self):
        hits = 0
        scales = tuple(log_scales(4, 256, 12))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = [(s, 2.0 * s**0.7 * np.exp(0.01 * rng.standard_normal()))
                   for s in scales]
            if abs(fit_power_law(pts).exponent - 0.7) < 0.05:
                hits += 1
        assert hits == 100

    def test_fit_range_restriction(self):
        pts = [(s, s**0.5) for s in (4, 8, 16, 32, 64, 128)]
        fit = fit_power_law([(s, v) for s, v in pts if 8 <= s <= 64])
        assert fit.n_points == 4
        assert fit.fit_range == (8, 64)

    def test_errors(self):
        with pytest.raises(InputError, match="at least 3"):
            fit_power_law([(4, 1.0), (8, 2.0)])
        with pytest.raises(InputError, match="non-positive"):
            fit_power_law([(4, 1.0), (8, 0.0), (16, 2.0)])


class TestEstimateHurst:
    grid = log_scales(10, 200)

    def test_white_noise_quick(self):
        ests = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            series = TimeSeries(rng.standard_normal(2000))
            cfg = DetrendConfig(scale_grid=self.grid, q=2.0)
            ests.append(estimate_hurst(series, cfg).exponent)
        assert 0.42 < np.mean(ests) < 0.58

    def test_persistent_process_quick(self):
        ests = []
        for seed in range(20):
            sample = generate(McArfimaSpec(length=2000, seed=seed))
            cfg = DetrendConfig(scale_grid=self.grid, q=2.0)
            ests.append(estimate_hurst(sample.x, cfg).exponent)
        assert np.mean(ests) > 0.75

    @pytest.mark.parametrize("q", [2.0, 4.0, -2.0])
    def test_one_residual_per_scale(self, monkeypatch, q):
        # the series is both legs of its pair, so one moving average per
        # scale serves both; a twin with equal values but its own array
        # takes two and must give the same fit
        cfg = DetrendConfig(scale_grid=self.grid, q=q)
        series = TimeSeries(np.random.default_rng(8).standard_normal(2000))
        calls = []
        original = fluctuation.moving_average
        monkeypatch.setattr(fluctuation, "moving_average",
                            lambda *args: calls.append(args[1]) or original(*args))
        twin = fluctuation.q_fluctuations(AlignedPair(series, TimeSeries(series.values.copy())), cfg)
        assert len(calls) == 2 * len(self.grid)
        calls.clear()
        fit = estimate_hurst(series, cfg)
        assert calls == list(self.grid)
        assert fit == fit_power_law([(fs.scale, fs.f_x_q ** (1.0 / q)) for fs in twin])

    def test_degenerate_series(self):
        # constant increments give a linear profile that odd centered
        # windows annihilate exactly
        cfg = DetrendConfig(scale_grid=(11, 21, 41), q=2.0)
        with pytest.raises(DegenerateFluctuationError):
            estimate_hurst(TimeSeries(np.full(500, 1.0)), cfg)

    def test_order_q_mean_underflowed_to_zero_is_degenerate(self):
        # at q = -400 every kept power of these large RMS values underflows,
        # so F_x^q is a finite 0 whose 1/q-th root 0 ** (1/q) has no value
        series = TimeSeries(100.0 * np.random.default_rng(1).standard_normal(1000))
        cfg = DetrendConfig(scale_grid=(10, 20, 40), q=-400.0)
        assert fluctuation.q_fluctuations(AlignedPair(series, series), cfg)[0].f_x_q == 0.0
        with pytest.raises(DegenerateFluctuationError, match="^scale 10: degenerate fluctuation$"):
            estimate_hurst(series, cfg)


class TestEstimateHRho:
    def test_identical_pair_zero_exponent(self, pair_1000):
        same = AlignedPair(pair_1000.x, pair_1000.x)
        for method in ("q-DMCA", "q-DCCA"):
            cfg = DetrendConfig(scale_grid=(10, 25, 50, 100), q=2.0)
            est = estimate_h_rho(same, cfg, method=method)
            assert est.h_rho == pytest.approx(0.0, abs=1e-12)
            assert all(r == pytest.approx(1.0, abs=1e-12)
                       for _, r, _ in est.per_scale_rho.points)

    def test_h_rho_slope_relation(self, pair_1000):
        cfg = DetrendConfig(scale_grid=(10, 25, 50, 100), q=4.0)
        est = estimate_h_rho(gaussian_pair(3, 1000, corr=0.6), cfg)
        assert est.h_rho == pytest.approx(est.fit.exponent / 8.0)
        assert est.per_scale_rho.q == 4.0

    def test_negative_sign_on_canonical_process(self):
        cfg = DetrendConfig(scale_grid=log_scales(10, 1000), q=2.0)
        neg = 0
        for seed in range(20):
            sample = generate(McArfimaSpec(cross_corr=0.9, length=5000, seed=seed))
            pair = AlignedPair(sample.x, sample.y)
            if estimate_h_rho(pair, cfg).h_rho < 0:
                neg += 1
        assert neg >= 19

    def test_unknown_method(self, pair_1000):
        cfg = DetrendConfig(scale_grid=(10, 25, 50), q=2.0)
        with pytest.raises(InputError):
            estimate_h_rho(pair_1000, cfg, method="other")

    def test_equals_the_benchmark_estimate(self):
        # the scalar path and the benchmark's batched one give the same bits
        fit = log_scales(10, 100)
        samples = [generate(McArfimaSpec(cross_corr=0.5, length=2000, seed=seed))
                   for seed in range(5)]
        px, py = (np.cumsum([getattr(s, leg).values for s in samples], axis=-1)
                  for leg in ("x", "y"))
        est = benchmark._estimate_all(px, py, BenchmarkConfig(qs=(2.0, 4.0), replications=10),
                                      {"DMCA": {100: fit}, "DCCA": {10: fit}})
        for method, key in (("q-DMCA", ("DMCA", 100)), ("q-DCCA", ("DCCA", 10))):
            for q in (2.0, 4.0):
                cfg = DetrendConfig(scale_grid=fit, q=q)
                for r, sample in enumerate(samples):
                    h = estimate_h_rho(AlignedPair(sample.x, sample.y), cfg, method).h_rho
                    assert h == est[(key[0], q, key[1])][r], (method, q, r)

    def test_zero_coherency_in_fit_range_raises(self, pair_1000, monkeypatch):
        cfg = DetrendConfig(scale_grid=(10, 25, 50), q=2.0)
        profile = fluctuation.CorrelationProfile(
            method="q-DMCA", q=2.0, points=((10, 0.5, False), (25, 0.0, False), (50, 0.3, False)))
        monkeypatch.setattr(scaling, "correlation_profile", lambda *args: profile)
        with pytest.raises(DegenerateFluctuationError,
                           match="^zero coherency in fit range at scale 25$"):
            estimate_h_rho(pair_1000, cfg)
