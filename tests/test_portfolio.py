import numpy as np
import pytest

from fractal_xcorr import (
    AlignedPair,
    DegenerateFluctuationError,
    DetrendConfig,
    InputError,
    TimeSeries,
    hedge_ratio,
    optimal_weight,
    portfolio_scan,
)
from fractal_xcorr.fluctuation import FluctuationSet
from fractal_xcorr.portfolio import clip_weight
from fractal_xcorr.mc_arfima import McArfimaSpec, generate
from conftest import gaussian_pair


def _fs(f_g, f_c, f_gc, q=2.0):
    return FluctuationSet(scale=20, q=q, f_x_q=f_g, f_y_q=f_c, f_xy_q=f_gc,
                          n_segments=10)


class TestOptimalWeight:
    def test_symmetric_case(self):
        raw, w = optimal_weight(_fs(1.0, 1.0, 0.0))
        assert raw == 0.5 and w == 0.5

    def test_direct_evaluation(self):
        raw, w = optimal_weight(_fs(1.0, 4.0, 0.0))
        assert raw == pytest.approx(0.8)
        assert w == pytest.approx(0.8)

    def test_lower_clipping_branch(self):
        raw, w = optimal_weight(_fs(4.0, 1.0, 1.5))
        assert raw == pytest.approx(-0.25)
        assert w == 0.0

    def test_upper_clipping_branch(self):
        raw, w = optimal_weight(_fs(1.0, 4.0, 1.5))
        assert raw == pytest.approx(1.25)
        assert w == 1.0

    def test_zero_cross_term_reduction(self):
        for f_g, f_c in ((1.0, 9.0), (3.0, 0.5), (2.0, 2.0)):
            raw, w = optimal_weight(_fs(f_g, f_c, 0.0))
            assert raw == pytest.approx(f_c / (f_g + f_c))
            assert 0.0 < w < 1.0

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateFluctuationError, match="portfolio variance"):
            optimal_weight(_fs(1.0, 1.0, 1.0))

    def test_clip_idempotent(self):
        for w in (-3.0, 0.0, 0.4, 1.0, 7.0):
            c = clip_weight(w)
            assert 0.0 <= c <= 1.0
            assert clip_weight(c) == c


class TestHedgeRatio:
    def test_values(self):
        assert hedge_ratio(_fs(1.0, 1.0, 0.0)) == 0.0
        assert hedge_ratio(_fs(1.0, 1.0, -0.3)) == pytest.approx(-0.3)
        assert hedge_ratio(_fs(2.0, 2.0, 2.0)) == pytest.approx(1.0)

    def test_sign_follows_cross_term(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f_g = float(rng.uniform(0.1, 5.0))
            f_gc = float(rng.uniform(-3.0, 3.0))
            beta = hedge_ratio(_fs(f_g, 1.0, f_gc))
            assert np.sign(beta) == np.sign(f_gc)

    def test_homogeneity_at_q2(self):
        # scaling the counterpart by a > 0 scales beta by a
        pair = gaussian_pair(5, 800, corr=0.6)
        a = 3.7
        scaled = AlignedPair(pair.x, TimeSeries(a * pair.y.values))
        cfg = DetrendConfig(scale_grid=(10, 20, 50), q=2.0)
        base = portfolio_scan(pair, cfg, qs=(2.0,))
        scal = portfolio_scan(scaled, cfg, qs=(2.0,))
        for m0, m1 in zip(base, scal):
            assert m1.beta == pytest.approx(a * m0.beta, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateFluctuationError):
            hedge_ratio(_fs(0.0, 1.0, 0.0))


class TestPortfolioScan:
    def test_identical_pair_degenerate(self, pair_1000):
        same = AlignedPair(pair_1000.x, pair_1000.x)
        cfg = DetrendConfig(scale_grid=(10, 20), q=2.0)
        with pytest.raises(DegenerateFluctuationError):
            portfolio_scan(same, cfg)

    def test_negative_coherency_beta_negative(self):
        sample = generate(McArfimaSpec(cross_corr=-0.9, length=5000, seed=4))
        pair = AlignedPair(sample.x, sample.y)
        cfg = DetrendConfig(scale_grid=(10, 20, 50, 100), q=2.0)
        for m in portfolio_scan(pair, cfg, qs=(2.0,)):
            assert m.beta < 0.0

    def test_calm_asset_dominates(self):
        rng = np.random.default_rng(6)
        calm = TimeSeries(rng.standard_normal(2000))
        wild = TimeSeries(np.sqrt(10.0) * rng.standard_normal(2000))
        pair = AlignedPair(calm, wild)
        cfg = DetrendConfig(scale_grid=(10, 20, 50), q=2.0)
        for m in portfolio_scan(pair, cfg, qs=(2.0,)):
            assert m.w_g > 0.85  # weight of the calm x leg

    @pytest.mark.parametrize("qs, message", [
        ((2.0, 4.0, 2.0), "q=2.0 given twice"),
        ((2.0, 0.0), "q=0.0 must be finite and nonzero"),
        ((), "empty list of fluctuation orders"),
    ])
    def test_bad_orders_rejected(self, pair_1000, qs, message):
        with pytest.raises(InputError, match=message):
            portfolio_scan(pair_1000, DetrendConfig(scale_grid=(10, 25)), qs=qs)

    def test_grid_and_orders(self, pair_1000):
        cfg = DetrendConfig(scale_grid=(10, 25, 50), q=2.0)
        metrics = portfolio_scan(pair_1000, cfg, qs=(2.0, 4.0))
        assert {(m.scale, m.q) for m in metrics} == {
            (s, q) for s in (10, 25, 50) for q in (2.0, 4.0)}
        for m in metrics:
            assert 0.0 <= m.w_g <= 1.0
            assert m.w_g == clip_weight(m.w_g_raw)
