import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fractal_xcorr import (
    AlignedPair,
    DegenerateFluctuationError,
    DetrendConfig,
    InputError,
    TimeSeries,
    correlation_profile,
    moving_average,
    q_fluctuations,
    rho_q_dmca,
)
from fractal_xcorr.fluctuation import (
    FluctuationSet,
    _dcca_segment_stats,
    _dma_segment_stats,
    check_orders,
    n_segments,
    rho_q_grid,
)
from fractal_xcorr.mc_arfima import McArfimaSpec, generate
from conftest import gaussian_pair, one_row_rho
from oracle_naive import naive_residual, rho_dmca_classic


def _profile_pair(pair):
    return np.cumsum(pair.x.values), np.cumsum(pair.y.values)


class TestMovingAverage:
    def test_centered_hand_example(self):
        ma, start = moving_average([1.0, 2.0, 3.0, 4.0, 5.0], 3, theta=0.5)
        # value at 1-based position 3 is (2+3+4)/3
        assert start == 1
        assert np.allclose(ma, [2.0, 3.0, 4.0])
        assert ma[3 - 1 - start] == pytest.approx(3.0)

    def test_backward_hand_example(self):
        ma, start = moving_average([1.0, 2.0, 3.0, 4.0], 2, theta=0.0)
        # theta=0: each value averages the point and its predecessor
        assert start == 1
        assert np.allclose(ma, [1.5, 2.5, 3.5])

    def test_forward_variant(self):
        ma, start = moving_average([1.0, 2.0, 3.0, 4.0], 2, theta=1.0)
        assert start == 0
        assert np.allclose(ma, [1.5, 2.5, 3.5])

    def test_constant_profile(self):
        for theta in (0.0, 0.3, 0.5, 1.0):
            ma, _ = moving_average(np.full(40, 7.0), 9, theta=theta)
            assert np.allclose(ma, 7.0)
            assert ma.size == 32

    def test_window_errors(self):
        with pytest.raises(InputError):
            moving_average(np.arange(5.0), 6)
        with pytest.raises(InputError):
            moving_average(np.arange(5.0), 1)
        with pytest.raises(InputError):
            moving_average(np.arange(5.0), 3, theta=1.5)


class TestRunningSum:
    @pytest.mark.parametrize("s", [4, 20, 3162, 125_000])
    def test_matches_direct_form_at_large_n(self, s):
        x = np.cumsum(np.random.default_rng(31).standard_normal(500_000))
        w = np.full(s, 1.0 / s)
        for theta in (0.0, 0.5, 1.0):
            ma, start = moving_average(x, s, theta)
            m = ma.size
            rms = np.sqrt(np.mean((x[start : start + m] - ma) ** 2))
            # np.convolve on 400 outputs at the head, middle and tail
            for a in (0, m // 2, m - 400):
                direct = np.convolve(x[a : a + 399 + s], w, mode="valid")
                err = np.max(np.abs(ma[a : a + 400] - direct))
                assert err <= 2e-11 * rms

    def test_same_values_on_any_grid(self, pair_1000):
        narrow = q_fluctuations(pair_1000, DetrendConfig(scale_grid=(10, 200), q=2.0))
        wide = q_fluctuations(pair_1000, DetrendConfig(scale_grid=(5, 10, 40, 200, 250), q=2.0))
        assert [wide[1], wide[3]] == narrow


class TestSegments:
    def test_segment_counts(self):
        assert n_segments(100, 25) == 3
        assert n_segments(40, 10) == 3
        assert n_segments(39, 10) == 2

    @staticmethod
    def _oracle_segments(profile, s):
        """Residual segments of the literal-transcription oracle, one list each."""
        resid = naive_residual(list(profile), s, 0.5)
        return [resid[v * s : (v + 1) * s] for v in range(n_segments(len(profile), s))]

    def test_detrended_segments_shape_and_discard(self):
        x = np.cumsum(np.random.default_rng(0).standard_normal(100))
        fx, fy, cross = _dma_segment_stats(x, x, 25, 0.5)
        assert fx.shape == fy.shape == cross.shape == (3,)
        # the last residual point (0-based position 87 of 12..87) is
        # discarded; only it sees the last profile point through its window
        moved = x.copy()
        moved[-1] += 1.0
        for got, want in zip(_dma_segment_stats(moved, moved, 25, 0.5), (fx, fy, cross)):
            assert np.array_equal(got, want)

    def test_zero_residual_for_constant_input(self):
        x = np.full(60, 3.0)
        for stat in _dma_segment_stats(x, x, 10, 0.5):
            assert np.all(stat == 0.0)

    def test_segment_rms(self):
        pair = gaussian_pair(3, 200)
        px, py = _profile_pair(pair)
        fx, fy, _ = _dma_segment_stats(px, py, 20, 0.5)
        for got, profile in ((fx, px), (fy, py)):
            want = [np.sqrt(sum(v * v for v in seg) / 20)
                    for seg in self._oracle_segments(profile, 20)]
            assert got == pytest.approx(want, rel=1e-10)
        fx3, _, _ = _dma_segment_stats(3.0 * px, py, 20, 0.5)
        assert fx3 == pytest.approx(3.0 * fx, rel=1e-12)

    def test_segment_cross(self):
        pair = gaussian_pair(4, 200, corr=0.5)
        px, py = _profile_pair(pair)
        _, _, cross = _dma_segment_stats(px, py, 20, 0.5)
        want = [sum(a * b for a, b in zip(sx, sy)) / 20
                for sx, sy in zip(self._oracle_segments(px, 20), self._oracle_segments(py, 20))]
        assert cross == pytest.approx(want, rel=1e-10)
        fx, _, same = _dma_segment_stats(px, px, 20, 0.5)
        assert same == pytest.approx(fx**2, rel=1e-12)
        _, _, opposite = _dma_segment_stats(px, -px, 20, 0.5)
        assert opposite == pytest.approx(-fx**2, rel=1e-12)


class TestQFluctuations:
    def test_identical_pair(self, pair_200):
        same = AlignedPair(pair_200.x, pair_200.x)
        for q in (2.0, 4.0):
            cfg = DetrendConfig(scale_grid=(5, 10, 25), q=q)
            for fs in q_fluctuations(same, cfg):
                assert fs.f_xy_q == pytest.approx(fs.f_x_q, rel=1e-12)
                assert fs.f_y_q == pytest.approx(fs.f_x_q, rel=1e-12)

    def test_negated_pair(self, pair_200):
        neg = AlignedPair(pair_200.x, TimeSeries(-pair_200.x.values))
        cfg = DetrendConfig(scale_grid=(5, 10, 25), q=2.0)
        for fs in q_fluctuations(neg, cfg):
            assert fs.f_xy_q == pytest.approx(-fs.f_x_q, rel=1e-12)

    def test_scale_too_large_rejected(self, pair_200):
        cfg = DetrendConfig(scale_grid=(5, 60), q=2.0)
        with pytest.raises(InputError, match="N/4"):
            q_fluctuations(pair_200, cfg)

    def test_config_validation(self):
        with pytest.raises(InputError):
            DetrendConfig(scale_grid=())
        with pytest.raises(InputError):
            DetrendConfig(scale_grid=(10, 10))
        with pytest.raises(InputError):
            DetrendConfig(scale_grid=(2, 10))
        with pytest.raises(InputError):
            DetrendConfig(scale_grid=(5, 10), q=0.0)
        with pytest.raises(InputError):
            DetrendConfig(scale_grid=(5, 10), theta=-0.1)


class TestRhoProperties:
    scales = (5, 10, 25)

    def test_identity(self):
        for seed in range(100):
            n = 200 if seed % 2 else 1000
            pair = gaussian_pair(seed, n)
            same = AlignedPair(pair.x, pair.x)
            for q in (2.0, 4.0):
                cfg = DetrendConfig(scale_grid=self.scales, q=q)
                for fs in q_fluctuations(same, cfg):
                    rho, _ = rho_q_dmca(fs)
                    assert abs(rho - 1.0) <= 1e-12

    def test_antisymmetry_and_symmetry(self):
        for seed in range(50):
            pair = gaussian_pair(seed, 400, corr=0.4)
            neg = AlignedPair(pair.x, TimeSeries(-pair.y.values))
            swp = AlignedPair(pair.y, pair.x)
            for q in (2.0, 4.0):
                cfg = DetrendConfig(scale_grid=self.scales, q=q)
                rhos = [rho_q_dmca(fs)[0] for fs in q_fluctuations(pair, cfg)]
                rhos_neg = [rho_q_dmca(fs)[0] for fs in q_fluctuations(neg, cfg)]
                rhos_swp = [rho_q_dmca(fs)[0] for fs in q_fluctuations(swp, cfg)]
                assert np.allclose(rhos_neg, -np.array(rhos), atol=1e-12)
                assert np.allclose(rhos_swp, rhos, atol=1e-12)

    def test_scale_invariance(self):
        for seed in range(50):
            pair = gaussian_pair(seed, 400, corr=0.4)
            a, b = 17.0, 0.003
            scaled = AlignedPair(
                TimeSeries(a * pair.x.values), TimeSeries(b * pair.y.values)
            )
            for q in (2.0, 4.0):
                cfg = DetrendConfig(scale_grid=self.scales, q=q)
                rhos = [rho_q_dmca(fs)[0] for fs in q_fluctuations(pair, cfg)]
                rhos_s = [rho_q_dmca(fs)[0] for fs in q_fluctuations(scaled, cfg)]
                assert np.allclose(rhos_s, rhos, atol=1e-10)

    def test_bound(self):
        for seed in range(100):
            pair = gaussian_pair(seed, 200 if seed % 2 else 1000, corr=0.7)
            for q in (2.0, 4.0):
                cfg = DetrendConfig(scale_grid=self.scales, q=q)
                for fs in q_fluctuations(pair, cfg):
                    raw = fs.f_xy_q / np.sqrt(fs.f_x_q * fs.f_y_q)
                    assert abs(raw) <= 1.0 + 1e-9

    def test_capping_branch(self):
        fs = FluctuationSet(scale=10, q=-2.0, f_x_q=1.0, f_y_q=1.0,
                            f_xy_q=1.25, n_segments=5)
        rho, capped = rho_q_dmca(fs)
        assert rho == pytest.approx(0.8)
        assert capped

    def test_degenerate_error(self):
        fs = FluctuationSet(scale=10, q=2.0, f_x_q=0.0, f_y_q=1.0,
                            f_xy_q=0.0, n_segments=5)
        with pytest.raises(DegenerateFluctuationError):
            rho_q_dmca(fs)

    def test_shift_robustness(self):
        # adding a constant to the increments only adds a linear ramp to the
        # profile, which the centered moving average absorbs; odd windows
        # only, since even ones are asymmetric by one point
        pair = gaussian_pair(23, 1000, corr=0.5)
        shifted = AlignedPair(TimeSeries(pair.x.values + 5.0), pair.y)
        cfg = DetrendConfig(scale_grid=(5, 9, 25), q=2.0)
        rhos = [rho_q_dmca(fs)[0] for fs in q_fluctuations(pair, cfg)]
        rhos_sh = [rho_q_dmca(fs)[0] for fs in q_fluctuations(shifted, cfg)]
        assert np.allclose(rhos_sh, rhos, atol=1e-6)


class TestNegativeQ:
    def test_zero_rms_segments_skipped(self):
        # first 30 increments are zero, so early segments have zero residual
        vals = np.random.default_rng(5).standard_normal(200)
        vals[:30] = 0.0
        pair = AlignedPair(TimeSeries(vals), TimeSeries(vals.copy()))
        cfg = DetrendConfig(scale_grid=(5,), q=-2.0)
        fs = q_fluctuations(pair, cfg)[0]
        assert fs.n_skipped > 0
        assert fs.n_segments + fs.n_skipped == 200 // 5 - 1
        assert np.isfinite(fs.f_x_q)

    def test_every_segment_skipped_raises(self):
        # a zero series has a zero residual, so every segment is skipped
        pair = AlignedPair(TimeSeries(np.zeros(200)), gaussian_pair(5, 200).y)
        with pytest.raises(DegenerateFluctuationError,
                           match=r"^scale 5: every segment degenerate at q=-2.0$"):
            q_fluctuations(pair, DetrendConfig(scale_grid=(5, 10), q=-2.0))
        fs = q_fluctuations(pair, DetrendConfig(scale_grid=(5,), q=2.0))[0]
        assert (fs.f_x_q, fs.f_xy_q, fs.n_segments, fs.n_skipped) == (0.0, 0.0, 39, 0)
        assert all(type(v) is float for v in (fs.f_x_q, fs.f_y_q, fs.f_xy_q))
        assert type(fs.n_segments) is int and type(fs.n_skipped) is int

    @pytest.mark.parametrize("q", [-1.0, -2.0, -4.0])
    def test_skipped_segments_match_the_oracle(self, q):
        # the oracle's segments with both RMS values nonzero, averaged at order q
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 300))
        x[:40] = 0.0  # a zero profile: exact zeros in both residuals
        y[:20] = 0.0
        fs = q_fluctuations(AlignedPair(TimeSeries(x), TimeSeries(y)),
                            DetrendConfig(scale_grid=(6,), q=q))[0]
        rx, ry = (TestSegments._oracle_segments(np.cumsum(v), 6) for v in (x, y))
        kept = [(np.sqrt(np.mean(np.square(a))), np.sqrt(np.mean(np.square(b))),
                 np.mean(np.multiply(a, b))) for a, b in zip(rx, ry)]
        kept = [k for k in kept if k[0] > 0 and k[1] > 0]
        assert fs.n_skipped > 0 and fs.n_segments == len(kept)
        want = np.mean([(fx**q, fy**q, np.sign(c) * abs(c) ** (q / 2)) for fx, fy, c in kept],
                       axis=0)
        assert (fs.f_x_q, fs.f_y_q, fs.f_xy_q) == pytest.approx(tuple(want), rel=1e-10)


class TestClassicDmca:
    """The segment-averaged engine against the whole-sample reference
    estimator of tests/oracle_naive.py."""

    @staticmethod
    def _classic(pair, s):
        return rho_dmca_classic(pair.x.values.tolist(), pair.y.values.tolist(), s, 0.5)

    def test_identity_exact(self, pair_1000):
        same = AlignedPair(pair_1000.x, pair_1000.x)
        for s in (10, 50, 200):
            assert self._classic(same, s) == pytest.approx(1.0, abs=1e-14)

    def test_independent_pair_small(self):
        hits = 0
        for seed in range(100):
            pair = gaussian_pair(1000 + seed, 10_000)
            if abs(self._classic(pair, 20)) < 0.1:
                hits += 1
        assert hits >= 95

    def test_agrees_with_q2_on_arfima(self):
        sample = generate(McArfimaSpec(cross_corr=0.9, length=5000, seed=8))
        pair = AlignedPair(sample.x, sample.y)
        cfg = DetrendConfig(scale_grid=(10, 20, 50, 100), q=2.0)
        for fs in q_fluctuations(pair, cfg):
            rho_seg, _ = rho_q_dmca(fs)
            rho_cls = self._classic(pair, fs.scale)
            assert abs(rho_seg - rho_cls) < 0.05


class TestDcca:
    def test_identity(self, pair_1000):
        same = AlignedPair(pair_1000.x, pair_1000.x)
        for q in (2.0, 4.0):
            for fs in q_fluctuations(same, DetrendConfig(scale_grid=(5, 10, 50), q=q), "q-DCCA"):
                rho, _ = rho_q_dmca(fs)
                assert rho == pytest.approx(1.0, abs=1e-12)

    def test_scale_beyond_series_raises(self):
        p = np.cumsum(np.ones(10))
        with pytest.raises(InputError, match="^scale 11 exceeds series length 10$"):
            _dcca_segment_stats(p, p, 11)

    def test_box_count_pooled(self, pair_1000):
        fs = q_fluctuations(pair_1000, DetrendConfig(scale_grid=(30,)), "q-DCCA")[0]
        assert fs.n_segments == 2 * (1000 // 30)

    def test_linear_pair_degenerate(self):
        t = np.arange(100.0)
        pair = AlignedPair(TimeSeries(np.full(100, 2.0)), TimeSeries(np.full(100, 3.0)))
        fs = q_fluctuations(pair, DetrendConfig(scale_grid=(10,)), "q-DCCA")[0]
        with pytest.raises(DegenerateFluctuationError):
            rho_q_dmca(fs)
        assert t.size == 100  # profile of a constant series is exactly linear


class TestCorrelationProfile:
    def test_profile_records(self, pair_1000):
        cfg = DetrendConfig(scale_grid=(10, 25, 50), q=2.0)
        prof = correlation_profile(pair_1000, cfg, method="q-DMCA")
        assert prof.method == "q-DMCA"
        assert [s for s, _, _ in prof.points] == [10, 25, 50]
        recs = prof.to_records()
        assert recs[0]["scale"] == 10 and recs[0]["q"] == 2.0
        assert prof.rho_at(25) == prof.points[1][1]
        with pytest.raises(KeyError):
            prof.rho_at(11)

    def test_unknown_method(self, pair_1000):
        cfg = DetrendConfig(scale_grid=(10, 25), q=2.0)
        with pytest.raises(InputError):
            correlation_profile(pair_1000, cfg, method="DFA")


class TestBatchedSegmentStats:
    """Profiles stacked along a leading axis give, row for row, the bits of
    the 1-D call."""

    @staticmethod
    def _stack(n, rows=8, seed=3):
        rng = np.random.default_rng(seed)
        return (np.cumsum(rng.standard_normal((rows, n)), axis=-1),
                np.cumsum(rng.standard_normal((rows, n)), axis=-1))

    @pytest.mark.parametrize("n", [500, 1000, 5000])
    def test_rows_bit_identical_to_1d_calls(self, n):
        px, py = self._stack(n)
        for s in (10, 16, 33, 64, 65, 100, n // 5):
            calls = [(_dcca_segment_stats, ())] + [(_dma_segment_stats, (th,))
                                                   for th in (0.0, 0.5, 1.0)]
            for fn, extra in calls:
                batched = fn(px, py, s, *extra)
                for i in range(px.shape[0]):
                    row = fn(px[i], py[i], s, *extra)
                    for b, r in zip(batched, row):
                        assert b.shape == (px.shape[0],) + r.shape
                        assert np.array_equal(b[i], r), (fn.__name__, s, extra, i)

    def test_moving_average_any_leading_shape(self):
        px, _ = self._stack(5000, rows=6)
        for s in (16, 64, 65, 1000):
            stack, start = moving_average(px.reshape(2, 3, -1), s, 0.3)
            assert stack.shape == (2, 3, 5000 - s + 1)
            assert start == moving_average(px[0], s, 0.3)[1]
            for i, row in enumerate(px):
                assert np.array_equal(stack.reshape(6, -1)[i], moving_average(row, s, 0.3)[0])

    def test_profiles_left_unchanged(self):
        px, py = self._stack(1000, rows=2)
        before = px.copy(), py.copy()
        _dma_segment_stats(px, py, 100, 0.5)
        _dcca_segment_stats(px, py, 200)
        assert np.array_equal(px, before[0]) and np.array_equal(py, before[1])


@st.composite
def _stats_and_orders(draw):
    """Per-segment (fx, fy, cross) of a few rows, with zero entries, and
    finite nonzero orders of both signs."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 24)))

    def zero_or(lo):
        return draw(hnp.arrays(float, shape, elements=st.one_of(st.just(0.0),
                                                               st.floats(lo, 1e3))))

    qs = draw(st.lists(st.one_of(st.floats(-6.0, -0.1), st.floats(0.1, 6.0)),
                       min_size=1, max_size=4))
    return zero_or(1e-3), zero_or(1e-3), zero_or(-1e3), qs


class TestRhoQGrid:
    QS = (2.0, 4.0, 3.0, -2.0, -1.0)

    @staticmethod
    def _scalar(fx, fy, cross, q):
        try:
            return one_row_rho(10, q, fx, fy, cross)[0]
        except DegenerateFluctuationError:
            return np.nan

    def test_matches_aggregate_q_and_rho_q_dmca(self):
        rng = np.random.default_rng(8)
        fx, fy = np.abs(rng.standard_normal((2, 6, 40)))
        cross = rng.standard_normal((6, 40)) * fx * fy
        fx[1, :5] = 0.0  # skipped at q < 0, counted at q > 0
        fy[2, ::3] = 0.0
        fx[3] = 0.0  # degenerate at every order
        fx[4, :20] = 0.0
        fy[4, 20:] = 0.0  # no segment left at q < 0, F_x^q F_y^q > 0 at q > 0
        got = rho_q_grid([(fx, fy, cross)], self.QS)[..., 0]
        assert got.shape == (6, len(self.QS))
        for i in range(6):
            for k, q in enumerate(self.QS):
                want = self._scalar(fx[i], fy[i], cross[i], q)
                assert np.array_equal(got[i, k], want, equal_nan=True), (i, q)
        assert np.isnan(got[3]).all()
        assert np.isnan(got[4, 3:]).all() and not np.isnan(got[4, :3]).any()

    def test_bit_identical_without_skipped_segments(self):
        rng = np.random.default_rng(4)
        px, py = np.cumsum(rng.standard_normal((2, 6, 3000)), axis=-1)
        qs = (2.0, 4.0, 3.0, 0.5, 1.0, -2.0, -1.0, -4.0)
        for s in (10, 33, 100, 250):
            for stats in (_dma_segment_stats(px, py, s, 0.5), _dcca_segment_stats(px, py, s)):
                got = rho_q_grid([stats], qs)[..., 0]
                for i in range(6):
                    for k, q in enumerate(qs):
                        assert got[i, k] == self._scalar(*(v[i] for v in stats), q), (s, i, q)

    @settings(max_examples=300, deadline=None)
    @given(_stats_and_orders())
    def test_rows_are_the_scalar_path_bit_for_bit(self, drawn):
        fx, fy, cross, qs = drawn
        got = rho_q_grid([(fx, fy, cross)], qs)[..., 0]
        for i in range(fx.shape[0]):
            for k, q in enumerate(qs):
                try:
                    want = one_row_rho(10, q, fx[i], fy[i], cross[i])[0]
                except DegenerateFluctuationError:
                    assert np.isnan(got[i, k]), (i, q)
                else:  # NaN where a zero cross product meets q < 0
                    assert np.array_equal(got[i, k], want, equal_nan=True), (i, q)

    def test_capped_branch(self):
        # |F_xy^q| > sqrt(F_x^q F_y^q) at q < 0 returns the reciprocal
        fx = np.array([[1.0, 2.0]])
        fy = np.array([[1.0, 2.0]])
        cross = np.array([[0.5, 0.5]])
        got = rho_q_grid([(fx, fy, cross)], (-2.0,))[0, 0, 0]
        assert got == pytest.approx(self._scalar(fx[0], fy[0], cross[0], -2.0), rel=1e-15)
        assert abs(got) <= 1.0

    def test_subnormal_ratio_kept_without_warning(self):
        # raw = 5e-324 is kept, but its reciprocal overflows where it is taken
        fx = fy = np.ones((1, 2))
        cross = np.array([[1e-323, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rho_q_grid([(fx, fy, cross)], (2.0,))
        assert got.shape == (1, 1, 1) and got[0, 0, 0] == 5e-324


class TestNonFiniteConfig:
    @pytest.mark.parametrize("q", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_order_rejected(self, q):
        with pytest.raises(InputError, match="finite and nonzero"):
            DetrendConfig(scale_grid=(10, 20), q=q)

    @pytest.mark.parametrize("qs, message", [
        ((2.0, 4.0, 2.0), "q=2.0 given twice"),
        ((2, 2.0), "q=2.0 given twice"),
        ((-2.0, 4.0, -2.0, 4.0), "q=-2.0 given twice"),
    ])
    def test_repeated_order_rejected(self, qs, message):
        with pytest.raises(InputError, match=f"^fluctuation orders: {message}$"):
            check_orders(qs)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    def test_theta_rejected(self, theta):
        with pytest.raises(InputError):
            DetrendConfig(scale_grid=(10, 20), theta=theta)
