import numpy as np
import pytest
from scipy.special import gamma

from fractal_xcorr import (
    InputError,
    McArfimaSpec,
    arfima_weights,
    correlated_innovations,
    generate,
)


def gamma_formula_weights(d, n_max):
    # direct Gamma evaluation keeps the sign right for negative d
    n = np.arange(n_max + 1)
    return gamma(n + d) / (gamma(n + 1.0) * gamma(d))


class TestWeights:
    @pytest.mark.parametrize("d", [0.1, 0.2, 0.4, -0.3])
    def test_recursion_equals_gamma_formula(self, d):
        w = arfima_weights(d, 50)
        assert np.allclose(w, gamma_formula_weights(d, 50), atol=1e-10)

    def test_first_weights_exact(self):
        w = arfima_weights(0.4, 3)
        assert w[0] == 1.0
        assert w[1] == 0.4
        assert w[2] == pytest.approx(0.4 * 1.4 / 2)

    def test_asymptotic_decay_ratio(self):
        # a_n ~ n^(d-1) / Gamma(d), so a_2n / a_n -> 2^(d-1)
        d = 0.3
        w = arfima_weights(d, 4000)
        assert w[4000] / w[2000] == pytest.approx(2.0 ** (d - 1.0), rel=1e-3)

    def test_validation(self):
        with pytest.raises(InputError):
            arfima_weights(0.6, 10)
        with pytest.raises(InputError):
            arfima_weights(0.0, 10)
        with pytest.raises(InputError):
            arfima_weights(0.4, 0)


class TestSpec:
    def test_implied_exponents(self):
        spec = McArfimaSpec()
        assert spec.implied_h_x == pytest.approx(0.9)
        assert spec.implied_h_y == pytest.approx(0.9)
        assert spec.implied_h_xy == pytest.approx(0.7)
        assert spec.implied_h_rho == pytest.approx(-0.2)

    def test_validation(self):
        with pytest.raises(InputError):
            McArfimaSpec(d1=0.6)
        with pytest.raises(InputError):
            McArfimaSpec(cross_corr=1.5)
        with pytest.raises(InputError):
            McArfimaSpec(truncation=10)
        with pytest.raises(InputError):
            McArfimaSpec(length=0)
        with pytest.raises(InputError):
            McArfimaSpec(innovation_sd=(1.0, -1.0, 1.0, 1.0))
        with pytest.raises(InputError, match=r"^seed=-1 < 0$"):
            McArfimaSpec(seed=-1)  # numpy's generators take no negative seed
        with pytest.raises(InputError, match=r"^beta=nan is not a finite real number$"):
            McArfimaSpec(beta=float("nan"))


class TestInnovations:
    def test_correlation_structure(self):
        spec = McArfimaSpec(cross_corr=0.9)
        eps = correlated_innovations(spec, 200_000)
        assert eps.shape == (4, 200_000)
        corr = np.corrcoef(eps)
        assert corr[1, 2] == pytest.approx(0.9, abs=0.01)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
            assert abs(corr[i, j]) < 0.01
        assert np.allclose(eps.std(axis=1), 1.0, atol=0.01)

    def test_innovation_sd_applied(self):
        spec = McArfimaSpec(innovation_sd=(2.0, 1.0, 1.0, 0.5))
        eps = correlated_innovations(spec, 100_000)
        assert eps[0].std() == pytest.approx(2.0, abs=0.05)
        assert eps[3].std() == pytest.approx(0.5, abs=0.02)

    def test_no_serial_correlation(self):
        eps = correlated_innovations(McArfimaSpec(), 100_000)
        lag1 = np.corrcoef(eps[1][:-1], eps[1][1:])[0, 1]
        assert abs(lag1) < 0.02


class TestGenerate:
    def test_shapes_and_determinism(self):
        spec = McArfimaSpec(length=1500, seed=99, truncation=2000)
        a = generate(spec)
        b = generate(spec)
        assert len(a.x) == len(a.y) == 1500
        assert np.array_equal(a.x.values, b.x.values)
        assert np.array_equal(a.y.values, b.y.values)
        assert a.spec == spec

    def test_seed_changes_sample(self):
        a = generate(McArfimaSpec(length=500, seed=1, truncation=500))
        b = generate(McArfimaSpec(length=500, seed=2, truncation=500))
        assert not np.array_equal(a.x.values, b.x.values)

    def test_cross_correlation_sign_transfers(self):
        pos = generate(McArfimaSpec(cross_corr=0.9, length=20_000, seed=5))
        neg = generate(McArfimaSpec(cross_corr=-0.9, length=20_000, seed=5))
        r_pos = np.corrcoef(pos.x.values, pos.y.values)[0, 1]
        r_neg = np.corrcoef(neg.x.values, neg.y.values)[0, 1]
        assert r_pos > 0.1
        assert r_neg < -0.1

    def test_zero_cross_corr_near_independent(self):
        s = generate(McArfimaSpec(cross_corr=0.0, length=50_000, seed=6))
        assert abs(np.corrcoef(s.x.values, s.y.values)[0, 1]) < 0.05

    def test_mixing_weights(self):
        # alpha = 0 silences the long-memory channel of x entirely
        base = McArfimaSpec(length=2000, seed=3, truncation=500)
        silent = McArfimaSpec(length=2000, seed=3, truncation=500, alpha=0.0)
        a = generate(base)
        b = generate(silent)
        assert not np.array_equal(a.x.values, b.x.values)
        assert np.array_equal(a.y.values, b.y.values)


class TestScipyFreeConvolution:
    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        from fractal_xcorr.mc_arfima import _next_fast_len

        assert all(_next_fast_len(n) == next_fast_len(n, real=True) for n in range(1, 40_000))

    @pytest.mark.parametrize("length", [500, 1000, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("other", [{}, {"truncation": 100}, {"truncation": 1000},
                                       {"d1": 0.3, "d4": -0.25}],
                             ids=["default", "trunc100", "trunc1000", "d1-not-d4"])
    def test_generate_equals_scipy_fftconvolve_form(self, length, seed, other):
        from scipy.signal import fftconvolve

        spec = McArfimaSpec(length=length, seed=seed, cross_corr=0.5,
                            d2=0.1 + 0.05 * seed, alpha=0.7, delta=1.3, **other)
        sample = generate(spec)
        eps = correlated_innovations(spec, spec.length + spec.truncation)
        w = [arfima_weights(d, spec.truncation) for d in (spec.d1, spec.d2, spec.d3, spec.d4)]
        sl = slice(spec.truncation, spec.truncation + spec.length)
        conv = [fftconvolve(e, wk, mode="full")[sl] for e, wk in zip(eps, w)]
        assert np.array_equal(sample.x.values, spec.alpha * conv[0] + spec.beta * conv[1])
        assert np.array_equal(sample.y.values, spec.gamma * conv[2] + spec.delta * conv[3])

    def test_cached_spectra_give_the_uncached_bytes(self):
        from fractal_xcorr.mc_arfima import _weight_spectra

        a = McArfimaSpec(length=800, truncation=500, seed=4)
        b = McArfimaSpec(length=800, truncation=500, seed=4, d1=0.1, d3=-0.3)
        c = McArfimaSpec(length=1300, truncation=500, seed=4)
        _weight_spectra.cache_clear()
        cached = [generate(spec) for spec in (a, b, c, a)]
        assert _weight_spectra.cache_info().hits == 1  # a's second call
        for spec, got in zip((a, b, c, a), cached):
            _weight_spectra.cache_clear()
            fresh = generate(spec)
            assert got.x.values.tobytes() == fresh.x.values.tobytes()
            assert got.y.values.tobytes() == fresh.y.values.tobytes()
        spectra = _weight_spectra((a.d1, a.d2, a.d3, a.d4), a.truncation, 1800)
        assert spectra.shape == (4, 901)
        with pytest.raises(ValueError, match="read-only"):
            spectra[0, 0] = 0.0
