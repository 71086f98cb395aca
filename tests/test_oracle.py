"""Vectorized engine against the literal-transcription oracle."""

import numpy as np
import pytest

from fractal_xcorr import DetrendConfig, correlation_profile, q_fluctuations, rho_q_dmca
from conftest import gaussian_pair
from oracle_naive import naive_dcca_rho, naive_q_fluctuations, naive_rho


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n,scales", [(200, (5, 10, 25)), (500, (8, 20, 50))])
def test_matches_naive_oracle_q2(seed, n, scales):
    pair = gaussian_pair(seed, n)
    cfg = DetrendConfig(scale_grid=scales, q=2.0)
    x = list(pair.x.values)
    y = list(pair.y.values)
    for fs in q_fluctuations(pair, cfg):
        f_x, f_y, f_xy, n_s = naive_q_fluctuations(x, y, fs.scale, 2.0, 0.5)
        assert fs.n_segments == n_s
        assert fs.f_x_q == pytest.approx(f_x, abs=1e-10)
        assert fs.f_y_q == pytest.approx(f_y, abs=1e-10)
        assert fs.f_xy_q == pytest.approx(f_xy, abs=1e-10)
        rho, _ = rho_q_dmca(fs)
        assert rho == pytest.approx(naive_rho(x, y, fs.scale, 2.0, 0.5), abs=1e-10)


@pytest.mark.parametrize("q", [1.0, 3.0, 4.0, -2.0])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_matches_naive_oracle_other_orders(q, theta):
    pair = gaussian_pair(42, 300)
    cfg = DetrendConfig(scale_grid=(6, 12, 30), q=q, theta=theta)
    x = list(pair.x.values)
    y = list(pair.y.values)
    for fs in q_fluctuations(pair, cfg):
        f_x, f_y, f_xy, _ = naive_q_fluctuations(x, y, fs.scale, q, theta)
        assert fs.f_x_q == pytest.approx(f_x, abs=1e-10)
        assert fs.f_y_q == pytest.approx(f_y, abs=1e-10)
        assert fs.f_xy_q == pytest.approx(f_xy, abs=1e-10)


def test_matches_naive_oracle_large_windows():
    # windows from the direct sum to the running sum, up to N/4
    pair = gaussian_pair(8, 5000, corr=0.5)
    cfg = DetrendConfig(scale_grid=(16, 100, 1250), q=2.0)
    x = list(pair.x.values)
    y = list(pair.y.values)
    for fs in q_fluctuations(pair, cfg):
        f_x, f_y, f_xy, _ = naive_q_fluctuations(x, y, fs.scale, 2.0, 0.5)
        assert fs.f_x_q == pytest.approx(f_x, abs=1e-10)
        assert fs.f_y_q == pytest.approx(f_y, abs=1e-10)
        assert fs.f_xy_q == pytest.approx(f_xy, abs=1e-10)


@pytest.mark.parametrize("q", [-2.0, 2.0, 4.0])
@pytest.mark.parametrize("seed,n,scales", [
    (5, 1500, (10, 16, 25, 37, 100, 128, 300, 375)),  # 16, 37 and 128 do not divide N
    (6, 1999, (10, 20, 64, 250, 499)),  # N is prime
])
def test_dcca_matches_box_oracle(seed, n, scales, q):
    pair = gaussian_pair(seed, n, corr=-0.4)
    profile = correlation_profile(pair, DetrendConfig(scale_grid=scales, q=q), "q-DCCA")
    x = list(pair.x.values)
    y = list(pair.y.values)
    for s, rho, _ in profile.points:
        assert rho == pytest.approx(naive_dcca_rho(x, y, s, q), abs=1e-10)


def test_oracle_valid_range_length():
    # the residual must exist on exactly N - s + 1 positions
    from oracle_naive import naive_profile, naive_residual

    x = list(np.random.default_rng(1).standard_normal(97))
    for s in (4, 10, 24):
        for theta in (0.0, 0.5, 1.0):
            assert len(naive_residual(naive_profile(x), s, theta)) == 97 - s + 1
