import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fractal_xcorr import AlignedPair, TimeSeries
from fractal_xcorr.fluctuation import _fluctuation_set, rho_q_dmca


def gaussian_pair(seed, n, corr=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = corr * a + np.sqrt(1.0 - corr**2) * rng.standard_normal(n)
    return AlignedPair(TimeSeries(a, label="x"), TimeSeries(b, label="y"))


def one_row_rho(scale, q, fx, fy, cross):
    """rho_q_dmca of one row of segment statistics at order q, through the
    one-cell step of q_fluctuations: the scalar path that every batched
    scoring must match bit for bit.  Raises DegenerateFluctuationError where
    aggregate_q marks the cell NaN, as q_fluctuations does, or where
    rho_q_dmca raises."""
    return rho_q_dmca(_fluctuation_set(scale, q, (fx, fy, cross)))


@pytest.fixture
def pair_200():
    return gaussian_pair(7, 200)


@pytest.fixture
def pair_1000():
    return gaussian_pair(11, 1000)


def mark_degenerate(monkeypatch, first_values):
    """Make the surrogate scoring report every surrogate pair whose x profile
    starts at one of first_values as degenerate, in-process and, through
    fork, in worker processes.  Returns the list of scored x starts."""
    from fractal_xcorr import surrogate

    original = surrogate._rho_all_scales
    seen = []

    def marked(px, py, cfg, qs):
        rhos = original(px, py, cfg, qs)
        seen.extend(np.atleast_1d(px[..., 0]).tolist())
        rhos[np.isin(px[..., 0], first_values)] = np.nan
        return rhos

    monkeypatch.setattr(surrogate, "_rho_all_scales", marked)
    return seen
