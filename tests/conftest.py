import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fractal_xcorr import AlignedPair, DegenerateFluctuationError, TimeSeries
from fractal_xcorr.fluctuation import FluctuationSet, aggregate_q, rho_q_dmca


def gaussian_pair(seed, n, corr=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = corr * a + np.sqrt(1.0 - corr**2) * rng.standard_normal(n)
    return AlignedPair(TimeSeries(a, label="x"), TimeSeries(b, label="y"))


def one_row_rho(scale, q, fx, fy, cross):
    """rho_q_dmca of one row of segment statistics at order q, through a
    one-row aggregate_q call: the scalar path that every batched scoring
    must match bit for bit.  Raises DegenerateFluctuationError where no
    segment is kept, as q_fluctuations does, or where rho_q_dmca raises."""
    f_x_q, f_y_q, f_xy_q, kept = (v.item() for v in aggregate_q(fx, fy, cross, (q,)))
    if kept < 1:
        raise DegenerateFluctuationError(f"scale {scale}: every segment degenerate at q={q}")
    return rho_q_dmca(FluctuationSet(scale=scale, q=q, f_x_q=f_x_q, f_y_q=f_y_q,
                                     f_xy_q=f_xy_q, n_segments=int(kept)))


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
