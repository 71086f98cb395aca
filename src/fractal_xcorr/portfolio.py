"""Scale- and order-dependent optimal portfolio weights and hedge ratios.

The q-th-order aggregated fluctuation functions are consumed directly (no
1/q-th roots); at q=2 the formulas reduce to the classical minimum-variance
weight and hedge ratio built from variances and covariances.  By convention
the x leg of a FluctuationSet is the hedge asset and the y leg the
counterpart, so F_g = f_x_q, F_c = f_y_q, F_gc = f_xy_q.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .errors import DegenerateFluctuationError
from .fluctuation import DEFAULT_QS, DetrendConfig, FluctuationSet, check_orders, q_fluctuations
from .series import AlignedPair


@dataclass(frozen=True)
class PortfolioMetrics:
    scale: int
    q: float
    w_g: float  # weight of the hedge asset after clipping to [0, 1]
    w_g_raw: float
    beta: float  # hedge ratio

    def to_dict(self) -> dict:
        return asdict(self)


def clip_weight(w: float) -> float:
    """Clip a raw weight to [0, 1]; idempotent."""
    return min(1.0, max(0.0, w))


def optimal_weight(fs: FluctuationSet):
    """Raw and clipped minimum-variance weight of the hedge asset.

    Returns (w_g_raw, w_g) with
    w_g_raw = (F_c - F_gc) / (F_g - 2 F_gc + F_c).
    """
    f_g, f_c, f_gc = fs.f_x_q, fs.f_y_q, fs.f_xy_q
    denom = f_g - 2.0 * f_gc + f_c
    if denom == 0.0:
        raise DegenerateFluctuationError(
            f"scale {fs.scale}: degenerate portfolio variance (denominator 0)"
        )
    raw = (f_c - f_gc) / denom
    return raw, clip_weight(raw)


def hedge_ratio(fs: FluctuationSet) -> float:
    """Short hedge position per unit long exposure: F_gc / F_g."""
    if fs.f_x_q <= 0.0:
        raise DegenerateFluctuationError(
            f"scale {fs.scale}: degenerate hedge-asset fluctuation"
        )
    return fs.f_xy_q / fs.f_x_q


def portfolio_scan(pair: AlignedPair, cfg: DetrendConfig, qs=DEFAULT_QS) -> list:
    """PortfolioMetrics per (scale, q), hedge asset = pair.x.

    Uses the moving-average (q-DMCA) fluctuation functions throughout.
    """
    out = []
    for q in check_orders(qs):
        for fs in q_fluctuations(pair, replace(cfg, q=q)):
            raw, w = optimal_weight(fs)
            out.append(PortfolioMetrics(scale=fs.scale, q=q, w_g=w,
                                        w_g_raw=raw, beta=hedge_ratio(fs)))
    return out
