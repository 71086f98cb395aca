"""Moving-average detrended fluctuation functions and scale-wise coefficients.

The engine works on cumulative profiles.  For a window size s and position
parameter theta, the moving average at (1-based) position i averages the s
profile points from i-(s-1)+g to i+g where g = floor((s-1)*theta); the
residual profile - MA is defined for s-g <= i <= N-g.  The residual is then
cut into N_s = floor(N/s - 1) non-overlapping segments of length s, and the
segment root-mean-squares / sign-carrying mean cross products are aggregated
at order q.

The box-splitting competitor splits the profiles into floor(N/s) boxes from
the start and again from the end (both pooled), removes a least-squares
linear trend per box, and aggregates the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFluctuationError, InputError
from .series import AlignedPair

MIN_SCALE = 4
DEFAULT_QS = (2.0, 4.0)  # the paper's orders: calm (q = 2) and extreme (q = 4) movements
# Up to this window np.convolve costs about as much as the O(N) running sum
# (its cost barely grows with the window there), so the direct sum and its
# rounding are kept; above it the running sum is faster.
DIRECT_MA_MAX_WINDOW = 64


@dataclass(frozen=True)
class DetrendConfig:
    """Scale grid, fluctuation order and moving-average position."""

    scale_grid: tuple
    q: float = 2.0
    theta: float = 0.5

    def __post_init__(self):
        grid = tuple(int(s) for s in self.scale_grid)
        if not grid:
            raise InputError("empty scale grid")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InputError("scale grid must be strictly increasing")
        if grid[0] < MIN_SCALE:
            raise InputError(f"smallest scale {grid[0]} < {MIN_SCALE}")
        if not 0.0 <= self.theta <= 1.0:
            raise InputError(f"theta={self.theta} outside [0, 1]")
        check_orders((self.q,))
        object.__setattr__(self, "scale_grid", grid)

    def check_length(self, n: int):
        if self.scale_grid[-1] > n // 4:
            raise InputError(
                f"largest scale {self.scale_grid[-1]} exceeds N/4 = {n // 4} for N={n}"
            )


def check_orders(qs) -> tuple:
    """qs as a tuple; an InputError if it is empty, holds a zero or
    non-finite order, or gives an order twice."""
    qs = tuple(qs)
    if not qs:
        raise InputError("empty list of fluctuation orders")
    for i, q in enumerate(qs):
        if q == 0 or not math.isfinite(q):
            raise InputError(f"fluctuation orders: q={q} must be finite and nonzero")
        if q in qs[:i]:
            raise InputError(f"fluctuation orders: q={q} given twice")
    return qs


@dataclass(frozen=True)
class FluctuationSet:
    """q-th-order fluctuation values of one (scale, q) cell.

    f_xy_q carries the sign of the segment cross products; n_skipped counts
    segments excluded for q < 0 because one of the RMS values vanished.
    """

    scale: int
    q: float
    f_x_q: float
    f_y_q: float
    f_xy_q: float
    n_segments: int
    n_skipped: int = 0


@dataclass(frozen=True)
class CorrelationProfile:
    """Scale-wise cross-correlation coefficients for one method and order."""

    method: str  # "q-DMCA" | "q-DCCA"
    q: float
    points: tuple  # of (scale, rho, capped)

    def rho_at(self, scale: int) -> float:
        for s, rho, _ in self.points:
            if s == scale:
                return rho
        raise KeyError(f"scale {scale} not in profile")

    def to_records(self) -> list:
        return [
            {"scale": s, "q": self.q, "method": self.method, "rho": rho, "capped": capped}
            for s, rho, capped in self.points
        ]


def moving_average(profile, n: int, theta: float = 0.5) -> tuple:
    """Moving average of window n at position parameter theta.

    Returns (values, start): the averages where the full window fits, at
    positions start = floor((n-1)*(1-theta)) .. N-1-floor((n-1)*theta)
    (0-based); the window for position t spans t-ceil((n-1)*(1-theta)) ..
    t+floor((n-1)*theta).  A profile of shape (..., N) is averaged along its
    last axis, each row to the same bits as on its own.
    """
    x = np.asarray(profile, dtype=float)
    N = x.shape[-1]
    _check_window(N, n, theta)
    g = math.floor((n - 1) * theta)
    if n > DIRECT_MA_MAX_WINDOW:
        ma = _running_mean(x, n)
    else:  # np.convolve is 1-D only
        w = np.full(n, 1.0 / n)
        ma = np.array([np.convolve(r, w, mode="valid")
                       for r in x.reshape(-1, N)]).reshape(x.shape[:-1] + (N - n + 1,))
    return ma, n - 1 - g


def _check_window(N: int, n: int, theta: float) -> None:
    if not 2 <= n <= N:
        raise InputError(f"window {n} outside [2, {N}]")
    if not 0.0 <= theta <= 1.0:
        raise InputError(f"theta={theta} outside [0, 1]")


def _running_mean(x: np.ndarray, n: int) -> np.ndarray:
    """Means of every window of n points along the last axis in O(N).

    A running window sum (Tsujimoto et al., PRE 93, 053304, 2016): each sum
    is the previous one plus x[t+n-1] - x[t-1].  The rounding error of every
    step is recovered (Fast2Sum: step - (sum[t] - sum[t-1])) and summed back
    in, so the error stays near one rounding of the window sum for any N.
    """
    steps = np.empty(x.shape[:-1] + (x.shape[-1] - n + 1,))
    steps[..., 0] = x[..., :n].sum(axis=-1)
    np.subtract(x[..., n:], x[..., :-n], out=steps[..., 1:])
    sums = np.cumsum(steps, axis=-1)
    steps[..., 0] = 0.0
    steps[..., 1:] -= np.diff(sums, axis=-1)
    sums += np.cumsum(steps, axis=-1)
    sums /= n
    return sums


def _residual(profile: np.ndarray, s: int, theta: float) -> np.ndarray:
    """Profile minus its moving average, on the index range where the window fits."""
    ma, start = moving_average(profile, s, theta)
    # ma is a fresh array, so it can take the residual
    return np.subtract(profile[..., start : start + ma.shape[-1]], ma, out=ma)


def n_segments(N: int, s: int) -> int:
    """Number of residual segments: the integer part of N/s - 1."""
    return N // s - 1


def _segment_moments(rx: np.ndarray, ry: np.ndarray):
    """(rms_x, rms_y, cross) of residual segments along the last axis;
    overwrites rx."""
    fx = np.sqrt(np.mean(rx**2, axis=-1))
    fy = np.sqrt(np.mean(ry**2, axis=-1))
    rx *= ry
    return fx, fy, np.mean(rx, axis=-1)


def _check_dma_scale(N: int, s: int, theta: float) -> None:
    """Raise the InputError that the moving-average statistics of scale s
    raise on profiles of N points, without computing them."""
    if n_segments(N, s) < 1:
        raise InputError(f"scale {s} leaves no full segment for N={N}")
    _check_window(N, s, theta)


def _dma_segment_stats(px: np.ndarray, py: np.ndarray, s: int, theta: float):
    """Per-segment (rms_x, rms_y, cross) arrays for one scale; profiles of
    shape (..., N) give arrays of shape (..., n_segments); one residual if py is px."""
    N = px.shape[-1]
    _check_dma_scale(N, s, theta)
    ns = n_segments(N, s)

    def segments(p):
        return _residual(p, s, theta)[..., : ns * s].reshape(p.shape[:-1] + (ns, s))

    rx = segments(px)
    return _segment_moments(rx, rx if py is px else segments(py))


def _dcca_segment_stats(px: np.ndarray, py: np.ndarray, s: int):
    """Box stats for the box-splitting variant: forward and backward passes
    pooled, least-squares linear trend removed from each box.  Profiles of
    shape (..., N) give arrays of shape (..., 2 * floor(N/s))."""
    N = px.shape[-1]
    ns = N // s
    if ns < 1:
        raise InputError(f"scale {s} exceeds series length {N}")
    t = np.arange(s, dtype=float)
    t_dev = t - t.mean()
    var_t = np.mean(t_dev**2)

    def _detrend(p):
        shape = p.shape[:-1] + (ns, s)
        boxes = np.concatenate([p[..., : ns * s].reshape(shape),
                                p[..., N - ns * s :].reshape(shape)], axis=-2)
        slopes = (boxes * t_dev).mean(axis=-1, keepdims=True) / var_t
        boxes -= boxes.mean(axis=-1, keepdims=True)
        boxes -= slopes * t_dev
        return boxes

    return _segment_moments(_detrend(px), _detrend(py))


def aggregate_q(fx: np.ndarray, fy: np.ndarray, cross: np.ndarray, qs) -> tuple:
    """(F_x^q, F_y^q, F_xy^q, kept) of every row and order: per-segment
    statistics of shape (..., n_seg) give four arrays of shape (..., len(qs)).

    F_xy^q averages the sign-carrying power sign(cross) |cross|^(q/2); at
    q < 0 a segment where either RMS vanishes adds zero and is left out of
    kept, the segments averaged over.  All three means are NaN where kept is
    0 or one of them is not finite.  Each row gets the same bits as on its own.
    """
    f_x_q, f_y_q, f_xy_q, kept = out = np.empty((4,) + fx.shape[:-1] + (len(qs),))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a scalar power takes numpy's square/copy shortcuts
        for i, q in enumerate(map(float, qs)):
            powers = (fx**q, fy**q, np.sign(cross) * np.abs(cross) ** (q / 2.0))
            if q < 0:
                keep = (fx > 0) & (fy > 0)
                powers = [np.where(keep, v, 0.0) for v in powers]
                kept[..., i] = keep.sum(axis=-1)
            else:
                kept[..., i] = fx.shape[-1]
            f_x_q[..., i], f_y_q[..., i], f_xy_q[..., i] = (v.sum(axis=-1) / kept[..., i]
                                                            for v in powers)
    out[:3, ~np.isfinite(out[:3]).all(axis=0)] = np.nan
    return f_x_q, f_y_q, f_xy_q, kept


def rho_q_grid(stats, qs) -> np.ndarray:
    """Capped coefficient of every row, order and scale, shape (..., len(qs),
    n_scales): stats yields each scale's per-segment (fx, fy, cross), of
    shape (..., n_seg); each is dropped once aggregated, so a generator holds one.

    Row by row this is rho_q_dmca of the row's FluctuationSet, to the same
    bits.  NaN marks a cell where q_fluctuations or rho_q_dmca would raise:
    one that aggregate_q marks NaN, or one with F_x^q F_y^q <= 0.
    """
    f_x_q, f_y_q, f_xy_q, _ = np.stack(list(map(lambda st: aggregate_q(*st, qs), stats)), axis=-1)
    # 1.0 / raw is taken in every cell, and overflows where a kept raw is subnormal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = f_x_q * f_y_q
        raw = f_xy_q / np.sqrt(np.where(denom > 0.0, denom, np.nan))
        return np.where(np.abs(raw) > 1.0, 1.0 / raw, raw)


def q_fluctuations(pair: AlignedPair, cfg: DetrendConfig, method: str = "q-DMCA") -> list:
    """q-th-order fluctuation functions of a pair on the scale grid, by the
    moving-average (q-DMCA) or the box-splitting (q-DCCA) method."""
    if method not in ("q-DMCA", "q-DCCA"):
        raise InputError(f"unknown method {method!r}")
    cfg.check_length(len(pair))
    px = np.cumsum(pair.x.values)
    py = px if pair.y is pair.x else np.cumsum(pair.y.values)
    return [_fluctuation_set(s, cfg.q, _dma_segment_stats(px, py, s, cfg.theta)
                            if method == "q-DMCA" else _dcca_segment_stats(px, py, s))
            for s in cfg.scale_grid]


def _fluctuation_set(scale: int, q: float, stats) -> FluctuationSet:
    """One cell of q_fluctuations; raises where aggregate_q marks it NaN."""
    f_x_q, f_y_q, f_xy_q, kept = (v.item() for v in aggregate_q(*stats, (q,)))
    if math.isnan(f_x_q):
        reason = "every segment degenerate" if kept < 1 else "order-q mean not finite"
        raise DegenerateFluctuationError(f"scale {scale}: {reason} at q={q}")
    return FluctuationSet(scale=scale, q=q, f_x_q=f_x_q, f_y_q=f_y_q, f_xy_q=f_xy_q,
                          n_segments=int(kept), n_skipped=stats[0].size - int(kept))


def rho_q_dmca(fs: FluctuationSet):
    """Coefficient F_xy^q / sqrt(F_x^q F_y^q), reciprocal-capped to [-1, 1].

    Returns (rho, capped).  capped is True only when the raw ratio exceeded
    one in magnitude (the q < 0 regime) and its reciprocal was returned.
    """
    denom = fs.f_x_q * fs.f_y_q
    if denom <= 0.0:
        raise DegenerateFluctuationError(
            f"scale {fs.scale}: degenerate fluctuation (F_x^q*F_y^q = {denom})"
        )
    raw = fs.f_xy_q / math.sqrt(denom)
    if abs(raw) > 1.0:
        return 1.0 / raw, True
    return raw, False


def correlation_profile(pair: AlignedPair, cfg: DetrendConfig,
                        method: str = "q-DMCA") -> CorrelationProfile:
    """Scale-wise coefficient profile for one of the two estimators."""
    points = [(fs.scale, *rho_q_dmca(fs)) for fs in q_fluctuations(pair, cfg, method)]
    return CorrelationProfile(method=method, q=cfg.q, points=tuple(points))
