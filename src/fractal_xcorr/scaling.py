"""Log-log scaling fits: generalized Hurst exponents and power-law coherency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFluctuationError, InputError
from .fluctuation import CorrelationProfile, DetrendConfig, correlation_profile, q_fluctuations
from .series import AlignedPair, TimeSeries

DEFAULT_GRID_POINTS = 20


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of ln(value) on ln(scale)."""

    exponent: float
    intercept: float
    r_squared: float
    fit_range: tuple  # (s_lo, s_hi)
    n_points: int


@dataclass(frozen=True)
class CoherencyEstimate:
    """Power-law coherency exponent with its underlying profile and fit."""

    h_rho: float
    per_scale_rho: CorrelationProfile
    fit: ScalingFit


def log_scales(lo: int, hi: int, num: int = DEFAULT_GRID_POINTS) -> tuple:
    """num log-spaced integers in [lo, hi], deduplicated after rounding; the
    grid is spaced in float64, which is exact for integers up to 2**53."""
    if hi < lo:
        raise InputError(f"empty scale range [{lo}, {hi}]")
    if lo < 1 or hi > 2**53 or num < 1:
        raise InputError(f"scale range [{lo}, {hi}] with {num} points: "
                         "needs 1 <= lo <= hi <= 2**53 and num >= 1")
    grid = np.unique(
        np.clip(np.round(np.geomspace(lo, hi, num=num)).astype(int), lo, hi)
    )
    return tuple(int(s) for s in grid)


def ols_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Closed-form OLS slope and intercept of y on x along the last axis;
    y of shape (..., len(x)) fits every leading row in one call."""
    x_mean = x.mean()
    x_dev = x - x_mean
    slope = ((y - y.mean(axis=-1, keepdims=True)) * x_dev).sum(axis=-1) / (x_dev**2).sum()
    return slope, y.mean(axis=-1) - slope * x_mean


def fit_power_law(points) -> ScalingFit:
    """Fit value ~ scale^exponent by OLS on the log-log pairs.

    ``points`` is a sequence of (scale, value) with value > 0; the fit range
    is the smallest to the largest scale.
    """
    used = [(int(s), float(v)) for s, v in points]
    if len(used) < 3:
        raise InputError(f"need at least 3 points to fit, got {len(used)}")
    for s, v in used:
        if v <= 0.0:
            raise InputError(f"non-positive value {v} at scale {s} inside fit range")
    ls = np.log([s for s, _ in used])
    lv = np.log([v for _, v in used])
    slope, intercept = ols_fit(ls, lv)
    resid = lv - (slope * ls + intercept)
    sst = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else max(0.0, 1.0 - float(np.sum(resid**2)) / sst)
    return ScalingFit(
        exponent=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        fit_range=(min(s for s, _ in used), max(s for s, _ in used)),
        n_points=len(used),
    )


def estimate_hurst(series: TimeSeries, cfg: DetrendConfig) -> ScalingFit:
    """Generalized Hurst exponent H(q) from the scaling of (F^q(s))^(1/q)."""
    cfg.check_length(len(series))  # names the grid, ahead of AlignedPair's length check
    # fluctuations at rounding-noise level (detrending annihilated the
    # profile) count as degenerate, not as a tiny but real amplitude
    floor = 1e-12 * (float(np.max(np.abs(np.cumsum(series.values)))) + 1.0)
    points = []
    for fs in q_fluctuations(AlignedPair(series, series), cfg):
        value = fs.f_x_q ** (1.0 / cfg.q) if fs.f_x_q > 0.0 else 0.0
        if value <= floor:
            raise DegenerateFluctuationError(f"scale {fs.scale}: degenerate fluctuation")
        points.append((fs.scale, value))
    return fit_power_law(points)


def estimate_h_rho(pair: AlignedPair, cfg: DetrendConfig,
                   method: str = "q-DMCA") -> CoherencyEstimate:
    """Power-law coherency exponent from the scaling of rho^2(s).

    Regresses ln rho^2(s) on ln s over the config's scale grid; the
    coherency exponent is slope / (2q).  Capping is applied to rho before
    squaring.  Any rho(s) = 0 inside the range is an error.
    """
    profile = correlation_profile(pair, cfg, method)
    for s, rho, _ in profile.points:
        if rho == 0.0:
            raise DegenerateFluctuationError(f"zero coherency in fit range at scale {s}")
    fit = fit_power_law([(s, rho**2) for s, rho, _ in profile.points])
    return CoherencyEstimate(h_rho=0.5 * fit.exponent / cfg.q, per_scale_rho=profile, fit=fit)
