"""Mixed-correlated ARFIMA simulation for estimator validation.

Generates a bivariate long-memory pair where each component mixes two
fractionally integrated moving averages and cross-correlation is injected
only through the contemporaneous correlation of the second and third
innovation streams.  With unit mixing weights the implied exponents are
H_x = d1 + 0.5, H_y = d4 + 0.5 and H_xy = 0.5 + (d2 + d3)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from numbers import Integral, Real

import numpy as np

from .errors import InputError
from .series import TimeSeries

_REAL_FIELDS = ("d1", "d2", "d3", "d4", "alpha", "beta", "gamma", "delta", "cross_corr")
_INT_FIELDS = ("length", "truncation", "seed")


@dataclass(frozen=True)
class McArfimaSpec:
    """Full parameterization of the bivariate simulation process."""

    d1: float = 0.4
    d2: float = 0.2
    d3: float = 0.2
    d4: float = 0.4
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0
    innovation_sd: tuple = (1.0, 1.0, 1.0, 1.0)
    cross_corr: float = 0.9
    length: int = 5000
    truncation: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for names, kind, label in ((_REAL_FIELDS, Real, "a real number"),
                                   (_INT_FIELDS, Integral, "an integer")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise InputError(f"{name}={value!r} is not {label}")
        for name in ("d1", "d2", "d3", "d4"):
            d = getattr(self, name)
            if not -0.5 < d < 0.5 or d == 0.0:
                raise InputError(f"{name}={d} outside (-0.5, 0) u (0, 0.5)")
        try:
            sds = tuple(float(s) for s in self.innovation_sd)
        except (TypeError, ValueError):
            sds = ()
        if len(sds) != 4 or any(s <= 0 for s in sds):
            raise InputError(f"innovation_sd must be four positive reals, got {self.innovation_sd}")
        object.__setattr__(self, "innovation_sd", sds)
        if not -1.0 <= self.cross_corr <= 1.0:
            raise InputError(f"cross_corr={self.cross_corr} outside [-1, 1]")
        if self.length < 1:
            raise InputError(f"length={self.length} < 1")
        if self.truncation < 100:
            raise InputError(f"truncation={self.truncation} < 100")

    @property
    def implied_h_x(self) -> float:
        return self.d1 + 0.5

    @property
    def implied_h_y(self) -> float:
        return self.d4 + 0.5

    @property
    def implied_h_xy(self) -> float:
        return 0.5 + 0.5 * (self.d2 + self.d3)

    @property
    def implied_h_rho(self) -> float:
        return self.implied_h_xy - 0.5 * (self.implied_h_x + self.implied_h_y)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BivariateSample:
    x: TimeSeries
    y: TimeSeries
    spec: McArfimaSpec


def arfima_weights(d: float, n_max: int) -> np.ndarray:
    """Fractional MA weights a_n = Gamma(n+d) / (Gamma(n+1) Gamma(d)).

    Computed by the overflow-free recursion a_0 = 1,
    a_n = a_{n-1} * (n - 1 + d) / n; length n_max + 1.
    """
    if not -0.5 < d < 0.5 or d == 0.0:
        raise InputError(f"d={d} outside (-0.5, 0) u (0, 0.5)")
    if n_max < 1:
        raise InputError(f"n_max={n_max} < 1")
    n = np.arange(1, n_max + 1)
    w = np.empty(n_max + 1)
    w[0] = 1.0
    w[1:] = np.cumprod((n - 1 + d) / n)
    return w


def correlated_innovations(spec: McArfimaSpec, t: int, rng=None) -> np.ndarray:
    """Four Gaussian innovation streams of length t, shape (4, t).

    Streams 2 and 3 (1-based) share the contemporaneous correlation
    spec.cross_corr via a 2x2 square-root factorization; all other pairs
    are independent, with no serial correlation anywhere.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((4, t))
    rho = spec.cross_corr
    eps = np.empty_like(z)
    eps[0] = z[0]
    eps[1] = z[1]
    eps[2] = rho * z[1] + np.sqrt(1.0 - rho**2) * z[2]
    eps[3] = z[3]
    return eps * np.asarray(spec.innovation_sd)[:, None]


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real sequences, computed as
    scipy.signal.fftconvolve computes it: real FFTs at a 5-smooth length."""
    n = a.size + b.size - 1
    m = _next_fast_len(n)
    return np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[:n]


def generate(spec: McArfimaSpec) -> BivariateSample:
    """Draw one bivariate sample; deterministic given spec.seed.

    A burn-in of ``truncation`` pre-sample innovations is generated so every
    output point has a full weight history.
    """
    rng = np.random.default_rng(spec.seed)
    n_max = spec.truncation
    total = spec.length + n_max
    eps = correlated_innovations(spec, total, rng=rng)
    w1 = arfima_weights(spec.d1, n_max)
    w2 = arfima_weights(spec.d2, n_max)
    w3 = arfima_weights(spec.d3, n_max)
    w4 = arfima_weights(spec.d4, n_max)
    sl = slice(n_max, n_max + spec.length)
    x = (spec.alpha * _fftconvolve(eps[0], w1)[sl]
         + spec.beta * _fftconvolve(eps[1], w2)[sl])
    y = (spec.gamma * _fftconvolve(eps[2], w3)[sl]
         + spec.delta * _fftconvolve(eps[3], w4)[sl])
    return BivariateSample(
        x=TimeSeries(x, label="x"), y=TimeSeries(y, label="y"), spec=spec
    )
