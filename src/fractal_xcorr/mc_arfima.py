"""Mixed-correlated ARFIMA simulation for estimator validation.

Generates a bivariate long-memory pair where each component mixes two
fractionally integrated moving averages and cross-correlation is injected
only through the contemporaneous correlation of the second and third
innovation streams.  With unit mixing weights the implied exponents are
H_x = d1 + 0.5, H_y = d4 + 0.5 and H_xy = 0.5 + (d2 + d3)/2.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, asdict
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import InputError
from .series import TimeSeries

_REAL_FIELDS = ("d1", "d2", "d3", "d4", "cross_corr")  # range-checked below
_WEIGHT_FIELDS = ("alpha", "beta", "gamma", "delta")
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
                                   (_WEIGHT_FIELDS, Real, "a finite real number"),
                                   (_INT_FIELDS, Integral, "an integer")):
            for name in names:
                value = getattr(self, name)
                if (isinstance(value, bool) or not isinstance(value, kind)
                        or names is _WEIGHT_FIELDS and not abs(value) <= sys.float_info.max):
                    raise InputError(f"{name}={value!r} is not {label}")
        for name in ("d1", "d2", "d3", "d4"):
            d = getattr(self, name)
            if not -0.5 < d < 0.5 or d == 0.0:
                raise InputError(f"{name}={d} outside (-0.5, 0) u (0, 0.5)")
        try:
            sds = tuple(float(s) for s in self.innovation_sd)
        except (TypeError, ValueError, OverflowError):
            sds = ()
        if len(sds) != 4 or not all(0 < s <= sys.float_info.max for s in sds):
            raise InputError(f"innovation_sd must be four finite reals > 0, got {self.innovation_sd}")
        object.__setattr__(self, "innovation_sd", sds)
        if not -1.0 <= self.cross_corr <= 1.0:
            raise InputError(f"cross_corr={self.cross_corr} outside [-1, 1]")
        for name, low in (("length", 1), ("truncation", 100), ("seed", 0)):
            if getattr(self, name) < low:
                raise InputError(f"{name}={getattr(self, name)} < {low}")

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


def correlated_innovations(spec: McArfimaSpec, t: int) -> np.ndarray:
    """Four Gaussian innovation streams of length t, shape (4, t).

    Streams 2 and 3 (1-based) share the contemporaneous correlation
    spec.cross_corr via a 2x2 square-root factorization; all other pairs
    are independent, with no serial correlation anywhere.  Deterministic
    given spec.seed.
    """
    eps = np.random.default_rng(spec.seed).standard_normal((4, t))
    rho = spec.cross_corr
    eps[2] = rho * eps[1] + np.sqrt(1.0 - rho**2) * eps[2]
    eps *= np.asarray(spec.innovation_sd)[:, None]
    return eps


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


@lru_cache(maxsize=8)
def _weight_spectra(ds: tuple, truncation: int, m: int) -> np.ndarray:
    """Real FFTs at length m of the weight vectors of the orders ds, shape
    (len(ds), m // 2 + 1); read-only, since every caller shares the array."""
    spectra = np.fft.rfft([arfima_weights(d, truncation) for d in ds], m)
    spectra.flags.writeable = False
    return spectra


def generate(spec: McArfimaSpec) -> BivariateSample:
    """Draw one bivariate sample; deterministic given spec.seed.

    A burn-in of ``truncation`` pre-sample innovations is generated so every
    output point has a full weight history.
    """
    n_max = spec.truncation
    eps = correlated_innovations(spec, spec.length + n_max)
    # Each stream is convolved with its weights as scipy.signal.fftconvolve
    # convolves two real sequences, by real FFTs at its 5-smooth length.
    m = _next_fast_len(spec.length + 2 * n_max)
    spectra = _weight_spectra((spec.d1, spec.d2, spec.d3, spec.d4), n_max, m)
    conv = np.fft.irfft(np.fft.rfft(eps, m) * spectra, m)[:, n_max:n_max + spec.length]
    x = spec.alpha * conv[0] + spec.beta * conv[1]
    y = spec.gamma * conv[2] + spec.delta * conv[3]
    return BivariateSample(x=TimeSeries(x, label="x"), y=TimeSeries(y, label="y"), spec=spec)
