"""Seeded input files for the benchmark workloads.

The benchmark makes its own price series with numpy, so the program under
test only ever sees CSV files and the seeds on its command line.  The same
(workload, seed) always gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Paper-sized intraday pairs: 35,609 prices give 35,608 log returns.
PAPER_PRICES = 35_609
PAPER_CORRS = {"oil": 0.2, "currency": -0.5}  # innovation correlation with gold
SURROGATE_PRICES = 1_001  # 1,000 returns
SURROGATE_CORR = -0.8
T_DOF = 4  # Student-t tails of the innovations
BASE_VOL = 1e-3  # per-step return scale


def _rng(tag: int, seed: int):
    return np.random.default_rng(np.random.SeedSequence([tag, seed]))


def _volatility(rng, n: int) -> np.ndarray:
    """Common stochastic volatility: exp of an AR(1) log-variance path."""
    shocks = 0.15 * rng.standard_normal(n)
    h = np.empty(n)
    h[0] = shocks[0]
    for t in range(1, n):
        h[t] = 0.97 * h[t - 1] + shocks[t]
    return np.exp(h)


def correlated_returns(rng, n: int, corrs, clustered: bool = True) -> np.ndarray:
    """Rows [base, other_1, ...]: heavy-tailed returns whose innovations
    correlate with the base row at the given levels.

    Every row shares one Student-t mixing variable and (when clustered) one
    volatility path per time step, so the population return correlation
    with the base row equals the innovation correlation exactly.
    """
    z = rng.standard_normal((1 + len(corrs), n))
    mix = np.sqrt(T_DOF / rng.chisquare(T_DOF, n)) * np.sqrt((T_DOF - 2) / T_DOF)
    scale = BASE_VOL * mix
    if clustered:
        scale = scale * _volatility(rng, n)
    rows = [z[0]]
    for k, c in enumerate(corrs, start=1):
        rows.append(c * z[0] + np.sqrt(1.0 - c * c) * z[k])
    return np.array(rows) * scale


def write_prices(path: Path, returns: np.ndarray, start: float = 100.0):
    """Write a price CSV (minute index, close) built from log returns."""
    prices = start * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    with open(path, "w") as fh:
        fh.write("minute,close\n")
        fh.writelines(f"{i},{float(p)!r}\n" for i, p in enumerate(prices))


def paper_inputs(work: Path, seed: int, n_prices: int = PAPER_PRICES) -> dict:
    """gold.csv, oil.csv and currency.csv; returns {name: path}."""
    work.mkdir(parents=True, exist_ok=True)
    rets = correlated_returns(_rng(1, seed), n_prices - 1, list(PAPER_CORRS.values()))
    paths = {}
    for name, row in zip(["gold", *PAPER_CORRS], rets):
        paths[name] = work / f"{name}.csv"
        write_prices(paths[name], row)
    return paths


def surrogate_inputs(work: Path, seed: int, n_prices: int = SURROGATE_PRICES) -> dict:
    """A strongly negatively correlated pair x.csv, y.csv.

    Without volatility clustering: IAAFT needs about twice the iterations
    on clustered series, which would leave a run too few operations."""
    work.mkdir(parents=True, exist_ok=True)
    rets = correlated_returns(_rng(2, seed), n_prices - 1, [SURROGATE_CORR], clustered=False)
    paths = {}
    for name, row in zip(("x", "y"), rets):
        paths[name] = work / f"{name}.csv"
        write_prices(paths[name], row)
    return paths


def read_returns(path: Path) -> np.ndarray:
    """Log returns of a price CSV written by write_prices."""
    prices = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
    return np.diff(np.log(prices))
