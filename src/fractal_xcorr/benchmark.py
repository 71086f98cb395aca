"""Monte Carlo comparison of the two coherency estimators.

Ensembles of mixed-correlated ARFIMA samples are generated per grid cell
(length x innovation correlation), the coherency exponent is estimated with
both the moving-average and the box-splitting method for each order q and
fit-range parameter, and bias / SD / MSE against the theoretical exponent
are reported.

Fit-range conventions: box-splitting runs parameterized by n_min fit scales
n_min .. N/5; moving-average runs parameterized by s_max fit scales
10 .. s_max.  Each range holds 20 log-spaced integer scales (deduplicated).
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .fluctuation import (
    DEFAULT_QS,
    MIN_SCALE,
    _check_dma_scale,
    _dcca_segment_stats,
    _dma_segment_stats,
    check_orders,
    rho_q_grid,
)
from .mc_arfima import McArfimaSpec, generate
from .scaling import log_scales, ols_fit

DMCA_FIT_S_LO = 10  # lower fit bound when s_max is the swept parameter
DCCA_FIT_HI_DIVISOR = 5  # upper fit bound N/5 when n_min is the swept parameter
# Replications of a cell and surrogate pairs go through in the fewest blocks of
# at most this many points (rows x N; at least one row), split evenly.  It
# bounds memory and keeps the working arrays in cache; no result depends on it.
BLOCK_POINTS = 1 << 15


@dataclass(frozen=True)
class BenchmarkConfig:
    lengths: tuple = (500, 1000, 5000)
    cross_corrs: tuple = (0.1, 0.5, 0.9)
    qs: tuple = DEFAULT_QS
    replications: int = 200
    dcca_n_min: tuple = (10, 20, 50, 100)
    dmca_s_max: tuple = (20, 50, 100)
    master_seed: int = 0
    theta: float = 0.5
    truncation: int = 10_000

    def __post_init__(self):
        if self.replications < 10:
            raise InputError(f"replications={self.replications} < 10")
        if self.master_seed < 0:
            raise InputError(f"seed={self.master_seed} < 0")
        if any(n < 1 for n in self.lengths):
            raise InputError(f"lengths {list(self.lengths)} must be positive")
        check_orders(self.qs)
        for name, values in (("n_min", self.dcca_n_min), ("s_max", self.dmca_s_max)):
            if any(v < MIN_SCALE for v in values):
                raise InputError(f"{name} {list(values)} must be at least {MIN_SCALE}")


@dataclass(frozen=True)
class EstimatorReport:
    """Bias / SD / MSE of one estimator grid cell."""

    method: str  # "DMCA" | "DCCA"
    length: int
    cross_corr: float
    q: float
    range_param: int  # s_max for DMCA, n_min for DCCA
    bias: float
    sd: float
    mse: float
    n_effective: int

    def to_dict(self) -> dict:
        return {("N" if k == "length" else k): v for k, v in asdict(self).items()}


def _cell_seed(master_seed: int, length: int, cross_corr: float, rep: int) -> int:
    # Stable, collision-free across the grid; replication seeds are
    # consecutive within a cell for reproducible parallel fan-out.
    mask = (1 << 64) - 1
    base = (master_seed * 0x9E3779B97F4A7C15) & mask
    base ^= (length * 0xBF58476D1CE4E5B9) & mask
    base ^= (int(round(cross_corr * 1000)) * 0x94D049BB133111EB) & mask
    return (base + rep) & ((1 << 63) - 1)


def _estimate_all(px, py, cfg: BenchmarkConfig, grids):
    """Coherency estimates for every (method, q, fit range) on a stack of
    profiles of shape (R, N): {(method, q, param): R estimates}.

    grids maps method -> {param: fit scales}, at least 3 of them (see
    _check_cell).  One rho_q_grid call per method scores the whole stack on
    the union of its fit scales; np.take gives each fit range its columns
    C-contiguous, so the fit sums them as it would a stack of them.  NaN
    marks a degenerate replication: F_x^q F_y^q <= 0 or rho = 0 at a fit
    scale, or no segment left at q < 0.
    """
    qs = np.asarray(cfg.qs, dtype=float)
    out = {}
    for method, by_param in grids.items():
        scales = sorted({s for g in by_param.values() for s in g})
        rho2 = rho_q_grid((_dma_segment_stats(px, py, s, cfg.theta) if method == "DMCA"
                           else _dcca_segment_stats(px, py, s) for s in scales), qs) ** 2
        log_rho2 = np.log(np.where(rho2 > 0.0, rho2, np.nan))
        for param, fit in by_param.items():
            cols = np.take(log_rho2, np.searchsorted(scales, fit), axis=-1)
            slope, _ = ols_fit(np.log(fit), cols)
            est = 0.5 * slope / qs
            for i, q in enumerate(cfg.qs):
                out[(method, q, param)] = est[:, i]
    return out


def _check_cell(cfg: BenchmarkConfig, length: int, cross_corr: float, grids) -> None:
    """Raise an InputError if the cell cannot run, a method has no fit range
    or a fit range has fewer than 3 scales."""
    McArfimaSpec(cross_corr=cross_corr, length=length, truncation=cfg.truncation)
    for method, by_param in grids.items():
        for param, scales in by_param.items():
            if len(scales) < 3:
                raise InputError(f"{method} fit range {param} at N={length} has "
                                 f"{len(scales)} scale(s); at least 3 are needed")
    for s in sorted({s for g in grids["DMCA"].values() for s in g}):
        _check_dma_scale(length, s, cfg.theta)
    for method, by_param in grids.items():
        if not by_param:
            raise InputError(f"{method} has no fit range at N={length}")


def _replicate(cfg: BenchmarkConfig, length: int, cross_corr: float, grids,
               first: int, stop: int) -> dict:
    """_estimate_all on the profiles of replications first .. stop-1 of one
    cell: one job of a study."""
    samples = [generate(McArfimaSpec(
        cross_corr=cross_corr, length=length, truncation=cfg.truncation,
        seed=_cell_seed(cfg.master_seed, length, cross_corr, rep),
    )) for rep in range(first, stop)]
    px = np.cumsum([s.x.values for s in samples], axis=-1)
    py = np.cumsum([s.y.values for s in samples], axis=-1)
    return _estimate_all(px, py, cfg, grids)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _run_jobs(fn, jobs):
    """fn(*job) for every job of the iterable jobs, yielded in job order.

    With at least two jobs and two CPUs the jobs run in a pool of
    min(CPUs, jobs) forked worker processes; otherwise one after another in
    this process.  A job is taken from jobs only when a worker can soon run
    it: at most workers + 1 are taken but not yet yielded, so jobs that are
    built as they are taken are held only that many at a time.  Every job
    draws its own random numbers or is handed them, so the results do not
    depend on where or in which order the jobs run.
    """
    jobs = iter(jobs)
    head = list(itertools.islice(jobs, _cpu_count()))
    workers, jobs = len(head), itertools.chain(head, jobs)
    if workers < 2 or not hasattr(os, "fork"):
        for job in jobs:
            yield fn(*job)
        return
    import multiprocessing  # imported here to keep it off the start-up path
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a forked worker starts in milliseconds with the package
    # already imported, where spawn would import numpy again in each worker.
    # No Python thread of this package is running when the workers fork.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            running = deque()
            for job in jobs:
                running.append(pool.submit(fn, *job))
                if len(running) > workers:
                    yield running.popleft().result()
            while running:
                yield running.popleft().result()
        except BaseException:  # a job failed or the consumer stopped: drop the rest
            pool.shutdown(cancel_futures=True)
            raise


def _row_blocks(n_rows: int, length: int) -> list:
    """(first, stop) of each block of rows of length points, in order: as few
    blocks as hold at most BLOCK_POINTS points each (and at least one row),
    with sizes that differ by at most one row, so the jobs weigh alike."""
    blocks = -(-n_rows // max(1, BLOCK_POINTS // length))  # ceiling division
    return [(i * n_rows // blocks, (i + 1) * n_rows // blocks) for i in range(blocks)]


def _cell_estimates(cfg: BenchmarkConfig, cells):
    """(length, cross_corr, ests) for each cell (length, cross_corr, grids)
    of the iterable cells, in order; ests maps every key (method, q, param)
    with a non-degenerate estimate to those estimates, by method, then q as
    in cfg.qs, then param.

    Every cell is checked here, in order, before any job is built, so a grid
    that cannot run raises before any replication is generated.  A cell's
    replications go through in _row_blocks, one job per block, and the jobs
    of every cell run together.
    """
    plan = []
    for length, rho, grids in cells:
        _check_cell(cfg, length, rho, grids)
        plan.append((length, rho, grids, _row_blocks(cfg.replications, length)))
    results = _run_jobs(_replicate, ((cfg, length, rho, grids, first, stop)
                                     for length, rho, grids, blocks in plan
                                     for first, stop in blocks))
    for length, rho, _, blocks in plan:
        parts = [next(results) for _ in blocks]
        out = {}
        for key in sorted(parts[0], key=lambda k: (k[0], cfg.qs.index(k[1]), k[2])):
            ests = np.concatenate([p[key] for p in parts])
            if not np.isnan(ests).all():
                out[key] = ests[~np.isnan(ests)]
        yield length, rho, out


def run_benchmark(cfg: BenchmarkConfig, progress=None) -> list:
    """Bias/SD/MSE reports for the full config grid, by length, then
    innovation correlation, then in _cell_estimates' order (method, q as in
    cfg.qs, fit-range parameter); _cell_estimates checks every cell before
    any replication is generated.

    Degenerate replications are excluded from a cell's statistics with
    n_effective recording how many completed.  Deterministic given
    cfg.master_seed.
    """
    h_rho = McArfimaSpec().implied_h_rho
    # lazy, so a grid is reported in grid order: a length's fit grids are
    # built only after the cells of the lengths before it are checked
    grids = ({"DMCA": {p: log_scales(DMCA_FIT_S_LO, p) for p in cfg.dmca_s_max},
              "DCCA": {p: log_scales(p, hi) for p in cfg.dcca_n_min if p < hi}}
             for hi in (length // DCCA_FIT_HI_DIVISOR for length in cfg.lengths))
    cells = ((length, rho, g) for length, g in zip(cfg.lengths, grids) for rho in cfg.cross_corrs)
    reports = []
    for length, rho, ests in _cell_estimates(cfg, cells):
        for (method, q, param), vals in ests.items():
            bias = float(vals.mean() - h_rho)
            sd = float(vals.std())  # population SD across replications
            reports.append(EstimatorReport(
                method=method, length=length, cross_corr=rho, q=q,
                range_param=param, bias=bias, sd=sd,
                mse=bias**2 + sd**2, n_effective=int(vals.size),
            ))
            if progress is not None:
                progress(reports[-1])
    return reports


STABILITY_FIT_RANGE = (10, 1000)


def stability_sweep(lengths, cfg: BenchmarkConfig) -> list:
    """Mean coherency estimate per length for both methods and orders.

    The fit range is held fixed across lengths (10 .. 1000, capped at N/5)
    so that the length-dependence of the means reflects estimator quality
    rather than a moving estimand.  Uses the last configured innovation
    correlation.  Returns records {method, q, N, mean_h_rho, n_effective},
    by length, then in _cell_estimates' order.
    """
    lo, hi = STABILITY_FIT_RANGE
    cells = ((length, cfg.cross_corrs[-1], dict.fromkeys(
        ("DMCA", "DCCA"), {hi: log_scales(lo, min(hi, length // DCCA_FIT_HI_DIVISOR))}))
        for length in lengths)
    records = []
    for length, _, ests in _cell_estimates(cfg, cells):
        records.extend({"method": method, "q": q, "N": length, "mean_h_rho": float(vals.mean()),
                        "n_effective": int(vals.size)} for (method, q, _), vals in ests.items())
    return records
