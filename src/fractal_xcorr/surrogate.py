"""IAAFT surrogates and the bootstrap hedge / safe-haven significance test.

The null hypothesis is destroyed cross-correlation: each member of the
surrogate ensemble pairs an independently randomized copy of x with an
independently randomized copy of y, each preserving its own value
distribution exactly and its power spectrum approximately.  The observed
scale-wise coefficient is then compared against the ensemble with a
two-tailed distance-from-mean p-value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .benchmark import BLOCK_POINTS, _run_jobs
from .errors import DegenerateFluctuationError, InputError
from .fluctuation import DetrendConfig, _dma_segment_stats, rho_q_rows
from .series import AlignedPair, TimeSeries

MIN_SURROGATE_LENGTH = 32
MAX_REGENERATION_RETRIES = 10


@dataclass(frozen=True)
class IaaftConfig:
    max_iterations: int = 1000
    convergence_tol: float = 1e-8  # relative change in spectrum mismatch
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InputError(f"max_iterations={self.max_iterations} < 1")


@dataclass(frozen=True)
class SurrogateTestReport:
    scale: int
    q: float
    observed_rho: float
    surrogate_mean: float
    surrogate_values: np.ndarray
    p_value: float
    n_failed: int = 0  # surrogate pairs degenerate even after retries


def _permutations(x: np.ndarray, n_rows: int, rng) -> np.ndarray:
    """n_rows random permutations of x: the initial rows of an IAAFT ensemble."""
    return np.array([rng.permutation(x) for _ in range(n_rows)])


def _iaaft_ensemble(x: np.ndarray, n_rows: int, cfg: IaaftConfig, rng) -> np.ndarray:
    """n_rows IAAFT surrogates of x, shape (n_rows, N)."""
    return _iaaft_rows(x, _permutations(x, n_rows, rng), cfg)


def _iaaft_rows(x: np.ndarray, cand: np.ndarray, cfg: IaaftConfig) -> np.ndarray:
    """IAAFT surrogates of x from the initial rows cand, shape (rows, N),
    which are overwritten and returned.

    Each iteration imposes the original amplitude spectrum (keeping current
    phases), then rank-remaps onto the sorted original values, so the final
    output always carries the exact original value multiset.  A row stops
    iterating once the relative change of its spectrum mismatch falls below
    the tolerance; rows never interact, so any split of an ensemble into
    blocks gives the same rows.
    """
    N = x.size
    sorted_x = np.sort(x)
    target_amp = np.abs(np.fft.rfft(x))
    target_norm = np.linalg.norm(target_amp)
    prev = np.full(cand.shape[0], np.inf)
    active = np.arange(cand.shape[0])
    for _ in range(cfg.max_iterations):
        spec = np.fft.rfft(cand[active], axis=1)
        amp = np.abs(spec)
        mismatch = np.linalg.norm(amp - target_amp, axis=1) / target_norm
        rel_change = np.abs(prev[active] - mismatch) / np.maximum(mismatch, 1e-300)
        prev[active] = mismatch
        keep = rel_change >= cfg.convergence_tol
        if not keep.any():
            break
        active = active[keep]
        # spec / |spec| is the unit phasor; a zero bin takes phase 0, as
        # np.angle(0) does, so it carries target_amp unchanged.
        zero = amp == 0.0
        spec[zero] = 1.0
        amp[zero] = 1.0
        nxt = np.fft.irfft(spec[keep] * (target_amp / amp[keep]), n=N, axis=1)
        order = np.argsort(nxt, axis=1)
        nxt[np.arange(active.size)[:, None], order] = sorted_x[None, :]
        cand[active] = nxt
    return cand


def iaaft_surrogate(x: TimeSeries, cfg: IaaftConfig = IaaftConfig()) -> TimeSeries:
    """One IAAFT surrogate of x; deterministic given cfg.seed."""
    if len(x) < MIN_SURROGATE_LENGTH:
        raise InputError(f"series too short for surrogates: N={len(x)} < {MIN_SURROGATE_LENGTH}")
    rng = np.random.default_rng(cfg.seed)
    out = _iaaft_ensemble(x.values, 1, cfg, rng)[0]
    return TimeSeries(out, label=f"{x.label}-surrogate")


def _series_rng(seed: int, values: np.ndarray):
    digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "little")])
    )


def _rho_rows(px, py, cfg: DetrendConfig, qs) -> np.ndarray:
    """rho per (q, scale) of profiles (..., N), shape (..., len(qs), len(grid)),
    NaN where degenerate.  Segment statistics are computed once per scale and
    aggregated for every q, each row to the same bits as on its own."""
    return np.stack([rho_q_rows(*_dma_segment_stats(px, py, s, cfg.theta), qs)
                     for s in cfg.scale_grid], axis=-1)


def _rho_all_scales(px, py, cfg: DetrendConfig, qs):
    """rho per (q, scale) of one pair of profiles, shape (len(qs),
    len(grid)), or None if any cell is degenerate."""
    rhos = _rho_rows(px, py, cfg, qs)
    return None if np.isnan(rhos).any() else rhos


def _surrogate_block(x, y, cand_x, cand_y, cfg: DetrendConfig, iaaft: IaaftConfig,
                     qs) -> np.ndarray:
    """_rho_rows of the IAAFT surrogate pairs grown from the initial rows
    cand_x and cand_y: one job of a surrogate test."""
    px = np.cumsum(_iaaft_rows(x, cand_x, iaaft), axis=-1)
    py = np.cumsum(_iaaft_rows(y, cand_y, iaaft), axis=-1)
    return _rho_rows(px, py, cfg, qs)


def _score_new_pairs(x, y, n: int, rng_x, rng_y, cfg: DetrendConfig, iaaft: IaaftConfig,
                     qs) -> np.ndarray:
    """_rho_rows of n new IAAFT surrogate pairs, in blocks of at most
    BLOCK_POINTS points, each block one _surrogate_block job.

    Every initial row is drawn here, all of x's, then all of y's, so no
    result depends on how the rows are cut into jobs or where they run.
    """
    cand_x, cand_y = _permutations(x, n, rng_x), _permutations(y, n, rng_y)
    rows = max(1, BLOCK_POINTS // x.size)
    jobs = [(x, y, cand_x[a:a + rows], cand_y[a:a + rows], cfg, iaaft, qs)
            for a in range(0, n, rows)]
    return np.concatenate(list(_run_jobs(_surrogate_block, jobs,
                                         [len(job[2]) for job in jobs])))


def surrogate_test(pair: AlignedPair, cfg: DetrendConfig, n_surrogates: int = 1000,
                   iaaft: IaaftConfig = IaaftConfig(), qs=None) -> list:
    """Two-tailed surrogate test of the scale-wise coefficient, for each q of
    ``qs`` (default ``(cfg.q,)``) on one shared surrogate ensemble.

    p = (#{|rho_s - mean| >= |rho_obs - mean|} + 1) / (n + 1); the add-one
    correction keeps p strictly positive.  A surrogate pair that is
    degenerate in any (q, scale) cell is regenerated from later draws of
    the same streams (capped), then counted out.  Reports are ordered by q,
    then by scale.
    """
    if n_surrogates < 100:
        raise InputError(f"n_surrogates={n_surrogates} < 100")
    if len(pair) < MIN_SURROGATE_LENGTH:
        raise InputError(f"pair too short for surrogates: N={len(pair)}")
    cfg.check_length(len(pair))
    qs = (cfg.q,) if qs is None else tuple(qs)
    if not qs:
        raise InputError("empty list of fluctuation orders")
    for q in qs:  # DetrendConfig rejects a zero or non-finite order
        replace(cfg, q=q)

    x, y = pair.x.values, pair.y.values
    observed = _rho_all_scales(np.cumsum(x), np.cumsum(y), cfg, qs)
    if observed is None:
        raise DegenerateFluctuationError("degenerate fluctuation in the observed pair")

    # Streams are keyed on series content, not argument position, so that
    # swapping the pair yields the same surrogates and identical p-values.
    rng_x = _series_rng(iaaft.seed, x)
    rng_y = _series_rng(iaaft.seed, y)
    surr_rhos = _score_new_pairs(x, y, n_surrogates, rng_x, rng_y, cfg, iaaft, qs)

    # Retry pairs are drawn from the same streams and handed out in draw
    # order: the first degenerate row takes pairs until one is not
    # degenerate or MAX_REGENERATION_RETRIES have failed, then the next row.
    # Every unsettled row needs at least one more pair, so a round of that
    # many pairs draws none that a one-pair-at-a-time loop would not draw.
    failed = np.isnan(surr_rhos).any(axis=(1, 2))
    pending, tries = list(np.flatnonzero(failed)), 0
    while pending:
        for rhos in _score_new_pairs(x, y, len(pending), rng_x, rng_y, cfg, iaaft, qs):
            tries += 1
            ok = not np.isnan(rhos).any()
            if ok:
                surr_rhos[pending[0]], failed[pending[0]] = rhos, False
            if ok or tries == MAX_REGENERATION_RETRIES:
                del pending[0]
                tries = 0

    n_failed = int(failed.sum())
    if n_failed == n_surrogates:
        raise DegenerateFluctuationError(
            f"all {n_surrogates} surrogate pairs degenerate after retries")
    reports = []
    for k, q in enumerate(qs):
        for j, s in enumerate(cfg.scale_grid):
            vals = surr_rhos[~failed, k, j]
            mean = float(vals.mean())
            obs = float(observed[k, j])
            count = int(np.sum(np.abs(vals - mean) >= abs(obs - mean)))
            reports.append(SurrogateTestReport(
                scale=s, q=q, observed_rho=obs, surrogate_mean=mean,
                surrogate_values=vals, p_value=(count + 1) / (vals.size + 1),
                n_failed=n_failed,
            ))
    return reports


def classify(report: SurrogateTestReport, alpha: float = 0.05) -> str:
    """Hedge (q=2) or safe-haven (q=4) classification of one scale.

    strong: significant and negative; weak: statistically indistinguishable
    from uncorrelated; none: significant and positive.
    """
    if report.q == 2:
        dimension = "hedge"
    elif report.q == 4:
        dimension = "safe haven"
    else:
        dimension = f"q={report.q:g} dependence"
    if report.p_value > alpha:
        return f"weak {dimension}"
    if report.observed_rho < 0:
        return f"strong {dimension}"
    return f"no {dimension}"


def stars(p_value: float) -> str:
    """Significance markers at the 1% / 5% / 10% levels."""
    if p_value <= 0.01:
        return "***"
    if p_value <= 0.05:
        return "**"
    if p_value <= 0.10:
        return "*"
    return ""
