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
import itertools
from dataclasses import dataclass

import numpy as np

from .benchmark import _row_blocks, _run_jobs
from .errors import DegenerateFluctuationError, InputError
from .fluctuation import DetrendConfig, _dma_segment_stats, check_orders, rho_q_grid
from .series import AlignedPair, TimeSeries

MIN_SURROGATE_LENGTH = 32
MAX_REGENERATION_RETRIES = 10
IAAFT_MAX_ITERATIONS = 1000
IAAFT_CONVERGENCE_TOL = 1e-8  # relative change in spectrum mismatch


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
    """n_rows random permutations of x, each written straight into its row of
    one (n_rows, N) array: the initial rows of an IAAFT ensemble."""
    out = np.empty((n_rows, x.size), x.dtype)
    for row in out:
        row[:] = rng.permutation(x)
    return out


def _iaaft_ensemble(x: np.ndarray, n_rows: int, rng) -> np.ndarray:
    """n_rows IAAFT surrogates of x, shape (n_rows, N)."""
    return _iaaft_rows(x, _permutations(x, n_rows, rng))


def _iaaft_rows(x: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """IAAFT surrogates of x from the initial rows cand, shape (rows, N),
    which are overwritten and returned.

    Each iteration imposes the original amplitude spectrum (keeping current
    phases), then rank-remaps onto the sorted original values, so the final
    output always carries the exact original value multiset.  A row stops
    iterating once the relative change of its spectrum mismatch falls below
    the tolerance; rows never interact, so any split of an ensemble into
    blocks gives the same rows.  The rows still iterating live in one working
    array, and each is written back to cand once, when it stops.
    """
    N = x.size
    sorted_x = np.sort(x)
    target_amp = np.abs(np.fft.rfft(x))
    target_norm = np.linalg.norm(target_amp)
    prev = np.full(cand.shape[0], np.inf)
    rows, cur = np.arange(cand.shape[0]), cand  # cur[i] is row rows[i] of cand
    for _ in range(IAAFT_MAX_ITERATIONS):
        spec = np.fft.rfft(cur, axis=1)
        amp = np.abs(spec)
        mismatch = np.linalg.norm(amp - target_amp, axis=1) / target_norm
        keep = np.abs(prev - mismatch) / np.maximum(mismatch, 1e-300) >= IAAFT_CONVERGENCE_TOL
        prev = mismatch
        if not keep.all():
            cand[rows[~keep]] = cur[~keep]
            if not keep.any():
                return cand
            rows, spec, amp, prev = rows[keep], spec[keep], amp[keep], prev[keep]
        # spec / |spec| is the unit phasor; a zero bin takes phase 0, as
        # np.angle(0) does, so it carries target_amp unchanged.
        if not amp.all():
            zero = amp == 0.0
            spec[zero] = 1.0
            amp[zero] = 1.0
        spec *= np.divide(target_amp, amp, out=amp)
        cur = np.fft.irfft(spec, n=N, axis=1)
        for row, order in zip(cur, np.argsort(cur, axis=1)):
            row[order] = sorted_x
    cand[rows] = cur
    return cand


def iaaft_surrogate(x: TimeSeries, seed: int = 0) -> TimeSeries:
    """One IAAFT surrogate of x; deterministic given seed."""
    if seed < 0:
        raise InputError(f"seed={seed} < 0")
    if len(x) < MIN_SURROGATE_LENGTH:
        raise InputError(f"series too short for surrogates: N={len(x)} < {MIN_SURROGATE_LENGTH}")
    out = _iaaft_ensemble(x.values, 1, np.random.default_rng(seed))[0]
    return TimeSeries(out, label=f"{x.label}-surrogate")


def _series_rng(seed: int, values: np.ndarray, *words):
    digest = hashlib.sha256(np.ascontiguousarray(values).tobytes()).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "little"), *words])
    )


def _rho_all_scales(px, py, cfg: DetrendConfig, qs) -> np.ndarray:
    """rho per (q, scale) of profiles (..., N), shape (..., len(qs), len(grid)),
    NaN where degenerate: one rho_q_grid call over the grid's segment
    statistics, each row to the same bits as on its own."""
    return rho_q_grid((_dma_segment_stats(px, py, s, cfg.theta) for s in cfg.scale_grid), qs)


def _surrogate_block(x, y, cand_x, cand_y, cfg: DetrendConfig, qs) -> np.ndarray:
    """_rho_all_scales of the IAAFT surrogate pairs grown from the initial
    rows cand_x and cand_y: one job of a surrogate test."""
    px = np.cumsum(_iaaft_rows(x, cand_x), axis=-1)
    py = np.cumsum(_iaaft_rows(y, cand_y), axis=-1)
    return _rho_all_scales(px, py, cfg, qs)


def _score_new_pairs(x, y, n: int, rng_x, rng_y, cfg: DetrendConfig, qs) -> np.ndarray:
    """_rho_all_scales of n new IAAFT surrogate pairs, in _row_blocks, each
    block one _surrogate_block job.

    Each block's initial rows are drawn here, as _run_jobs takes its job: its
    x rows from rng_x, then its y rows from rng_y.  Each stream is drawn in
    row order, so no result depends on how the rows are cut into jobs or
    where they run, and only the blocks of _run_jobs' window are held.
    """
    jobs = ((x, y, _permutations(x, b - a, rng_x), _permutations(y, b - a, rng_y), cfg, qs)
            for a, b in _row_blocks(n, x.size))
    return np.concatenate(list(_run_jobs(_surrogate_block, jobs)))


def surrogate_test(pair: AlignedPair, cfg: DetrendConfig, n_surrogates: int = 1000,
                   seed: int = 0, qs=None) -> list:
    """Two-tailed surrogate test of the scale-wise coefficient, for each q of
    ``qs`` (default ``(cfg.q,)``) on one shared surrogate ensemble.

    p = (#{|rho_s - mean| >= |rho_obs - mean|} + 1) / (n + 1), for every
    cell in one pass; the add-one correction keeps p strictly positive.  A
    pair degenerate in any (q, scale) cell, in row order, takes later pairs
    of the same streams until one is not or MAX_REGENERATION_RETRIES have
    failed, then is counted out.  Pairs come in rounds of one per unsettled
    row, so none is drawn that a one-pair-at-a-time loop would not draw.
    Reports are ordered by q, then by scale; deterministic given seed.
    """
    if seed < 0:
        raise InputError(f"seed={seed} < 0")
    if n_surrogates < 100:
        raise InputError(f"n_surrogates={n_surrogates} < 100")
    if len(pair) < MIN_SURROGATE_LENGTH:
        raise InputError(f"pair too short for surrogates: N={len(pair)}")
    cfg.check_length(len(pair))
    qs = check_orders((cfg.q,) if qs is None else qs)

    x, y = pair.x.values, pair.y.values
    observed = _rho_all_scales(np.cumsum(x), np.cumsum(y), cfg, qs)
    if np.isnan(observed).any():
        raise DegenerateFluctuationError("degenerate fluctuation in the observed pair")

    # Streams are keyed on series content, not argument position, so swapping
    # the pair gives the same p-values; a y equal to x takes one more word.
    rng_x = _series_rng(seed, x)
    rng_y = _series_rng(seed, y, 1) if np.array_equal(x, y) else _series_rng(seed, y)
    surr_rhos = _score_new_pairs(x, y, n_surrogates, rng_x, rng_y, cfg, qs)

    failed = np.isnan(surr_rhos).any(axis=(1, 2))
    pending = list(np.flatnonzero(failed))
    # a round of len(pending) pairs is drawn when the last is used up; zip asks range first
    fresh = itertools.chain.from_iterable(
        _score_new_pairs(x, y, len(pending), rng_x, rng_y, cfg, qs) for _ in itertools.count())
    while pending:
        for _, rhos in zip(range(MAX_REGENERATION_RETRIES), fresh):
            if not np.isnan(rhos).any():
                surr_rhos[pending[0]], failed[pending[0]] = rhos, False
                break
        del pending[0]

    n_failed = int(failed.sum())
    if n_failed == n_surrogates:
        raise DegenerateFluctuationError(
            f"all {n_surrogates} surrogate pairs degenerate after retries")
    # C-contiguous (q, scale, pair): each cell sums as its own 1-D array would
    vals = np.ascontiguousarray(np.moveaxis(surr_rhos[~failed], 0, -1))
    means = vals.mean(axis=-1, keepdims=True)
    counts = np.sum(np.abs(vals - means) >= np.abs(observed[..., None] - means), axis=-1)
    p_values = (counts + 1) / (vals.shape[-1] + 1)
    return [SurrogateTestReport(scale=s, q=q, observed_rho=float(observed[k, j]),
                                surrogate_mean=float(means[k, j, 0]), surrogate_values=vals[k, j],
                                p_value=float(p_values[k, j]), n_failed=n_failed)
            for k, q in enumerate(qs) for j, s in enumerate(cfg.scale_grid)]


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
