import concurrent.futures
import math
import os
import time

import numpy as np
import pytest

from fractal_xcorr import BenchmarkConfig, InputError, run_benchmark, stability_sweep
from fractal_xcorr import benchmark as bench_mod
from fractal_xcorr.benchmark import _cell_seed
from fractal_xcorr.errors import DegenerateFluctuationError
from fractal_xcorr.fluctuation import _dcca_segment_stats, _dma_segment_stats
from fractal_xcorr.mc_arfima import McArfimaSpec
from fractal_xcorr.scaling import log_scales
from conftest import one_row_rho


SMALL = BenchmarkConfig(
    lengths=(500,), cross_corrs=(0.9,), qs=(2.0, 4.0), replications=10,
    dcca_n_min=(10,), dmca_s_max=(20,), master_seed=0,
)


class TestCellSeed:
    def test_distinct_across_grid(self):
        seeds = {
            _cell_seed(0, n, rho, rep)
            for n in (500, 1000, 5000)
            for rho in (0.1, 0.5, 0.9)
            for rep in range(50)
        }
        assert len(seeds) == 3 * 3 * 50

    def test_consecutive_within_cell(self):
        s0 = _cell_seed(7, 500, 0.9, 0)
        assert _cell_seed(7, 500, 0.9, 5) == s0 + 5

    def test_nonnegative_64bit(self):
        s = _cell_seed(2**63, 100_000, -0.999, 10**6)
        assert 0 <= s < 2**63


class TestRunBenchmark:
    def test_report_grid_and_mse_identity(self):
        reports = run_benchmark(SMALL)
        keys = {(r.method, r.q, r.range_param) for r in reports}
        assert keys == {("DMCA", 2.0, 20), ("DMCA", 4.0, 20),
                        ("DCCA", 2.0, 10), ("DCCA", 4.0, 10)}
        for r in reports:
            assert r.mse == pytest.approx(r.bias**2 + r.sd**2, rel=1e-12)
            assert 0 < r.n_effective <= 10

    def test_determinism(self):
        a = run_benchmark(SMALL)
        b = run_benchmark(SMALL)
        assert [(r.bias, r.sd) for r in a] == [(r.bias, r.sd) for r in b]

    def test_master_seed_changes_estimates(self):
        other = BenchmarkConfig(
            lengths=(500,), cross_corrs=(0.9,), qs=(2.0,), replications=10,
            dcca_n_min=(10,), dmca_s_max=(20,), master_seed=1,
        )
        base = BenchmarkConfig(
            lengths=(500,), cross_corrs=(0.9,), qs=(2.0,), replications=10,
            dcca_n_min=(10,), dmca_s_max=(20,), master_seed=0,
        )
        assert run_benchmark(base)[0].bias != run_benchmark(other)[0].bias

    def test_infeasible_dcca_param_dropped(self):
        # n_min=100 cannot anchor a fit range ending at N/5=100 for N=500
        cfg = BenchmarkConfig(
            lengths=(500,), cross_corrs=(0.9,), qs=(2.0,), replications=10,
            dcca_n_min=(10, 100), dmca_s_max=(20,), master_seed=0,
        )
        params = {r.range_param for r in run_benchmark(cfg) if r.method == "DCCA"}
        assert params == {10}

    def test_progress_callback(self):
        seen = []
        run_benchmark(SMALL, progress=seen.append)
        assert len(seen) == 4

    def test_replications_floor(self):
        with pytest.raises(InputError):
            BenchmarkConfig(replications=5)

    def test_to_dict_round_trip(self):
        rep = run_benchmark(SMALL)[0]
        d = rep.to_dict()
        assert d["method"] == rep.method and d["mse"] == rep.mse


class TestStabilitySweep:
    def test_record_structure(self):
        cfg = BenchmarkConfig(
            lengths=(500,), cross_corrs=(0.5, 0.9), qs=(2.0,), replications=10,
            dcca_n_min=(10,), dmca_s_max=(20,), master_seed=0,
        )
        records = stability_sweep((500, 1000), cfg)
        assert {(r["method"], r["N"]) for r in records} == {
            ("DMCA", 500), ("DCCA", 500), ("DMCA", 1000), ("DCCA", 1000)}
        for r in records:
            assert np.isfinite(r["mean_h_rho"])
            assert r["n_effective"] == 10


# --- the batched replication path against a per-replication reference -------

WIDE = BenchmarkConfig(
    lengths=(500, 1000), cross_corrs=(0.1, 0.9), qs=(2.0, 4.0, -2.0), replications=10,
    dcca_n_min=(10, 50), dmca_s_max=(20, 100), master_seed=0,
)
H_RHO = -0.2


def _reference_h_rho(stats, scales, q):
    """One replication's estimate as a loop over scales, fitted by np.polyfit;
    None where the estimate is degenerate."""
    points = []
    for s in scales:
        try:
            rho, _ = one_row_rho(s, q, *stats[s])
        except DegenerateFluctuationError:
            return None
        if rho == 0.0 or rho**2 <= 0.0:
            return None
        points.append((s, rho**2))
    if len(points) < 3:
        return None
    slope, _ = np.polyfit(np.log([s for s, _ in points]), np.log([v for _, v in points]), 1)
    return slope / (2.0 * q)


def _reference_cell(cfg, length, rho, grids):
    """{(method, q, param): [estimate or None per replication]}, one sample at a time."""
    out = {}
    for rep in range(cfg.replications):
        sample = bench_mod.generate(McArfimaSpec(
            cross_corr=rho, length=length, truncation=cfg.truncation,
            seed=bench_mod._cell_seed(cfg.master_seed, length, rho, rep)))
        px, py = np.cumsum(sample.x.values), np.cumsum(sample.y.values)
        for method, by_param in grids.items():
            scales = sorted({s for g in by_param.values() for s in g})
            if method == "DMCA":
                stats = {s: _dma_segment_stats(px, py, s, cfg.theta) for s in scales}
            else:
                stats = {s: _dcca_segment_stats(px, py, s) for s in scales}
            for param, grid in by_param.items():
                for q in cfg.qs:
                    out.setdefault((method, q, param), []).append(
                        _reference_h_rho(stats, grid, q))
    return out


def _benchmark_grids(cfg, length):
    hi = length // 5
    return {"DMCA": {p: log_scales(10, p) for p in cfg.dmca_s_max},
            "DCCA": {p: log_scales(p, hi) for p in cfg.dcca_n_min if p < hi}}


def _reference_run_benchmark(cfg):
    cells = {}
    for length in cfg.lengths:
        for rho in cfg.cross_corrs:
            for (method, q, param), ests in _reference_cell(
                    cfg, length, rho, _benchmark_grids(cfg, length)).items():
                vals = np.array([e for e in ests if e is not None])
                if vals.size:
                    cells[(method, length, rho, q, param)] = (
                        vals.mean() - H_RHO, vals.std(), vals.size)
    return cells


def _as_cells(reports):
    return {(r.method, r.length, r.cross_corr, r.q, r.range_param): (r.bias, r.sd, r.n_effective)
            for r in reports}


def _flatten_x_of_replication(monkeypatch, length, rho, rep):
    """Make generate return an all-zero x for one replication of master seed 0."""
    flat_seed = bench_mod._cell_seed(0, length, rho, rep)
    generate = bench_mod.generate

    def flat_x_for_one_seed(spec):
        sample = generate(spec)
        if spec.seed == flat_seed:
            sample.x.values[:] = 0.0
        return sample

    monkeypatch.setattr(bench_mod, "generate", flat_x_for_one_seed)


def _assert_same_cells(got, want):
    assert set(got) == set(want)
    for key, (bias, sd, n) in want.items():
        assert got[key][2] == n, key
        assert abs(got[key][0] - bias) <= 1e-12, key
        assert abs(got[key][1] - sd) <= 1e-12, key


class TestBatchedReplications:
    @pytest.mark.parametrize("cfg", [SMALL, WIDE], ids=["small", "wide"])
    def test_run_benchmark_matches_per_replication_loop(self, cfg):
        _assert_same_cells(_as_cells(run_benchmark(cfg)), _reference_run_benchmark(cfg))

    def test_stability_sweep_matches_per_replication_loop(self):
        cfg = BenchmarkConfig(lengths=(500,), cross_corrs=(0.5,), qs=(2.0, -2.0),
                              replications=10, master_seed=0)
        want = []
        for length in (500, 1000):
            grid = log_scales(10, min(1000, length // 5))
            ests = _reference_cell(cfg, length, 0.5, {"DMCA": {0: grid}, "DCCA": {0: grid}})
            for (method, q, _), e in sorted(ests.items(),
                                            key=lambda kv: (kv[0][0], cfg.qs.index(kv[0][1]))):
                vals = np.array([v for v in e if v is not None])
                want.append((method, q, length, vals.mean(), vals.size))
        got = stability_sweep((500, 1000), cfg)
        assert [(r["N"], r["method"], r["q"]) for r in got] == [  # the cfg.qs order
            (n, m, q) for n in (500, 1000) for m in ("DCCA", "DMCA") for q in (2.0, -2.0)]
        assert [(r["method"], r["q"], r["N"], r["n_effective"]) for r in got] == [
            (m, q, n, k) for m, q, n, _, k in want]
        for r, w in zip(got, want):
            assert abs(r["mean_h_rho"] - w[3]) <= 1e-12

    @pytest.mark.parametrize("points", [3, 3 * 500])
    def test_results_do_not_depend_on_block_size(self, monkeypatch, points):
        whole = [r.to_dict() for r in run_benchmark(WIDE)]
        monkeypatch.setattr(bench_mod, "BLOCK_POINTS", points)
        assert [r.to_dict() for r in run_benchmark(WIDE)] == whole

    def test_degenerate_replication_drops_out(self, monkeypatch):
        cfg = BenchmarkConfig(lengths=(500,), cross_corrs=(0.9,), qs=(-2.0, 2.0),
                              replications=10, dcca_n_min=(10,), dmca_s_max=(20,))
        _flatten_x_of_replication(monkeypatch, 500, 0.9, 3)
        want = _reference_cell(cfg, 500, 0.9, _benchmark_grids(cfg, 500))
        assert all(ests[3] is None for ests in want.values())
        got = _as_cells(run_benchmark(cfg))
        for method, q, param in want:
            assert got[(method, 500, 0.9, q, param)][2] == 9
        _assert_same_cells(got, _reference_run_benchmark(cfg))

    def test_replications_go_through_in_blocks(self, monkeypatch):
        rows = []
        estimate_all = bench_mod._estimate_all

        def record(px, py, cfg, length, grids=None):
            rows.append(px.shape)
            return estimate_all(px, py, cfg, length, grids)

        monkeypatch.setattr(bench_mod, "_estimate_all", record)
        monkeypatch.setattr(bench_mod, "BLOCK_POINTS", 4 * 500)
        monkeypatch.setattr(bench_mod, "_cpu_count", lambda: 1)  # a worker's calls are not seen here
        run_benchmark(SMALL)
        # 10 replications, at most 4 a block: ceil(10 / 4) = 3 blocks, as even as possible
        assert rows == [(3, 500), (3, 500), (4, 500)]

    @pytest.mark.parametrize("length", [1, 64, 500, 600, 1000, 5000, 35608,
                                        bench_mod.BLOCK_POINTS + 1])
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 10, 100, 130, 1000])
    def test_row_blocks_fewest_and_even(self, n_rows, length):
        cap = max(1, bench_mod.BLOCK_POINTS // length)
        blocks = bench_mod._row_blocks(n_rows, length)
        assert [first for first, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == n_rows
        assert len(blocks) == math.ceil(n_rows / cap)
        sizes = [stop - first for first, stop in blocks]
        assert max(sizes) - min(sizes) <= 1 and 1 <= min(sizes) and max(sizes) <= cap

    @pytest.mark.parametrize("q", [0.0, float("nan"), float("inf"), -float("inf")])
    def test_zero_and_non_finite_orders_rejected(self, q):
        with pytest.raises(InputError, match="finite and nonzero"):
            BenchmarkConfig(qs=(2.0, q))

    def test_repeated_order_rejected(self):
        with pytest.raises(InputError, match="^fluctuation orders: q=2 given twice$"):
            BenchmarkConfig(qs=(2.0, 4.0, 2))

    @pytest.mark.parametrize("field, name", [("dcca_n_min", "n_min"), ("dmca_s_max", "s_max")])
    @pytest.mark.parametrize("value", [-1, 0, 3])
    def test_fit_bound_below_smallest_scale_rejected(self, field, name, value):
        with pytest.raises(InputError, match=f"{name} .* must be at least 4"):
            BenchmarkConfig(**{field: (20, value)})


# --- replication blocks in worker processes ----------------------------------

NEG_Q = BenchmarkConfig(
    lengths=(500, 1000), cross_corrs=(0.5, 0.9), qs=(2.0, 4.0, -2.0), replications=10,
    dcca_n_min=(10, 50), dmca_s_max=(20, 100), master_seed=11,
)


def _with_cpus(monkeypatch, cpus, fn, *args):
    monkeypatch.setattr(bench_mod, "_cpu_count", lambda: cpus)
    return fn(*args)


def _finish_time(delay, value):
    """value and the moment it was ready, on a clock that every process shares."""
    time.sleep(delay)
    return value, time.monotonic()


def _fail_on(value, bad):
    if value == bad:
        raise ValueError(f"job {value} failed")
    return value


class TestWorkerPool:
    @pytest.mark.parametrize("reported, want", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, reported, want):
        monkeypatch.delattr(os, "sched_getaffinity")  # as on platforms that lack it
        monkeypatch.setattr(os, "cpu_count", lambda: reported)
        assert bench_mod._cpu_count() == want

    @pytest.mark.parametrize("points", [None, 1500])
    @pytest.mark.parametrize("cfg", [SMALL, NEG_Q], ids=["small", "neg_q"])
    def test_run_benchmark_same_bits_for_any_worker_count(self, monkeypatch, cfg, points):
        if points is not None:
            monkeypatch.setattr(bench_mod, "BLOCK_POINTS", points)
        one, two = ([r.to_dict() for r in _with_cpus(monkeypatch, cpus, run_benchmark, cfg)]
                    for cpus in (1, 2))
        assert one == two

    @pytest.mark.parametrize("points", [None, 1500])
    def test_stability_sweep_same_bits_for_any_worker_count(self, monkeypatch, points):
        if points is not None:
            monkeypatch.setattr(bench_mod, "BLOCK_POINTS", points)
        one, two = (_with_cpus(monkeypatch, cpus, stability_sweep, (500, 1000), NEG_Q)
                    for cpus in (1, 2))
        assert one == two

    def test_degenerate_replication_same_for_any_worker_count(self, monkeypatch):
        cfg = BenchmarkConfig(lengths=(500,), cross_corrs=(0.5, 0.9), qs=(-2.0, 2.0),
                              replications=10, dcca_n_min=(10,), dmca_s_max=(20,))
        _flatten_x_of_replication(monkeypatch, 500, 0.9, 3)
        one, two = ([r.to_dict() for r in _with_cpus(monkeypatch, cpus, run_benchmark, cfg)]
                    for cpus in (1, 2))
        assert one == two
        assert {r["n_effective"] for r in two if r["cross_corr"] == 0.9} == {9}

    @pytest.mark.parametrize("cpus, cfg", [(1, NEG_Q), (2, SMALL)], ids=["one_cpu", "one_job"])
    def test_no_pool_for_one_cpu_or_one_job(self, monkeypatch, cpus, cfg):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert _with_cpus(monkeypatch, cpus, run_benchmark, cfg)

    def test_workers_bounded_by_cpus_and_jobs(self, monkeypatch):
        started = []
        pool = concurrent.futures.ProcessPoolExecutor

        def spy(workers, **kwargs):
            started.append(workers)
            return pool(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        _with_cpus(monkeypatch, 64, run_benchmark, NEG_Q)  # 4 cells of one block each
        assert started == [4]

    def test_results_in_job_order_when_a_later_job_finishes_first(self, monkeypatch):
        monkeypatch.setattr(bench_mod, "_cpu_count", lambda: 2)
        jobs = iter([(0.5, "first"), (0.0, "second")])
        (first, first_done), (second, second_done) = bench_mod._run_jobs(_finish_time, jobs)
        assert (first, second) == ("first", "second")
        assert second_done < first_done

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_at_most_workers_plus_one_jobs_taken_ahead(self, monkeypatch, cpus):
        monkeypatch.setattr(bench_mod, "_cpu_count", lambda: cpus)
        taken, got, ahead = [], [], []

        def jobs():
            for i in range(12):
                taken.append(i)
                ahead.append(len(taken) - len(got))  # taken but not yet yielded
                yield 0.0, i

        for value, _ in bench_mod._run_jobs(_finish_time, jobs()):
            got.append(value)
        assert got == list(range(12))
        assert max(ahead) == (1 if cpus == 1 else cpus + 1)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_job_raises_and_leaves_later_jobs_untaken(self, monkeypatch, cpus):
        monkeypatch.setattr(bench_mod, "_cpu_count", lambda: cpus)
        jobs = ((i, 2) for i in range(20))
        with pytest.raises(ValueError, match="job 2 failed"):
            list(bench_mod._run_jobs(_fail_on, jobs))
        assert next(jobs, None) is not None
