"""Tests of the benchmark itself: each output check rejects a wrong output,
the tracer wraps and restores the layer functions, and the printed metric
names are the ones BENCHMARK.json declares."""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (HERE, ROOT / "src", ROOT / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402
from tracer import Tracer, install_layer_hooks  # noqa: E402

from oracle_naive import naive_q_fluctuations  # noqa: E402


def returns_pair(seed=0, n=400, corr=-0.5):
    return inputs.correlated_returns(np.random.default_rng(seed), n, [corr])


# --- describe --------------------------------------------------------------

def test_describe_accepts_recomputation_and_rejects_perturbed_kurtosis():
    r = returns_pair()[0]
    stats = checks.describe_expected(r)
    checks.check_describe(stats, r, "x")
    bad = dict(stats, kurtosis=stats["kurtosis"] * (1 + 1e-6))
    with pytest.raises(CheckError, match="kurtosis"):
        checks.check_describe(bad, r, "x")


def test_describe_p_value_is_chi2_tail():
    from scipy.stats import chi2

    r = returns_pair(n=60)[0]
    stats = checks.describe_expected(r)
    assert stats["jarque_bera_p_value"] == pytest.approx(
        chi2.sf(stats["jarque_bera_statistic"], 2), rel=1e-12)


# --- correlation profiles --------------------------------------------------

def profile_rows(x, y, scales, qs=(2.0, 4.0)):
    rows = []
    for q in qs:
        for s in scales:
            f_x, f_y, f_xy, _ = naive_q_fluctuations(list(x), list(y), s, q, 0.5)
            rows.append({"scale": s, "q": q, "method": "q-DMCA",
                         "rho": f_xy / math.sqrt(f_x * f_y), "capped": False})
    return rows


def test_profile_rejects_missing_cell_and_bad_rho():
    x, y = returns_pair()
    rows = profile_rows(x, y, [10, 20])
    checks.check_profile(rows, "q-DMCA", (2.0, 4.0), [10, 20])
    with pytest.raises(CheckError, match="cells"):
        checks.check_profile(rows[:-1], "q-DMCA", (2.0, 4.0), [10, 20])
    bad = copy.deepcopy(rows)
    bad[0]["rho"] = 1.5
    with pytest.raises(CheckError, match="rho=1.5"):
        checks.check_profile(bad, "q-DMCA", (2.0, 4.0), [10, 20])


def test_perturbed_rho_fails_the_oracle_comparison():
    from fractal_xcorr import AlignedPair, DetrendConfig, TimeSeries, correlation_profile

    x, y = returns_pair()
    pair = AlignedPair(TimeSeries(x), TimeSeries(y))
    rho = correlation_profile(pair, DetrendConfig(scale_grid=(10,), q=2.0)).rho_at(10)
    f_x, f_y, f_xy, _ = naive_q_fluctuations(list(x), list(y), 10, 2.0, 0.5)
    want = f_xy / math.sqrt(f_x * f_y)
    checks.check_close(rho, want, checks.RHO_ORACLE_TOL, "rho")
    with pytest.raises(CheckError):
        checks.check_close(rho + 1e-9, want, checks.RHO_ORACLE_TOL, "rho")


def test_same_rho_rejects_a_differing_common_cell():
    x, y = returns_pair()
    a = checks.by_q_scale(profile_rows(x, y, [10, 20]))
    b = copy.deepcopy(checks.by_q_scale(profile_rows(x, y, [20, 40])))
    checks.check_same_rho(a, b, "grids")
    b[(2.0, 20)]["rho"] += 1e-15
    with pytest.raises(CheckError):
        checks.check_same_rho(a, b, "grids")


def test_independent_dcca_matches_the_program():
    from fractal_xcorr import AlignedPair, DetrendConfig, TimeSeries, correlation_profile

    x, y = returns_pair(n=500)
    pair = AlignedPair(TimeSeries(x), TimeSeries(y))
    for q in (2.0, 4.0):
        rho = correlation_profile(pair, DetrendConfig(scale_grid=(12,), q=q), "q-DCCA").rho_at(12)
        assert abs(rho - checks.dcca_rho(x, y, 12, q)) <= checks.RHO_ORACLE_TOL


def test_log_grid_matches_the_program():
    from fractal_xcorr import log_scales

    for lo, hi, num in ((20, 3162, 10), (20, 8902, 12), (10, 250, 10), (4, 9, 20)):
        assert tuple(checks.log_grid(lo, hi, num)) == log_scales(lo, hi, num)


# --- portfolio --------------------------------------------------------------

def portfolio_rows(fx, fy, fxy, scale=10, q=2.0):
    raw = (fy - fxy) / (fx - 2 * fxy + fy)
    return [{"scale": scale, "q": q, "w_g_raw": raw, "w_g": min(1.0, max(0.0, raw)),
             "beta": fxy / fx}]


def test_portfolio_rejects_wrong_weight_and_bad_clip():
    f = (2.0, 1.0, 0.3)
    rows = portfolio_rows(*f)
    checks.check_portfolio(rows, {2.0: f}, 10)
    with pytest.raises(CheckError, match="w_g_raw"):
        checks.check_portfolio(rows, {2.0: (2.0, 1.0, 0.31)}, 10)
    bad = copy.deepcopy(rows)
    bad[0]["w_g"] = 1.2
    with pytest.raises(CheckError, match="clip"):
        checks.check_portfolio(bad, {}, 10)


def test_weight_swap_rejects_weights_not_summing_to_one():
    rows = portfolio_rows(2.0, 1.0, 0.3)
    swapped = portfolio_rows(1.0, 2.0, 0.3)
    checks.check_weight_swap(rows, swapped)
    swapped[0]["w_g_raw"] += 1e-9
    with pytest.raises(CheckError, match="w\\(x,y\\)"):
        checks.check_weight_swap(rows, swapped)


# --- surrogate test ---------------------------------------------------------

def surrogate_rows(n=100, p_k=1, rho=-0.6):
    rows = []
    for q in (2.0, 4.0):
        for s in (10, 20):
            p = p_k / (n + 1)
            rows.append({"scale": s, "q": q, "statistic": rho, "p_value": round(p, 4),
                         "stars": checks.expected_stars(p),
                         "classification": checks.expected_label(q, rho, p, 0.05)})
    return rows


def test_surrogate_rows_accept_valid_and_reject_out_of_range_p():
    rows = surrogate_rows()
    checks.check_surrogate_rows(rows, (2.0, 4.0), (10, 20), 100, 0.05)
    bad = copy.deepcopy(rows)
    bad[0]["p_value"] = 0.004  # below 1/(n+1)
    with pytest.raises(CheckError, match="k/101"):
        checks.check_surrogate_rows(bad, (2.0, 4.0), (10, 20), 100, 0.05)


def test_surrogate_rows_reject_a_label_that_does_not_follow():
    bad = surrogate_rows()
    bad[1]["classification"] = "weak hedge"
    with pytest.raises(CheckError, match="label"):
        checks.check_surrogate_rows(bad, (2.0, 4.0), (10, 20), 100, 0.05)


def test_swap_symmetry_rejects_differing_p_values():
    rows = surrogate_rows()
    checks.check_swap_symmetry(rows, copy.deepcopy(rows))
    swapped = copy.deepcopy(rows)
    swapped[2]["p_value"] = round(2 / 101, 4)
    with pytest.raises(CheckError, match="p_value"):
        checks.check_swap_symmetry(rows, swapped)


def test_strong_negative_rejects_a_weak_label():
    cells = checks.by_q_scale(surrogate_rows())
    checks.check_strong_negative(cells, (2.0, 4.0), (10, 20), 100)
    weak = checks.by_q_scale(surrogate_rows(p_k=30))
    with pytest.raises(CheckError, match="expected strong"):
        checks.check_strong_negative(weak, (2.0, 4.0), (10, 20), 100)


# --- Monte Carlo benchmark --------------------------------------------------

def benchmark_results(reps=10):
    rng = np.random.default_rng(5)
    out = []
    for method, n, rho, q, param in sorted(checks.expected_cells(
            (500, 1000), (0.1, 0.9), (2.0,), (20, 50), (10, 100))):
        bias, sd = float(rng.normal(0, 0.1)), float(rng.uniform(0, 0.2))
        out.append({"method": method, "N": n, "cross_corr": rho, "q": q, "range_param": param,
                    "bias": bias, "sd": sd, "mse": bias**2 + sd**2, "n_effective": reps})
    return out


BENCH_GRID = dict(reps=10, lengths=(500, 1000), cross_corrs=(0.1, 0.9), qs=(2.0,),
                  s_max=(20, 50), n_min=(10, 100))


def test_benchmark_rejects_mse_not_bias2_plus_sd2():
    results = benchmark_results()
    checks.check_benchmark(results, **BENCH_GRID)
    results[3]["mse"] += 1e-9
    with pytest.raises(CheckError, match="bias\\^2"):
        checks.check_benchmark(results, **BENCH_GRID)


def test_benchmark_rejects_short_cells_and_missing_cells():
    results = benchmark_results()
    results[0]["n_effective"] = 9
    with pytest.raises(CheckError, match="n_effective"):
        checks.check_benchmark(results, **BENCH_GRID)
    with pytest.raises(CheckError, match="cells"):
        checks.check_benchmark(benchmark_results()[1:], **BENCH_GRID)


def test_benchmark_table_rejects_a_wrong_rounded_cell():
    cells = checks.check_benchmark(benchmark_results(), **BENCH_GRID)
    table = []
    for n in (500, 1000):
        for param in (20, 50):
            row = {"N": str(n), "range_param": str(param)}
            for rho in (0.1, 0.9):
                c = cells[("DMCA", n, rho, 2.0, param)]
                row.update({f"{k}_rho{rho:g}": str(round(c[k], 4)) for k in ("bias", "sd", "mse")})
            table.append(row)
    checks.check_benchmark_table(table, cells, "DMCA", 2.0, (0.1, 0.9))
    table[1]["sd_rho0.9"] = str(float(table[1]["sd_rho0.9"]) + 1e-3)
    with pytest.raises(CheckError, match="sd"):
        checks.check_benchmark_table(table, cells, "DMCA", 2.0, (0.1, 0.9))


# --- inputs -----------------------------------------------------------------

def test_inputs_repeat_bytes_for_a_seed(tmp_path):
    a = inputs.surrogate_inputs(tmp_path / "a", 3, n_prices=101)
    b = inputs.surrogate_inputs(tmp_path / "b", 3, n_prices=101)
    c = inputs.surrogate_inputs(tmp_path / "c", 4, n_prices=101)
    assert a["x"].read_bytes() == b["x"].read_bytes()
    assert a["x"].read_bytes() != c["x"].read_bytes()
    assert inputs.read_returns(a["x"]).size == 100


# --- tracer -----------------------------------------------------------------

def test_tracer_wraps_every_importing_module_and_restores():
    import fractal_xcorr.benchmark as bench_mod
    import fractal_xcorr.fluctuation as fl
    import fractal_xcorr.surrogate as sur

    original = fl._dma_segment_stats
    tracer = Tracer()
    install_layer_hooks(tracer)
    try:
        assert tracer.missing == []
        for mod in (fl, bench_mod, sur):
            assert mod._dma_segment_stats is not original
            assert mod._dma_segment_stats.__wrapped__ is original
    finally:
        tracer.uninstall()
    for mod in (fl, bench_mod, sur):
        assert mod._dma_segment_stats is original


def test_tracer_reports_a_missing_hook_without_failing():
    tracer = Tracer()
    tracer.hook("fluctuation", "no_such_function", "x")
    tracer.hook("no_such_module", "f", "x")
    assert tracer.missing == ["fluctuation.no_such_function", "no_such_module.f"]


def test_traced_operation_counts_and_self_times(tmp_path):
    from fractal_xcorr.cli import main

    files = inputs.surrogate_inputs(tmp_path, 1, n_prices=201)
    op = [["analyze", str(files["x"]), str(files["y"]), "--column", "close",
           "--scales", "10,20,40", "--out-dir", str(tmp_path / "a")],
          ["portfolio", str(files["x"]), str(files["y"]), "--column", "close",
           "--scales", "10,20,40", "--out-dir", str(tmp_path / "p")]]
    bench = run.Bench(main)
    tracer = Tracer()
    install_layer_hooks(tracer)
    try:
        _, ok = bench.run_op(op, tracer=tracer)
    finally:
        tracer.uninstall()
    assert ok and bench.attempted == 2 and bench.failed == 0
    (rec,) = tracer.ops
    # 3 scales x 2 orders, for analyze and again for portfolio
    assert rec["counts"]["fluctuation.dma_segment_stats_calls"] == 12
    assert rec["counts"]["fluctuation.moving_average_calls"] == 24
    assert rec["counts"]["series.load_csv_rows"] == 4 * 201
    assert rec["distinct"]["segment_stats"] == 3
    assert all(v >= 0 for v in rec["self_s"].values())
    assert sum(rec["self_s"].values()) == pytest.approx(rec["wall_s"], rel=1e-9)


# --- metric names -----------------------------------------------------------

def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_the_printed_names():
    s = spec()
    assert {w["name"] for w in s["workloads"]} == set(run.WORKLOADS)
    e2e = run.end_to_end_metrics([1.0, 2.0, 3.0], [0.5], 100.0)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == run.PER_LAYER


def test_layer_metrics_print_every_per_layer_name():
    tracer = Tracer()
    tracer.begin_op()
    tracer.end_op()
    metrics = run._layer_metrics(tracer, {"cli.import_s": 1.0, "cli.import_scipy_stats_s": 0.5},
                                 [10], [1.1], [1.0])
    assert {m["name"] for m in spec()["per_layer"]} == set(metrics)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.1)


def test_benchmark_json_is_well_formed():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= s["run_seconds"] <= 60
    for m in s["end_to_end"]:
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
