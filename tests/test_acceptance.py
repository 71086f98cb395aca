"""End-to-end acceptance checks.

Each test prints exactly one pass/fail line (bypassing capture) with the
measured quantities, then asserts.  The heavy Monte Carlo inputs are shared
module-scoped fixtures.
"""

import json

import numpy as np
import pytest

from fractal_xcorr import (
    AlignedPair,
    BenchmarkConfig,
    DetrendConfig,
    TimeSeries,
    arfima_weights,
    estimate_hurst,
    log_scales,
    q_fluctuations,
    rho_q_dmca,
    run_benchmark,
    stability_sweep,
    surrogate_test,
)
from fractal_xcorr.cli import main
from fractal_xcorr.mc_arfima import McArfimaSpec, generate
from fractal_xcorr.portfolio import clip_weight, hedge_ratio, optimal_weight
from fractal_xcorr.fluctuation import FluctuationSet
from scipy.special import gamma as gamma_fn

from conftest import gaussian_pair
from oracle_naive import naive_q_fluctuations


def _line(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def benchmark_reports():
    cfg = BenchmarkConfig(
        lengths=(500, 5000), cross_corrs=(0.1, 0.9), qs=(2.0, 4.0),
        replications=200, dcca_n_min=(10,), dmca_s_max=(20,), master_seed=0,
    )
    return {(r.method, r.length, r.cross_corr, r.q): r for r in run_benchmark(cfg)}


@pytest.fixture(scope="module")
def stability_records():
    cfg = BenchmarkConfig(
        lengths=(5000,), cross_corrs=(0.9,), qs=(2.0,), replications=50,
        dcca_n_min=(10,), dmca_s_max=(20,), master_seed=0,
    )
    return stability_sweep((5000, 20_000, 50_000), cfg)


def test_criterion_01_dmca_table_cell(benchmark_reports, capsys):
    r = benchmark_reports[("DMCA", 5000, 0.9, 2.0)]
    ok = abs(r.bias - 0.0211) <= 0.015 and 0.012 <= r.sd <= 0.048
    _line(capsys, 1, "moving-average q=2 cell", ok,
          f"bias={r.bias:.4f} target 0.0211+-0.015, sd={r.sd:.4f} in [0.012, 0.048]")
    assert ok


def test_criterion_02_dcca_table_cell(benchmark_reports, capsys):
    weak = benchmark_reports[("DCCA", 500, 0.1, 2.0)]
    strong = benchmark_reports[("DCCA", 500, 0.9, 2.0)]
    ok = 0.25 <= weak.bias <= 0.70 and weak.bias > strong.bias
    _line(capsys, 2, "box-splitting q=2 cell", ok,
          f"bias(rho=0.1)={weak.bias:.4f} in [0.25, 0.70], "
          f"bias(rho=0.9)={strong.bias:.4f}")
    assert ok


def test_criterion_03_q4_ordering(benchmark_reports, capsys):
    details = []
    ok = True
    for method in ("DMCA", "DCCA"):
        weak = benchmark_reports[(method, 5000, 0.1, 4.0)]
        strong = benchmark_reports[(method, 5000, 0.9, 4.0)]
        ok &= weak.bias < strong.bias
        details.append(f"{method}: {weak.bias:.4f} vs {strong.bias:.4f}")
    _line(capsys, 3, "q=4 bias ordering", ok,
          "need bias(rho=0.1) < bias(rho=0.9); " + "; ".join(details))
    assert ok


def test_criterion_04_stability(stability_records, capsys):
    details = []
    ok = True
    for method in ("DMCA", "DCCA"):
        means = [r["mean_h_rho"] for r in stability_records
                 if r["method"] == method and r["q"] == 2.0]
        in_band = all(-0.22 <= m <= -0.10 for m in means)
        tight = max(means) - min(means) < 0.05
        ok &= in_band and tight
        details.append(f"{method}: " + "/".join(f"{m:.3f}" for m in means)
                       + f" spread={max(means) - min(means):.3f}")
    _line(capsys, 4, "large-N stability", ok, "; ".join(details))
    assert ok


def test_criterion_05_property_suite(capsys):
    scales = (5, 10, 25)
    worst_identity = worst_anti = worst_scale = worst_bound = 0.0
    for seed in range(100):
        n = 200 if seed % 2 else 1000
        pair = gaussian_pair(seed, n, corr=0.4)
        neg = AlignedPair(pair.x, TimeSeries(-pair.y.values))
        scaled = AlignedPair(TimeSeries(13.0 * pair.x.values),
                             TimeSeries(0.07 * pair.y.values))
        same = AlignedPair(pair.x, pair.x)
        for q in (2.0, 4.0):
            cfg = DetrendConfig(scale_grid=scales, q=q)
            base = [rho_q_dmca(fs)[0] for fs in q_fluctuations(pair, cfg)]
            for fs in q_fluctuations(same, cfg):
                worst_identity = max(worst_identity, abs(rho_q_dmca(fs)[0] - 1.0))
            for rho_n, rho_b in zip(
                    (rho_q_dmca(fs)[0] for fs in q_fluctuations(neg, cfg)), base):
                worst_anti = max(worst_anti, abs(rho_n + rho_b))
            for rho_s, rho_b in zip(
                    (rho_q_dmca(fs)[0] for fs in q_fluctuations(scaled, cfg)), base):
                worst_scale = max(worst_scale, abs(rho_s - rho_b))
            for fs in q_fluctuations(pair, cfg):
                raw = fs.f_xy_q / np.sqrt(fs.f_x_q * fs.f_y_q)
                worst_bound = max(worst_bound, abs(raw) - 1.0)
    worst_oracle = 0.0
    for seed in range(5):
        pair = gaussian_pair(200 + seed, 500)
        x, y = list(pair.x.values), list(pair.y.values)
        cfg = DetrendConfig(scale_grid=(8, 20, 50), q=2.0)
        for fs in q_fluctuations(pair, cfg):
            f_x, f_y, f_xy, _ = naive_q_fluctuations(x, y, fs.scale, 2.0, 0.5)
            worst_oracle = max(worst_oracle, abs(fs.f_x_q - f_x),
                               abs(fs.f_y_q - f_y), abs(fs.f_xy_q - f_xy))
    ok = (worst_identity <= 1e-12 and worst_anti <= 1e-12
          and worst_scale <= 1e-10 and worst_bound <= 1e-9
          and worst_oracle <= 1e-10)
    _line(capsys, 5, "coefficient properties", ok,
          f"identity {worst_identity:.1e}, antisym {worst_anti:.1e}, "
          f"scale-inv {worst_scale:.1e}, bound excess {worst_bound:.1e}, "
          f"oracle {worst_oracle:.1e}")
    assert ok


def test_criterion_06_arfima_weights(capsys):
    worst = 0.0
    for d in (0.1, 0.2, 0.4):
        w = arfima_weights(d, 50)
        n = np.arange(51)
        ref = gamma_fn(n + d) / (gamma_fn(n + 1.0) * gamma_fn(d))
        worst = max(worst, float(np.max(np.abs(w - ref))))
    exact = arfima_weights(0.4, 1)[1] == 0.4
    ok = worst <= 1e-10 and exact
    _line(capsys, 6, "fractional weights", ok,
          f"max |recursion - Gamma formula| = {worst:.1e}, a_1(0.4) exact: {exact}")
    assert ok


def test_criterion_07_hurst_recovery(capsys):
    cfg = DetrendConfig(scale_grid=log_scales(50, 1250), q=2.0)
    long_mem = []
    noise = []
    for seed in range(100):
        sample = generate(McArfimaSpec(length=5000, seed=seed))
        long_mem.append(estimate_hurst(sample.x, cfg).exponent)
        wn = TimeSeries(np.random.default_rng(seed).standard_normal(5000))
        noise.append(estimate_hurst(wn, cfg).exponent)
    h_arfima = float(np.mean(long_mem))
    h_noise = float(np.mean(noise))
    ok = 0.85 <= h_arfima <= 0.95 and 0.45 <= h_noise <= 0.55
    _line(capsys, 7, "Hurst recovery", ok,
          f"long-memory mean {h_arfima:.4f} in [0.85, 0.95], "
          f"white-noise mean {h_noise:.4f} in [0.45, 0.55]")
    assert ok


@pytest.mark.slow
def test_criterion_08_surrogate_calibration(capsys):
    cfg = DetrendConfig(scale_grid=(20,), q=2.0)
    rejections = 0
    multisets_ok = True
    for trial in range(200):
        pair = gaussian_pair(trial, 2000)
        rep = surrogate_test(pair, cfg, n_surrogates=200)[0]
        rejections += rep.p_value <= 0.05
        if trial < 5:
            from fractal_xcorr import iaaft_surrogate
            s = iaaft_surrogate(pair.x, seed=trial)
            multisets_ok &= bool(np.array_equal(np.sort(s.values),
                                                np.sort(pair.x.values)))
    rate = rejections / 200.0
    ok = 0.02 <= rate <= 0.08 and multisets_ok
    _line(capsys, 8, "surrogate calibration", ok,
          f"rejection rate {rate:.3f} in [0.02, 0.08], multiset preserved: {multisets_ok}")
    assert ok


def test_criterion_09_portfolio_identities(capsys):
    def fs(f_g, f_c, f_gc):
        return FluctuationSet(scale=20, q=2.0, f_x_q=f_g, f_y_q=f_c,
                              f_xy_q=f_gc, n_segments=10)

    raw, w = optimal_weight(fs(1.0, 1.0, 0.0))
    symmetric = raw == 0.5 and w == 0.5
    low_raw, low_w = optimal_weight(fs(4.0, 1.0, 1.5))
    high_raw, high_w = optimal_weight(fs(1.0, 4.0, 1.5))
    branches = low_raw < 0 and low_w == 0.0 and high_raw > 1 and high_w == 1.0
    branches &= clip_weight(low_w) == low_w and clip_weight(high_w) == high_w
    rng = np.random.default_rng(0)
    signs = all(
        np.sign(hedge_ratio(fs(float(rng.uniform(0.1, 5.0)), 1.0, f_gc)))
        == np.sign(f_gc)
        for f_gc in rng.uniform(-3.0, 3.0, size=100)
    )
    ok = symmetric and branches and signs
    _line(capsys, 9, "portfolio identities", ok,
          f"symmetric=0.5: {symmetric}, clipping branches: {branches}, "
          f"beta sign on 100 fixtures: {signs}")
    assert ok


def test_criterion_10_pipeline_exercise(tmp_path, capsys):
    sim = tmp_path / "sim"
    codes = [main(["simulate", "--length", "1200", "--truncation", "2000",
                   "--seed", "5", "--out-dir", str(sim)])]
    x_csv = str(sim / "simulated_x.csv")
    y_csv = str(sim / "simulated_y.csv")
    common = ["--column", "0", "--returns", "raw", "--scales", "20,50"]
    codes.append(main(["describe", x_csv, "--column", "0", "--returns", "raw",
                       "--out-dir", str(tmp_path / "d")]))
    codes.append(main(["test", x_csv, y_csv, *common, "--surrogates", "100",
                       "--seed", "0", "--out-dir", str(tmp_path / "t")]))
    codes.append(main(["portfolio", x_csv, y_csv, *common,
                       "--out-dir", str(tmp_path / "p")]))
    outputs_exist = all((tmp_path / sub / name).exists() for sub, name in (
        ("d", "describe.json"), ("t", "surrogate_test.csv"), ("p", "portfolio.csv")))
    surro = json.loads((tmp_path / "t" / "surrogate_test.json").read_text())
    sane = all(0.0 < r["p_value"] <= 1.0 for r in surro["results"])
    ok = codes == [0, 0, 0, 0] and outputs_exist and sane
    _line(capsys, 10, "proprietary-data pipelines on synthetic input", ok,
          f"exit codes {codes}, artifacts present: {outputs_exist}, p-values sane: {sane}")
    assert ok
