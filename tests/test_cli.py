import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fractal_xcorr
from fractal_xcorr import (DetrendConfig, McArfimaSpec, TimeSeries, correlation_profile,
                           log_returns, log_scales)
from fractal_xcorr import benchmark, surrogate
from fractal_xcorr.errors import DegenerateFluctuationError, InputError
from fractal_xcorr.cli import build_parser, main
from fractal_xcorr.series import AlignedPair, load_csv
from conftest import mark_degenerate


def write_prices(path, values):
    path.write_text("close\n" + "".join(f"{v}\n" for v in values))


@pytest.fixture
def price_files(tmp_path):
    rng = np.random.default_rng(12)
    x = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(400)))
    y = 50.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(400)))
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    write_prices(xp, x)
    write_prices(yp, y)
    return xp, yp


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        argv = ["simulate", "--length", "300", "--truncation", "500",
                "--seed", "11", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        first_x = (tmp_path / "simulated_x.csv").read_bytes()
        first_y = (tmp_path / "simulated_y.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "simulated_x.csv").read_bytes() == first_x
        assert (tmp_path / "simulated_y.csv").read_bytes() == first_y

    def test_invalid_d_exits_2(self, tmp_path):
        rc = main(["simulate", "--d1", "0.6", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "simulated_x.csv").exists()

    @pytest.mark.parametrize("content,message", [
        ('{"bogus": 1}', "unknown spec key(s): bogus"),
        ("{not json", "invalid JSON"),
        ("[0.4, 0.2]", "spec must be a JSON object"),
        (None, "no such file"),
    ])
    def test_bad_spec_json_exit_2(self, tmp_path, capsys, content, message):
        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_text(content)
        rc = main(["simulate", "--spec-json", str(spec), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "simulated_x.csv").exists()

    @pytest.mark.parametrize("content,field", [
        ('{"length": "abc"}', "length"),
        ('{"length": 300.0}', "length"),
        ('{"seed": true}', "seed"),
        ('{"truncation": null}', "truncation"),
        ('{"d1": "0.3"}', "d1"),
        ('{"cross_corr": [0.5]}', "cross_corr"),
        ('{"alpha": false}', "alpha"),
        ('{"innovation_sd": "abcd"}', "innovation_sd"),
        ('{"alpha": NaN}', "alpha"),
        ('{"delta": -Infinity}', "delta"),
        ('{"innovation_sd": [1, 1, Infinity, 1]}', "innovation_sd"),
    ])
    def test_spec_json_wrong_type_exit_2(self, tmp_path, capsys, content, field):
        spec = tmp_path / "spec.json"
        spec.write_text(content)
        rc = main(["simulate", "--spec-json", str(spec), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {field}")
        assert err.count("\n") == 1
        assert not (tmp_path / "simulated_x.csv").exists()

    @pytest.mark.parametrize("d", ["d1", "d2", "d3", "d4"])
    def test_spec_json_zero_d_exit_2(self, tmp_path, capsys, d):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({d: 0.0, "length": 300, "truncation": 500}))
        rc = main(["simulate", "--spec-json", str(spec), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {d}=0.0 outside (-0.5, 0) u (0, 0.5)\n"
        assert not (tmp_path / "simulated_x.csv").exists()

    def test_unset_process_flags_keep_the_spec_defaults(self, tmp_path):
        assert main(["simulate", "--length", "300", "--truncation", "500", "--d2", "0.1",
                     "--seed", "11", "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        want = McArfimaSpec(length=300, truncation=500, d2=0.1, seed=11).to_dict()
        assert manifest["config"] == json.loads(json.dumps(want))

    @pytest.mark.parametrize("flags, named", [
        (["--length", "1000", "--d1", "0.1", "--seed", "9"], "--d1, --length, --seed"),
        (["--cross-corr", "0.5"], "--cross-corr"),
        (["--seed", "3"], "--seed"),
    ])
    def test_spec_json_with_process_flags_exit_2(self, tmp_path, capsys, flags, named):
        spec = tmp_path / "spec.json"
        spec.write_text('{"length": 300, "truncation": 500, "seed": 3}')
        out = tmp_path / "out"
        rc = main(["simulate", "--spec-json", str(spec), *flags, "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --spec-json excludes {named}\n"
        assert not out.exists()

    def test_seed_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACTAL_XCORR_SEED", "42")
        out = tmp_path / "env"
        assert main(["simulate", "--length", "300", "--truncation", "500",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["config"]["seed"] == 42


class TestAnalyze:
    def test_identical_files_give_unit_rho(self, price_files, tmp_path):
        xp, _ = price_files
        out = tmp_path / "out"
        rc = main(["analyze", str(xp), str(xp), "--column", "close",
                   "--scales", "10,20,40", "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "correlation_profile.json").read_text())
        assert all(r["rho"] == pytest.approx(1.0, abs=1e-9)
                   for r in payload["results"])

    def test_matches_library_call(self, price_files, tmp_path):
        xp, yp = price_files
        out = tmp_path / "out"
        rc = main(["analyze", str(xp), str(yp), "--column", "close",
                   "--scales", "10,20,40", "--q", "2", "--out-dir", str(out)])
        assert rc == 0
        pair = AlignedPair(log_returns(load_csv(xp, "close")),
                           log_returns(load_csv(yp, "close")))
        cfg = DetrendConfig(scale_grid=(10, 20, 40), q=2.0)
        expected = correlation_profile(pair, cfg)
        payload = json.loads((out / "correlation_profile.json").read_text())
        got = [r["rho"] for r in payload["results"]]
        assert got == [rho for _, rho, _ in expected.points]

    def test_constant_prices_exit_3(self, tmp_path):
        xp = tmp_path / "flat.csv"
        write_prices(xp, np.full(100, 10.0))
        rc = main(["analyze", str(xp), str(xp), "--column", "close",
                   "--scales", "5,10", "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_explicit_out_of_range_scales_exit_2(self, price_files, tmp_path):
        xp, yp = price_files
        rc = main(["analyze", str(xp), str(yp), "--column", "close",
                   "--scales", "10,500", "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("scales", [
        "log:20:3162:10", ",".join(str(s) for s in log_scales(20, 3162, 10))])
    def test_default_grid_typed_out_is_explicit(self, price_files, tmp_path, capsys, scales):
        xp, yp = price_files
        rc = main(["analyze", str(xp), str(yp), "--column", "close",
                   "--scales", scales, "--out-dir", str(tmp_path / "a")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: scales above N/4") and err.count("\n") == 1

    def test_default_grid_clipped_not_fatal(self, price_files, tmp_path):
        # default grid tops out at 3162, far above N/4 for N=399
        xp, yp = price_files
        out = tmp_path / "clip"
        rc = main(["analyze", str(xp), str(yp), "--column", "close",
                   "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "correlation_profile.json").read_text())
        assert max(r["scale"] for r in payload["results"]) <= 399 // 4

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["analyze", str(tmp_path / "no.csv"), str(tmp_path / "no.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_result_header_references_manifest(self, price_files, tmp_path):
        xp, yp = price_files
        out = tmp_path / "out"
        main(["analyze", str(xp), str(yp), "--column", "close",
              "--scales", "10,20", "--out-dir", str(out)])
        manifest_text = (out / "analyze_manifest.json").read_text()
        digest = hashlib.sha256(manifest_text.rstrip("\n").encode()).hexdigest()[:16]
        first = (out / "correlation_profile.csv").read_text().splitlines()[0]
        assert first.startswith("# fractal-xcorr v")
        assert digest in first

    @pytest.mark.parametrize("theta", [["--theta", "0"], ["--thet", "1"], ["--theta=0.5"]])
    def test_theta_with_box_method_exit_2(self, price_files, tmp_path, capsys, theta):
        # q-DCCA detrends boxes by least squares: it has no moving average to place
        xp, yp = price_files
        out = tmp_path / "out"
        rc = main(["analyze", str(xp), str(yp), "--column", "close", "--method", "q-DCCA",
                   *theta, "--scales", "10,20,40", "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: --theta sets the moving average of q-DMCA; "
                                           "q-DCCA has none\n")
        assert not out.exists()


class TestBenchmarkCommand:
    def test_small_run_outputs_tables(self, tmp_path):
        out = tmp_path / "bench"
        rc = main(["benchmark", "--reps", "10", "--lengths", "500",
                   "--cross-corrs", "0.5,0.9", "--n-min", "10", "--s-max", "20",
                   "--q", "2", "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "benchmark.json").read_text())
        assert {r["method"] for r in payload["results"]} == {"DMCA", "DCCA"}
        table = (out / "benchmark_dmca_q2.csv").read_text().splitlines()
        assert table[1].startswith("N,range_param,bias_rho0.5")
        assert table[2].startswith("500,20,")

    def test_orders_reported_in_the_order_given(self, tmp_path, capsys):
        argv = ["benchmark", "--reps", "10", "--lengths", "500", "--cross-corrs", "0.5,0.9",
                "--n-min", "10", "--s-max", "20", "--seed", "0"]
        runs = {}
        for qs in (("2", "4"), ("4", "2")):
            out = tmp_path / "_".join(qs)
            assert main([*argv, "--q", qs[0], "--q", qs[1], "--out-dir", str(out)]) == 0
            records = json.loads((out / "benchmark.json").read_text())["results"]
            runs[qs] = out, capsys.readouterr().out.splitlines(), records
        (up, up_lines, up_records), (down, down_lines, down_records) = runs.values()
        # each (cell, method) block lists q=4 before q=2, as given
        want = [(m, q) for _ in (0.5, 0.9) for m in ("DCCA", "DMCA") for q in (4.0, 2.0)]
        assert [(r["method"], r["q"]) for r in down_records] == want
        assert [tuple(line.split()[:2]) for line in down_lines] == [
            (m, f"q={q:g}") for m, q in want]
        assert sorted(down_lines) == sorted(up_lines)
        assert sorted(map(repr, down_records)) == sorted(map(repr, up_records))
        for name in ("benchmark_dcca_q2.csv", "benchmark_dcca_q4.csv",
                     "benchmark_dmca_q2.csv", "benchmark_dmca_q4.csv"):
            assert ((down / name).read_text().splitlines()[1:]
                    == (up / name).read_text().splitlines()[1:])


    @pytest.mark.parametrize("flag", ["--cross-corrs", "--lengths", "--n-min", "--s-max"])
    def test_non_numeric_list_exit_2(self, tmp_path, capsys, flag):
        rc = main(["benchmark", "--reps", "10", flag, "abc", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {flag}: ")
        assert not (tmp_path / "benchmark_manifest.json").exists()


    @pytest.mark.parametrize("lengths", ["0", "500,-5"])
    def test_non_positive_length_exit_2(self, tmp_path, capsys, lengths):
        rc = main(["benchmark", "--reps", "10", "--lengths", lengths, "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: lengths") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["--theta", "2"], "theta=2.0 outside [0, 1]"),
        (["--cross-corrs", "0.5,1.5"], "cross_corr=1.5 outside [-1, 1]"),
        (["--cross-corrs", "nan"], "cross_corr=nan outside [-1, 1]"),
        (["--s-max", "5"], "empty scale range [10, 5]"),
        (["--s-max", "1000"], "scale 298 leaves no full segment for N=500"),
        (["--lengths", "5000,15"], "scale 10 leaves no full segment for N=15"),
        (["--n-min", "0"], "n_min [0] must be at least 4"),
        (["--s-max", "20,3"], "s_max [20, 3] must be at least 4"),
        (["--cross-corrs", "0.5", "--n-min", "4", "--s-max", "10"],
         "DMCA fit range 10 at N=500 has 1 scale(s); at least 3 are needed"),
        (["--cross-corrs", "0.5", "--n-min", "4", "--s-max", "11"],
         "DMCA fit range 11 at N=500 has 2 scale(s); at least 3 are needed"),
        # only n_min below N/5 are kept, so N=500 is left no DCCA fit range
        (["--cross-corrs", "0.5", "--n-min", "100"], "DCCA has no fit range at N=500"),
        (["--lengths", "5000,500", "--n-min", "200"], "DCCA has no fit range at N=500"),
    ])
    def test_unrunnable_grid_rejected_before_manifest(self, tmp_path, capsys, monkeypatch,
                                                      argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("replication generated")

        monkeypatch.setattr(benchmark, "generate", refuse)
        rc = main(["benchmark", "--reps", "10", "--lengths", "500", *argv,
                   "--out-dir", str(tmp_path)])
        err = capsys.readouterr()
        assert rc == 2
        assert err.err == f"error: {message}\n"
        assert err.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error, rc, prefix", [
        (DegenerateFluctuationError, 3, "numerical degeneracy: "),
        (InputError, 2, "error: "),
    ])
    def test_worker_error_reaches_exit_code(self, tmp_path, capsys, monkeypatch, error, rc, prefix):
        def fail(px, py, cfg, grids):
            raise error(f"raised in pid {os.getpid()}")

        monkeypatch.setattr(benchmark, "_estimate_all", fail)
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: 2)
        got = main(["benchmark", "--reps", "10", "--lengths", "500", "--cross-corrs", "0.1,0.9",
                    "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert got == rc
        assert err.startswith(prefix + "raised in pid ") and err.count("\n") == 1
        assert f"pid {os.getpid()}\n" not in err  # raised in a worker process

    def test_progress_lines_once_in_grid_order_through_a_pipe(self, tmp_path, capsys, monkeypatch):
        argv = ["benchmark", "--reps", "10", "--lengths", "500,1000", "--cross-corrs", "0.1,0.9",
                "--n-min", "10,50", "--s-max", "20,100", "--seed", "3"]
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: 1)
        assert main([*argv, "--out-dir", str(tmp_path / "serial")]) == 0
        want = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "fractal_xcorr.cli", *argv,
                               "--out-dir", str(tmp_path / "piped")],
                              stdout=subprocess.PIPE, env=_src_env(), check=True, text=True)
        assert proc.stdout == want
        assert len(set(want.splitlines())) == 2 * 2 * 2 * 2 * 2  # cell x method x q x range


@pytest.mark.parametrize("q", ["0", "nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["analyze", "test", "portfolio", "benchmark"])
def test_zero_or_non_finite_order_exit_2(price_files, tmp_path, capsys, command, q):
    xp, yp = price_files
    argv = (["--reps", "10", "--lengths", "500", "--cross-corrs", "0.5", "--n-min", "10",
             "--s-max", "20"] if command == "benchmark"
            else [str(xp), str(yp), "--column", "close", "--scales", "10,20"])
    out = tmp_path / "out"
    rc = main([command, *argv, "--q=2", f"--q={q}", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: fluctuation orders: q={float(q)} must be finite and nonzero\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "test", "portfolio", "benchmark"])
def test_repeated_order_exit_2(price_files, tmp_path, capsys, command):
    xp, yp = price_files
    argv = (["--reps", "10", "--lengths", "500", "--cross-corrs", "0.5", "--n-min", "10",
             "--s-max", "20"] if command == "benchmark"
            else [str(xp), str(yp), "--column", "close", "--scales", "10,20"])
    out = tmp_path / "out"
    rc = main([command, *argv, "--q=2", "--q=4", "--q=2.0", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: fluctuation orders: q=2.0 given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--scales", "4,x"], "bad scale list '4,x'"),
    (["--scales", "log:4:15"], "bad scale spec 'log:4:15'; expected log:LO:HI:NUM"),
    (["--scales", "log:20:10:5"], "empty scale range [20, 10]"),
    (["--scales", "log:0:15:3"],
     "scale range [0, 15] with 3 points: needs 1 <= lo <= hi <= 2**53 and num >= 1"),
    (["--scales", "log:20:99999999999999999999999:5"],
     "scale range [20, 99999999999999999999999] with 5 points: "
     "needs 1 <= lo <= hi <= 2**53 and num >= 1"),
    (["--scales", "log:20:9223372036854775807:5"],
     "scale range [20, 9223372036854775807] with 5 points: "
     "needs 1 <= lo <= hi <= 2**53 and num >= 1"),
    (["--scales", "log:20:18446744073709551615:5"],
     "scale range [20, 18446744073709551615] with 5 points: "
     "needs 1 <= lo <= hi <= 2**53 and num >= 1"),
])
@pytest.mark.parametrize("command", ["analyze", "test", "portfolio"])
def test_bad_scale_spec_exit_2(price_files, tmp_path, capsys, command, argv, message):
    xp, yp = price_files
    out = tmp_path / "out"
    rc = main([command, str(xp), str(yp), "--column", "close", *argv, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, scale_range", [
    ("--s-max", "[10, 99999999999999999999999]"),  # DMCA fits 10 .. s_max
    ("--lengths", "[10, 19999999999999999999999]"),  # DCCA fits n_min .. N/5
])
def test_benchmark_scale_range_beyond_exact_integers_exit_2(tmp_path, capsys, flag,
                                                            scale_range):
    out = tmp_path / "out"
    rc = main(["benchmark", "--reps", "10", flag, "99999999999999999999999",
               "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: scale range {scale_range} with 20 points: "
        "needs 1 <= lo <= hi <= 2**53 and num >= 1\n")
    assert not out.exists()


def test_default_grid_above_a_short_series_exit_2(tmp_path, capsys):
    # the default grid starts at 20, above N/4 for fewer than 80 returns
    xp = tmp_path / "x.csv"
    returns = 0.01 * np.random.default_rng(3).standard_normal(64)
    write_prices(xp, 100.0 * np.exp(np.cumsum(returns)))
    out = tmp_path / "out"
    rc = main(["analyze", str(xp), str(xp), "--column", "close", "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: no admissible scale below N/4 = 15 for N=63\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["test", "--q", "nan", "--surrogates", "100"],
    ["analyze", "--q=-inf"],
    ["analyze", "--q=nan"],
    ["portfolio", "--q=inf"],
    ["analyze", "--theta", "nan"],
])
def test_non_finite_order_or_theta_exit_2(price_files, tmp_path, capsys, argv):
    xp, yp = price_files
    rc = main([argv[0], str(xp), str(yp), "--column", "close", "--scales", "10,20", *argv[1:],
               "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list((tmp_path / "o").glob("*.json"))


class TestSurrogateCommand:
    def test_end_to_end(self, price_files, tmp_path):
        xp, yp = price_files
        out = tmp_path / "test"
        rc = main(["test", str(xp), str(yp), "--column", "close",
                   "--scales", "20", "--surrogates", "100", "--seed", "0",
                   "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "surrogate_test.json").read_text())
        assert {r["q"] for r in payload["results"]} == {2.0, 4.0}
        for r in payload["results"]:
            assert 0.0 < r["p_value"] <= 1.0
            assert ("hedge" in r["classification"]) or ("safe haven" in r["classification"])
        manifest = json.loads((out / "test_manifest.json").read_text())
        assert manifest["config"]["n_failed"] == 0

    def test_one_ensemble_per_series_for_every_q(self, price_files, tmp_path, monkeypatch):
        # the initial rows of each ensemble are drawn once, in this process,
        # block by block (399 returns x 100 surrogates: two blocks of 50, x's
        # rows, then y's); the IAAFT iteration then runs once per row (seen
        # here on one CPU)
        draws, iterated = [], []
        permutations, iaaft_rows = surrogate._permutations, surrogate._iaaft_rows

        def counting_draws(x, n_rows, rng):
            draws.append(n_rows)
            return permutations(x, n_rows, rng)

        def counting_rows(x, cand):
            iterated.append(len(cand))
            return iaaft_rows(x, cand)

        monkeypatch.setattr(surrogate, "_permutations", counting_draws)
        monkeypatch.setattr(surrogate, "_iaaft_rows", counting_rows)
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: 1)
        xp, yp = price_files
        out = tmp_path / "test"
        rc = main(["test", str(xp), str(yp), "--column", "close", "--scales", "10,20",
                   "--q", "2", "--q", "4", "--surrogates", "100", "--out-dir", str(out)])
        assert rc == 0
        assert draws == [50, 50, 50, 50]
        assert sum(iterated) == 200
        rows = (out / "surrogate_test.csv").read_text().splitlines()[2:]
        assert [r.split(",")[:2] for r in rows] == [
            ["10", "2.0"], ["20", "2.0"], ["10", "4.0"], ["20", "4.0"]]


    @pytest.mark.parametrize("error, rc, prefix", [
        (DegenerateFluctuationError, 3, "numerical degeneracy: "),
        (InputError, 2, "error: "),
    ])
    def test_worker_error_reaches_exit_code(self, price_files, tmp_path, capsys, monkeypatch,
                                            error, rc, prefix):
        def fail(x, cand):
            raise error(f"raised in pid {os.getpid()}")

        monkeypatch.setattr(surrogate, "_iaaft_rows", fail)
        monkeypatch.setattr(benchmark, "_cpu_count", lambda: 2)
        xp, yp = price_files  # 399 returns x 100 surrogates: two blocks
        got = main(["test", str(xp), str(yp), "--column", "close", "--scales", "10,20",
                    "--surrogates", "100", "--out-dir", str(tmp_path / "t")])
        err = capsys.readouterr().err
        assert got == rc
        assert err.startswith(prefix + "raised in pid ") and err.count("\n") == 1
        assert f"pid {os.getpid()}\n" not in err  # raised in a worker process

    def test_degenerate_surrogates_noted_on_stderr(self, price_files, tmp_path, capsys,
                                                   monkeypatch):
        xp, yp = price_files
        argv = ["test", str(xp), str(yp), "--column", "close", "--scales", "10,20",
                "--surrogates", "100", "--seed", "4"]
        assert main([*argv, "--out-dir", str(tmp_path / "clean")]) == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        # a surrogate pair whose x surrogate starts above the 15th percentile
        # of x is degenerate: 85 % of all draws, so some fail all 10 retries
        x = log_returns(load_csv(xp, "close")).values
        mark_degenerate(monkeypatch, x[(x > np.quantile(x, 0.15)) & (x != x[0])])
        assert main([*argv, "--out-dir", str(tmp_path / "t")]) == 0
        marked = capsys.readouterr()
        manifest = json.loads((tmp_path / "t" / "test_manifest.json").read_text())
        n_failed = manifest["config"]["n_failed"]
        assert 0 < n_failed < 100
        assert marked.err == f"note: {n_failed} of 100 surrogate pairs degenerate after retries\n"
        assert "note" not in marked.out and len(marked.out.splitlines()) == 4

    @pytest.mark.parametrize("alpha", ["7", "1", "0", "-0.05", "nan"])
    def test_alpha_outside_unit_interval_exit_2(self, price_files, tmp_path, capsys, alpha):
        xp, yp = price_files
        rc = main(["test", str(xp), str(yp), "--column", "close", "--scales", "20",
                   "--surrogates", "100", "--alpha", alpha, "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        assert "--alpha" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


class TestPortfolioCommand:
    def test_end_to_end(self, price_files, tmp_path):
        xp, yp = price_files
        out = tmp_path / "pf"
        rc = main(["portfolio", str(xp), str(yp), "--column", "close",
                   "--scales", "10,20,40", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "portfolio.csv").read_text().splitlines()
        assert lines[1] == "q,measure,s10,s20,s40"
        payload = json.loads((out / "portfolio.json").read_text())
        assert all(0.0 <= r["w_g"] <= 1.0 for r in payload["results"])

    def test_tables_follow_the_order_of_q(self, price_files, tmp_path, capsys):
        xp, yp = price_files
        runs = {}
        for orders in (("4", "2"), ("2", "4")):
            out = tmp_path / "".join(orders)
            assert main(["portfolio", str(xp), str(yp), "--column", "close", "--scales", "10,20",
                         *(f"--q={q}" for q in orders), "--out-dir", str(out)]) == 0
            lines = (out / "portfolio.csv").read_text().splitlines()[2:]
            results = json.loads((out / "portfolio.json").read_text())["results"]
            runs[orders] = lines, results, capsys.readouterr().out.splitlines()
        lines, results, stdout = runs[("4", "2")]
        assert [ln.split(",")[:2] for ln in lines] == [
            ["4.0", "w_g"], ["4.0", "beta"], ["2.0", "w_g"], ["2.0", "beta"]]
        assert [r["q"] for r in results] == [4.0, 4.0, 2.0, 2.0]
        assert [ln.split()[0] for ln in stdout] == ["q=4", "q=4", "q=2", "q=2"]
        # the same rows as a run in the default order, reordered
        other_lines, other_results, _ = runs[("2", "4")]
        assert lines == other_lines[2:] + other_lines[:2]
        assert results == other_results[2:] + other_results[:2]


class TestDescribeCommand:
    def test_end_to_end(self, price_files, tmp_path):
        xp, _ = price_files
        out = tmp_path / "d"
        rc = main(["describe", str(xp), "--column", "close", "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "describe.json").read_text())
        assert set(payload["results"]) >= {"mean", "std_dev", "skewness",
                                           "kurtosis", "jarque_bera_p_value"}

    def test_zero_variance_series_writes_strict_json(self, tmp_path, capsys):
        def no_constant(token):
            raise ValueError(f"not JSON: {token}")

        xp, out = tmp_path / "const.csv", tmp_path / "d"
        write_prices(xp, [100.0] * 50)
        rc = main(["describe", str(xp), "--column", "close", "--out-dir", str(out)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        saved = json.loads((out / "describe.json").read_text(), parse_constant=no_constant)
        assert saved["results"] == printed
        assert printed["std_dev"] == 0.0
        assert [k for k, v in printed.items() if v is None] == [
            "skewness", "kurtosis", "jarque_bera_statistic", "jarque_bera_p_value"]

    def test_non_utf8_csv_exit_2(self, tmp_path, capsys):
        latin = tmp_path / "latin.csv"
        latin.write_bytes("v\n1.0\n2.0\ncaf\u00e9\n".encode("latin-1"))
        rc = main(["describe", str(latin), "--column", "v", "--returns", "raw",
                   "--out-dir", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "latin.csv" in err and "UTF-8" in err
        assert err.count("\n") == 1


class TestFormat:
    """--format picks the result files; the manifest is always written and a
    failed run writes nothing, not even its out-dir."""

    FILES = {  # command: (CSV files, JSON files)
        "analyze": ({"correlation_profile.csv"}, {"correlation_profile.json"}),
        "test": ({"surrogate_test.csv"}, {"surrogate_test.json"}),
        "portfolio": ({"portfolio.csv"}, {"portfolio.json"}),
        "benchmark": ({"benchmark_dcca_q2.csv", "benchmark_dmca_q2.csv"}, {"benchmark.json"}),
    }

    @staticmethod
    def _argv(command, xp, yp):
        if command == "benchmark":
            return ["benchmark", "--reps", "10", "--lengths", "500", "--cross-corrs", "0.5",
                    "--n-min", "10", "--s-max", "20", "--q", "2", "--seed", "0"]
        extra = ["--surrogates", "100", "--seed", "0"] if command == "test" else []
        return [command, str(xp), str(yp), "--column", "close", "--scales", "10,20,40", *extra]

    @staticmethod
    def _results(out):
        """Result files of out by name, each with its manifest digest blanked."""
        manifest = next(out.glob("*_manifest.json"))
        digest = hashlib.sha256(manifest.read_text().rstrip("\n").encode()).hexdigest()[:16]
        files = {p.name: p.read_bytes() for p in out.iterdir() if p != manifest}
        assert all(digest.encode() in b for b in files.values())
        return manifest.name, {n: b.replace(digest.encode(), b"") for n, b in files.items()}

    @pytest.mark.parametrize("command", sorted(FILES))
    def test_each_format_writes_its_files(self, price_files, tmp_path, capsys, command):
        argv = self._argv(command, *price_files)
        written = {}
        for fmt in ("csv", "json", "both"):
            assert main([*argv, "--format", fmt, "--out-dir", str(tmp_path / fmt)]) == 0
            manifest, written[fmt] = self._results(tmp_path / fmt)
            assert manifest == f"{command}_manifest.json"
        csv_files, json_files = self.FILES[command]
        assert set(written["csv"]) == csv_files
        assert set(written["json"]) == json_files
        assert written["both"] == {**written["csv"], **written["json"]}

    @pytest.mark.parametrize("argv", [
        ["analyze", "{x}", "{y}", "--column", "close", "--scales", "10,900"],
        ["test", "{x}", "{y}", "--column", "close", "--q", "0"],
        ["portfolio", "{x}", "{missing}"],
        ["describe", "{missing}"],
        ["benchmark", "--theta", "2", "--reps", "10"],
        ["simulate", "--d1", "0.6"],
    ])
    def test_failed_run_leaves_no_out_dir(self, price_files, tmp_path, capsys, argv):
        xp, yp = price_files
        paths = {"x": xp, "y": yp, "missing": tmp_path / "missing.csv"}
        out = tmp_path / "out"
        assert main([a.format(**paths) for a in argv] + ["--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_bad_seed_variable_leaves_no_out_dir(self, price_files, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("FRACTAL_XCORR_SEED", "abc")
        xp, yp = price_files
        out = tmp_path / "out"
        assert main(["test", str(xp), str(yp), "--column", "close", "--scales", "10,20,40",
                     "--surrogates", "100", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: FRACTAL_XCORR_SEED='abc' is not an integer\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "x.csv", "y.csv", "--threads", "2"],
    ["test", "x.csv", "y.csv", "--threads", "2"],
    ["benchmark", "--threads", "2"],
    ["benchmark", "--scales", "1,2"],
    ["analyze", "x.csv", "y.csv", "--seed", "0"],  # neither draws a random number
    ["portfolio", "x.csv", "y.csv", "--seed", "0"],
    ["describe", "x.csv", "--format", "csv"],  # describe writes JSON only
])
def test_removed_flags_rejected(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


class TestRerun:
    def test_round_trip(self, price_files, tmp_path):
        xp, yp = price_files
        out = tmp_path / "first"
        main(["analyze", str(xp), str(yp), "--column", "close",
              "--scales", "10,20", "--out-dir", str(out)])
        before = (out / "correlation_profile.csv").read_bytes()
        (out / "correlation_profile.csv").unlink()
        rc = main(["rerun", str(out / "analyze_manifest.json")])
        assert rc == 0
        assert (out / "correlation_profile.csv").read_bytes() == before

    def test_manifest_without_argv(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"subcommand": "analyze"}))
        assert main(["rerun", str(bad)]) == 2

    def test_from_another_directory(self, price_files, tmp_path, monkeypatch):
        xp, yp = price_files
        work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
        work.mkdir()
        elsewhere.mkdir()
        (work / "x.csv").write_bytes(xp.read_bytes())
        (work / "y.csv").write_bytes(yp.read_bytes())
        monkeypatch.chdir(work)
        assert main(["analyze", "x.csv", "y.csv", "--column", "close",
                     "--scales", "10,20", "--out-dir", "out"]) == 0
        manifest = json.loads((work / "out" / "analyze_manifest.json").read_text())
        assert manifest["cwd"] == str(work)
        before = {p.name: p.read_bytes() for p in (work / "out").iterdir()}
        (work / "out" / "correlation_profile.csv").unlink()

        monkeypatch.chdir(elsewhere)
        assert main(["rerun", "../work/out/analyze_manifest.json"]) == 0
        assert {p.name: p.read_bytes() for p in (work / "out").iterdir()} == before
        assert list(elsewhere.iterdir()) == []

    @pytest.mark.parametrize("field, value, message", [
        ("argv", [1], "argv must be"),
        ("argv", ["rerun", "m.json"], "argv must be"),  # a manifest that replays itself
        ("cwd", 5, "cwd must be a string"),
    ], ids=["argv-not-strings", "argv-reruns", "cwd-not-string"])
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, monkeypatch, field, value,
                                       message):
        monkeypatch.chdir(tmp_path)
        manifest = {"argv": ["describe", "x.csv"], "tool_version": fractal_xcorr.__version__,
                    "cwd": str(tmp_path), "input_digests": {}, field: value}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        assert main(["rerun", "m.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: m.json: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--length", "300", "--truncation", "500"],
        ["test", "{x}", "{y}", "--column", "close", "--scales", "10,20", "--surrogates", "100"],
        ["benchmark", "--reps", "10", "--lengths", "500", "--cross-corrs", "0.5",
         "--n-min", "10", "--s-max", "20", "--q", "2"],
    ], ids=["simulate", "test", "benchmark"])
    def test_replays_the_recorded_seed(self, price_files, tmp_path, monkeypatch, argv):
        xp, yp = price_files
        out = tmp_path / "out"
        monkeypatch.setenv("FRACTAL_XCORR_SEED", "9")
        assert main([a.format(x=xp, y=yp) for a in argv] + ["--out-dir", str(out)]) == 0
        (manifest,) = out.glob("*_manifest.json")
        assert json.loads(manifest.read_text())["master_seed"] == 9
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            if p != manifest:
                p.unlink()
        monkeypatch.setenv("FRACTAL_XCORR_SEED", "4")
        assert main(["rerun", str(manifest)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("value", ["9", -1, 1.5, True, None])
    def test_bad_recorded_seed_exit_2(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["simulate", "--length", "300", "--truncation", "500",
                     "--out-dir", str(out)]) == 0
        manifest = out / "simulate_manifest.json"
        payload = json.loads(manifest.read_text())
        payload["master_seed"] = value
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["rerun", str(manifest)]) == 2
        assert capsys.readouterr().err == (f"error: {manifest}: master_seed must be an "
                                           "integer >= 0\n")

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        assert main(["rerun", str(tmp_path / "none.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    @staticmethod
    def _analyze(xp, yp, out):
        assert main(["analyze", str(xp), str(yp), "--column", "close",
                     "--scales", "10,20", "--out-dir", str(out)]) == 0
        return out / "analyze_manifest.json"

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.write_bytes(p.read_bytes() + b"2000-01-01,1.0\n"), "changed since"),
        (lambda p: p.unlink(), "cannot be read"),
    ], ids=["changed", "missing"])
    def test_changed_or_missing_input_exit_2(self, price_files, tmp_path, capsys, edit,
                                             message):
        xp, yp = price_files
        manifest = self._analyze(xp, yp, tmp_path / "out")
        (tmp_path / "out" / "correlation_profile.csv").unlink()
        edit(yp)
        capsys.readouterr()
        assert main(["rerun", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input ") and str(yp) in err and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "correlation_profile.csv").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("tool_version", "0.0.1", "tool version 0.0.1, this is"),
        ("input_digests", ["x.csv"], "input_digests must be"),
    ], ids=["version", "digests"])
    def test_other_version_or_bad_digests_exit_2(self, price_files, tmp_path, capsys, field,
                                                 value, message):
        manifest = self._analyze(*price_files, tmp_path / "out")
        payload = json.loads(manifest.read_text())
        payload[field] = value
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["rerun", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def _src_env() -> dict:
    src = str(Path(fractal_xcorr.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_loads_no_scipy():
    code = ("import sys, fractal_xcorr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_src_env(), check=True).stdout
    assert out.strip() == "[]"


def test_probe_sized_test_run_starts_no_pool(tmp_path):
    # 64 returns x 100 surrogates is one block, which runs in this process
    rng = np.random.default_rng(5)
    for name in ("x", "y"):
        prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(65)))
        write_prices(tmp_path / f"{name}.csv", prices)
    code = ("import sys; from fractal_xcorr.cli import main; "
            f"rc = main(['test', 'x.csv', 'y.csv', '--column', 'close', '--scales', '4,8,16', "
            f"'--surrogates', '100', '--out-dir', 'o']); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
            "or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_src_env(), cwd=tmp_path, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


class TestUnreadablePaths:
    """A path that exists but cannot be read, or an --out-dir that cannot be
    made, ends in exit 2 with one error line and leaves no out-dir."""

    def _run(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_directory_as_csv(self, price_files, tmp_path, capsys):
        xp, _ = price_files
        out = tmp_path / "out"
        for argv in (["describe", str(tmp_path), "--column", "close"],
                     ["analyze", str(xp), str(tmp_path), "--column", "close"]):
            err = self._run([*argv, "--out-dir", str(out)], capsys)
            assert err == f"error: {tmp_path}: cannot read (Is a directory)\n"
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["rerun", "{dir}"],
        ["simulate", "--spec-json", "{dir}", "--out-dir", "{out}"],
    ])
    def test_directory_as_json(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        err = self._run([a.format(dir=tmp_path, out=out) for a in argv], capsys)
        assert str(tmp_path) in err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_file_as_out_dir(self, price_files, tmp_path, capsys, sub):
        xp, _ = price_files
        err = self._run(["describe", str(xp), "--column", "close",
                         "--out-dir", str(xp / sub)], capsys)
        assert str(xp) in err


@pytest.mark.parametrize("argv, env", [
    (["simulate", "--length", "300", "--truncation", "500", "--seed", "-1"], None),
    (["test", "{x}", "{y}", "--column", "close", "--scales", "10,20", "--seed", "-1"], None),
    (["benchmark", "--reps", "10", "--lengths", "500", "--cross-corrs", "0.5", "--seed", "-1"],
     None),
    (["test", "{x}", "{y}", "--column", "close", "--scales", "10,20"], "-1"),
])
def test_negative_seed_exit_2(price_files, tmp_path, capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("FRACTAL_XCORR_SEED", env)
    xp, yp = price_files
    out = tmp_path / "out"
    assert main([a.format(x=xp, y=yp) for a in argv] + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed=-1 < 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, env", [
    (["describe", "{x}"], "-5"),
    (["analyze", "{x}", "{y}", "--scales", "10,20"], "abc"),
    (["portfolio", "{x}", "{y}", "--scales", "10,20"], "-5"),
])
def test_unseeded_commands_ignore_the_seed_variable(price_files, tmp_path, monkeypatch, argv,
                                                    env):
    # they draw no random number, so they read no seed and record 0
    monkeypatch.setenv("FRACTAL_XCORR_SEED", env)
    xp, yp = price_files
    out = tmp_path / "out"
    assert main([a.format(x=xp, y=yp) for a in argv]
                + ["--column", "close", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
    assert manifest["master_seed"] == 0


# -- exit codes over argv drawn from the parser's own flags ---------------------

def _parser_arguments() -> dict:
    """{subcommand: (positional names, option flags)} as the parser declares them."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: ([a.dest for a in p._actions if not a.option_strings],
                   [a.option_strings[0] for a in p._actions
                    if a.option_strings and a.dest != "help"])
            for name, p in sub.choices.items()}


PARSER_ARGUMENTS = _parser_arguments()


# (valid, invalid) values per argument; "{name}" is one of the paths made
# by cli_inputs.  Positional arguments are keyed by dest.
ARG_VALUES = {
    "x_csv": (["{csv64}"], ["{dir}", "{missing}", "{nan_csv}"]),
    "y_csv": (["{csv64b}"], ["{dir}", "{missing}", "{short_csv}"]),
    "manifest": (["{manifest}"], ["{dir}", "{missing}", "{bad_json}"]),
    "--column": (["close", "0"], ["1", "-1", "nope"]),
    "--returns": (["log", "raw"], ["bogus"]),
    "--out-dir": (["{out}"], ["{csv64}"]),
    "--format": (["csv", "json", "both"], ["xml"]),
    "--theta": (["0.5", "0", "1"], ["nan", "-1", "x"]),
    "--q": (["2", "-2", "4"], ["0", "nan", "inf"]),
    "--scales": (["4,8", "4,8,15", "log:4:15:3"],
                 ["log:4:15", "log:0:15:3", "log:a:b:c", "log:20:99999999999999999999999:5",
                  "0", "-1", "1000", "4,x"]),
    "--seed": (["0", "7"], ["-1", "nan"]),
    "--method": (["q-DMCA", "q-DCCA"], ["DMCA"]),
    "--surrogates": (["100"], ["5", "0", "-1", "nan"]),
    "--alpha": (["0.05", "0.5"], ["0", "1", "nan"]),
    "--spec-json": (["{spec}"], ["{dir}", "{missing}", "{bad_json}"]),
    **{f"--d{i}": (["0.4", "-0.2"], ["0", "0.6", "nan"]) for i in range(1, 5)},
    "--cross-corr": (["0.5", "-0.5"], ["-1", "2", "nan"]),
    "--length": (["64"], ["0", "-1", "nan"]),
    "--truncation": (["100"], ["0", "-1"]),
    "--reps": (["10"], ["2", "0", "-1", "nan"]),
    "--lengths": (["64", "64,80"], ["0", "-1", "x", "99999999999999999999999"]),
    "--cross-corrs": (["0.5", "0.1,0.9"], ["2", "nan", "x"]),
    "--n-min": (["4", "4,8"], ["0", "-1", "x"]),
    "--s-max": (["16"], ["8", "0", "-1", "x", "99999999999999999999999"]),
}
# Flags always given: their defaults make a run seconds long, or (--scales)
# start above N/4 of the 64-row inputs, so every run would stop there.
ALWAYS = {"benchmark": {"--reps", "--lengths"}, "simulate": {"--length", "--truncation"},
          "test": {"--surrogates", "--scales"}, "analyze": {"--scales"},
          "portfolio": {"--scales"}}


@st.composite
def _drawn_argv(draw):
    """A subcommand and its arguments; each value is invalid one time in four."""
    def value(name):
        valid, invalid = ARG_VALUES[name]
        return draw(st.sampled_from(invalid if draw(st.sampled_from([0, 0, 0, 1])) else valid))

    command = draw(st.sampled_from(sorted(PARSER_ARGUMENTS)))
    positionals, flags = PARSER_ARGUMENTS[command]
    argv = [command, *(value(p) for p in positionals)]
    for flag in flags:
        if flag in ALWAYS.get(command, ()) or draw(st.booleans()):
            argv += [flag, value(flag)]
    return argv


@pytest.fixture
def cli_inputs(tmp_path, monkeypatch):
    """Paths for ARG_VALUES.  Jobs run in this process: the exit code does
    not depend on where they run, and a pool per example would be slow."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACTAL_XCORR_SEED", raising=False)
    monkeypatch.setattr(benchmark, "_cpu_count", lambda: 1)
    rng = np.random.default_rng(64)
    paths = {name: tmp_path / f"{name}.csv" for name in ("csv64", "csv64b")}
    for path in paths.values():
        write_prices(path, 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(64))))
    paths.update(dir=tmp_path, missing=tmp_path / "missing.csv", out=tmp_path / "out",
                 nan_csv=tmp_path / "nan.csv", short_csv=tmp_path / "short.csv",
                 spec=tmp_path / "spec.json", bad_json=tmp_path / "bad.json")
    paths["nan_csv"].write_text("close\n" + "1.5\n" * 30 + "nan\n" + "1.5\n" * 33)
    paths["short_csv"].write_text("close\n1.5\n1.6\n")
    paths["spec"].write_text('{"length": 64, "truncation": 100, "seed": 3}')
    paths["bad_json"].write_text("{not json")
    first = tmp_path / "first"
    assert main(["describe", str(paths["csv64"]), "--column", "close",
                 "--out-dir", str(first)]) == 0
    paths["manifest"] = first / "describe_manifest.json"
    return paths


def test_every_flag_has_a_value_menu():
    for positionals, flags in PARSER_ARGUMENTS.values():
        assert set(positionals) | set(flags) <= set(ARG_VALUES)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_drawn_argv())
def test_drawn_argv_exits_0_2_or_3(cli_inputs, capsys, drawn):
    argv = [a.format(**cli_inputs) for a in drawn]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2, 3), (argv, err)
    messages = [ln for ln in err.splitlines()
                if ln.startswith(("error: ", "numerical degeneracy: "))]
    assert len(messages) == (rc != 0) and "Traceback" not in err, (argv, err)
