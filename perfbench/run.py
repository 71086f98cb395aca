"""End-to-end and per-layer benchmark of the fractal-xcorr pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  One run:

1. makes the workload's input files from the seed (perfbench/inputs.py);
2. runs one warm-up operation in-process through ``fractal_xcorr.cli.main``;
3. runs whole rounds for S seconds.  Each operation is timed
   (``pipeline_s`` is the median) and followed by one set-up probe: a fresh
   interpreter that runs every CLI command of the workload once on a
   minimal input (``setup_s`` is the median).  Interleaving spreads the
   samples of both metrics over the whole run, so a slow spell of the
   machine weighs on each median less than if either were timed in one
   block.  Every repeat of an operation must write result files
   byte-identical to its first execution;
4. reads the process's peak resident memory, then checks the outputs
   against independent computations (perfbench/checks.py).

With ``--trace 1`` the per-layer metrics are printed instead: each round is
run once untraced and once traced (perfbench/tracer.py), and the difference
of the two medians is the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted (CLI invocations in timed rounds), failed and metrics.  A failed
check prints correct=false and exits 1; a checkout without the program
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from steady import summarise
from tracer import Tracer, install_layer_hooks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle_naive.py"
OUT = ROOT / ".perfbench_out"
IMPORTTIME_REPEATS = 3

QS = (2.0, 4.0)
PAPER_GRID = checks.log_grid(20, 3162, 10)  # the CLI's default log:20:3162:10
PAPER_WIDE_POINTS = 12
SURROGATE_SCALES = "log:10:250:10"
N_SURROGATES = 100
ALPHA = 0.05
STRONG_MIN_SEGMENTS = 50  # scales with this many segments must test strong
MC_REPS = 10
MC_LENGTHS = (500, 1000, 5000)
MC_CROSS = (0.1, 0.5, 0.9)
MC_S_MAX = (20, 50, 100)
MC_N_MIN = (10, 20, 50, 100)

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metric -> unit.  A name ending in _s is the self time of the
# span named without the suffix; the rest are counts unless derived below.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "series.load_csv_calls": "count",
    "series.load_csv_rows": "count",
    "series.load_csv_s": "s",
    "series.describe_s": "s",
    "fluctuation.moving_average_calls": "count",
    "fluctuation.moving_average_madds": "count",
    "fluctuation.moving_average_s": "s",
    "fluctuation.dma_segment_stats_calls": "count",
    "fluctuation.dma_segment_stats_s": "s",
    "fluctuation.dcca_segment_stats_calls": "count",
    "fluctuation.dcca_segment_stats_s": "s",
    "fluctuation.segment_stats_distinct_ratio": "ratio",
    "fluctuation.aggregate_q_calls": "count",
    "fluctuation.aggregate_q_s": "s",
    "scaling.fit_power_law_calls": "count",
    "scaling.fit_power_law_s": "s",
    "mc_arfima.generate_calls": "count",
    "mc_arfima.generate_points": "count",
    "mc_arfima.generate_s": "s",
    "benchmark.estimate_all_s": "s",
    "benchmark.estimates_effective_ratio": "ratio",
    "surrogate.iaaft_rows": "count",
    "surrogate.iaaft_s": "s",
    "surrogate.iaaft_distinct_ratio": "ratio",
    "surrogate.ensemble_bytes": "bytes",
    "surrogate.scoring_calls": "count",
    "surrogate.scoring_s": "s",
    "surrogate.regenerations": "count",
    "portfolio.portfolio_scan_s": "s",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_hooks": "count",
}


class SetupError(Exception):
    """The benchmark cannot run in this directory or with these inputs."""


@dataclass
class Workload:
    """rounds: operations, each a list of CLI argv lists; probe: the same
    commands on a minimal input; check(bench) raises CheckError."""

    rounds: list
    probe: list
    check: object


def _out_dir(argv) -> Path:
    return Path(argv[argv.index("--out-dir") + 1])


# --- workloads ------------------------------------------------------------

def _pair_op(x: Path, y: Path, out: Path, n_returns: int) -> list:
    """describe both series, q-DMCA on the default and on a wide grid up to
    N/4, q-DCCA, portfolio."""
    io = ["--column", "close", "--out-dir"]
    wide = f"log:20:{n_returns // 4}:{PAPER_WIDE_POINTS}"
    return [
        ["describe", str(x), *io, str(out / "describe_x")],
        ["describe", str(y), *io, str(out / "describe_y")],
        ["analyze", str(x), str(y), *io, str(out / "analyze")],
        ["analyze", str(x), str(y), "--scales", wide, *io, str(out / "analyze_wide")],
        ["analyze", str(x), str(y), "--method", "q-DCCA", *io, str(out / "analyze_dcca")],
        ["portfolio", str(x), str(y), *io, str(out / "portfolio")],
    ]


def paper_analysis(work: Path, seed: int) -> Workload:
    files = inputs.paper_inputs(work, seed)
    n = inputs.PAPER_PRICES - 1
    pairs = [(other, files["gold"], files[other]) for other in inputs.PAPER_CORRS]
    small = inputs.paper_inputs(work / "probe", seed, n_prices=401)
    probe = _pair_op(small["gold"], small["oil"], work / "probe" / "out", 400)

    def check(bench):
        oracle = bench.oracle()
        for other, x, y in pairs:
            out = work / "out" / other
            rx, ry = inputs.read_returns(x), inputs.read_returns(y)
            for side, r in (("x", rx), ("y", ry)):
                stats = checks.read_results(out / f"describe_{side}" / "describe.json")
                checks.check_describe(stats, r, f"{other} {side}")
            dmca = checks.check_profile(checks.read_results(out / "analyze" / "correlation_profile.json"),
                                        "q-DMCA", QS, PAPER_GRID)
            wide = checks.check_profile(
                checks.read_results(out / "analyze_wide" / "correlation_profile.json"),
                "q-DMCA", QS, checks.log_grid(20, n // 4, PAPER_WIDE_POINTS))
            checks.check_same_rho(dmca, wide, f"{other} default vs wide grid")
            dcca = checks.check_profile(
                checks.read_results(out / "analyze_dcca" / "correlation_profile.json"),
                "q-DCCA", QS, PAPER_GRID)
            s = PAPER_GRID[0]
            fluct = {}
            for q in QS:
                f_x, f_y, f_xy, _ = oracle.naive_q_fluctuations(list(rx), list(ry), s, q, 0.5)
                fluct[q] = (f_x, f_y, f_xy)
                checks.check_close(dmca[(q, s)]["rho"], f_xy / math.sqrt(f_x * f_y),
                                   checks.RHO_ORACLE_TOL, f"{other} q-DMCA rho q={q:g} s={s}")
                checks.check_close(dcca[(q, s)]["rho"], checks.dcca_rho(rx, ry, s, q),
                                   checks.RHO_ORACLE_TOL, f"{other} q-DCCA rho q={q:g} s={s}")
            rho2, pearson = dmca[(2.0, s)]["rho"], float(np.corrcoef(rx, ry)[0, 1])
            checks.require(abs(rho2 - pearson) <= 0.1
                           and np.sign(rho2) == np.sign(inputs.PAPER_CORRS[other]),
                           f"{other}: rho_2(s={s})={rho2:+.4f}, return correlation {pearson:+.4f}")
            portfolio = checks.read_results(out / "portfolio" / "portfolio.json")
            checks.check_portfolio(portfolio, fluct, s)
            swapped = work / "out" / f"{other}_swapped"
            checks.require(bench.invoke(["portfolio", str(y), str(x), "--column", "close",
                                         "--out-dir", str(swapped)]) == 0, "swapped portfolio failed")
            checks.check_weight_swap(portfolio, checks.read_results(swapped / "portfolio.json"))

    ops = [_pair_op(x, y, work / "out" / other, n) for other, x, y in pairs]
    return Workload(rounds=ops, probe=probe, check=check)


def _test_cmd(x: Path, y: Path, out: Path, seed: int, scales: str) -> list:
    return ["test", str(x), str(y), "--column", "close", "--scales", scales,
            "--surrogates", str(N_SURROGATES), "--alpha", str(ALPHA),
            "--seed", str(seed), "--out-dir", str(out)]


def surrogate_test(work: Path, seed: int) -> Workload:
    files = inputs.surrogate_inputs(work, seed)
    n = inputs.SURROGATE_PRICES - 1
    lo, hi, num = (int(t) for t in SURROGATE_SCALES.split(":")[1:])
    scales = checks.log_grid(lo, hi, num)
    small = inputs.surrogate_inputs(work / "probe", seed, n_prices=65)
    probe = [_test_cmd(small["x"], small["y"], work / "probe" / "out", seed, "4,8,16")]
    out = work / "out" / "test"

    def check(bench):
        rows = checks.read_results(out / "surrogate_test.json")
        cells = checks.check_surrogate_rows(rows, QS, scales, N_SURROGATES, ALPHA)
        swapped = work / "out" / "test_swapped"
        checks.require(bench.invoke(_test_cmd(files["y"], files["x"], swapped, seed,
                                              SURROGATE_SCALES)) == 0, "swapped test failed")
        checks.check_swap_symmetry(rows, checks.read_results(swapped / "surrogate_test.json"))
        strong = [s for s in scales if n // s - 1 >= STRONG_MIN_SEGMENTS]
        checks.check_strong_negative(cells, QS, strong, N_SURROGATES)
        rx, ry = inputs.read_returns(files["x"]), inputs.read_returns(files["y"])
        for q in QS:
            want = bench.oracle().naive_rho(list(rx), list(ry), scales[0], q, 0.5)
            checks.check_close(cells[(q, scales[0])]["statistic"], want, checks.ROUND4_TOL,
                               f"test statistic q={q:g} s={scales[0]}")

    return Workload(rounds=[[_test_cmd(files["x"], files["y"], out, seed, SURROGATE_SCALES)]],
                    probe=probe, check=check)


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def monte_carlo(work: Path, seed: int) -> Workload:
    out = work / "out" / "benchmark"
    cmd = ["benchmark", "--reps", str(MC_REPS), "--lengths", _csv(MC_LENGTHS),
           "--cross-corrs", _csv(MC_CROSS), "--s-max", _csv(MC_S_MAX), "--n-min", _csv(MC_N_MIN),
           "--seed", str(seed), "--out-dir", str(out)]
    probe = [["benchmark", "--reps", str(MC_REPS), "--lengths", "500", "--cross-corrs", "0.5",
              "--seed", str(seed), "--out-dir", str(work / "probe" / "out")]]

    def check(bench):
        cells = checks.check_benchmark(checks.read_results(out / "benchmark.json"), MC_REPS,
                                       MC_LENGTHS, MC_CROSS, QS, MC_S_MAX, MC_N_MIN)
        for method in ("DCCA", "DMCA"):
            for q in QS:
                table = checks.read_table(out / f"benchmark_{method.lower()}_q{q:g}.csv")
                checks.check_benchmark_table(table, cells, method, q, MC_CROSS)

    return Workload(rounds=[[cmd]], probe=probe, check=check)


WORKLOADS = {
    "paper-analysis": paper_analysis,
    "surrogate-test": surrogate_test,
    "monte-carlo": monte_carlo,
}


# --- running --------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


PROBE_CODE = """\
import json, sys
from fractal_xcorr.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    if rc:
        sys.exit(rc)
"""


def time_setup(commands) -> float:
    """Wall time of a fresh interpreter running each command once."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE_CODE, json.dumps(commands)], cwd=ROOT,
                          env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed


def import_times() -> dict:
    """Cumulative import time of fractal_xcorr.cli and of scipy.stats within
    it, from ``python -X importtime`` (0 when scipy.stats is not imported)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fractal_xcorr.cli"],
                          cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SetupError(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    total = scipy_stats = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        us = int(cumulative)
        package = name[1:]  # one space follows the bar; nesting adds two per level
        if package.startswith("fractal_xcorr"):
            total += us * 1e-6
        elif package.strip() == "scipy.stats":
            scipy_stats = us * 1e-6
    return {"cli.import_s": total, "cli.import_scipy_stats_s": scipy_stats}


def _digests(dirs) -> dict:
    out = {}
    for d in dirs:
        for path in sorted(d.rglob("*")):
            if path.is_file():
                out[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _bytes(dirs) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.rglob("*") if p.is_file())


class Bench:
    """Runs CLI commands in this process and records what happened."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self._oracle = None

    def invoke(self, argv) -> int:
        """Run one command with its stdout discarded; its exit code, or 1 on
        an exception."""
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                return self.cli_main(list(argv))
            except SystemExit as exc:  # argparse rejected the command line
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed operation, not a crash
                traceback.print_exc()
                return 1

    def run_op(self, op, tracer=None, count=True) -> tuple:
        """(wall seconds, all commands succeeded)."""
        gc.collect()
        ok = True
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_op()
        for argv in op:
            if tracer is not None:
                with tracer.span(f"cli.{argv[0]}"):
                    rc = self.invoke(argv)
            else:
                rc = self.invoke(argv)
            if rc != 0:
                ok = False
                print(f"operation failed (exit {rc}): {' '.join(argv)}", file=sys.stderr)
                if count:
                    self.failed += 1
            if count:
                self.attempted += 1
        if tracer is not None:
            tracer.end_op()
        return time.perf_counter() - t0, ok

    def oracle(self):
        if self._oracle is None:
            spec = importlib.util.spec_from_file_location("oracle_naive", ORACLE)
            self._oracle = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self._oracle)
        return self._oracle


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0  # 0 where the layer is not called


def _layer_metrics(tracer: Tracer, imports: dict, output_bytes: list,
                   traced: list, untraced: list) -> dict:
    def per_op(fn):
        return statistics.median(fn(op["counts"], op["distinct"]) for op in tracer.ops)

    special = {
        "cli.output_bytes": statistics.median(output_bytes),
        "fluctuation.segment_stats_distinct_ratio": per_op(lambda c, d: _share(
            d.get("segment_stats", 0),
            c.get("fluctuation.dma_segment_stats_calls", 0)
            + c.get("fluctuation.dcca_segment_stats_calls", 0))),
        "benchmark.estimates_effective_ratio": per_op(lambda c, d: _share(
            c.get("estimates_effective", 0), c.get("estimates", 0))),
        "surrogate.iaaft_distinct_ratio": per_op(lambda c, d: _share(
            d.get("iaaft", 0), c.get("surrogate.iaaft_calls", 0))),
        "surrogate.regenerations": per_op(lambda c, d: c.get("surrogate.single_rows", 0) / 2),
        "trace.pipeline_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.missing_hooks": len(tracer.missing),
        **imports,
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in special:
            value = special[name]
        elif unit == "s":
            value = statistics.median(op["self_s"].get(name[:-2], 0.0) for op in tracer.ops)
        else:
            value = per_op(lambda c, d: c.get(name, 0))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def end_to_end_metrics(setup: list, times: list, peak_rss_mib: float) -> dict:
    values = {"setup_s": statistics.median(setup), "pipeline_s": statistics.median(times),
              "peak_rss_mib": peak_rss_mib}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(result dict, exit code)."""
    if not (SRC / "fractal_xcorr" / "cli.py").is_file() or not ORACLE.is_file():
        raise SetupError(f"no fractal_xcorr sources under {SRC} or no oracle at {ORACLE}")
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload](work, seed)
        imports = {}
        if trace:
            runs = [import_times() for _ in range(IMPORTTIME_REPEATS)]
            imports = {k: statistics.median(r[k] for r in runs) for k in runs[0]}

        from fractal_xcorr.cli import main as cli_main

        bench = Bench(cli_main)
        op_dirs = [sorted({_out_dir(argv) for argv in op}) for op in wl.rounds]
        reference, mismatches = {}, set()

        def same_bytes(k: int) -> None:
            """Every execution of operation k writes the bytes of its first."""
            digests = _digests(op_dirs[k])
            if reference.setdefault(k, digests) != digests:
                mismatches.add(k)

        _, warm_ok = bench.run_op(wl.rounds[0], count=False)
        if warm_ok:
            same_bytes(0)

        tracer = Tracer() if trace else None
        setup, times, traced, output_bytes = [], [], [], []
        t_start = time.perf_counter()
        while not times or time.perf_counter() - t_start < seconds:
            for k, op in enumerate(wl.rounds):
                dt, ok = bench.run_op(op)
                times.append(dt)
                if ok:
                    same_bytes(k)
                if not trace:
                    setup.append(time_setup(wl.probe))
                else:
                    install_layer_hooks(tracer)
                    try:
                        dt, ok = bench.run_op(op, tracer=tracer)
                    finally:
                        tracer.uninstall()
                    traced.append(dt)
                    output_bytes.append(_bytes(op_dirs[k]))
                    if ok:
                        same_bytes(k)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct = warm_ok and not mismatches and len(reference) == len(wl.rounds)
        if not warm_ok:
            print("CHECK FAILED: the warm-up operation did not complete", file=sys.stderr)
        elif mismatches:
            print(f"CHECK FAILED: a repeat of operations {sorted(mismatches)} wrote other bytes "
                  "than their first execution with the same seed", file=sys.stderr)
        elif not correct:
            print("CHECK FAILED: an operation never completed", file=sys.stderr)
        else:
            try:
                wl.check(bench)
            except (checks.CheckError, OSError, KeyError, ValueError) as exc:
                # a missing file or field in a result is a wrong output too
                correct = False
                print(f"CHECK FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)

        if trace:
            metrics = _layer_metrics(tracer, imports, output_bytes, traced, times)
            tracer.dump(OUT / f"trace-{workload}-{seed}.json",
                        {"workload": workload, "seed": seed, "untraced_op_s": times,
                         "traced_op_s": traced})
            if tracer.missing:
                print("missing layer hooks (their metrics read 0): " + ", ".join(tracer.missing))
        else:
            metrics = end_to_end_metrics(setup, times, peak_rss_mib)
        op = summarise(times)
        print(f"{workload} seed={seed}: {len(times)} operations, pipeline median "
              f"{op['median']:.4f} s (q1 {op['q1']:.4f}, q3 {op['q3']:.4f})"
              + (f", setup {[round(t, 4) for t in setup]}" if setup else "")
              + f"; operations {[round(t, 3) for t in times]}", file=sys.stderr)
        result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                  "metrics": metrics}
        return result, 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
