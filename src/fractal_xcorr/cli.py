"""Command-line interface: analyze | simulate | benchmark | test | portfolio | describe.

Every run writes a manifest (resolved configuration, master seed, tool
version, input digests) next to its result files; result files reference
the manifest digest in a header comment.  Exit codes: 0 success, 2 input or
validation error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import BenchmarkConfig, run_benchmark
from .errors import DegenerateFluctuationError, InputError
from .fluctuation import DEFAULT_QS, DetrendConfig, check_orders, correlation_profile
from .mc_arfima import McArfimaSpec, generate
from .portfolio import portfolio_scan
from .scaling import log_scales
from .series import AlignedPair, describe, load_csv, log_returns
from .surrogate import classify, stars, surrogate_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
DEFAULT_SCALES = "log:20:3162:10"
SEED_ENV_VAR = "FRACTAL_XCORR_SEED"
SEEDED_COMMANDS = ("simulate", "test", "benchmark")  # the ones that draw random numbers
SEED_HELP = f"master seed (falls back to ${SEED_ENV_VAR}, then 0)"
SPEC_FLAGS = ("d1", "d2", "d3", "d4", "cross_corr", "length", "truncation", "seed")


def _parse_list(text: str, flag: str, kind) -> tuple:
    try:
        return tuple(kind(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"{flag}: bad value list {text!r}") from None


def _parse_scales(text: str) -> tuple:
    if text.startswith("log:"):
        try:
            _, lo, hi, num = text.split(":")
            lo, hi, num = int(lo), int(hi), int(num)
        except ValueError:
            raise InputError(f"bad scale spec {text!r}; expected log:LO:HI:NUM") from None
        return log_scales(lo, hi, num)
    try:
        return tuple(sorted({int(t) for t in text.split(",")}))
    except ValueError:
        raise InputError(f"bad scale list {text!r}") from None


def _resolve_seed(args, recorded) -> int:
    """--seed, else the seed a rerun's manifest recorded, else
    $FRACTAL_XCORR_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    if recorded is not None:
        return recorded
    env = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(env)
    except ValueError:
        raise InputError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _path(args, name: str) -> Path:
    """Path argument ``name`` of the invocation; a rerun resolves it against
    the working directory of the original run."""
    return Path(args.cwd or "", getattr(args, name))


def _write_manifest(out_dir: Path, subcommand: str, config: dict, seed: int,
                    inputs: dict, argv: list, cwd) -> str:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "master_seed": seed,
        "tool_version": __version__,
        "input_digests": inputs,
        "argv": argv,
        "cwd": cwd or os.getcwd(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    (out_dir / f"{subcommand}_manifest.json").write_text(text + "\n")
    return digest


def _result_header(digest: str) -> str:
    return f"# fractal-xcorr v{__version__} manifest={digest}"


def _write_csv(path: Path, digest: str, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        fh.write(_result_header(digest) + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path: Path, digest: str, payload):
    path.write_text(json.dumps({"manifest": digest, "results": payload}, indent=2) + "\n")


def _save(args, argv, config: dict, inputs=(), tables=(), json_name=None,
          results=None) -> str:
    """Write the manifest, then the result files --format selects, and
    return the manifest digest.  tables are (file name, field names, rows)
    CSV files and results is the payload of json_name; a command without
    --format writes both.  The manifest records the run's seed, 0 for a
    command that draws no random number.  The out-dir is created only here,
    so a run that fails before its writes leaves none."""
    out_dir = _path(args, "out_dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _write_manifest(out_dir, args.command, config, getattr(args, "seed", 0),
                             {getattr(args, n): _file_digest(_path(args, n)) for n in inputs},
                             argv, args.cwd)
    fmt = getattr(args, "format", "both")
    if fmt in ("csv", "both"):
        for name, fieldnames, rows in tables:
            _write_csv(out_dir / name, digest, fieldnames, rows)
    if json_name and fmt in ("json", "both"):
        _write_json(out_dir / json_name, digest, results)
    return digest


def _load(args, *names) -> list:
    """The series in the CSV files of the path arguments ``names``, as log
    returns unless --returns raw."""
    series = [load_csv(_path(args, n), args.column) for n in names]
    return [log_returns(s) for s in series] if args.returns == "log" else series


def _clip_grid(scales: tuple, n: int, explicit: bool) -> tuple:
    usable = tuple(s for s in scales if s <= n // 4)
    if explicit and usable != scales:
        raise InputError(f"scales above N/4 = {n // 4} not admissible for N={n}")
    if not usable:
        raise InputError(f"no admissible scale below N/4 = {n // 4} for N={n}")
    if usable != scales:
        print(f"note: dropped scales above N/4 = {n // 4}", file=sys.stderr)
    return usable


def _add_io_args(p, pair=True):
    if pair:
        p.add_argument("x_csv", help="CSV file of the first (hedge-asset) series")
        p.add_argument("y_csv", help="CSV file of the second series")
    else:
        p.add_argument("x_csv", help="CSV input file")
    p.add_argument("--column", default="0", help="column name or 0-based index (default 0)")
    p.add_argument("--returns", choices=("log", "raw"), default="log",
                   help="'log': inputs are prices, take log returns (default); 'raw': use as-is")
    p.add_argument("--out-dir", default=".", help="output directory")
    if pair:  # describe, the one single-series command, writes JSON only
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")


def _add_common_args(p, scales=True):
    p.add_argument("--theta", type=float, help="moving-average position of q-DMCA (default 0.5)")
    p.add_argument("--q", type=float, action="append", default=None,
                   help="fluctuation order, repeatable, each order once (default 2 and 4)")
    if scales:
        p.add_argument("--scales", default=None,
                       help=f"comma list or log:LO:HI:NUM (default {DEFAULT_SCALES}, "
                            "clipped to N/4)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError, so main
    reports them like every other input error; subparsers inherit it."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fractal-xcorr",
        description="Scale-dependent cross-correlation, simulation benchmarks, "
                    "surrogate tests and hedge analytics",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="scale-wise q-th-order cross-correlation profile")
    _add_io_args(p)
    _add_common_args(p)
    p.add_argument("--method", choices=("q-DMCA", "q-DCCA"), default="q-DMCA")

    p = sub.add_parser("simulate", help="generate a mixed-correlated ARFIMA pair")
    p.add_argument("--spec-json", help="JSON file with the full process spec; excludes the "
                                       "other process flags and --seed")
    for name in ("d1", "d2", "d3", "d4", "cross-corr"):  # unset fields keep McArfimaSpec's
        p.add_argument(f"--{name}", type=float)
    for name in ("length", "truncation", "seed"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("benchmark", help="bias/SD/MSE comparison of both estimators")
    _add_common_args(p, scales=False)
    p.add_argument("--seed", type=int, help=SEED_HELP)
    p.add_argument("--reps", type=int, default=200,
                   help="replications per cell (default 200; 1000 for full reproduction)")
    p.add_argument("--lengths", default="500,1000,5000")
    p.add_argument("--cross-corrs", default="0.1,0.5,0.9")
    p.add_argument("--n-min", default="10,20,50,100", help="box-method fit-range starts")
    p.add_argument("--s-max", default="20,50,100", help="moving-average fit-range ends")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")

    p = sub.add_parser("test", help="IAAFT surrogate significance test")
    _add_io_args(p)
    _add_common_args(p)
    p.add_argument("--seed", type=int, help=SEED_HELP)
    p.add_argument("--surrogates", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)

    p = sub.add_parser("portfolio", help="scale-dependent optimal weights and hedge ratios")
    _add_io_args(p)
    _add_common_args(p)

    p = sub.add_parser("describe", help="descriptive statistics of a return series")
    _add_io_args(p, pair=False)

    p = sub.add_parser("rerun", help="re-run a previous invocation from its manifest")
    p.add_argument("manifest", help="path to a *_manifest.json file")

    return parser


def _pair_run(args):
    """(pair, cfg, qs, config) of a command on the pair x_csv, y_csv: the
    pair, its DetrendConfig at the first order, every order, and the
    manifest keys that analyze, test and portfolio share."""
    pair = AlignedPair(*_load(args, "x_csv", "y_csv"))
    scales = _clip_grid(_parse_scales(DEFAULT_SCALES if args.scales is None else args.scales),
                        len(pair), explicit=args.scales is not None)
    qs = tuple(args.q or DEFAULT_QS)
    cfg = DetrendConfig(scale_grid=scales, q=qs[0], theta=args.theta)  # grid and theta first
    check_orders(qs)
    config = {"theta": args.theta, "returns": args.returns, "qs": list(qs),
              "scales": list(cfg.scale_grid)}
    return pair, cfg, qs, config


def cmd_analyze(args, argv) -> int:
    pair, cfg, qs, config = _pair_run(args)
    rows = [r for q in qs
            for r in correlation_profile(pair, replace(cfg, q=q), args.method).to_records()]
    config["method"] = args.method
    _save(args, argv, config, inputs=("x_csv", "y_csv"),
          tables=[("correlation_profile.csv", ["scale", "q", "method", "rho", "capped"], rows)],
          json_name="correlation_profile.json", results=rows)
    for r in rows:
        print(f"{r['method']} q={r['q']:g} s={r['scale']:>5d}  rho={r['rho']:+.4f}"
              f"{' (capped)' if r['capped'] else ''}")
    return EXIT_OK


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def _read_spec(path: Path) -> McArfimaSpec:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: spec must be a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(McArfimaSpec)})
    if unknown:
        raise InputError(f"{path}: unknown spec key(s): {', '.join(unknown)}")
    return McArfimaSpec(**data)


def cmd_simulate(args, argv) -> int:
    given = {name: v for name in SPEC_FLAGS if (v := getattr(args, name)) is not None}
    if args.spec_json and given:
        raise InputError("--spec-json excludes " + ", ".join("--" + name.replace("_", "-")
                                                             for name in given))
    spec = _read_spec(_path(args, "spec_json")) if args.spec_json else McArfimaSpec(**given)
    args.seed = spec.seed  # a --spec-json run takes its seed from the file
    sample = generate(spec)
    digest = _save(args, argv, spec.to_dict(), inputs=("spec_json",) if args.spec_json else ())
    for name, series in (("x", sample.x), ("y", sample.y)):
        with open(_path(args, "out_dir") / f"simulated_{name}.csv", "w", newline="") as fh:
            np.savetxt(fh, series.values, fmt="%.17g", header=f"{_result_header(digest)}\n{name}",
                       comments="")
    print(f"wrote simulated_x.csv, simulated_y.csv (N={spec.length}, seed={spec.seed})")
    return EXIT_OK


def _benchmark_table_rows(reports, method: str, q: float):
    """Wide report layout: N x range-param down the side, (bias, sd, mse)
    per correlation level across, in the order the reports give them."""
    rows = {}
    for r in reports:
        if r.method == method and r.q == q:
            row = rows.setdefault((r.length, r.range_param),
                                  {"N": r.length, "range_param": r.range_param})
            row.update({f"{k}_rho{r.cross_corr:g}": round(getattr(r, k), 4)
                        for k in ("bias", "sd", "mse")})
    return [rows[k] for k in sorted(rows)]


def cmd_benchmark(args, argv) -> int:
    cfg = BenchmarkConfig(
        lengths=_parse_list(args.lengths, "--lengths", int),
        cross_corrs=_parse_list(args.cross_corrs, "--cross-corrs", float),
        qs=tuple(args.q or DEFAULT_QS),
        replications=args.reps,
        dcca_n_min=_parse_list(args.n_min, "--n-min", int),
        dmca_s_max=_parse_list(args.s_max, "--s-max", int),
        master_seed=args.seed,
        theta=args.theta,
    )

    def progress(rep):
        print(f"{rep.method} q={rep.q:g} N={rep.length} rho={rep.cross_corr:g} "
              f"param={rep.range_param}: bias={rep.bias:+.4f} sd={rep.sd:.4f} "
              f"mse={rep.mse:.4f} (n={rep.n_effective})")

    reports = run_benchmark(cfg, progress=progress)
    tables = [(f"benchmark_{method.lower()}_q{q:g}.csv", list(rows[0].keys()), rows)
              for method in ("DCCA", "DMCA") for q in cfg.qs
              if (rows := _benchmark_table_rows(reports, method, q))]
    config = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(cfg).items()}
    _save(args, argv, config, tables=tables, json_name="benchmark.json",
          results=[r.to_dict() for r in reports])
    return EXIT_OK


def cmd_test(args, argv) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise InputError(f"--alpha {args.alpha} outside (0, 1)")
    pair, cfg, qs, config = _pair_run(args)
    reports = surrogate_test(pair, cfg, n_surrogates=args.surrogates, seed=args.seed, qs=qs)
    if reports[0].n_failed:
        print(f"note: {reports[0].n_failed} of {args.surrogates} surrogate pairs degenerate "
              "after retries", file=sys.stderr)
    rows = []
    for rep in reports:
        label = classify(rep, alpha=args.alpha)
        rows.append({
            "scale": rep.scale, "q": rep.q,
            "statistic": round(rep.observed_rho, 4), "stars": stars(rep.p_value),
            "p_value": round(rep.p_value, 4), "classification": label,
        })
        print(f"q={rep.q:g} s={rep.scale:>5d}  rho={rep.observed_rho:+.4f}"
              f"{stars(rep.p_value):<3} p={rep.p_value:.3f}  {label}")
    config.update(alpha=args.alpha, n_surrogates=args.surrogates, n_failed=reports[0].n_failed)
    _save(args, argv, config, inputs=("x_csv", "y_csv"),
          tables=[("surrogate_test.csv", list(rows[0].keys()), rows)],
          json_name="surrogate_test.json", results=rows)
    return EXIT_OK


def cmd_portfolio(args, argv) -> int:
    pair, cfg, qs, config = _pair_run(args)
    metrics = portfolio_scan(pair, cfg, qs=qs)
    # Table layout: one row per (q, measure) in the run's order, scales across the columns.
    rows = [{"q": q, "measure": measure,
             **{f"s{m.scale}": round(getattr(m, measure), 4) for m in metrics if m.q == q}}
            for q in qs for measure in ("w_g", "beta")]
    _save(args, argv, config, inputs=("x_csv", "y_csv"),
          tables=[("portfolio.csv", list(rows[0].keys()), rows)],
          json_name="portfolio.json", results=[m.to_dict() for m in metrics])
    for m in metrics:
        print(f"q={m.q:g} s={m.scale:>5d}  w_g={m.w_g:.4f}  beta={m.beta:+.4f}")
    return EXIT_OK


def cmd_describe(args, argv) -> int:
    # a zero-variance series has NaN shape statistics, which JSON spells null
    result = {k: v if np.isfinite(v) else None
              for k, v in describe(*_load(args, "x_csv")).to_dict().items()}
    _save(args, argv, {"returns": args.returns, "column": args.column}, inputs=("x_csv",),
          json_name="describe.json", results=result)
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_rerun(args, _argv) -> int:
    manifest = _read_json(_path(args, "manifest"))
    stored = manifest.get("argv") if isinstance(manifest, dict) else None
    if (not isinstance(stored, list) or not stored or stored[0] == "rerun"
            or not all(isinstance(a, str) for a in stored)):
        raise InputError(f"{args.manifest}: argv must be a non-empty list of strings that "
                         "names a command other than rerun")
    if manifest.get("tool_version") != __version__:
        raise InputError(f"{args.manifest}: written by tool version "
                         f"{manifest.get('tool_version')}, this is {__version__}")
    cwd, inputs = manifest.get("cwd"), manifest.get("input_digests", {})
    seed = manifest.get("master_seed")
    if not isinstance(cwd, (str, type(None))):
        raise InputError(f"{args.manifest}: cwd must be a string")
    if not isinstance(inputs, dict):
        raise InputError(f"{args.manifest}: input_digests must be a JSON object")
    if stored[0] in SEEDED_COMMANDS and (type(seed) is not int or seed < 0):
        raise InputError(f"{args.manifest}: master_seed must be an integer >= 0")
    for name, digest in inputs.items():
        try:
            same = _file_digest(Path(cwd or "", name)) == digest
        except OSError:
            raise InputError(f"input {name} of {args.manifest} cannot be read") from None
        if not same:
            raise InputError(f"input {name} changed since {args.manifest} was written")
    # No os.chdir: main() also runs in-process, inside the caller's cwd.
    return _dispatch(stored, cwd=cwd, seed=seed)


_HANDLERS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
    "test": cmd_test,
    "portfolio": cmd_portfolio,
    "describe": cmd_describe,
    "rerun": cmd_rerun,
}


def _dispatch(argv, cwd=None, seed=None) -> int:
    """Run argv.  A rerun passes the working directory and the master seed
    its manifest recorded; the seed replaces $FRACTAL_XCORR_SEED."""
    args = build_parser().parse_args(argv)
    args.cwd = cwd
    if "theta" in args:  # None unless --theta was given
        if getattr(args, "method", None) == "q-DCCA" and args.theta is not None:
            raise InputError("--theta sets the moving average of q-DMCA; q-DCCA has none")
        args.theta = 0.5 if args.theta is None else args.theta
    if args.command in SEEDED_COMMANDS and not getattr(args, "spec_json", None):
        args.seed = _resolve_seed(args, seed)
    return _HANDLERS[args.command](args, list(argv))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateFluctuationError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:  # a path that cannot be read, or an --out-dir that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
