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
from dataclasses import fields
from pathlib import Path

from . import __version__
from .benchmark import BenchmarkConfig, run_benchmark
from .errors import DegenerateFluctuationError, InputError
from .fluctuation import DetrendConfig, correlation_profile
from .mc_arfima import McArfimaSpec, generate
from .portfolio import portfolio_scan
from .scaling import log_scales
from .series import AlignedPair, describe, load_csv, log_returns
from .surrogate import IaaftConfig, classify, stars, surrogate_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
DEFAULT_SCALES = "log:20:3162:10"
SEED_ENV_VAR = "FRACTAL_XCORR_SEED"


def _parse_list(text: str, flag: str, kind) -> tuple:
    try:
        return tuple(kind(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"{flag}: bad value list {text!r}") from None


def _parse_scales(text: str) -> tuple:
    if text.startswith("log:"):
        try:
            _, lo, hi, num = text.split(":")
            return log_scales(int(lo), int(hi), int(num))
        except ValueError:
            raise InputError(f"bad scale spec {text!r}; expected log:LO:HI:NUM") from None
    try:
        return tuple(sorted({int(t) for t in text.split(",")}))
    except ValueError:
        raise InputError(f"bad scale list {text!r}") from None


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return seed
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


def _save(args, argv, config: dict, inputs=(), seed=None, tables=(), json_name=None,
          results=None) -> str:
    """Write the manifest, then the result files --format selects, and
    return the manifest digest.  tables are (file name, field names, rows)
    CSV files and results is the payload of json_name; a command without
    --format writes both.  The out-dir is created only here, so a run that
    fails before its writes leaves none."""
    out_dir = _path(args, "out_dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _write_manifest(out_dir, args.command, config,
                             _resolve_seed(args) if seed is None else seed,
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
    p.add_argument("--theta", type=float, default=0.5, help="moving-average position (default 0.5)")
    p.add_argument("--q", type=float, action="append", default=None,
                   help="fluctuation order, repeatable (default 2 and 4)")
    if scales:
        p.add_argument("--scales", default=None,
                       help=f"comma list or log:LO:HI:NUM (default {DEFAULT_SCALES}, "
                            "clipped to N/4)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (falls back to ${SEED_ENV_VAR}, then 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--spec-json", help="JSON file with the full process spec")
    for name, default in (("d1", 0.4), ("d2", 0.2), ("d3", 0.2), ("d4", 0.4)):
        p.add_argument(f"--{name}", type=float, default=default)
    p.add_argument("--cross-corr", type=float, default=0.9)
    p.add_argument("--length", type=int, default=5000)
    p.add_argument("--truncation", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("benchmark", help="bias/SD/MSE comparison of both estimators")
    _add_common_args(p, scales=False)
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


def _detrend_configs(args, n: int):
    qs = args.q if args.q else [2.0, 4.0]
    scales = _clip_grid(_parse_scales(DEFAULT_SCALES if args.scales is None else args.scales), n,
                        explicit=args.scales is not None)
    return [DetrendConfig(scale_grid=scales, q=q, theta=args.theta) for q in qs]


def cmd_analyze(args, argv) -> int:
    pair = AlignedPair(*_load(args, "x_csv", "y_csv"))
    configs = _detrend_configs(args, len(pair))
    rows = []
    for cfg in configs:
        profile = correlation_profile(pair, cfg, method=args.method)
        rows.extend(profile.to_records())
    config = {"method": args.method, "theta": args.theta, "returns": args.returns,
              "qs": [c.q for c in configs], "scales": list(configs[0].scale_grid)}
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
    seed = _resolve_seed(args)
    if args.spec_json:
        spec = _read_spec(_path(args, "spec_json"))
    else:
        spec = McArfimaSpec(d1=args.d1, d2=args.d2, d3=args.d3, d4=args.d4,
                            cross_corr=args.cross_corr, length=args.length,
                            truncation=args.truncation, seed=seed)
    sample = generate(spec)
    digest = _save(args, argv, spec.to_dict(), inputs=("spec_json",) if args.spec_json else (),
                   seed=spec.seed)
    for name, series in (("x", sample.x), ("y", sample.y)):
        # "\n" line ends: csv.DictWriter (_write_csv) would end each row in "\r\n"
        with open(_path(args, "out_dir") / f"simulated_{name}.csv", "w", newline="") as fh:
            fh.write(_result_header(digest) + "\n")
            fh.write(name + "\n")
            fh.writelines(f"{v:.17g}\n" for v in series.values)
    print(f"wrote simulated_x.csv, simulated_y.csv (N={spec.length}, seed={spec.seed})")
    return EXIT_OK


def _benchmark_table_rows(reports, method: str, q: float, cross_corrs):
    """Wide report layout: N x range-param down the side, (bias, sd, mse)
    per correlation level across."""
    rows = []
    cells = {(r.length, r.range_param, r.cross_corr): r
             for r in reports if r.method == method and r.q == q}
    for length in sorted({k[0] for k in cells}):
        for param in sorted({k[1] for k in cells if k[0] == length}):
            row = {"N": length, "range_param": param}
            for rho in cross_corrs:
                r = cells.get((length, param, rho))
                if r is None:
                    continue
                row[f"bias_rho{rho:g}"] = round(r.bias, 4)
                row[f"sd_rho{rho:g}"] = round(r.sd, 4)
                row[f"mse_rho{rho:g}"] = round(r.mse, 4)
            rows.append(row)
    return rows


def cmd_benchmark(args, argv) -> int:
    cross_corrs = _parse_list(args.cross_corrs, "--cross-corrs", float)
    cfg = BenchmarkConfig(
        lengths=_parse_list(args.lengths, "--lengths", int),
        cross_corrs=cross_corrs,
        qs=tuple(args.q) if args.q else (2.0, 4.0),
        replications=args.reps,
        dcca_n_min=_parse_list(args.n_min, "--n-min", int),
        dmca_s_max=_parse_list(args.s_max, "--s-max", int),
        master_seed=_resolve_seed(args),
        theta=args.theta,
    )

    def progress(rep):
        print(f"{rep.method} q={rep.q:g} N={rep.length} rho={rep.cross_corr:g} "
              f"param={rep.range_param}: bias={rep.bias:+.4f} sd={rep.sd:.4f} "
              f"mse={rep.mse:.4f} (n={rep.n_effective})")

    reports = run_benchmark(cfg, progress=progress)
    tables = [(f"benchmark_{method.lower()}_q{q:g}.csv", list(rows[0].keys()), rows)
              for method in ("DCCA", "DMCA") for q in cfg.qs
              if (rows := _benchmark_table_rows(reports, method, q, cross_corrs))]
    config = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(cfg).items()}
    _save(args, argv, config, tables=tables, json_name="benchmark.json",
          results=[r.to_dict() for r in reports])
    return EXIT_OK


def cmd_test(args, argv) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise InputError(f"--alpha {args.alpha} outside (0, 1)")
    pair = AlignedPair(*_load(args, "x_csv", "y_csv"))
    configs = _detrend_configs(args, len(pair))
    reports = surrogate_test(pair, configs[0], n_surrogates=args.surrogates,
                             iaaft=IaaftConfig(seed=_resolve_seed(args)),
                             qs=[c.q for c in configs])
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
    config = {"theta": args.theta, "returns": args.returns, "alpha": args.alpha,
              "n_surrogates": args.surrogates, "n_failed": reports[0].n_failed,
              "qs": [c.q for c in configs], "scales": list(configs[0].scale_grid)}
    _save(args, argv, config, inputs=("x_csv", "y_csv"),
          tables=[("surrogate_test.csv", list(rows[0].keys()), rows)],
          json_name="surrogate_test.json", results=rows)
    return EXIT_OK


def cmd_portfolio(args, argv) -> int:
    pair = AlignedPair(*_load(args, "x_csv", "y_csv"))
    configs = _detrend_configs(args, len(pair))
    metrics = portfolio_scan(pair, configs[0], qs=[c.q for c in configs])
    # Table layout: one row per (q, measure), scales across the columns.
    scales = sorted({m.scale for m in metrics})
    rows = []
    for q in sorted({m.q for m in metrics}):
        per_scale = {m.scale: m for m in metrics if m.q == q}
        rows.append({"q": q, "measure": "w_g",
                     **{f"s{s}": round(per_scale[s].w_g, 4) for s in scales}})
        rows.append({"q": q, "measure": "beta",
                     **{f"s{s}": round(per_scale[s].beta, 4) for s in scales}})
    config = {"theta": args.theta, "returns": args.returns,
              "qs": [c.q for c in configs], "scales": list(configs[0].scale_grid)}
    _save(args, argv, config, inputs=("x_csv", "y_csv"),
          tables=[("portfolio.csv", list(rows[0].keys()), rows)],
          json_name="portfolio.json", results=[m.to_dict() for m in metrics])
    for m in metrics:
        print(f"q={m.q:g} s={m.scale:>5d}  w_g={m.w_g:.4f}  beta={m.beta:+.4f}")
    return EXIT_OK


def cmd_describe(args, argv) -> int:
    result = describe(*_load(args, "x_csv")).to_dict()
    _save(args, argv, {"returns": args.returns, "column": args.column}, inputs=("x_csv",),
          json_name="describe.json", results=result)
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_rerun(args, _argv) -> int:
    manifest = _read_json(_path(args, "manifest"))
    stored = manifest.get("argv") if isinstance(manifest, dict) else None
    if not stored:
        raise InputError(f"{args.manifest}: manifest carries no argv to re-run")
    if manifest.get("tool_version") != __version__:
        raise InputError(f"{args.manifest}: written by tool version "
                         f"{manifest.get('tool_version')}, this is {__version__}")
    cwd, inputs = manifest.get("cwd"), manifest.get("input_digests", {})
    if not isinstance(inputs, dict):
        raise InputError(f"{args.manifest}: input_digests must be a JSON object")
    for name, digest in inputs.items():
        try:
            same = _file_digest(Path(cwd or "", name)) == digest
        except OSError:
            raise InputError(f"input {name} of {args.manifest} cannot be read") from None
        if not same:
            raise InputError(f"input {name} changed since {args.manifest} was written")
    # No os.chdir: main() also runs in-process, inside the caller's cwd.
    return _dispatch(stored, cwd=cwd)


_HANDLERS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
    "test": cmd_test,
    "portfolio": cmd_portfolio,
    "describe": cmd_describe,
    "rerun": cmd_rerun,
}


def _dispatch(argv, cwd=None) -> int:
    args = build_parser().parse_args(argv)
    args.cwd = cwd
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


if __name__ == "__main__":
    sys.exit(main())
