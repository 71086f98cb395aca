"""Checks of the program's result files.

Every check compares an output with a computation made apart from the
program (numpy recomputation, the brute-force oracle in tests/) or with a
property the method must have.  None compares with a stored copy of an
earlier output.  A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RHO_ORACLE_TOL = 1e-10
MSE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
ROUND4_TOL = 5e-5 + 1e-12  # result tables round to 4 decimals


class CheckError(Exception):
    """A result file contradicts its independent check."""


def require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def read_results(path: Path):
    return json.loads(Path(path).read_text())["results"]


def read_table(path: Path) -> list:
    """Rows of a result CSV, whose first line is the manifest comment."""
    with open(path, newline="") as fh:
        first = fh.readline()
        require(first.startswith("# fractal-xcorr"), f"{path}: missing manifest header")
        return list(csv.DictReader(fh))


def by_q_scale(rows) -> dict:
    out = {}
    for r in rows:
        key = (float(r["q"]), int(r["scale"]))
        require(key not in out, f"duplicate row for q={key[0]:g} s={key[1]}")
        out[key] = r
    return out


def log_grid(lo: int, hi: int, num: int) -> list:
    """The documented log:LO:HI:NUM grid: rounded geomspace, deduplicated."""
    return sorted({min(hi, max(lo, int(round(v)))) for v in np.geomspace(lo, hi, num)})


# --- describe -------------------------------------------------------------

def describe_expected(r: np.ndarray) -> dict:
    mean = float(np.sum(r) / r.size)
    dev = r - mean
    m2 = float(np.mean(dev**2))
    skew = float(np.mean(dev**3)) / m2**1.5
    kurt = float(np.mean(dev**4)) / m2**2
    jb = r.size * (skew**2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)
    return {
        "min": float(r.min()), "max": float(r.max()), "mean": mean,
        "std_dev": math.sqrt(float(np.sum(dev**2)) / (r.size - 1)),
        "skewness": skew, "kurtosis": kurt,
        "jarque_bera_statistic": jb,
        "jarque_bera_p_value": math.exp(-jb / 2.0),  # chi2(2) tail
    }


def check_describe(stats: dict, returns: np.ndarray, label: str):
    for key, want in describe_expected(returns).items():
        got = stats[key]
        require(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15),
                f"describe {label}: {key}={got!r}, recomputed {want!r}")


# --- correlation profiles -------------------------------------------------

def check_profile(rows, method: str, qs, scales):
    """Every (q, scale) once, the method named, |rho| <= 1 and never capped
    (for q > 0 the raw ratio is bounded by Cauchy-Schwarz)."""
    cells = by_q_scale(rows)
    want = {(float(q), s) for q in qs for s in scales}
    require(set(cells) == want, f"{method}: cells {sorted(cells)} != {sorted(want)}")
    for (q, s), r in cells.items():
        require(r["method"] == method, f"{method}: row names method {r['method']!r}")
        require(abs(r["rho"]) <= 1.0 and not r["capped"],
                f"{method} q={q:g} s={s}: rho={r['rho']} capped={r['capped']}")
    return cells


def check_close(got: float, want: float, tol: float, what: str):
    require(abs(got - want) <= tol, f"{what}: {got!r} vs independent {want!r} (tol {tol:g})")


def check_same_rho(cells_a: dict, cells_b: dict, what: str):
    """Cells present in both profiles carry bit-identical coefficients."""
    common = set(cells_a) & set(cells_b)
    require(bool(common), f"{what}: no common cells")
    for key in common:
        require(cells_a[key]["rho"] == cells_b[key]["rho"],
                f"{what} q={key[0]:g} s={key[1]}: {cells_a[key]['rho']} != {cells_b[key]['rho']}")


def dcca_rho(x: np.ndarray, y: np.ndarray, s: int, q: float) -> float:
    """Box-splitting coefficient at one scale, by least squares per box.

    Boxes run from the start and from the end of the profiles and are
    pooled; each box loses its least-squares line (solved with lstsq, not
    the closed form the program uses).
    """
    px, py = np.cumsum(x), np.cumsum(y)
    n = px.size
    ns = n // s
    design = np.column_stack([np.ones(s), np.arange(s, dtype=float)])

    def residuals(p):
        boxes = np.concatenate([p[: ns * s].reshape(ns, s), p[n - ns * s:].reshape(ns, s)]).T
        coef, *_ = np.linalg.lstsq(design, boxes, rcond=None)
        return (boxes - design @ coef).T

    rx, ry = residuals(px), residuals(py)
    fx = np.sqrt(np.mean(rx**2, axis=1))
    fy = np.sqrt(np.mean(ry**2, axis=1))
    cross = np.mean(rx * ry, axis=1)
    f_xy = np.mean(np.sign(cross) * np.abs(cross) ** (q / 2.0))
    return float(f_xy / math.sqrt(np.mean(fx**q) * np.mean(fy**q)))


# --- portfolio ------------------------------------------------------------

def check_portfolio(rows, fluct_by_q: dict, smallest: int, tol: float = RHO_ORACLE_TOL):
    """Clipping, and the raw weight and hedge ratio at the smallest scale
    against oracle fluctuation values {q: (F_x, F_y, F_xy)}."""
    cells = by_q_scale(rows)
    for (q, s), r in cells.items():
        require(r["w_g"] == min(1.0, max(0.0, r["w_g_raw"])),
                f"portfolio q={q:g} s={s}: w_g={r['w_g']} is not clip(w_g_raw={r['w_g_raw']})")
    for q, (f_x, f_y, f_xy) in fluct_by_q.items():
        r = cells[(float(q), smallest)]
        check_close(r["w_g_raw"], (f_y - f_xy) / (f_x - 2.0 * f_xy + f_y), tol,
                    f"portfolio w_g_raw q={q:g} s={smallest}")
        check_close(r["beta"], f_xy / f_x, tol, f"portfolio beta q={q:g} s={smallest}")


def check_weight_swap(rows, swapped_rows):
    """w(x, y) + w(y, x) = 1 for every raw weight."""
    a, b = by_q_scale(rows), by_q_scale(swapped_rows)
    require(set(a) == set(b), "portfolio: swapped pair has other cells")
    for key in a:
        total = a[key]["w_g_raw"] + b[key]["w_g_raw"]
        require(abs(total - 1.0) <= WEIGHT_SUM_TOL,
                f"portfolio q={key[0]:g} s={key[1]}: w(x,y)+w(y,x) = {total!r}")


# --- surrogate test -------------------------------------------------------

def expected_label(q: float, rho: float, p: float, alpha: float) -> str:
    dimension = {2.0: "hedge", 4.0: "safe haven"}.get(q, f"q={q:g} dependence")
    if p > alpha:
        return f"weak {dimension}"
    return f"strong {dimension}" if rho < 0 else f"no {dimension}"


def expected_stars(p: float) -> str:
    return "***" if p <= 0.01 else "**" if p <= 0.05 else "*" if p <= 0.10 else ""


def check_surrogate_rows(rows, qs, scales, n_surrogates: int, alpha: float):
    """p-values of the form k/(n+1) with 1 <= k <= n+1, and labels and
    stars that follow from p, rho and alpha."""
    cells = by_q_scale(rows)
    want = {(float(q), s) for q in qs for s in scales}
    require(set(cells) == want, f"test: cells {sorted(cells)} != {sorted(want)}")
    for (q, s), r in cells.items():
        p = float(r["p_value"])
        k = round(p * (n_surrogates + 1))
        require(1 <= k <= n_surrogates + 1 and abs(k / (n_surrogates + 1) - p) <= ROUND4_TOL,
                f"test q={q:g} s={s}: p={p} is not k/{n_surrogates + 1} in [1/(n+1), 1]")
        exact_p = k / (n_surrogates + 1)
        require(r["classification"] == expected_label(q, r["statistic"], exact_p, alpha),
                f"test q={q:g} s={s}: label {r['classification']!r} does not follow from p={p}")
        require(r["stars"] == expected_stars(exact_p),
                f"test q={q:g} s={s}: stars {r['stars']!r} do not follow from p={p}")
    return cells


def check_swap_symmetry(rows, swapped_rows):
    """Swapping the pair leaves every statistic and p-value unchanged."""
    a, b = by_q_scale(rows), by_q_scale(swapped_rows)
    require(set(a) == set(b), "test: swapped pair has other cells")
    for key in a:
        for field in ("statistic", "p_value"):
            require(a[key][field] == b[key][field],
                    f"test q={key[0]:g} s={key[1]}: {field} {a[key][field]} "
                    f"!= swapped {b[key][field]}")


def check_strong_negative(cells: dict, qs, scales, n_surrogates: int):
    """A strongly negatively correlated pair is a strong hedge (q=2) and a
    strong safe haven (q=4) at the smallest attainable p = 1/(n+1)."""
    p_min = 1.0 / (n_surrogates + 1)
    for q in qs:
        for s in scales:
            r = cells[(float(q), s)]
            require(r["classification"].startswith("strong ")
                    and abs(r["p_value"] - p_min) <= ROUND4_TOL,
                    f"test q={q:g} s={s}: {r['classification']!r} p={r['p_value']}, "
                    f"expected strong at p=1/{n_surrogates + 1}")


# --- Monte Carlo benchmark ------------------------------------------------

def expected_cells(lengths, cross_corrs, qs, s_max, n_min) -> set:
    """(method, N, rho, q, param); box-method fits need n_min < N/5."""
    cells = set()
    for n in lengths:
        for rho in cross_corrs:
            for q in qs:
                cells |= {("DMCA", n, rho, q, p) for p in s_max}
                cells |= {("DCCA", n, rho, q, p) for p in n_min if p < n // 5}
    return cells


def check_benchmark(results, reps: int, lengths, cross_corrs, qs, s_max, n_min) -> dict:
    cells = {}
    for r in results:
        key = (r["method"], r["N"], r["cross_corr"], r["q"], r["range_param"])
        require(key not in cells, f"benchmark: duplicate cell {key}")
        cells[key] = r
        require(r["n_effective"] == reps,
                f"benchmark {key}: n_effective={r['n_effective']} != {reps} replications")
        require(math.isfinite(r["bias"]) and r["sd"] >= 0.0,
                f"benchmark {key}: bias={r['bias']} sd={r['sd']}")
        require(abs(r["mse"] - (r["bias"] ** 2 + r["sd"] ** 2)) <= MSE_TOL,
                f"benchmark {key}: mse={r['mse']!r} != bias^2 + sd^2")
    want = expected_cells(lengths, cross_corrs, qs, s_max, n_min)
    require(set(cells) == want, f"benchmark: cells {sorted(cells)} != {sorted(want)}")
    return cells


def check_benchmark_table(table_rows, cells: dict, method: str, q: float, cross_corrs):
    """The wide CSV table carries the JSON cells rounded to 4 decimals."""
    seen = 0
    for row in table_rows:
        n, param = int(row["N"]), int(row["range_param"])
        for rho in cross_corrs:
            cell = cells[(method, n, rho, q, param)]
            for stat in ("bias", "sd", "mse"):
                got = float(row[f"{stat}_rho{rho:g}"])
                check_close(got, cell[stat], ROUND4_TOL,
                            f"benchmark table {method} q={q:g} N={n} {stat}")
            seen += 1
    want = sum(1 for k in cells if k[0] == method and k[3] == q)
    require(seen == want, f"benchmark table {method} q={q:g}: {seen} cells, JSON has {want}")
