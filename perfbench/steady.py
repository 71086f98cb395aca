"""Steadiness of the benchmark: two sets of runs, made apart in time.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json once per seed (1..RUNS, the
same seeds in both sets, workloads interleaved), untraced, for its
run_seconds; the second set starts GAP_S seconds after the first ends.
For every end-to-end metric it prints each set's median and quartiles,
the spread (q3 - q1) / median, and the drift of the second median against
the first, next to the metric's bound; and the share of failed operations
in each set.  The summary is also written to
.perfbench_out/steady-<unix time>.json.

A metric is steady when its spread is below a third of its bound in both
sets and its drift, in either direction, stays within the bound: two sets
of identical code should agree.  The exit code is 0 only if every metric
is steady, every run was correct and the failed shares agree.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10  # runs per workload and set
GAP_S = 60.0  # seconds between the two sets


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": time.perf_counter() - t0, "result": result,
            "stderr": proc.stderr[-2000:] if result is None else ""}


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_drift(first: float, second: float, better: str) -> float:
    """Relative change of the second median, positive when it is worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(sets: list, spec: dict, workloads: list) -> tuple:
    rows, ok = [], True
    for w in workloads:
        per_set = [[r for r in runs if r["workload"] == w] for runs in sets]
        if any(r["result"] is None or not r["result"]["correct"] for runs in per_set for r in runs):
            ok = False
            rows.append({"workload": w, "error": "a run failed or was incorrect"})
            continue
        shares = [sum(r["result"]["failed"] for r in runs) / sum(r["result"]["attempted"] for r in runs)
                  for runs in per_set]
        ok &= len(set(shares)) == 1
        for m in spec["end_to_end"]:
            stats = [summarise([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                     for runs in per_set]
            drift = worse_drift(stats[0]["median"], stats[-1]["median"], m["better"])
            steady = (all(s["spread"] < m["bound"] / 3 for s in stats)
                      and abs(drift) <= m["bound"])
            ok &= steady
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                         "bound": m["bound"], "sets": stats, "worse_drift": drift,
                         "failed_shares": shares, "steady": steady})
    return rows, ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for k in range(2):
        if k:
            time.sleep(GAP_S)
        runs = []
        for seed in range(1, RUNS + 1):
            for w in workloads:
                runs.append(one_run(w, seed, spec["run_seconds"]))
                r = runs[-1]
                print(f"set {k + 1} {w} seed {seed}: exit {r['exit']} in {r['wall_s']:.1f} s "
                      + (json.dumps(r["result"]["metrics"]) if r["result"] else r["stderr"]),
                      file=sys.stderr, flush=True)
        sets.append(runs)

    rows, ok = compare(sets, spec, workloads)
    for row in rows:
        if "error" in row:
            print(f"{row['workload']}: {row['error']}")
            continue
        a, b = row["sets"]
        print(f"{row['workload']:<15} {row['metric']:<13} "
              f"set1 {a['median']:.4f} [{a['q1']:.4f}, {a['q3']:.4f}] spread {a['spread']:.3f}  "
              f"set2 {b['median']:.4f} [{b['q1']:.4f}, {b['q3']:.4f}] spread {b['spread']:.3f}  "
              f"drift {row['worse_drift']:+.3f} bound {row['bound']}  "
              f"failed {row['failed_shares']}  {'steady' if row['steady'] else 'NOT STEADY'}")
    out = ROOT / ".perfbench_out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"rows": rows, "sets": sets}, indent=1) + "\n")
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
