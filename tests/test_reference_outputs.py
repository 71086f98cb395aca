"""Every CLI command's outputs against a committed reference.

The inputs are made here from fixed seeds with numpy: Student-t returns in
the benchmark's style, with volatility clustering for the gold / oil /
currency trio.  Each run goes through ``main()`` in-process, from a work
directory with relative paths, and records its exit code, stdout, stderr,
warnings and every file it leaves in its out-dir.  Result files are
compared without their header line and manifests without ``cwd``: both
depend on where the run took place.

Numbers with more than 4 decimals or an exponent are full-precision floats
and must match to 1e-12 relative; everything else (strings, integers,
booleans, 4-decimal cells) must match exactly.

The reference is rewritten only on purpose, when a change moves outputs:

    PYTHONPATH=src python tests/test_reference_outputs.py --write-reference
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fractal_xcorr.cli import main

REFERENCE = Path(__file__).with_name("reference_outputs.json")
RTOL = 1e-12
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")

PAPER_CORRS = {"oil": 0.2, "currency": -0.5}  # innovation correlation with gold
T_DOF = 4

# (name, argv, out-dir whose files are recorded or None), run in this order
# from the work directory
RUNS = [
    ("describe", ["describe", "gold.csv", "--column", "close", "--out-dir", "describe"],
     "describe"),
    ("describe-flat", ["describe", "flat.csv", "--column", "close", "--out-dir", "flat"],
     "flat"),
    ("analyze-dmca", ["analyze", "gold.csv", "oil.csv", "--column", "close",
                      "--q", "2", "--q", "4", "--q", "-2", "--out-dir", "dmca"], "dmca"),
    ("analyze-dcca", ["analyze", "gold.csv", "currency.csv", "--column", "close",
                      "--method", "q-DCCA", "--scales", "log:10:400:8", "--out-dir", "dcca"],
     "dcca"),
    ("portfolio-oil", ["portfolio", "gold.csv", "oil.csv", "--column", "close",
                       "--out-dir", "portfolio-oil"], "portfolio-oil"),
    ("portfolio-currency", ["portfolio", "gold.csv", "currency.csv", "--column", "close",
                            "--q", "4", "--q", "2", "--scales", "10,50,250",
                            "--out-dir", "portfolio-currency"], "portfolio-currency"),
    ("test-forward", ["test", "x.csv", "y.csv", "--column", "close", "--surrogates", "100",
                      "--scales", "10,30,100,250", "--out-dir", "test-forward"], "test-forward"),
    ("test-swapped", ["test", "y.csv", "x.csv", "--column", "close", "--surrogates", "100",
                      "--scales", "10,30,100,250", "--out-dir", "test-swapped"], "test-swapped"),
    ("benchmark", ["benchmark", "--reps", "10", "--lengths", "500", "--cross-corrs", "0.1,0.9",
                   "--n-min", "10,20", "--s-max", "20,50", "--q", "2", "--q", "-2",
                   "--q", "4", "--out-dir", "benchmark"], "benchmark"),
    ("simulate", ["simulate", "--d1", "0.3", "--d2", "0.1", "--d3", "0.25", "--d4", "0.35",
                  "--cross-corr", "-0.6", "--length", "200", "--truncation", "400",
                  "--seed", "5", "--out-dir", "simulate"], "simulate"),
    ("rerun", ["rerun", "benchmark/benchmark_manifest.json"], "benchmark"),
    ("bad-scales", ["analyze", "gold.csv", "oil.csv", "--column", "close",
                    "--scales", "10,5000", "--out-dir", "bad"], "bad"),
]


def _rng(tag: int, seed: int):
    return np.random.default_rng(np.random.SeedSequence([tag, seed]))


def _returns(rng, n: int, corrs, clustered: bool) -> np.ndarray:
    """Rows [base, other_1, ...] of heavy-tailed returns whose innovations
    correlate with the base row at the given levels."""
    z = rng.standard_normal((1 + len(corrs), n))
    scale = 1e-3 * np.sqrt(T_DOF / rng.chisquare(T_DOF, n)) * np.sqrt((T_DOF - 2) / T_DOF)
    if clustered:  # exp of an AR(1) log-variance path
        shocks = 0.15 * rng.standard_normal(n)
        h = np.empty(n)
        h[0] = shocks[0]
        for t in range(1, n):
            h[t] = 0.97 * h[t - 1] + shocks[t]
        scale = scale * np.exp(h)
    rows = [z[0]] + [c * z[0] + np.sqrt(1.0 - c * c) * z[k] for k, c in enumerate(corrs, 1)]
    return np.array(rows) * scale


def _price_text(returns) -> str:
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    return "minute,close\n" + "".join(f"{i},{float(p)!r}\n" for i, p in enumerate(prices))


def input_texts() -> dict:
    """{file name: CSV text} of every input: a 2,000-return trio, a
    1,000-return pair for the surrogate test and a constant price series."""
    trio = _returns(_rng(1, 21), 2000, list(PAPER_CORRS.values()), clustered=True)
    pair = _returns(_rng(2, 21), 1000, [-0.8], clustered=False)
    texts = {f"{name}.csv": _price_text(row) for name, row in zip(["gold", *PAPER_CORRS], trio)}
    texts.update({f"{name}.csv": _price_text(row) for name, row in zip("xy", pair)})
    texts["flat.csv"] = _price_text(np.zeros(20))
    return texts


def _recorded_file(path: Path) -> list:
    """The lines of one output file as compared: a manifest without cwd, a
    result file without its header line."""
    text = path.read_text()
    if path.name.endswith("_manifest.json"):
        manifest = json.loads(text)
        manifest.pop("cwd")
        return json.dumps(manifest, indent=2, sort_keys=True).splitlines()
    lines = text.splitlines()
    if path.suffix == ".json":  # {"manifest": digest, "results": ...}
        return json.dumps(json.loads(text)["results"], indent=2).splitlines()
    assert lines[0].startswith("# fractal-xcorr v"), path
    return lines[1:]


def run_all(work: Path) -> dict:
    """Write the inputs into work, run every command of RUNS there and
    return {"inputs": {name: sha256}, "runs": {name: record}}."""
    work.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for name, text in input_texts().items():
        (work / name).write_text(text)
        inputs[name] = hashlib.sha256(text.encode()).hexdigest()
    runs = {}
    here = os.getcwd()
    os.chdir(work)  # main() runs in-process, so argv paths are relative to work
    try:
        with mock.patch.dict(os.environ):
            os.environ.pop("FRACTAL_XCORR_SEED", None)
            for name, argv, out_dir in RUNS:
                out, err = io.StringIO(), io.StringIO()
                with (warnings.catch_warnings(record=True) as caught,
                      contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
                    warnings.simplefilter("always")
                    code = main(list(argv))
                files = sorted(Path(out_dir).iterdir()) if Path(out_dir).is_dir() else []
                runs[name] = {
                    "argv": argv, "exit": code,
                    "stdout": out.getvalue().splitlines(),
                    "stderr": err.getvalue().splitlines(),
                    "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
                    "files": {p.name: _recorded_file(p) for p in files},
                }
    finally:
        os.chdir(here)
    return {"inputs": inputs, "runs": runs}


def _full_precision(token: str) -> bool:
    return "e" in token.lower() or "." in token and len(token.split(".")[1]) > 4


def _same_line(want: str, got: str) -> bool:
    """Lines equal outside their numbers, and number by number equal, or
    within RTOL where either side is a full-precision float."""
    if want == got:
        return True
    if NUMBER.split(want) != NUMBER.split(got):  # also fails on unequal number counts
        return False
    return all(a == b or (_full_precision(a) or _full_precision(b))
               and math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=0.0)
               for a, b in zip(NUMBER.findall(want), NUMBER.findall(got)))


def mismatches(want: dict, got: dict) -> list:
    """Every difference between two runs dicts, one line each."""
    found = []

    def lines(where, a, b):
        if len(a) != len(b):
            found.append(f"{where}: {len(a)} lines in the reference, {len(b)} now")
        found.extend(f"{where} line {i + 1}: {x!r} != {y!r}"
                     for i, (x, y) in enumerate(zip(a, b)) if not _same_line(x, y))

    for name in sorted(set(want) | set(got)):
        if name not in want or name not in got:
            found.append(f"{name}: run only in {'the reference' if name in want else 'this run'}")
            continue
        a, b = want[name], got[name]
        for key in ("argv", "exit"):
            if a[key] != b[key]:
                found.append(f"{name} {key}: {a[key]!r} != {b[key]!r}")
        for key in ("stdout", "stderr", "warnings"):
            lines(f"{name} {key}", a[key], b[key])
        if sorted(a["files"]) != sorted(b["files"]):
            found.append(f"{name} files: {sorted(a['files'])} != {sorted(b['files'])}")
        for file in sorted(set(a["files"]) & set(b["files"])):
            lines(f"{name} {file}", a["files"][file], b["files"][file])
    return found


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_inputs_match_reference(outputs, reference):
    assert outputs["inputs"] == reference["inputs"], (
        "inputs moved (numpy's generator or float formatting changed), not the outputs")


def test_outputs_match_reference(outputs, reference):
    assert outputs["inputs"] == reference["inputs"]
    assert mismatches(reference["runs"], outputs["runs"]) == []


def test_swapped_test_equals_forward(outputs):
    forward, swapped = outputs["runs"]["test-forward"], outputs["runs"]["test-swapped"]
    assert forward["exit"] == 0 and forward["stdout"]
    for key in ("stdout", "stderr", "warnings"):
        assert swapped[key] == forward[key]
    for name in ("surrogate_test.csv", "surrogate_test.json"):
        assert swapped["files"][name] == forward["files"][name]


def _perturbed(runs: dict, factor: float) -> dict:
    """A copy of runs with the first full-precision float of the first result
    file that holds one multiplied by factor."""
    runs = json.loads(json.dumps(runs))
    for record in runs.values():
        for lines in record["files"].values():
            for i, line in enumerate(lines):
                for m in NUMBER.finditer(line):
                    if _full_precision(m.group()) and float(m.group()) != 0.0:
                        new = repr(float(m.group()) * factor)
                        lines[i] = line[:m.start()] + new + line[m.end():]
                        return runs
    raise AssertionError("no full-precision float in the runs")


def test_comparison_catches_a_1e9_relative_change(reference):
    runs = reference["runs"]
    assert mismatches(runs, runs) == []
    assert len(mismatches(runs, _perturbed(runs, 1.0 + 1e-9))) == 1
    assert mismatches(runs, _perturbed(runs, 1.0 + 1e-14)) == []


@pytest.mark.parametrize("want, got, same", [
    ("500,20,0.1234,-0.0021", "500,20,0.1234,-0.0021", True),
    ("500,20,0.1234,-0.0021", "500,20,0.1235,-0.0021", False),  # a 4-decimal cell
    ("500,20,0.1234", "500,21,0.1234", False),  # an integer
    ("q=2 rho=0.123456789012345", "q=2 rho=0.1234567890123456", True),
    ("q=2 rho=0.123456789012345", "q=2 rho=0.123456789112345", False),
    ('"capped": false,', '"capped": true,', False),
    ("bias_rho0.5", "bias_rho0.9", False),  # a label, not a number
    ("x 1.2345678e-05", "x 1.2345678000001e-05", True),
])
def test_line_comparison(want, got, same):
    assert _same_line(want, got) is same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-reference", action="store_true", required=True,
                        help=f"run every command and overwrite {REFERENCE.name}")
    parser.parse_args()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = run_all(Path(tmp))
    REFERENCE.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {REFERENCE} ({len(result['runs'])} runs)", file=sys.stderr)
