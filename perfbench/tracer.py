"""Spans and counters around the program's layer functions, from outside.

A hook replaces one function of the package by a wrapper, in every
fractal_xcorr module that holds it under that name (modules that imported
it with ``from .x import name`` included), and restores the originals on
``uninstall``.  A hook whose function no longer exists is recorded as
missing; the run goes on without it.

Spans carry name, start, end and parent index and stay in memory until
``dump``.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "fractal_xcorr"


def _digest(array) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent]
        self._stack = []
        self.ops = []  # per-op {"self_s": {...}, "counts": {...}, "distinct": {...}}
        self.missing = []
        self._patches = []  # (module, attr, original)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def begin_op(self):
        self._op_first_span = len(self.spans)
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self._digests = {}  # id -> (array, digest); holding the array keeps its id unique
        self._root = self._open("op")

    def end_op(self):
        self._close(self._root)
        spans = self.spans[self._op_first_span:]
        base = self._op_first_span
        child_ns = defaultdict(int)
        for name, start, end, parent in spans:
            if parent >= base:
                child_ns[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans, start=base):
            self_s[name] += (end - start - child_ns[i]) * 1e-9
        self.ops.append({
            "wall_s": (self.spans[self._root][2] - self.spans[self._root][1]) * 1e-9,
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        })
        self._digests.clear()

    def digest(self, array) -> bytes:
        """Content digest of an array, computed once per array per operation."""
        hit = self._digests.get(id(array))
        if hit is None:
            hit = self._digests[id(array)] = (array, _digest(array))
        return hit[1]

    # -- hooks ------------------------------------------------------------

    def hook(self, module: str, attr: str, span: str, on_call=None, before=None):
        """Wrap module.attr in a span.  before(args, kwargs) runs ahead of
        the call and its value reaches on_call(tracer, args, kwargs,
        result, pre), which runs after the call; both stay outside the span."""
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            original = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            idx = tracer._open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_call is not None:
                on_call(tracer, args, kwargs, result, pre)
            return result

        wrapper.__wrapped__ = original
        for name, m in list(sys.modules.items()):
            if m is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._patches.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def dump(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(meta, missing=self.missing, ops=self.ops,
                       span_fields=["name", "start_ns", "end_ns", "parent"], spans=self.spans)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


# -- the layer hooks ---------------------------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count(key: str):
    def on_call(t, args, kwargs, result, pre):
        t.counts[key] += 1
    return on_call


def _load_csv(t, args, kwargs, result, pre):
    t.counts["series.load_csv_calls"] += 1
    t.counts["series.load_csv_rows"] += len(result)


def _moving_average(t, args, kwargs, result, pre):
    t.counts["fluctuation.moving_average_calls"] += 1
    t.counts["fluctuation.moving_average_madds"] += (
        len(_arg(args, kwargs, 0, "profile")) * _arg(args, kwargs, 1, "n"))


def _segment_stats(method: str):
    def on_call(t, args, kwargs, result, pre):
        px, py, s = args[0], args[1], args[2]
        theta = _arg(args, kwargs, 3, "theta") if method == "dma" else None
        t.counts[f"fluctuation.{method}_segment_stats_calls"] += 1
        t.distinct["segment_stats"].add((method, t.digest(px), t.digest(py), s, theta))
    return on_call


def _generate(t, args, kwargs, result, pre):
    t.counts["mc_arfima.generate_calls"] += 1
    t.counts["mc_arfima.generate_points"] += len(result.x) + len(result.y)


def _estimate_all(t, args, kwargs, result, pre):
    t.counts["estimates"] += len(result)
    t.counts["estimates_effective"] += sum(v is not None for v in result.values())


def _iaaft_key(args, kwargs):
    # the generator state must be read before the call advances it
    x, n_rows, rng = args[0], args[1], args[3]
    return (_digest(x), n_rows, repr(rng.bit_generator.state))


def _iaaft(t, args, kwargs, result, pre):
    t.counts["surrogate.iaaft_calls"] += 1
    t.counts["surrogate.iaaft_rows"] += args[1]
    t.counts["surrogate.single_rows"] += args[1] == 1  # a retry rebuilds one x and one y row
    t.counts["surrogate.ensemble_bytes"] += result.nbytes
    t.distinct["iaaft"].add(pre)


def install_layer_hooks(tracer: Tracer):
    """Wrap every layer function the per-layer metrics are read from."""
    for attr in ("_write_manifest", "_write_csv", "_write_json"):
        tracer.hook("cli", attr, "cli.write")
    tracer.hook("series", "load_csv", "series.load_csv", _load_csv)
    tracer.hook("series", "describe", "series.describe")
    tracer.hook("fluctuation", "moving_average", "fluctuation.moving_average", _moving_average)
    tracer.hook("fluctuation", "_dma_segment_stats", "fluctuation.dma_segment_stats",
                _segment_stats("dma"))
    tracer.hook("fluctuation", "_dcca_segment_stats", "fluctuation.dcca_segment_stats",
                _segment_stats("dcca"))
    tracer.hook("fluctuation", "aggregate_q", "fluctuation.aggregate_q",
                _count("fluctuation.aggregate_q_calls"))
    tracer.hook("scaling", "fit_power_law", "scaling.fit_power_law",
                _count("scaling.fit_power_law_calls"))
    tracer.hook("mc_arfima", "generate", "mc_arfima.generate", _generate)
    tracer.hook("benchmark", "_estimate_all", "benchmark.estimate_all", _estimate_all)
    tracer.hook("surrogate", "_iaaft_ensemble", "surrogate.iaaft", _iaaft, before=_iaaft_key)
    tracer.hook("surrogate", "_rho_all_scales", "surrogate.scoring",
                _count("surrogate.scoring_calls"))
    tracer.hook("portfolio", "portfolio_scan", "portfolio.portfolio_scan")
