"""Per-layer spans, call counts and memory peaks for the traced run.

Each layer is a public wavegal function, wrapped at the module attribute
its caller looks up at call time (``wavegal.cli.solve``, not
``wavegal.solve``), so nothing in the package changes.  A span records
its name, parent, start and end; a layer's self time is its duration
minus that of the wrapped calls nested in it.  Bookkeeping done after a
call (counting nonzeros, say) is timed and reported as ``overhead_s``,
which the caller subtracts from the run's wall time.

Memory peaks come from a thread that samples the process's resident
set every millisecond while a span that asked for a peak is open;
``tracemalloc`` would be exact but multiplies assembly time by about
six, which would make every traced time meaningless.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SAMPLE_S = 1e-3
USEFUL_RTOL = 1e-12  # |A_ij| >= USEFUL_RTOL * sqrt(A_ii A_jj) counts as useful


@dataclass
class Layer:
    """One wrapped function: metric prefix, where it is looked up, what to count."""

    name: str
    module: str
    attr: str
    peak: bool = False
    observe: Callable | None = None  # (tracer, args, result) -> None


def _count_basis(tr, args, result):
    tr.counts["basis.N"] += len(result)


def _count_stiffness(tr, args, A):
    coo = A.tocoo()
    d = A.diagonal()
    useful = np.abs(coo.data) >= USEFUL_RTOL * np.sqrt(np.abs(d[coo.row] * d[coo.col]))
    tr.counts["galerkin.nnz"] += int(coo.nnz)
    tr.counts["galerkin.useful"] += int(useful.sum())


def _count_eval(tr, args, result):
    tr.counts["galerkin.eval_points"] += int(np.size(args[1]))


LAYERS = (
    Layer("basis.build", "wavegal.cli", "enriched_basis", observe=_count_basis),
    Layer("galerkin.stiffness", "wavegal.galerkin", "assemble_stiffness", peak=True,
          observe=_count_stiffness),
    Layer("galerkin.load", "wavegal.galerkin", "assemble_load"),
    Layer("galerkin.solve", "wavegal.cli", "solve"),
    Layer("galerkin.kappa", "wavegal.cli", "condition_number"),
    Layer("analysis.errors", "wavegal.cli", "error_norms", peak=True),
    Layer("galerkin.eval", "wavegal.analysis", "evaluate_solution", observe=_count_eval),
    Layer("analysis.tail_energy", "wavegal.analysis", "tail_energy", peak=True),
    Layer("analysis.decay_probe", "wavegal.analysis", "coefficient_decay_probe"),
)


class _RssSampler:
    """Tracks the largest resident set seen while each watch is open."""

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._watches: list = []
        self._lock = threading.Lock()
        self._active = threading.Event()  # set while any watch is open
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def rss(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _loop(self):
        # sleeps on the event while no watch is open, so untracked code runs alone
        while self._active.wait() and not self._stop.is_set():
            now = self.rss()
            with self._lock:
                for w in self._watches:
                    w[1] = max(w[1], now)
            time.sleep(SAMPLE_S)

    def open(self) -> list:
        now = self.rss()
        w = [now, now]  # [rss at start, largest rss seen]
        with self._lock:
            self._watches.append(w)
            self._active.set()
        return w

    def close(self, w: list) -> int:
        """Peak resident bytes above the start of the watch."""
        now = self.rss()
        with self._lock:
            self._watches.remove(w)
            if not self._watches:
                self._active.clear()
        return max(w[1], now) - w[0]

    def stop(self):
        self._stop.set()
        self._active.set()
        self._thread.join()
        os.close(self._fd)


class Tracer:
    """Wraps the layers, keeps spans in memory, and sums them per layer."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list = []
        self.counts = {f"{lay.name}_calls": 0 for lay in layers}
        self.counts.update({"basis.N": 0, "galerkin.nnz": 0, "galerkin.useful": 0,
                            "galerkin.eval_points": 0})
        self.self_s = {lay.name: 0.0 for lay in layers}
        self.peak_mb = {lay.name: 0.0 for lay in layers if lay.peak}
        self.overhead_s = 0.0
        self._stack: list = []
        self._saved: list = []
        self._sampler = _RssSampler()
        self._t0 = time.perf_counter()

    def install(self):
        for lay in self.layers:
            mod = importlib.import_module(lay.module)
            real = getattr(mod, lay.attr)
            self._saved.append((mod, lay.attr, real))
            setattr(mod, lay.attr, self._wrap(lay, real))

    def uninstall(self):
        for mod, attr, real in reversed(self._saved):
            setattr(mod, attr, real)
        self._saved.clear()
        self._sampler.stop()

    def _wrap(self, lay: Layer, real: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": lay.name,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "children_s": 0.0}
            self.spans.append(span)
            self._stack.append(span)
            watch = self._sampler.open() if lay.peak else None
            span["start"] = time.perf_counter()
            returned = False
            try:
                result = real(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["end"] = end
                dur = end - span["start"]
                if self._stack:
                    self._stack[-1]["children_s"] += dur
                self.self_s[lay.name] += dur - span["children_s"]
                self.counts[f"{lay.name}_calls"] += 1
                if watch is not None:
                    mb = self._sampler.close(watch) / 2**20
                    span["peak_mb"] = mb
                    self.peak_mb[lay.name] = max(self.peak_mb[lay.name], mb)
                if returned and lay.observe is not None:
                    lay.observe(self, args, result)
                spent = time.perf_counter() - end
                self.overhead_s += spent
                if self._stack:  # keep bookkeeping out of the enclosing span
                    self._stack[-1]["children_s"] += spent

        wrapper.__wrapped__ = real
        return wrapper

    def metrics(self) -> dict:
        """Layer totals: self times, call counts, counters and peaks."""
        out = {f"{name}_s": v for name, v in self.self_s.items()}
        out.update({k: v for k, v in self.counts.items() if k != "galerkin.useful"})
        nnz = self.counts["galerkin.nnz"]
        out["galerkin.useful_ratio"] = self.counts["galerkin.useful"] / nnz if nnz else 0.0
        out.update({f"{name}_peak_mb": v for name, v in self.peak_mb.items()})
        return out

    def span_records(self) -> list:
        """Spans relative to the tracer's creation, for the trace file."""
        return [
            {k: (v - self._t0 if k in ("start", "end") else v)
             for k, v in s.items() if k != "children_s"}
            for s in self.spans
        ]
