"""Spans, counters and memory peaks for the traced run, and the scaling probe.

``install`` replaces each public function of the package, at every name a
caller resolves it by, with a wrapper that records a span (name, parent,
start, end) while the tracer is in ``"time"`` mode.  Spans stay in memory and
are written out at the end.  In ``"memory"`` mode the wrappers of the pair
kernels and ``separating_line`` instead record the peak of the allocations
each call makes, with ``tracemalloc`` running only inside that call.  With no
mode set, a wrapper only forwards the call.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import sys
import time
import tracemalloc

import numpy as np

# (span, "module:qualified name" of each wrapped function, counter)
TARGETS = (
    ("core.sequence", ("seqconvex.core:Sequence.__init__",), "sequence"),
    ("core.mediant", ("seqconvex.core:mediant_bounds",), None),
    ("classify.convex", ("seqconvex.classify:is_convex",), None),
    (
        "classify.pairs",
        (
            "seqconvex.classify:is_eps_convex",
            "seqconvex.classify:is_eps_affine",
            "seqconvex.classify:min_eps_convex",
            "seqconvex.classify:min_eps_affine",
        ),
        "pair",
    ),
    ("classify.wright", ("seqconvex.classify:is_wright_convex",), "wright"),
    ("decompose.gcm", ("seqconvex.decompose:gcm",), "gcm"),
    ("decompose.hyers", ("seqconvex.decompose:convex_approx_hyers",), None),
    ("decompose.optimal", ("seqconvex.decompose:convex_approx_optimal",), None),
    ("decompose.affine", ("seqconvex.decompose:affine_approx",), None),
    ("decompose.separating_line", ("seqconvex.decompose:separating_line",), None),
    ("extend.eval", ("seqconvex.extend:PiecewiseLinear.eval", "seqconvex.extend:PiecewiseLinear.eval_array"), "eval"),
    ("extend.triples", ("seqconvex.extend:check_eps_convex_function",), "triples"),
    ("oracle.generate", ("seqconvex.oracle:generate",), "generate"),
    ("cli.load", ("seqconvex.cli:load_sequence",), None),
    ("cli.render", ("seqconvex.cli:render_json",), "render"),
    ("cli.suite", ("seqconvex.cli:run_suite",), None),
)

#: Spans whose calls get a memory peak in the memory pass.
MEMORY_SPANS = {"classify.pairs": "classify.pairs_peak_mb", "decompose.separating_line": "decompose.separating_line_peak_mb"}

#: Self-time metric -> the spans it sums.  ``cli.main`` is the benchmark's
#: span around ``cli.main(...)``; its self time is click's parsing and dispatch.
SELF_METRICS = {
    "classify.wright_s": ("classify.wright",),
    "classify.pairs_s": ("classify.pairs",),
    "classify.convex_s": ("classify.convex",),
    "decompose.separating_line_s": ("decompose.separating_line",),
    "decompose.gcm_s": ("decompose.gcm",),
    "decompose.affine_self_s": ("decompose.affine",),
    "decompose.hyers_self_s": ("decompose.hyers",),
    "decompose.optimal_self_s": ("decompose.optimal",),
    "core.sequence_s": ("core.sequence",),
    "core.mediant_s": ("core.mediant",),
    "oracle.generate_s": ("oracle.generate",),
    "extend.eval_s": ("extend.eval",),
    "extend.triples_s": ("extend.triples",),
    "cli.load_s": ("cli.load",),
    "cli.render_s": ("cli.render",),
    "cli.command_self_s": ("cli.main", "cli.command"),
    "cli.suite_self_s": ("cli.suite",),
}

COUNT_METRICS = (
    "classify.wright_calls",
    "classify.wright_entries",
    "classify.pair_calls",
    "classify.pair_entries",
    "core.sequences_built",
    "core.entries_validated",
    "decompose.gcm_calls",
    "oracle.generate_calls",
    "cli.report_bytes",
    "extend.eval_points",
    "extend.triples_checked",
)


def _count(kind, counts, args, result):
    if kind == "sequence":
        counts["core.sequences_built"] += 1
        counts["core.entries_validated"] += len(args[0])
    elif kind == "pair":
        counts["classify.pair_calls"] += 1
        counts["classify.pair_entries"] += len(args[0])
    elif kind == "wright":
        counts["classify.wright_calls"] += 1
        counts["classify.wright_entries"] += len(args[0])
    elif kind == "gcm":
        counts["decompose.gcm_calls"] += 1
    elif kind == "generate":
        counts["oracle.generate_calls"] += 1
    elif kind == "eval":
        counts["extend.eval_points"] += int(np.size(args[1]))
    elif kind == "triples":
        counts["extend.triples_checked"] += result.checked
    elif kind == "render":
        counts["cli.report_bytes"] += len(result.encode("utf-8"))


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.mode = None  # None, "time" or "memory"
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.peaks: dict[str, int] = {}
        self.undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, gid: int) -> int:
        idx = len(self.spans)
        self.spans.append([gid, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def _span(self, gid):
        idx = self._open(gid)
        try:
            yield
        finally:
            self._close(idx)

    def span(self, name: str):
        """Span opened by the benchmark itself around a call into a layer."""
        if self.mode != "time":
            return contextlib.nullcontext()
        return self._span(self._id(name))

    def wrap(self, name: str, fn, counter=None):
        gid = self._id(name)
        peak_metric = MEMORY_SPANS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.mode == "time":
                stack = tracer.stack
                # a recursive call (render_json) stays inside its outer span
                if stack and tracer.spans[stack[-1]][0] == gid:
                    return fn(*args, **kwargs)
                idx = tracer._open(gid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if counter:
                    _count(counter, tracer.counts, args, result)
                return result
            if tracer.mode == "memory" and peak_metric and not tracemalloc.is_tracing():
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peaks[peak_metric] = max(tracer.peaks.get(peak_metric, 0), peak)
            return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target at every name that refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "seqconvex" or n.startswith("seqconvex.")]
        for name, refs, counter in TARGETS:
            for ref in refs:
                mod_name, qual = ref.split(":")
                owner = sys.modules[mod_name]
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, counter)
                if path:  # a method: the class attribute is the only name
                    self._patch(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        main = sys.modules["seqconvex.cli"].main
        for command in main.commands.values():
            self._patch(command, "callback", self.wrap("cli.command", command.callback))

    def _patch(self, owner, attr, value) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time each span's children cover."""
        child = [0.0] * len(self.spans)
        for gid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = collections.defaultdict(float)
        for k, (gid, parent, start, end) in enumerate(self.spans):
            out[self.names[gid]] += (end - start) - child[k]
        return out

    def write(self, path: str) -> None:
        """Write every span as a tab-separated row (times in microseconds)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_us\tduration_us\n")
            for k, (gid, parent, start, end) in enumerate(self.spans):
                fh.write(f"{k}\t{parent}\t{self.names[gid]}\t{(start - t0) * 1e6:.1f}\t{(end - start) * 1e6:.1f}\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation self times and counts, and the memory peaks."""
    selfs = tracer.self_times()
    out = {}
    for metric, spans in SELF_METRICS.items():
        out[metric] = sum(selfs.get(s, 0.0) for s in spans) / ops
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts[metric] / ops
    for metric in MEMORY_SPANS.values():
        out[metric] = tracer.peaks.get(metric, 0) / 2**20
    return out


def _best_times(fn, sizes, make, rounds: int) -> list[float]:
    """Best time of ``fn(make(m))`` per size; rounds visit every size in turn,
    so a burst of load on the machine hits all sizes alike."""
    args = [make(m) for m in sizes]
    best = [float("inf")] * len(sizes)
    for _ in range(rounds):
        for k, a in enumerate(args):
            start = time.perf_counter()
            fn(*a)
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def _slope(sizes, times) -> float:
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def scaling_probe(seed: int) -> dict[str, float]:
    """Fitted log-log slopes of time against length for four kernels.

    Times are the best of a few rounds on seeded uniform inputs; the
    ``separating_line`` envelopes are a concave and a convex parabola.
    """
    from seqconvex import Sequence, classify, decompose
    from seqconvex.core import QuantifierMode

    forall = QuantifierMode.FORALL
    rng = np.random.default_rng([seed, 4])

    def uniform(m):
        return (Sequence(rng.uniform(-1.0, 1.0, m)),)

    def envelopes(m):
        x = (np.arange(m) - m / 2.0) / m
        return Sequence(-(x**2)), Sequence(x**2 + 0.1)

    def pairs(u):
        classify.is_eps_convex(u, 0.5, forall)
        classify.min_eps_convex(u, forall)

    big, small = (1_000, 2_000, 4_000), (100, 200, 400)
    return {
        "classify.pairs_loglog_slope": _slope(big, _best_times(pairs, big, uniform, 3)),
        "decompose.separating_line_loglog_slope": _slope(
            big, _best_times(decompose.separating_line, big, envelopes, 3)
        ),
        "decompose.gcm_loglog_slope": _slope(big, _best_times(decompose.gcm, big, uniform, 9)),
        "classify.wright_loglog_slope": _slope(small, _best_times(classify.is_wright_convex, small, uniform, 3)),
    }
