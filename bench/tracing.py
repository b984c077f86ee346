"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: ``install`` replaces
public functions and methods of the library at the names their callers look
them up, for the duration of a traced pass, and puts the originals back
afterwards.  Each span stores (name, start, end, parent, request id); a span's
self time is its duration minus the time its child spans cover, so within one
request the self times of all spans add up to the request's duration.
"""

import array
import contextlib
import functools
import os
import time
from collections import Counter

import numpy as np

PAIRWISE = "divergences.pairwise"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.request_id = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.child = array.array("d")
        self.counts = Counter()
        self.after = {}  # span name -> hook(result, args) run after the span closes
        self._stack = []
        self._request = -1

    @property
    def active(self):
        return bool(self._stack)

    def current(self):
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_id.append(self._request)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())

    def finish(self):
        t = time.perf_counter()
        i = self._stack.pop()
        self.end[i] = t
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span, when a request is open."""
        if not self._stack:
            return fn(*args, **kwargs)
        self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.finish()
        hook = self.after.get(name)
        if hook is not None:
            hook(result, args)
        return result

    def wrap(self, name, fn, unless_inside=None):
        """Traced stand-in for ``fn``; calls made inside span ``unless_inside`` pass through."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if unless_inside is not None and self.current() == unless_inside:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def request(self, request_id):
        self._request = request_id
        self.begin("request")
        try:
            yield
        finally:
            self.finish()
            self._request = -1

    def columns(self):
        """Span table as numpy arrays plus the name list."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request_id": np.frombuffer(self.request_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "child": np.frombuffer(self.child, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, **self.columns())


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _register_counters(tracer):
    counts = tracer.counts

    def pairwise(result, args):
        _, P, C = args[:3]
        rows, cols, d = np.shape(P)[0], np.shape(C)[0], np.shape(P)[-1]
        counts["divergences.pairwise.pairs"] += rows * cols
        counts["divergences.pairwise.bytes_min"] += (rows * d + cols * d + rows * cols) * 8

    def find_k_median(result, args):
        counts["ptas.subsets_examined"] += result.meta.get("subsets_examined", 0)

    def optimal_bruteforce(result, args):
        counts["oracle.assignments_examined"] += result.assignments_examined

    def lloyd(result, args):
        counts["oracle.lloyd.iterations"] += result.meta.get("iterations", 0)

    def ingest_csv(result, args):
        counts["cli.ingest_csv.bytes"] += os.path.getsize(args[0])

    tracer.after.update({
        PAIRWISE: pairwise,
        "ptas.find_k_median": find_k_median,
        "oracle.optimal_bruteforce": optimal_bruteforce,
        "oracle.lloyd": lloyd,
        "cli.ingest_csv": ingest_csv,
    })


@contextlib.contextmanager
def install(tracer, measure_classes):
    """Route the library's layer boundaries through ``tracer`` while the block runs."""
    import d2ptas.cli as cli
    import d2ptas.ptas as ptas
    from d2ptas.sampler import RngStream

    _register_counters(tracer)
    patches = _Patches()
    try:
        patches.set(ptas, "d2_sample", tracer.wrap("sampler.weighted_draw", ptas.d2_sample))
        tree_draw = tracer.wrap("sampler.weighted_draw", ptas.weighted_draw)

        def weighted_draw(*args, **kwargs):
            # only the exhaustive tree looks weighted_draw up in ptas: one call per node
            if tracer.active:
                tracer.counts["ptas.nodes_expanded"] += 1
            return tree_draw(*args, **kwargs)

        patches.set(ptas, "weighted_draw", weighted_draw)
        patches.set(ptas, "assign", tracer.wrap("divergences.assign", ptas.assign))
        patches.set(ptas.CenterSet, "add", tracer.wrap("sampler.center_add", ptas.CenterSet.add))
        patches.set(cli, "find_k_median", tracer.wrap("ptas.find_k_median", cli.find_k_median))
        patches.set(cli, "kmeanspp_seed", tracer.wrap("ptas.kmeanspp_seed", cli.kmeanspp_seed))
        patches.set(cli, "lloyd", tracer.wrap("oracle.lloyd", cli.lloyd))
        patches.set(cli, "ingest_csv", tracer.wrap("cli.ingest_csv", cli.ingest_csv))

        derive = RngStream.derive

        @functools.wraps(derive)
        def counted_derive(self, index):
            if tracer.active:
                tracer.counts["sampler.derive.calls"] += 1
            return derive(self, index)

        patches.set(RngStream, "derive", counted_derive)
        build = vars(RngStream)["generator"].fget

        def generator(self):
            if not tracer.active:
                return build(self)
            before = vars(self).get("_gen")
            gen = tracer.call("sampler.generator", build, self)
            if gen is not before:
                tracer.counts["sampler.generator.built"] += 1
            return gen

        patches.set(RngStream, "generator", property(generator))
        for cls in measure_classes:
            patches.set(cls, "pairwise", tracer.wrap(PAIRWISE, cls.pairwise))
            # a rowwise call made by pairwise is that kernel's own work, not a separate call
            patches.set(cls, "rowwise", tracer.wrap("divergences.rowwise", cls.rowwise,
                                                    unless_inside=PAIRWISE))
        yield tracer
    finally:
        patches.restore()


def _durations(cols):
    dur = cols["end"] - cols["start"]
    return dur, dur - cols["child"]


def self_time_closure(cols):
    """Largest relative gap, over requests, between summed self times and the request's duration.

    Infinite when a span has negative self time, i.e. its children overlap.
    """
    dur, self_time = _durations(cols)
    if self_time.size and self_time.min() < -1e-9:
        return float("inf")
    per_request = np.bincount(cols["request_id"], weights=self_time)
    roots = np.flatnonzero(cols["parent"] < 0)
    if roots.size == 0:
        return 0.0
    rid = cols["request_id"][roots]
    return float(np.max(np.abs(per_request[rid] - dur[roots]) / dur[roots]))


def module_metrics(tracer, requests):
    """Per-module metrics from a traced pass, normalised per request.

    Keys absent from the returned dict are layers the workload never entered;
    rates are omitted when their denominator is zero.
    """
    cols = tracer.columns()
    dur, self_time = _durations(cols)
    stats = {}
    for nid, name in enumerate(cols["names"]):
        mask = cols["name_id"] == nid
        stats[str(name)] = {"calls": int(mask.sum()), "self_s": float(self_time[mask].sum()),
                            "total_s": float(dur[mask].sum())}
    counts = tracer.counts

    def span(name, field):
        return stats.get(name, {}).get(field, 0.0)

    out = {}

    def per_request(key, value, unit):
        out[key] = (value / requests, unit)

    def rate(key, num, den):
        if num > 0 and den > 0:
            out[key] = (num / den, "1/s")

    for name in (PAIRWISE, "divergences.rowwise", "sampler.generator", "sampler.weighted_draw",
                 "sampler.center_add"):
        if name in stats:
            per_request(f"{name}.calls", span(name, "calls"), "count/op")
            per_request(f"{name}.self_s", span(name, "self_s"), "s/op")
    for name in ("divergences.assign", "ptas.find_k_median", "ptas.kmeanspp_seed",
                 "oracle.optimal_bruteforce", "oracle.lloyd", "cli.run_experiment",
                 "cli.ingest_csv"):
        if name in stats:
            per_request(f"{name}.self_s", span(name, "self_s"), "s/op")
    for key, unit in (("divergences.pairwise.pairs", "count/op"),
                      ("divergences.pairwise.bytes_min", "B/op"),
                      ("sampler.generator.built", "count/op"),
                      ("sampler.derive.calls", "count/op"),
                      ("ptas.subsets_examined", "count/op"),
                      ("ptas.nodes_expanded", "count/op"),
                      ("oracle.assignments_examined", "count/op"),
                      ("oracle.lloyd.iterations", "count/op"),
                      ("cli.ingest_csv.bytes", "B/op")):
        if counts.get(key):
            per_request(key, counts[key], unit)
    rate("divergences.pairwise.pairs_per_s", counts["divergences.pairwise.pairs"],
         span(PAIRWISE, "self_s"))
    rate("ptas.subsets_per_s", counts["ptas.subsets_examined"], span("ptas.find_k_median", "total_s"))
    rate("oracle.assignments_per_s", counts["oracle.assignments_examined"],
         span("oracle.optimal_bruteforce", "self_s"))
    per_request("bench.request.self_s", span("request", "self_s"), "s/op")
    return out
