"""Span tracing of degm's public functions, installed from outside the package.

A traced run replaces each public function of the degm modules, and a few
methods, with a wrapper that records a span (name, start, end, parent) in
memory. Modules import names from each other (``replay`` does
``from .nn import backward``), so a wrapper is installed under every module
global that refers to the original function, and methods are patched on their
classes. ``installed`` restores every original on exit. ``Tensor`` operators
are never wrapped: a run makes tens of thousands of them.

Besides time, some wrappers count work (rows, examples, bytes, flops) and the
distinct inputs a memo could key on. Hashing those keys is the tracer's own
work, so it runs in a ``trace.keying`` span of its own and is excluded from
every layer's self time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import importlib
import inspect
import math
import os
import time
import weakref
from collections import defaultdict

import numpy as np

MODULES = ("data", "rng", "nn", "vae", "replay", "graph", "bounds", "checkpoint", "cli")
METHODS = (("nn", "Mlp", "forward"), ("nn", "Mlp", "forward_np"), ("bounds", "HypothesisSnapshot", "reconstruct"))
# Rate fields and the count each divides by its span's inclusive time.
RATES = {"examples_per_s": "examples", "samples_per_s": "weighted_samples"}


class Tracer:
    """Spans kept in memory as parallel lists; one thread, strictly nested."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.keyed: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add_key(self, label: str, key) -> None:
        """Record one keyed unit of work; distinct keys over units is the memo ratio."""
        self.keys[label].add(key)
        self.keyed[label] += 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += own
        return out

    def write_csv(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "parent", "name", "start_s", "incl_s", "self_s"])
            for idx, own in enumerate(self.self_times()):
                writer.writerow(
                    [idx, self.parents[idx], self.names[idx], f"{self.starts[idx] - t0:.6f}",
                     f"{self.ends[idx] - self.starts[idx]:.6f}", f"{own:.6f}"]
                )


def layer_metric(tracer: Tracer, name: str, summary: dict | None = None) -> float:
    """Value of a per-layer metric named ``<span name>.<field>``.

    ``calls`` counts spans, ``s`` and ``self_s`` sum self time, rates divide a
    count by inclusive time, ``distinct_ratio``/``distinct_row_ratio`` divide
    distinct keys by keyed units, and any other field is a recorded count.
    Every value is 0 when the span never ran.
    """
    summary = tracer.summary() if summary is None else summary
    label, field = name.rsplit(".", 1)
    row = summary.get(label, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    if field == "calls":
        return float(row["calls"])
    if field in ("s", "self_s"):
        return row["self_s"]
    if field in RATES:
        count = tracer.counts[f"{label}.{RATES[field]}"]
        return count / row["incl_s"] if row["incl_s"] > 0 else 0.0
    if field in ("distinct_ratio", "distinct_row_ratio"):
        keyed = tracer.keyed[label]
        return len(tracer.keys[label]) / keyed if keyed else 0.0
    count_name = f"{label}.{field}"
    if count_name not in tracer.counts and row["calls"]:
        raise KeyError(f"no count recorded for {name}")
    return tracer.counts[count_name]


# ---------------------------------------------------------------------------
# Work counters, keyed by span name. Each receives the call's arguments; the
# ones that hash inputs do so inside a trace.keying span.


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _digest(*chunks: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


def _array_bytes(x) -> bytes:
    x = np.ascontiguousarray(x, dtype=np.float64)
    return repr(x.shape).encode() + x.tobytes()


class _ObjectDigests:
    """Content digest per live object, computed once; degm never mutates these inputs."""

    def __init__(self, payload):
        self._payload = payload
        self._by_id: dict[int, tuple] = {}

    def __call__(self, obj) -> bytes:
        hit = self._by_id.get(id(obj))
        if hit is not None and hit[0]() is obj:
            return hit[1]
        digest = _digest(self._payload(obj))
        self._by_id[id(obj)] = (weakref.ref(obj), digest)
        return digest


class _Counters:
    def __init__(self, tracer: Tracer):
        self.t = tracer
        self._snapshot_digest = _ObjectDigests(lambda snap: snap._frozen.param_bytes())
        self._sample_digest = _ObjectDigests(_array_bytes)

    def hook(self, when: str, label: str):
        """The ``before_``/``after_`` counter for a span name, or None."""
        return getattr(self, f"{when}_{label.replace('.', '_')}", None)

    def before_nn_Mlp_forward_np(self, label, args, kwargs):
        mlp, shape = args[0], np.shape(_arg(args, kwargs, 1, "x"))
        rows = math.prod(shape[:-1]) if len(shape) > 1 else 1
        self.t.counts[label + ".rows"] += rows
        macs = sum(w.data.size for w in mlp.weights)
        self.t.counts[label + ".gflop"] += 2.0 * rows * macs / 1e9

    def before_vae_iw_logpx_np(self, label, args, kwargs):
        x = _arg(args, kwargs, 1, "x")
        self.t.counts[label + ".weighted_samples"] += _arg(args, kwargs, 2, "k_prime") * np.shape(x)[0]

    def before_vae_recon_loglik_np(self, label, args, kwargs):
        y, x = _arg(args, kwargs, 0, "y"), _arg(args, kwargs, 1, "x")
        self.t.counts[label + ".elements"] += math.prod(np.broadcast_shapes(np.shape(y), np.shape(x)))

    def before_replay_run_training(self, label, args, kwargs):
        images, config = _arg(args, kwargs, 2, "images"), _arg(args, kwargs, 3, "config")
        self.t.counts[label + ".examples"] += np.shape(images)[0] * config.epochs

    def before_replay_generate_pseudo(self, label, args, kwargs):
        self.t.counts[label + ".samples"] += _arg(args, kwargs, 1, "n")

    def before_rng_content_keyed_normal(self, label, args, kwargs):
        rows = np.ascontiguousarray(_arg(args, kwargs, 0, "rows"), dtype=np.float64)
        cols, tag = _arg(args, kwargs, 1, "cols"), _arg(args, kwargs, 2, "label")
        draws = _arg(args, kwargs, 3, "draws", 1)
        self.t.counts[label + ".rows"] += rows.shape[0]
        prefix = f"{tag}/{cols}/{draws}/".encode()
        with self.t.span("trace.keying"):
            for row in rows:
                self.t.add_key(label, _digest(prefix, row.tobytes()))

    def before_graph_select_node(self, label, args, kwargs):
        graph, x = _arg(args, kwargs, 0, "graph"), _arg(args, kwargs, 1, "x")
        nodes = graph.all_nodes()
        self.t.counts[label + ".node_scorings"] += len(nodes)
        with self.t.span("trace.keying"):
            batch = _digest(_array_bytes(x))
            for node in nodes:
                self.t.add_key(label, (node.id, batch))

    def before_bounds_HypothesisSnapshot_reconstruct(self, label, args, kwargs):
        snap, x = args[0], _arg(args, kwargs, 1, "x")
        self.t.counts[label + ".rows"] += np.shape(x)[0]
        with self.t.span("trace.keying"):
            self.t.add_key(label, (self._snapshot_digest(snap), self._sample_digest(x)))

    def after_checkpoint_save_model(self, label, args, kwargs):
        self.t.counts[label + ".bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# ---------------------------------------------------------------------------
# Installing and removing the wrappers


def _wrap(fn, label: str, tracer: Tracer, counters: _Counters):
    before, after = counters.hook("before", label), counters.hook("after", label)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(label, args, kwargs)
        idx = tracer.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(label, args, kwargs)
        return result

    return wrapper


def _public_functions(module):
    """Public plain functions defined in ``module`` (context managers excluded)."""
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        if inspect.isgeneratorfunction(inspect.unwrap(obj)):
            continue
        yield name, obj


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Wrap every public function and the listed methods of ``package``'s modules.

    Yields the number of wrappers; every patched attribute is restored on exit.
    """
    modules = {short: importlib.import_module(f"{package}.{short}") for short in MODULES}
    counters = _Counters(tracer)
    wrappers: dict[int, tuple] = {}
    for short, module in modules.items():
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, _wrap(fn, f"{short}.{name}", tracer, counters))
    patches = []
    try:
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            patches.append((cls, meth, original))
            setattr(cls, meth, _wrap(original, f"{short}.{cls_name}.{meth}", tracer, counters))
        yield len(patches)
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
