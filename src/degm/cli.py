"""Run orchestration: config parsing, experiment commands, metrics export.

Commands
--------
``degm train``         fit a method on a task stream, write artifacts
``degm eval``          score a checkpoint on a stream
``degm diagnose``      turn recorded snapshots into bound-term traces
``degm export-plots``  emit whitespace plot-data files from run artifacts

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime error.

Config is JSON; command-line flags override file values. The full key set
with defaults lives in ``CONFIG_DEFAULTS``; unknown keys are rejected so
typos fail loudly. ``metrics.csv`` is byte-deterministic for a fixed seed,
so its ``wall_ms`` column is always 0; real timing lives in report.json.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import itertools
import json
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import checkpoint as ckpt_mod
from . import graph as graph_mod
from . import replay as replay_mod
from . import rng as rng_mod
from . import vae as vae_mod
from .data import (
    DataFormatError,
    TaskStream,
    binarize,
    check_task_specs,
    load_idx,
    make_cross_domain_stream,
    make_split_stream,
)
from .graph import ArchSpec, train_degm_sequence
from .nn import InvalidSpecError
from .replay import NonFiniteError, TrainConfig, run_gr_sequence
from .vae import build_vae

METRICS_COLUMNS = [
    "run_id",
    "seed",
    "method",
    "task_index",
    "eval_task",
    "nll",
    "elbo",
    "kl_term",
    "recon_term",
    "k_prime",
    "epoch",
    "wall_ms",
]

LEDGER_COLUMNS = [
    "t",
    "nll_per_task",
    "avg_nll",
    "source_risk",
    "target_risk",
    "empirical_discrepancy",
    "slack",
    "kl_gap",
    "residual",
    "accounting",
]

SCHEMA_VERSION = 1

# diagnose.csv's bound-term columns and the lelbo_breakdown keys they hold
_DIAGNOSE_TERMS = {
    "source_risk": "source_risk_elbo",
    "discrepancy": "empirical_discrepancy",
    "kl_gap": "kl_gap",
    "target_risk": "target_risk_elbo",
}


class ConfigError(ValueError):
    """Configuration is missing, malformed, or inconsistent."""


CONFIG_DEFAULTS = {
    "method": None,  # required
    "stream": None,  # required: list of task specs, or a split-stream object
    "seed": 0,
    "k_prime": 1,
    "tau": None,
    "epochs": 10,
    "batch_size": 64,
    "learning_rate": 1e-3,
    "replay_ratio": 1.0,
    "warm_start": True,
    "output_dir": None,
    "width": 12,
    "height": 12,
    "train_per_task": 2000,
    "test_per_task": 500,
    "binarize": "stochastic",  # stochastic | threshold_0.5 | none
    "likelihood": "bernoulli",
    "normalize_recon": False,
    "latent_dim": 16,
    "trunk_widths": [128],
    "decoder_widths": [128],
    "hidden_activation": "tanh",
    "eval_k_prime": 200,
    "diagnostics": {
        "enabled": False,
        "snapshot_every": 1,
        "pool_size": 64,
        "sample_size": 1000,
    },
}

_POSITIVE_INT_FIELDS = (
    "k_prime",
    "epochs",
    "batch_size",
    "train_per_task",
    "test_per_task",
    "latent_dim",
    "eval_k_prime",
    "width",
    "height",
)


def parse_config(source, overrides: dict | None = None) -> dict:
    """Merge defaults, a JSON config (path or dict), and flag overrides.

    Overrides win over the file, the file wins over defaults. Unknown keys
    and invalid values raise ConfigError naming the offender.
    """
    cfg = copy.deepcopy(CONFIG_DEFAULTS)
    if source is not None:
        if isinstance(source, (str, os.PathLike)):
            try:
                with open(source) as f:
                    loaded = json.load(f)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {source}")
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file {source} is not valid JSON: {err}")
        else:
            loaded = source
        _merge(cfg, loaded, context="config")
    if overrides:
        _merge(cfg, overrides, context="flags")
    _validate(cfg)
    return cfg


def _merge(cfg: dict, updates: dict, context: str) -> None:
    if not isinstance(updates, dict):
        raise ConfigError(f"{context}: expected an object, got {type(updates).__name__}")
    for key, value in updates.items():
        if key not in cfg:
            raise ConfigError(f"{context}: unknown key {key!r}")
        if key == "diagnostics":
            if not isinstance(value, dict):
                raise ConfigError("diagnostics: expected an object")
            for dk, dv in value.items():
                if dk not in cfg["diagnostics"]:
                    raise ConfigError(f"diagnostics: unknown key {dk!r}")
                cfg["diagnostics"][dk] = dv
        elif value is not None:
            cfg[key] = value


def _validate(cfg: dict) -> None:
    if cfg["method"] is None:
        raise ConfigError("missing required field 'method'")
    if not isinstance(cfg["method"], str) or cfg["method"] not in METHODS:
        raise ConfigError(f"method must be one of {tuple(METHODS)}, got {cfg['method']!r}")
    if cfg["stream"] is None:
        raise ConfigError("missing required field 'stream'")
    stream = cfg["stream"]
    if isinstance(stream, dict):
        if stream.get("kind") != "split":
            raise ConfigError("a stream object must have kind 'split'")
        allowed = {"kind", "train_images", "train_labels", "test_images", "test_labels", "groups"}
        unknown = set(stream) - allowed
        if unknown:
            raise ConfigError(f"split stream: unknown keys {sorted(unknown)}")
        for key in ("train_images", "test_images", "groups"):
            if key not in stream:
                raise ConfigError(f"split stream is missing {key!r}")
        if not isinstance(stream["groups"], (list, tuple)) or not stream["groups"]:
            raise ConfigError("split stream 'groups' must be a non-empty list of label lists")
    elif not isinstance(stream, (list, tuple)):
        raise ConfigError("'stream' must be a list of task specs or a split-stream object")
    else:
        try:
            check_task_specs(stream)
        except DataFormatError as err:
            raise ConfigError(str(err))
    for spec in [stream] if isinstance(stream, dict) else stream:
        for key in ("train_images", "train_labels", "test_images", "test_labels", "idx_images", "idx_labels"):
            if isinstance(spec, dict) and key in spec and not isinstance(spec[key], str):
                raise ConfigError(f"IDX path {key!r} must be a path string, got {spec[key]!r}")
    for name in _POSITIVE_INT_FIELDS:
        _require_int(cfg[name], name, 1)
    if _require_finite(cfg["learning_rate"], "learning_rate") <= 0:
        raise ConfigError(f"field 'learning_rate' must be > 0, got {cfg['learning_rate']!r}")
    if _require_finite(cfg["replay_ratio"], "replay_ratio") < 0:
        raise ConfigError(f"field 'replay_ratio' must be >= 0, got {cfg['replay_ratio']!r}")
    if cfg["tau"] is not None:
        _require_finite(cfg["tau"], "tau")
    if isinstance(cfg["seed"], bool) or not isinstance(cfg["seed"], int):
        raise ConfigError(f"field 'seed' must be an integer, got {cfg['seed']!r}")
    if cfg["binarize"] not in ("stochastic", "threshold_0.5", "none"):
        raise ConfigError(f"unknown binarize mode {cfg['binarize']!r}")
    if cfg["likelihood"] not in vae_mod.LIKELIHOODS:
        raise ConfigError(f"unknown likelihood {cfg['likelihood']!r}")
    if cfg["output_dir"] is not None and not isinstance(cfg["output_dir"], str):
        raise ConfigError(f"field 'output_dir' must be a path string, got {cfg['output_dir']!r}")
    diag = cfg["diagnostics"]
    for name, value in (("warm_start", cfg["warm_start"]), ("normalize_recon", cfg["normalize_recon"]),
                        ("diagnostics.enabled", diag["enabled"])):
        if not isinstance(value, bool):
            raise ConfigError(f"field {name!r} must be true or false, got {value!r}")
    if not all(isinstance(cfg[k], list) for k in ("trunk_widths", "decoder_widths")):
        raise ConfigError("trunk_widths and decoder_widths must be lists of layer widths")
    try:
        METHODS[cfg["method"]].family.check(cfg)
    except InvalidSpecError as err:
        raise ConfigError(f"widths, latent_dim and hidden_activation give no valid model: {err}")
    _require_int(diag["pool_size"], "diagnostics.pool_size", 2)
    _require_int(diag["snapshot_every"], "diagnostics.snapshot_every", 1)
    _require_int(diag["sample_size"], "diagnostics.sample_size", 1)


def _require_finite(value, name: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"field {name!r} must be a finite number, got {value!r}")
    return value


def _require_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"field {name!r} must be an integer >= {minimum}, got {value!r}")
    return value


def run_id_of(cfg: dict) -> str:
    """Deterministic run identity: hash of the config minus its output path."""
    canon = {k: v for k, v in cfg.items() if k != "output_dir"}
    payload = json.dumps(canon, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def build_stream(cfg: dict) -> TaskStream:
    """The configured task stream; data that is not ``width`` x ``height`` is a data error."""
    if isinstance(cfg["stream"], dict):
        stream = _build_split_stream(cfg)
    else:
        stream = make_cross_domain_stream(
            cfg["stream"],
            n_train=cfg["train_per_task"],
            n_test=cfg["test_per_task"],
            width=cfg["width"],
            height=cfg["height"],
            seed=cfg["seed"],
            binarize_mode=None if cfg["binarize"] == "none" else cfg["binarize"],
        )
    if stream.dim != cfg["width"] * cfg["height"]:
        raise DataFormatError(
            f"{stream.tasks[0].train.name}: flat dimension {stream.dim} does not match the "
            f"configured {cfg['width']}x{cfg['height']} geometry"
        )
    return stream


def _build_split_stream(cfg: dict) -> TaskStream:
    spec = cfg["stream"]
    train = load_idx(spec["train_images"], spec.get("train_labels"))
    test = load_idx(spec["test_images"], spec.get("test_labels"))
    if cfg["binarize"] != "none":
        train = binarize(train, cfg["binarize"], seed=rng_mod.derive_seed(cfg["seed"], "split/train"))
        test = binarize(test, cfg["binarize"], seed=rng_mod.derive_seed(cfg["seed"], "split/test"))
    return make_split_stream(train, test, spec["groups"])


def _train_config(cfg: dict) -> TrainConfig:
    k_prime = cfg["k_prime"] if METHODS[cfg["method"]].iw_bound else 1
    return TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        k_prime=k_prime,
        replay_ratio=cfg["replay_ratio"],
        seed=cfg["seed"],
        warm_start=cfg["warm_start"],
    )


def _arch(cfg: dict) -> ArchSpec:
    data_dim = cfg["width"] * cfg["height"]
    return ArchSpec(
        data_dim=data_dim,
        inter_dim=cfg["trunk_widths"][0],
        latent_dim=cfg["latent_dim"],
        feat_dim=cfg["decoder_widths"][0],
        hidden_activation=cfg["hidden_activation"],
        likelihood=cfg["likelihood"],
        normalize_recon=cfg["normalize_recon"],
    )


def _vae_geometry(cfg: dict) -> tuple:
    """The leading arguments of ``vae.vae_specs`` and ``build_vae`` for a replay run."""
    return (cfg["width"] * cfg["height"], cfg["latent_dim"], tuple(cfg["trunk_widths"]),
            tuple(cfg["decoder_widths"]), cfg["likelihood"], cfg["hidden_activation"])


def _vae(cfg: dict, seed: int):
    return build_vae(*_vae_geometry(cfg), normalize_recon=cfg["normalize_recon"], seed=seed)


def _check_graph(cfg: dict) -> None:
    """A graph run needs a threshold, records no snapshots, and has a valid ``ArchSpec``."""
    if METHODS[cfg["method"]].tau is None and cfg["tau"] is None:
        raise ConfigError(f"method {cfg['method']!r} requires 'tau'")
    if cfg["diagnostics"]["enabled"]:
        raise ConfigError("diagnostics snapshots are only recorded for elbo_gr/iwelbo_gr runs")
    if [len(cfg["trunk_widths"]), len(cfg["decoder_widths"])] != [1, 1]:
        raise ConfigError("graph methods take exactly one trunk width and one decoder width")
    _arch(cfg)


class _Family(NamedTuple):
    """What ``cmd_train`` runs for a family of methods. Its functions look up module
    globals when called, so a wrapper bound over one after import (a tracer's) runs."""

    check: object  # cfg: the model's own geometry checks; no weights are built
    train: object  # (stream, cfg, TrainConfig, tau, recorder) -> yields (task-end state, task_metrics)
    checkpoint: str  # the final checkpoint's file name
    save: object  # (path, model): writes that checkpoint
    partition: object  # t -> the ledger's task partition after task t
    selection: object  # task_records -> each evaluation's node-selection accuracy, or None
    load: object  # path -> the model that checkpoint holds; another family's is a CheckpointError
    evaluate: object  # (state, stream, t, j, seed, k_prime, memo) -> task t's state's eval on task j


_REPLAY = _Family(
    check=lambda cfg: vae_mod.vae_specs(*_vae_geometry(cfg)),
    train=lambda stream, cfg, train_cfg, tau, recorder: run_gr_sequence(
        stream, lambda seed: _vae(cfg, seed), train_cfg, recorder and recorder.hook
    ),
    checkpoint="model.bin",
    save=lambda path, model: ckpt_mod.save_model(path, model),
    partition=lambda t: [set(range(1, t + 1))],
    selection=lambda task_records: None,
    load=lambda path: ckpt_mod.load_model(path),
    evaluate=lambda model, stream, t, j, seed, k, memo: replay_mod.evaluate_task(model, stream, t, j, seed, k),
)
_GRAPH = _Family(
    check=_check_graph,
    train=lambda stream, cfg, train_cfg, tau, recorder: train_degm_sequence(stream, _arch(cfg), train_cfg, tau),
    checkpoint="graph.bin",
    save=lambda path, graph: ckpt_mod.save_graph(path, graph),
    partition=lambda t: [{i} for i in range(1, t + 1)],
    selection=lambda task_records: [[e["selection_accuracy"] for e in r["evals"]] for r in task_records],
    load=lambda path: ckpt_mod.load_graph(path),
    # every task end takes the final evaluation's noise label, so one memo spans them (graph.evaluate_task)
    evaluate=lambda graph, stream, t, j, seed, k, memo: {**graph_mod.evaluate_task(
        graph, stream.tasks[j - 1].test.images, true_task=j, eval_k_prime=k, rng_seed=seed,
        rng_label=f"degm/eval/after{len(stream)}/task{j}", memo=memo.setdefault(j, {})), "eval_task": j},
)


class _Method(NamedTuple):
    family: _Family
    iw_bound: bool  # trains on the K'-sample bound
    tau: float | None  # a fixed expansion threshold; None takes the config's


METHODS = {
    "elbo_gr": _Method(_REPLAY, False, None),
    "iwelbo_gr": _Method(_REPLAY, True, None),
    "degm_elbo": _Method(_GRAPH, False, None),
    "degm_iwelbo": _Method(_GRAPH, True, None),
    "degm2": _Method(_GRAPH, False, -math.inf),  # a Basic node for every task
}


class _SnapshotRecorder:
    """Writes the untrained model and per-epoch snapshots of a replay run plus
    each task's mixed training sample, and remembers every file it wrote.
    ``entries`` is ``meta.json``'s list: file names are relative to ``dir``."""

    def __init__(self, out_dir: str, cfg: dict):
        self.dir = os.path.join(out_dir, "snapshots")
        os.makedirs(self.dir, exist_ok=True)
        self.every = cfg["diagnostics"]["snapshot_every"]
        self.sample_size = cfg["diagnostics"]["sample_size"]
        self.seed = cfg["seed"]
        self.entries: list[dict] = []
        self.epochs_per_task = cfg["epochs"]
        self._saved_mixed: set[int] = set()
        self.written: list[str] = []
        self._write("snap_t00_e00.bin", ckpt_mod.save_model, _vae(cfg, cfg["seed"]))
        self.entries.append({"task": 0, "epoch": 0, "global_epoch": 0, "snapshot": "snap_t00_e00.bin"})

    def _write(self, name: str, save, obj) -> None:
        path = os.path.join(self.dir, name)
        save(path, obj)
        self.written.append(path)

    def hook(self, task: int, epoch: int, model, mixed, record) -> None:
        if epoch % self.every != 0 and epoch != self.epochs_per_task:
            return
        mixed_name = f"mixed_t{task:02d}.npy"
        if task not in self._saved_mixed:
            if len(mixed) > self.sample_size:
                idx = rng_mod.stream(self.seed, f"diag/sample/task{task}").choice(
                    len(mixed), size=self.sample_size, replace=False
                )
                mixed = mixed[idx]
            self._write(mixed_name, np.save, mixed)
            self._saved_mixed.add(task)
        name = f"snap_t{task:02d}_e{epoch:02d}.bin"
        self._write(name, ckpt_mod.save_model, model)
        self.entries.append(
            {
                "task": task,
                "epoch": epoch,
                "global_epoch": (task - 1) * self.epochs_per_task + epoch,
                "snapshot": name,
                "mixed": mixed_name,
            }
        )

    def finish(self) -> None:
        path = os.path.join(self.dir, "meta.json")
        with open(path, "w") as f:
            json.dump({"entries": self.entries, "epochs_per_task": self.epochs_per_task}, f, indent=1)
        self.written.append(path)

    def discard(self) -> None:
        """Remove every file written so far, and the directory if that empties it."""
        for path in self.written:
            os.remove(path)
        if not os.listdir(self.dir):
            os.rmdir(self.dir)


_ENTRY_FIELDS = {"task": int, "epoch": int, "global_epoch": int, "snapshot": str}


def _breakdowns(snap_dir: str, entries, stream: TaskStream, pool_size: int, seed: int,
                rng_label: str, task_end_only: bool = False, normalize_risks: bool = False):
    """Yield ``(entry, lelbo_breakdown)`` for every recorded entry of task >= 1,
    or for each task's last entry only.

    ``entries`` is ``meta.json``'s list, walked by task, then epoch. An
    entry's pool is the last ``pool_size`` snapshots up to and including its
    own, and its noise is keyed by ``rng_label.format(**entry)``. Each task
    makes two passes over the span of snapshots its rows' pools reach: the
    first reconstructs the pooled target sets and keeps each row's pair-loss
    matrix, the second reconstructs the task's mixed sample and yields each
    row as soon as its pool is complete. Every pass loads its snapshots from
    disk, one model alive at a time, and writes one ``ReconstructionTable``
    into a float64 buffer the whole walk reuses, so only one sample set's
    reconstructions are alive at once; the buffer grows, once no view of it
    is left, to the largest span times the larger sample set. A malformed
    entry list or mixed sample is a DataFormatError before anything is
    computed on it.
    """
    n_tasks = len(stream.tasks)
    if not isinstance(entries, list) or not all(_entry_ok(e, n_tasks) for e in entries):
        raise DataFormatError(
            f"{snap_dir}: snapshot entries must be a list of objects with integer task "
            f"(0..{n_tasks}), epoch and global_epoch, a snapshot name and, from task 1 on, "
            "a mixed sample name"
        )
    entries = sorted(entries, key=lambda e: (e["task"], e["epoch"]))
    last = {e["task"]: i for i, e in enumerate(entries)}
    rows = [i for i, e in enumerate(entries) if e["task"] and (last[e["task"]] == i or not task_end_only)]
    buffer = np.empty(0)
    for task, task_rows in itertools.groupby(rows, key=lambda i: entries[i]["task"]):
        task_rows = list(task_rows)
        first, end = task_rows[0], task_rows[-1] + 1  # a task's rows are contiguous
        lo = max(0, first + 1 - pool_size)  # the first row's pool starts the span
        targets = [stream.tasks[t].test.images for t in range(task)]
        mixed = _load_mixed(os.path.join(snap_dir, entries[first]["mixed"]), stream.dim)
        sets = (bounds_mod.pooled_targets(targets), mixed)
        size = (end - lo) * max(x.size for x in sets)
        pair_losses = {}  # each row's on the pooled targets, kept for the second pass
        for x in sets:
            table = None  # release the last pass's views before the buffer grows
            if buffer.size < size:
                del buffer  # freed before its successor is allocated
                buffer = np.empty(size)
            table = bounds_mod.ReconstructionTable(x, end - lo, buffer)
            for i in range(lo, end):
                e = entries[i]
                model = None  # one loaded model alive at a time
                model = ckpt_mod.load_model(os.path.join(snap_dir, e["snapshot"]))
                table.add(bounds_mod.HypothesisSnapshot(model, {"task": e["task"], "epoch": e["epoch"]}))
                if i < first:
                    continue
                window = table.pair_losses(max(0, i + 1 - pool_size) - lo, i + 1 - lo)
                if x is not mixed:
                    pair_losses[i] = window
                    continue
                yield e, bounds_mod.lelbo_breakdown(
                    model,
                    targets,
                    mixed,
                    pair_losses.pop(i),
                    window,
                    rng=rng_mod.stream(seed, rng_label.format(**e)),
                    normalize_risks=normalize_risks,
                )


def _entry_ok(e, n_tasks: int) -> bool:
    return (
        isinstance(e, dict)
        and all(type(e.get(k)) is kind for k, kind in _ENTRY_FIELDS.items())
        and 0 <= e["task"] <= n_tasks
        and (e["task"] == 0 or type(e.get("mixed")) is str)
    )


def _load_mixed(path: str, dim: int) -> np.ndarray:
    """A task's recorded mixed sample: a non-empty (n, dim) array, else a data error."""
    try:
        mixed = np.load(path)
    except (OSError, ValueError) as err:
        raise DataFormatError(f"{path}: cannot read a mixed sample: {err}")
    if not (isinstance(mixed, np.ndarray) and mixed.ndim == 2 and len(mixed) and mixed.shape[1] == dim):
        raise DataFormatError(f"{path}: mixed samples must be a non-empty 2-D array with "
                              f"{dim} columns, got shape {np.shape(mixed)}")
    return mixed


def _cell(value) -> str:
    """How a run's CSV artifacts write a value: None as an empty cell, a float
    (numpy's too) as its shortest round-trip repr, a list as its cells joined
    by ";", a dict as key-sorted JSON, anything else as ``str``."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _write_csv(path, columns, rows) -> None:
    """A header of ``columns``, then one line of ``_cell``s per row dict; a missing key is empty."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(col)) for col in columns])


def _cpus() -> int:
    """CPUs of this process's affinity mask (the CPU count where there is none)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker_jobs(t: int, n_tasks: int) -> range:
    """A worker's eval tasks at task end t of ``n_tasks``: all of them, but the first half at the last."""
    return range(1, (t if t < n_tasks else n_tasks // 2) + 1)


def _score(family: _Family, state, stream: TaskStream, t: int, j: int, seed: int, k_prime: int, memo) -> dict:
    """One task-end job: task t's state on task j. A non-finite NLL raises ``NonFiniteError``."""
    record = family.evaluate(state, stream, t, j, seed, k_prime, memo)
    if not math.isfinite(record["nll"]):
        raise NonFiniteError(f"NLL {record['nll']} on test task {j} after task {t}")
    return record


def _fork_pool(workers: int, initializer=None, initargs=()):
    """A ``ProcessPoolExecutor`` of ``workers`` processes forked now, after this process hands its free
    heap pages back; each runs ``initializer(*initargs)``, which it inherits at the fork, unpickled."""
    import ctypes
    import multiprocessing  # off the import path: a run on one CPU forks nothing
    from concurrent.futures import ProcessPoolExecutor
    getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)(0)  # the workers inherit no free heap pages
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), initializer, initargs)
    pool.submit(int)  # the executor forks its workers at the first submit
    return pool


_inputs = None  # an evaluation worker's (family, stream, seed, k_prime), set by its pool's initializer


def _set_inputs(*inputs) -> None:
    global _inputs
    _inputs = inputs


def _worker_job(t: int, state, memo: dict) -> tuple[dict, dict]:
    """In an evaluation worker: task end t's records by (t, j) for each eval task j that ``memo``
    holds an entry of, and ``memo`` with those entries filled in."""
    family, stream, seed, k_prime = _inputs
    return {(t, j): _score(family, state, stream, t, j, seed, k_prime, memo) for j in memo}, memo


def evaluate_task_ends(family: _Family, states, stream: TaskStream, seed: int, k_prime: int,
                       pool=None) -> list[dict]:
    """For each task t, ``{"task": t, "evals": ...}``: the t-th of ``states``, scored as it arrives, on
    tasks 1..t, one memo across every t. A ``pool`` (one worker, initialized by ``_set_inputs``) takes
    each task end's ``_worker_jobs`` with their memo entries, once it has answered the task end before.
    A non-finite NLL raises ``NonFiniteError``; the worker's jobs come first in (t, j) order, so its
    error wins, as serially."""
    records, memo, ends, pending = {}, {}, 0, []

    def collect():  # the pending job's records and memo entries; raises its error
        while pending:
            done, entries = pending.pop().result()
            records.update(done)
            memo.update(entries)

    try:
        for ends, state in enumerate(states, 1):
            first = 1
            if pool is not None:
                collect()
                jobs = _worker_jobs(ends, len(stream))
                # pickled after submit returns: nothing here writes these entries before collect()
                pending.append(pool.submit(_worker_job, ends, state, {j: memo.get(j, {}) for j in jobs}))
                first = len(jobs) + 1
            for j in range(first, ends + 1):
                records[ends, j] = _score(family, state, stream, ends, j, seed, k_prime, memo)
        collect()
    except Exception:
        collect()  # raises the worker's error, the earlier one
        raise
    return [{"task": t, "evals": [records[t, j] for j in range(1, t + 1)]} for t in range(1, ends + 1)]


def cmd_train(cfg: dict, _eval_worker: bool = True) -> dict:
    """Train one run and write report.json, metrics.csv, ledger.csv, checkpoint."""
    t_start = time.monotonic()
    out_dir = cfg["output_dir"] or f"runs/{cfg['method']}-seed{cfg['seed']}"
    stream = build_stream(cfg)  # before the directory, so a data error leaves none
    run_id = run_id_of(cfg)
    train_cfg = _train_config(cfg)
    family, _, tau = METHODS[cfg["method"]]
    tau = cfg["tau"] if tau is None else tau
    recorder, model, train_metrics = None, None, []

    def states():  # each task-end state, handed on as soon as training makes it
        nonlocal model
        for model, metrics in family.train(stream, cfg, train_cfg, tau, recorder):
            train_metrics.append(metrics)
            yield model

    spare = _eval_worker and len(stream) > 1 and _cpus() > 1  # forked before training: a small heap
    pool = _fork_pool(1, _set_inputs, (family, stream, cfg["seed"], cfg["eval_k_prime"])) if spare else None
    try:
        os.makedirs(out_dir, exist_ok=True)
        recorder = _SnapshotRecorder(out_dir, cfg) if cfg["diagnostics"]["enabled"] else None
        task_records = evaluate_task_ends(family, states(), stream, cfg["seed"], cfg["eval_k_prime"], pool)
    except NonFiniteError:
        # a diverged run leaves no checkpoint and no snapshots behind
        if recorder is not None:
            recorder.discard()
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if recorder is not None:
        recorder.finish()
    checkpoint_path = os.path.join(out_dir, family.checkpoint)
    family.save(checkpoint_path, model)
    nll_matrix = [[e["nll"] for e in record["evals"]] for record in task_records]

    # ledger: one record per task with every seen test NLL; with diagnostics
    # enabled the bound-term breakdown at each task boundary fills the rest
    ledger = []
    breakdowns = {}
    if recorder is not None:
        walk = _breakdowns(recorder.dir, recorder.entries, stream, cfg["diagnostics"]["pool_size"],
                           cfg["seed"], "ledger/breakdown/t{task}", task_end_only=True)
        breakdowns = {e["task"]: b for e, b in walk}
    for record, nlls in zip(task_records, nll_matrix):
        accounting = bounds_mod.assignment_summary(
            bounds_mod.AssignmentLog.from_partition(record["task"], family.partition(record["task"]))
        )
        extra = breakdowns.get(record["task"], {})
        ledger.append(
            {
                "t": record["task"],
                "nll_per_task": nlls,
                "avg_nll": float(np.mean(nlls)),
                "source_risk": extra.get("source_risk_elbo"),
                "target_risk": extra.get("target_risk_elbo"),
                "empirical_discrepancy": extra.get("empirical_discrepancy"),
                "slack": extra.get("slack"),
                "kl_gap": extra.get("kl_gap"),
                "residual": extra.get("residual"),
                "accounting": {
                    "K": accounting["K"],
                    "C": accounting["C"],
                    "C_prime": accounting["C_prime"],
                    "accumulated_term_counts": {
                        str(k): v for k, v in accounting["accumulated_term_counts"].items()
                    },
                },
            }
        )
    ledger_path = os.path.join(out_dir, "ledger.csv")
    _write_csv(ledger_path, LEDGER_COLUMNS, ledger)
    with open(os.path.join(out_dir, "ledger.json"), "w") as f:
        f.write(json.dumps({"records": ledger}, sort_keys=True))

    # one row per training epoch, then one per evaluation (its eval_task, nll and
    # bound terms); a column a row lacks is an empty cell
    base = {"run_id": run_id, "seed": cfg["seed"], "method": cfg["method"], "wall_ms": 0}
    rows = [
        {**base, "task_index": tm["task"], "elbo": -rec["objective"], "k_prime": train_cfg.k_prime,
         "epoch": (tm["task"] - 1) * cfg["epochs"] + rec["epoch"]}
        for tm in train_metrics
        for rec in tm["epochs"]
    ] + [
        {**base, **ev, "task_index": record["task"], "k_prime": cfg["eval_k_prime"],
         "epoch": record["task"] * cfg["epochs"]}
        for record in task_records
        for ev in record["evals"]
    ]
    metrics_path = os.path.join(out_dir, "metrics.csv")
    _write_csv(metrics_path, METRICS_COLUMNS, rows)

    report = {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id,
        "method": cfg["method"],
        "seed": cfg["seed"],
        "nll_matrix": nll_matrix,
        "final_avg_nll": float(np.mean(nll_matrix[-1])),
        "selection_accuracy": family.selection(task_records),
        "expansion_log": getattr(model, "expansion_log", None),
        "task_records": task_records,
        "wall_clock_s": time.monotonic() - t_start,
        "config": cfg,
        "artifacts": {
            "checkpoint": checkpoint_path,
            "metrics_csv": metrics_path,
            "ledger_csv": ledger_path,
            "snapshots": recorder.dir if recorder else None,
        },
    }
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


def cmd_train_multi(cfg: dict, seeds: list[int]) -> dict:
    """Independent runs per seed plus a mean/standard-error aggregate.

    Seeds run n at once, n = min(seeds, CPUs of the affinity mask): this process
    runs ``seeds[0::n]`` and n - 1 forked workers the rest, read in seed order.
    """
    base_dir = cfg["output_dir"] or f"runs/{cfg['method']}-multi"
    subs = [{**copy.deepcopy(cfg), "seed": s, "output_dir": os.path.join(base_dir, f"seed_{s}")}
            for s in seeds]
    n = min(len(seeds), _cpus())
    if n == 1:  # cmd_train's False: no seed run forks an evaluation worker
        reports = [cmd_train(sub, False) for sub in subs]
    else:
        pool = _fork_pool(n - 1)  # before any seed trains, while this process's heap is small
        try:
            runs = [pool.submit(cmd_train, sub, False) if i % n else None for i, sub in enumerate(subs)]
            reports = [run.result() if run else cmd_train(sub, False) for run, sub in zip(runs, subs)]
        finally:
            pool.shutdown(cancel_futures=True)
    finals = np.array([r["final_avg_nll"] for r in reports])
    per_task = np.array([r["nll_matrix"][-1] for r in reports])
    aggregate = {
        "seeds": seeds,
        "final_avg_nll_mean": float(finals.mean()),
        "final_avg_nll_se": float(finals.std(ddof=1) / np.sqrt(len(finals)))
        if len(finals) > 1
        else 0.0,
        "per_task_nll_mean": per_task.mean(axis=0).tolist(),
        "per_task_nll_se": (per_task.std(axis=0, ddof=1) / np.sqrt(len(finals))).tolist()
        if len(finals) > 1
        else [0.0] * per_task.shape[1],
        "runs": [r["artifacts"]["checkpoint"] for r in reports],
    }
    os.makedirs(base_dir, exist_ok=True)
    with open(os.path.join(base_dir, "aggregate.json"), "w") as f:
        json.dump(aggregate, f, indent=1, sort_keys=True)
    return aggregate


def cmd_eval(checkpoint_path: str, cfg: dict, k_prime: int | None = None) -> dict:
    """Score a checkpoint on the configured stream; per-task NLL and selection.

    The configured method's family reads the checkpoint (another family's
    is a data error) and runs its own task-end evaluation as after the last
    task, so at the run's seed, stream and K' it reproduces the run's last
    NLL row exactly.
    """
    k_prime = k_prime or cfg["eval_k_prime"]
    stream = build_stream(cfg)
    family = METHODS[cfg["method"]].family
    model = family.load(checkpoint_path)
    if model.data_dim != stream.dim:
        raise DataFormatError(f"checkpoint dim {model.data_dim} != stream dim {stream.dim}")
    fields = ("nll", "nll_se", "selection_accuracy")
    n, memo = len(stream), {}
    evals = [_score(family, model, stream, n, j, cfg["seed"], k_prime, memo) for j in range(1, n + 1)]
    results = [{"task": e["eval_task"], **{k: e[k] for k in fields if k in e}} for e in evals]
    accs = [r["selection_accuracy"] for r in results if "selection_accuracy" in r]
    return {
        "checkpoint": str(checkpoint_path),
        "k_prime": k_prime,
        "per_task": results,
        "avg_nll": float(np.mean([r["nll"] for r in results])),
        "selection_accuracy": float(np.mean(accs)) if accs else None,
    }


def _read_run_json(path: str):
    """A run directory's JSON file; missing, malformed or not UTF-8 is a data error."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise DataFormatError(f"{path} is missing")
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DataFormatError(f"{path} is not valid JSON: {err}")


def cmd_diagnose(run_dir: str, pool_size: int | None = None, normalize_risks: bool = False) -> dict:
    """Per-epoch bound-term traces from a run's recorded snapshots.

    Emits ``diagnose.csv`` with columns epoch, source_risk, discrepancy,
    kl_gap, target_risk, and a JSON summary with the final breakdown. Each
    row's pool is the last ``pool_size`` snapshots up to that epoch.
    """
    if pool_size is not None:
        _require_int(pool_size, "pool_size", 2)
    report_path = os.path.join(run_dir, "report.json")
    snap_dir = os.path.join(run_dir, "snapshots")
    meta_path = os.path.join(snap_dir, "meta.json")
    if not os.path.exists(meta_path):
        raise DataFormatError(
            f"no snapshots under {run_dir}; re-run train with diagnostics.enabled = true"
        )
    report = _read_run_json(report_path)
    meta = _read_run_json(meta_path)
    if not isinstance(report, dict) or "config" not in report:
        raise DataFormatError(f"{report_path} has no 'config' object")
    cfg = parse_config(report["config"])
    if pool_size is None:
        pool_size = cfg["diagnostics"]["pool_size"]
    entries = meta.get("entries") if isinstance(meta, dict) else None
    rows = list(_breakdowns(snap_dir, entries, build_stream(cfg), pool_size, cfg["seed"],
                            "diag/elbo/g{global_epoch}", normalize_risks=normalize_risks))
    csv_path = os.path.join(run_dir, "diagnose.csv")
    _write_csv(csv_path, ["epoch", *_DIAGNOSE_TERMS],
               ({"epoch": e["global_epoch"], **{c: b[k] for c, k in _DIAGNOSE_TERMS.items()}}
                for e, b in rows))
    summary = {
        "rows": len(rows),
        "final_breakdown": rows[-1][1] if rows else None,
        "csv": csv_path,
        "pool_size": pool_size,
    }
    with open(os.path.join(run_dir, "diagnose_summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return summary


def cmd_export_plots(run_dir: str) -> list[str]:
    """Whitespace-separated plot files with a header comment per figure."""
    written = []
    diag_path = os.path.join(run_dir, "diagnose.csv")
    if os.path.exists(diag_path):
        with open(diag_path) as f:
            reader = csv.DictReader(f)
            rows = list(reader)
        columns = ("epoch", *_DIAGNOSE_TERMS)
        if set(columns) - set(reader.fieldnames or ()) or any(None in r.values() for r in rows):
            raise DataFormatError(f"{diag_path}: every row needs the columns {', '.join(columns)}")
        fig3a = os.path.join(run_dir, "fig3a.dat")
        with open(fig3a, "w") as f:
            f.write("# epoch target_risk\n")
            for row in rows:
                f.write(f"{row['epoch']} {row['target_risk']}\n")
        written.append(fig3a)
        fig3b = os.path.join(run_dir, "fig3b.dat")
        with open(fig3b, "w") as f:
            f.write(f"# {' '.join(columns)}\n")
            for row in rows:
                f.write(" ".join(row[c] for c in columns) + "\n")
        written.append(fig3b)
    report_path = os.path.join(run_dir, "report.json")
    if os.path.exists(report_path):
        report = _read_run_json(report_path)
        nlls = report.get("nll_matrix") if isinstance(report, dict) else None
        if not isinstance(nlls, list) or not nlls or not isinstance(nlls[-1], list):
            raise DataFormatError(f"{report_path} has no 'nll_matrix' list of per-task NLL rows")
        bars = os.path.join(run_dir, "nll_bars.dat")
        with open(bars, "w") as f:
            f.write("# task nll_after_final_task\n")
            for task, nll in enumerate(nlls[-1], start=1):
                f.write(f"{task} {nll!r}\n")
        written.append(bars)
    if not written:
        raise DataFormatError(f"{run_dir}: no diagnose.csv or report.json to export from")
    return written


# ---------------------------------------------------------------------------
# argparse front end


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--stream", help="comma-separated task specs, e.g. bars,blobs,rings")
    p.add_argument("--seed", type=int)
    p.add_argument("--k-prime", dest="k_prime", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--replay-ratio", dest="replay_ratio", type=float)
    p.add_argument("--eval-k-prime", dest="eval_k_prime", type=int)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--binarize", choices=("stochastic", "threshold_0.5", "none"))
    p.add_argument("--likelihood", choices=vae_mod.LIKELIHOODS)
    p.add_argument("--train-per-task", dest="train_per_task", type=int)
    p.add_argument("--test-per-task", dest="test_per_task", type=int)
    p.add_argument("--diagnostics", action="store_true", default=None,
                   help="record per-epoch snapshots for the diagnose command")


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k in CONFIG_DEFAULTS and k not in ("stream", "diagnostics") and v is not None
    }
    if getattr(args, "stream", None):
        overrides["stream"] = [s.strip() for s in args.stream.split(",") if s.strip()]
    if getattr(args, "diagnostics", None):
        overrides["diagnostics"] = {"enabled": True}
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degm",
        description=(
            "Lifelong generative-learning laboratory: train VAEs under "
            "generative replay or dynamic graph expansion, evaluate "
            "checkpoints, and diagnose forgetting. Exit codes: 0 success, "
            "2 config error, 3 data error, 4 runtime error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a method on a task stream")
    _add_config_flags(p_train)
    p_train.add_argument("--seeds", help="comma-separated seed list for multi-seed runs")

    p_eval = sub.add_parser("eval", help="score a checkpoint on a stream")
    p_eval.add_argument("--checkpoint", required=True)
    _add_config_flags(p_eval)

    p_diag = sub.add_parser("diagnose", help="bound-term traces from recorded snapshots")
    p_diag.add_argument("--run-dir", required=True)
    p_diag.add_argument("--pool-size", dest="pool_size", type=int)
    p_diag.add_argument("--normalize-risks", action="store_true")

    p_plot = sub.add_parser("export-plots", help="emit plot-data text files")
    p_plot.add_argument("--run-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cfg = parse_config(args.config, _overrides_from_args(args))
            if args.seeds:
                try:
                    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
                except ValueError:
                    raise ConfigError(f"--seeds must be a comma-separated integer list, got {args.seeds!r}")
                if not seeds:
                    raise ConfigError("--seeds list is empty")
                if len(set(seeds)) < len(seeds):
                    raise ConfigError(f"--seeds lists a seed more than once: {args.seeds!r}")
                aggregate = cmd_train_multi(cfg, seeds)
                print(json.dumps(aggregate, indent=1, sort_keys=True))
            else:
                report = cmd_train(cfg)
                print(
                    f"run {report['run_id']}: final avg NLL "
                    f"{report['final_avg_nll']:.3f} -> {report['artifacts']['checkpoint']}"
                )
        elif args.command == "eval":
            cfg = parse_config(args.config, _overrides_from_args(args))
            result = cmd_eval(args.checkpoint, cfg, k_prime=args.k_prime)
            print(json.dumps(result, indent=1, sort_keys=True))
        elif args.command == "diagnose":
            summary = cmd_diagnose(
                args.run_dir, pool_size=args.pool_size, normalize_risks=args.normalize_risks
            )
            print(f"wrote {summary['rows']} rows -> {summary['csv']}")
        elif args.command == "export-plots":
            for path in cmd_export_plots(args.run_dir):
                print(f"wrote {path}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DataFormatError, ckpt_mod.CheckpointError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
