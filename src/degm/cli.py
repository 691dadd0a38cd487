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

import numpy as np

from . import bounds as bounds_mod
from . import checkpoint as ckpt_mod
from . import rng as rng_mod
from . import vae as vae_mod
from .data import (
    DataFormatError,
    TaskStream,
    binarize,
    load_idx,
    make_cross_domain_stream,
    make_split_stream,
)
from .graph import ArchSpec, evaluate_task, final_eval_label, train_degm_sequence
from .nn import InvalidSpecError
from .replay import NonFiniteError, TrainConfig, eval_label, run_gr_sequence
from .vae import build_vae

METHODS = ("elbo_gr", "iwelbo_gr", "degm_elbo", "degm_iwelbo", "degm2")

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
    if cfg["method"] not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg['method']!r}")
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
    elif not isinstance(stream, (list, tuple)) or len(stream) < 1:
        raise ConfigError("'stream' must be a list of task specs or a split-stream object")
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
    if cfg["method"] in ("degm_elbo", "degm_iwelbo") and cfg["tau"] is None:
        raise ConfigError(f"method {cfg['method']!r} requires 'tau'")
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
    widths = cfg["trunk_widths"], cfg["decoder_widths"]
    if not all(isinstance(w, list) for w in widths):
        raise ConfigError("trunk_widths and decoder_widths must be lists of layer widths")
    if cfg["method"].startswith("degm") and [len(w) for w in widths] != [1, 1]:
        raise ConfigError(
            "graph methods use single-hidden-layer sub-models: trunk_widths and "
            "decoder_widths must each hold exactly one width"
        )
    try:  # the geometry checks of the model's own specs; no weights are built
        if cfg["method"].startswith("degm"):
            _arch(cfg)
        else:
            vae_mod.vae_specs(*_vae_geometry(cfg))
    except InvalidSpecError as err:
        raise ConfigError(f"widths, latent_dim and hidden_activation give no valid model: {err}")
    _require_int(diag["pool_size"], "diagnostics.pool_size", 2)
    _require_int(diag["snapshot_every"], "diagnostics.snapshot_every", 1)
    _require_int(diag["sample_size"], "diagnostics.sample_size", 1)
    if diag["enabled"] and cfg["method"].startswith("degm"):
        raise ConfigError("diagnostics snapshots are only recorded for elbo_gr/iwelbo_gr runs")


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
    if isinstance(cfg["stream"], dict):
        return _build_split_stream(cfg)
    return make_cross_domain_stream(
        cfg["stream"],
        n_train=cfg["train_per_task"],
        n_test=cfg["test_per_task"],
        width=cfg["width"],
        height=cfg["height"],
        seed=cfg["seed"],
        binarize_mode=None if cfg["binarize"] == "none" else cfg["binarize"],
    )


def _build_split_stream(cfg: dict) -> TaskStream:
    spec = cfg["stream"]
    train = load_idx(spec["train_images"], spec.get("train_labels"))
    test = load_idx(spec["test_images"], spec.get("test_labels"))
    expected = cfg["width"] * cfg["height"]
    if train.dim != expected:
        raise DataFormatError(
            f"{spec['train_images']}: flat dimension {train.dim} does not match the "
            f"configured {cfg['width']}x{cfg['height']} geometry"
        )
    if cfg["binarize"] != "none":
        train = binarize(train, cfg["binarize"], seed=rng_mod.derive_seed(cfg["seed"], "split/train"))
        test = binarize(test, cfg["binarize"], seed=rng_mod.derive_seed(cfg["seed"], "split/test"))
    return make_split_stream(train, test, spec["groups"])


def _train_config(cfg: dict) -> TrainConfig:
    k_prime = cfg["k_prime"] if cfg["method"] in ("iwelbo_gr", "degm_iwelbo") else 1
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


def _model_factory(cfg: dict):
    geometry = _vae_geometry(cfg)
    return lambda seed: build_vae(*geometry, normalize_recon=cfg["normalize_recon"], seed=seed)


class _SnapshotRecorder:
    """Writes per-epoch model snapshots plus the task's mixed training sample,
    and remembers every file it wrote. ``entries`` is ``meta.json``'s list:
    file names are relative to ``dir``."""

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

    def _write(self, name: str, save, obj) -> None:
        path = os.path.join(self.dir, name)
        save(path, obj)
        self.written.append(path)

    def record_initial(self, model) -> None:
        self._write("snap_t00_e00.bin", ckpt_mod.save_model, model)
        self.entries.append({"task": 0, "epoch": 0, "global_epoch": 0, "snapshot": "snap_t00_e00.bin"})

    def hook(self, task: int, epoch: int, model, mixed, record) -> None:
        if epoch % self.every != 0 and epoch != self.epochs_per_task:
            return
        mixed_name = f"mixed_t{task:02d}.npy"
        if task not in self._saved_mixed:
            samples = mixed.samples
            if len(samples) > self.sample_size:
                idx = rng_mod.stream(self.seed, f"diag/sample/task{task}").choice(
                    len(samples), size=self.sample_size, replace=False
                )
                samples = samples[idx]
            self._write(mixed_name, np.save, samples)
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
    own, and its noise is keyed by ``rng_label.format(**entry)``. Only the
    snapshots some pool reaches are loaded, each once, and each task's mixed
    sample is read once; per task one ``ReconstructionTable`` covers just the
    snapshots the task's rows reach, built after the previous task's table is
    freed. A malformed entry list or mixed sample is a DataFormatError before
    anything is computed on it.
    """
    n_tasks = len(stream.tasks)
    if not isinstance(entries, list) or not all(_entry_ok(e, n_tasks) for e in entries):
        raise DataFormatError(
            f"{snap_dir}: snapshot entries must be a list of objects with integer task "
            f"(0..{n_tasks}), epoch and global_epoch, a snapshot name and, from task 1 on, "
            "a mixed sample name"
        )
    snapshots = []
    entries = sorted(entries, key=lambda e: (e["task"], e["epoch"]))
    last = {e["task"]: i for i, e in enumerate(entries)}
    row_at = [i for i, e in enumerate(entries) if e["task"] and (last[e["task"]] == i or not task_end_only)]
    reached = {j for i in row_at for j in range(i + 1 - pool_size, i + 1)}
    entries = [e for i, e in enumerate(entries) if i in reached]
    for task, group in itertools.groupby(entries, key=lambda e: e["task"]):
        group = list(group)
        models = [ckpt_mod.load_model(os.path.join(snap_dir, e["snapshot"])) for e in group]
        # a task's first row still reaches pool_size - 1 snapshots back
        snapshots = snapshots[-(pool_size - 1):] + [
            bounds_mod.HypothesisSnapshot(m, {"task": task, "epoch": e["epoch"]})
            for e, m in zip(group, models)
        ]
        if task == 0:
            continue
        mixed = _load_mixed(os.path.join(snap_dir, group[0]["mixed"]), stream.dim)
        targets = [stream.tasks[i].test.images for i in range(task)]
        rows = range(len(group) - 1 if task_end_only else 0, len(group))
        # row j's pool ends at snapshot `first + j + 1`; the table starts at
        # the first requested row's pool
        first = len(snapshots) - len(group)
        lo = max(0, first + rows[0] + 1 - pool_size)
        table = None  # free the previous task's arrays before allocating these
        table = bounds_mod.ReconstructionTable.for_breakdown(snapshots[lo:], targets, mixed)
        for j in rows:
            hi = first + j + 1
            yield group[j], bounds_mod.lelbo_breakdown(
                models[j],
                targets,
                mixed,
                table.window(max(lo, hi - pool_size) - lo, hi - lo),
                rng=rng_mod.stream(seed, rng_label.format(**group[j])),
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


def _fmt_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_metrics(path, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in METRICS_COLUMNS])


def cmd_train(cfg: dict) -> dict:
    """Train one run and write report.json, metrics.csv, ledger.csv, checkpoint."""
    t_start = time.monotonic()
    out_dir = cfg["output_dir"] or f"runs/{cfg['method']}-seed{cfg['seed']}"
    os.makedirs(out_dir, exist_ok=True)
    run_id = run_id_of(cfg)
    stream = build_stream(cfg)
    train_cfg = _train_config(cfg)
    recorder = None
    is_graph_method = cfg["method"].startswith("degm")

    try:
        if is_graph_method:
            force = "basic" if cfg["method"] == "degm2" else None
            tau = cfg["tau"] if cfg["tau"] is not None else float("inf")
            graph, task_records, train_metrics = train_degm_sequence(
                stream,
                _arch(cfg),
                train_cfg,
                tau=tau,
                force=force,
                eval_k_prime=cfg["eval_k_prime"],
            )
            expansion_log = graph.expansion_log
        else:
            factory = _model_factory(cfg)
            hook = None
            if cfg["diagnostics"]["enabled"]:
                recorder = _SnapshotRecorder(out_dir, cfg)
                recorder.record_initial(factory(cfg["seed"]))
                hook = recorder.hook
            model, task_records, train_metrics = run_gr_sequence(
                stream,
                factory,
                train_cfg,
                eval_k_prime=cfg["eval_k_prime"],
                epoch_hook=hook,
            )
            expansion_log = None
        nll_matrix = [[e["nll"] for e in record["evals"]] for record in task_records]
        for record, nlls in zip(task_records, nll_matrix):
            for j, nll in enumerate(nlls, 1):
                if not math.isfinite(nll):
                    raise NonFiniteError(f"NLL {nll} on test task {j} after task {record['task']}")
    except NonFiniteError:
        # a diverged run leaves no checkpoint and no snapshots behind
        if recorder is not None:
            recorder.discard()
        raise
    if recorder is not None:
        recorder.finish()
    if is_graph_method:
        checkpoint_path = os.path.join(out_dir, "graph.bin")
        ckpt_mod.save_graph(checkpoint_path, graph)
    else:
        checkpoint_path = os.path.join(out_dir, "model.bin")
        ckpt_mod.save_model(checkpoint_path, model)

    # ledger: one record per task with every seen test NLL; with diagnostics
    # enabled the bound-term breakdown at each task boundary fills the rest
    ledger = bounds_mod.DiagnosticsLedger()
    breakdowns = {}
    if recorder is not None:
        walk = _breakdowns(recorder.dir, recorder.entries, stream, cfg["diagnostics"]["pool_size"],
                           cfg["seed"], "ledger/breakdown/t{task}", task_end_only=True)
        breakdowns = {e["task"]: b for e, b in walk}
    for record, nlls in zip(task_records, nll_matrix):
        if is_graph_method:
            partition = [{i} for i in range(1, record["task"] + 1)]
        else:
            partition = [set(range(1, record["task"] + 1))]
        accounting = bounds_mod.assignment_summary(
            bounds_mod.AssignmentLog.from_partition(record["task"], partition)
        )
        extra = breakdowns.get(record["task"], {})
        ledger.append(
            t=record["task"],
            nll_per_task=nlls,
            avg_nll=float(np.mean(nlls)),
            source_risk=extra.get("source_risk_elbo"),
            target_risk=extra.get("target_risk_elbo"),
            empirical_discrepancy=extra.get("empirical_discrepancy"),
            slack=extra.get("slack"),
            kl_gap=extra.get("kl_gap"),
            residual=extra.get("residual"),
            accounting={
                "K": accounting["K"],
                "C": accounting["C"],
                "C_prime": accounting["C_prime"],
                "accumulated_term_counts": {
                    str(k): v for k, v in accounting["accumulated_term_counts"].items()
                },
            },
        )
    ledger_path = os.path.join(out_dir, "ledger.csv")
    ledger.to_csv(ledger_path)
    with open(os.path.join(out_dir, "ledger.json"), "w") as f:
        f.write(ledger.to_json())

    rows = []
    base = {"run_id": run_id, "seed": cfg["seed"], "method": cfg["method"], "wall_ms": 0}
    for tm in train_metrics:
        for rec in tm["epochs"]:
            rows.append(
                {
                    **base,
                    "task_index": tm["task"],
                    "eval_task": "",
                    "nll": "",
                    "elbo": -rec["objective"],
                    "kl_term": "",
                    "recon_term": "",
                    "k_prime": train_cfg.k_prime,
                    "epoch": (tm["task"] - 1) * cfg["epochs"] + rec["epoch"],
                }
            )
    for record in task_records:
        for ev in record["evals"]:
            rows.append(
                {
                    **base,
                    "task_index": record["task"],
                    "eval_task": ev["eval_task"],
                    "nll": ev["nll"],
                    "elbo": ev.get("elbo", ""),
                    "kl_term": ev.get("kl_term", ""),
                    "recon_term": ev.get("recon_term", ""),
                    "k_prime": cfg["eval_k_prime"],
                    "epoch": record["task"] * cfg["epochs"],
                }
            )
    metrics_path = os.path.join(out_dir, "metrics.csv")
    _write_metrics(metrics_path, rows)

    selection = None
    if is_graph_method:
        selection = [
            [e.get("selection_accuracy") for e in record["evals"]] for record in task_records
        ]
    report = {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id,
        "method": cfg["method"],
        "seed": cfg["seed"],
        "nll_matrix": nll_matrix,
        "final_avg_nll": float(np.mean(nll_matrix[-1])),
        "selection_accuracy": selection,
        "expansion_log": expansion_log,
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
    """Independent runs per seed plus a mean/standard-error aggregate."""
    base_dir = cfg["output_dir"] or f"runs/{cfg['method']}-multi"
    reports = []
    for seed in seeds:
        sub = dict(copy.deepcopy(cfg))
        sub["seed"] = seed
        sub["output_dir"] = os.path.join(base_dir, f"seed_{seed}")
        reports.append(cmd_train(sub))
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

    The noise is keyed like the training run's final evaluation, so at the
    run's seed, stream and K' this reproduces its last NLL row exactly.
    """
    k_prime = k_prime or cfg["eval_k_prime"]
    stream = build_stream(cfg)
    kind = ckpt_mod.sniff_kind(checkpoint_path)
    results = []
    if kind == "graph":
        graph = ckpt_mod.load_graph(checkpoint_path)
        if graph.arch.data_dim != stream.dim:
            raise DataFormatError(
                f"checkpoint dim {graph.arch.data_dim} != stream dim {stream.dim}"
            )
        for task in stream.tasks:
            rec = evaluate_task(
                graph,
                task.test.images,
                true_task=task.task_id,
                eval_k_prime=k_prime,
                rng_seed=cfg["seed"],
                rng_label=final_eval_label(len(stream), task.task_id),
            )
            results.append(
                {
                    "task": task.task_id,
                    "nll": rec["nll"],
                    "selection_accuracy": rec["selection_accuracy"],
                }
            )
    else:
        model = ckpt_mod.load_model(checkpoint_path)
        if model.data_dim != stream.dim:
            raise DataFormatError(f"checkpoint dim {model.data_dim} != stream dim {stream.dim}")
        for task in stream.tasks:
            nll, se = vae_mod.nll_estimate(
                model,
                task.test,
                k_prime=k_prime,
                rng=rng_mod.stream(cfg["seed"], eval_label(len(stream), task.task_id)),
            )
            results.append({"task": task.task_id, "nll": nll, "nll_se": se})
    accs = [r["selection_accuracy"] for r in results if "selection_accuracy" in r]
    return {
        "checkpoint": str(checkpoint_path),
        "k_prime": k_prime,
        "per_task": results,
        "avg_nll": float(np.mean([r["nll"] for r in results])),
        "selection_accuracy": float(np.mean(accs)) if accs else None,
    }


def _read_run_json(path: str):
    """A run directory's JSON file; missing or malformed is a data error."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise DataFormatError(f"{path} is missing")
    except json.JSONDecodeError as err:
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
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", *_DIAGNOSE_TERMS])
        for e, b in rows:
            writer.writerow([e["global_epoch"], *(repr(b[k]) for k in _DIAGNOSE_TERMS.values())])
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
