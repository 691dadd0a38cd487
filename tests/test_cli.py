"""CLI: config parsing, commands, artifact formats, exit codes."""

import collections
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from degm import bounds, cli, rng
from degm import graph as cli_graph
from degm.checkpoint import load_model
from degm.cli import (
    ConfigError,
    METRICS_COLUMNS,
    build_stream,
    cmd_diagnose,
    cmd_eval,
    cmd_export_plots,
    cmd_train,
    main,
    parse_config,
    run_id_of,
)
from helpers import StackPool

FAST = {
    "method": "elbo_gr",
    "stream": ["bars", "blobs"],
    "seed": 3,
    "epochs": 2,
    "train_per_task": 150,
    "test_per_task": 50,
    "eval_k_prime": 10,
}


def fast_cfg(tmp_path, **extra):
    cfg = dict(FAST)
    cfg["output_dir"] = str(tmp_path / "run")
    cfg.update(extra)
    return parse_config(cfg)


class TestParseConfig:
    def test_minimal_config_valid(self):
        cfg = parse_config({"method": "elbo_gr", "stream": ["bars", "blobs"], "seed": 1})
        assert cfg["epochs"] == 10 and cfg["batch_size"] == 64
        assert cfg["k_prime"] == 1

    def test_missing_method(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config({"stream": ["bars", "blobs"]})

    def test_tau_required_for_graph_methods(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config({"method": "degm_elbo", "stream": ["bars", "blobs"]})
        # but not for the forced-expansion baseline
        parse_config({"method": "degm2", "stream": ["bars", "blobs"]})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'leerning_rate'"):
            parse_config({"method": "elbo_gr", "stream": ["bars"], "leerning_rate": 0.1})

    def test_unknown_diag_key_rejected(self):
        with pytest.raises(ConfigError, match="diagnostics"):
            parse_config(
                {"method": "elbo_gr", "stream": ["bars", "blobs"], "diagnostics": {"pool": 3}}
            )

    def test_type_error_named(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config({"method": "elbo_gr", "stream": ["bars", "blobs"], "epochs": -1})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"method": "elbo_gr", "stream": ["bars", "blobs"], "k_prime": 5}))
        cfg = parse_config(str(path), {"k_prime": 50})
        assert cfg["k_prime"] == 50

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/cfg.json")

    def test_run_id_ignores_output_dir(self):
        a = parse_config({**FAST, "output_dir": "/tmp/a"})
        b = parse_config({**FAST, "output_dir": "/tmp/b"})
        assert run_id_of(a) == run_id_of(b)


class TestCmdTrain:
    def test_artifacts_written(self, tmp_path):
        report = cmd_train(fast_cfg(tmp_path))
        out = tmp_path / "run"
        for name in ("report.json", "metrics.csv", "ledger.csv", "model.bin"):
            assert (out / name).exists()
        assert report["schema_version"] == 1
        assert len(report["nll_matrix"]) == 2
        assert [len(row) for row in report["nll_matrix"]] == [1, 2]

    def test_degm2_builds_one_basic_per_task(self, tmp_path):
        from degm.checkpoint import load_graph

        cfg = fast_cfg(tmp_path, method="degm2", stream=["bars", "blobs", "rings"])
        report = cmd_train(cfg)
        graph = load_graph(report["artifacts"]["checkpoint"])
        assert len(graph.basic_nodes) == 3 and len(graph.specific_nodes) == 0
        assert [e["decision"] for e in report["expansion_log"]] == ["basic"] * 3

    def test_metrics_header_fixed(self, tmp_path):
        cmd_train(fast_cfg(tmp_path))
        header = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[0]
        assert header.split(",") == METRICS_COLUMNS

    def test_determinism_byte_identical(self, tmp_path):
        cmd_train(fast_cfg(tmp_path / "a"))
        cmd_train(fast_cfg(tmp_path / "b"))
        for name in ("metrics.csv", "ledger.csv", "model.bin"):
            a = (tmp_path / "a" / "run" / name).read_bytes()
            b = (tmp_path / "b" / "run" / name).read_bytes()
            assert a == b, name

    def test_report_deterministic_up_to_wall_clock(self, tmp_path):
        cmd_train(fast_cfg(tmp_path / "a"))
        cmd_train(fast_cfg(tmp_path / "b"))

        def load(p):
            with open(p) as f:
                rep = json.load(f)
            rep.pop("wall_clock_s")
            rep["config"].pop("output_dir")
            rep["artifacts"] = None
            return rep

        assert load(tmp_path / "a" / "run" / "report.json") == load(
            tmp_path / "b" / "run" / "report.json"
        )

    def test_ledger_row_count(self, tmp_path):
        cmd_train(fast_cfg(tmp_path, stream=["bars", "blobs", "rings"]))
        lines = (tmp_path / "run" / "ledger.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # header + one record per task


class TestSplitStream:
    def _write_idx(self, tmp_path, test_labels=(0, 1, 2, 3)):
        import struct

        g = np.random.default_rng(5)

        def dump(prefix, n_per_label, label_set=(0, 1, 2, 3)):
            labels = np.repeat(label_set, n_per_label)
            imgs = (g.random((len(labels), 4, 4)) * 255).astype(np.uint8)
            ip = tmp_path / f"{prefix}-images.idx"
            lp = tmp_path / f"{prefix}-labels.idx"
            with open(ip, "wb") as f:
                f.write(struct.pack(">IIII", 0x00000803, len(labels), 4, 4))
                f.write(imgs.tobytes())
            with open(lp, "wb") as f:
                f.write(struct.pack(">II", 0x00000801, len(labels)))
                f.write(labels.astype(np.uint8).tobytes())
            return str(ip), str(lp)

        return dump("train", 40), dump("test", 10, test_labels)

    def _split_cfg(self, tmp_path, groups=((0, 1), (2, 3)), test_labels=(0, 1, 2, 3)):
        (tri, trl), (tei, tel) = self._write_idx(tmp_path, test_labels)
        return parse_config(
            {
                "method": "elbo_gr",
                "stream": {
                    "kind": "split",
                    "train_images": tri,
                    "train_labels": trl,
                    "test_images": tei,
                    "test_labels": tel,
                    "groups": [list(g) for g in groups],
                },
                "seed": 2,
                "epochs": 1,
                "width": 4,
                "height": 4,
                "latent_dim": 4,
                "trunk_widths": [12],
                "decoder_widths": [12],
                "eval_k_prime": 5,
                "output_dir": str(tmp_path / "run"),
            }
        )

    def test_split_stream_trains(self, tmp_path):
        report = cmd_train(self._split_cfg(tmp_path))
        assert len(report["nll_matrix"]) == 2
        assert [len(r) for r in report["nll_matrix"]] == [1, 2]

    def test_split_requires_fields(self):
        with pytest.raises(ConfigError, match="test_images"):
            parse_config(
                {
                    "method": "elbo_gr",
                    "stream": {"kind": "split", "train_images": "x", "groups": [[0]]},
                }
            )
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(
                {
                    "method": "elbo_gr",
                    "stream": {
                        "kind": "split",
                        "train_images": "x",
                        "test_images": "y",
                        "groups": [[0]],
                        "grups": [[1]],
                    },
                }
            )

    def test_geometry_mismatch_is_data_error(self, tmp_path):
        from degm.data import DataFormatError

        cfg = self._split_cfg(tmp_path)
        cfg["width"] = cfg["height"] = 12
        with pytest.raises(DataFormatError, match="geometry"):
            from degm.cli import build_stream

            build_stream(cfg)

    @pytest.mark.parametrize(
        "groups, test_labels, message",
        [
            # the test file holds no label 2 or 3: group (2, 3) has no test example
            (((0, 1), (2, 3)), (0, 1), "label group [2, 3] selects no test example"),
            # label 7 occurs nowhere
            (((0, 1), (2, 3), (7,)), (0, 1, 2, 3), "label group [7] selects no train example"),
        ],
    )
    def test_empty_label_group_exit_3(self, tmp_path, capsys, monkeypatch, groups, test_labels, message):
        cfg = self._split_cfg(tmp_path, groups=groups, test_labels=test_labels)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        trained = []
        monkeypatch.setattr(cli, "run_gr_sequence", lambda *a, **k: trained.append(1))
        assert main(["train", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {message}")
        assert trained == []

    @pytest.mark.parametrize("victim", ["train_images", "test_labels"])
    def test_trailing_idx_bytes_exit_3(self, tmp_path, capsys, victim):
        cfg = self._split_cfg(tmp_path)
        with open(cfg["stream"][victim], "ab") as f:
            f.write(b"\0")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: " + cfg["stream"][victim])
        assert "1 bytes after the" in err
        assert not (tmp_path / "run" / "metrics.csv").exists()


class TestIwelboTraining:
    def test_iwelbo_gr_method_runs_and_improves(self, tmp_path):
        cfg = fast_cfg(tmp_path, method="iwelbo_gr", k_prime=5)
        report = cmd_train(cfg)
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
        train_rows = [r.split(",") for r in rows if r.split(",")[4] == ""]
        assert all(r[9] == "5" for r in train_rows)  # k_prime column
        first, last = float(train_rows[0][6]), float(train_rows[1][6])
        assert last > first  # bound improves within task 1

    def test_degm_iwelbo_end_to_end(self, tmp_path):
        cfg = fast_cfg(
            tmp_path,
            method="degm_iwelbo",
            k_prime=3,
            tau=1e12,  # everything after task 1 becomes a specific node
            stream=["bars", "blobs"],
        )
        report = cmd_train(cfg)
        from degm.checkpoint import load_graph

        graph = load_graph(report["artifacts"]["checkpoint"])
        assert len(graph.basic_nodes) == 1 and len(graph.specific_nodes) == 1


class TestCmdEval:
    @pytest.mark.parametrize(
        "extra", [{}, {"method": "degm_elbo", "tau": 30.0}], ids=["elbo_gr", "degm_elbo"]
    )
    def test_eval_reproduces_final_row(self, tmp_path, extra):
        cfg = fast_cfg(tmp_path, eval_k_prime=40, **extra)
        report = cmd_train(cfg)
        result = cmd_eval(report["artifacts"]["checkpoint"], cfg, k_prime=40)
        assert [rec["nll"] for rec in result["per_task"]] == report["nll_matrix"][-1]
        if report["selection_accuracy"] is not None:
            accs = [rec["selection_accuracy"] for rec in result["per_task"]]
            assert accs == report["selection_accuracy"][-1]

    def test_more_weighted_samples_tightens(self, tmp_path):
        cfg = fast_cfg(tmp_path)
        report = cmd_train(cfg)
        lo = cmd_eval(report["artifacts"]["checkpoint"], cfg, k_prime=1)
        hi = cmd_eval(report["artifacts"]["checkpoint"], cfg, k_prime=100)
        assert hi["avg_nll"] <= lo["avg_nll"]

    def test_selection_accuracy_in_unit_interval(self, tmp_path):
        cfg = fast_cfg(tmp_path, method="degm2", stream=["bars", "blobs"])
        report = cmd_train(cfg)
        result = cmd_eval(report["artifacts"]["checkpoint"], cfg, k_prime=10)
        assert 0.0 <= result["selection_accuracy"] <= 1.0

    def test_dimension_mismatch_rejected(self, tmp_path):
        from degm.data import DataFormatError

        cfg = fast_cfg(tmp_path)
        report = cmd_train(cfg)
        other = parse_config({**FAST, "width": 8, "height": 8})
        with pytest.raises(DataFormatError):
            cmd_eval(report["artifacts"]["checkpoint"], other)


class TestCmdDiagnose:
    def _diag_cfg(self, tmp_path):
        return fast_cfg(
            tmp_path,
            stream=["bars", "blobs"],
            likelihood="gaussian_identity",
            binarize="none",
            normalize_recon=True,
            epochs=3,
            diagnostics={"enabled": True, "sample_size": 120},
        )

    def test_missing_snapshots_actionable(self, tmp_path):
        from degm.data import DataFormatError

        cmd_train(fast_cfg(tmp_path))
        with pytest.raises(DataFormatError, match="diagnostics.enabled"):
            cmd_diagnose(str(tmp_path / "run"))

    def test_csv_columns_and_rows(self, tmp_path):
        cfg = self._diag_cfg(tmp_path)
        cmd_train(cfg)
        summary = cmd_diagnose(str(tmp_path / "run"))
        lines = (tmp_path / "run" / "diagnose.csv").read_text().splitlines()
        assert lines[0] == "epoch,source_risk,discrepancy,kl_gap,target_risk"
        assert len(lines) - 1 == summary["rows"] == 2 * 3  # tasks x epochs

    def test_discrepancy_grows_across_tasks(self, tmp_path):
        cfg = self._diag_cfg(tmp_path)
        cmd_train(cfg)
        cmd_diagnose(str(tmp_path / "run"))
        rows = (tmp_path / "run" / "diagnose.csv").read_text().splitlines()[1:]
        disc = [float(r.split(",")[2]) for r in rows]
        assert disc[-1] > disc[2]  # final epoch vs end of task 1


DIAG_CFG = {
    **FAST,
    "likelihood": "gaussian_identity",
    "binarize": "none",
    "normalize_recon": True,
    "epochs": 3,
    "diagnostics": {"enabled": True, "sample_size": 120},
}


@pytest.fixture(scope="module")
def diag_run(tmp_path_factory):
    """A two-task, three-epoch Gaussian replay run with snapshots recorded."""
    out = str(tmp_path_factory.mktemp("diag") / "run")
    cmd_train(parse_config({**DIAG_CFG, "output_dir": out}))
    return out


def _oracle_diagnose_csv(run_dir, pool_size):
    """diagnose.csv recomputed row by row: a fresh pool of copied models per row."""
    with open(os.path.join(run_dir, "report.json")) as f:
        cfg = parse_config(json.load(f)["config"])
    pool_size = pool_size or cfg["diagnostics"]["pool_size"]
    snap_dir = os.path.join(run_dir, "snapshots")
    with open(os.path.join(snap_dir, "meta.json")) as f:
        entries = json.load(f)["entries"]
    stream = build_stream(cfg)
    models = [(0, 0, load_model(os.path.join(snap_dir, entries[0]["snapshot"])))]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["epoch", "source_risk", "discrepancy", "kl_gap", "target_risk"])
    for e in entries[1:]:
        model = load_model(os.path.join(snap_dir, e["snapshot"]))
        models.append((e["task"], e["epoch"], model))
        pool = StackPool()
        for task, epoch, m in models[-pool_size:]:
            pool.add(m, {"task": task, "epoch": epoch})
        b = bounds.lelbo_breakdown(
            model,
            [stream.tasks[i].test.images for i in range(e["task"])],
            np.load(os.path.join(snap_dir, e["mixed"])),
            pool,
            rng=rng.stream(cfg["seed"], f"diag/elbo/g{e['global_epoch']}"),
        )
        columns = ("source_risk_elbo", "empirical_discrepancy", "kl_gap", "target_risk_elbo")
        writer.writerow([e["global_epoch"]] + [repr(b[k]) for k in columns])
    return out.getvalue().encode()


class TestDiagnoseReconstructionCache:
    @pytest.mark.parametrize("pool_size", [None, 3])
    def test_csv_matches_per_row_pools_bytewise(self, diag_run, pool_size):
        cmd_diagnose(diag_run, pool_size=pool_size)
        expected = _oracle_diagnose_csv(diag_run, pool_size)
        with open(os.path.join(diag_run, "diagnose.csv"), "rb") as f:
            assert f.read() == expected

    @pytest.mark.parametrize("pool_size, per_set", [(None, 4 + 7), (3, 4 + 5)])
    def test_each_snapshot_sample_pair_reconstructed_once(
        self, diag_run, pool_size, per_set, monkeypatch
    ):
        # per task: the snapshots its rows' windows cover (initial + 3 epochs,
        # then all 7 or the 2 carried over + 3), each on two sample sets
        seen = collections.Counter()
        inner = bounds.HypothesisSnapshot.reconstruct

        def counting(snap, x):
            sample = hashlib.sha256(x.tobytes()).hexdigest()
            seen[(snap.label["task"], snap.label["epoch"], sample)] += 1
            return inner(snap, x)

        monkeypatch.setattr(bounds.HypothesisSnapshot, "reconstruct", counting)
        cmd_diagnose(diag_run, pool_size=pool_size)
        assert set(seen.values()) == {1}
        assert sum(seen.values()) == 2 * per_set


def _oracle_task_end_breakdowns(entries, stream, cfg):
    """Per task, reload the pool's snapshots and the task's final model."""
    breakdowns = {}
    pool_size = cfg["diagnostics"]["pool_size"]
    for task in range(1, len(stream.tasks) + 1):
        upto = [e for e in entries if e["task"] <= task]
        final = [e for e in upto if e["task"] == task][-1]
        pool = StackPool()
        for e in upto[-pool_size:]:
            pool.add(load_model(e["snapshot"]), {"task": e["task"], "epoch": e["epoch"]})
        breakdowns[task] = bounds.lelbo_breakdown(
            load_model(final["snapshot"]),
            [stream.tasks[i].test.images for i in range(task)],
            np.load(final["mixed"]),
            pool,
            rng=rng.stream(cfg["seed"], f"ledger/breakdown/t{task}"),
        )
    return breakdowns


def _ledger_walk(diag_run, pool_size):
    """The run's config and stream, and the ledger's task-end walk over its snapshots."""
    with open(os.path.join(diag_run, "report.json")) as f:
        cfg = parse_config(json.load(f)["config"])
    snap_dir = os.path.join(diag_run, "snapshots")
    with open(os.path.join(snap_dir, "meta.json")) as f:
        entries = json.load(f)["entries"]
    stream = build_stream(cfg)
    walk = cli._breakdowns(
        snap_dir, entries, stream, pool_size, cfg["seed"], "ledger/breakdown/t{task}",
        task_end_only=True,
    )
    return cfg, stream, walk


class TestTaskEndBreakdowns:
    @pytest.mark.parametrize("pool_size", [64, 3])
    def test_each_snapshot_loaded_once_same_values(self, diag_run, pool_size, monkeypatch):
        loads = []

        def counting_load(path):
            loads.append(path)
            return load_model(path)

        monkeypatch.setattr(cli.ckpt_mod, "load_model", counting_load)
        cfg, stream, walk = _ledger_walk(diag_run, pool_size)
        got = {e["task"]: b for e, b in walk}
        cfg["diagnostics"]["pool_size"] = pool_size
        snap_dir = os.path.join(diag_run, "snapshots")
        with open(os.path.join(snap_dir, "meta.json")) as f:
            entries = [
                {**e, **{k: os.path.join(snap_dir, e[k]) for k in ("snapshot", "mixed") if k in e}}
                for e in json.load(f)["entries"]
            ]
        assert got == _oracle_task_end_breakdowns(entries, stream, cfg)
        snapshot_files = len([n for n in os.listdir(snap_dir) if n.endswith(".bin")])
        assert len(loads) <= snapshot_files + len(stream.tasks)
        assert len(loads) == len(set(loads))

    @pytest.mark.parametrize("pool_size, per_set", [(64, 4 + 7), (3, 3 + 3)])
    def test_each_snapshot_sample_pair_reconstructed_once(
        self, diag_run, pool_size, per_set, monkeypatch
    ):
        # per task: the pool of its last entry only (all 4 then all 7
        # snapshots, or the last 3 each time), each on two sample sets
        seen = collections.Counter()
        inner = bounds.HypothesisSnapshot.reconstruct

        def counting(snap, x):
            sample = hashlib.sha256(x.tobytes()).hexdigest()
            seen[(snap.label["task"], snap.label["epoch"], sample)] += 1
            return inner(snap, x)

        monkeypatch.setattr(bounds.HypothesisSnapshot, "reconstruct", counting)
        _, _, walk = _ledger_walk(diag_run, pool_size)
        assert [e["task"] for e, _ in walk] == [1, 2]
        assert set(seen.values()) == {1}
        assert sum(seen.values()) == 2 * per_set


class TestLedgerLoadsOnlyPooledSnapshots:
    @pytest.mark.parametrize("pool_size, loads", [(64, 7), (3, 6)])
    def test_load_count(self, tmp_path, pool_size, loads, monkeypatch):
        # at 3 each task-end pool is that task's 3 snapshots, so the initial
        # snapshot is never reached; at 64 every snapshot is pooled
        loaded = []

        def counting_load(path):
            loaded.append(os.path.basename(path))
            return load_model(path)

        monkeypatch.setattr(cli.ckpt_mod, "load_model", counting_load)
        diagnostics = {**DIAG_CFG["diagnostics"], "pool_size": pool_size}
        out = str(tmp_path / "run")
        cmd_train(parse_config({**DIAG_CFG, "diagnostics": diagnostics, "output_dir": out}))
        assert len(loaded) == len(set(loaded)) == loads
        assert ("snap_t00_e00.bin" in loaded) == (pool_size == 64)


class TestOneReconstructionTableAlive:
    """A task's reconstructions are freed before the next task's are made."""

    @staticmethod
    def _alive_at_each_build(monkeypatch):
        arrays, alive = [], []
        inner = bounds.ReconstructionTable.__init__

        def tracking(table, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in arrays))
            inner(table, *args, **kwargs)
            arrays.extend(weakref.ref(r) for r in table.recons)

        monkeypatch.setattr(bounds.ReconstructionTable, "__init__", tracking)
        return alive

    def test_train_with_diagnostics(self, tmp_path, monkeypatch):
        alive = self._alive_at_each_build(monkeypatch)
        cmd_train(parse_config({**DIAG_CFG, "output_dir": str(tmp_path / "run")}))
        assert alive == [0, 0]

    def test_diagnose(self, diag_run, monkeypatch):
        alive = self._alive_at_each_build(monkeypatch)
        cmd_diagnose(diag_run)
        assert alive == [0, 0]


class TestDiagnosticsValidation:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("pool_size", 1),
            ("pool_size", 0),
            ("pool_size", True),
            ("pool_size", 2.5),
            ("snapshot_every", 0),
            ("snapshot_every", False),
            ("sample_size", 0),
        ],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**DIAG_CFG, "diagnostics": {"enabled": True, key: value}}))
        code = main(["train", "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 2
        assert f"diagnostics.{key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    def test_bad_pool_size_flag_exits_2(self, diag_run, capsys, value):
        code = main(["diagnose", "--run-dir", diag_run, "--pool-size", value])
        assert code == 2
        assert "pool_size" in capsys.readouterr().err

    def test_smallest_pool_accepted(self, diag_run):
        assert cmd_diagnose(diag_run, pool_size=2)["pool_size"] == 2


class TestBrokenRunDirectory:
    @pytest.mark.parametrize(
        "name, content",
        [
            ("report.json", None),
            ("report.json", "{not json"),
            ("report.json", "[1, 2]"),
            (os.path.join("snapshots", "meta.json"), None),
            (os.path.join("snapshots", "meta.json"), '{"entries": '),
        ],
    )
    def test_diagnose_exits_3(self, diag_run, tmp_path, capsys, name, content):
        run = tmp_path / "run"
        shutil.copytree(diag_run, run, ignore=shutil.ignore_patterns("diagnose.csv"))
        if content is None:
            (run / name).unlink()
        else:
            (run / name).write_text(content)
        code = main(["diagnose", "--run-dir", str(run)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert not (run / "diagnose.csv").exists()

    @pytest.mark.parametrize(
        "command, fault",
        [
            ("diagnose", lambda run: (run / "snapshots" / "mixed_t02.npy").unlink()),
            ("diagnose", lambda run: (run / "snapshots" / "mixed_t02.npy").write_bytes(b"garbage")),
            ("diagnose", lambda run: np.save(run / "snapshots" / "mixed_t02.npy", np.zeros((5, 7)))),
            ("diagnose", lambda run: _edit_json(run / "snapshots" / "meta.json", entries=5)),
            ("diagnose", lambda run: _edit_entry(run, 1, task="1")),
            ("diagnose", lambda run: _edit_entry(run, -1, task=3)),
            ("export-plots", lambda run: _edit_json(run / "report.json", nll_matrix=None)),
            ("export-plots", lambda run: (run / "diagnose.csv").write_text(
                "epoch,source_risk,discrepancy,kl_gap\n1,0.5,0.25,0.125\n")),
            ("export-plots", lambda run: (run / "diagnose.csv").write_text(
                "epoch,source_risk,discrepancy,kl_gap,target_risk\n1,0.5,0.25\n")),
        ],
        ids=[
            "mixed-missing", "mixed-garbage", "mixed-5x7", "entries-not-list", "task-string",
            "task-above-stream", "report-without-nll-matrix", "diagnose-csv-without-target-risk",
            "diagnose-csv-short-row",
        ],
    )
    def test_malformed_input_exits_3(self, diag_run, tmp_path, capsys, command, fault):
        run = tmp_path / "run"
        shutil.copytree(diag_run, run, ignore=shutil.ignore_patterns("diagnose.csv"))
        fault(run)
        code = main([command, "--run-dir", str(run)])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error:")
        if command == "diagnose":
            assert not (run / "diagnose.csv").exists()


def _edit_json(path, **changes):
    """Rewrite a JSON object file with keys set (or, for None, removed)."""
    obj = json.loads(path.read_text())
    for key, value in changes.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    path.write_text(json.dumps(obj))


def _edit_entry(run, index, **changes):
    path = run / "snapshots" / "meta.json"
    meta = json.loads(path.read_text())
    meta["entries"][index].update(changes)
    path.write_text(json.dumps(meta))


class TestStrictNumericConfig:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("eval_k_prime", 2.5),
            ("batch_size", 16.5),
            ("epochs", True),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", True),
            ("learning_rate", 0.0),
            ("k_prime", False),
            ("width", 12.0),
            ("seed", True),
            ("tau", float("nan")),
            ("tau", True),
            ("tau", "35"),
            ("replay_ratio", float("nan")),
            ("replay_ratio", "x"),
            ("replay_ratio", -0.5),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAST, key: value}))
        code = main(["train", "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_integer_learning_rate_accepted(self):
        assert parse_config({**FAST, "learning_rate": 1})["learning_rate"] == 1


class TestNonFiniteRun:
    """A run whose loss or NLL is not finite exits 4 and writes no metrics
    and no checkpoint."""

    def test_diverging_training_exits_4(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "method": "elbo_gr", "stream": ["bars", "blobs"], "learning_rate": 1e6,
            "epochs": 1, "train_per_task": 200, "test_per_task": 50,
        }))
        with pytest.warns(RuntimeWarning):
            code = main(["train", "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 4
        err = capsys.readouterr().err
        assert "NonFiniteError: gr/task1: loss nan in epoch 1, batch " in err
        assert not (tmp_path / "run" / "metrics.csv").exists()
        assert not (tmp_path / "run" / "model.bin").exists()

    def test_diverging_training_leaves_no_snapshots(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "method": "elbo_gr", "stream": ["bars", "blobs"], "learning_rate": 1e6,
            "epochs": 1, "train_per_task": 200, "test_per_task": 50,
            "diagnostics": {"enabled": True},
        }))
        with pytest.warns(RuntimeWarning):
            code = main(["train", "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 4
        assert "NonFiniteError" in capsys.readouterr().err
        snapshots = tmp_path / "run" / "snapshots"
        assert not list(snapshots.glob("*.bin")) and not (snapshots / "meta.json").exists()
        assert not (tmp_path / "run" / "model.bin").exists()

    def test_non_finite_nll_exits_4(self, tmp_path, capsys, monkeypatch):
        real = cli.vae_mod.nll_estimate

        def nan_on_task_2(model, data, *args, **kwargs):
            nll, se = real(model, data, *args, **kwargs)
            return (float("nan"), se) if data is stream.tasks[1].test else (nll, se)

        stream = build_stream(fast_cfg(tmp_path))
        monkeypatch.setattr(cli, "build_stream", lambda cfg: stream)
        monkeypatch.setattr(cli.vae_mod, "nll_estimate", nan_on_task_2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FAST))
        code = main(["train", "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 4
        assert "NonFiniteError: NLL nan on test task 2 after task 2" in capsys.readouterr().err
        assert not (tmp_path / "run" / "metrics.csv").exists()
        assert not (tmp_path / "run" / "model.bin").exists()

    def test_non_finite_degm_nll_exits_4_without_graph(self, tmp_path, capsys, monkeypatch):
        real = cli_graph.evaluate_task

        def nan_on_task_2(*args, **kwargs):
            record = real(*args, **kwargs)
            return {**record, "nll": float("nan")} if kwargs["true_task"] == 2 else record

        monkeypatch.setattr(cli_graph, "evaluate_task", nan_on_task_2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAST, "method": "degm_elbo", "tau": 35.0, "epochs": 1}))
        code = main(["train", "--config", str(path), "--output-dir", str(tmp_path / "run")])
        assert code == 4
        assert "NonFiniteError: NLL nan on test task 2 after task 2" in capsys.readouterr().err
        assert not (tmp_path / "run" / "metrics.csv").exists()
        assert not (tmp_path / "run" / "graph.bin").exists()


class TestExportPlots:
    def test_fig3b_five_columns(self, tmp_path):
        cfg = fast_cfg(
            tmp_path,
            stream=["bars", "blobs"],
            likelihood="gaussian_identity",
            binarize="none",
            diagnostics={"enabled": True, "sample_size": 100},
        )
        cmd_train(cfg)
        cmd_diagnose(str(tmp_path / "run"))
        paths = cmd_export_plots(str(tmp_path / "run"))
        fig3b = next(p for p in paths if p.endswith("fig3b.dat"))
        lines = Path(fig3b).read_text().splitlines()
        assert lines[0].startswith("#")
        assert all(len(line.split()) == 5 for line in lines[1:])
        assert len(lines) - 1 == 2 * 2  # rows = recorded epochs

    def test_reexport_byte_identical(self, tmp_path):
        cfg = fast_cfg(tmp_path)
        cmd_train(cfg)
        paths = cmd_export_plots(str(tmp_path / "run"))
        first = {p: Path(p).read_bytes() for p in paths}
        for p, blob in zip(cmd_export_plots(str(tmp_path / "run")), first.values()):
            assert Path(p).read_bytes() == blob

    def test_missing_inputs_rejected(self, tmp_path):
        from degm.data import DataFormatError

        with pytest.raises(DataFormatError):
            cmd_export_plots(str(tmp_path))


class TestMainExitCodes:
    def test_config_error_is_2(self, capsys):
        code = main(["train", "--method", "degm_elbo", "--stream", "bars,blobs"])
        assert code == 2
        assert "tau" in capsys.readouterr().err

    def test_data_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + bytes(16))
        code = main(
            ["eval", "--checkpoint", str(bad), "--method", "elbo_gr", "--stream", "bars,blobs"]
        )
        assert code == 3

    def test_success_is_0(self, tmp_path):
        code = main(
            [
                "train",
                "--method",
                "elbo_gr",
                "--stream",
                "bars,blobs",
                "--seed",
                "1",
                "--epochs",
                "1",
                "--train-per-task",
                "80",
                "--test-per-task",
                "30",
                "--eval-k-prime",
                "5",
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_blobs_on_3x3_trains(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAST, "stream": ["blobs", "bars"], "width": 3, "height": 3}))
        assert main(["train", "--config", str(path), "--output-dir", str(tmp_path / "run")]) == 0

    def test_multi_seed_aggregate(self, tmp_path):
        code = main(
            [
                "train",
                "--method",
                "elbo_gr",
                "--stream",
                "bars,blobs",
                "--epochs",
                "1",
                "--train-per-task",
                "80",
                "--test-per-task",
                "30",
                "--eval-k-prime",
                "5",
                "--seeds",
                "1,2",
                "--output-dir",
                str(tmp_path / "multi"),
            ]
        )
        assert code == 0
        with open(tmp_path / "multi" / "aggregate.json") as f:
            agg = json.load(f)
        assert agg["seeds"] == [1, 2]
        assert "final_avg_nll_mean" in agg and "final_avg_nll_se" in agg
        assert (tmp_path / "multi" / "seed_1" / "report.json").exists()

    def test_console_entrypoint(self, tmp_path):
        # the installed script path: python -m degm.cli behaves identically
        proc = subprocess.run(
            [sys.executable, "-m", "degm.cli", "train", "--method", "elbo_gr"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "stream" in proc.stderr


class TestMalformedModelConfig:
    @pytest.mark.parametrize(
        "method, extra",
        [
            (method, {key: value})
            for method in ("elbo_gr", "degm_elbo")
            for key in ("trunk_widths", "decoder_widths")
            for value in ([], [0], "x", [-3], [1.5])
            if (method, key, value) != ("elbo_gr", "decoder_widths", [])  # a linear decoder
        ]
        + [(method, {"hidden_activation": "foo"}) for method in ("elbo_gr", "degm_elbo")]
        + [(method, {"output_dir": 5}) for method in ("elbo_gr", "degm_elbo")]
        + [
            ("degm_elbo", {"latent_dim": 128}),
            ("elbo_gr", {"warm_start": "no"}),
            ("elbo_gr", {"normalize_recon": "no"}),
            ("elbo_gr", {"diagnostics": {"enabled": "no"}}),
        ],
        ids=str,
    )
    def test_exits_2(self, tmp_path, monkeypatch, capsys, method, extra):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAST, "method": method, "tau": 30.0, **extra}))
        assert main(["train", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_linear_decoder_accepted_for_replay(self):
        assert parse_config({**FAST, "decoder_widths": []})["decoder_widths"] == []
