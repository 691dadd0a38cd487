"""CLI: config parsing, commands, artifact formats, exit codes."""

import collections
import contextlib
import csv
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import re
import shutil
import signal
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from degm import bounds, cli, rng
from degm import checkpoint as checkpoint_mod
from degm import data as data_mod
from degm import nn as nn_mod
from degm import replay as replay_mod
from degm import vae as vae_mod
from degm import graph as cli_graph
from degm.checkpoint import load_model
from degm.replay import NonFiniteError
from degm.cli import (
    ConfigError,
    METRICS_COLUMNS,
    _cell,
    _write_csv,
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

    def test_degm2_ignores_a_configured_tau(self, tmp_path):
        # degm2 is DEGM at tau = -inf; a config's tau (here one that would
        # build Specific nodes) neither changes the graph nor the logged tau
        from degm.checkpoint import load_graph

        report = cmd_train(fast_cfg(tmp_path, method="degm2", stream=["bars", "blobs", "rings"], tau=1e9))
        graph = load_graph(report["artifacts"]["checkpoint"])
        assert len(graph.basic_nodes) == 3 and len(graph.specific_nodes) == 0
        assert [e["tau"] for e in report["expansion_log"]] == [float("-inf")] * 3
        with open(tmp_path / "run" / "report.json") as f:
            assert [e["tau"] for e in json.load(f)["expansion_log"]] == [float("-inf")] * 3

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


class TestCsvCells:
    def test_each_kind_of_value_has_one_cell(self, tmp_path):
        columns = ["float", "np_float", "int", "none", "empty", "list", "dict", "missing"]
        row = {
            "float": 0.1,
            "np_float": np.float64(1 / 3),  # never "np.float64(...)"
            "int": 7,
            "none": None,
            "empty": "",
            "list": [10.5, np.float64(12.0)],
            "dict": {"b": 1, "a": [2]},
        }
        path = tmp_path / "cells.csv"
        _write_csv(path, columns, [row, {}])
        assert path.read_text().splitlines() == [
            ",".join(columns),
            '0.1,0.3333333333333333,7,,,10.5;12.0,"{""a"": [2], ""b"": 1}",',
            ",,,,,,,",
        ]
        assert [_cell(v) for v in (0.1, np.float64(1 / 3), 7, None, [], {})] == [
            "0.1", "0.3333333333333333", "7", "", "", "{}"
        ]

    def test_ledger_header_and_rewrite_stable(self, tmp_path):
        cmd_train(fast_cfg(tmp_path))
        ledger = (tmp_path / "run" / "ledger.csv").read_bytes()
        assert ledger.decode().splitlines()[0] == ",".join(cli.LEDGER_COLUMNS)
        with open(tmp_path / "run" / "ledger.json") as f:
            records = json.load(f)["records"]
        _write_csv(tmp_path / "again.csv", cli.LEDGER_COLUMNS, records)
        assert (tmp_path / "again.csv").read_bytes() == ledger


def test_cli_import_loads_no_pool_or_scipy():
    # the benchmark's set-up time is this import and one parse_config
    code = (
        "import sys, degm.cli\n"
        "degm.cli.parse_config({'method': 'elbo_gr', 'stream': ['bars', 'blobs']})\n"
        "print(sorted({'multiprocessing', 'concurrent.futures', 'scipy'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])],
    ids=["unset", "set"],
)
def test_import_pins_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    code = f"import os, degm; print(*(os.environ.get(v) for v in {BLAS_THREAD_VARS!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == expected


def _exception_classes():
    for module in (data_mod, nn_mod, bounds, checkpoint_mod, cli, replay_mod, vae_mod):
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__:
                yield obj


@pytest.mark.parametrize("cls", list(_exception_classes()), ids=lambda c: c.__name__)
def test_exception_survives_pickle(cls):
    # a seed's error comes back from its worker process through pickle
    err = cls(["slack", "kl_gap"]) if cls is bounds.IncompleteInputError else cls("boom")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) and back.args == err.args and vars(back) == vars(err)


def test_exception_classes_found():
    names = {c.__name__ for c in _exception_classes()}
    assert {"IncompleteInputError", "NonFiniteError", "ConfigError", "IdxMagicError"} <= names


MULTI_FILES = ["aggregate.json"] + [
    f"seed_{s}/{f}" for s in (1, 2, 3) for f in ("metrics.csv", "ledger.csv", "ledger.json")
]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _fail_seeds(monkeypatch, seeds):
    """Each run whose seed is in ``seeds`` raises NonFiniteError naming it at its first NLL."""
    real_stream, real_nll = cli.build_stream, cli.vae_mod.nll_estimate
    current = {}

    def stream_of(cfg):
        current["seed"] = cfg["seed"]
        return real_stream(cfg)

    def nll_estimate(*args, **kwargs):
        if current["seed"] in seeds:
            raise NonFiniteError(f"NLL nan in seed {current['seed']}")
        return real_nll(*args, **kwargs)

    monkeypatch.setattr(cli, "build_stream", stream_of)
    monkeypatch.setattr(cli.vae_mod, "nll_estimate", nll_estimate)


class TestSeedPool:
    """``--seeds`` runs one seed per CPU at once and writes what a serial run writes."""

    @pytest.mark.parametrize(
        "method, extra, checkpoint",
        [("elbo_gr", {}, "model.bin"), ("degm_elbo", {"tau": 35.0}, "graph.bin")],
    )
    def test_one_and_two_cpus_write_the_same_bytes(self, tmp_path, monkeypatch, method, extra, checkpoint):
        real_stream = cli.build_stream

        def stream_of(cfg):  # record which process trains each seed
            with open(tmp_path / "pids", "a") as f:
                f.write(f"{cfg['seed']} {os.getpid()}\n")
            return real_stream(cfg)

        monkeypatch.setattr(cli, "build_stream", stream_of)
        written, pids = {}, {}
        for n in (1, 2):
            _cpus(monkeypatch, n)
            (tmp_path / str(n)).mkdir()
            monkeypatch.chdir(tmp_path / str(n))
            cfg = parse_config({**FAST, "method": method, "epochs": 1, **extra, "output_dir": "multi"})
            aggregate = cli.cmd_train_multi(cfg, [1, 2, 3])
            assert aggregate["seeds"] == [1, 2, 3]
            files = MULTI_FILES + [f"seed_{s}/{checkpoint}" for s in (1, 2, 3)]
            written[n] = {f: (Path("multi") / f).read_bytes() for f in files}
            assert multiprocessing.active_children() == []
            pids[n] = dict(map(int, line.split()) for line in (tmp_path / "pids").read_text().splitlines())
            (tmp_path / "pids").unlink()
        assert written[1] == written[2]
        assert pids[1] == {1: os.getpid(), 2: os.getpid(), 3: os.getpid()}
        assert pids[2][1] == pids[2][3] == os.getpid() != pids[2][2]

    def test_worker_error_exits_4_like_serial(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAST, "epochs": 1}))
        _fail_seeds(monkeypatch, {2})
        lines = {}
        for n in (1, 2):
            _cpus(monkeypatch, n)
            out = str(tmp_path / f"multi{n}")
            assert main(["train", "--config", str(path), "--seeds", "1,2,3", "--output-dir", out]) == 4
            lines[n] = capsys.readouterr().err
            assert not (tmp_path / f"multi{n}" / "aggregate.json").exists()
            assert multiprocessing.active_children() == []
        assert lines[2] == lines[1] == "runtime error: NonFiniteError: NLL nan in seed 2\n"

    @pytest.mark.parametrize("failing, reported", [({1, 2}, 1), ({2, 3}, 2)])
    def test_first_failing_seed_is_reported(self, tmp_path, monkeypatch, failing, reported):
        _cpus(monkeypatch, 2)
        _fail_seeds(monkeypatch, failing)
        with pytest.raises(NonFiniteError, match=f"^NLL nan in seed {reported}$"):
            cli.cmd_train_multi(fast_cfg(tmp_path, epochs=1), [1, 2, 3])
        assert multiprocessing.active_children() == []


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

    @pytest.mark.parametrize("victim", ["train_images", "test_labels"])
    def test_missing_idx_file_exit_3(self, tmp_path, capsys, victim):
        cfg = self._split_cfg(tmp_path)
        cfg["stream"][victim] = str(tmp_path / "missing.idx")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 'missing.idx'}: ")
        assert not (tmp_path / "run" / "metrics.csv").exists()


class TestPerTaskIdx:
    """Task specs ``{"idx_images": path}`` read IDX files, checked like split streams."""

    def _main(self, tmp_path, images, *argv, **extra):
        spec = {"idx_images": str(images)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {**FAST, "stream": [spec, spec], "train_per_task": 20, "test_per_task": 10, **extra}
        ))
        return main(["train", "--config", str(path), "--output-dir", str(tmp_path / "run"), *argv])

    def test_missing_images_exit_3(self, tmp_path, capsys):
        assert self._main(tmp_path, tmp_path / "missing.idx") == 3
        assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 'missing.idx'}: ")
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("argv", [(), ("--seeds", "1,2")], ids=["one_seed", "two_seeds"])
    def test_data_error_creates_no_directory(self, tmp_path, argv):
        assert self._main(tmp_path, tmp_path / "missing.idx", *argv) == 3
        assert not (tmp_path / "run").exists()  # nor, with --seeds, run/seed_1

    @pytest.mark.parametrize(
        "extra", [{}, {"method": "degm_elbo", "tau": 30.0}], ids=["elbo_gr", "degm_elbo"]
    )
    def test_geometry_mismatch_exit_3(self, tmp_path, capsys, extra):
        images = tmp_path / "five.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 30, 5, 5) + bytes(30 * 5 * 5))
        assert self._main(tmp_path, images, **extra) == 3
        err = capsys.readouterr().err
        assert "flat dimension 25 does not match the configured 12x12 geometry" in err
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
        "extra",
        [
            {},
            {"warm_start": False},
            {"method": "iwelbo_gr", "k_prime": 3},
            {"method": "degm_elbo", "tau": 30.0},
            {"method": "degm_iwelbo", "tau": 30.0, "k_prime": 3},
            {"method": "degm2"},
        ],
        ids=["elbo_gr", "elbo_gr-cold", "iwelbo_gr", "degm_elbo", "degm_iwelbo", "degm2"],
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
        targets = [stream.tasks[i].test.images for i in range(e["task"])]
        mixed = np.load(os.path.join(snap_dir, e["mixed"]))
        b = bounds.lelbo_breakdown(
            model,
            targets,
            mixed,
            pool.pair_losses(bounds.pooled_targets(targets)),
            pool.pair_losses(mixed),
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
        targets = [stream.tasks[i].test.images for i in range(task)]
        mixed = np.load(final["mixed"])
        breakdowns[task] = bounds.lelbo_breakdown(
            load_model(final["snapshot"]),
            targets,
            mixed,
            pool.pair_losses(bounds.pooled_targets(targets)),
            pool.pair_losses(mixed),
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


# Loads per snapshot of each task of DIAG_CFG's ledger walk: once per pass (two
# per task) that covers it. At 64 each task's pool reaches back to the initial
# snapshot (task 0); at 3 each is that task's 3 snapshots.
TASK_END_LOADS = {64: {0: 4, 1: 4, 2: 2}, 3: {1: 2, 2: 2}}


def _expected_loads(entries, pool_size):
    per_task = TASK_END_LOADS[pool_size]
    return {e["snapshot"]: per_task[e["task"]] for e in entries if e["task"] in per_task}


class TestTaskEndBreakdowns:
    @pytest.mark.parametrize("pool_size, total", [(64, 22), (3, 12)])
    def test_each_snapshot_loaded_once_per_pass_same_values(self, diag_run, pool_size, total, monkeypatch):
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
        assert collections.Counter(loads) == _expected_loads(entries, pool_size)
        assert len(loads) == total
        assert (os.path.join(snap_dir, "snap_t00_e00.bin") in loads) == (pool_size == 64)

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
    @pytest.mark.parametrize("pool_size, loads", [(64, 22), (3, 12)])
    def test_load_count(self, tmp_path, pool_size, loads, monkeypatch):
        # at 3 each task-end pool is that task's 3 snapshots, so the initial
        # snapshot is never reached; at 64 every snapshot is pooled; each
        # pooled snapshot is loaded once per pass that covers it
        loaded = []

        def counting_load(path):
            loaded.append(os.path.basename(path))
            return load_model(path)

        monkeypatch.setattr(cli.ckpt_mod, "load_model", counting_load)
        diagnostics = {**DIAG_CFG["diagnostics"], "pool_size": pool_size}
        out = str(tmp_path / "run")
        cmd_train(parse_config({**DIAG_CFG, "diagnostics": diagnostics, "output_dir": out}))
        with open(os.path.join(out, "snapshots", "meta.json")) as f:
            entries = json.load(f)["entries"]
        assert collections.Counter(loaded) == _expected_loads(entries, pool_size)
        assert len(loaded) == loads
        assert ("snap_t00_e00.bin" in loaded) == (pool_size == 64)


class TestOneReconstructionTableAlive:
    """No reconstruction array of an earlier pass is alive when the next pass
    builds its own: two passes (pooled targets, then the mixed sample) per task."""

    @staticmethod
    def _alive_at_each_build(monkeypatch):
        arrays, alive = [], []
        inner = bounds.ReconstructionTable.__init__

        def tracking(table, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in arrays))
            inner(table, *args, **kwargs)
            arrays.append(weakref.ref(table.recons))

        monkeypatch.setattr(bounds.ReconstructionTable, "__init__", tracking)
        return alive

    def test_train_with_diagnostics(self, tmp_path, monkeypatch):
        alive = self._alive_at_each_build(monkeypatch)
        cmd_train(parse_config({**DIAG_CFG, "output_dir": str(tmp_path / "run")}))
        assert alive == [0, 0, 0, 0]

    def test_diagnose(self, diag_run, monkeypatch):
        alive = self._alive_at_each_build(monkeypatch)
        cmd_diagnose(diag_run)
        assert alive == [0, 0, 0, 0]


class TestWalkPeakMemory:
    def test_one_sample_set_and_one_model_alive(self, diag_run):
        """The walk's tracemalloc peak: one sample set's reconstructions over
        the largest span, one loaded model and a few set-sized temporaries."""
        # the full walk's largest span is every snapshot (the pool of 64 covers
        # the run); its larger sample set is task 2's mixed sample or pooled targets
        cfg, stream, _ = _ledger_walk(diag_run, 64)
        snap_dir = os.path.join(diag_run, "snapshots")
        with open(os.path.join(snap_dir, "meta.json")) as f:
            entries = json.load(f)["entries"]
        rows = max(len(np.load(os.path.join(snap_dir, entries[-1]["mixed"]))),
                   len(bounds.pooled_targets([t.test.images for t in stream.tasks])))
        one_set = len(entries) * rows * stream.dim * 8
        model = load_model(os.path.join(snap_dir, entries[0]["snapshot"]))
        one_model = sum(p.data.nbytes for p in model.parameters())
        del model
        walk = cli._breakdowns(snap_dir, entries, stream, 64, cfg["seed"], "diag/elbo/g{global_epoch}")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert len(list(walk)) == 6
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # slack: eight arrays the size of the larger set (both sets, and the
        # temporaries of one reconstruction or bound); a walk that holds both
        # sets' reconstructions and every pooled model peaks at about twice
        # this bound (5.0 MB against 2.4 MB)
        assert peak <= one_set + one_model + 8 * rows * stream.dim * 8


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
            # a byte that is not UTF-8
            ("report.json", b'{"config": "\xff"}'),
            (os.path.join("snapshots", "meta.json"), b'{"entries": "\xff"}'),
        ],
    )
    def test_diagnose_exits_3(self, diag_run, tmp_path, capsys, name, content):
        run = tmp_path / "run"
        shutil.copytree(diag_run, run, ignore=shutil.ignore_patterns("diagnose.csv"))
        if content is None:
            (run / name).unlink()
        elif isinstance(content, bytes):
            (run / name).write_bytes(content)
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


class _Evaluated(Exception):
    pass


class TestEvaluationPhase:
    """The trainers only train: ``cmd_train`` evaluates the task-end states they
    yield, in ``evaluate_task_ends``."""

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise _Evaluated

        monkeypatch.setattr(vae_mod, "iw_logpx_np", refuse)
        monkeypatch.setattr(vae_mod, "nll_estimate", refuse)

    @pytest.mark.parametrize("k_prime", [1, 3])
    def test_trainers_evaluate_nothing(self, no_evaluation, k_prime):
        stream = build_stream(parse_config(FAST))
        train_cfg = replay_mod.TrainConfig(epochs=1, k_prime=k_prime, seed=3)
        states, _ = zip(*replay_mod.run_gr_sequence(stream, lambda s: vae_mod.build_vae(seed=s), train_cfg))
        assert len(states) == 2
        # tau 1e12: task 2 trains a Specific node
        states, _ = zip(*cli_graph.train_degm_sequence(stream, cli_graph.ArchSpec(), train_cfg, tau=1e12))
        assert [e["decision"] for e in states[-1].expansion_log] == ["basic", "specific"]

    @pytest.mark.parametrize("method, checkpoint", [("elbo_gr", "model.bin"), ("degm_elbo", "graph.bin")])
    def test_cmd_train_scores_each_state_as_it_arrives(self, tmp_path, monkeypatch, no_evaluation, method,
                                                       checkpoint):
        real, arrived = cli.evaluate_task_ends, []

        def evaluate_task_ends(family, states, *args):
            return real(family, (arrived.append(t) or s for t, s in enumerate(states, 1)), *args)

        monkeypatch.setattr(cli, "evaluate_task_ends", evaluate_task_ends)
        _cpus(monkeypatch, 1)
        with pytest.raises(_Evaluated):
            cmd_train(fast_cfg(tmp_path, method=method, tau=30.0, epochs=1))
        assert arrived == [1]  # scored before task 2 trains
        assert not (tmp_path / "run" / checkpoint).exists()

    @pytest.mark.parametrize("seed", [1, 13])
    def test_degm_records_are_graph_prefix_evaluations(self, tmp_path, seed):
        # each task-end state is a prefix of the saved graph, so the records
        # come back from graph.bin alone, with the memo or one task end at a time
        cfg = fast_cfg(tmp_path, method="degm_elbo", tau=4.0, seed=seed,
                       stream=["bars", "blobs", "rings", "checkers", "bars-inv", "blobs-inv"])
        report = cmd_train(cfg)
        with open(tmp_path / "run" / "report.json") as f:
            records = json.load(f)["task_records"]
        decisions = [e["decision"] for e in report["expansion_log"]]
        assert decisions == ["basic", "specific", "specific", "basic", "specific", "specific"]
        loaded = checkpoint_mod.load_graph(tmp_path / "run" / "graph.bin")
        states = [cli_graph.GraphState(loaded.arch, loaded.nodes[:t]) for t in range(1, 7)]
        stream, family = build_stream(cfg), cli.METHODS["degm_elbo"].family
        assert cli.evaluate_task_ends(family, states, stream, seed, cfg["eval_k_prime"]) == records
        for t, state in enumerate(states, 1):
            evals = [family.evaluate(state, stream, t, j, seed, cfg["eval_k_prime"], {}) for j in range(1, t + 1)]
            assert evals == records[t - 1]["evals"]


THREE = ["bars", "blobs", "rings"]
SIX = THREE + ["checkers", "bars-inv", "blobs-inv"]
DIAGNOSTICS = {"likelihood": "gaussian_identity", "binarize": "none",
               "diagnostics": {"enabled": True, "sample_size": 100}}


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _jobs_by_pid(monkeypatch, path):
    """Log each task-end job's (t, j) and the pid that scores it; returns the reader."""
    real = cli._score

    def score(family, state, stream, t, j, *args):
        with open(path, "a") as f:
            f.write(f"{t} {j} {os.getpid()}\n")
        return real(family, state, stream, t, j, *args)

    def read():
        jobs = collections.defaultdict(set)
        for line in path.read_text().splitlines():
            t, j, pid = map(int, line.split())
            jobs[pid].add((t, j))
        path.unlink()
        return dict(jobs)

    monkeypatch.setattr(cli, "_score", score)
    return read


class TestEvalWorker:
    """With a spare CPU, ``cmd_train`` scores task ends on one forked worker
    while it trains on, and writes what a serial run writes."""

    ALL = {(t, j) for t in range(1, 4) for j in range(1, t + 1)}

    @pytest.mark.parametrize("n_tasks, worker, own", [
        (2, [(1, 1), (2, 1)], [(2, 2)]),
        (3, [(1, 1), (2, 1), (2, 2), (3, 1)], [(3, 2), (3, 3)]),
        (6, [(t, j) for t in range(1, 6) for j in range(1, t + 1)] + [(6, 1), (6, 2), (6, 3)],
         [(6, 4), (6, 5), (6, 6)]),
    ])
    def test_split_rule(self, n_tasks, worker, own):
        jobs = [(t, j) for t in range(1, n_tasks + 1) for j in cli._worker_jobs(t, n_tasks)]
        rest = [(t, j) for t in range(1, n_tasks + 1) for j in range(1, t + 1) if (t, j) not in jobs]
        assert (jobs, rest) == (worker, own)

    @pytest.mark.parametrize("seed", [1, 13])
    @pytest.mark.parametrize(
        "extra",
        [{"method": "elbo_gr"}, {"method": "degm_elbo", "tau": 35.0}, {"method": "elbo_gr", **DIAGNOSTICS}],
        ids=["elbo_gr", "degm_elbo", "diagnostics"],
    )
    def test_worker_changes_no_byte(self, tmp_path, monkeypatch, seed, extra):
        read_jobs = _jobs_by_pid(monkeypatch, tmp_path / "jobs")
        written, jobs = {}, {}
        for n in (1, 2):
            _cpus(monkeypatch, n)
            (tmp_path / str(n)).mkdir()
            monkeypatch.chdir(tmp_path / str(n))
            with _deadline(120):
                cmd_train(parse_config({**FAST, "stream": THREE, "seed": seed, **extra, "output_dir": "run"}))
            assert multiprocessing.active_children() == []
            files = sorted(p for p in Path("run").rglob("*") if p.is_file())
            written[n] = {str(p): p.read_bytes() for p in files}
            report = json.loads(written[n].pop("run/report.json"))
            report.pop("wall_clock_s")
            written[n]["report"] = report
            jobs[n] = read_jobs()
        assert written[1] == written[2]
        assert {"run/metrics.csv", "run/ledger.csv", "run/ledger.json"} < set(written[1])
        assert jobs[1] == {os.getpid(): self.ALL}
        own = jobs[2].pop(os.getpid())
        assert own == {(3, 2), (3, 3)} and list(jobs[2].values()) == [self.ALL - own]

    def test_one_cpu_or_a_seed_pool_starts_no_worker(self, tmp_path, monkeypatch):
        real = cli._fork_pool

        def refuse(workers, initializer=None, initargs=()):  # a seed pool is let through
            if initializer is not None:
                raise AssertionError("an evaluation worker was started")
            return real(workers)

        monkeypatch.setattr(cli, "_fork_pool", refuse)
        _cpus(monkeypatch, 1)
        cmd_train(fast_cfg(tmp_path, stream=THREE, epochs=1))
        _cpus(monkeypatch, 2)
        with _deadline(120):
            cli.cmd_train_multi(fast_cfg(tmp_path, stream=THREE, epochs=1, output_dir=str(tmp_path / "multi")),
                                [1, 2])
        assert multiprocessing.active_children() == []

    def test_one_cpu_run_loads_no_multiprocessing(self, tmp_path):
        code = (
            "import json, os, sys, degm.cli\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "degm.cli.cmd_train(degm.cli.parse_config(json.loads(sys.argv[1])))\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        cfg = {**FAST, "stream": THREE, "epochs": 1, "output_dir": str(tmp_path / "run")}
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(cfg)], capture_output=True, text=True,
                              check=True, timeout=120)
        assert proc.stdout.strip() == "[]"

    @staticmethod
    def _main(tmp_path, monkeypatch, capsys, n, **extra):
        """``degm train`` of a 3-task run on ``n`` CPUs, under a deadline: (exit code, stderr)."""
        _cpus(monkeypatch, n)
        path = tmp_path / f"cfg{n}.json"
        path.write_text(json.dumps({**FAST, "stream": THREE, "epochs": 1, **extra,
                                    "output_dir": str(tmp_path / f"run{n}")}))
        with _deadline(120):
            code = main(["train", "--config", str(path)])
        assert multiprocessing.active_children() == []
        return code, capsys.readouterr().err

    def _patch_eval(self, monkeypatch, change):
        """``replay.evaluate_task`` whose record of (t, j) goes through ``change(t, j, record)``."""
        real = replay_mod.evaluate_task

        def evaluate_task(model, test, after, task_id, *args):
            return change(after, task_id, real(model, test, after, task_id, *args))

        monkeypatch.setattr(replay_mod, "evaluate_task", evaluate_task)

    def test_worker_data_error_exits_3_like_serial(self, tmp_path, monkeypatch, capsys):
        def change(t, j, record):
            if (t, j) == (2, 1):  # the worker's job
                raise data_mod.DataFormatError(f"test set {j} after task {t} is unreadable")
            return record

        self._patch_eval(monkeypatch, change)
        outcomes = [self._main(tmp_path, monkeypatch, capsys, n) for n in (1, 2)]
        assert outcomes[0] == outcomes[1] == (3, "data error: test set 1 after task 2 is unreadable\n")

    def test_failed_worker_job_stops_training_one_task_later(self, tmp_path, monkeypatch, capsys):
        real_train, trained = replay_mod.train_task_gr, []

        def train_task_gr(model, new_data, config, task_index, *args):
            trained.append(task_index)
            return real_train(model, new_data, config, task_index, *args)

        def change(t, j, record):
            if (t, j) == (1, 1):  # the worker's job, scored while task 2 trains
                raise data_mod.DataFormatError("test set 1 is unreadable")
            return record

        monkeypatch.setattr(replay_mod, "train_task_gr", train_task_gr)
        self._patch_eval(monkeypatch, change)
        for n, tasks in ((1, [1]), (2, [1, 2])):
            trained.clear()
            assert self._main(tmp_path, monkeypatch, capsys, n) == (3, "data error: test set 1 is unreadable\n")
            assert trained == tasks

    @pytest.mark.parametrize("bad, first", [
        ({(2, 2), (3, 3)}, (2, 2)),  # the worker's before this process's
        ({(3, 1), (3, 2)}, (3, 1)),  # the worker's last before this process's first
        ({(3, 3), (3, 2)}, (3, 2)),  # this process's alone
    ])
    def test_first_non_finite_nll_is_the_serial_one(self, tmp_path, monkeypatch, capsys, bad, first):
        self._patch_eval(monkeypatch, lambda t, j, r: {**r, "nll": float("nan")} if (t, j) in bad else r)
        outcomes = [self._main(tmp_path, monkeypatch, capsys, n) for n in (1, 2)]
        line = f"runtime error: NonFiniteError: NLL nan on test task {first[1]} after task {first[0]}\n"
        assert outcomes[0] == outcomes[1] == (4, line)

    def test_training_error_reaps_the_worker_and_discards_snapshots(self, tmp_path, monkeypatch, capsys):
        real_train, real_pool, started = replay_mod.train_task_gr, cli._fork_pool, []

        def train_task_gr(model, new_data, config, task_index, *args):
            if task_index == 3:
                raise NonFiniteError("gr/task3: loss nan in epoch 1, batch 1")
            return real_train(model, new_data, config, task_index, *args)

        def pool(*args):
            made = real_pool(*args)
            started.extend(multiprocessing.active_children())
            return made

        monkeypatch.setattr(replay_mod, "train_task_gr", train_task_gr)
        monkeypatch.setattr(cli, "_fork_pool", pool)
        code, err = self._main(tmp_path, monkeypatch, capsys, 2, **DIAGNOSTICS)
        assert (code, err) == (4, "runtime error: NonFiniteError: gr/task3: loss nan in epoch 1, batch 1\n")
        assert len(started) == 1 and started[0].exitcode == 0
        assert sorted(p.name for p in (tmp_path / "run2").iterdir()) == []

    def test_killed_worker_exits_4_without_hanging(self, tmp_path, monkeypatch, capsys):
        real, parent = cli._score, os.getpid()

        def score(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(cli, "_score", score)
        code, err = self._main(tmp_path, monkeypatch, capsys, 2)
        assert (code, err) == (4, "runtime error: BrokenProcessPool: A process in the process pool was "
                                  "terminated abruptly while the future was running or pending.\n")

    def test_unpicklable_error_exits_4_without_hanging(self, tmp_path, monkeypatch, capsys):
        class Unpicklable(Exception):  # a local class: pickle cannot find it by name
            pass

        parent = os.getpid()

        def change(t, j, record):
            if os.getpid() != parent:
                raise Unpicklable("boom")
            return record

        self._patch_eval(monkeypatch, change)
        code, err = self._main(tmp_path, monkeypatch, capsys, 2)
        assert code == 4
        assert re.fullmatch(r"runtime error: AttributeError: Can't pickle local object '.*\.Unpicklable'\n", err)

    def test_own_share_reuses_the_worker_memo(self, tmp_path, monkeypatch):
        # the calling process's jobs at the last task end score no node the
        # worker already scored, as on one CPU
        real_score, real_elbo, job, calls = cli._score, vae_mod.elbo, [None], collections.Counter()

        def score(family, state, stream, t, j, *args):
            job[0] = (t, j)
            try:
                return real_score(family, state, stream, t, j, *args)
            finally:
                job[0] = None

        def elbo(*args, **kwargs):
            calls[os.getpid(), job[0]] += 1
            return real_elbo(*args, **kwargs)

        monkeypatch.setattr(cli, "_score", score)
        monkeypatch.setattr(vae_mod, "elbo", elbo)
        own = [(6, j) for j in (4, 5, 6)]
        counts = {}
        for n in (1, 2):
            _cpus(monkeypatch, n)
            calls.clear()
            with _deadline(120):
                cmd_train(fast_cfg(tmp_path / str(n), method="degm_elbo", tau=4.0, stream=SIX))
            counts[n] = [calls[os.getpid(), key] for key in own]
        assert counts[2] == counts[1] and sum(counts[1]) > 0

    def test_worker_is_alive_before_training(self, tmp_path, monkeypatch):
        # forked before the first task trains, the worker inherits the heap as it was then
        real, alive = cli.run_gr_sequence, []

        def run_gr_sequence(*args):
            alive.append([p.is_alive() for p in multiprocessing.active_children()])
            return real(*args)

        monkeypatch.setattr(cli, "run_gr_sequence", run_gr_sequence)
        _cpus(monkeypatch, 2)
        with _deadline(120):
            cmd_train(fast_cfg(tmp_path, stream=THREE, epochs=1))
        assert alive == [[True]]


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

    @pytest.mark.parametrize(
        "stream, message",
        [
            ("bars", "a cross-domain stream needs at least 2 task specs"),
            ("bars,nope", "unknown family 'nope'"),
        ],
    )
    def test_bad_stream_spec_is_2(self, tmp_path, monkeypatch, capsys, stream, message):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--method", "elbo_gr", "--stream", stream]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "method, checkpoint, message",
        [
            ("elbo_gr", "bad", "bad magic b'XXXX'"),
            # a checkpoint of the other family than the method's
            ("elbo_gr", "graph", "bad magic b'DEGM', expected b'SVAE'"),
            ("degm_elbo", "model", "bad magic b'SVAE', expected b'DEGM'"),
        ],
    )
    def test_data_error_is_3(self, tmp_path, capsys, method, checkpoint, message):
        path = tmp_path / f"{checkpoint}.bin"
        if checkpoint == "model":
            checkpoint_mod.save_model(path, vae_mod.build_vae())
        elif checkpoint == "graph":
            graph = cli_graph.GraphState(arch=cli_graph.ArchSpec())
            cli_graph.build_basic_node(graph, 1, seed=1)
            checkpoint_mod.save_graph(path, graph)
        else:
            path.write_bytes(b"XXXX" + bytes(16))
        argv = ["eval", "--checkpoint", str(path), "--method", method, "--tau", "35", "--stream", "bars,blobs"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"data error: {path}: {message}")

    def test_non_finite_nll_is_4(self, tmp_path, capsys):
        """``degm eval`` guards its NLLs as a run's task ends do: a checkpoint
        with a NaN weight is a runtime error, and no NaN reaches stdout."""
        model = vae_mod.build_vae()
        model.trunk.weights[0].data[0, 0] = np.nan
        path = tmp_path / "model.bin"
        checkpoint_mod.save_model(path, model)
        argv = ["eval", "--checkpoint", str(path), "--method", "elbo_gr", "--stream", "bars,blobs",
                "--test-per-task", "20", "--eval-k-prime", "3"]
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert "NaN" not in out and "nan" not in out
        assert err == "runtime error: NonFiniteError: NLL nan on test task 1 after task 2\n"

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

    def test_duplicate_seeds_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FAST))
        out = str(tmp_path / "multi")
        code = main(["train", "--config", str(path), "--seeds", "1,1", "--output-dir", out])
        assert code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "multi").exists()

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
            for value in ([], [0], "x", [-3], [1.5], [True])
            if (method, key, value) != ("elbo_gr", "decoder_widths", [])  # a linear decoder
        ]
        + [(method, {"hidden_activation": "foo"}) for method in ("elbo_gr", "degm_elbo")]
        + [(method, {"output_dir": 5}) for method in ("elbo_gr", "degm_elbo")]
        + [
            ("degm_elbo", {"latent_dim": 128}),
            ("elbo_gr", {"warm_start": "no"}),
            ("elbo_gr", {"normalize_recon": "no"}),
            ("elbo_gr", {"diagnostics": {"enabled": "no"}}),
            ("elbo_gr", {"method": ["elbo_gr"]}),
            ("elbo_gr", {"method": {"elbo_gr": 1}}),
            # an integer would be opened as a file descriptor
            ("elbo_gr", {"stream": [{"idx_images": 0}, "bars"]}),
            ("elbo_gr", {"stream": [{"idx_images": "a.idx", "idx_labels": 0}, "bars"]}),
            ("elbo_gr", {"stream": {"kind": "split", "train_images": 0, "test_images": "t", "groups": [[0]]}}),
            ("elbo_gr", {"stream": {"kind": "split", "train_images": "t", "test_images": "t",
                                    "test_labels": 1, "groups": [[0]]}}),
            # the cross-domain stream rule: at least 2 specs, each a family or an IDX spec
            ("elbo_gr", {"stream": []}),
            ("degm_elbo", {"stream": ["bars", "nope-inv"]}),
            ("elbo_gr", {"stream": ["bars", 5]}),
            ("elbo_gr", {"stream": ["bars", {"images": "a.idx"}]}),
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
