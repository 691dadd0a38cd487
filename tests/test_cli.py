"""CLI: config parsing, commands, artifact formats, exit codes."""

import collections
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from degm import bounds, rng
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
    def _write_idx(self, tmp_path):
        import struct

        g = np.random.default_rng(5)

        def dump(prefix, n_per_label):
            labels = np.repeat([0, 1, 2, 3], n_per_label)
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

        return dump("train", 40), dump("test", 10)

    def _split_cfg(self, tmp_path, groups=((0, 1), (2, 3))):
        (tri, trl), (tei, tel) = self._write_idx(tmp_path)
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
    def test_eval_reproduces_final_row(self, tmp_path):
        cfg = fast_cfg(tmp_path, eval_k_prime=40)
        report = cmd_train(cfg)
        result = cmd_eval(report["artifacts"]["checkpoint"], cfg, k_prime=40)
        final_row = report["nll_matrix"][-1]
        for rec, trained_nll in zip(result["per_task"], final_row):
            se = rec.get("nll_se", 0.5)
            assert abs(rec["nll"] - trained_nll) <= 3 * se + 1e-9

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
            diagnostics={"enabled": True, "sample_size": 120, "eval_k_prime": 10},
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
        lines = open(fig3b).read().splitlines()
        assert lines[0].startswith("#")
        assert all(len(line.split()) == 5 for line in lines[1:])
        assert len(lines) - 1 == 2 * 2  # rows = recorded epochs

    def test_reexport_byte_identical(self, tmp_path):
        cfg = fast_cfg(tmp_path)
        cmd_train(cfg)
        paths = cmd_export_plots(str(tmp_path / "run"))
        first = {p: open(p, "rb").read() for p in paths}
        for p, blob in zip(cmd_export_plots(str(tmp_path / "run")), first.values()):
            assert open(p, "rb").read() == blob

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
