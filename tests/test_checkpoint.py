"""Checkpoint containers: wiring and V survive a round trip, and every
corruption is a CheckpointError (exit 3), never another exception."""

import hashlib
import json
import struct

import numpy as np
import pytest

from degm import rng
from degm.checkpoint import CheckpointError, load_graph, load_model, save_graph, save_model
from degm.cli import main
from degm.graph import (
    ArchSpec,
    BasicNode,
    GraphState,
    SpecificNode,
    build_basic_node,
    build_specific_node,
    select_node,
)
from degm.vae import build_vae, iw_logpx_np

TINY_ARCH = ArchSpec(data_dim=4, inter_dim=3, latent_dim=2, feat_dim=3)


def tiny_graph():
    """Basic, specific, basic on data_dim 4."""
    graph = GraphState(arch=TINY_ARCH)
    build_basic_node(graph, 1, seed=1).best_elbo = -2.5
    build_specific_node(graph, 2, [1.0], seed=2)
    build_basic_node(graph, 3, seed=3).best_elbo = -3.5
    for node in graph.all_nodes():
        node.freeze()
    return graph


def graph_summary(graph):
    return [
        (
            type(node).__name__,
            node.id,
            [p.id for p in getattr(node, "parents", [])],
            [w.shape for net in node.sub_models() for w in net.weights],
        )
        for node in graph.all_nodes()
    ]


def model_summary(model):
    return (model.data_dim, model.latent_dim, [w.shape for net in model.sub_models() for w in net.weights])


def graph_bytes(tmp_path, graph):
    path = tmp_path / "graph.bin"
    save_graph(path, graph)
    return path.read_bytes()


def eval_exit_code(tmp_path, checkpoint):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "degm_elbo", "tau": 35.0, "stream": ["bars", "blobs"],
                               "train_per_task": 20, "test_per_task": 20}))
    return main(["eval", "--checkpoint", str(checkpoint), "--config", str(cfg)])


class TestGraphRoundtrip:
    def test_same_wiring_and_scores(self, tmp_path):
        graph = tiny_graph()
        path = tmp_path / "graph.bin"
        save_graph(path, graph)
        loaded = load_graph(path)
        assert graph_summary(loaded) == graph_summary(graph)
        assert loaded.specific_nodes[0].parents == [loaded.basic_nodes[0]]
        np.testing.assert_array_equal(loaded.adjacency, graph.adjacency)
        assert [n.best_elbo for n in loaded.basic_nodes] == [-2.5, -3.5]
        x = (rng.stream(1, "x").random((16, 4)) > 0.5).astype(np.float64)
        assert select_node(loaded, x) == select_node(graph, x)
        noise = rng.stream(2, "noise").standard_normal((5, 16, TINY_ARCH.latent_dim))
        for saved, back in zip(graph.all_nodes(), loaded.all_nodes()):
            np.testing.assert_array_equal(
                iw_logpx_np(back, x, 5, noise=noise), iw_logpx_np(saved, x, 5, noise=noise)
            )

    def test_edited_v_row_rejected(self, tmp_path, capsys):
        buf = bytearray(graph_bytes(tmp_path, tiny_graph()))
        v_start = len(buf) - 9 * 8
        # node 2's row: pi = [1.0] over node 1's column; move the weight to column 3
        buf[v_start + 3 * 8 : v_start + 6 * 8] = struct.pack("<3d", 0.0, 0.0, 1.0)
        path = tmp_path / "edited.bin"
        path.write_bytes(bytes(buf))
        with pytest.raises(CheckpointError, match="adjacency"):
            load_graph(path)
        assert eval_exit_code(tmp_path, path) == 3
        assert "data error: " + str(path) in capsys.readouterr().err

    def test_k_other_than_preceding_basic_count_rejected(self, tmp_path, capsys):
        # wired in memory to one of two earlier Basic nodes; the format wires a
        # Specific node to every Basic node before it, so loading must refuse
        graph = GraphState(arch=TINY_ARCH)
        first = build_basic_node(graph, 1, seed=1)
        build_basic_node(graph, 2, seed=2)
        graph.nodes.append(SpecificNode(3, TINY_ARCH, [1.0], [first], seed=3))
        path = tmp_path / "graph.bin"
        save_graph(path, graph)
        with pytest.raises(CheckpointError, match="1 entries for 2 parents"):
            load_graph(path)
        assert eval_exit_code(tmp_path, path) == 3
        assert "1 entries for 2 parents" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert eval_exit_code(tmp_path, tmp_path / "absent.bin") == 3
        assert "data error: " + str(tmp_path / "absent.bin") in capsys.readouterr().err


class TestContainerBytes:
    """Both containers' bytes for fixed seeds (recorded under numpy 2.4.6):
    how a model is held in memory must not move them."""

    def test_graph(self, tmp_path):
        graph = GraphState(arch=TINY_ARCH)
        build_basic_node(graph, 1, seed=1).best_elbo = -2.5
        build_basic_node(graph, 2, seed=2).best_elbo = -3.0
        build_specific_node(graph, 3, [0.25, 0.75], seed=3)
        for node in graph.all_nodes():
            node.freeze()
        digest = hashlib.sha256(graph_bytes(tmp_path, graph)).hexdigest()
        assert digest == "7eb11029a5dec55b5428d52cf33c32303b0052d75ad70ef0a1856031a5bae845"

    @pytest.mark.parametrize(
        "trunk_widths, decoder_widths, digest",
        [
            ((3,), (3,), "2184e1ccfc42b5e57e9e4d62ca8677048e6dd43977f62c5ce357d530c7961474"),
            ((3, 5), (), "069a379f40db5714f2c4796bf2f3cea6d2f9981e3862f7955ce126eb3d9ab21f"),
        ],
    )
    def test_model(self, tmp_path, trunk_widths, decoder_widths, digest):
        model = build_vae(
            data_dim=4, latent_dim=2, trunk_widths=trunk_widths, decoder_widths=decoder_widths, seed=1
        )
        path = tmp_path / "model.bin"
        save_model(path, model)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCorruptContainers:
    """Exhaustive over a tiny graph and a tiny model: every truncation and every
    single-byte flip either raises CheckpointError or loads the same structure."""

    @pytest.fixture(params=["graph", "model"])
    def container(self, request, tmp_path):
        if request.param == "graph":
            graph = tiny_graph()
            return graph_bytes(tmp_path, graph), load_graph, graph_summary, graph_summary(graph)
        model = build_vae(data_dim=4, latent_dim=2, trunk_widths=(3,), decoder_widths=(3,), seed=1)
        path = tmp_path / "model.bin"
        save_model(path, model)
        return path.read_bytes(), load_model, model_summary, model_summary(model)

    def test_every_truncation_raises(self, container, tmp_path):
        buf, load, _, _ = container
        path = tmp_path / "cut.bin"
        for n in range(len(buf)):
            path.write_bytes(buf[:n])
            with pytest.raises(CheckpointError):
                load(path)

    def test_trailing_bytes_rejected(self, container, tmp_path):
        buf, load, _, _ = container
        path = tmp_path / "long.bin"
        path.write_bytes(buf + b"\0")
        with pytest.raises(CheckpointError, match="after the last field"):
            load(path)

    def test_every_byte_flip_raises_or_keeps_structure(self, container, tmp_path):
        buf, load, summary, want = container
        path = tmp_path / "flip.bin"
        rejected = 0
        for i in range(len(buf)):
            flipped = bytearray(buf)
            flipped[i] ^= 0xFF
            path.write_bytes(bytes(flipped))
            try:
                loaded = load(path)
            except CheckpointError:
                rejected += 1
                continue
            assert summary(loaded) == want, f"flip at byte {i}"
        assert 0 < rejected < len(buf)

    def test_widths_checked_against_stored_geometry(self, tmp_path):
        graph = tiny_graph()
        narrow = ArchSpec(data_dim=4, inter_dim=3, latent_dim=1, feat_dim=3)
        graph.basic_nodes[0].mu_head = BasicNode.on_arch(1, narrow).mu_head
        path = tmp_path / "graph.bin"
        save_graph(path, graph)
        with pytest.raises(CheckpointError, match="sub-model f_mu"):
            load_graph(path)

        model = build_vae(data_dim=4, latent_dim=2, trunk_widths=(3,), decoder_widths=(3,), seed=1)
        path = tmp_path / "model.bin"
        save_model(path, model)
        buf = bytearray(path.read_bytes())
        buf[8:12] = struct.pack("<I", 5)  # header data_dim
        path.write_bytes(bytes(buf))
        with pytest.raises(CheckpointError, match="data_dim 5"):
            load_model(path)
        model.mu_head = build_vae(data_dim=4, latent_dim=2, trunk_widths=(5,), seed=1).mu_head
        save_model(path, model)
        with pytest.raises(CheckpointError, match="head input widths"):
            load_model(path)
