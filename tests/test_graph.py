"""Expansion graph: novelty, decisions, weights, wiring, bounds, selection."""

import collections
import math

import numpy as np
import pytest

from degm import graph as graph_mod
from degm import rng
from degm.checkpoint import load_graph, save_graph
from degm.cli import METHODS, evaluate_task_ends
from degm.data import make_cross_domain_stream
from degm.graph import (
    SELECT_BATCH,
    ArchSpec,
    GraphState,
    build_basic_node,
    build_specific_node,
    evaluate_task,
    expansion_decision,
    importance_weights,
    knowledge_novelty,
    select_node,
    train_degm_sequence,
)
from degm.nn import ContractError, InvalidSpecError, Tensor, backward, zero_grad
from degm.replay import TrainConfig, _bound_objective, run_training
from degm.vae import VaeModel, elbo, elbo_parts, iw_logpx_np
from helpers import iw_melbo_objective, max_grad_error

MICRO_ARCH = ArchSpec(
    data_dim=36, inter_dim=12, latent_dim=4, feat_dim=12, likelihood="bernoulli"
)


def micro_stream(families=("bars", "blobs", "rings"), n_train=300, n_test=120, seed=10):
    return make_cross_domain_stream(
        families,
        n_train=n_train,
        n_test=n_test,
        width=6,
        height=6,
        seed=seed,
        binarize_mode="stochastic",
    )


def micro_config(seed=0, epochs=5):
    return TrainConfig(epochs=epochs, batch_size=50, learning_rate=2e-3, seed=seed)


def task_end_records(states, stream, seed, k_prime=20):
    return evaluate_task_ends(METHODS["degm_elbo"].family, states, stream, seed, k_prime)


def trained_micro_graph(seed=0, tau=30.0, epochs=5, families=("bars", "blobs", "rings")):
    """The stream, the final graph and the task-end states of a micro run."""
    stream = micro_stream(families=families, seed=seed + 100)
    states, _ = zip(*train_degm_sequence(stream, MICRO_ARCH, micro_config(seed=seed, epochs=epochs), tau=tau))
    return stream, states[-1], states


class TestImportanceWeights:
    def test_hand_value(self):
        pi = importance_weights([2.0, 6.0])
        np.testing.assert_allclose(pi, [0.75, 0.25])

    def test_uniform_for_equal_scores(self):
        np.testing.assert_allclose(importance_weights([3.3, 3.3, 3.3]), [1 / 3] * 3)

    def test_single_score(self):
        np.testing.assert_array_equal(importance_weights([17.0]), [1.0])

    def test_all_zero_degenerate(self):
        np.testing.assert_allclose(importance_weights([0.0, 0.0]), [0.5, 0.5])

    def test_simplex_and_monotonicity_randomized(self):
        g = rng.stream(3, "pi")
        for _ in range(1000):
            k = int(g.integers(1, 9))
            ks = g.uniform(0.0, 100.0, size=k)
            pi = importance_weights(ks)
            assert np.all(pi >= 0.0)
            assert abs(pi.sum() - 1.0) <= 1e-9
            order = np.argsort(ks)
            # strictly decreasing weight in novelty for distinct scores
            for a, b in zip(order[:-1], order[1:]):
                if ks[a] < ks[b]:
                    assert pi[a] > pi[b]

    def test_negative_scores_rejected(self):
        with pytest.raises(InvalidSpecError):
            importance_weights([-1.0, 2.0])


class TestExpansionDecision:
    def test_threshold_cases(self):
        assert expansion_decision([700.0, 900.0], tau=600.0) == "basic"
        assert expansion_decision([500.0, 900.0], tau=600.0) == "specific"

    def test_infinite_tau_fixes_the_decision(self):
        # tau = -inf is degm2's one Basic node per task; +inf a Specific node past task 1
        assert expansion_decision([0.1], tau=-math.inf) == "basic"
        assert expansion_decision([1e9], tau=math.inf) == "specific"

    def test_empty_novelty_is_basic(self):
        # no Basic node to wire a Specific node to (task 1), whatever tau says
        for tau in (-math.inf, 5.0, math.inf):
            assert expansion_decision([], tau=tau) == "basic"

    def test_nan_novelty_rejected(self):
        # NaN > tau is False, so without the check the task would silently
        # get a Specific node
        with pytest.raises(ContractError, match="nan"):
            expansion_decision([700.0, float("nan")], tau=600.0)
        with pytest.raises(ContractError, match="nan"):
            expansion_decision([float("nan")], tau=-math.inf)


class TestGraphConstruction:
    def test_basic_node_grows_graph(self):
        graph = GraphState(arch=MICRO_ARCH)
        build_basic_node(graph, 1, seed=3)
        assert len(graph.basic_nodes) == 1
        assert graph.adjacency.shape == (1, 1)
        np.testing.assert_array_equal(graph.adjacency[0], 0.0)

    def test_specific_node_records_pi_row(self):
        graph = GraphState(arch=MICRO_ARCH)
        build_basic_node(graph, 1, seed=3)
        build_basic_node(graph, 2, seed=4)
        node = build_specific_node(graph, 3, [0.25, 0.75], seed=5)
        assert len(graph.specific_nodes) == 1
        assert graph.adjacency.shape == (3, 3)
        np.testing.assert_allclose(graph.adjacency[2, :2], [0.25, 0.75])
        np.testing.assert_array_equal(graph.adjacency[:2], 0.0)
        np.testing.assert_allclose(node.pi, [0.25, 0.75])
        assert node.parents == graph.basic_nodes

    def test_pi_length_mismatch(self):
        graph = GraphState(arch=MICRO_ARCH)
        build_basic_node(graph, 1, seed=3)
        with pytest.raises(ContractError):
            build_specific_node(graph, 2, [0.5, 0.5], seed=5)

    def test_nodes_follow_task_order(self):
        # evaluation finds node i at nodes[i - 1], so a node out of task order is refused
        graph = GraphState(arch=MICRO_ARCH)
        with pytest.raises(ContractError, match="task 2 cannot be node 1"):
            build_basic_node(graph, 2, seed=3)
        build_basic_node(graph, 1, seed=3)
        with pytest.raises(ContractError, match="task 1 cannot be node 2"):
            build_specific_node(graph, 1, [1.0], seed=5)
        assert [node.id for node in graph.nodes] == [1]

    def test_specific_smaller_than_basic(self):
        graph = GraphState(arch=MICRO_ARCH)
        basic = build_basic_node(graph, 1, seed=3)
        specific = build_specific_node(graph, 2, [1.0], seed=5)
        n_basic = sum(p.size for p in basic.parameters())
        n_specific = sum(p.size for p in specific.parameters())
        assert n_specific < n_basic

    def test_arch_invariants(self):
        with pytest.raises(InvalidSpecError):
            ArchSpec(data_dim=36, inter_dim=4, latent_dim=4, feat_dim=12)
        with pytest.raises(InvalidSpecError):
            ArchSpec(data_dim=36, inter_dim=12, latent_dim=4, feat_dim=36)


class TestKnowledgeNovelty:
    def test_self_probe_near_zero(self):
        stream, graph, _ = trained_micro_graph(seed=2, families=("bars", "blobs"))
        node = graph.basic_nodes[0]
        probe = stream.tasks[0].train.images[:200]
        ks = knowledge_novelty(graph, probe)
        assert ks[0] <= 0.05 * abs(node.best_elbo)

    def test_matched_domain_scores_lower(self):
        stream, graph, _ = trained_micro_graph(seed=3, tau=-math.inf)
        # every node is Basic; probe with each task's own data
        for i, task in enumerate(stream.tasks):
            ks = knowledge_novelty(graph, task.train.images[:200])
            assert np.argmin(ks) == i

    def test_probe_order_invariant(self):
        stream, graph, _ = trained_micro_graph(seed=2, families=("bars", "blobs"))
        probe = stream.tasks[1].train.images[:128]
        ks_a = knowledge_novelty(graph, probe)
        ks_b = knowledge_novelty(graph, probe[::-1].copy())
        # content-keyed noise: identical values, only the mean's summation
        # order changes
        np.testing.assert_allclose(ks_a, ks_b, atol=1e-9)

    def test_requires_basic_node(self):
        with pytest.raises(ContractError):
            knowledge_novelty(GraphState(arch=MICRO_ARCH), np.zeros((4, 36)))


class TestSpecificForward:
    def _graph_with_specific(self, seed=4):
        stream, graph, _ = trained_micro_graph(
            seed=seed, families=("bars", "blobs"), tau=1e9
        )
        assert len(graph.specific_nodes) == 1
        return stream, graph, graph.specific_nodes[0]

    def test_single_branch_degenerates_to_chain(self):
        stream, graph, _ = trained_micro_graph(seed=5, families=("bars", "blobs"), tau=1e9)
        node = graph.specific_nodes[0]
        if len(graph.basic_nodes) != 1:
            pytest.skip("expansion produced extra basic nodes")
        basic = graph.basic_nodes[0]
        x = stream.tasks[1].train.images[:16]
        noise = rng.stream(3, "n").standard_normal((16, MICRO_ARCH.latent_dim))
        z, _ = node.latent(Tensor(x), noise)
        h = basic.trunk.forward_np(x)
        mu = node.f_mu.forward_np(h)
        lv = node.f_logvar.forward_np(h)
        manual_z = mu + np.exp(0.5 * lv) * noise
        manual = node.g_prime.forward_np(basic.decoder[0].forward_np(manual_z))
        np.testing.assert_allclose(node.decode(z).data, manual, atol=1e-12)

    def test_combined_latent_is_weighted_branch_sum(self):
        stream, graph, node = self._graph_with_specific()
        x = stream.tasks[1].train.images[:8]
        noise = rng.stream(5, "n").standard_normal((8, MICRO_ARCH.latent_dim))
        z, _ = node.latent(Tensor(x), noise)
        # recompute branches outside the graph machinery
        expected = np.zeros((8, MICRO_ARCH.latent_dim))
        for w, basic in zip(node.pi, sorted(graph.basic_nodes, key=lambda b: b.id)):
            h = basic.trunk.forward_np(x)
            mu = node.f_mu.forward_np(h)
            lv = node.f_logvar.forward_np(h)
            expected += w * (mu + np.exp(0.5 * lv) * noise)
        np.testing.assert_allclose(z.data, expected, atol=1e-12)

    def test_frozen_basics_get_no_gradient(self):
        stream, graph, node = self._graph_with_specific()
        for p in node.parameters():
            p.requires_grad = True  # the trained node comes back frozen
        x = stream.tasks[1].train.images[:8]
        recon, kl = elbo_parts(node, x, rng=rng.stream(1, "m"))
        backward(recon - kl)
        for basic in graph.basic_nodes:
            for p in basic.parameters():
                assert p.grad is None and not p.requires_grad
        assert any(p.grad is not None for p in node.parameters())


class TestMelbo:
    def test_one_parent_mixture_bound_is_the_chain_bound(self):
        # with pi = (1,) the node is the VAE chained through its parent
        stream, graph, _ = trained_micro_graph(seed=5, families=("bars", "blobs"), tau=1e9)
        node = graph.specific_nodes[0]
        if len(graph.basic_nodes) != 1:
            pytest.skip("expansion produced extra basic nodes")
        parent = node.parents[0]
        chain = VaeModel(
            parent.trunk, node.f_mu, node.f_logvar, (parent.decoder[0], node.g_prime),
            MICRO_ARCH.latent_dim, MICRO_ARCH.likelihood,
        )
        x = stream.tasks[1].test.images[:32]
        a = elbo(node, x, rng=rng.stream(8, "shared"))
        b = elbo(chain, x, rng=rng.stream(8, "shared"))
        assert vars(a) == vars(b)

    def test_kl_term_non_negative(self):
        stream, graph, _ = trained_micro_graph(seed=6, tau=1e9)
        for node in graph.specific_nodes:
            est = elbo(node, stream.tasks[0].test.images[:16], rng=rng.stream(1, "m"))
            assert est.kl_term >= 0.0

    def test_valid_lower_bound(self):
        stream, graph, _ = trained_micro_graph(seed=7, families=("bars", "blobs"), tau=1e9)
        node = graph.specific_nodes[0]
        x = stream.tasks[1].test.images[:64]
        est = elbo(node, x, rng=rng.stream(2, "m"))
        logpx = iw_logpx_np(node, x, 1000, rng=rng.stream(3, "iw"))
        se = logpx.std(ddof=1) / math.sqrt(len(logpx))
        assert est.total <= logpx.mean() + 3 * se

    def test_gradients_match_fd(self):
        stream, graph, _ = trained_micro_graph(seed=8, families=("bars", "blobs"), tau=1e9)
        node = graph.specific_nodes[0]
        x = stream.tasks[1].train.images[:6]
        noise = rng.stream(4, "n").standard_normal((6, MICRO_ARCH.latent_dim))
        params = node.parameters()
        for p in params:
            p.requires_grad = True

        def value():
            recon, kl = elbo_parts(node, x, noise=noise)
            return float(recon) - float(kl)

        def loss():
            recon, kl = elbo_parts(node, x, noise=noise)
            return recon - kl

        assert max_grad_error(value, loss, params) < 1e-4

    def test_iw_objective_gradients_match_fd(self):
        stream, graph, _ = trained_micro_graph(seed=9, families=("bars", "blobs"), tau=1e9)
        node = graph.specific_nodes[0]
        x = stream.tasks[1].train.images[:5]
        params = node.parameters()
        for p in params:
            p.requires_grad = True
        objective = _bound_objective(node, TrainConfig(epochs=1, k_prime=3, seed=0))

        # fixed noise: rebuild the same stream for every evaluation
        def value():
            return float(objective(x, rng.stream(11, "iwm")))

        def loss():
            return objective(x, rng.stream(11, "iwm"))

        assert max_grad_error(value, loss, params) < 1e-4


class TestSpecificNodeIsAModel:
    def test_iw_objective_matches_frozen_oracle(self):
        # the K' > 1 objective is iwelbo on the node's shared-noise
        # proposal; it must reproduce the former hand-written objective
        stream, graph, _ = trained_micro_graph(seed=9, families=("bars", "blobs"), tau=1e9)
        node = graph.specific_nodes[0]
        x = stream.tasks[1].train.images[:50]
        params = node.parameters()
        for p in params:
            p.requires_grad = True
        config = TrainConfig(epochs=1, k_prime=3, seed=0)
        grads = []
        for objective in (_bound_objective(node, config), iw_melbo_objective(node, graph, config)):
            zero_grad(params)
            bound = objective(x, rng.stream(11, "iwm"))
            backward(-bound)
            grads.append((float(bound), [p.grad.copy() for p in params]))
        (value, got), (want_value, want) = grads
        assert value == want_value
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_later_basic_node_leaves_specific_scores_unchanged(self):
        graph = GraphState(arch=MICRO_ARCH)
        build_basic_node(graph, 1, seed=3)
        node = build_specific_node(graph, 2, [1.0], seed=5)
        x = (rng.stream(6, "x").random((24, 36)) > 0.5).astype(np.float64)

        def scores():
            return (
                elbo(node, x, rng=rng.stream(1, "m")).total,
                elbo(node, x, noise=rng.stream(2, "m").standard_normal((24, MICRO_ARCH.latent_dim))).total,
                iw_logpx_np(node, x, 20, rng=rng.stream(3, "iw")),
            )

        before = scores()
        build_basic_node(graph, 3, seed=7)
        after = scores()
        assert after[0] == before[0]
        np.testing.assert_array_equal(after[1], before[1])
        np.testing.assert_array_equal(after[2], before[2])
        assert [p.id for p in node.parents] == [1]
        np.testing.assert_array_equal(graph.adjacency, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])


class TestSelectNode:
    def test_single_node_selected(self):
        stream, graph, _ = trained_micro_graph(seed=2, families=("bars", "blobs"))
        sub = GraphState(arch=graph.arch, nodes=graph.nodes[:1])
        node_id, scores = select_node(sub, stream.tasks[0].test.images[:32])
        assert node_id == graph.basic_nodes[0].id
        assert set(scores) == {node_id}

    def test_scores_order_invariant(self):
        stream, graph, _ = trained_micro_graph(seed=2, families=("bars", "blobs"))
        x = stream.tasks[0].test.images[:64]
        a_id, a_scores = select_node(graph, x)
        b_id, b_scores = select_node(graph, x[::-1].copy())
        assert a_id == b_id
        for nid in a_scores:
            assert a_scores[nid] == pytest.approx(b_scores[nid], abs=1e-9)

    def test_argmax_invariant_under_increasing_transform(self):
        stream, graph, _ = trained_micro_graph(seed=2, families=("bars", "blobs"))
        _, scores = select_node(graph, stream.tasks[1].test.images[:64])
        raw_winner = max(sorted(scores), key=lambda nid: scores[nid])
        transformed = {nid: math.exp(0.1 * s) + 5.0 for nid, s in scores.items()}
        assert max(sorted(transformed), key=lambda nid: transformed[nid]) == raw_winner

    def test_empty_graph_rejected(self):
        with pytest.raises(ContractError):
            select_node(GraphState(arch=MICRO_ARCH), np.zeros((4, 36)))


class TestTrainDegmSequence:
    def test_force_basic_builds_one_node_per_task(self):
        _, graph, _ = trained_micro_graph(seed=1, tau=-math.inf)
        assert len(graph.basic_nodes) == 3
        assert len(graph.specific_nodes) == 0
        assert [n.id for n in graph.basic_nodes] == [1, 2, 3]
        np.testing.assert_array_equal(graph.adjacency, 0.0)

    def test_huge_tau_forces_specific_after_first(self):
        _, graph, _ = trained_micro_graph(seed=1, tau=1e12)
        assert len(graph.basic_nodes) == 1
        assert len(graph.specific_nodes) == 2

    def test_expansion_log_replays(self):
        a = trained_micro_graph(seed=9)[1]
        b = trained_micro_graph(seed=9)[1]
        assert len(a.expansion_log) == len(b.expansion_log) == 3
        for ra, rb in zip(a.expansion_log, b.expansion_log):
            assert ra["decision"] == rb["decision"]
            np.testing.assert_array_equal(ra["ks"], rb["ks"])
        assert [n.param_bytes() for n in a.nodes] == [n.param_bytes() for n in b.nodes]

    def test_basic_hashes_stable_under_specific_training(self):
        stream = micro_stream(families=("bars", "blobs"), seed=44)
        graph = list(train_degm_sequence(
            stream.__class__(tasks=stream.tasks[:1], kind="cross_domain"),
            MICRO_ARCH,
            micro_config(seed=3),
            tau=1e12,
        ))[-1][0]
        before = graph.basic_param_hash()
        # manually extend with a specific node trained on task 2
        pi = importance_weights(
            knowledge_novelty(graph, stream.tasks[1].train.images)
        )
        node = build_specific_node(graph, 2, pi, seed=11)
        config = micro_config(seed=3)
        images = stream.tasks[1].train.images
        run_training(node.parameters(), _bound_objective(node, config), images, config, "t2")
        node.freeze()
        assert graph.basic_param_hash() == before

    def test_frozen_best_elbo_recorded(self):
        _, graph, _ = trained_micro_graph(seed=1, tau=-math.inf)
        for node in graph.basic_nodes:
            assert node.best_elbo is not None and np.isfinite(node.best_elbo)
            assert not any(p.requires_grad for p in node.parameters())

    def test_eval_records_lower_triangular(self):
        stream, _, states = trained_micro_graph(seed=1)
        records = task_end_records(states, stream, seed=1)
        assert [len(r["evals"]) for r in records] == [1, 2, 3]

    def test_states_are_graph_prefixes(self):
        _, graph, states = trained_micro_graph(seed=1)
        for t, state in enumerate(states, 1):
            assert len(state.nodes) == t and all(a is b for a, b in zip(state.nodes, graph.nodes))
            assert state.expansion_log == graph.expansion_log[:t]

    def test_selection_accuracy_on_separated_domains(self):
        # needs converged nodes, so this one runs at the desk scale
        stream = make_cross_domain_stream(
            ["bars", "blobs", "rings"],
            n_train=1000,
            n_test=500,
            seed=110,
            binarize_mode="stochastic",
        )
        states, _ = zip(*train_degm_sequence(
            stream, ArchSpec(), TrainConfig(epochs=8, batch_size=64, seed=12), tau=-math.inf
        ))
        records = task_end_records(states, stream, seed=12)
        accs = [e["selection_accuracy"] for e in records[-1]["evals"]]
        assert np.mean(accs) >= 0.9


@pytest.fixture(scope="module")
def memo_run():
    """A 3-task micro run (two test batches per task, Specific nodes after the
    first) that records every IW estimate and every bound taken on a test
    batch, keyed by (node id, eval task, batch start), and every score noise
    drawn for one, keyed by (eval task, batch start)."""
    stream = micro_stream(seed=101)
    batches = {
        task.test.images[start : start + SELECT_BATCH].tobytes(): (task.task_id, start)
        for task in stream.tasks
        for start in range(0, len(task.test), SELECT_BATCH)
    }
    calls = {"iw": collections.Counter(), "score": collections.Counter(), "noise": collections.Counter()}

    def counting(kind, inner):
        def fn(node, x, *args, **kwargs):
            key = batches.get(np.asarray(x).tobytes())
            if key is not None:
                calls[kind][(node.id, *key)] += 1
            return inner(node, x, *args, **kwargs)

        return fn

    keyed_normal = rng.content_keyed_normal

    def counting_noise(x, *args):
        key = batches.get(np.asarray(x).tobytes())
        if key is not None:
            calls["noise"][key] += 1
        return keyed_normal(x, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod.vae_mod, "iw_logpx_np", counting("iw", iw_logpx_np))
        mp.setattr(graph_mod.vae_mod, "elbo", counting("score", elbo))
        mp.setattr(graph_mod.rng_mod, "content_keyed_normal", counting_noise)
        states, _ = zip(*train_degm_sequence(stream, MICRO_ARCH, micro_config(seed=1), tau=1e12))
        records = task_end_records(states, stream, seed=1)
    return stream, states[-1], records, calls


class TestEvalMemo:
    def test_one_iw_estimate_per_selected_node_and_batch(self, memo_run):
        _, _, records, calls = memo_run
        selected = {
            (node_id, ev["eval_task"], i * SELECT_BATCH)
            for record in records
            for ev in record["evals"]
            for i, node_id in enumerate(ev["selections"])
        }
        assert set(calls["iw"]) == selected
        assert set(calls["iw"].values()) == {1}
        # 12 batch evaluations over the three rows; each task's batches keep
        # their node here, so 6 distinct (node, task, batch) estimates
        assert sum(len(ev["selections"]) for r in records for ev in r["evals"]) == 12
        assert sum(calls["iw"].values()) == len(selected) == 6

    def test_one_score_per_node_and_batch(self, memo_run):
        _, graph, _, calls = memo_run
        kinds = [type(n).__name__ for n in graph.all_nodes()]
        assert kinds == ["BasicNode", "SpecificNode", "SpecificNode"]
        # every node meets every task's 2 batches once: 3 x 3 x 2, not (1 + 4 + 9) x 2
        assert len(calls["score"]) == 18
        assert set(calls["score"].values()) == {1}

    def test_one_score_noise_draw_per_batch(self, memo_run):
        _, _, _, calls = memo_run
        # each task's 2 batches draw their noise once, not once per evaluation
        # of the task (3 + 2 + 1 evaluations, 12 draws)
        assert len(calls["noise"]) == 6
        assert set(calls["noise"].values()) == {1}

    def test_final_row_matches_memo_free_evaluation(self, memo_run):
        stream, graph, records, _ = memo_run
        for ev, task in zip(records[-1]["evals"], stream.tasks):
            fresh = evaluate_task(
                graph,
                task.test.images,
                true_task=task.task_id,
                eval_k_prime=20,
                rng_seed=1,
                rng_label=f"degm/eval/after3/task{task.task_id}",
            )
            assert fresh["selections"] == ev["selections"]
            assert fresh["nll"].hex() == ev["nll"].hex()
            assert fresh["selection_accuracy"] == ev["selection_accuracy"]

    def test_nll_constant_while_selection_is(self, memo_run):
        _, _, records, _ = memo_run
        kept = 0
        for j in range(1, 4):
            rows = [ev for r in records for ev in r["evals"] if ev["eval_task"] == j]
            if all(ev["selections"] == rows[0]["selections"] for ev in rows):
                assert len({ev["nll"] for ev in rows}) == 1
                kept += len(rows) > 1
        assert kept > 0

    def test_select_node_scores_only_missing_nodes(self, memo_run, monkeypatch):
        stream, graph, _, _ = memo_run
        x = stream.tasks[0].test.images[:SELECT_BATCH]
        node_id, scores = select_node(graph, x)
        drawn = []
        monkeypatch.setattr(graph_mod, "_score_noise", lambda *a: drawn.append(a))
        assert select_node(graph, x, dict(scores)) == (node_id, scores)
        assert drawn == []


class TestCheckpointRoundtrip:
    def test_graph_roundtrip_bitwise(self, tmp_path):
        stream, graph, _ = trained_micro_graph(seed=13, tau=30.0)
        path = tmp_path / "graph.bin"
        save_graph(path, graph)
        loaded = load_graph(path)
        assert [n.param_bytes() for n in loaded.nodes] == [n.param_bytes() for n in graph.nodes]
        assert len(loaded.basic_nodes) == len(graph.basic_nodes)
        assert len(loaded.specific_nodes) == len(graph.specific_nodes)
        np.testing.assert_array_equal(loaded.adjacency, graph.adjacency)
        for a, b in zip(graph.basic_nodes, loaded.basic_nodes):
            assert a.best_elbo == b.best_elbo
        # loaded graph scores identically
        x = stream.tasks[0].test.images[:32]
        a_id, a_scores = select_node(graph, x)
        b_id, b_scores = select_node(loaded, x)
        assert a_id == b_id and a_scores == b_scores

    def test_bad_magic_rejected(self, tmp_path):
        from degm.checkpoint import CheckpointError

        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError):
            load_graph(path)

    def test_truncated_rejected(self, tmp_path):
        stream, graph, _ = trained_micro_graph(seed=13, families=("bars", "blobs"))
        path = tmp_path / "graph.bin"
        save_graph(path, graph)
        from degm.checkpoint import CheckpointError

        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            load_graph(clipped)
