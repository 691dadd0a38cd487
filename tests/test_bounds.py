"""Diagnostics: risks, discrepancy, slack, KL gap, component-task accounting."""

import math

import numpy as np
import pytest

from degm import rng
from degm.bounds import (
    AssignmentLog,
    ComponentEntry,
    HypothesisSnapshot,
    IncompleteInputError,
    InvalidLogError,
    ReconstructionTable,
    assignment_summary,
    discrepancy_slack,
    empirical_discrepancy,
    lelbo_breakdown,
    mixture_bound_report,
    pooled_targets,
    risk,
)
from degm.checkpoint import load_model, save_model
from degm.data import synth_generate
from degm.nn import InvalidSpecError, no_grad
from degm.replay import TrainConfig, train_task_gr
from degm.vae import build_vae, gaussian_kl
from helpers import StackPool


class _AffineHypothesis:
    """1-D affine stand-in for an encode-decode map (test double)."""

    def __init__(self, scale, shift):
        self.scale = scale
        self.shift = shift

    def reconstruct(self, x):
        return self.scale * x + self.shift

    def __call__(self, x):
        return self.reconstruct(x)


def affine_pool(*params):
    pool = StackPool()
    for scale, shift in params:
        h = _AffineHypothesis(scale, shift)
        snap = HypothesisSnapshot.__new__(HypothesisSnapshot)
        snap.label = {"scale": scale, "shift": shift}
        snap._frozen = None
        snap.reconstruct = h.reconstruct
        pool.hypotheses.append(snap)
    return pool


def discrepancy(set_p, set_q, pool):
    return empirical_discrepancy(pool.pair_losses(set_p), pool.pair_losses(set_q))


class TestSnapshotFreezing:
    """A snapshot copies a model that can still train, and uses a frozen one as is."""

    def test_loaded_model_is_not_copied(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, build_vae(data_dim=36, latent_dim=4, seed=3))
        model = load_model(path)
        assert HypothesisSnapshot(model)._frozen is model

    def test_live_model_is_copied(self):
        model = build_vae(data_dim=36, latent_dim=4, seed=3)
        x = rng.stream(3, "x").random((5, 36))
        snap = HypothesisSnapshot(model)
        before = snap.reconstruct(x)
        for p in model.parameters():
            p.data += 0.5
        assert snap._frozen is not model
        assert snap.reconstruct(x).tobytes() == before.tobytes()
        assert not np.array_equal(HypothesisSnapshot(model).reconstruct(x), before)


class TestRisk:
    def test_identity_hypothesis_zero_risk(self):
        x = rng.stream(2, "x").random((20, 5))
        assert risk(lambda v: v, x) == 0.0

    def test_mean_image_risk_equals_variance(self):
        x = rng.stream(3, "x").random((50, 4))
        mean_img = x.mean(axis=0)
        val = risk(lambda v: np.broadcast_to(mean_img, v.shape), x)
        oracle = float(((x - mean_img) ** 2).sum(axis=1).mean())
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_self_reference_zero(self):
        x = rng.stream(4, "x").random((10, 3))
        h = _AffineHypothesis(0.5, 0.1)
        assert risk(h, x, reference=h) == 0.0

    def test_normalization(self):
        x = rng.stream(5, "x").random((10, 8))
        h = _AffineHypothesis(0.0, 0.0)
        assert risk(h, x, normalize=True) == pytest.approx(risk(h, x) / 8.0, rel=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidSpecError):
            risk(lambda v: v, np.zeros((0, 3)))


class TestEmpiricalDiscrepancy:
    def test_identical_sets_zero(self):
        x = rng.stream(6, "x").random((30, 2))
        pool = affine_pool((1.0, 0.0), (0.5, 0.2), (2.0, -0.1))
        assert discrepancy(x, x.copy(), pool) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        g = rng.stream(7, "x")
        a, b = g.random((25, 3)), g.random((40, 3))
        pool = affine_pool((1.0, 0.0), (0.3, 0.5))
        assert discrepancy(a, b, pool) == pytest.approx(
            discrepancy(b, a, pool), rel=1e-12
        )

    def test_matches_bruteforce_enumeration(self):
        # independent oracle: explicit loops over ordered hypothesis pairs
        g = rng.stream(8, "x")
        set_p = g.random((17, 1))
        set_q = g.random((23, 1)) * 2.0
        params = [(1.0, 0.0), (0.5, 0.2), (-0.4, 0.9)]
        pool = affine_pool(*params)

        best = 0.0
        for sa, ba in params:
            for sb, bb in params:
                lp = np.mean([((sa * v + ba) - (sb * v + bb)) ** 2 for v in set_p[:, 0]])
                lq = np.mean([((sa * v + ba) - (sb * v + bb)) ** 2 for v in set_q[:, 0]])
                best = max(best, abs(lp - lq))
        assert discrepancy(set_p, set_q, pool) == pytest.approx(best, rel=1e-10)

    def test_non_negative(self):
        g = rng.stream(9, "x")
        pool = affine_pool((1.0, 0.0), (0.9, 0.0))
        assert discrepancy(g.random((5, 2)), g.random((5, 2)), pool) >= 0.0

    def test_singleton_pool_rejected(self):
        with pytest.raises(InvalidSpecError):
            discrepancy(np.zeros((2, 1)), np.zeros((2, 1)), affine_pool((1.0, 0.0)))


class TestReconstructionTable:
    PARAMS = ((1.0, 0.0), (0.5, 0.2), (-0.4, 0.9), (2.0, -0.1), (0.3, 0.5))

    def _sets(self):
        g = rng.stream(13, "x")
        return g.random((17, 3)), g.random((23, 3)) * 2.0

    @staticmethod
    def _table(hypotheses, x, buffer=None):
        buffer = np.empty(len(hypotheses) * x.size) if buffer is None else buffer
        table = ReconstructionTable(x, len(hypotheses), buffer)
        for h in hypotheses:
            table.add(h)
        return table

    def test_exact_size_arrays(self):
        for x in self._sets():
            table = self._table(affine_pool(*self.PARAMS).hypotheses, x)
            assert table.recons.shape == (5, *x.shape) and table.filled == 5

    def test_windows_equal_fresh_pools_bitwise(self):
        set_p, set_q = self._sets()
        buffer = np.empty(5 * set_q.size)
        for lo, hi in ((0, 5), (0, 2), (1, 4), (3, 5)):
            fresh = StackPool(affine_pool(*self.PARAMS[lo:hi]).hypotheses)
            for x in (set_p, set_q):  # both sets' tables share one buffer, as the walk's do
                table = self._table(affine_pool(*self.PARAMS).hypotheses, x, buffer)
                assert np.shares_memory(table.recons, buffer)
                assert table.pair_losses(lo, hi).tobytes() == fresh.pair_losses(x).tobytes()

    def test_each_pair_reconstructed_once(self):
        set_p, set_q = self._sets()
        pool = affine_pool(*self.PARAMS)
        calls = []

        def counted(inner):
            def reconstruct(x):
                calls.append(x.shape)
                return inner(x)

            return reconstruct

        for snap in pool.hypotheses:
            snap.reconstruct = counted(snap.reconstruct)
        tables = [self._table(pool.hypotheses, x) for x in (set_p, set_q)]
        for hi in range(2, 6):
            empirical_discrepancy(*(t.pair_losses(hi - 2, hi) for t in tables))
        assert len(calls) == 2 * len(self.PARAMS)

    def test_small_buffer_rejected(self):
        set_p, _ = self._sets()
        with pytest.raises(InvalidSpecError, match="buffer"):
            ReconstructionTable(set_p, 5, np.empty(5 * set_p.size - 1))

    def test_window_bounds_checked(self):
        table = self._table(affine_pool(*self.PARAMS).hypotheses, self._sets()[0])
        for lo, hi in ((-1, 2), (3, 2), (0, 6)):
            with pytest.raises(InvalidSpecError, match="window"):
                table.pair_losses(lo, hi)


class TestDiscrepancySlack:
    def test_symmetric_form(self):
        val = discrepancy_slack(500, 500, loss_bound=2.0, delta=0.1)
        expected = 6.0 * 2.0 * math.sqrt(math.log(40.0) / 1000.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_hand_value(self):
        val = discrepancy_slack(1000, 1000, loss_bound=1.0, delta=0.05)
        assert val == pytest.approx(6.0 * math.sqrt(math.log(80.0) / 2000.0), rel=1e-12)
        assert val == pytest.approx(0.2810, abs=5e-4)

    def test_vanishes_with_samples(self):
        vals = [discrepancy_slack(m, m, 1.0) for m in (10, 100, 1000, 10_000, 10_000_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_monotone_in_bound_and_confidence(self):
        assert discrepancy_slack(100, 100, 2.0) > discrepancy_slack(100, 100, 1.0)
        assert discrepancy_slack(100, 100, 1.0, delta=0.01) > discrepancy_slack(
            100, 100, 1.0, delta=0.1
        )

    def test_delta_domain(self):
        with pytest.raises(InvalidSpecError):
            discrepancy_slack(10, 10, 1.0, delta=1.5)


def _trained_small_vae(seed=0, likelihood="bernoulli", epochs=4):
    train = synth_generate("bars", 400, width=6, height=6, seed=seed)
    if likelihood == "bernoulli":
        from degm.data import binarize

        train = binarize(train, "threshold_0.5")
    m = build_vae(
        data_dim=36,
        latent_dim=4,
        trunk_widths=(16,),
        decoder_widths=(16,),
        likelihood=likelihood,
        seed=seed,
    )
    train_task_gr(m, train, TrainConfig(epochs=epochs, batch_size=50, seed=seed), 1, 0)
    return m, train


def _kl_gap(model, target_sets, mixed_set):
    pool = np.zeros((2, 2))  # the discrepancy's pool plays no part in the gap
    return lelbo_breakdown(model, target_sets, mixed_set, pool, pool)["kl_gap"]


class TestKlGap:
    def test_pooled_equal_sizes_zero_gap(self):
        m, train = _trained_small_vae(seed=3)
        sets = [train.images[:100], train.images[100:200], train.images[200:300]]
        pooled = np.concatenate(sets, axis=0)
        assert _kl_gap(m, sets, pooled) == pytest.approx(0.0, abs=1e-9)

    def test_non_negative(self):
        m, train = _trained_small_vae(seed=4)
        other = synth_generate("rings", 80, width=6, height=6, seed=9).images
        assert _kl_gap(m, [train.images[:80]], other) >= 0.0

    def test_empty_rejected(self):
        m, train = _trained_small_vae(seed=3)
        with pytest.raises(InvalidSpecError, match="at least one target set"):
            _kl_gap(m, [], train.images)
        with pytest.raises(InvalidSpecError, match="empty mixed set"):
            _kl_gap(m, [train.images[:10]], train.images[:0])
        with pytest.raises(InvalidSpecError, match="empty target set"):
            _kl_gap(m, [train.images[:10], train.images[:0]], train.images)

    def test_equals_two_encoder_passes_bitwise(self):
        m, train = _trained_small_vae(seed=4)
        targets = [train.images[:80], train.images[80:200]]
        mixed = synth_generate("rings", 90, width=6, height=6, seed=9).images
        with no_grad():
            kl_targets = float(np.mean([float(gaussian_kl(*m.encode(t))) for t in targets]))
            two_pass = abs(kl_targets - float(gaussian_kl(*m.encode(mixed))))
        assert _kl_gap(m, targets, mixed) == two_pass


class TestLelboBreakdown:
    def test_single_task_target_close_to_source(self):
        # same-distribution train/test: generalization noise only
        m, train = _trained_small_vae(seed=5, epochs=6)
        test = synth_generate("bars", 200, width=6, height=6, seed=77)
        from degm.data import binarize

        test = binarize(test, "threshold_0.5")
        pool = StackPool()
        pool.add(m, {"task": 1, "epoch": "final"})
        pool.add(build_vae(36, 4, (16,), (16,), "bernoulli", seed=99), {"task": 0, "epoch": 0})
        out = lelbo_breakdown(
            m, [test.images], train.images, pool.pair_losses(test.images), pool.pair_losses(train.images),
            rng=rng.stream(0, "b"),
        )
        assert abs(out["target_risk_elbo"] - out["source_risk_elbo"]) <= 0.1 * abs(
            out["source_risk_elbo"]
        )

    def test_decomposition_identity_exact(self):
        m, train = _trained_small_vae(seed=6)
        test = train.images[:120]
        pool = StackPool()
        pool.add(m, {"task": 1, "epoch": 1})
        pool.add(build_vae(36, 4, (16,), (16,), "bernoulli", seed=98), {})
        out = lelbo_breakdown(
            m, [test], train.images, pool.pair_losses(test), pool.pair_losses(train.images),
            rng=rng.stream(1, "b"),
        )
        assert out["target_risk_elbo"] == pytest.approx(
            out["source_risk_elbo"] + out["kl_gap"] + out["residual"], rel=1e-12
        )
        for key in ("source_risk_elbo", "target_risk_elbo", "kl_gap", "empirical_discrepancy", "slack"):
            assert np.isfinite(out[key])
        assert out["epsilon_lower_bound"] == 0.0 and not out["epsilon_estimable"]

    def test_normalized_risks_bound_the_loss_by_one(self):
        # the discrepancy is divided by d, so the slack's loss bound M is 1, not d
        m, train = _trained_small_vae(seed=6)
        targets = [train.images[:120], train.images[120:200]]
        pool = StackPool()
        pool.add(m, {})
        pool.add(build_vae(36, 4, (16,), (16,), "bernoulli", seed=98), {})
        losses = (pool.pair_losses(pooled_targets(targets)), pool.pair_losses(train.images))
        plain = lelbo_breakdown(m, targets, train.images, *losses)
        scaled = lelbo_breakdown(m, targets, train.images, *losses, normalize_risks=True)
        assert plain["slack"] == discrepancy_slack(2 * 80, 400, 36.0)
        assert scaled["slack"] == discrepancy_slack(2 * 80, 400, 1.0)
        assert scaled["empirical_discrepancy"] == plain["empirical_discrepancy"] / 36

    def test_table_window_matches_stacked_pool_bitwise(self):
        m, train = _trained_small_vae(seed=6)
        targets = [train.images[:120], train.images[120:200]]
        models = [m, build_vae(36, 4, (16,), (16,), "bernoulli", seed=98)]
        pool = StackPool()
        for model in models:
            pool.add(model, {})
        sets = (pooled_targets(targets), train.images)
        tables = [ReconstructionTable(x, len(pool), np.empty(len(pool) * x.size)) for x in sets]
        for table in tables:
            for h in pool.hypotheses:
                table.add(h)

        def breakdown(pair_losses_p, pair_losses_q):
            return lelbo_breakdown(
                m, targets, train.images, pair_losses_p, pair_losses_q, rng=rng.stream(1, "b")
            )

        assert breakdown(*(t.pair_losses(0, 2) for t in tables)) == breakdown(*map(pool.pair_losses, sets))


def brute_force_accounting(t, partition):
    """Oracle: enumerate accumulated chain links k in {-1..c-1} per task."""
    counts = {}
    for tasks in partition:
        tasks = sorted(tasks)
        for a in tasks:
            if len(tasks) == 1:
                counts[a] = 0
            else:
                c = t - a
                counts[a] = len(list(range(-1, c)))  # k = -1 .. c-1
    return counts


def partitions_into_upto_k(items, k_max):
    """All set partitions of items with at most k_max blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in partitions_into_upto_k(rest, k_max):
        for i in range(len(sub)):
            yield [block | {first} if j == i else block for j, block in enumerate(sub)]
        if len(sub) < k_max:
            yield sub + [{first}]


class TestAssignmentSummary:
    def test_each_task_own_component(self):
        log = AssignmentLog.from_partition(4, [{1}, {2}, {3}, {4}])
        summary = assignment_summary(log)
        assert summary["C_prime"] == []
        assert len(summary["C"]) == 4
        assert all(v == 0 for v in summary["accumulated_term_counts"].values())

    def test_single_component_four_tasks(self):
        log = AssignmentLog.from_partition(4, [{1, 2, 3, 4}])
        summary = assignment_summary(log)
        assert summary["C"] == [] and summary["C_prime"] == [1]
        counts = summary["accumulated_term_counts"]
        assert [counts[a] for a in (1, 2, 3, 4)] == [4, 3, 2, 1]

    def test_partition_invariants(self):
        log = AssignmentLog.from_partition(5, [{1, 3}, {2}, {4, 5}])
        summary = assignment_summary(log)
        assert len(summary["C"]) + len(summary["C_prime"]) == summary["K"]
        total_tasks = sum(len(v) for v in summary["A"].values())
        assert total_tasks == 5

    def test_matches_bruteforce_for_all_small_assignments(self):
        # exhaustive: all partitions of t <= 6 tasks into <= 4 components
        checked = 0
        for t in range(1, 7):
            for partition in partitions_into_upto_k(range(1, t + 1), 4):
                log = AssignmentLog.from_partition(t, partition)
                summary = assignment_summary(log)
                assert summary["accumulated_term_counts"] == brute_force_accounting(t, partition)
                assert len(summary["C"]) + len(summary["C_prime"]) == len(partition)
                checked += 1
        # sum over t <= 6 of Stirling partition numbers S(t, k), k <= 4
        assert checked == 261

    def test_double_coverage_rejected(self):
        log = AssignmentLog(
            t=2,
            entries=[
                ComponentEntry(1, [1, 2], [1, 0]),
                ComponentEntry(2, [2], [0]),
            ],
        )
        with pytest.raises(InvalidLogError):
            assignment_summary(log)

    def test_missing_task_rejected(self):
        log = AssignmentLog(t=3, entries=[ComponentEntry(1, [1, 2], [2, 1])])
        with pytest.raises(InvalidLogError):
            assignment_summary(log)

    def test_replay_schedule_enforced(self):
        log = AssignmentLog(t=3, entries=[ComponentEntry(1, [1, 2, 3], [5, 1, 0])])
        with pytest.raises(InvalidLogError):
            assignment_summary(log)


class TestMixtureBoundReport:
    def _unit_inputs(self, summary):
        per_term = {}
        for a in range(1, summary["t"] + 1):
            per_term[(a, "risk")] = 1.0
            per_term[(a, "elbo")] = 1.0
            chain = summary["accumulated_term_counts"][a]
            if chain == 0:
                per_term[(a, "ra", -1)] = 1.0
            else:
                for k in range(-1, chain - 1):
                    per_term[(a, "ra", k)] = 1.0
        return per_term

    def test_all_once_trained_has_empty_accumulation(self):
        summary = assignment_summary(AssignmentLog.from_partition(3, [{1}, {2}, {3}]))
        report = mixture_bound_report(summary, self._unit_inputs(summary))
        assert report["R_A_prime"] == 0.0
        assert report["R_C"] == pytest.approx(3 * (1.0 + 1.0))  # risk + one link each

    def test_single_component_hand_expansion(self):
        # t = 2, one component: task 1 has links k in {-1, 0}, task 2 has {-1}
        summary = assignment_summary(AssignmentLog.from_partition(2, [{1, 2}]))
        report = mixture_bound_report(summary, self._unit_inputs(summary))
        # R_A' = (risk_1 + 2 links) + (risk_2 + 1 link) = 3 + 2
        assert report["R_A_prime"] == pytest.approx(5.0)
        assert report["R_A_prime_II"] == pytest.approx(3.0)
        assert report["R_C"] == 0.0

    def test_linear_in_inputs(self):
        summary = assignment_summary(AssignmentLog.from_partition(3, [{1, 2}, {3}]))
        base = self._unit_inputs(summary)
        doubled = {k: 2.0 * v for k, v in base.items()}
        a = mixture_bound_report(summary, base)
        b = mixture_bound_report(summary, doubled)
        assert b["R_C"] == pytest.approx(2 * a["R_C"])
        assert b["R_A_prime"] == pytest.approx(2 * a["R_A_prime"])

    def test_missing_keys_listed(self):
        summary = assignment_summary(AssignmentLog.from_partition(2, [{1}, {2}]))
        with pytest.raises(IncompleteInputError) as err:
            mixture_bound_report(summary, {(1, "risk"): 1.0})
        assert (2, "risk") in err.value.missing
        assert (1, "elbo") in err.value.missing

    @pytest.mark.parametrize("partition, kl_gaps, rhs_total", [
        ([{1}, {2}, {3}], None, 4.0),  # three once-trained components
        ([{1, 2, 3}], None, 3.0),  # one component retrained on all three tasks
        ([{1, 2, 3}], {1: 1.0}, 10 / 3),
    ])
    def test_unit_inputs_rhs_total_at_t3(self, partition, kl_gaps, rhs_total):
        # the code's current values: the once-trained elbo sum is not divided
        # by t, the multi-trained one is; this scaling has not been checked
        # against the paper's theorem
        summary = assignment_summary(AssignmentLog.from_partition(3, partition))
        report = mixture_bound_report(summary, self._unit_inputs(summary), kl_gaps=kl_gaps)
        assert report["rhs_total"] == pytest.approx(rhs_total)

    def test_kl_gaps_summed_over_multi_components(self):
        summary = assignment_summary(AssignmentLog.from_partition(3, [{1, 2}, {3}]))
        report = mixture_bound_report(
            summary, self._unit_inputs(summary), kl_gaps={1: 0.4, 99: 7.0}
        )
        assert report["D_diff"] == pytest.approx(0.4)
