"""Diagnostics: risks, discrepancy, slack, KL gap, accounting ledger."""

import math

import numpy as np
import pytest

from degm import rng
from degm.bounds import (
    AssignmentLog,
    ComponentEntry,
    DiagnosticsLedger,
    HypothesisPool,
    HypothesisSnapshot,
    IncompleteInputError,
    InvalidLogError,
    ReconstructionTable,
    assignment_summary,
    discrepancy_slack,
    empirical_discrepancy,
    kl_gap,
    lelbo_breakdown,
    mixture_bound_report,
    rademacher_estimate,
    risk,
    squared_loss,
)
from degm.data import synth_generate
from degm.nn import InvalidSpecError, ShapeError
from degm.replay import TrainConfig, train_task_gr
from degm.vae import build_vae
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
    pool = HypothesisPool()
    for scale, shift in params:
        h = _AffineHypothesis(scale, shift)
        snap = HypothesisSnapshot.__new__(HypothesisSnapshot)
        snap.label = {"scale": scale, "shift": shift}
        snap._frozen = None
        snap.reconstruct = h.reconstruct
        pool.hypotheses.append(snap)
    return pool


class TestSquaredLoss:
    def test_identity_is_zero(self):
        x = rng.stream(0, "x").random(7)
        assert squared_loss(x, x) == 0.0

    def test_hand_value(self):
        assert squared_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 2.0

    def test_bounded_by_dimension_on_unit_cube(self):
        g = rng.stream(1, "x")
        for _ in range(50):
            d = int(g.integers(1, 20))
            a = g.random(d)
            b = g.random(d)
            assert squared_loss(a, b) <= d

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            squared_loss(np.zeros(2), np.zeros(3))


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
        assert empirical_discrepancy(x, x.copy(), pool) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        g = rng.stream(7, "x")
        a, b = g.random((25, 3)), g.random((40, 3))
        pool = affine_pool((1.0, 0.0), (0.3, 0.5))
        assert empirical_discrepancy(a, b, pool) == pytest.approx(
            empirical_discrepancy(b, a, pool), rel=1e-12
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
        assert empirical_discrepancy(set_p, set_q, pool) == pytest.approx(best, rel=1e-10)

    def test_non_negative(self):
        g = rng.stream(9, "x")
        pool = affine_pool((1.0, 0.0), (0.9, 0.0))
        assert empirical_discrepancy(g.random((5, 2)), g.random((5, 2)), pool) >= 0.0

    def test_singleton_pool_rejected(self):
        with pytest.raises(InvalidSpecError):
            empirical_discrepancy(np.zeros((2, 1)), np.zeros((2, 1)), affine_pool((1.0, 0.0)))


class TestReconstructionTable:
    PARAMS = ((1.0, 0.0), (0.5, 0.2), (-0.4, 0.9), (2.0, -0.1), (0.3, 0.5))

    def _sets(self):
        g = rng.stream(13, "x")
        return g.random((17, 3)), g.random((23, 3)) * 2.0

    def test_exact_size_arrays(self):
        set_p, set_q = self._sets()
        table = ReconstructionTable(affine_pool(*self.PARAMS).hypotheses, [set_p, set_q])
        assert [r.shape for r in table.recons] == [(5, 17, 3), (5, 23, 3)]

    def test_windows_equal_fresh_pools_bitwise(self):
        set_p, set_q = self._sets()
        table = ReconstructionTable(affine_pool(*self.PARAMS).hypotheses, [set_p, set_q])
        for lo, hi in ((0, 5), (0, 2), (1, 4), (3, 5)):
            fresh = StackPool(affine_pool(*self.PARAMS[lo:hi]).hypotheses)
            window = table.window(lo, hi)
            assert empirical_discrepancy(set_p, set_q, window) == empirical_discrepancy(
                set_p, set_q, fresh
            )
            assert rademacher_estimate(set_q, window, 8, rng=rng.stream(1, "s")) == (
                rademacher_estimate(set_q, fresh, 8, rng=rng.stream(1, "s"))
            )

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
        table = ReconstructionTable(pool.hypotheses, [set_p, set_q])
        for hi in range(2, 6):
            empirical_discrepancy(set_p, set_q.copy(), table.window(hi - 2, hi))
        assert len(calls) == 2 * len(self.PARAMS)

    def test_unknown_sample_set_rejected(self):
        set_p, set_q = self._sets()
        table = ReconstructionTable(affine_pool(*self.PARAMS).hypotheses, [set_p])
        with pytest.raises(InvalidSpecError, match="sample set"):
            empirical_discrepancy(set_p, set_q, table.window())

    def test_window_bounds_checked(self):
        table = ReconstructionTable(affine_pool(*self.PARAMS).hypotheses, self._sets())
        for lo, hi in ((-1, 2), (3, 2), (0, 6)):
            with pytest.raises(InvalidSpecError, match="window"):
                table.window(lo, hi)


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

    def test_rademacher_terms_additive(self):
        base = discrepancy_slack(100, 100, 1.0)
        assert discrepancy_slack(100, 100, 1.0, rad_p=0.5, rad_q=0.25) == pytest.approx(
            base + 8.0 * 0.75, rel=1e-12
        )

    def test_delta_domain(self):
        with pytest.raises(InvalidSpecError):
            discrepancy_slack(10, 10, 1.0, delta=1.5)


class _ConstantHypothesis:
    def __init__(self, value, dim):
        self.value = value
        self.dim = dim

    def reconstruct(self, x):
        return np.full_like(x, self.value)


class TestRademacherEstimate:
    @staticmethod
    def _exact_abs_walk(m):
        # E|S_m| for a +-1 walk, even m: m * C(m, m/2) / 2^m
        return m * math.comb(m, m // 2) / 2.0**m

    def test_constant_pool_matches_walk_oracle(self):
        m = 400
        x = rng.stream(10, "x").random((m, 1))
        pool = HypothesisPool()
        snap = HypothesisSnapshot.__new__(HypothesisSnapshot)
        snap.label = {}
        snap.reconstruct = _ConstantHypothesis(0.0, 1).reconstruct
        pool.hypotheses.append(snap)
        # pair losses are the constant ||x - 0||^2... use unit data for c = 1
        x = np.ones((m, 1))
        pool2 = affine_pool((1.0, 0.0), (0.0, 0.0))  # pair loss |x|^2 = 1 on x = 1
        draws = 400
        est = rademacher_estimate(x, pool2, n_sign_draws=draws, rng=rng.stream(3, "signs"))
        oracle = self._exact_abs_walk(m) / m  # c = 1
        se = math.sqrt(1.0 / m) / math.sqrt(draws)  # loose bound on draw noise
        assert abs(est - oracle) < 5 * se + 0.005

    def test_non_negative(self):
        x = rng.stream(11, "x").random((64, 2))
        pool = affine_pool((1.0, 0.0), (0.5, 0.1))
        assert rademacher_estimate(x, pool, n_sign_draws=16, rng=rng.stream(4, "s")) >= 0.0

    def test_decreases_with_sample_size(self):
        pool = affine_pool((1.0, 0.0), (0.5, 0.1), (0.2, 0.4))
        vals = []
        for m in (100, 400, 1600):
            x = rng.stream(12, f"x{m}").random((m, 2))
            vals.append(rademacher_estimate(x, pool, n_sign_draws=200, rng=rng.stream(5, f"s{m}")))
        assert vals[0] > vals[1] > vals[2]


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


class TestKlGap:
    def test_pooled_equal_sizes_zero_gap(self):
        m, train = _trained_small_vae(seed=3)
        sets = [train.images[:100], train.images[100:200], train.images[200:300]]
        pooled = np.concatenate(sets, axis=0)
        assert kl_gap(m, sets, pooled) == pytest.approx(0.0, abs=1e-9)

    def test_non_negative(self):
        m, train = _trained_small_vae(seed=4)
        other = synth_generate("rings", 80, width=6, height=6, seed=9).images
        assert kl_gap(m, [train.images[:80]], other) >= 0.0

    def test_empty_rejected(self):
        m, train = _trained_small_vae(seed=3)
        with pytest.raises(InvalidSpecError):
            kl_gap(m, [], train.images)


class TestLelboBreakdown:
    def test_single_task_target_close_to_source(self):
        # same-distribution train/test: generalization noise only
        m, train = _trained_small_vae(seed=5, epochs=6)
        test = synth_generate("bars", 200, width=6, height=6, seed=77)
        from degm.data import binarize

        test = binarize(test, "threshold_0.5")
        pool = HypothesisPool()
        pool.add(m, {"task": 1, "epoch": "final"})
        pool.add(build_vae(36, 4, (16,), (16,), "bernoulli", seed=99), {"task": 0, "epoch": 0})
        out = lelbo_breakdown(m, [test.images], train.images, pool, rng=rng.stream(0, "b"))
        assert abs(out["target_risk_elbo"] - out["source_risk_elbo"]) <= 0.1 * abs(
            out["source_risk_elbo"]
        )

    def test_decomposition_identity_exact(self):
        m, train = _trained_small_vae(seed=6)
        test = train.images[:120]
        pool = HypothesisPool()
        pool.add(m, {"task": 1, "epoch": 1})
        pool.add(build_vae(36, 4, (16,), (16,), "bernoulli", seed=98), {})
        out = lelbo_breakdown(m, [test], train.images, pool, rng=rng.stream(1, "b"))
        assert out["target_risk_elbo"] == pytest.approx(
            out["source_risk_elbo"] + out["kl_gap"] + out["residual"], rel=1e-12
        )
        for key in ("source_risk_elbo", "target_risk_elbo", "kl_gap", "empirical_discrepancy", "slack"):
            assert np.isfinite(out[key])
        assert out["epsilon_lower_bound"] == 0.0 and not out["epsilon_estimable"]

    def test_rademacher_terms_widen_slack(self):
        m, train = _trained_small_vae(seed=6)
        test = train.images[:120]
        pool = HypothesisPool()
        pool.add(m, {"task": 1, "epoch": 1})
        pool.add(build_vae(36, 4, (16,), (16,), "bernoulli", seed=98), {})
        plain = lelbo_breakdown(m, [test], train.images, pool, rng=rng.stream(1, "b"))
        with_rad = lelbo_breakdown(
            m, [test], train.images, pool, rng=rng.stream(1, "b"), rademacher_draws=32
        )
        assert with_rad["rademacher_p"] > 0.0 and with_rad["rademacher_q"] > 0.0
        assert with_rad["slack"] == pytest.approx(
            plain["slack"] + 8.0 * (with_rad["rademacher_p"] + with_rad["rademacher_q"]),
            rel=1e-12,
        )

    def test_table_window_matches_stacked_pool_bitwise(self):
        m, train = _trained_small_vae(seed=6)
        targets = [train.images[:120], train.images[120:200]]
        models = [m, build_vae(36, 4, (16,), (16,), "bernoulli", seed=98)]
        pool = StackPool()
        for model in models:
            pool.add(model, {})
        table = ReconstructionTable.for_breakdown(pool.hypotheses, targets, train.images)

        def breakdown(p):
            return lelbo_breakdown(
                m, targets, train.images, p, rng=rng.stream(1, "b"), rademacher_draws=8
            )

        assert breakdown(table.window()) == breakdown(pool)


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

    def test_kl_gaps_summed_over_multi_components(self):
        summary = assignment_summary(AssignmentLog.from_partition(3, [{1, 2}, {3}]))
        report = mixture_bound_report(
            summary, self._unit_inputs(summary), kl_gaps={1: 0.4, 99: 7.0}
        )
        assert report["D_diff"] == pytest.approx(0.4)


class TestLedger:
    def test_append_only_monotone(self):
        ledger = DiagnosticsLedger()
        ledger.append(t=1, avg_nll=10.0)
        ledger.append(t=2, avg_nll=11.0)
        with pytest.raises(InvalidLogError):
            ledger.append(t=1, avg_nll=9.0)

    def test_csv_roundtrip_stable(self, tmp_path):
        ledger = DiagnosticsLedger()
        ledger.append(t=1, nll_per_task=[10.0], avg_nll=10.0, kl_gap=0.1)
        ledger.append(t=2, nll_per_task=[10.5, 12.0], avg_nll=11.25, kl_gap=0.2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ledger.to_csv(p1)
        ledger.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header.split(",")[0] == "t"
