"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive directional criteria share trained runs through session-scoped
fixtures; everything runs at its stated scale and tolerance. Run with
``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion lines.
"""

import math
import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from degm import rng
from degm.bounds import AssignmentLog, assignment_summary
from degm.cli import (METHODS, _cpus, _fork_pool, cmd_diagnose, cmd_train, cmd_train_multi, evaluate_task_ends,
                      parse_config)
from degm.data import make_cross_domain_stream
from degm.graph import ArchSpec, train_degm_sequence
from degm.nn import MlpSpec, Tensor, build_mlp
from degm.replay import TrainConfig, run_gr_sequence, train_task_gr
from degm.vae import (
    build_vae,
    elbo,
    elbo_parts,
    gaussian_kl,
    iw_logpx_np,
    iwelbo,
)
from helpers import max_grad_error

SEEDS = (1, 2, 3, 4, 5)


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {criterion:2d} ({name}): {status}"
    if detail:
        line += f" -- {detail}"
    print(f"[ACCEPTANCE] {line}")
    from conftest import record_acceptance

    record_acceptance(line)


# ---------------------------------------------------------------------------
# Shared expensive runs


def desk_stream(seed: int):
    return make_cross_domain_stream(
        ["bars", "blobs", "rings"],
        n_train=2000,
        n_test=500,
        seed=1000 + seed,
        binarize_mode="stochastic",
    )


def seed_method_runs(seed: int):
    """One seed's ELBO-GR, DEGM-ELBO (tau=35) and DEGM-2 task records."""
    stream = desk_stream(seed)
    cfg = TrainConfig(epochs=10, batch_size=64, seed=seed)
    runs = [
        ("elbo_gr", [s for s, _ in run_gr_sequence(stream, lambda s: build_vae(seed=s), cfg)]),
        ("degm_elbo", [s for s, _ in train_degm_sequence(stream, ArchSpec(), cfg, tau=35.0)]),
        ("degm2", [s for s, _ in train_degm_sequence(stream, ArchSpec(), cfg, tau=-math.inf)]),
    ]
    return tuple(evaluate_task_ends(METHODS[m].family, states, stream, seed, 200) for m, states in runs)


@pytest.fixture(scope="session")
def method_runs():
    """ELBO-GR, DEGM-ELBO (tau=35), DEGM-2 over 5 seeds; NLL at K'=200.
    The seeds run in forked workers, one per CPU the process may use."""
    with _fork_pool(min(len(SEEDS), _cpus())) as pool:
        per_seed = list(pool.map(seed_method_runs, SEEDS))
    return {name: [runs[i] for runs in per_seed] for i, name in enumerate(("gr", "degm", "degm2"))}


@pytest.fixture(scope="session")
def diagnose_runs(tmp_path_factory):
    """5-seed forgetting-trace protocol, trained on ``cmd_train_multi``'s seed
    pool; returns per-seed diagnose rows."""
    base = {
        "method": "elbo_gr",
        "stream": ["bars", "blobs", "rings"],
        "likelihood": "gaussian_identity",
        "binarize": "none",
        "normalize_recon": True,
        "epochs": 10,
        "train_per_task": 2000,
        "test_per_task": 500,
        "eval_k_prime": 20,
        "diagnostics": {"enabled": True, "sample_size": 1000},
    }
    root = tmp_path_factory.mktemp("forgetting")
    t0 = time.monotonic()
    cmd_train_multi(parse_config({**base, "output_dir": str(root)}), list(SEEDS))
    per_seed = []
    for seed in SEEDS:
        out = str(root / f"seed_{seed}")
        cmd_diagnose(out)
        rows = Path(out, "diagnose.csv").read_text().splitlines()[1:]
        per_seed.append([tuple(map(float, r.split(","))) for r in rows])
    return {"rows": per_seed, "elapsed": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# Criteria


class TestCriterion1Autodiff:
    def test_randomized_gradient_checks(self):
        t0 = time.monotonic()
        g = rng.stream(2024, "accept1")
        worst = 0.0
        for trial in range(100):
            if trial % 5 < 3:
                # plain MLP with a random quadratic or mixed loss
                depth = int(g.integers(2, 4))
                widths = tuple(int(g.integers(2, 6)) for _ in range(depth))
                act = ("tanh", "relu", "sigmoid", "identity")[trial % 4]
                mlp = build_mlp(MlpSpec.make(widths, hidden=act, output="identity", seed=trial))
                x = g.random((3, widths[0]))
                params = mlp.parameters()
                if trial % 2 == 0:
                    value = lambda: float((mlp.forward_np(x) ** 2).sum())
                    loss = lambda: (lambda o: (o * o).sum())(mlp.forward(Tensor(x)))
                else:
                    w = g.random(widths[-1])
                    value = lambda: float(np.tanh(mlp.forward_np(x) @ w).sum())
                    loss = lambda: ((mlp.forward(Tensor(x)) @ Tensor(w.reshape(-1, 1))).tanh()).sum()
            else:
                # VAE bound losses across likelihoods and sample counts
                lik = ("bernoulli", "gaussian_half", "gaussian_identity")[trial % 3]
                m = build_vae(5, 2, (4,), (4,), likelihood=lik, seed=trial)
                x = g.random((3, 5))
                params = m.parameters()
                if trial % 2 == 0:
                    noise = g.standard_normal((1, 3, 2))
                    value = lambda: float((lambda rk: rk[0] - rk[1])(elbo_parts(m, x, noise=noise)))
                    loss = lambda: (lambda rk: rk[0] - rk[1])(elbo_parts(m, x, noise=noise))
                else:
                    noise = g.standard_normal((3, 3, 2))
                    value = lambda: float(iwelbo(m, x, 3, noise=noise))
                    loss = lambda: iwelbo(m, x, 3, noise=noise)
            worst = max(worst, max_grad_error(value, loss, params))
        elapsed = time.monotonic() - t0
        ok = worst < 1e-4 and elapsed < 30.0
        report(1, "autodiff correctness", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
        assert worst < 1e-4
        assert elapsed < 30.0


class TestCriterion2AnalyticKl:
    def test_analytic_matches_monte_carlo(self):
        g = rng.stream(2024, "accept2")
        failures = 0
        for case in range(50):
            dim = int(g.integers(1, 9))
            mu = g.normal(0.0, 1.5, size=dim)
            logvar = g.normal(0.0, 0.8, size=dim)
            analytic = float(gaussian_kl(mu, logvar))
            n = 100_000
            sd = np.exp(0.5 * logvar)
            z = mu + sd * g.standard_normal((n, dim))
            draws = (
                -0.5 * (((z - mu) / sd) ** 2 + logvar + math.log(2 * math.pi)).sum(axis=1)
            ) - (-0.5 * (z**2 + math.log(2 * math.pi)).sum(axis=1))
            se = draws.std(ddof=1) / math.sqrt(n)
            if abs(draws.mean() - analytic) > 3 * se:
                failures += 1
        report(2, "analytic KL vs Monte-Carlo", failures == 0, f"{failures}/50 outside 3 s.e.")
        assert failures == 0


@pytest.fixture(scope="session")
def fixed_trained_model():
    stream = make_cross_domain_stream(
        ["bars", "blobs"], n_train=500, n_test=200, width=6, height=6,
        seed=55, binarize_mode="stochastic",
    )
    m = build_vae(36, 6, (24,), (24,), likelihood="bernoulli", seed=7)
    train_task_gr(m, stream.tasks[0].train, TrainConfig(epochs=5, batch_size=50, seed=7), 1, 0)
    return m, stream.tasks[0].test.images[:128]


class TestCriterion3IwelboOrdering:
    def test_ordering_and_k1_identity(self, fixed_trained_model):
        model, x = fixed_trained_model
        reps = 200
        e1 = np.empty(reps)
        e5 = np.empty(reps)
        e50 = np.empty(reps)
        for r in range(reps):
            e1[r] = elbo(model, x, rng=rng.stream(r, "a3/elbo")).total
            e5[r] = float(iwelbo(model, x, 5, rng=rng.stream(r, "a3/iw5")))
            e50[r] = float(iwelbo(model, x, 50, rng=rng.stream(r, "a3/iw50")))
        p5 = stats.ttest_1samp(e5 - e1, 0.0, alternative="greater").pvalue
        p50 = stats.ttest_1samp(e50 - e5, 0.0, alternative="greater").pvalue
        noise = rng.stream(99, "a3/shared").standard_normal((1, x.shape[0], model.latent_dim))
        exact = float(iwelbo(model, x, 1, noise=noise)) == elbo(model, x, noise=noise).total
        ok = p5 < 0.01 and p50 < 0.01 and exact
        report(
            3,
            "importance-weighted bound ordering",
            ok,
            f"ELBO {e1.mean():.3f} <= IW5 {e5.mean():.3f} <= IW50 {e50.mean():.3f}, "
            f"p5={p5:.1e}, p50={p50:.1e}, K'=1 exact={exact}",
        )
        assert p5 < 0.01 and p50 < 0.01
        assert e1.mean() <= e5.mean() <= e50.mean()
        assert exact


class TestCriterion4WeightProperties:
    def test_simplex_monotonicity_degenerate(self):
        from degm.graph import importance_weights

        g = rng.stream(2024, "accept4")
        ok = True
        for _ in range(1000):
            k = int(g.integers(1, 9))
            ks = g.uniform(0.0, 500.0, size=k)
            pi = importance_weights(ks)
            ok &= bool(np.all(pi >= 0.0))
            ok &= abs(pi.sum() - 1.0) <= 1e-9
            order = np.argsort(ks)
            for a, b in zip(order[:-1], order[1:]):
                if ks[a] < ks[b]:
                    ok &= pi[a] > pi[b]
        ok &= np.array_equal(importance_weights([3.0]), [1.0])
        ok &= np.allclose(importance_weights([7.0, 7.0, 7.0, 7.0]), 0.25)
        report(4, "importance-weight properties", ok)
        assert ok


class TestCriterion5MelboValidity:
    def test_twenty_specific_nodes(self):
        arch = ArchSpec(data_dim=36, inter_dim=12, latent_dim=4, feat_dim=12)
        pairs = [("bars", "blobs", "rings"), ("blobs", "rings", "bars"), ("rings", "bars", "blobs")]
        checked = 0
        violations = 0
        hash_mismatches = 0
        seed = 0
        while checked < 20:
            families = pairs[seed % len(pairs)]
            stream = make_cross_domain_stream(
                families, n_train=300, n_test=120, width=6, height=6,
                seed=500 + seed, binarize_mode="stochastic",
            )
            cfg = TrainConfig(epochs=4, batch_size=50, learning_rate=2e-3, seed=seed)
            prefix = stream.__class__(tasks=stream.tasks[:1], kind="cross_domain")
            graph_prefix = list(train_degm_sequence(prefix, arch, cfg, tau=0.0))[-1][0]
            graph = list(train_degm_sequence(stream, arch, cfg, tau=math.inf))[-1][0]
            # identical seed => identical task-1 training; specific-node
            # training must leave the basic node untouched
            if graph.basic_param_hash() != graph_prefix.basic_param_hash():
                hash_mismatches += 1
            for node in graph.specific_nodes:
                task = stream.tasks[node.id - 1]
                x = task.test.images[:64]
                est = elbo(node, x, rng=rng.stream(seed, f"a5/m{node.id}"))
                logpx = iw_logpx_np(node, x, 1000, rng=rng.stream(seed, f"a5/iw{node.id}"))
                se = logpx.std(ddof=1) / math.sqrt(len(logpx))
                if est.total > logpx.mean() + 3 * se:
                    violations += 1
                checked += 1
            seed += 1
        ok = violations == 0 and hash_mismatches == 0
        report(
            5,
            "mixture bound validity",
            ok,
            f"{checked} specific nodes, {violations} bound violations, "
            f"{hash_mismatches} basic-hash changes",
        )
        assert violations == 0
        assert hash_mismatches == 0


class TestCriterion6AccountingLedger:
    @staticmethod
    def _partitions(items, k_max):
        items = list(items)
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in TestCriterion6AccountingLedger._partitions(rest, k_max):
            for i in range(len(sub)):
                yield [b | {first} if j == i else b for j, b in enumerate(sub)]
            if len(sub) < k_max:
                yield sub + [{first}]

    def test_exhaustive_enumeration(self):
        mismatches = 0
        total = 0
        for t in range(1, 7):
            for partition in self._partitions(range(1, t + 1), 4):
                log = AssignmentLog.from_partition(t, partition)
                summary = assignment_summary(log)
                oracle = {}
                for tasks in partition:
                    for a in tasks:
                        oracle[a] = 0 if len(tasks) == 1 else len(range(-1, t - a))
                if summary["accumulated_term_counts"] != oracle:
                    mismatches += 1
                total += 1
        singles = assignment_summary(AssignmentLog.from_partition(4, [{1}, {2}, {3}, {4}]))
        all_zero = all(v == 0 for v in singles["accumulated_term_counts"].values())
        mono = assignment_summary(AssignmentLog.from_partition(4, [{1, 2, 3, 4}]))
        expected_counts = [mono["accumulated_term_counts"][a] for a in (1, 2, 3, 4)]
        ok = mismatches == 0 and all_zero and expected_counts == [4, 3, 2, 1]
        report(
            6,
            "retraining accounting ledger",
            ok,
            f"{total} assignments checked, counts for single component t=4: {expected_counts}",
        )
        assert ok


class TestCriterion7ForgettingTrace:
    def test_trace_reproduction(self, diagnose_runs):
        growth_hits = 0
        stable_hits = 0
        slope_hits = 0
        for rows in diagnose_runs["rows"]:
            epochs = [r[0] for r in rows]
            src = [r[1] for r in rows]
            disc = [r[2] for r in rows]
            klg = [r[3] for r in rows]
            end_task1 = len(rows) // 3 - 1
            growth_hits += disc[-1] > disc[end_task1]
            plateau = src[end_task1]
            post = src[end_task1 + 1 :]
            stable_hits += all(abs(s - plateau) <= 0.10 * abs(plateau) for s in post)
            slope_hits += np.polyfit(epochs, klg, 1)[0] < np.polyfit(epochs, disc, 1)[0]
        elapsed = diagnose_runs["elapsed"]
        ok = growth_hits >= 4 and stable_hits == 5 and slope_hits == 5 and elapsed < 600
        report(
            7,
            "forgetting-trace reproduction",
            ok,
            f"discrepancy growth {growth_hits}/5, source stable {stable_hits}/5, "
            f"kl-slope<disc-slope {slope_hits}/5, {elapsed:.0f}s",
        )
        assert growth_hits >= 4
        assert stable_hits == 5
        assert slope_hits == 5
        assert elapsed < 600


class TestCriterion8ExpansionVsReplay:
    def test_directional_improvement(self, method_runs):
        wins = 0
        t1_gaps = []
        for rec_gr, rec_d, rec_d2 in zip(
            method_runs["gr"], method_runs["degm"], method_runs["degm2"]
        ):
            gr = np.mean([e["nll"] for e in rec_gr[-1]["evals"]])
            degm = np.mean([e["nll"] for e in rec_d[-1]["evals"]])
            wins += degm < gr
            t1_gaps.append(rec_d2[-1]["evals"][0]["nll"] - rec_d[-1]["evals"][0]["nll"])
        degm2_ok = float(np.mean(t1_gaps)) <= 0.25
        ok = wins >= 4 and degm2_ok
        report(
            8,
            "expansion beats replay baseline",
            ok,
            f"DEGM wins {wins}/5, mean task-1 gap degm2-degm {np.mean(t1_gaps):+.3f} nats",
        )
        assert wins >= 4
        assert degm2_ok


class TestCriterion9NodeSelection:
    def test_selection_accuracy(self, method_runs):
        correct = 0
        batches = 0
        for rec_d in method_runs["degm"]:
            for ev in rec_d[-1]["evals"]:
                correct += ev["selection_accuracy"] * ev["n_batches"]
                batches += ev["n_batches"]
        accuracy = correct / batches
        ok = accuracy >= 0.9
        report(9, "test-time node selection", ok, f"{accuracy:.3f} over {batches} batches")
        assert accuracy >= 0.9


class TestCriterion10Determinism:
    def test_byte_identical_metrics(self, tmp_path):
        base = {
            "method": "elbo_gr",
            "stream": ["bars", "blobs"],
            "seed": 11,
            "epochs": 2,
            "train_per_task": 200,
            "test_per_task": 60,
            "eval_k_prime": 10,
        }
        cmd_train(parse_config({**base, "output_dir": str(tmp_path / "a")}))
        cmd_train(parse_config({**base, "output_dir": str(tmp_path / "b")}))
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        ok = a == b
        report(10, "end-to-end determinism", ok, f"{len(a)} bytes compared")
        assert ok


class TestCriterion11IdxRoundtrip:
    def test_roundtrip_and_errors(self, tmp_path):
        from degm.data import IdxMagicError, IdxTruncatedError, load_idx

        imgs = np.array([[[0, 128], [255, 64]], [[7, 0], [0, 200]]], dtype=np.uint8)
        path = tmp_path / "img.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            f.write(imgs.tobytes())
        ds = load_idx(path)
        exact = np.array_equal(ds.images, imgs.reshape(2, 4) / 255.0)

        bad = tmp_path / "bad.idx"
        with open(bad, "wb") as f:
            f.write(struct.pack(">IIII", 0x12345678, 1, 2, 2))
            f.write(bytes(4))
        magic_ok = False
        try:
            load_idx(bad)
        except IdxMagicError:
            magic_ok = True

        short = tmp_path / "short.idx"
        with open(short, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            f.write(bytes(5))
        trunc_ok = False
        try:
            load_idx(short)
        except IdxTruncatedError:
            trunc_ok = True

        ok = exact and magic_ok and trunc_ok
        report(
            11,
            "IDX round-trip and errors",
            ok,
            f"pixels exact={exact}, magic error={magic_ok}, truncation error={trunc_ok}",
        )
        assert ok
