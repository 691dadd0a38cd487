"""Generative replay: pseudo data, dataset mixing, per-task optimization."""

import math

import numpy as np
import pytest
from scipy import stats

from degm.cli import METHODS, evaluate_task_ends
from degm.data import make_cross_domain_stream, synth_generate
from degm.nn import InvalidSpecError, Tensor
from degm.rng import derive_seed
from degm.replay import (
    NonFiniteError,
    TrainConfig,
    generate_pseudo,
    mix_datasets,
    run_gr_sequence,
    run_training,
    train_task_gr,
)
from degm.vae import build_vae
from helpers import oracle_mix


def small_model(seed=0, likelihood="bernoulli"):
    return build_vae(
        data_dim=36,
        latent_dim=4,
        trunk_widths=(16,),
        decoder_widths=(16,),
        likelihood=likelihood,
        seed=seed,
    )


def zeroed_decoder_model(likelihood):
    m = small_model(likelihood=likelihood)
    for w in m.decoder[0].weights:
        w.data[:] = 0.0
    for b in m.decoder[0].biases:
        b.data[:] = 0.0
    return m


class TestGeneratePseudo:
    def test_zeroed_gaussian_decoder_emits_its_zero_means(self):
        samples = generate_pseudo(zeroed_decoder_model("gaussian_identity"), 50, seed=3)
        assert samples.shape == (50, 36)
        np.testing.assert_array_equal(samples, 0.0)

    def test_zeroed_bernoulli_decoder_emits_draws_of_its_half_means(self):
        samples = generate_pseudo(zeroed_decoder_model("bernoulli"), 50, seed=3)
        assert set(np.unique(samples)) == {0.0, 1.0}

    def test_deterministic(self):
        m = small_model(seed=4)
        a = generate_pseudo(m, 64, seed=9)
        b = generate_pseudo(m, 64, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_binarized_support(self):
        m = small_model(seed=4)
        samples = generate_pseudo(m, 64, seed=9)
        assert set(np.unique(samples)) <= {0.0, 1.0}

    def test_n_zero_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate_pseudo(small_model(), 0, seed=1)

    def test_trained_generator_matches_training_statistics(self):
        # oracle: mean per-pixel activity of the training set; needs a
        # properly converged generator, hence the full desk-scale budget
        train = synth_generate("bars", 2000, seed=21)
        m = build_vae(seed=5)
        cfg = TrainConfig(epochs=30, batch_size=64, seed=2)
        train_task_gr(m, train, cfg, task_index=1, prior_count=0)
        pseudo = generate_pseudo(m, 2000, seed=31)
        assert abs(pseudo.mean() - train.images.mean()) < 0.1


class TestMixDatasets:
    # replay rows are zeros and new rows ones, so column 0 tells each row's source

    def test_composition_and_total(self):
        replay = np.zeros((1000, 4))
        new = np.ones((1000, 4))
        mixed = mix_datasets(replay, new, seed=5)
        assert len(mixed) == 2000
        n_replay = int((mixed[:, 0] == 0).sum())
        assert abs(n_replay - 1000) <= 3 * math.sqrt(500)

    def test_empty_replay_all_new(self):
        mixed = mix_datasets(None, np.ones((7, 3)))
        np.testing.assert_array_equal(mixed, np.ones((7, 3)))

    def test_deterministic(self):
        replay = np.zeros((50, 4))
        new = np.ones((40, 4))
        a = mix_datasets(replay, new, seed=5)
        b = mix_datasets(replay, new, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_sources_keep_their_row_order(self):
        replay = -np.arange(1.0, 31.0)[:, None] * np.ones((1, 2))
        new = np.arange(1.0, 21.0)[:, None] * np.ones((1, 2))
        mixed = mix_datasets(replay, new, seed=1)
        np.testing.assert_array_equal(mixed[mixed[:, 0] < 0], replay)
        np.testing.assert_array_equal(mixed[mixed[:, 0] > 0], new)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "n_r, n_n", [(1, 1), (1, 9), (9, 1), (40, 5), (5, 40), (300, 700), (700, 300)]
    )
    def test_matches_per_row_loop(self, seed, n_r, n_n):
        # replay runs out first in the (small, large) pairs, new in the
        # (large, small) ones, and each in turn for (1, 1) across the seeds
        g = np.random.default_rng(seed)
        replay, new = g.random((n_r, 3)), g.random((n_n, 3))
        assert mix_datasets(replay, new, seed=seed).tobytes() == oracle_mix(replay, new, seed).tobytes()

    def test_dimension_mismatch(self):
        from degm.nn import ShapeError

        with pytest.raises(ShapeError):
            mix_datasets(np.zeros((5, 3)), np.ones((5, 4)))

    def test_sources_pass_runs_test(self):
        # Wald-Wolfowitz runs test for exchangeability at alpha = 0.01
        replay = np.zeros((1000, 2))
        new = np.ones((1000, 2))
        mixed = mix_datasets(replay, new, seed=77)
        seq = (mixed[:, 0] == 0).astype(int)
        n1 = int(seq.sum())
        n0 = len(seq) - n1
        runs = 1 + int((seq[1:] != seq[:-1]).sum())
        mean = 1 + 2 * n1 * n0 / (n1 + n0)
        var = (2 * n1 * n0 * (2 * n1 * n0 - n1 - n0)) / ((n1 + n0) ** 2 * (n1 + n0 - 1))
        z = (runs - mean) / math.sqrt(var)
        assert abs(z) < stats.norm.ppf(1 - 0.01 / 2)


class TestTrainTaskGr:
    def test_task1_equals_plain_training(self):
        # with no prior data, GR training is bit-identical to plain training
        train = synth_generate("bars", 200, width=6, height=6, seed=3)

        def run(replay_ratio):
            m = small_model(seed=8)
            cfg = TrainConfig(epochs=2, batch_size=32, seed=4, replay_ratio=replay_ratio)
            train_task_gr(m, train, cfg, task_index=1, prior_count=0)
            return m.param_bytes()

        assert run(1.0) == run(0.0)

    def test_replay_size_rule(self):
        m = small_model(seed=8)
        cfg = TrainConfig(epochs=1, batch_size=32, seed=4, replay_ratio=0.5)
        captured = {}

        def hook(task, epoch, model, mixed, record):
            captured["len"] = len(mixed)

        train = synth_generate("bars", 100, width=6, height=6, seed=3)
        train_task_gr(m, train, cfg, task_index=2, prior_count=300, epoch_hook=hook)
        assert captured["len"] == 100 + round(0.5 * 300)

    def test_objective_tends_down(self):
        # monotone trend oracle: Spearman rho < 0 over epochs, 20 seeds pooled
        rhos = []
        for seed in range(20):
            train = synth_generate("blobs", 300, width=6, height=6, seed=seed)
            from degm.data import binarize

            train = binarize(train, "stochastic", seed=seed)
            m = small_model(seed=seed)
            cfg = TrainConfig(epochs=6, batch_size=50, seed=seed)
            metrics = train_task_gr(m, train, cfg, task_index=1, prior_count=0)
            objs = [r["objective"] for r in metrics]
            rho, _ = stats.spearmanr(np.arange(len(objs)), objs)
            rhos.append(rho)
        # sign test across seeds (rank correlations all hit -1 when training
        # is cleanly monotone, which degenerates a t-test)
        negative = sum(1 for r in rhos if r < 0)
        pvalue = stats.binomtest(negative, len(rhos), 0.5, alternative="greater").pvalue
        assert pvalue < 0.05


class TestRunGrSequence:
    def _stream(self, n_train=150, n_test=60, seed=10):
        return make_cross_domain_stream(
            ["bars", "blobs", "rings"],
            n_train=n_train,
            n_test=n_test,
            width=6,
            height=6,
            seed=seed,
            binarize_mode="stochastic",
        )

    def _factory(self):
        def factory(seed):
            return small_model(seed=seed)

        return factory

    def test_single_task_stream_matches_plain(self):
        stream = make_cross_domain_stream(
            ["bars", "blobs"], n_train=100, n_test=30, width=6, height=6, seed=2
        )
        one = type(stream)(tasks=stream.tasks[:1], kind="cross_domain")
        cfg = TrainConfig(epochs=2, batch_size=32, seed=6)
        states, _ = zip(*run_gr_sequence(one, self._factory(), cfg))

        plain = small_model(seed=cfg.seed)
        train_task_gr(plain, one.tasks[0].train, cfg, task_index=1, prior_count=0)
        assert len(states) == 1
        assert states[0].param_bytes() == plain.param_bytes()

    def test_cold_start_replays_the_previous_model(self):
        # warm_start off: each later task trains fresh parameters, and its
        # pseudo data is decoded by the model the previous task finished with
        stream = self._stream()
        cfg = TrainConfig(epochs=1, batch_size=50, seed=6, warm_start=False)
        model = list(run_gr_sequence(stream, self._factory(), cfg))[-1][0]

        prev = small_model(seed=cfg.seed)
        train_task_gr(prev, stream.tasks[0].train, cfg, task_index=1, prior_count=0)
        prior = len(stream.tasks[0].train)
        for task in stream.tasks[1:]:
            fresh = small_model(seed=derive_seed(cfg.seed, f"gr/restart/{task.task_id}"))
            train_task_gr(fresh, task.train, cfg, task.task_id, prior, generator=prev)
            prior += len(task.train)
            prev = fresh
        assert model.param_bytes() == prev.param_bytes()

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_states_are_what_each_task_left(self, warm_start):
        # states[t - 1] is the final model of the same run on the first t
        # tasks, frozen: an aliased or still-trained copy differs
        stream = self._stream()
        cfg = TrainConfig(epochs=1, batch_size=50, seed=6, warm_start=warm_start)
        states, _ = zip(*run_gr_sequence(stream, self._factory(), cfg))
        assert len(states) == 3
        for t, state in enumerate(states, 1):
            prefix = type(stream)(tasks=stream.tasks[:t], kind="cross_domain")
            final = list(run_gr_sequence(prefix, self._factory(), cfg))[-1][0]
            assert state.param_bytes() == final.param_bytes()
            assert not any(p.requires_grad for p in state.parameters())

    def test_eval_record_count(self):
        cfg = TrainConfig(epochs=1, batch_size=50, seed=6)
        stream = self._stream()
        states, _ = zip(*run_gr_sequence(stream, self._factory(), cfg))
        records = evaluate_task_ends(METHODS["elbo_gr"].family, states, stream, cfg.seed, 10)
        total = sum(len(r["evals"]) for r in records)
        assert total == 3 * 4 // 2  # t(t+1)/2 for t = 3

    def test_earliest_task_degrades_most(self):
        # forgetting signature on a cross-domain stream; needs a converged
        # task-1 model, so this one runs at the full desk scale
        stream = make_cross_domain_stream(
            ["bars", "blobs", "rings"],
            n_train=2000,
            n_test=500,
            seed=10,
            binarize_mode="stochastic",
        )
        cfg = TrainConfig(epochs=10, batch_size=64, seed=1)
        states, _ = zip(*run_gr_sequence(stream, lambda s: build_vae(seed=s), cfg))
        records = evaluate_task_ends(METHODS["elbo_gr"].family, states, stream, cfg.seed, 50)
        first_nll = {r["task"]: {e["eval_task"]: e["nll"] for e in r["evals"]} for r in records}
        degradation_t1 = first_nll[3][1] - first_nll[1][1]
        degradation_t2 = first_nll[3][2] - first_nll[2][2]
        assert degradation_t1 > 0  # task 1 got worse after 3 tasks
        # domains differ in intrinsic difficulty, so compare degradation,
        # not absolute likelihoods: the earliest task accumulates most
        assert degradation_t1 > degradation_t2


class TestNonFiniteLoss:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_raises_naming_label_epoch_and_batch(self, bad):
        param = Tensor(np.zeros(3), requires_grad=True)
        calls = []

        def objective(batch, noise_rng):
            calls.append(param.data.copy())
            # epoch 2's third batch goes bad (4 batches of 10 per epoch)
            extra = bad if len(calls) == 7 else 0.0
            return (param * param).sum() + (extra - float(batch.sum()))

        images = np.ones((40, 2))
        config = TrainConfig(epochs=3, batch_size=10)
        with pytest.raises(NonFiniteError, match=r"gr/task2: loss (nan|-inf) in epoch 2, batch 3"):
            run_training([param], objective, images, config, "gr/task2")
        assert len(calls) == 7
        # the bad loss never reached the parameters
        assert np.array_equal(param.data, calls[-1])
