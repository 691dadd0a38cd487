"""Generative-replay lifelong training of a single VAE.

Before each new task the current model generates a pseudo dataset whose
size matches the cumulative count of real examples seen so far (times a
configurable ratio); the mixture of pseudo and new samples is then fit by
minimizing the negative bound. The recursion over tasks is what slowly
degrades early-task knowledge, which the diagnostics modules measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from . import vae as vae_mod
from .data import Dataset, TaskStream
from .nn import InvalidSpecError, ShapeError, adam_step, backward, init_adam, no_grad, zero_grad


class NonFiniteError(RuntimeError):
    """A training loss or an evaluation result is NaN or infinite."""


@dataclass
class PseudoDataset:
    """Samples decoded from prior draws of a frozen generator."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class MixedDataset:
    """Interleaved replay/new samples with per-sample provenance flags."""

    samples: np.ndarray
    source_flags: np.ndarray  # "replay" | "new" per row

    def __post_init__(self):
        if len(self.source_flags) != len(self.samples):
            raise ShapeError("one source flag per sample required")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class TrainConfig:
    """Per-task optimization budget shared by the replay and expansion trainers."""

    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    k_prime: int = 1  # 1 trains on the plain bound, >1 on the importance-weighted one
    replay_ratio: float = 1.0
    seed: int = 0
    warm_start: bool = True

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.k_prime < 1:
            raise InvalidSpecError("epochs, batch_size and k_prime must be >= 1")
        if self.learning_rate <= 0 or self.replay_ratio < 0:
            raise InvalidSpecError("learning_rate must be > 0 and replay_ratio >= 0")


def generate_pseudo(model, n: int, seed: int, binarize: bool | None = None) -> PseudoDataset:
    """Decode ``n`` prior draws from a frozen model.

    Bernoulli models emit decoder means, then binarize them by per-pixel
    Bernoulli draws (default on) so replay stays in the support of binarized
    training data; Gaussian models emit the means unchanged.
    """
    if n < 1:
        raise InvalidSpecError(f"n must be >= 1, got {n}")
    z = rng_mod.stream(seed, "replay/latent").standard_normal((n, model.latent_dim))
    with no_grad():
        samples = model.decode(z).data
    if binarize is None:
        binarize = model.likelihood == "bernoulli"
    if binarize:
        g = rng_mod.stream(seed, "replay/binarize")
        samples = (g.random(samples.shape) < samples).astype(np.float64)
    return PseudoDataset(samples)


def mix_datasets(replay: PseudoDataset | None, new, seed: int = 0) -> MixedDataset:
    """Interleave two sources with per-example fair coin flips.

    Each emitted position picks replay or new with probability 1/2; sources
    are consumed in order without replacement, and once one is exhausted the
    remainder comes from the other. Total size is always |replay| + |new|.
    """
    new_images = new.images if isinstance(new, Dataset) else np.asarray(new, dtype=np.float64)
    if replay is None or len(replay) == 0:
        return MixedDataset(new_images.copy(), np.array(["new"] * len(new_images)))
    if replay.samples.shape[1] != new_images.shape[1]:
        raise ShapeError(
            f"replay dim {replay.samples.shape[1]} != new dim {new_images.shape[1]}"
        )
    n_r, n_n = len(replay), len(new_images)
    total = n_r + n_n
    coin = rng_mod.stream(seed, "replay/mix").random(total) < 0.5
    samples = np.empty((total, new_images.shape[1]))
    flags = np.empty(total, dtype=object)
    i = j = 0
    for k in range(total):
        take_replay = (coin[k] and i < n_r) or j >= n_n
        if take_replay:
            samples[k] = replay.samples[i]
            flags[k] = "replay"
            i += 1
        else:
            samples[k] = new_images[j]
            flags[k] = "new"
            j += 1
    return MixedDataset(samples, flags.astype(str))


def run_training(
    params,
    objective,
    images: np.ndarray,
    config: TrainConfig,
    seed_label: str,
    epoch_hook=None,
) -> list[dict]:
    """Minimize ``-objective(batch, noise_rng)`` with Adam for ``config.epochs``.

    ``objective`` must return a scalar tensor (the bound for the batch).
    Batches are reshuffled per epoch from a labeled stream; the recorded
    metric is the epoch's size-weighted mean of the negated bound. A loss
    that is not finite raises ``NonFiniteError`` naming the label, epoch and
    batch, before it reaches the parameters.
    """
    n = images.shape[0]
    state = init_adam(params, learning_rate=config.learning_rate)
    metrics = []
    for epoch in range(1, config.epochs + 1):
        perm = rng_mod.stream(config.seed, f"{seed_label}/shuffle/e{epoch}").permutation(n)
        noise_rng = rng_mod.stream(config.seed, f"{seed_label}/noise/e{epoch}")
        running = 0.0
        for start in range(0, n, config.batch_size):
            batch = images[perm[start : start + config.batch_size]]
            bound = objective(batch, noise_rng)
            loss = -bound
            value = float(loss)
            if not math.isfinite(value):
                raise NonFiniteError(
                    f"{seed_label}: loss {value} in epoch {epoch}, "
                    f"batch {start // config.batch_size + 1}"
                )
            zero_grad(params)
            backward(loss)
            adam_step(params, state)
            running += value * batch.shape[0]
        record = {"epoch": epoch, "objective": running / n}
        if epoch_hook is not None:
            epoch_hook(epoch, record)
        metrics.append(record)
    return metrics


def _bound_objective(model, config: TrainConfig):
    """The training bound with ``config.k_prime`` samples (K' = 1 is the plain bound)."""
    def objective(batch, noise_rng):
        return vae_mod.iwelbo(model, batch, config.k_prime, rng=noise_rng)
    return objective


def eval_label(after: int, task_id: int) -> str:
    """Noise label of task ``task_id``'s NLL estimate after training task ``after``."""
    return f"gr/eval/after{after}/task{task_id}"


def _mix_for_task(generator, new_data, config: TrainConfig, task_index: int, prior_count: int):
    replay_n = int(round(config.replay_ratio * prior_count))
    if replay_n == 0:
        return mix_datasets(None, new_data)
    pseudo = generate_pseudo(
        generator,
        replay_n,
        seed=rng_mod.derive_seed(config.seed, f"gr/pseudo/task{task_index}"),
    )
    return mix_datasets(
        pseudo, new_data, seed=rng_mod.derive_seed(config.seed, f"gr/mix/task{task_index}")
    )


def train_task_gr(
    model,
    new_data: Dataset,
    config: TrainConfig,
    task_index: int,
    prior_count: int,
    epoch_hook=None,
    generator=None,
) -> list[dict]:
    """One generative-replay task step: generate, mix, fit.

    ``prior_count`` is the cumulative number of real training examples seen
    before this task; the pseudo set gets ``round(replay_ratio * prior_count)``
    samples. Task 1 (prior_count 0) reduces to plain training on the new data.
    ``generator`` produces the pseudo set (default: ``model`` itself).
    ``epoch_hook(task_index, epoch, model, mixed, record)`` runs after each epoch.
    """
    mixed = _mix_for_task(
        model if generator is None else generator, new_data, config, task_index, prior_count
    )
    hook = None
    if epoch_hook is not None:
        hook = lambda epoch, record: epoch_hook(task_index, epoch, model, mixed, record)
    return run_training(
        model.parameters(),
        _bound_objective(model, config),
        mixed.samples,
        config,
        f"gr/task{task_index}",
        hook,
    )


def run_gr_sequence(
    stream: TaskStream,
    model_factory,
    config: TrainConfig,
    eval_k_prime: int = 200,
    epoch_hook=None,
):
    """Train through a task stream with generative replay.

    Returns ``(model, task_records, train_metrics)`` where ``task_records``
    holds, per task, the negative-log-likelihood of every seen test set
    (estimated with ``eval_k_prime`` weighted samples) plus bound terms.
    """
    if len(stream) == 0:
        raise InvalidSpecError("empty task stream")
    model = model_factory(config.seed)
    task_records = []
    train_metrics = []
    prior_count = 0
    for task in stream.tasks:
        generator = None
        if not config.warm_start and task.task_id > 1:
            # Fresh parameters per task; pseudo data still comes from the old model.
            generator = model
            model = model_factory(rng_mod.derive_seed(config.seed, f"gr/restart/{task.task_id}"))
        metrics = train_task_gr(
            model, task.train, config, task.task_id, prior_count, epoch_hook, generator
        )
        prior_count += len(task.train)
        train_metrics.append({"task": task.task_id, "epochs": metrics})

        evals = []
        for seen in stream.tasks[: task.task_id]:
            eval_rng = rng_mod.stream(config.seed, eval_label(task.task_id, seen.task_id))
            nll, se = vae_mod.nll_estimate(model, seen.test, k_prime=eval_k_prime, rng=eval_rng)
            est = vae_mod.elbo(
                model,
                seen.test.images,
                rng=rng_mod.stream(config.seed, f"gr/eval-elbo/after{task.task_id}/task{seen.task_id}"),
            )
            evals.append(
                {
                    "eval_task": seen.task_id,
                    "nll": nll,
                    "nll_se": se,
                    "elbo": est.total,
                    "recon_term": est.recon_term,
                    "kl_term": est.kl_term,
                }
            )
        task_records.append({"task": task.task_id, "evals": evals})
    return model, task_records, train_metrics
