"""Generative-replay lifelong training of a single VAE.

Before each new task the current model generates a pseudo dataset whose
size matches the cumulative count of real examples seen so far (times a
configurable ratio); the mixture of pseudo and new samples, one plain array
of rows, is then fit by minimizing the negative bound. The recursion over
tasks is what slowly degrades early-task knowledge, which the diagnostics
modules measure.
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


def generate_pseudo(model, n: int, seed: int) -> np.ndarray:
    """Decode ``n`` prior draws from a frozen model.

    Bernoulli models emit decoder means, then binarize them by per-pixel
    Bernoulli draws so replay stays in the support of binarized training
    data; Gaussian models emit the means unchanged.
    """
    if n < 1:
        raise InvalidSpecError(f"n must be >= 1, got {n}")
    z = rng_mod.stream(seed, "replay/latent").standard_normal((n, model.latent_dim))
    with no_grad():
        samples = model.decode(z).data
    if model.likelihood == "bernoulli":
        g = rng_mod.stream(seed, "replay/binarize")
        samples = (g.random(samples.shape) < samples).astype(np.float64)
    return samples


def mix_datasets(replay: np.ndarray | None, new: np.ndarray, seed: int = 0) -> np.ndarray:
    """Interleave the rows of two sample arrays with per-row fair coin flips.

    Each emitted row comes from replay or new with probability 1/2; sources
    are consumed in order without replacement, and from the first draw whose
    source is exhausted onwards every row comes from the other source. The
    result has |replay| + |new| rows.
    """
    if replay is None or len(replay) == 0:
        return new
    if replay.shape[1] != new.shape[1]:
        raise ShapeError(f"replay dim {replay.shape[1]} != new dim {new.shape[1]}")
    total = len(replay) + len(new)
    take_replay = rng_mod.stream(seed, "replay/mix").random(total) < 0.5
    exhausted = (np.cumsum(take_replay) > len(replay)) | (np.cumsum(~take_replay) > len(new))
    first = int(exhausted.argmax())
    if exhausted[first]:
        take_replay[first:] = not take_replay[first]
    mixed = np.empty((total, new.shape[1]))
    mixed[take_replay] = replay
    mixed[~take_replay] = new
    return mixed


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


def _mix_for_task(generator, new_data, config: TrainConfig, task_index: int, prior_count: int):
    replay_n = int(round(config.replay_ratio * prior_count))
    if replay_n == 0:
        return mix_datasets(None, new_data.images)
    pseudo = generate_pseudo(
        generator,
        replay_n,
        seed=rng_mod.derive_seed(config.seed, f"gr/pseudo/task{task_index}"),
    )
    return mix_datasets(
        pseudo, new_data.images, seed=rng_mod.derive_seed(config.seed, f"gr/mix/task{task_index}")
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
    ``epoch_hook(task_index, epoch, model, mixed, record)`` runs after each
    epoch; ``mixed`` is the array of rows the task trains on.
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
        mixed,
        config,
        f"gr/task{task_index}",
        hook,
    )


def run_gr_sequence(stream: TaskStream, model_factory, config: TrainConfig, epoch_hook=None):
    """Train through a task stream with generative replay; evaluates nothing.

    Yields ``(state, task_metrics)`` as each task ends: ``state`` is a frozen
    copy of the model as task t left it, so the last one is the final model.
    """
    if len(stream) == 0:
        raise InvalidSpecError("empty task stream")
    model = model_factory(config.seed)
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
        yield model.copy(requires_grad=False), {"task": task.task_id, "epochs": metrics}


def evaluate_task(model, stream: TaskStream, after: int, task_id: int, seed: int, k_prime: int) -> dict:
    """Score ``model``, as training task ``after`` left it, on task ``task_id``'s test set:
    the NLL estimated with ``k_prime`` weighted samples and its standard error, and
    the single-sample bound with its terms, each under its own noise label."""
    test = stream.tasks[task_id - 1].test
    nll_rng = rng_mod.stream(seed, f"gr/eval/after{after}/task{task_id}")
    nll, se = vae_mod.nll_estimate(model, test, k_prime=k_prime, rng=nll_rng)
    elbo_rng = rng_mod.stream(seed, f"gr/eval-elbo/after{after}/task{task_id}")
    est = vae_mod.elbo(model, test.images, rng=elbo_rng)
    return {"eval_task": task_id, "nll": nll, "nll_se": se, "elbo": est.total, "recon_term": est.recon_term,
            "kl_term": est.kl_term}
