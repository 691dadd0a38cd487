"""Dynamic expansion graph of Basic and Specific nodes.

Each task adds exactly one node. A Basic node is a free-standing VAE split
into four sub-models (input trunk, Gaussian head, latent expander, output
head); its trunks become shared knowledge sources. A Specific node owns
only a fresh Gaussian head and output head and routes through every Basic
trunk, weighting branch latents and branch features by importance weights
derived from a novelty score: how far each Basic node's bound on the new
data falls from the best bound it achieved on its own task. Low novelty
against any source keeps the graph small; high novelty everywhere spawns a
new Basic node. Existing nodes are frozen the moment their task ends.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from . import vae as vae_mod
from .data import TaskStream
from .nn import (
    ContractError,
    InvalidSpecError,
    Mlp,
    MlpSpec,
    Tensor,
    as_tensor,
    build_mlp,
    no_grad,
)
from .replay import TrainConfig, run_training


@dataclass(frozen=True)
class ArchSpec:
    """Shared node geometry. All trunks agree on the intermediate widths so a
    single Specific head can serve every branch."""

    data_dim: int = 144
    inter_dim: int = 128  # encoder intermediate; must exceed latent_dim
    latent_dim: int = 16
    feat_dim: int = 128  # decoder intermediate; must stay below data_dim
    hidden_activation: str = "tanh"
    likelihood: str = "bernoulli"
    normalize_recon: bool = False

    def __post_init__(self):
        if self.inter_dim <= self.latent_dim:
            raise InvalidSpecError("encoder intermediate width must exceed latent_dim")
        if self.feat_dim >= self.data_dim:
            raise InvalidSpecError("decoder intermediate width must stay below data_dim")
        if self.likelihood not in vae_mod.LIKELIHOODS:
            raise InvalidSpecError(f"unknown likelihood {self.likelihood!r}")

    @property
    def output_activation(self) -> str:
        return "sigmoid" if self.likelihood == "bernoulli" else "identity"


class BasicNode:
    """Four sub-models: input trunk, Gaussian head, latent expander, output head."""

    def __init__(self, node_id: int, task_id: int, arch: ArchSpec, seed: int):
        self.id = node_id
        self.task_id = task_id
        self.arch = arch
        act = arch.hidden_activation
        self.f_tilde = build_mlp(
            MlpSpec((arch.data_dim, arch.inter_dim), (act,), rng_mod.derive_seed(seed, "f_tilde"))
        )
        self.f_mu = build_mlp(
            MlpSpec((arch.inter_dim, arch.latent_dim), ("identity",), rng_mod.derive_seed(seed, "f_mu"))
        )
        self.f_logvar = build_mlp(
            MlpSpec(
                (arch.inter_dim, arch.latent_dim), ("identity",), rng_mod.derive_seed(seed, "f_logvar")
            )
        )
        self.g_tilde = build_mlp(
            MlpSpec((arch.latent_dim, arch.feat_dim), (act,), rng_mod.derive_seed(seed, "g_tilde"))
        )
        self.g_prime = build_mlp(
            MlpSpec(
                (arch.feat_dim, arch.data_dim),
                (arch.output_activation,),
                rng_mod.derive_seed(seed, "g_prime"),
            )
        )
        self.best_elbo: float | None = None
        self.frozen = False

    # Model protocol: the node scores data exactly like a single VAE.
    @property
    def latent_dim(self) -> int:
        return self.arch.latent_dim

    @property
    def data_dim(self) -> int:
        return self.arch.data_dim

    @property
    def likelihood(self) -> str:
        return self.arch.likelihood

    @property
    def normalize_recon(self) -> bool:
        return self.arch.normalize_recon

    def encode(self, x: Tensor):
        h = self.f_tilde.forward(x)
        return self.f_mu.forward(h), self.f_logvar.forward(h)

    def decode(self, z: Tensor) -> Tensor:
        return self.g_prime.forward(self.g_tilde.forward(z))

    def encode_np(self, x: np.ndarray):
        h = self.f_tilde.forward_np(x)
        return self.f_mu.forward_np(h), self.f_logvar.forward_np(h)

    def decode_np(self, z: np.ndarray) -> np.ndarray:
        return self.g_prime.forward_np(self.g_tilde.forward_np(z))

    def sub_models(self) -> list[Mlp]:
        return [self.f_tilde, self.f_mu, self.f_logvar, self.g_tilde, self.g_prime]

    def parameters(self) -> list[Tensor]:
        params = []
        for net in self.sub_models():
            params.extend(net.parameters())
        return params

    def freeze(self) -> None:
        for net in self.sub_models():
            net.set_requires_grad(False)
        self.frozen = True

    def param_bytes(self) -> bytes:
        return b"".join(net.param_bytes() for net in self.sub_models())


class SpecificNode:
    """Two fresh sub-models wired through every Basic trunk via weights pi."""

    def __init__(self, node_id: int, task_id: int, arch: ArchSpec, pi: np.ndarray, seed: int):
        self.id = node_id
        self.task_id = task_id
        self.arch = arch
        self.pi = np.ascontiguousarray(pi, dtype=np.float64)
        if self.pi.ndim != 1 or np.any(self.pi < 0) or abs(self.pi.sum() - 1.0) > 1e-9:
            raise InvalidSpecError("pi must be a 1-D probability vector (sum 1 within 1e-9)")
        self.f_mu = build_mlp(
            MlpSpec((arch.inter_dim, arch.latent_dim), ("identity",), rng_mod.derive_seed(seed, "f_mu"))
        )
        self.f_logvar = build_mlp(
            MlpSpec(
                (arch.inter_dim, arch.latent_dim), ("identity",), rng_mod.derive_seed(seed, "f_logvar")
            )
        )
        self.g_prime = build_mlp(
            MlpSpec(
                (arch.feat_dim, arch.data_dim),
                (arch.output_activation,),
                rng_mod.derive_seed(seed, "g_prime"),
            )
        )
        self.frozen = False

    def sub_models(self) -> list[Mlp]:
        return [self.f_mu, self.f_logvar, self.g_prime]

    def parameters(self) -> list[Tensor]:
        params = []
        for net in self.sub_models():
            params.extend(net.parameters())
        return params

    def freeze(self) -> None:
        for net in self.sub_models():
            net.set_requires_grad(False)
        self.frozen = True

    def param_bytes(self) -> bytes:
        return b"".join(net.param_bytes() for net in self.sub_models())


@dataclass
class GraphState:
    """Node registry, adjacency matrix V, and the expansion audit trail."""

    arch: ArchSpec
    basic_nodes: list[BasicNode] = field(default_factory=list)
    specific_nodes: list[SpecificNode] = field(default_factory=list)
    adjacency: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    expansion_log: list[dict] = field(default_factory=list)

    @property
    def tasks_seen(self) -> int:
        return len(self.basic_nodes) + len(self.specific_nodes)

    def all_nodes(self):
        return sorted(self.basic_nodes + self.specific_nodes, key=lambda n: n.id)

    def node_by_id(self, node_id: int):
        for node in self.basic_nodes + self.specific_nodes:
            if node.id == node_id:
                return node
        raise ContractError(f"no node with id {node_id}")

    def basic_task_ids(self) -> list[int]:
        return [node.task_id for node in self.basic_nodes]

    def _grow_adjacency(self) -> None:
        t = self.tasks_seen
        grown = np.zeros((t, t))
        old = self.adjacency
        grown[: old.shape[0], : old.shape[1]] = old
        self.adjacency = grown

    def param_hash(self) -> str:
        """SHA-256 over every node's serialized parameters, in node-id order."""
        digest = hashlib.sha256()
        for node in self.all_nodes():
            digest.update(node.param_bytes())
        return digest.hexdigest()

    def basic_param_hash(self) -> str:
        digest = hashlib.sha256()
        for node in sorted(self.basic_nodes, key=lambda n: n.id):
            digest.update(node.param_bytes())
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# Novelty, decisions, weights

# Every bound used for scoring (best bound, novelty probes, node selection)
# draws its single-sample noise keyed by example content under this label,
# so scores are exact functions of the data values: permutation-invariant
# and comparable across evaluation sites.
SCORE_NOISE_LABEL = "degm/score"


def _score_noise(x: np.ndarray, latent_dim: int, draws: int = 1) -> np.ndarray:
    return rng_mod.content_keyed_normal(x, latent_dim, SCORE_NOISE_LABEL, draws=draws)


def knowledge_novelty(graph: GraphState, probe: np.ndarray) -> np.ndarray:
    """Per-Basic-node novelty: |best bound on its own task - mean bound on the probe|.

    Scores are non-negative; smaller means the probe looks like knowledge the
    node already has. The probe bound uses one content-keyed noise draw per
    example, so the score ignores probe ordering exactly.
    """
    if not graph.basic_nodes:
        raise ContractError("novelty needs at least one Basic node (task 1 builds one)")
    probe = np.asarray(probe, dtype=np.float64)
    if probe.ndim != 2 or probe.shape[0] == 0:
        raise ContractError("probe must be a non-empty (n, d) matrix")
    noise = _score_noise(probe, graph.arch.latent_dim)
    ks = np.empty(len(graph.basic_nodes))
    for i, node in enumerate(sorted(graph.basic_nodes, key=lambda n: n.id)):
        if node.best_elbo is None:
            raise ContractError(f"Basic node {node.id} has no recorded best bound")
        mean_bound = vae_mod.mean_elbo_np(node, probe, noise=noise)
        ks[i] = abs(node.best_elbo - mean_bound)
    return ks


def expansion_decision(ks, tau: float, force: str | None = None, first_task: bool = False) -> str:
    """'basic' iff the smallest novelty exceeds the threshold (or forced).

    Task 1 always builds a Basic node; there is no knowledge source to wire
    a Specific node to, so even a force override cannot change that.
    """
    if first_task:
        return "basic"
    if force in ("basic", "specific"):
        return force
    if force is not None:
        raise InvalidSpecError(f"unknown override {force!r}")
    ks = np.asarray(ks, dtype=np.float64)
    if ks.size == 0:
        raise ContractError("empty novelty vector outside task 1")
    if np.isnan(ks).any():
        raise ContractError(f"novelty vector holds NaN: {ks.tolist()}")
    return "basic" if float(ks.min()) > tau else "specific"


def importance_weights(ks) -> np.ndarray:
    """Map novelty scores to simplex weights: pi_i = (w* - ks_i) / sum_j (w* - ks_j),
    w* = sum_j ks_j. Lower novelty (more similar knowledge) gets more weight.

    Degenerate rules: a single score gives (1,); all-equal scores give the
    uniform vector (the formula is 0/0 there).
    """
    ks = np.asarray(ks, dtype=np.float64)
    if ks.ndim != 1 or ks.size == 0:
        raise InvalidSpecError("ks must be a non-empty 1-D vector")
    if np.any(ks < 0):
        raise InvalidSpecError("novelty scores must be non-negative")
    k = ks.size
    if k == 1:
        return np.array([1.0])
    w_star = ks.sum()
    denom = (w_star - ks).sum()
    if denom <= 0.0:
        return np.full(k, 1.0 / k)
    pi = (w_star - ks) / denom
    # Guard the simplex against accumulated rounding.
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def build_basic_node(graph: GraphState, task_id: int, seed: int) -> BasicNode:
    """Append a fresh Basic node; its adjacency row stays all-zero."""
    node = BasicNode(node_id=task_id, task_id=task_id, arch=graph.arch, seed=seed)
    graph.basic_nodes.append(node)
    graph._grow_adjacency()
    return node


def build_specific_node(graph: GraphState, task_id: int, pi, seed: int) -> SpecificNode:
    """Append a Specific node; its adjacency row holds pi over Basic columns."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (len(graph.basic_nodes),):
        raise ContractError(
            f"pi has {pi.shape[0] if pi.ndim == 1 else 'bad'} entries for "
            f"{len(graph.basic_nodes)} Basic nodes"
        )
    node = SpecificNode(node_id=task_id, task_id=task_id, arch=graph.arch, pi=pi, seed=seed)
    graph.specific_nodes.append(node)
    graph._grow_adjacency()
    for weight, basic_task in zip(pi, graph.basic_task_ids()):
        graph.adjacency[task_id - 1, basic_task - 1] = weight
    return node


# ---------------------------------------------------------------------------
# Specific-node forward, bound, and scoring


def specific_forward(node: SpecificNode, graph: GraphState, x, noise) -> dict:
    """Composite pass through all Basic trunks.

    Per branch i: h_i from the i-th Basic trunk, (mu_i, logvar_i) from the
    Specific head, z_i reparameterized with the shared noise. The combined
    latent is z = sum_i pi_i z_i; decoding weights the Basic latent expanders
    the same way and finishes with the Specific output head. Only the
    Specific node's parameters can receive gradients.
    """
    x = as_tensor(x)
    noise = as_tensor(noise)
    basics = sorted(graph.basic_nodes, key=lambda n: n.id)
    if len(basics) != node.pi.shape[0]:
        raise ContractError("graph Basic count changed since this node was wired")
    branch_stats = []
    z = None
    for weight, basic in zip(node.pi, basics):
        h = basic.f_tilde.forward(x)
        mu_i = node.f_mu.forward(h)
        logvar_i = node.f_logvar.forward(h)
        z_i = vae_mod.reparameterize(mu_i, logvar_i, noise)
        branch_stats.append((mu_i, logvar_i))
        contrib = z_i * float(weight)
        z = contrib if z is None else z + contrib
    feat = None
    for weight, basic in zip(node.pi, basics):
        f_i = basic.g_tilde.forward(z) * float(weight)
        feat = f_i if feat is None else feat + f_i
    recon = node.g_prime.forward(feat)
    return {"z": z, "branch_stats": branch_stats, "recon": recon}


def melbo_parts(node: SpecificNode, graph: GraphState, batch, mc_samples: int = 1, noise=None, rng=None):
    """Differentiable (recon, kl) of the mixture bound: reconstruction under the
    single composite decoder minus the pi-weighted sum of branch KLs."""
    if mc_samples < 1:
        raise InvalidSpecError(f"mc_samples must be >= 1, got {mc_samples}")
    x = as_tensor(batch)
    n = x.shape[0] if x.ndim > 1 else 1
    if rng is None and noise is None:
        rng = rng_mod.stream(0, "degm/melbo")
    arch = graph.arch
    recon = None
    kl = None
    for s in range(mc_samples):
        eps = noise if noise is not None else rng.standard_normal((n, arch.latent_dim))
        out = specific_forward(node, graph, x, eps)
        r = vae_mod.recon_loglik(out["recon"], x, arch.likelihood, arch.normalize_recon)
        recon = r if recon is None else recon + r
        if kl is None:
            kl_acc = None
            for weight, (mu_i, logvar_i) in zip(node.pi, out["branch_stats"]):
                term = vae_mod.gaussian_kl(mu_i, logvar_i) * float(weight)
                kl_acc = term if kl_acc is None else kl_acc + term
            kl = kl_acc
    if mc_samples > 1:
        recon = recon * (1.0 / mc_samples)
    return recon, kl


def melbo(node: SpecificNode, graph: GraphState, batch, mc_samples: int = 1, noise=None, rng=None):
    """Mixture bound estimate for a Specific node."""
    with no_grad():
        recon, kl = melbo_parts(node, graph, batch, mc_samples, noise, rng)
    arr = np.asarray(batch, dtype=np.float64)
    n = arr.shape[0] if arr.ndim > 1 else 1
    return vae_mod.ElboEstimate(
        total=float(recon) - float(kl),
        recon_term=float(recon),
        kl_term=float(kl),
        k_prime=1,
        n_data=n,
    )


def mean_melbo_np(
    node: SpecificNode, graph: GraphState, x: np.ndarray, rng=None, noise=None, per_example: bool = False
):
    """Evaluation-only mixture bound (plain arrays)."""
    x = np.asarray(x, dtype=np.float64)
    if rng is None:
        rng = rng_mod.stream(0, "degm/melbo-eval")
    arch = graph.arch
    basics = sorted(graph.basic_nodes, key=lambda n: n.id)
    gamma = (
        np.asarray(noise, dtype=np.float64)
        if noise is not None
        else rng.standard_normal((x.shape[0], arch.latent_dim))
    )
    z = np.zeros((x.shape[0], arch.latent_dim))
    kl = np.zeros(x.shape[0])
    for weight, basic in zip(node.pi, basics):
        h = basic.f_tilde.forward_np(x)
        mu_i = node.f_mu.forward_np(h)
        logvar_i = node.f_logvar.forward_np(h)
        z += weight * (mu_i + np.exp(0.5 * logvar_i) * gamma)
        kl += weight * vae_mod.gaussian_kl_np(mu_i, logvar_i, per_example=True)
    feat = np.zeros((x.shape[0], arch.feat_dim))
    for weight, basic in zip(node.pi, basics):
        f = basic.g_tilde.forward_np(z)
        f *= weight
        feat += f
    y = node.g_prime.forward_np(feat)
    recon = vae_mod.recon_loglik_np(y, x, arch.likelihood, arch.normalize_recon)
    vals = recon - kl
    return vals if per_example else float(vals.mean())


class SpecificPath:
    """Single-VAE view of a Specific node for importance-weighted evaluation.

    With shared branch noise the combined latent is Gaussian with mean
    sum_i pi_i mu_i and standard deviation sum_i pi_i sd_i, which serves as
    the proposal for importance sampling against the composite decoder and
    the unit Gaussian prior.
    """

    def __init__(self, node: SpecificNode, graph: GraphState):
        self.node = node
        self.graph = graph
        self._basics = sorted(graph.basic_nodes, key=lambda n: n.id)

    @property
    def latent_dim(self) -> int:
        return self.graph.arch.latent_dim

    @property
    def data_dim(self) -> int:
        return self.graph.arch.data_dim

    @property
    def likelihood(self) -> str:
        return self.graph.arch.likelihood

    @property
    def normalize_recon(self) -> bool:
        return self.graph.arch.normalize_recon

    def encode_np(self, x: np.ndarray):
        mu_bar = None
        sd_bar = None
        for weight, basic in zip(self.node.pi, self._basics):
            h = basic.f_tilde.forward_np(x)
            mu_i = self.node.f_mu.forward_np(h)
            sd_i = np.exp(0.5 * self.node.f_logvar.forward_np(h))
            mu_bar = weight * mu_i if mu_bar is None else mu_bar + weight * mu_i
            sd_bar = weight * sd_i if sd_bar is None else sd_bar + weight * sd_i
        return mu_bar, 2.0 * np.log(sd_bar)

    def decode_np(self, z: np.ndarray) -> np.ndarray:
        feat = None
        for weight, basic in zip(self.node.pi, self._basics):
            f_i = basic.g_tilde.forward_np(z)
            f_i *= weight
            if feat is None:
                feat = f_i
            else:
                feat += f_i
        return self.node.g_prime.forward_np(feat)


def scoring_view(graph: GraphState, node):
    """The object to hand to the bound/likelihood evaluators for a node."""
    if isinstance(node, BasicNode):
        return node
    return SpecificPath(node, graph)


def select_node(graph: GraphState, x, rng=None, k_prime: int = 1):
    """Pick the node with the highest mean bound on ``x``.

    Basic nodes are scored with the single-model bound, Specific nodes with
    the mixture bound (or importance-weighted estimates when k_prime > 1).
    Noise is content-keyed, so scores ignore sample ordering. Ties break
    toward the lowest node id. Returns ``(node_id, scores)``.
    """
    nodes = graph.all_nodes()
    if not nodes:
        raise ContractError("cannot select from an empty graph")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    noise = _score_noise(x, graph.arch.latent_dim, draws=max(1, k_prime))
    scores: dict[int, float] = {}
    for node in nodes:
        if k_prime > 1:
            logpx = vae_mod.iw_logpx_np(scoring_view(graph, node), x, k_prime, noise=noise)
            scores[node.id] = float(logpx.mean())
        elif isinstance(node, BasicNode):
            scores[node.id] = vae_mod.mean_elbo_np(node, x, noise=noise)
        else:
            scores[node.id] = mean_melbo_np(node, graph, x, noise=noise)
    best_id = max(sorted(scores), key=lambda nid: scores[nid])
    return best_id, scores


# ---------------------------------------------------------------------------
# Sequence training


def _train_basic(node: BasicNode, images: np.ndarray, config: TrainConfig, label: str):
    params = node.parameters()
    if config.k_prime == 1:
        def objective(batch, noise_rng):
            recon, kl = vae_mod.elbo_parts(node, batch, config.mc_samples, rng=noise_rng)
            return recon - kl
    else:
        def objective(batch, noise_rng):
            total, _, _ = vae_mod.iwelbo_parts(node, batch, config.k_prime, rng=noise_rng)
            return total

    best = -np.inf
    score_noise = _score_noise(images, node.latent_dim)

    def epoch_hook(epoch, record):
        nonlocal best
        # same content-keyed noise as novelty probes, so the recorded best
        # bound and later probe bounds are directly comparable
        mean_bound = vae_mod.mean_elbo_np(node, images, noise=score_noise)
        best = max(best, mean_bound)
        record["train_elbo"] = mean_bound

    history = run_training(params, objective, images, config, label, epoch_hook)
    node.best_elbo = float(best)
    return history


def _iw_melbo_objective(node: SpecificNode, graph: GraphState, config: TrainConfig):
    """Importance-weighted mixture objective using the shared-noise proposal."""
    arch = graph.arch

    def objective(batch, noise_rng):
        x = as_tensor(batch)
        n = x.shape[0]
        basics = sorted(graph.basic_nodes, key=lambda b: b.id)
        mus, sds = [], []
        for basic in basics:
            h = basic.f_tilde.forward(x)
            mus.append(node.f_mu.forward(h))
            sds.append((node.f_logvar.forward(h) * 0.5).exp())
        mu_bar = None
        sd_bar = None
        for weight, mu_i, sd_i in zip(node.pi, mus, sds):
            m = mu_i * float(weight)
            s = sd_i * float(weight)
            mu_bar = m if mu_bar is None else mu_bar + m
            sd_bar = s if sd_bar is None else sd_bar + s
        log_ws = []
        latent = arch.latent_dim
        log_2pi = math.log(2.0 * math.pi)
        for k in range(config.k_prime):
            gamma = noise_rng.standard_normal((n, latent))
            z = mu_bar + sd_bar * gamma
            feat = None
            for weight, basic in zip(node.pi, basics):
                f_i = basic.g_tilde.forward(z) * float(weight)
                feat = f_i if feat is None else feat + f_i
            y = node.g_prime.forward(feat)
            recon_pe = vae_mod._recon_loglik_pe(y, x, arch.likelihood, arch.normalize_recon)
            gamma_sq = (gamma * gamma).sum(axis=1)
            log_q = (sd_bar.log().sum(axis=1) * 2.0 + gamma_sq + latent * log_2pi) * -0.5
            log_p = (z * z).sum(axis=1) * -0.5 - (latent / 2.0) * log_2pi
            log_ws.append(recon_pe + log_p - log_q)
        shift = np.maximum.reduce([w.data for w in log_ws])
        acc = None
        for w in log_ws:
            e = (w - shift).exp()
            acc = e if acc is None else acc + e
        return (acc.log() + shift - math.log(config.k_prime)).mean()

    return objective


def _train_specific(node: SpecificNode, graph: GraphState, images: np.ndarray, config: TrainConfig, label: str):
    params = node.parameters()
    if config.k_prime == 1:
        def objective(batch, noise_rng):
            recon, kl = melbo_parts(node, graph, batch, config.mc_samples, rng=noise_rng)
            return recon - kl
    else:
        objective = _iw_melbo_objective(node, graph, config)
    return run_training(params, objective, images, config, label, None)


def train_degm_sequence(
    stream: TaskStream,
    arch: ArchSpec,
    config: TrainConfig,
    tau: float,
    force: str | None = None,
    novelty_probe_size: int = 1000,
    eval_k_prime: int = 200,
    select_batch: int = 100,
):
    """Grow and train the graph over a task stream.

    Per task: score novelty against every Basic node, decide basic/specific
    (``force`` overrides, e.g. "basic" reproduces the one-node-per-task
    baseline), build the node, train only its parameters, then freeze it.
    Evaluation picks a node per test batch by bound score and measures the
    negative log-likelihood with ``eval_k_prime`` weighted samples.

    Returns ``(graph, task_records, train_metrics)``.
    """
    if len(stream) == 0:
        raise InvalidSpecError("empty task stream")
    if stream.dim != arch.data_dim:
        raise InvalidSpecError(f"stream dim {stream.dim} != arch data_dim {arch.data_dim}")
    graph = GraphState(arch=arch)
    task_records = []
    train_metrics = []
    for task in stream.tasks:
        t = task.task_id
        images = task.train.images
        if t == 1:
            ks = np.array([])
            decision = expansion_decision(ks, tau, force=force, first_task=True)
        else:
            probe_n = min(novelty_probe_size, len(images))
            probe_idx = rng_mod.stream(config.seed, f"degm/probe/task{t}").choice(
                len(images), size=probe_n, replace=False
            )
            ks = knowledge_novelty(graph, images[probe_idx])
            decision = expansion_decision(ks, tau, force=force)
        node_seed = rng_mod.derive_seed(config.seed, f"degm/node/task{t}")
        label = f"degm/task{t}"
        if decision == "basic":
            node = build_basic_node(graph, t, node_seed)
            history = _train_basic(node, images, config, label)
        else:
            pi = importance_weights(ks)
            node = build_specific_node(graph, t, pi, node_seed)
            history = _train_specific(node, graph, images, config, label)
        node.freeze()
        graph.expansion_log.append(
            {"task_id": t, "decision": decision, "ks": [float(v) for v in ks], "tau": tau}
        )
        train_metrics.append({"task": t, "decision": decision, "epochs": history})

        evals = []
        for seen in stream.tasks[:t]:
            record = evaluate_task(
                graph,
                seen.test.images,
                true_task=seen.task_id,
                eval_k_prime=eval_k_prime,
                select_batch=select_batch,
                rng_seed=config.seed,
                rng_label=f"degm/eval/after{t}/task{seen.task_id}",
            )
            record["eval_task"] = seen.task_id
            evals.append(record)
        task_records.append({"task": t, "evals": evals})
    return graph, task_records, train_metrics


def evaluate_task(
    graph: GraphState,
    images: np.ndarray,
    true_task: int | None = None,
    eval_k_prime: int = 200,
    select_batch: int = 100,
    rng_seed: int = 0,
    rng_label: str = "degm/eval",
):
    """Batch-wise node selection plus NLL on the selected node."""
    images = np.asarray(images, dtype=np.float64)
    n = images.shape[0]
    total_logpx = 0.0
    correct = 0
    batches = 0
    selections = []
    for start in range(0, n, select_batch):
        xb = images[start : start + select_batch]
        node_id, _ = select_node(graph, xb)
        node = graph.node_by_id(node_id)
        nll_rng = rng_mod.stream(rng_seed, f"{rng_label}/nll/{start}")
        logpx = vae_mod.iw_logpx_np(scoring_view(graph, node), xb, eval_k_prime, rng=nll_rng)
        total_logpx += float(logpx.sum())
        selections.append(node_id)
        batches += 1
        if true_task is not None and node.task_id == true_task:
            correct += 1
    record = {"nll": -total_logpx / n, "selections": selections, "n_batches": batches}
    if true_task is not None:
        record["selection_accuracy"] = correct / batches
    return record
