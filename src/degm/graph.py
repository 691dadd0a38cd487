"""Dynamic expansion graph of Basic and Specific nodes.

Each task adds exactly one node, so node i learned task i. A Basic node is a
``VaeModel`` (input trunk, Gaussian heads, and the decoder chain of latent
expander and output head); its trunk and latent expander become shared
knowledge sources. A Specific node owns only fresh Gaussian heads and an
output head and routes through the trunks and latent expanders of its
parents, the Basic nodes that exist when it is built, weighting branch
latents and branch features by importance weights derived from a novelty
score: how far each Basic node's bound on the new data falls from the best
bound it achieved on its own task. Low novelty against any source keeps the
graph small; high novelty everywhere spawns a new Basic node. Existing nodes
are frozen the moment their task ends.
"""

from __future__ import annotations

import hashlib
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
    build_mlp,
)
from .replay import TrainConfig, _bound_objective, run_training


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
        for name in BasicNode.SUB_MODELS:  # widths and activations
            self.sub_model_spec(name, 0)
        if self.inter_dim <= self.latent_dim:
            raise InvalidSpecError("encoder intermediate width must exceed latent_dim")
        if self.feat_dim >= self.data_dim:
            raise InvalidSpecError("decoder intermediate width must stay below data_dim")
        if self.likelihood not in vae_mod.LIKELIHOODS:
            raise InvalidSpecError(f"unknown likelihood {self.likelihood!r}")

    @property
    def output_activation(self) -> str:
        return "sigmoid" if self.likelihood == "bernoulli" else "identity"

    def sub_model_spec(self, name: str, seed: int) -> MlpSpec:
        """Geometry of a node's sub-model (one layer each), initialized from ``seed``."""
        widths, act = {
            "f_tilde": ((self.data_dim, self.inter_dim), self.hidden_activation),
            "f_mu": ((self.inter_dim, self.latent_dim), "identity"),
            "f_logvar": ((self.inter_dim, self.latent_dim), "identity"),
            "g_tilde": ((self.latent_dim, self.feat_dim), self.hidden_activation),
            "g_prime": ((self.feat_dim, self.data_dim), self.output_activation),
        }[name]
        return MlpSpec(widths, (act,), rng_mod.derive_seed(seed, name))


def _pi_sum(pi, terms):
    """sum_i pi_i * term_i over tensors, added in pi order."""
    total = None
    for weight, term in zip(pi, terms):
        term = term * float(weight)
        total = term if total is None else total + term
    return total


def _fresh_nets(arch: ArchSpec, names, seed: int) -> list[Mlp]:
    """Sub-models ``names`` of ``arch``'s geometry, each initialized from ``seed``."""
    return [build_mlp(arch.sub_model_spec(name, seed)) for name in names]


@dataclass(eq=False, kw_only=True)
class BasicNode(vae_mod.VaeModel):
    """A VAE on the graph's geometry: input trunk, Gaussian heads and the
    decoder chain (latent expander, output head). ``SUB_MODELS`` names its
    sub-models in order, by their init-seed labels."""

    SUB_MODELS = ("f_tilde", "f_mu", "f_logvar", "g_tilde", "g_prime")
    id: int  # the task it learned
    best_elbo: float | None = None  # set once the node's training ends

    @classmethod
    def on_arch(cls, node_id: int, arch: ArchSpec, seed: int = 0, nets=None) -> "BasicNode":
        """``nets`` (a checkpoint's sub-models) or fresh ones built from ``seed``."""
        trunk, mu_head, logvar_head, *decoder = nets or _fresh_nets(arch, cls.SUB_MODELS, seed)
        return cls(
            trunk, mu_head, logvar_head, tuple(decoder), arch.latent_dim, arch.likelihood,
            arch.normalize_recon, id=node_id,
        )


class SpecificNode(vae_mod.SubModels):
    """Two fresh heads and an output head, wired through the trunks and latent
    expanders of its ``parents`` (the Basic nodes it weights by ``pi``, in id
    order).

    A model like any other, whose bound is the mixture bound: ``latent``
    draws each branch's z_i (the i-th parent's trunk, this node's heads) with
    one shared noise and returns sum_i pi_i z_i and the KL sum_i pi_i KL_i.
    That z is Gaussian with mean sum_i pi_i mu_i and standard deviation
    sum_i pi_i sd_i, the IW bound's proposal ``encode`` returns. It decodes
    through the parents' latent expanders weighted by pi, then its own output
    head. Only its own parameters can receive gradients.
    """

    SUB_MODELS = ("f_mu", "f_logvar", "g_prime")

    def __init__(self, node_id: int, arch: ArchSpec, pi, parents, seed: int = 0, nets=None):
        self.id = node_id
        self.arch = arch
        self.pi = np.ascontiguousarray(pi, dtype=np.float64)
        if self.pi.ndim != 1 or np.any(self.pi < 0) or abs(self.pi.sum() - 1.0) > 1e-9:
            raise InvalidSpecError("pi must be a 1-D probability vector (sum 1 within 1e-9)")
        self.parents = list(parents)
        if len(self.parents) != self.pi.shape[0]:
            raise ContractError(f"pi has {self.pi.shape[0]} entries for {len(self.parents)} parents")
        self.f_mu, self.f_logvar, self.g_prime = nets or _fresh_nets(arch, self.SUB_MODELS, seed)

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

    def sub_models(self) -> list[Mlp]:
        return [self.f_mu, self.f_logvar, self.g_prime]

    def _branch_stats(self, x: Tensor) -> list[tuple[Tensor, Tensor]]:
        """(mu_i, logvar_i) of every branch, in parent order."""
        hs = [parent.trunk.forward(x) for parent in self.parents]
        return [(self.f_mu.forward(h), self.f_logvar.forward(h)) for h in hs]

    def encode(self, x: Tensor):
        stats = self._branch_stats(x)
        mu_bar = _pi_sum(self.pi, (mu for mu, _ in stats))
        sd_bar = _pi_sum(self.pi, ((logvar * 0.5).exp() for _, logvar in stats))
        return mu_bar, sd_bar.log() * 2.0

    def latent(self, x: Tensor, eps):
        branches = [vae_mod._latent_and_kl(mu, logvar, eps) for mu, logvar in self._branch_stats(x)]
        return _pi_sum(self.pi, (z for z, _ in branches)), _pi_sum(self.pi, (kl for _, kl in branches))

    def decode(self, z: Tensor) -> Tensor:
        return self.g_prime.forward(_pi_sum(self.pi, (p.decoder[0].forward(z) for p in self.parents)))


@dataclass
class GraphState:
    """Node registry and the expansion audit trail."""

    arch: ArchSpec
    nodes: list = field(default_factory=list)  # node i + 1 learned task i + 1
    expansion_log: list[dict] = field(default_factory=list)

    @property
    def basic_nodes(self) -> list[BasicNode]:
        return [node for node in self.nodes if isinstance(node, BasicNode)]

    @property
    def specific_nodes(self) -> list[SpecificNode]:
        return [node for node in self.nodes if isinstance(node, SpecificNode)]

    @property
    def adjacency(self) -> np.ndarray:
        """V, t x t: a Specific node's row holds pi over its parents' columns,
        every other entry is 0. Derived from the nodes, so it has no other source."""
        t = len(self.nodes)
        v = np.zeros((t, t))
        for node in self.specific_nodes:
            for weight, parent in zip(node.pi, node.parents):
                v[node.id - 1, parent.id - 1] = weight
        return v

    def all_nodes(self):
        return self.nodes

    def param_hash(self) -> str:
        """SHA-256 over every node's serialized parameters, in node-id order."""
        digest = hashlib.sha256()
        for node in self.nodes:
            digest.update(node.param_bytes())
        return digest.hexdigest()

    def basic_param_hash(self) -> str:
        digest = hashlib.sha256()
        for node in self.basic_nodes:
            digest.update(node.param_bytes())
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# Novelty, decisions, weights

# Every bound used for scoring (best bound, novelty probes, node selection)
# draws its single-sample noise keyed by example content under this label,
# so scores are exact functions of the data values: permutation-invariant
# and comparable across evaluation sites.
SCORE_NOISE_LABEL = "degm/score"


def _score_noise(x: np.ndarray, latent_dim: int) -> np.ndarray:
    return rng_mod.content_keyed_normal(x, latent_dim, SCORE_NOISE_LABEL)


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
    for i, node in enumerate(graph.basic_nodes):
        if node.best_elbo is None:
            raise ContractError(f"Basic node {node.id} has no recorded best bound")
        mean_bound = vae_mod.elbo(node, probe, noise=noise).total
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


def _append(graph: GraphState, node):
    """Add the node of the next task: node i learned task i."""
    if node.id != len(graph.nodes) + 1:
        raise ContractError(f"task {node.id} cannot be node {len(graph.nodes) + 1} of the graph")
    graph.nodes.append(node)
    return node


def build_basic_node(graph: GraphState, task_id: int, seed: int) -> BasicNode:
    """Append a fresh Basic node; its adjacency row stays all-zero."""
    return _append(graph, BasicNode.on_arch(task_id, graph.arch, seed))


def build_specific_node(graph: GraphState, task_id: int, pi, seed: int) -> SpecificNode:
    """Append a Specific node wired to every Basic node so far; pi weights them."""
    return _append(graph, SpecificNode(task_id, graph.arch, pi, graph.basic_nodes, seed=seed))


# ---------------------------------------------------------------------------
# Scoring


def select_node(graph: GraphState, x, scores: dict | None = None):
    """Pick the node with the highest mean bound on ``x``.

    Every node is scored by ``vae.elbo``, its own training bound (a Specific
    node's is the mixture bound). Noise is content-keyed, so scores ignore
    sample ordering. Ties break toward the lowest node id. Returns
    ``(node_id, scores)``. ``scores`` may hold scores of frozen nodes already
    taken on this same ``x``; only the nodes it lacks are scored, into it.
    """
    nodes = graph.nodes
    if not nodes:
        raise ContractError("cannot select from an empty graph")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    scores = {} if scores is None else scores
    todo = [node for node in nodes if node.id not in scores]
    noise = _score_noise(x, graph.arch.latent_dim) if todo else None
    for node in todo:
        scores[node.id] = vae_mod.elbo(node, x, noise=noise).total
    best_id = max(sorted(scores), key=lambda nid: scores[nid])
    return best_id, scores


# ---------------------------------------------------------------------------
# Sequence training

NOVELTY_PROBE_SIZE = 1000  # training examples a task's novelty is scored on
SELECT_BATCH = 100  # test examples routed to one node together in evaluation


def final_eval_label(n_tasks: int, task_id: int) -> str:
    """Noise label of task ``task_id``'s NLL estimates in a run over ``n_tasks``
    tasks: the final evaluation's, which every task end reuses."""
    return f"degm/eval/after{n_tasks}/task{task_id}"


def _train_basic(node: BasicNode, images: np.ndarray, config: TrainConfig, label: str):
    best = -np.inf
    score_noise = _score_noise(images, node.latent_dim)

    def epoch_hook(epoch, record):
        nonlocal best
        # same content-keyed noise as novelty probes, so the recorded best
        # bound and later probe bounds are directly comparable
        mean_bound = vae_mod.elbo(node, images, noise=score_noise).total
        best = max(best, mean_bound)
        record["train_elbo"] = mean_bound

    history = run_training(
        node.parameters(), _bound_objective(node, config), images, config, label, epoch_hook
    )
    node.best_elbo = float(best)
    return history


def train_degm_sequence(
    stream: TaskStream,
    arch: ArchSpec,
    config: TrainConfig,
    tau: float,
    force: str | None = None,
    eval_k_prime: int = 200,
):
    """Grow and train the graph over a task stream.

    Per task: score novelty against every Basic node, decide basic/specific
    (``force`` overrides, e.g. "basic" reproduces the one-node-per-task
    baseline), build the node, train only its parameters, then freeze it.
    Evaluation picks a node per test batch by bound score and measures the
    negative log-likelihood with ``eval_k_prime`` weighted samples, keyed by
    the final evaluation's label: frozen nodes are scored and estimated once
    per test batch, so a batch keeps its NLL while it keeps its node.

    Returns ``(graph, task_records, train_metrics)``.
    """
    if len(stream) == 0:
        raise InvalidSpecError("empty task stream")
    if stream.dim != arch.data_dim:
        raise InvalidSpecError(f"stream dim {stream.dim} != arch data_dim {arch.data_dim}")
    graph = GraphState(arch=arch)
    memo: dict[int, dict] = {}  # eval task -> evaluate_task's memo
    task_records = []
    train_metrics = []
    for task in stream.tasks:
        t = task.task_id
        images = task.train.images
        if t == 1:
            ks = np.array([])
            decision = expansion_decision(ks, tau, force=force, first_task=True)
        else:
            probe_n = min(NOVELTY_PROBE_SIZE, len(images))
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
            history = run_training(node.parameters(), _bound_objective(node, config), images, config, label)
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
                rng_seed=config.seed,
                rng_label=final_eval_label(len(stream), seen.task_id),
                memo=memo.setdefault(seen.task_id, {}),
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
    rng_seed: int = 0,
    rng_label: str = "degm/eval",
    memo: dict | None = None,
):
    """Batch-wise node selection plus NLL on the selected node.

    ``memo`` maps a batch start to that batch's node scores and per-node
    ``logpx`` sums; pass the same dict only with the same images, seed, label
    and ``eval_k_prime``, and only while the graph's nodes stay frozen.
    """
    memo = {} if memo is None else memo
    images = np.asarray(images, dtype=np.float64)
    n = images.shape[0]
    total_logpx = 0.0
    correct = 0
    batches = 0
    selections = []
    for start in range(0, n, SELECT_BATCH):
        xb = images[start : start + SELECT_BATCH]
        scores, logpx_sums = memo.setdefault(start, ({}, {}))
        node_id, _ = select_node(graph, xb, scores)
        node = graph.nodes[node_id - 1]
        if node_id not in logpx_sums:
            nll_rng = rng_mod.stream(rng_seed, f"{rng_label}/nll/{start}")
            logpx_sums[node_id] = float(vae_mod.iw_logpx_np(node, xb, eval_k_prime, rng=nll_rng).sum())
        total_logpx += logpx_sums[node_id]
        selections.append(node_id)
        batches += 1
        if node_id == true_task:
            correct += 1
    record = {"nll": -total_logpx / n, "selections": selections, "n_batches": batches}
    if true_task is not None:
        record["selection_accuracy"] = correct / batches
    return record
