"""Diagnostics that make the forgetting theory measurable.

The quantities here mirror the upper bound on average negative marginal
log-likelihood that the trainer optimizes against: squared-loss risks of
encode-decode hypotheses, the empirical discrepancy distance between two
sample sets over a finite hypothesis pool (with its finite-sample slack),
the gap between posterior KLs measured on target versus mixed source data,
and an exact accounting of how retraining multiplies error terms across
component-task assignments.

The true hypothesis-class supremum in the discrepancy distance is not
computable; a pool of frozen model snapshots (per task, per epoch) stands
in for it, which makes every value exactly reproducible and testable
against brute-force enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from . import vae as vae_mod
from .nn import InvalidSpecError, no_grad


class IncompleteInputError(ValueError):
    """A report is missing required measured terms; lists the missing keys."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__(f"missing measured terms for keys: {self.missing}")

    def __reduce__(self):
        # the default would rebuild from the message, one character per key
        return type(self), (self.missing,)


class InvalidLogError(ValueError):
    """An assignment log violates the task-partition or retrain-count rules."""


# ---------------------------------------------------------------------------
# Hypotheses and risks


class HypothesisSnapshot:
    """A frozen encode-decode map h(x) = decode(encode_mean(x)).

    Snapshots are taken from any model exposing ``encode``/``decode``, run
    under ``no_grad``; the latent is the posterior mean so the map is
    deterministic.
    """

    def __init__(self, model, label: dict | None = None):
        self.label = dict(label or {})
        # Copy a trainable model so later training cannot mutate the
        # hypothesis; a frozen one (e.g. a loaded checkpoint) is used as is.
        self._frozen = _freeze_params(model)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.reconstruct(x)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            mu, _ = self._frozen.encode(np.asarray(x, dtype=np.float64))
            return self._frozen.decode(mu).data


def _freeze_params(model):
    copy = getattr(model, "copy", None)
    if copy is None or not any(p.requires_grad for p in model.parameters()):
        return model  # already frozen: nothing trains it any more
    return copy(requires_grad=False)


class ReconstructionTable:
    """Every snapshot's reconstruction of one fixed sample set, computed once.

    The one pool type: a finite stand-in for the hypothesis class. Row i of
    ``recons``, shape ``(size, m, d)``, is the i-th added snapshot's
    reconstruction of the ``(m, d)`` sample set, written straight into its
    slot. The rows are a view into the first ``size * m * d`` values of the
    float64 ``buffer``, so a walk can reuse one allocation for table after
    table. ``pair_losses(lo, hi)`` is the pair-loss matrix of the pool of
    snapshots ``lo..hi-1``, taken on the row slice ``[lo:hi]``, so sliding a
    pool over the snapshots never reconstructs a (snapshot, sample set) pair
    twice.
    """

    def __init__(self, samples, size: int, buffer: np.ndarray):
        self.samples = np.asarray(samples, dtype=np.float64)
        shape = (size, *self.samples.shape)
        count = math.prod(shape)
        if buffer.size < count:
            raise InvalidSpecError(f"a buffer of {buffer.size} values cannot hold {shape} reconstructions")
        self.recons = buffer[:count].reshape(shape)
        self.filled = 0

    def add(self, hypothesis) -> None:
        """Reconstruct the sample set with the next snapshot, into its row."""
        self.recons[self.filled] = hypothesis.reconstruct(self.samples)
        self.filled += 1

    def pair_losses(self, lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi <= self.filled:
            raise InvalidSpecError(f"window [{lo}:{hi}] outside a table of {self.filled} snapshots")
        return pair_loss_means(self.recons[lo:hi])


def risk(h, dataset, reference="identity", normalize: bool = False) -> float:
    """Mean squared loss of h(x) against a reference map over a dataset.

    ``reference="identity"`` scores reconstruction against the inputs
    themselves; passing another hypothesis scores the pair loss used inside
    the discrepancy distance. ``normalize`` divides by the data dimension.
    """
    x = np.asarray(getattr(dataset, "images", dataset), dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidSpecError("risk needs a non-empty (n, d) sample matrix")
    hx = h(x) if callable(h) else h.reconstruct(x)
    if reference == "identity":
        ref = x
    else:
        ref = reference(x) if callable(reference) else reference.reconstruct(x)
    diff = hx - ref
    val = float((diff * diff).sum(axis=1).mean())
    return val / x.shape[1] if normalize else val


def pair_loss_means(recons: np.ndarray) -> np.ndarray:
    """M[i, j] = mean_x ||h_i(x) - h_j(x)||^2 over a sample set, from a pool's
    ``(w, m, d)`` reconstructions of its m samples.

    Uses the Gram identity ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b over
    flattened reconstruction matrices.
    """
    if recons.ndim != 3 or recons.shape[1] == 0:
        raise InvalidSpecError("pair losses need a pool's reconstructions of a non-empty sample set")
    flat = recons.reshape(recons.shape[0], -1)
    gram = flat @ flat.T / recons.shape[1]
    diag = np.diag(gram)
    return diag[:, None] + diag[None, :] - 2.0 * gram


def empirical_discrepancy(pair_losses_p: np.ndarray, pair_losses_q: np.ndarray) -> float:
    """Largest absolute gap, over hypothesis pairs, between two sample sets'
    expected pair losses: max |M_p - M_q| over one pool's ``pair_loss_means``
    on each set. Non-negative, symmetric, zero on identical sets."""
    if len(pair_losses_p) < 2:
        raise InvalidSpecError("discrepancy needs a pool of at least 2 hypotheses")
    return float(np.abs(pair_losses_p - pair_losses_q).max())


def discrepancy_slack(m_p: int, m_q: int, loss_bound: float, delta: float = 0.05) -> float:
    """Finite-sample additive slack for the empirical discrepancy:
    3M(sqrt(log(4/delta)/2m_p) + sqrt(log(4/delta)/2m_q))."""
    if m_p < 1 or m_q < 1:
        raise InvalidSpecError("sample counts must be >= 1")
    if not (0.0 < delta < 1.0):
        raise InvalidSpecError(f"delta must lie in (0, 1), got {delta}")
    if loss_bound <= 0:
        raise InvalidSpecError(f"loss bound must be positive, got {loss_bound}")
    log_term = math.log(4.0 / delta)
    return 3.0 * loss_bound * (math.sqrt(log_term / (2.0 * m_p)) + math.sqrt(log_term / (2.0 * m_q)))


# ---------------------------------------------------------------------------
# Bound breakdown


def lelbo_breakdown(
    model,
    target_sets,
    mixed_set,
    pair_losses_p: np.ndarray,
    pair_losses_q: np.ndarray,
    rng=None,
    delta: float = 0.05,
    normalize_risks: bool = False,
) -> dict:
    """Measure every estimable term of the lifelong bound at one point in time.

    source side: mean negative bound on the mixed training distribution;
    target side: average mean negative bound over the per-task target sets.
    The KL gap |KL1 - KL2| compares the average posterior-to-prior KL over
    the target sets with the one over the mixed set, both taken from those
    same bound estimates. The residual target - (source + kl_gap) is what
    the risk/discrepancy terms account for; the optimal combined risk is
    not estimable and is reported as a zero lower bound with a flag.
    ``pair_losses_p`` and ``pair_losses_q`` are one pool's
    ``pair_loss_means`` on ``pooled_targets(target_sets)`` and on the mixed
    set. ``normalize_risks`` divides the discrepancy by the data dimension d
    and takes the slack's loss bound as 1 instead of d.
    """
    if not target_sets:
        raise InvalidSpecError("need at least one target set")
    xm, *targets = (
        np.asarray(getattr(ts, "images", ts), dtype=np.float64) for ts in (mixed_set, *target_sets)
    )
    for kind, x in (("mixed", xm), *(("target", x) for x in targets)):
        if x.shape[0] == 0:
            raise InvalidSpecError(f"empty {kind} set")
    if rng is None:
        rng = rng_mod.stream(0, "bounds/lelbo")
    mixed = vae_mod.elbo(model, xm, rng=rng)
    per_task = [vae_mod.elbo(model, x, rng=rng) for x in targets]
    source = -mixed.total
    target = float(np.mean([-e.total for e in per_task]))
    gap = abs(float(np.mean([e.kl_term for e in per_task])) - mixed.kl_term)

    disc = empirical_discrepancy(pair_losses_p, pair_losses_q)
    if normalize_risks:
        disc /= xm.shape[1]
    loss_bound = 1.0 if normalize_risks else float(xm.shape[1])
    m_p = len(targets) * min(len(x) for x in targets)
    return {
        "source_risk_elbo": source,
        "target_risk_elbo": target,
        "kl_gap": gap,
        "empirical_discrepancy": disc,
        "slack": discrepancy_slack(m_p, xm.shape[0], loss_bound, delta),
        "residual": target - (source + gap),
        "epsilon_lower_bound": 0.0,
        "epsilon_estimable": False,
    }


def pooled_targets(target_sets) -> np.ndarray:
    """The target sets cut to the smallest one's size and stacked: the
    sample set the discrepancy compares against the mixed set."""
    arrays = [np.asarray(getattr(ts, "images", ts), dtype=np.float64) for ts in target_sets]
    m = min(a.shape[0] for a in arrays)
    return np.concatenate([a[:m] for a in arrays], axis=0)


# ---------------------------------------------------------------------------
# Component-task accounting


@dataclass
class ComponentEntry:
    """One mixture component: the ordered tasks it learned and, per task, how
    many extra generative-replay retrainings touched that task afterwards."""

    component_id: int
    task_ids: list[int]
    retrain_counts: list[int]


@dataclass
class AssignmentLog:
    """Who learned what: a partition of tasks 1..t over components."""

    t: int
    entries: list[ComponentEntry]

    @classmethod
    def from_partition(cls, t: int, partition) -> "AssignmentLog":
        """Build a log from a task partition under the replay retraining rule:
        a component that keeps training re-sees task a for t - a extra rounds;
        once-trained components re-see nothing."""
        entries = []
        for cid, tasks in enumerate(partition, start=1):
            tasks = sorted(int(a) for a in tasks)
            if len(tasks) == 1:
                counts = [0]
            else:
                counts = [t - a for a in tasks]
            entries.append(ComponentEntry(cid, tasks, counts))
        return cls(t=t, entries=entries)


def assignment_summary(log: AssignmentLog) -> dict:
    """Exact bookkeeping of the mixture bound's structure for an assignment.

    Partitions components into once-trained C and multi-trained C'; for each
    task of a multi-trained component the accumulated error chain has
    c(i,j) + 1 links (the chain runs from the true target through every
    regenerated source); once-trained tasks contribute no accumulated links.
    """
    seen: dict[int, int] = {}
    for entry in log.entries:
        if len(entry.task_ids) != len(entry.retrain_counts):
            raise InvalidLogError(
                f"component {entry.component_id}: {len(entry.task_ids)} tasks but "
                f"{len(entry.retrain_counts)} retrain counts"
            )
        for a in entry.task_ids:
            if a in seen:
                raise InvalidLogError(
                    f"task {a} assigned to components {seen[a]} and {entry.component_id}"
                )
            seen[a] = entry.component_id
    missing = set(range(1, log.t + 1)) - set(seen)
    if missing:
        raise InvalidLogError(f"tasks {sorted(missing)} not covered by any component")
    extra = set(seen) - set(range(1, log.t + 1))
    if extra:
        raise InvalidLogError(f"unknown task ids {sorted(extra)}")

    once, multi = [], []
    c_table: dict[tuple[int, int], int] = {}
    accumulated: dict[int, int] = {}
    tilde_a: dict[int, int] = {}
    for entry in log.entries:
        if len(entry.task_ids) == 1:
            if entry.retrain_counts != [0]:
                raise InvalidLogError(
                    f"once-trained component {entry.component_id} must have retrain count 0"
                )
            once.append(entry.component_id)
            accumulated[entry.task_ids[0]] = 0
            c_table[(entry.component_id, entry.task_ids[0])] = 0
        else:
            multi.append(entry.component_id)
            tilde_a[entry.component_id] = len(entry.task_ids)
            for a, c in zip(entry.task_ids, entry.retrain_counts):
                if c != log.t - a:
                    raise InvalidLogError(
                        f"component {entry.component_id}, task {a}: retrain count {c} "
                        f"violates the replay schedule (expected {log.t - a})"
                    )
                c_table[(entry.component_id, a)] = c
                accumulated[a] = c + 1
    return {
        "t": log.t,
        "K": len(log.entries),
        "C": sorted(once),
        "C_prime": sorted(multi),
        "A": {e.component_id: list(e.task_ids) for e in log.entries},
        "tilde_a": tilde_a,
        "c_table": c_table,
        "accumulated_term_counts": accumulated,
    }


def mixture_bound_report(summary: dict, per_term_risks: dict, kl_gaps: dict | None = None) -> dict:
    """Assemble the measurable bound components from supplied risk values.

    ``per_term_risks`` maps ``(task, stage)`` to measured values:
      - ``(a, "risk")``: the component's pair risk against its best-in-class
        reference on the distribution it actually trained on;
      - ``(a, "ra", k)`` for k = -1..c-1: one chain link of risk+discrepancy
        (once-trained tasks need only k = -1);
      - ``(a, "elbo")``: the expected negative bound for the task's component.
    ``kl_gaps`` maps multi-trained component ids to their posterior-KL gaps;
    their sum stands in for the mixture KL-difference term. Missing
    non-estimable optimum terms are reported as zero lower bounds.
    """
    t = summary["t"]
    comp_of: dict[int, int] = {}
    for cid, tasks in summary["A"].items():
        for a in tasks:
            comp_of[a] = cid

    required = []
    for a in range(1, t + 1):
        required.append((a, "risk"))
        required.append((a, "elbo"))
        chain = summary["accumulated_term_counts"][a]
        if chain == 0:
            required.append((a, "ra", -1))
        else:
            for k in range(-1, chain - 1):
                required.append((a, "ra", k))
    missing = [key for key in required if key not in per_term_risks]
    if missing:
        raise IncompleteInputError(missing)

    r_c = 0.0
    r_c_ii = 0.0
    r_a_prime = 0.0
    r_a_prime_ii = 0.0
    elbo_once = 0.0
    elbo_multi = 0.0
    once = set(summary["C"])
    for a in range(1, t + 1):
        cid = comp_of[a]
        risk_term = per_term_risks[(a, "risk")]
        chain = summary["accumulated_term_counts"][a]
        if cid in once:
            ra = per_term_risks[(a, "ra", -1)]
            r_c += risk_term + ra
            r_c_ii += ra
            elbo_once += per_term_risks[(a, "elbo")]
        else:
            links = sum(per_term_risks[(a, "ra", k)] for k in range(-1, chain - 1))
            r_a_prime += risk_term + links
            r_a_prime_ii += links
            elbo_multi += per_term_risks[(a, "elbo")]

    d_diff = 0.0
    gaps_used = {}
    if kl_gaps:
        for cid in summary["C_prime"]:
            gap = kl_gaps.get(cid, 0.0)
            gaps_used[cid] = gap
            d_diff += gap
    rhs_total = elbo_multi / t + elbo_once + (r_a_prime_ii + r_c_ii + d_diff) / t
    return {
        "R_C": r_c,
        "R_A_prime": r_a_prime,
        "R_C_II": r_c_ii,
        "R_A_prime_II": r_a_prime_ii,
        "D_diff": d_diff,
        "kl_gaps_used": gaps_used,
        "elbo_sum_once": elbo_once,
        "elbo_sum_multi": elbo_multi,
        "rhs_total": rhs_total,
        "epsilon_lower_bound": 0.0,
        "epsilon_estimable": False,
    }
