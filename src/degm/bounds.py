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

import copy
import csv
import json
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
    """Every snapshot's reconstruction of a few fixed sample sets, computed once.

    The one pool type: a finite stand-in for the hypothesis class. Holds one
    exact-size ``(n_snapshots, m, d)`` array per sample set, so it takes
    ``n_snapshots * sum(m) * d * 8`` bytes; keep one alive only while its
    sample sets are in use. ``window(lo, hi)`` is the pool of snapshots
    ``lo..hi-1``: a table over the row slices ``[lo:hi]`` of the same arrays,
    so sliding a pool over the snapshots never reconstructs a (snapshot,
    sample set) pair twice.
    """

    def __init__(self, hypotheses, sample_sets):
        self.size = len(hypotheses)
        self.samples = [np.asarray(getattr(s, "images", s), dtype=np.float64) for s in sample_sets]
        self.recons = []
        for x in self.samples:
            out = None
            for i, h in enumerate(hypotheses):
                rec = h.reconstruct(x)  # straight into its slot: no list plus np.stack
                if out is None:
                    out = np.empty((self.size, *np.shape(rec)))
                out[i] = rec
            self.recons.append(out)

    @classmethod
    def for_breakdown(cls, hypotheses, target_sets, mixed_set) -> "ReconstructionTable":
        """The two sample sets ``lelbo_breakdown`` reads: pooled targets and the mixed set."""
        return cls(hypotheses, [_equal_size_pool(target_sets), mixed_set])

    def window(self, lo: int = 0, hi: int | None = None) -> "ReconstructionTable":
        hi = self.size if hi is None else hi
        if not 0 <= lo <= hi <= self.size:
            raise InvalidSpecError(f"window [{lo}:{hi}] outside a table of {self.size} snapshots")
        view = copy.copy(self)
        view.size = hi - lo
        view.recons = [rec[lo:hi] for rec in self.recons]
        return view

    def __len__(self) -> int:
        return self.size

    def reconstructions(self, x: np.ndarray) -> np.ndarray:
        for xs, rec in zip(self.samples, self.recons):
            if x is xs or (x.shape == xs.shape and np.array_equal(x, xs)):
                return rec
        raise InvalidSpecError("sample set is not one the reconstruction table was built on")


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


def _pair_loss_means(samples: np.ndarray, recons: np.ndarray) -> np.ndarray:
    """M[i, j] = mean_x ||h_i(x) - h_j(x)||^2 over the sample set.

    Uses the Gram identity ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b over
    flattened reconstruction matrices.
    """
    flat = recons.reshape(recons.shape[0], -1)
    gram = flat @ flat.T / samples.shape[0]
    diag = np.diag(gram)
    return diag[:, None] + diag[None, :] - 2.0 * gram


def empirical_discrepancy(
    set_p, set_q, pool: ReconstructionTable, normalize: bool = False
) -> float:
    """Largest absolute gap, over hypothesis pairs, between the two sets'
    expected pair losses. Non-negative, symmetric, zero on identical sets.

    ``pool`` is a table built on both sets (or a window of one)."""
    if len(pool) < 2:
        raise InvalidSpecError("discrepancy needs a pool of at least 2 hypotheses")
    xp = np.asarray(getattr(set_p, "images", set_p), dtype=np.float64)
    xq = np.asarray(getattr(set_q, "images", set_q), dtype=np.float64)
    if xp.size == 0 or xq.size == 0:
        raise InvalidSpecError("discrepancy needs non-empty sample sets")
    rec_p = pool.reconstructions(xp)
    rec_q = pool.reconstructions(xq)
    gap = np.abs(_pair_loss_means(xp, rec_p) - _pair_loss_means(xq, rec_q))
    val = float(gap.max())
    return val / xp.shape[1] if normalize else val


def discrepancy_slack(
    m_p: int, m_q: int, loss_bound: float, delta: float = 0.05, rad_p: float = 0.0, rad_q: float = 0.0
) -> float:
    """Finite-sample additive slack for the empirical discrepancy:
    8(rad_p + rad_q) + 3M(sqrt(log(4/delta)/2m_p) + sqrt(log(4/delta)/2m_q))."""
    if m_p < 1 or m_q < 1:
        raise InvalidSpecError("sample counts must be >= 1")
    if not (0.0 < delta < 1.0):
        raise InvalidSpecError(f"delta must lie in (0, 1), got {delta}")
    if loss_bound <= 0:
        raise InvalidSpecError(f"loss bound must be positive, got {loss_bound}")
    log_term = math.log(4.0 / delta)
    return 8.0 * (rad_p + rad_q) + 3.0 * loss_bound * (
        math.sqrt(log_term / (2.0 * m_p)) + math.sqrt(log_term / (2.0 * m_q))
    )


def rademacher_estimate(
    dataset, pool: ReconstructionTable, n_sign_draws: int = 64, rng=None
) -> float:
    """Finite-pool surrogate for the complexity of the loss-composed class.

    Averages, over random sign vectors, the largest |(1/m) sum_i s_i l(x_i)|
    where l ranges over pair losses l_{h,h'}(x) = ||h'(x) - h(x)||^2 from the
    pool.
    """
    if len(pool) == 0:
        raise InvalidSpecError("rademacher estimate needs a non-empty pool")
    x = np.asarray(getattr(dataset, "images", dataset), dtype=np.float64)
    m = x.shape[0]
    if rng is None:
        rng = rng_mod.stream(0, "bounds/rademacher")
    recons = pool.reconstructions(x)
    n_h = recons.shape[0]
    # loss matrix: rows = (h, h') pairs, cols = samples
    losses = np.empty((n_h * n_h, m))
    row = 0
    for i in range(n_h):
        diff = recons - recons[i][None]
        losses[row : row + n_h] = (diff * diff).sum(axis=2)
        row += n_h
    total = 0.0
    for _ in range(n_sign_draws):
        signs = rng.integers(0, 2, size=m) * 2.0 - 1.0
        total += float(np.abs(losses @ signs).max()) / m
    return total / n_sign_draws


# ---------------------------------------------------------------------------
# KL gap and bound breakdown


def kl_gap(model, target_sets, mixed_set) -> float:
    """|KL1 - KL2|: average posterior-to-prior KL over per-task target sets
    versus over the mixed source set, both analytic."""
    if not target_sets:
        raise InvalidSpecError("need at least one target set")
    kls = []
    for kind, ts in [*(("target", t) for t in target_sets), ("mixed", mixed_set)]:
        x = np.asarray(getattr(ts, "images", ts), dtype=np.float64)
        if x.shape[0] == 0:
            raise InvalidSpecError(f"empty {kind} set")
        with no_grad():
            kls.append(float(vae_mod.gaussian_kl(*model.encode(x))))
    return abs(float(np.mean(kls[:-1])) - kls[-1])


def lelbo_breakdown(
    model,
    target_sets,
    mixed_set,
    pool: ReconstructionTable,
    rng=None,
    delta: float = 0.05,
    loss_bound: float | None = None,
    normalize_risks: bool = False,
    rademacher_draws: int = 0,
) -> dict:
    """Measure every estimable term of the lifelong bound at one point in time.

    source side: mean negative bound on the mixed training distribution;
    target side: average mean negative bound over the per-task target sets.
    The residual target - (source + kl_gap) is what the risk/discrepancy
    terms account for; the optimal combined risk is not estimable and is
    reported as a zero lower bound with a flag. With ``rademacher_draws`` > 0
    the slack includes finite-pool complexity estimates for both sample sets.
    ``pool`` is a window of a table built with
    ``ReconstructionTable.for_breakdown(hypotheses, target_sets, mixed_set)``.
    """
    if rng is None:
        rng = rng_mod.stream(0, "bounds/lelbo")
    xm = np.asarray(getattr(mixed_set, "images", mixed_set), dtype=np.float64)
    source = -vae_mod.elbo(model, xm, rng=rng).total
    per_task = []
    for ts in target_sets:
        x = np.asarray(getattr(ts, "images", ts), dtype=np.float64)
        per_task.append(-vae_mod.elbo(model, x, rng=rng).total)
    target = float(np.mean(per_task))
    gap = kl_gap(model, target_sets, mixed_set)

    targets_pooled = _equal_size_pool(target_sets)
    disc = empirical_discrepancy(targets_pooled, xm, pool, normalize=normalize_risks)
    m_p = targets_pooled.shape[0]
    m_q = xm.shape[0]
    bound = loss_bound if loss_bound is not None else float(xm.shape[1])
    rad_p = rad_q = 0.0
    if rademacher_draws > 0:
        rad_p = rademacher_estimate(targets_pooled, pool, rademacher_draws, rng=rng)
        rad_q = rademacher_estimate(xm, pool, rademacher_draws, rng=rng)
        if normalize_risks:
            rad_p /= xm.shape[1]
            rad_q /= xm.shape[1]
    slack = discrepancy_slack(m_p, m_q, bound, delta, rad_p=rad_p, rad_q=rad_q)
    return {
        "source_risk_elbo": source,
        "target_risk_elbo": target,
        "kl_gap": gap,
        "empirical_discrepancy": disc,
        "slack": slack,
        "rademacher_p": rad_p,
        "rademacher_q": rad_q,
        "residual": target - (source + gap),
        "epsilon_lower_bound": 0.0,
        "epsilon_estimable": False,
    }


def _equal_size_pool(target_sets) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Ledger


LEDGER_COLUMNS = [
    "t",
    "nll_per_task",
    "avg_nll",
    "source_risk",
    "target_risk",
    "empirical_discrepancy",
    "slack",
    "kl_gap",
    "residual",
    "accounting",
]


class DiagnosticsLedger:
    """Append-only, time-indexed diagnostic records for one run."""

    def __init__(self):
        self.records: list[dict] = []

    def append(self, t: int, **fields) -> dict:
        if self.records and t < self.records[-1]["t"]:
            raise InvalidLogError(
                f"time index must be non-decreasing: {t} after {self.records[-1]['t']}"
            )
        record = {"t": t, **fields}
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(LEDGER_COLUMNS)
            for rec in self.records:
                nlls = rec.get("nll_per_task")
                writer.writerow(
                    [
                        rec["t"],
                        ";".join(repr(float(v)) for v in nlls) if nlls else "",
                        _fmt(rec.get("avg_nll")),
                        _fmt(rec.get("source_risk")),
                        _fmt(rec.get("target_risk")),
                        _fmt(rec.get("empirical_discrepancy")),
                        _fmt(rec.get("slack")),
                        _fmt(rec.get("kl_gap")),
                        _fmt(rec.get("residual")),
                        json.dumps(rec.get("accounting"), sort_keys=True)
                        if rec.get("accounting") is not None
                        else "",
                    ]
                )

    def to_json(self) -> str:
        return json.dumps({"records": self.records}, sort_keys=True, default=_jsonable)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")
