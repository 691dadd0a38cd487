"""The benchmark's three workloads, each driven through the public ``degm.cli`` commands.

Every workload is one config plus the commands it runs. The program gets only
the config (with the seed); it generates its own synthetic task stream from it.

- ``gr-bernoulli``: generative replay on the Bernoulli stream. Training
  heavy (tape forward/backward, Adam) plus K'=200 evaluation; single seed, and
  it never touches ``graph``, ``bounds`` or content-keyed noise.
- ``degm-tau35-2seeds``: the expansion graph at tau=35 over seeds s and s+1
  through ``cmd_train_multi``. Evaluation heavy (node selection, K'=200 through
  Basic nodes and the Specific path); the only workload with novelty,
  content-keyed noise, and more than one seed in a command.
- ``diagnose-gaussian``: the forgetting-trace protocol: a Gaussian replay run
  that writes per-epoch snapshots, then ``cmd_diagnose`` on its output. Small
  K', snapshot checkpoint I/O and bound reconstructions dominate.
"""

from __future__ import annotations

import os
import sys
import time

# The canonical desk-scale stream with a quarter of its examples (canonical:
# 2000 train / 500 test per task). Epochs, batch size, K' and tau are the
# canonical ones, so the shares of training and evaluation stay as they are,
# but one repeat takes 2-4 s instead of 11-18 s. A run then takes the median of
# 8-17 repeats, which rides out the host's swings in speed (up to 50 % within
# seconds on a shared 2-core machine); the median of two or three canonical
# repeats did not.
STREAM = {
    "stream": ["bars", "blobs", "rings"],
    "train_per_task": 500,
    "test_per_task": 125,
    "epochs": 10,
    "batch_size": 64,
}

CONFIGS = {
    "gr-bernoulli": {
        **STREAM,
        "method": "elbo_gr",
        "likelihood": "bernoulli",
        "binarize": "stochastic",
        "eval_k_prime": 200,
    },
    "degm-tau35-2seeds": {
        **STREAM,
        "method": "degm_elbo",
        "tau": 35,
        "likelihood": "bernoulli",
        "binarize": "stochastic",
        "eval_k_prime": 200,
    },
    "diagnose-gaussian": {
        **STREAM,
        "method": "elbo_gr",
        "likelihood": "gaussian_identity",
        "binarize": "none",
        "normalize_recon": True,
        "eval_k_prime": 20,
        "diagnostics": {"enabled": True, "sample_size": 250},
    },
}

NAMES = tuple(CONFIGS)


def import_cli(root: str):
    """Import ``degm.cli`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "degm")):
        raise SystemExit(f"perfbench: no degm sources under {src}")
    sys.path.insert(0, src)
    import degm.cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(degm.cli.__file__)))
    if where != os.path.abspath(src):
        raise SystemExit(f"perfbench: degm imported from {where}, expected {src}")
    return degm.cli


def config(name: str, seed: int, out_dir: str, scale: dict | None = None) -> dict:
    """The workload's config for one seed; ``scale`` overrides sizes (tests only)."""
    return {**CONFIGS[name], **(scale or {}), "seed": seed, "output_dir": out_dir}


def run(cli, name: str, seed: int, out_dir: str, scale: dict | None = None) -> dict:
    """Run the workload's degm.cli commands once.

    Returns ``final_avg_nll``, ``diagnose_s`` (diagnose-gaussian only) and the
    artifact paths, relative to ``out_dir``, that must repeat byte for byte.
    """
    cfg = cli.parse_config(config(name, seed, out_dir, scale))
    if name == "degm-tau35-2seeds":
        seeds = [seed, seed + 1]
        aggregate = cli.cmd_train_multi(cfg, seeds)
        artifacts = [f"seed_{s}/{f}" for s in seeds for f in ("metrics.csv", "ledger.csv")]
        return {"final_avg_nll": aggregate["final_avg_nll_mean"], "artifacts": artifacts}
    report = cli.cmd_train(cfg)
    result = {"final_avg_nll": report["final_avg_nll"], "artifacts": ["metrics.csv", "ledger.csv"]}
    if name == "diagnose-gaussian":
        t0 = time.perf_counter()
        cli.cmd_diagnose(out_dir)
        result["diagnose_s"] = time.perf_counter() - t0
        result["artifacts"].append("diagnose.csv")
    return result
