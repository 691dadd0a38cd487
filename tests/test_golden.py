"""Golden artifacts: the SHA-256 of every byte-deterministic file of a few tiny runs.

Each config trains through ``cmd_train`` (or ``cmd_train_multi``) and, with
diagnostics on, runs ``cmd_diagnose``; the test pins ``metrics.csv``,
``ledger.csv``, the checkpoint and ``diagnose.csv``. Together the configs
cover every method, both likelihood families, K' > 1, ``replay_ratio`` != 1,
a Specific node with two parents, the ledger's and ``degm diagnose``'s walks
at a pool wider than the run and at a pool of 3, ``--seeds``, replay training
from a fresh init (``warm_start`` false) and a linear decoder. An exact change
must leave every digest as it is; a change that moves bytes on purpose
re-records them with

    PYTHONPATH=src python tests/test_golden.py --record

and says which ones moved. Training bytes depend on numpy and on the BLAS
kernel, so the digests file also holds the numpy version and the BLAS build
they were recorded under, and a mismatch says whether those differ.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from degm.cli import METHODS, cmd_diagnose, cmd_train, cmd_train_multi, parse_config

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

TINY = {
    "stream": ["bars", "blobs", "rings"],
    "seed": 5,
    "train_per_task": 96,
    "test_per_task": 32,
    "epochs": 2,
    "batch_size": 32,
    "latent_dim": 4,
    "trunk_widths": [32],
    "decoder_widths": [32],
    "eval_k_prime": 5,
}
GAUSSIAN = {
    **TINY,
    "method": "elbo_gr",
    "likelihood": "gaussian_identity",
    "binarize": "none",
    "normalize_recon": True,
}

# name -> (config, seeds or None, diagnose calls as (pool_size, normalize_risks))
CONFIGS = {
    "gaussian-elbo_gr-pool64": (
        {**GAUSSIAN, "diagnostics": {"enabled": True, "sample_size": 60}},
        None,
        [(None, False), (2, True)],
    ),
    "gaussian-elbo_gr-pool3": (
        {**GAUSSIAN, "diagnostics": {"enabled": True, "sample_size": 60, "pool_size": 3}},
        None,
        [(None, False)],
    ),
    "bernoulli-elbo_gr": ({**TINY, "method": "elbo_gr"}, None, []),
    "iwelbo_gr-k3-replay0.5": (
        {**TINY, "method": "iwelbo_gr", "k_prime": 3, "replay_ratio": 0.5},
        None,
        [],
    ),
    "degm_elbo-tau35": ({**TINY, "method": "degm_elbo", "tau": 35}, None, []),
    # Basic, Specific, Basic, then a Specific node with two parents
    "degm_iwelbo-k3-two-parents": (
        {**TINY, "stream": ["bars", "blobs", "rings", "bars"], "method": "degm_iwelbo", "tau": 0.8,
         "k_prime": 3},
        None,
        [],
    ),
    "degm2": ({**TINY, "method": "degm2"}, None, []),
    "elbo_gr-seeds1,2": ({**TINY, "method": "elbo_gr"}, [1, 2], []),
    "elbo_gr-cold-start": ({**TINY, "method": "elbo_gr", "warm_start": False}, None, []),
    "elbo_gr-linear-decoder": ({**TINY, "method": "elbo_gr", "decoder_widths": []}, None, []),
}


def test_every_method_has_a_golden_config():
    # a method added to the CLI's table lands with digests of its own artifacts
    covered = {cfg["method"] for cfg, _, _ in CONFIGS.values()}
    assert set(METHODS) <= covered, f"no golden config for {sorted(set(METHODS) - covered)}"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    return {"numpy": np.__version__, "blas": " ".join(build.split())}


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_config(name: str, out_dir: str) -> dict:
    """Run one config under ``out_dir``; the digest of each pinned file, by relative path."""
    cfg, seeds, diagnoses = CONFIGS[name]
    cfg = parse_config({**cfg, "output_dir": out_dir})
    digests = {}
    if seeds:
        cmd_train_multi(cfg, seeds)
        run_dirs = [f"seed_{s}" for s in seeds]  # aggregate.json holds paths: not pinned
    else:
        cmd_train(cfg)
        run_dirs = [""]
    for sub in run_dirs:
        for name_ in ("metrics.csv", "ledger.csv", "model.bin", "graph.bin"):
            path = os.path.join(out_dir, sub, name_)
            if os.path.exists(path):
                digests[os.path.join(sub, name_)] = _sha256(path)
    for pool_size, normalize in diagnoses:
        cmd_diagnose(out_dir, pool_size=pool_size, normalize_risks=normalize)
        key = f"diagnose.csv[pool={pool_size or cfg['diagnostics']['pool_size']},normalize={normalize}]"
        digests[key] = _sha256(os.path.join(out_dir, "diagnose.csv"))
    return digests


def _recorded() -> dict:
    with open(DIGESTS_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_artifacts_match_golden_digests(tmp_path, name):
    recorded = _recorded()
    got = run_config(name, str(tmp_path / "run"))
    want = recorded["digests"][name]
    if got != want:
        moved = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        here, then = environment(), recorded["environment"]
        if here != then:
            cause = (f"the digests were recorded under numpy {then['numpy']} with BLAS "
                     f"'{then['blas']}', but this run uses numpy {here['numpy']} with BLAS "
                     f"'{here['blas']}'; training bytes depend on both, so re-record the "
                     "digests on this environment before trusting this failure")
        else:
            cause = ("numpy and the BLAS build match the recorded ones, so the program's "
                     "output bytes changed")
        pytest.fail(f"{name}: {', '.join(moved)} differ from the golden digests; {cause}")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_config(name, os.path.join(tmp, name)) for name in CONFIGS}
    with open(DIGESTS_PATH, "w") as f:
        json.dump({"environment": environment(), "digests": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {sum(map(len, digests.values()))} digests of {len(digests)} configs -> {DIGESTS_PATH}")
