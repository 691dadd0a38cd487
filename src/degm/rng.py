"""Labeled deterministic random streams.

Every stochastic site (weight init, reparameterization noise, shuffling,
binarization, ...) draws from its own named stream derived from
``(seed, label)``. Adding a new consumer therefore never perturbs the
draws seen by an existing one, and whole runs replay bit-exactly from a
single seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _label_words(label: str) -> list[int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


def stream(seed: int, label: str) -> np.random.Generator:
    """Counter-based generator for ``(seed, label)``.

    Streams with distinct labels are statistically independent; the same
    pair always yields the same draw sequence.
    """
    entropy = [int(seed) & _MASK64, *_label_words(label)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, label: str) -> int:
    """Stable 63-bit sub-seed for handing to components that seed themselves."""
    payload = f"{int(seed) & _MASK64}/{label}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def content_keyed_normal(rows, cols: int, label: str) -> np.ndarray:
    """Standard normals of shape (n, cols), keyed by each row's byte content,
    not its position.

    The same row always receives the same noise under the same label, so any
    statistic averaged over rows is exactly invariant to their ordering.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n = rows.shape[0]
    out = np.empty((n, cols))
    prefix = label.encode("utf-8")
    for i in range(n):
        digest = hashlib.sha256(prefix + rows[i].tobytes()).digest()
        key = np.frombuffer(digest[:16], dtype=np.uint64)
        g = np.random.Generator(np.random.Philox(key=key))
        out[i] = g.standard_normal(cols)
    return out
