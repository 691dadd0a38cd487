"""Labeled streams: content-keyed noise."""

import hashlib

import numpy as np
import pytest

from degm import rng


def fresh_generator_per_row(rows, cols, label):
    """Reference recipe: one new Philox generator per row, keyed by its bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    out = np.empty((rows.shape[0], cols))
    for i in range(rows.shape[0]):
        digest = hashlib.sha256(label.encode("utf-8") + rows[i].tobytes()).digest()
        key = np.frombuffer(digest[:16], dtype=np.uint64)
        out[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal(cols)
    return out


class TestContentKeyedNormal:
    @pytest.mark.parametrize("cols", [1, 7, 16])
    def test_bit_equal_to_fresh_generator_per_row(self, cols):
        rows = rng.stream(cols, "rows").random((300, 5))
        got = rng.content_keyed_normal(rows, cols, "select/t2")
        assert got.tobytes() == fresh_generator_per_row(rows, cols, "select/t2").tobytes()

    def test_duplicate_rows_get_the_same_noise(self):
        rows = rng.stream(1, "rows").random((4, 6))
        rows = rows[[0, 1, 0, 2, 1, 3, 0]]
        got = rng.content_keyed_normal(rows, 7, "dup")
        assert got.tobytes() == fresh_generator_per_row(rows, 7, "dup").tobytes()
        assert got[0].tobytes() == got[2].tobytes() == got[6].tobytes()
        assert got[1].tobytes() == got[4].tobytes()

    def test_non_contiguous_rows(self):
        rows = rng.stream(2, "rows").random((10, 12))[::2, ::3]
        assert not rows.flags.c_contiguous
        got = rng.content_keyed_normal(rows, 16, "strided")
        assert got.tobytes() == fresh_generator_per_row(rows, 16, "strided").tobytes()
        assert got.tobytes() == rng.content_keyed_normal(rows.copy(), 16, "strided").tobytes()

    def test_zero_rows(self):
        got = rng.content_keyed_normal(np.empty((0, 5)), 7, "none")
        assert got.shape == (0, 7)
