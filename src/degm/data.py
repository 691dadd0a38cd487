"""Dataset construction: synthetic desk-scale image families, binarization,
inverse-domain transform, task streams, and IDX-format ingestion.

The four synthetic families (bars, blobs, checkers, rings) act as distinct
"domains" so a handful of tasks already exercise cross-domain forgetting at
12x12 scale; real 28x28 data can be brought in through IDX files.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod

SYNTH_FAMILIES = ("bars", "blobs", "checkers", "rings")


class DataFormatError(ValueError):
    """A data file or dataset description is malformed."""


class IdxMagicError(DataFormatError):
    """IDX file magic number is wrong."""


class IdxTruncatedError(DataFormatError):
    """IDX payload is shorter than the header promises."""


class IdxTrailingBytesError(DataFormatError):
    """IDX file has bytes after the payload its header describes."""


class IdxCountMismatchError(DataFormatError):
    """Image and label files disagree on item count."""


@dataclass
class Dataset:
    """Flat images in [0, 1], optional integer labels, and geometry metadata."""

    images: np.ndarray
    labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float64)
        if self.images.ndim != 2:
            raise DataFormatError(f"images must be (n, d), got shape {self.images.shape}")
        w = self.meta.get("width")
        h = self.meta.get("height")
        if w is not None and h is not None and w * h != self.images.shape[1]:
            raise DataFormatError(
                f"meta {w}x{h} inconsistent with flat dimension {self.images.shape[1]}"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if len(self.labels) != len(self.images):
                raise DataFormatError("label count does not match image count")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def dim(self) -> int:
        return self.images.shape[1]

    @property
    def name(self) -> str:
        return self.meta.get("name", "unnamed")

    def subset(self, idx) -> "Dataset":
        labels = None if self.labels is None else self.labels[idx]
        return Dataset(self.images[idx], labels, dict(self.meta))


@dataclass
class Task:
    task_id: int
    train: Dataset
    test: Dataset


@dataclass
class TaskStream:
    """Ordered tasks with train/test splits; ids are 1..N consecutive."""

    tasks: list[Task]
    kind: str = "cross_domain"

    def __post_init__(self):
        ids = [t.task_id for t in self.tasks]
        if ids != list(range(1, len(ids) + 1)):
            raise DataFormatError(f"task ids must be 1..N consecutive, got {ids}")
        dims = {t.train.dim for t in self.tasks} | {t.test.dim for t in self.tasks}
        if len(dims) > 1:
            raise DataFormatError(f"tasks disagree on data dimension: {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def dim(self) -> int:
        return self.tasks[0].train.dim


# ---------------------------------------------------------------------------
# Synthetic families


def _gen_bars(g: np.random.Generator, n: int, width: int, height: int) -> np.ndarray:
    imgs = np.zeros((n, height, width))
    for i in range(n):
        k = int(g.integers(1, 4))
        if g.integers(2) == 0:
            rows = g.choice(height, size=min(k, height), replace=False)
            imgs[i, rows, :] = 1.0
        else:
            cols = g.choice(width, size=min(k, width), replace=False)
            imgs[i, :, cols] = 1.0
    return imgs


def _centre_range(extent: int) -> tuple[float, float]:
    """Blob centres keep 1.5 pixels from the edges; an axis shorter than 4
    pixels has only its middle."""
    low = min(1.5, (extent - 1) / 2.0)
    return low, max(extent - 2.5, low)


def _gen_blobs(g: np.random.Generator, n: int, width: int, height: int) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width]
    imgs = np.zeros((n, height, width))
    x_range, y_range = _centre_range(width), _centre_range(height)
    for i in range(n):
        for _ in range(int(g.integers(1, 3))):
            cx = g.uniform(*x_range)
            cy = g.uniform(*y_range)
            sigma = g.uniform(1.2, 2.2)
            r2 = (xs - cx) ** 2 + (ys - cy) ** 2
            imgs[i] += np.exp(-r2 / (2.0 * sigma * sigma))
        np.clip(imgs[i], 0.0, 1.0, out=imgs[i])
    return imgs


def _gen_checkers(g: np.random.Generator, n: int, width: int, height: int) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width]
    imgs = np.empty((n, height, width))
    for i in range(n):
        cell = int(g.integers(2, 5))
        px = int(g.integers(cell))
        py = int(g.integers(cell))
        board = (((xs + px) // cell) + ((ys + py) // cell)) % 2
        if g.integers(2) == 1:
            board = 1 - board
        imgs[i] = board
    return imgs.astype(np.float64)


def _gen_rings(g: np.random.Generator, n: int, width: int, height: int) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width]
    imgs = np.empty((n, height, width))
    half_w = (width - 1) / 2.0
    half_h = (height - 1) / 2.0
    for i in range(n):
        cx = half_w + g.uniform(-1.5, 1.5)
        cy = half_h + g.uniform(-1.5, 1.5)
        radius = g.uniform(0.2 * min(width, height), 0.38 * min(width, height))
        dist = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
        imgs[i] = np.exp(-((dist - radius) ** 2) / (2.0 * 0.6**2))
    return imgs


_GENERATORS = {
    "bars": _gen_bars,
    "blobs": _gen_blobs,
    "checkers": _gen_checkers,
    "rings": _gen_rings,
}


def synth_generate(family: str, n: int, width: int = 12, height: int = 12, seed: int = 0) -> Dataset:
    """Draw ``n`` images from a synthetic family; deterministic in the seed."""
    if family not in _GENERATORS:
        raise DataFormatError(f"unknown family {family!r}; choose from {SYNTH_FAMILIES}")
    if n < 1:
        raise DataFormatError(f"n must be >= 1, got {n}")
    g = rng_mod.stream(seed, f"synth/{family}")
    imgs = _GENERATORS[family](g, n, width, height).reshape(n, width * height)
    return Dataset(imgs, None, {"name": family, "width": width, "height": height})


def inverse_domain(dataset: Dataset) -> Dataset:
    """Pixel-wise 1 - x; an easy way to manufacture a related-but-shifted domain."""
    meta = dict(dataset.meta)
    meta["name"] = dataset.name + "-inv"
    return Dataset(1.0 - dataset.images, dataset.labels, meta)


def binarize(dataset: Dataset, mode: str = "threshold_0.5", seed: int = 0) -> Dataset:
    """Map values to exactly {0, 1} by threshold or per-pixel Bernoulli draw."""
    if mode == "threshold_0.5":
        imgs = (dataset.images >= 0.5).astype(np.float64)
    elif mode == "stochastic":
        g = rng_mod.stream(seed, f"binarize/{dataset.name}")
        imgs = (g.random(dataset.images.shape) < dataset.images).astype(np.float64)
    else:
        raise DataFormatError(f"unknown binarize mode {mode!r}")
    meta = dict(dataset.meta)
    meta["binarized"] = mode
    return Dataset(imgs, dataset.labels, meta)


# ---------------------------------------------------------------------------
# Task streams


def make_split_stream(train: Dataset, test: Dataset, groups) -> TaskStream:
    """One task per label group, e.g. groups=[{0,1},{2,3},...] for split digits."""
    if train.labels is None or test.labels is None:
        raise DataFormatError("split streams need labeled train and test datasets")
    groups = [frozenset(int(v) for v in group) for group in groups]
    seen: set[int] = set()
    for group in groups:
        if group & seen:
            raise DataFormatError(f"groups overlap on labels {sorted(group & seen)}")
        seen |= group
    all_labels = set(np.unique(train.labels).tolist()) | set(np.unique(test.labels).tolist())
    missing = all_labels - seen
    if missing:
        raise DataFormatError(f"groups do not cover labels {sorted(missing)}")

    tasks = []
    for i, group in enumerate(groups, start=1):
        tr_idx = np.isin(train.labels, list(group))
        te_idx = np.isin(test.labels, list(group))
        for split, idx in (("train", tr_idx), ("test", te_idx)):
            if not idx.any():
                raise DataFormatError(f"label group {sorted(group)} selects no {split} example")
        tasks.append(Task(i, train.subset(tr_idx), test.subset(te_idx)))
    return TaskStream(tasks, kind="split")


def check_task_specs(specs) -> None:
    """A cross-domain stream's specs: at least 2, each a ``SYNTH_FAMILIES`` name with
    an optional ``-inv`` or a dict with ``idx_images``; else ``DataFormatError``."""
    if len(specs) < 2:
        raise DataFormatError("a cross-domain stream needs at least 2 task specs")
    for spec in specs:
        if isinstance(spec, str):
            family = spec.removesuffix("-inv")
            if family not in SYNTH_FAMILIES:
                raise DataFormatError(f"unknown family {family!r}; choose from {SYNTH_FAMILIES}")
        elif not (isinstance(spec, dict) and "idx_images" in spec):
            raise DataFormatError(f"bad task spec {spec!r}")


def make_cross_domain_stream(
    specs,
    n_train: int = 2000,
    n_test: int = 500,
    width: int = 12,
    height: int = 12,
    seed: int = 0,
    binarize_mode: str | None = None,
) -> TaskStream:
    """Build an ordered heterogeneous stream from family names or IDX file specs.

    Family names take an optional ``-inv`` suffix (inverse domain). Train and
    test samples come from one generator draw split disjointly. A dict spec
    ``{"idx_images": path, "idx_labels": path?}`` ingests user-supplied files.
    """
    specs = list(specs)
    check_task_specs(specs)
    tasks = []
    for i, spec in enumerate(specs, start=1):
        if isinstance(spec, str):
            full = synth_generate(
                spec.removesuffix("-inv"), n_train + n_test, width, height,
                seed=rng_mod.derive_seed(seed, f"task{i}/{spec}"),
            )
            if spec.endswith("-inv"):
                full = inverse_domain(full)
            train = full.subset(slice(0, n_train))
            test = full.subset(slice(n_train, n_train + n_test))
            name = spec
        else:  # a dict with idx_images
            full = load_idx(spec["idx_images"], spec.get("idx_labels"))
            if len(full) < n_train + n_test:
                raise DataFormatError(
                    f"IDX task {i} has {len(full)} items, needs {n_train + n_test}"
                )
            train = full.subset(slice(0, n_train))
            test = full.subset(slice(n_train, n_train + n_test))
            name = full.name
        if binarize_mode and binarize_mode != "none":
            train = binarize(train, binarize_mode, seed=rng_mod.derive_seed(seed, f"bin/{i}/train"))
            test = binarize(test, binarize_mode, seed=rng_mod.derive_seed(seed, f"bin/{i}/test"))
        for part in (train, test):
            part.meta["name"] = name
        tasks.append(Task(i, train, test))
    return TaskStream(tasks, kind="cross_domain")


# ---------------------------------------------------------------------------
# IDX ingestion

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as err:
        raise DataFormatError(f"{path}: {err.strerror}") from err


def _read_u32(buf: bytes, offset: int, path: str) -> tuple[int, int]:
    if offset + 4 > len(buf):
        raise IdxTruncatedError(f"{path}: header truncated at byte {offset}")
    return struct.unpack_from(">I", buf, offset)[0], offset + 4


def _payload(buf: bytes, offset: int, expected: int, path: str) -> np.ndarray:
    """The header's ``expected`` payload bytes, which must end the file."""
    got = len(buf) - offset
    if got < expected:
        raise IdxTruncatedError(f"{path}: payload has {got} bytes, expected {expected}")
    if got > expected:
        raise IdxTrailingBytesError(f"{path}: {got - expected} bytes after the {expected}-byte payload")
    return np.frombuffer(buf, dtype=np.uint8, offset=offset)


def load_idx(images_path, labels_path=None) -> Dataset:
    """Parse big-endian IDX image (and optional label) files into a Dataset.

    Pixels are scaled to [0, 1] by dividing by 255. A file must end where its
    header says the payload ends. A file that cannot be read is a data error.
    """
    buf = _read_bytes(images_path)
    magic, off = _read_u32(buf, 0, str(images_path))
    if magic != _IDX_IMAGE_MAGIC:
        raise IdxMagicError(
            f"{images_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_IMAGE_MAGIC:08x}"
        )
    count, off = _read_u32(buf, off, str(images_path))
    rows, off = _read_u32(buf, off, str(images_path))
    cols, off = _read_u32(buf, off, str(images_path))
    pixels = _payload(buf, off, count * rows * cols, str(images_path)).astype(np.float64) / 255.0
    images = pixels.reshape(count, rows * cols)

    labels = None
    if labels_path is not None:
        lbuf = _read_bytes(labels_path)
        lmagic, loff = _read_u32(lbuf, 0, str(labels_path))
        if lmagic != _IDX_LABEL_MAGIC:
            raise IdxMagicError(
                f"{labels_path}: bad magic 0x{lmagic:08x}, expected 0x{_IDX_LABEL_MAGIC:08x}"
            )
        lcount, loff = _read_u32(lbuf, loff, str(labels_path))
        if lcount != count:
            raise IdxCountMismatchError(
                f"{labels_path}: {lcount} labels for {count} images"
            )
        labels = _payload(lbuf, loff, lcount, str(labels_path)).astype(np.int64)

    name = os.path.basename(str(images_path))
    return Dataset(images, labels, {"name": name, "width": cols, "height": rows})
