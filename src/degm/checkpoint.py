"""Versioned binary containers for trained models.

Graph container (magic ``DEGM``, version 1):

    header:  magic 4s | version u32 | node_count u32
    arch:    data_dim u32 | inter_dim u32 | latent_dim u32 | feat_dim u32
             | activation u8 | likelihood u8 | normalize u8
    node*:   kind u8 (0 basic, 1 specific) | id u32 (node i learned task i)
             | basic: best_elbo f64
             | specific: K u32 | pi f64[K]
             | sub-model count u32, then per sub-model of ``sub_models()``:
                 layer_count u32, per layer: fan_in u32 | fan_out u32
                 | activation u8 | W f64[fan_in*fan_out] | b f64[fan_out]
    tail:    adjacency V, t*t f64 row-major

Single-model container (magic ``SVAE``, version 1):

    header:  magic 4s | version u32 | data_dim u32 | latent_dim u32
             | likelihood u8 | normalize u8
    body:    the VAE's ``sub_models()`` (trunk, mu head, logvar head,
             decoder), each in the sub-model encoding above

All integers and floats are little-endian; float payloads are raw f64.

Loading accepts a container only if every enum byte names a known value,
every layer width fits the stored geometry, node ids run 1..t in file order,
each Specific node's K equals the number of Basic nodes before it (its
parents), the stored V equals the V those nodes' pi give, and no byte follows
the last field. Anything else raises CheckpointError.
"""

from __future__ import annotations

import struct

import numpy as np

from .graph import ArchSpec, BasicNode, GraphState, SpecificNode
from .nn import ACTIVATIONS, ContractError, InvalidSpecError, Mlp, Tensor
from .vae import LIKELIHOODS, VaeModel

GRAPH_MAGIC = b"DEGM"
MODEL_MAGIC = b"SVAE"
FORMAT_VERSION = 1
NODE_KINDS = ("basic", "specific")


class CheckpointError(ValueError):
    """Container is malformed or truncated."""


class _Writer:
    def __init__(self):
        self.chunks: list[bytes] = []

    def u8(self, v: int):
        self.chunks.append(struct.pack("<B", v))

    def u32(self, v: int):
        self.chunks.append(struct.pack("<I", v))

    def f64(self, v: float):
        self.chunks.append(struct.pack("<d", float(v)))

    def f64_array(self, arr: np.ndarray):
        self.chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    def bytes(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.off = 0
        self.path = path

    def fail(self, message: str):
        raise CheckpointError(f"{self.path}: {message}")

    def _take(self, count: int) -> bytes:
        if self.off + count > len(self.buf):
            self.fail(f"truncated at byte {self.off}")
        out = self.buf[self.off : self.off + count]
        self.off += count
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def f64_array(self, count: int) -> np.ndarray:
        raw = self._take(count * 8)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def choice(self, names: tuple, what: str):
        """A u8 that indexes ``names``; any other byte is an error."""
        code = self.u8()
        if code >= len(names):
            self.fail(f"{what} byte {code} at byte {self.off - 1} is not one of {list(names)}")
        return names[code]


def _open(path):
    try:
        return open(path, "rb")
    except OSError as err:
        raise CheckpointError(f"{path}: {err.strerror}") from err


def _load(path, magic: bytes, parse):
    """Check magic and version, parse the body with ``parse(reader)`` and
    require the buffer to end where the body does. Every fault, including an
    invalid spec the fields describe, comes back as CheckpointError."""
    with _open(path) as f:
        r = _Reader(f.read(), str(path))
    found = r._take(4)
    if found != magic:
        r.fail(f"bad magic {found!r}, expected {magic!r}")
    version = r.u32()
    if version != FORMAT_VERSION:
        r.fail(f"unsupported format version {version}")
    try:
        out = parse(r)
    except (InvalidSpecError, ContractError) as err:
        raise CheckpointError(f"{r.path}: {err}") from err
    if r.off != len(r.buf):
        r.fail(f"{len(r.buf) - r.off} bytes after the last field")
    return out


def _write_mlp(w: _Writer, mlp: Mlp) -> None:
    w.u32(len(mlp.weights))
    for weight, bias, act in zip(mlp.weights, mlp.biases, mlp.activations):
        fan_in, fan_out = weight.shape
        w.u32(fan_in)
        w.u32(fan_out)
        w.u8(ACTIVATIONS.index(act))
        w.f64_array(weight.data)
        w.f64_array(bias.data)


def _read_mlp(r: _Reader, requires_grad: bool = False) -> Mlp:
    n_layers = r.u32()
    if n_layers == 0:
        r.fail("sub-model without layers")
    weights, biases, acts = [], [], []
    for _ in range(n_layers):
        fan_in = r.u32()
        fan_out = r.u32()
        if weights and fan_in != weights[-1].shape[1]:
            r.fail(f"layer input width {fan_in} != previous output width {weights[-1].shape[1]}")
        act = r.choice(ACTIVATIONS, "activation")
        w = r.f64_array(fan_in * fan_out).reshape(fan_in, fan_out)
        b = r.f64_array(fan_out)
        weights.append(Tensor(w, requires_grad=requires_grad))
        biases.append(Tensor(b, requires_grad=requires_grad))
        acts.append(act)
    return Mlp(weights, biases, tuple(acts))


def _widths(mlp: Mlp) -> tuple[int, ...]:
    return (mlp.in_width, *(w.shape[1] for w in mlp.weights))


def _write_arch(w: _Writer, arch: ArchSpec) -> None:
    w.u32(arch.data_dim)
    w.u32(arch.inter_dim)
    w.u32(arch.latent_dim)
    w.u32(arch.feat_dim)
    w.u8(ACTIVATIONS.index(arch.hidden_activation))
    w.u8(LIKELIHOODS.index(arch.likelihood))
    w.u8(1 if arch.normalize_recon else 0)


def _read_arch(r: _Reader) -> ArchSpec:
    return ArchSpec(
        data_dim=r.u32(),
        inter_dim=r.u32(),
        latent_dim=r.u32(),
        feat_dim=r.u32(),
        hidden_activation=r.choice(ACTIVATIONS, "activation"),
        likelihood=r.choice(LIKELIHOODS, "likelihood"),
        normalize_recon=r.choice((False, True), "normalize flag"),
    )


def _read_sub_models(r: _Reader, arch: ArchSpec, names: tuple[str, ...]) -> list[Mlp]:
    """A node's sub-models, each checked against the geometry the arch gives it."""
    count = r.u32()
    if count != len(names):
        r.fail(f"node carries {count} sub-models, expected {len(names)}")
    nets = []
    for name in names:
        mlp = _read_mlp(r)
        spec = arch.sub_model_spec(name, seed=0)
        if (_widths(mlp), mlp.activations) != (spec.layer_widths, spec.activations):
            r.fail(
                f"sub-model {name} has widths {_widths(mlp)} and activations "
                f"{mlp.activations}; the arch needs {spec.layer_widths} and {spec.activations}"
            )
        nets.append(mlp)
    return nets


def save_graph(path, graph: GraphState) -> None:
    w = _Writer()
    w.chunks.append(GRAPH_MAGIC)
    w.u32(FORMAT_VERSION)
    w.u32(len(graph.nodes))
    _write_arch(w, graph.arch)
    for node in graph.nodes:
        w.u8(0 if isinstance(node, BasicNode) else 1)
        w.u32(node.id)
        if isinstance(node, BasicNode):
            w.f64(node.best_elbo if node.best_elbo is not None else float("nan"))
        else:
            w.u32(len(node.pi))
            w.f64_array(node.pi)
        subs = node.sub_models()
        w.u32(len(subs))
        for mlp in subs:
            _write_mlp(w, mlp)
    w.f64_array(graph.adjacency)
    with open(path, "wb") as f:
        f.write(w.bytes())


def _parse_graph(r: _Reader) -> GraphState:
    node_count = r.u32()
    arch = _read_arch(r)
    graph = GraphState(arch=arch)
    for expected_id in range(1, node_count + 1):
        kind = r.choice(NODE_KINDS, "node kind")
        node_id = r.u32()
        if node_id != expected_id:
            r.fail(f"node {expected_id} in file order carries id {node_id}")
        if kind == "basic":
            best = r.f64()
            node = BasicNode.on_arch(node_id, arch, nets=_read_sub_models(r, arch, BasicNode.SUB_MODELS))
            node.best_elbo = None if np.isnan(best) else best
        else:
            pi = r.f64_array(r.u32())
            # wired to every Basic node read so far, as build_specific_node does
            nets = _read_sub_models(r, arch, SpecificNode.SUB_MODELS)
            node = SpecificNode(node_id, arch, pi, graph.basic_nodes, nets=nets)
        node.freeze()
        graph.nodes.append(node)
    stored = r.f64_array(node_count * node_count).reshape(node_count, node_count)
    if not np.array_equal(stored, graph.adjacency):
        r.fail("stored adjacency V differs from the one the Specific nodes' pi and parents give")
    return graph


def load_graph(path) -> GraphState:
    return _load(path, GRAPH_MAGIC, _parse_graph)


def save_model(path, model: VaeModel) -> None:
    w = _Writer()
    w.chunks.append(MODEL_MAGIC)
    w.u32(FORMAT_VERSION)
    w.u32(model.data_dim)
    w.u32(model.latent_dim)
    w.u8(LIKELIHOODS.index(model.likelihood))
    w.u8(1 if model.normalize_recon else 0)
    for mlp in model.sub_models():
        _write_mlp(w, mlp)
    with open(path, "wb") as f:
        f.write(w.bytes())


def load_model(path, requires_grad: bool = False) -> VaeModel:
    def parse(r: _Reader) -> VaeModel:
        data_dim = r.u32()
        latent_dim = r.u32()
        likelihood = r.choice(LIKELIHOODS, "likelihood")
        normalize = r.choice((False, True), "normalize flag")
        trunk, mu_head, logvar_head, decoder = (_read_mlp(r, requires_grad) for _ in range(4))
        if trunk.in_width != data_dim or decoder.out_width != data_dim:
            r.fail(f"trunk input or decoder output width differs from data_dim {data_dim}")
        if mu_head.in_width != trunk.out_width or logvar_head.in_width != trunk.out_width:
            r.fail(f"head input widths differ from the trunk's output width {trunk.out_width}")
        return VaeModel(trunk, mu_head, logvar_head, (decoder,), latent_dim, likelihood, normalize)

    return _load(path, MODEL_MAGIC, parse)


def sniff_kind(path) -> str:
    """Return 'graph' or 'model' by magic; raise CheckpointError otherwise."""
    with _open(path) as f:
        magic = f.read(4)
    if magic == GRAPH_MAGIC:
        return "graph"
    if magic == MODEL_MAGIC:
        return "model"
    raise CheckpointError(f"{path}: bad magic {magic!r}")
