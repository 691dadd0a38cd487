"""Dense float64 tensors with reverse-mode autodiff, small MLPs, and Adam.

Everything is 64-bit and evaluated in a fixed documented order: a forward
pass walks layers first-to-last, ``backward`` walks the recorded graph in
reverse topological order, and the optimizer updates parameters in the
order ``parameters()`` returns them. Identical seeds therefore give
bitwise-identical trajectories.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class InvalidSpecError(ValueError):
    """A network or optimizer specification is malformed."""


class ContractError(RuntimeError):
    """An operation was called outside its contract (bad tape state, missing grads)."""


class _GradMode(threading.local):
    """Graph recording switch, one per thread; every thread starts recording."""

    enabled = True


_grad_mode = _GradMode()


def grad_enabled() -> bool:
    """Whether operations on this thread record the graph."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph recording on this thread inside the block (pure evaluation)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array with an optional gradient slot.

    Operations on tensors record a computation graph while grad mode is
    enabled; ``backward`` on a scalar result fills ``grad`` on every
    reachable tensor with ``requires_grad`` and then frees the graph.
    Data is always C-contiguous (row-major).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction --------------------------------------------
    @staticmethod
    def _from_op(data, parents, grad_fn) -> "Tensor":
        out = Tensor(data)
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._grad_fn = grad_fn
        return out

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def grad_fn(g):
            return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

        return Tensor._from_op(a.data + b.data, (a, b), grad_fn)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def grad_fn(g):
            return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

        return Tensor._from_op(a.data - b.data, (a, b), grad_fn)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def grad_fn(g):
            return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(a.data * b.data, (a, b), grad_fn)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        a = self

        def grad_fn(g):
            return (-g,)

        return Tensor._from_op(-a.data, (a,), grad_fn)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")

        def grad_fn(g):
            return (g @ b.data.T, a.data.T @ g)

        return Tensor._from_op(a.data @ b.data, (a, b), grad_fn)

    # -- elementwise functions -------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def grad_fn(g):
            return (g * out_data,)

        return Tensor._from_op(out_data, (a,), grad_fn)

    def log(self) -> "Tensor":
        a = self

        def grad_fn(g):
            return (g / a.data,)

        return Tensor._from_op(np.log(a.data), (a,), grad_fn)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def grad_fn(g):
            return (g * (1.0 - out_data * out_data),)

        return Tensor._from_op(out_data, (a,), grad_fn)

    # -- reductions and shape --------------------------------------------
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self

        def grad_fn(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp, a.shape).copy(),)

        return Tensor._from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), grad_fn)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        count = a.size if axis is None else a.shape[axis]

        def grad_fn(g):
            if axis is None:
                return (np.broadcast_to(g / count, a.shape).copy(),)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp / count, a.shape).copy(),)

        return Tensor._from_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), grad_fn)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old_shape = a.shape

        def grad_fn(g):
            return (g.reshape(old_shape),)

        return Tensor._from_op(a.data.reshape(shape), (a,), grad_fn)


def as_tensor(value) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def backward(scalar_loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Fills ``grad`` (accumulating) on every tensor with ``requires_grad``
    reachable from the loss, then clears the recorded graph.
    """
    if scalar_loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {scalar_loss.shape}")
    if not scalar_loss.requires_grad:
        raise ContractError("loss is not connected to any tensor requiring gradients")

    # Iterative post-order; graphs can be deep for many-sample objectives.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(scalar_loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))

    scalar_loss.grad = np.ones_like(scalar_loss.data)
    for node in reversed(topo):
        grad_fn = node._grad_fn
        if grad_fn is None:
            continue
        grads = grad_fn(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            # Accumulation allocates; gradient arrays are never mutated in place.
            parent.grad = g if parent.grad is None else parent.grad + g
        node._parents = ()
        node._grad_fn = None


# ---------------------------------------------------------------------------
# MLPs


ACTIVATIONS = ("tanh", "relu", "sigmoid", "identity")

def _sigmoid_inplace(h: np.ndarray) -> None:
    # the four ufuncs of 1.0 / (1.0 + np.exp(-h)), in that order
    np.negative(h, out=h)
    np.exp(h, out=h)
    np.add(1.0, h, out=h)
    np.divide(1.0, h, out=h)


# Activations, applied in place to the layer's freshly allocated
# pre-activation: the same ufuncs in the same order as the out-of-place
# expressions, so the bits are unchanged and no block-sized temporary is
# allocated.
_ACT_FNS_INPLACE = {
    "tanh": lambda h: np.tanh(h, out=h),
    "relu": lambda h: np.maximum(h, 0.0, out=h),
    "sigmoid": _sigmoid_inplace,
    "identity": lambda h: None,
}

# Gradient with respect to a layer's pre-activation, from the gradient ``g``
# with respect to its output ``y``.
_ACT_GRADS = {
    "tanh": lambda g, y: g * (1.0 - y * y),
    "relu": lambda g, y: g * (y > 0.0),
    "sigmoid": lambda g, y: g * y * (1.0 - y),
    "identity": lambda g, y: g,
}


@dataclass(frozen=True)
class MlpSpec:
    """Widths, per-layer activations, and the init seed of a dense network."""

    layer_widths: tuple[int, ...]
    activations: tuple[str, ...]
    seed: int

    def __post_init__(self):
        if not all(isinstance(w, (int, np.integer)) for w in self.layer_widths):
            raise InvalidSpecError(f"layer widths must be integers, got {self.layer_widths!r}")
        widths = tuple(int(w) for w in self.layer_widths)
        acts = tuple(str(a) for a in self.activations)
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "activations", acts)
        if len(widths) < 2:
            raise InvalidSpecError("need at least input and output widths")
        if any(w <= 0 for w in widths):
            raise InvalidSpecError(f"layer widths must be positive, got {widths}")
        if len(acts) != len(widths) - 1:
            raise InvalidSpecError(
                f"need one activation per layer: {len(widths) - 1} layers, {len(acts)} activations"
            )
        for a in acts:
            if a not in ACTIVATIONS:
                raise InvalidSpecError(f"unknown activation {a!r}")

    @classmethod
    def make(cls, widths, hidden: str = "tanh", output: str = "identity", seed: int = 0) -> "MlpSpec":
        widths = tuple(widths)
        acts = (hidden,) * (len(widths) - 2) + (output,)
        return cls(widths, acts, seed)


class Mlp:
    """A stack of affine layers with fixed per-layer activations."""

    def __init__(self, weights: list[Tensor], biases: list[Tensor], activations: tuple[str, ...]):
        self.weights = weights
        self.biases = biases
        self.activations = tuple(activations)

    @property
    def in_width(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_width(self) -> int:
        return self.weights[-1].shape[1]

    def parameters(self) -> list[Tensor]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def forward(self, x: Tensor) -> Tensor:
        """One tape op over every layer: ``forward_np`` computes the outputs,
        and the backward walks the kept layer outputs in reverse."""
        x = as_tensor(x)
        squeeze = x.ndim == 1
        if squeeze:
            x = x.reshape(1, x.shape[0])
        params = self.parameters()
        if not (_grad_mode.enabled and (x.requires_grad or any(p.requires_grad for p in params))):
            out = Tensor(self.forward_np(x.data))
        else:
            if x.ndim != 2:
                raise ShapeError(f"a recorded forward needs an (n, d) input, got {x.shape}")
            outputs: list[np.ndarray] = []
            self.forward_np(x.data, outputs)

            def grad_fn(g):
                grads = [None] * len(params)
                for i in reversed(range(len(self.weights))):
                    g = _ACT_GRADS[self.activations[i]](g, outputs[i])
                    w, b = self.weights[i], self.biases[i]
                    inp = outputs[i - 1] if i else x.data
                    if w.requires_grad:
                        grads[2 * i] = inp.T @ g
                    if b.requires_grad:
                        grads[2 * i + 1] = g.sum(axis=0)
                    g = g @ w.data.T if i or x.requires_grad else None
                return (g, *grads)

            out = Tensor._from_op(outputs[-1], (x, *params), grad_fn)
        if squeeze:
            out = out.reshape(out.shape[1])
        return out

    def forward_np(self, x: np.ndarray, outputs: list | None = None) -> np.ndarray:
        """The layer arithmetic, on plain arrays; ``outputs`` (a list) receives
        each layer's output in order."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_width:
            raise ShapeError(f"input extent {x.shape[-1]} != first layer width {self.in_width}")
        for w, b, act in zip(self.weights, self.biases, self.activations):
            h = x @ w.data
            h += b.data
            _ACT_FNS_INPLACE[act](h)
            if outputs is not None:
                outputs.append(h)
            x = h
        return x

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = bool(flag)
            if not flag:
                p.grad = None

    def copy(self, requires_grad: bool | None = None) -> "Mlp":
        weights, biases = [], []
        for w, b in zip(self.weights, self.biases):
            rw = w.requires_grad if requires_grad is None else requires_grad
            rb = b.requires_grad if requires_grad is None else requires_grad
            weights.append(Tensor(w.data.copy(), requires_grad=rw))
            biases.append(Tensor(b.data.copy(), requires_grad=rb))
        return Mlp(weights, biases, self.activations)

    def param_bytes(self) -> bytes:
        """Concatenated little-endian float64 payload, fixed layer order."""
        chunks = []
        for w, b in zip(self.weights, self.biases):
            chunks.append(np.ascontiguousarray(w.data, dtype="<f8").tobytes())
            chunks.append(np.ascontiguousarray(b.data, dtype="<f8").tobytes())
        return b"".join(chunks)


def build_mlp(spec: MlpSpec) -> Mlp:
    """Initialize an MLP: weights uniform in [-s, s] with s = sqrt(6/(fan_in+fan_out)),
    biases zero. Deterministic in ``spec.seed``."""
    if not isinstance(spec, MlpSpec):
        spec = MlpSpec(*spec)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(spec.layer_widths[:-1], spec.layer_widths[1:])):
        scale = math.sqrt(6.0 / (fan_in + fan_out))
        g = rng_mod.stream(spec.seed, f"mlp-init/layer{i}")
        w = g.uniform(-scale, scale, size=(fan_in, fan_out))
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return Mlp(weights, biases, spec.activations)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class OptimizerState:
    """Bias-corrected adaptive-moment state for a fixed parameter list."""

    step_count: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    hyper: dict


def init_adam(
    params: list[Tensor],
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> OptimizerState:
    if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
        raise InvalidSpecError(f"betas must lie in (0, 1), got {beta1}, {beta2}")
    if epsilon <= 0.0:
        raise InvalidSpecError(f"epsilon must be positive, got {epsilon}")
    if learning_rate <= 0.0:
        raise InvalidSpecError(f"learning rate must be positive, got {learning_rate}")
    return OptimizerState(
        step_count=0,
        first_moment=[np.zeros_like(p.data) for p in params],
        second_moment=[np.zeros_like(p.data) for p in params],
        hyper={"learning_rate": learning_rate, "beta1": beta1, "beta2": beta2, "epsilon": epsilon},
    )


def adam_step(params: list[Tensor], state: OptimizerState) -> None:
    """One in-place update; parameters are visited in list order."""
    if len(params) != len(state.first_moment):
        raise ContractError(
            f"state tracks {len(state.first_moment)} parameters, got {len(params)}"
        )
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(f"parameter {i} has no gradient; run backward first")
    lr = state.hyper["learning_rate"]
    b1 = state.hyper["beta1"]
    b2 = state.hyper["beta2"]
    eps = state.hyper["epsilon"]
    t = state.step_count + 1
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for i, p in enumerate(params):
        g = p.grad
        m = state.first_moment[i]
        v = state.second_moment[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    state.step_count = t


def zero_grad(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None
