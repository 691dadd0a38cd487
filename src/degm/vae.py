"""VAE assembly and likelihood objectives.

The evidence lower bound here is the usual one: expected reconstruction
log-likelihood under the approximate posterior minus the analytic KL to
the unit Gaussian prior. The importance-weighted bound tightens it with
K' weighted samples; with K' = 1 the two coincide and this module makes
that identity exact by sharing the single-sample code path.

A model is tape ``encode``/``decode``, ``latent(x, eps)`` (the latent under
noise ``eps`` and its per-example KL to the prior) and ``latent_dim``,
``data_dim``, ``likelihood``, ``normalize_recon``. ``VaeModel`` is the one
VAE: a replay model, and the graph's Basic node, which adds an id and its
best bound. These functions train and score any model, the graph's nodes
too (a Specific node's ``latent`` makes its bound the mixture bound).
Evaluation runs the training code under ``no_grad``: one forward pass per
model, one likelihood kernel (``recon_loglik_np``, which the tape op
``_recon_loglik_pe`` wraps) and one per-example implementation of each
bound (``_elbo_pe`` for the single-sample bound, ``_log_w`` for the
importance weights, in cache-sized K' slabs that one tape op joins).
``iwelbo`` (the training bound) and ``iw_logpx_np`` (the NLL estimate)
reduce ``_log_w`` with one ``_log_mean_exp``, so on up to ``IW_BATCH``
examples the bound is the mean of the estimates under the same noise by
construction. The single-sample bound's reductions differ: training averages
the terms separately, scoring (``elbo``) averages the per-example bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rng_mod
from .nn import (
    InvalidSpecError,
    Mlp,
    MlpSpec,
    ShapeError,
    Tensor,
    as_tensor,
    build_mlp,
    concat_rows,
    no_grad,
)

LIKELIHOODS = ("bernoulli", "gaussian_half", "gaussian_identity")

# Keeps |log p| and |log(1-p)| below ~16.2 for saturated outputs.
BERNOULLI_CLAMP = 1e-7

_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


class DomainError(ValueError):
    """Input values violate the likelihood's support."""


@dataclass
class ElboEstimate:
    """A single-sample bound estimate in nats, with its decomposition."""

    total: float
    recon_term: float
    kl_term: float


class SubModels:
    """What every model made of ``sub_models()`` shares: their parameters in
    order, those parameters' bytes, and freezing them."""

    def parameters(self) -> list[Tensor]:
        return [p for net in self.sub_models() for p in net.parameters()]

    def param_bytes(self) -> bytes:
        return b"".join(net.param_bytes() for net in self.sub_models())

    def freeze(self) -> None:
        for net in self.sub_models():
            net.set_requires_grad(False)


@dataclass(eq=False)
class VaeModel(SubModels):
    """Encoder trunk, Gaussian heads, and a decoder chain: the networks of
    ``decoder`` applied in order (one for a replay model)."""

    trunk: Mlp
    mu_head: Mlp
    logvar_head: Mlp
    decoder: tuple[Mlp, ...]
    latent_dim: int
    likelihood: str
    normalize_recon: bool = False

    def __post_init__(self):
        if self.likelihood not in LIKELIHOODS:
            raise InvalidSpecError(f"unknown likelihood {self.likelihood!r}")
        if self.mu_head.out_width != self.latent_dim or self.logvar_head.out_width != self.latent_dim:
            raise InvalidSpecError("head output extents must equal latent_dim")
        if self.decoder[0].in_width != self.latent_dim:
            raise InvalidSpecError("decoder input extent must equal latent_dim")

    @property
    def data_dim(self) -> int:
        return self.trunk.in_width

    def sub_models(self) -> list[Mlp]:
        return [self.trunk, self.mu_head, self.logvar_head, *self.decoder]

    def encode(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h = self.trunk.forward(x)
        return self.mu_head.forward(h), self.logvar_head.forward(h)

    def decode(self, z: Tensor) -> Tensor:
        for net in self.decoder:
            z = net.forward(z)
        return z

    def latent(self, x: Tensor, eps) -> tuple[Tensor, Tensor]:
        """(z, per-example KL to the prior) of the encoding of ``x`` under noise ``eps``."""
        return _latent_and_kl(*self.encode(x), eps)

    def copy(self, requires_grad: bool | None = None) -> "VaeModel":
        trunk, mu_head, logvar_head, *decoder = (net.copy(requires_grad) for net in self.sub_models())
        return replace(self, trunk=trunk, mu_head=mu_head, logvar_head=logvar_head, decoder=tuple(decoder))


def vae_specs(
    data_dim: int = 144,
    latent_dim: int = 16,
    trunk_widths=(128,),
    decoder_widths=(128,),
    likelihood: str = "bernoulli",
    hidden_activation: str = "tanh",
    seed: int = 0,
) -> tuple[MlpSpec, MlpSpec, MlpSpec, MlpSpec]:
    """Trunk, mu head, logvar head and decoder geometry of ``build_vae``, each
    with its own init stream; builds no weights. Raises ``InvalidSpecError``."""
    if likelihood not in LIKELIHOODS:
        raise InvalidSpecError(f"unknown likelihood {likelihood!r}")
    out_act = "sigmoid" if likelihood == "bernoulli" else "identity"
    seeds = {name: rng_mod.derive_seed(seed, f"vae/{name}") for name in ("trunk", "mu", "logvar", "decoder")}
    trunk = MlpSpec.make((data_dim, *trunk_widths), hidden_activation, hidden_activation, seeds["trunk"])
    head = (trunk.layer_widths[-1], latent_dim)
    return (
        trunk,
        MlpSpec(head, ("identity",), seeds["mu"]),
        MlpSpec(head, ("identity",), seeds["logvar"]),
        MlpSpec.make((latent_dim, *decoder_widths, data_dim), hidden_activation, out_act, seeds["decoder"]),
    )


def build_vae(
    data_dim: int = 144,
    latent_dim: int = 16,
    trunk_widths=(128,),
    decoder_widths=(128,),
    likelihood: str = "bernoulli",
    hidden_activation: str = "tanh",
    normalize_recon: bool = False,
    seed: int = 0,
) -> VaeModel:
    """Assemble the desk-scale VAE from ``vae_specs``."""
    specs = vae_specs(data_dim, latent_dim, trunk_widths, decoder_widths, likelihood, hidden_activation, seed)
    trunk, mu_head, logvar_head, decoder = (build_mlp(spec) for spec in specs)
    return VaeModel(trunk, mu_head, logvar_head, (decoder,), latent_dim, likelihood, normalize_recon)


# ---------------------------------------------------------------------------
# Core distributional pieces


def reparameterize(mu: Tensor, logvar: Tensor, noise) -> Tensor:
    """z = mu + exp(logvar/2) * noise, differentiable through mu and logvar.

    ``noise`` has the shape of ``mu``, or one leading axis more for K'
    samples per example."""
    mu = as_tensor(mu)
    logvar = as_tensor(logvar)
    noise = as_tensor(noise)
    if mu.shape != logvar.shape or noise.shape not in (mu.shape, noise.shape[:1] + mu.shape):
        raise ShapeError(
            f"mu {mu.shape}, logvar {logvar.shape}, noise {noise.shape} must match"
        )
    return mu + (logvar * 0.5).exp() * noise


def _latent_and_kl(mu, logvar, eps) -> tuple[Tensor, Tensor]:
    """The one Gaussian latent: ``reparameterize`` under ``eps`` and the
    per-example KL of N(mu, exp(logvar)) to the prior."""
    return reparameterize(mu, logvar, eps), _gaussian_kl_pe(mu, logvar)


def _promote_2d(t: Tensor) -> Tensor:
    return t.reshape(1, t.shape[0]) if t.ndim == 1 else t


def _gaussian_kl_pe(mu, logvar) -> Tensor:
    """Analytic KL(N(mu, exp(logvar)) || N(0, I)) per example, shape (n,)."""
    mu = _promote_2d(as_tensor(mu))
    logvar = _promote_2d(as_tensor(logvar))
    if mu.shape != logvar.shape:
        raise ShapeError(f"mu {mu.shape} and logvar {logvar.shape} must match")
    return (mu * mu + logvar.exp() - logvar - 1.0).sum(axis=1) * 0.5


def gaussian_kl(mu, logvar) -> Tensor:
    """Analytic KL(N(mu, exp(logvar)) || N(0, I)), per example then batch-averaged."""
    return _gaussian_kl_pe(mu, logvar).mean()


def _recon_loglik_pe(decoder_output, x, likelihood: str, normalize: bool) -> Tensor:
    """Per-example reconstruction log-likelihood as one tape op.

    The forward is ``recon_loglik_np`` (``x`` broadcasts against the decoder
    output); the backward is its closed-form gradient with respect to the
    decoder output, with the ufuncs in the order a tape composed of the
    elementwise ops would apply them. The data gets no gradient.
    """
    y = as_tensor(decoder_output)
    x = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    try:
        shape = np.broadcast_shapes(y.shape, x.shape)
    except ValueError:
        shape = None
    if shape != y.shape:
        raise ShapeError(f"data {x.shape} does not broadcast to decoder output {y.shape}")
    d = x.shape[-1]

    def grad_fn(g):
        if normalize:
            g = g * (1.0 / d)
        if likelihood == "bernoulli":
            g = g[..., None]
            p = np.clip(y.data, BERNOULLI_CLAMP, 1.0 - BERNOULLI_CLAMP)
            inside = (y.data >= BERNOULLI_CLAMP) & (y.data <= 1.0 - BERNOULLI_CLAMP)
            return (((g * x) / p - (g * (1.0 - x)) / (1.0 - p)) * inside,)
        g = g * -0.5 if likelihood == "gaussian_identity" else -g
        t = g[..., None] * (x - y.data)
        return (-(t + t),)

    return Tensor._from_op(recon_loglik_np(y.data, x, likelihood, normalize), (y,), grad_fn)


def recon_loglik_np(
    y: np.ndarray, x: np.ndarray, likelihood: str, normalize: bool = False
) -> np.ndarray:
    """Per-example reconstruction log-likelihood over trailing axis; no tape.

    ``x`` and ``y`` broadcast against each other (evaluation passes data of
    shape (1, n, d) against K' decodings of shape (K', n, d)); neither is
    modified. The terms are computed in place in one or two arrays of the
    broadcast shape, with the ufuncs of x*log(p) + (1-x)*log1p(-p) and
    (x-y)*(x-y) in their usual order, so the bits match the plain expressions.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    if likelihood == "bernoulli":
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise DomainError("bernoulli likelihood needs data in [0, 1]")
        y = np.broadcast_to(y, np.broadcast_shapes(x.shape, y.shape))
        p = np.clip(y, BERNOULLI_CLAMP, 1.0 - BERNOULLI_CLAMP)
        terms = np.log(p)
        terms *= x
        np.negative(p, out=p)
        np.log1p(p, out=p)
        p *= 1.0 - x
        terms += p
        ll = terms.sum(axis=-1)
    elif likelihood == "gaussian_half":
        diff = x - y
        diff *= diff
        ll = -diff.sum(axis=-1) - (d / 2.0) * _LOG_PI
    elif likelihood == "gaussian_identity":
        diff = x - y
        diff *= diff
        ll = -0.5 * diff.sum(axis=-1) - (d / 2.0) * _LOG_2PI
    else:
        raise InvalidSpecError(f"unknown likelihood {likelihood!r}")
    if normalize:
        ll = ll / d
    return ll


# ---------------------------------------------------------------------------
# Bounds


def _noise_block(rng, k: int, n: int, latent: int, noise) -> np.ndarray:
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.ndim == 2:
            noise = noise[None]
        if noise.shape != (k, n, latent):
            raise ShapeError(f"noise shape {noise.shape} != {(k, n, latent)}")
        return noise
    if rng is None:
        rng = rng_mod.stream(0, "vae/default-noise")
    return rng.standard_normal((k, n, latent))


def _elbo_pe(model, batch, noise=None, rng=None) -> tuple[Tensor, Tensor]:
    """Per-example (recon, kl) of the single-sample bound, shape (n,) each."""
    x = as_tensor(batch)
    z, kl = model.latent(x, _noise_block(rng, 1, x.shape[0], model.latent_dim, noise)[0])
    return _recon_loglik_pe(model.decode(z), x, model.likelihood, model.normalize_recon), kl


def elbo_parts(model, batch, noise=None, rng=None) -> tuple[Tensor, Tensor]:
    """Differentiable batch-mean (recon, kl) pair; the bound is recon - kl."""
    recon, kl = _elbo_pe(model, batch, noise, rng)
    return recon.mean(), kl.mean()


def elbo(model, batch, noise=None, rng=None) -> ElboEstimate:
    """Single-model evidence lower bound estimate on a batch: the training
    bound's per-example terms, run under ``no_grad``. ``total`` is the mean
    of the per-example bounds recon - kl."""
    with no_grad():
        recon, kl = _elbo_pe(model, batch, noise, rng)
    recon, kl = recon.data, kl.data
    return ElboEstimate(float((recon - kl).mean()), float(recon.mean()), float(kl.mean()))


def _log_mean_exp(log_w: Tensor) -> Tensor:
    """log mean exp over the K' samples (axis 0), shifted by their constant max."""
    shift = log_w.data.max(axis=0)
    return (log_w - shift).exp().mean(axis=0).log() + shift


def iwelbo(model, batch, k_prime: int, noise=None, rng=None) -> Tensor:
    """Importance-weighted bound with K' samples per example, a scalar tensor:
    differentiable while grad recording is on, a score under ``no_grad``.

    K' = 1 shares the single-sample path, so it is exactly ``recon - kl`` of
    ``elbo_parts`` under the same noise. K' >= 2 reduces the K' slabs of
    ``_log_w`` as ``iw_logpx_np`` does, so on up to ``IW_BATCH`` examples its
    value is the mean of that function's estimates under the same noise, bit
    for bit; the gradients of mu and logvar are summed slab by slab.
    """
    if k_prime < 1:
        raise InvalidSpecError(f"k_prime must be >= 1, got {k_prime}")
    if k_prime == 1:
        recon, kl = elbo_parts(model, batch, noise, rng)
        return recon - kl
    x = as_tensor(batch)
    eps = _noise_block(rng, k_prime, x.shape[0], model.latent_dim, noise)
    return _log_mean_exp(_log_w(model, x, *model.encode(x), eps)).mean()


# ---------------------------------------------------------------------------
# Importance weights in K' slabs, and their evaluation under no_grad in batches


def _part_count(k: int, nc: int) -> int:
    """Slabs of about ``SLAB_ROWS`` decoder rows to split a (k, nc, latent)
    noise block into along K'. Each keeps at least two decoder rows when the
    block has two: numpy multiplies a one-row matrix with BLAS gemv, whose
    sums round differently from the gemm a larger block takes."""
    return max(1, min(-(-k * nc // SLAB_ROWS), k if nc > 1 else k // 2))


# Decoder rows per slab: ~0.6 MB temporaries at 144 pixels, which stay in
# cache. On a 2-vCPU host one 125-row K'=200 iw_logpx_np call took 117-150 ms
# and ~9.5k minor faults unslabbed, 84-118 ms and ~1.1k at 512 rows (median
# of 25); 256 was no faster, 1024 passed glibc's trim threshold (~22k faults).
SLAB_ROWS = 512

# Examples per IW evaluation batch. Each batch draws its own (K', batch,
# latent) noise block, so this decides which noise every example gets:
# changing it moves every reported NLL, and it is no tuning knob.
IW_BATCH = 64


def _log_w(model, x, mu: Tensor, logvar: Tensor, gamma) -> Tensor:
    """log p(x, z) - log q(z | x) for each sample of a (k, n, latent) noise block,
    shape (k, n); tape ops on K' slabs of about ``SLAB_ROWS`` decoder rows, joined by one."""
    slabs = []
    for slab in np.array_split(gamma, _part_count(*gamma.shape[:2])):
        k, n, latent = slab.shape
        z = reparameterize(mu, logvar, slab)
        y = model.decode(z.reshape(k * n, latent)).reshape(k, n, -1)
        recon = _recon_loglik_pe(y, x, model.likelihood, model.normalize_recon)
        log_p = (z * z).sum(axis=-1) * -0.5 - (latent / 2.0) * _LOG_2PI
        # log q(z|x) at the reparameterized sample: the quadratic term is exactly
        # the (constant) noise, so only logvar stays in the graph
        log_q = (logvar.sum(axis=-1) + (slab * slab).sum(axis=-1) + latent * _LOG_2PI) * -0.5
        slabs.append(recon + log_p - log_q)
    return slabs[0] if len(slabs) == 1 else concat_rows(slabs)


def iw_logpx_np(model, x: np.ndarray, k_prime: int, rng=None, noise=None) -> np.ndarray:
    """Per-example importance-weighted log-likelihood estimates, shape (n,).

    Taken in batches of ``IW_BATCH`` examples. Each batch's K' x batch noise
    block is drawn into one buffer per call (the values a fresh array per
    batch would get) and decoded by ``_log_w`` in K' slabs of about
    ``SLAB_ROWS`` rows, so the call holds one slab's temporaries; no slab is
    a one-row matrix, which BLAS would multiply with gemv. An explicit
    ``noise`` array of shape (k_prime, n, latent) overrides the generator.
    ``iwelbo`` reduces the same log weights alike, so under the same noise
    the mean of these estimates is that bound.
    """
    if k_prime < 1:
        raise InvalidSpecError(f"k_prime must be >= 1, got {k_prime}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidSpecError("need a non-empty (n, d) sample matrix")
    latent = model.latent_dim
    if noise is not None:
        noise = _noise_block(None, k_prime, x.shape[0], latent, noise)
    elif rng is None:
        rng = rng_mod.stream(0, "vae/iw-eval")
    out = np.empty(x.shape[0])
    # Freed on return, this buffer (1.6 MB at K'=200) lifts glibc's dynamic mmap threshold, so the
    # slabs' temporaries reuse heap pages; drawing each slab's noise on its own (same bits) left them
    # on fresh mmaps: ~20x the page faults and about 1.6x the time per call (ROADMAP, "Looked at").
    drawn = np.empty(0 if noise is not None else k_prime * min(IW_BATCH, len(x)) * latent)
    with no_grad():
        for start in range(0, x.shape[0], IW_BATCH):
            xc = x[start : start + IW_BATCH]
            nc = xc.shape[0]
            mu, logvar = model.encode(xc)
            if noise is not None:
                gamma = noise[:, start : start + nc]
            else:
                gamma = rng.standard_normal(out=drawn[: k_prime * nc * latent].reshape(k_prime, nc, latent))
            out[start : start + nc] = _log_mean_exp(_log_w(model, xc, mu, logvar, gamma)).data
    return out


def nll_estimate(model, data, k_prime: int, rng=None) -> tuple[float, float]:
    """Mean negative importance-weighted log-likelihood over a dataset (nats)
    and its standard error."""
    x = getattr(data, "images", data)
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise InvalidSpecError("empty dataset")
    logpx = iw_logpx_np(model, x, k_prime, rng)
    se = float(logpx.std(ddof=1) / math.sqrt(len(logpx))) if len(logpx) > 1 else 0.0
    return float(-logpx.mean()), se
