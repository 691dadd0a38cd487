"""Shared test oracles: finite differences, gradient comparison, stacked pools,
out-of-place copies of the evaluation kernels, the models' encode and decode
built only from those copies, the reconstruction log-likelihood composed of
elementwise tape ops as it was before it became one op, the batch mean of
the real one-op kernel, the serial importance-weighted log-likelihood, a
Specific node's mixture bound, the importance-weighted mixture objective
as it was written before Specific nodes became models, and the per-row loop
that mixed replay and new samples before the mix became array operations."""

import functools
import math
import operator

import numpy as np

from degm import nn
from degm import vae as vae_mod
from degm.bounds import HypothesisSnapshot, pair_loss_means
from degm.graph import SpecificNode
from degm import rng as rng_mod
from degm.nn import as_tensor
from degm.vae import BERNOULLI_CLAMP


class StackPool:
    """Reconstruction oracle: a list of snapshots that, on every use,
    reconstructs into a list and stacks it."""

    def __init__(self, hypotheses=()):
        self.hypotheses = list(hypotheses)

    def add(self, model, label=None):
        snap = HypothesisSnapshot(model, label)
        self.hypotheses.append(snap)
        return snap

    def __len__(self):
        return len(self.hypotheses)

    def reconstructions(self, x):
        return np.stack([h.reconstruct(x) for h in self.hypotheses])

    def pair_losses(self, x):
        return pair_loss_means(self.reconstructions(np.asarray(x, dtype=np.float64)))


def fd_gradients(scalar_fn, params, h=1e-5):
    """Central finite differences of scalar_fn() w.r.t. every param element."""
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.empty_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = scalar_fn()
            flat[j] = orig - h
            dn = scalar_fn()
            flat[j] = orig
            g[j] = (up - dn) / (2.0 * h)
        grads.append(g.reshape(p.data.shape))
    return grads


def max_grad_error(scalar_fn, loss_builder, params, h=1e-5):
    """Backprop loss_builder() once, compare against finite differences.

    Returns the max relative error over elements with |analytic| >= 1e-6;
    elements below that must agree absolutely within 1e-7 (asserted here).
    """
    nn.zero_grad(params)
    loss = loss_builder()
    nn.backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    numeric = fd_gradients(scalar_fn, params, h=h)
    worst = 0.0
    for a, f in zip(analytic, numeric):
        a = a.reshape(-1)
        f = f.reshape(-1)
        small = np.abs(a) < 1e-6
        if small.any():
            assert np.max(np.abs(a[small] - f[small])) < 1e-7
        big = ~small
        if big.any():
            worst = max(worst, float(np.max(np.abs(a[big] - f[big]) / np.abs(a[big]))))
    return worst


# Out-of-place evaluation kernels: one fresh array per ufunc. The in-place
# kernels in degm must reproduce these bit for bit.
_ORACLE_ACTS = {
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "identity": lambda x: x,
}


def oracle_forward_np(mlp, x, outputs=None):
    x = np.asarray(x, dtype=np.float64)
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
        x = _ORACLE_ACTS[act](x @ w.data + b.data)
        if outputs is not None:
            outputs.append(x)
    return x


def _weighted_sum(pi, terms):
    """sum_i pi_i * term_i, added left to right as the Specific node does."""
    return functools.reduce(operator.add, (w * t for w, t in zip(pi, terms)))


def oracle_encode(model, x):
    """(mu, logvar) of a ``VaeModel``, Basic or Specific node, from
    ``oracle_forward_np`` on its sub-models."""
    if isinstance(model, SpecificNode):
        hs = [oracle_forward_np(parent.trunk, x) for parent in model.parents]
        mu = _weighted_sum(model.pi, [oracle_forward_np(model.f_mu, h) for h in hs])
        sd = _weighted_sum(model.pi, [np.exp(0.5 * oracle_forward_np(model.f_logvar, h)) for h in hs])
        return mu, 2.0 * np.log(sd)
    h = oracle_forward_np(model.trunk, x)
    return oracle_forward_np(model.mu_head, h), oracle_forward_np(model.logvar_head, h)


def oracle_decode(model, z):
    """Decoder mean of a ``VaeModel``, Basic or Specific node, from
    ``oracle_forward_np`` on its sub-models."""
    if isinstance(model, SpecificNode):
        feat = _weighted_sum(model.pi, [oracle_forward_np(p.decoder[0], z) for p in model.parents])
        return oracle_forward_np(model.g_prime, feat)
    for net in model.decoder:
        z = oracle_forward_np(net, z)
    return z


def oracle_gaussian_kl(mu, logvar):
    """Per-example analytic KL(N(mu, exp(logvar)) || N(0, I))."""
    return 0.5 * (mu * mu + np.exp(logvar) - logvar - 1.0).sum(axis=-1)


def oracle_mixture_bound(node, x, eps):
    """Per-example (recon, kl) of a Specific node's mixture bound: each branch
    reparameterized with the same noise ``eps``, decoded at z = sum_i pi_i z_i,
    and the KL term sum_i pi_i KL_i."""
    zs, kls = [], []
    for parent in node.parents:
        h = oracle_forward_np(parent.trunk, x)
        mu, logvar = oracle_forward_np(node.f_mu, h), oracle_forward_np(node.f_logvar, h)
        zs.append(mu + np.exp(0.5 * logvar) * eps)
        kls.append(oracle_gaussian_kl(mu, logvar))
    y = oracle_decode(node, _weighted_sum(node.pi, zs))
    recon = oracle_recon_loglik_np(y, x, node.likelihood, node.normalize_recon)
    return recon, _weighted_sum(node.pi, kls)


def oracle_recon_loglik_np(y, x, likelihood, normalize=False):
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    if likelihood == "bernoulli":
        p = np.clip(y, BERNOULLI_CLAMP, 1.0 - BERNOULLI_CLAMP)
        ll = (x * np.log(p) + (1.0 - x) * np.log1p(-p)).sum(axis=-1)
    elif likelihood == "gaussian_half":
        diff = x - y
        ll = -(diff * diff).sum(axis=-1) - (d / 2.0) * math.log(math.pi)
    else:
        diff = x - y
        ll = -0.5 * (diff * diff).sum(axis=-1) - (d / 2.0) * math.log(2.0 * math.pi)
    if normalize:
        ll = ll / d
    return ll


def recon_loglik(y, x, likelihood, normalize=False):
    """Batch-mean reconstruction log-likelihood through the tape's one-op kernel."""
    return vae_mod._recon_loglik_pe(as_tensor(y), x, likelihood, normalize).mean()


def _oracle_clip(t, lo, hi):
    """Clamp to [lo, hi]; the gradient passes only where the input lies inside."""
    mask = (t.data >= lo) & (t.data <= hi)
    return nn.Tensor._from_op(np.clip(t.data, lo, hi), (t,), lambda g: (g * mask,))


def oracle_recon_loglik_tape(y, x, likelihood, normalize=False):
    """Per-example reconstruction log-likelihood composed of elementwise tape
    ops (frozen): the Bernoulli term is x*log(p) + (1-x)*log(1-p)."""
    y = as_tensor(y)
    x = as_tensor(x)
    d = x.shape[-1]
    if likelihood == "bernoulli":
        p = _oracle_clip(y, BERNOULLI_CLAMP, 1.0 - BERNOULLI_CLAMP)
        one = as_tensor(1.0)
        ll = (x * p.log() + (one - x) * (one - p).log()).sum(axis=-1)
    elif likelihood == "gaussian_half":
        diff = x - y
        ll = -(diff * diff).sum(axis=-1) - (d / 2.0) * math.log(math.pi)
    else:
        diff = x - y
        ll = (diff * diff).sum(axis=-1) * -0.5 - (d / 2.0) * math.log(2.0 * math.pi)
    if normalize:
        ll = ll * (1.0 / d)
    return ll


def oracle_iw_logpx_np(model, x, k_prime, rng=None, noise=None, batch_chunk=64, k_chunk=250):
    """``vae.iw_logpx_np`` written out plainly: each (kc, nc, latent) noise
    block drawn fresh and decoded in one piece, through
    ``oracle_encode``/``oracle_decode``."""
    x = np.asarray(x, dtype=np.float64)
    if rng is None and noise is None:
        rng = rng_mod.stream(0, "vae/iw-eval")
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
    latent = model.latent_dim
    log_2pi = math.log(2.0 * math.pi)
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], batch_chunk):
        xc = x[start : start + batch_chunk]
        nc = xc.shape[0]
        mu, logvar = oracle_encode(model, xc)
        sd = np.exp(0.5 * logvar)
        blocks = []
        done = 0
        while done < k_prime:
            kc = min(k_chunk, k_prime - done)
            if noise is not None:
                gamma = noise[done : done + kc, start : start + nc, :]
            else:
                gamma = rng.standard_normal((kc, nc, latent))
            z = mu[None] + sd[None] * gamma
            y = oracle_decode(model, z.reshape(-1, latent)).reshape(kc, nc, -1)
            recon = vae_mod.recon_loglik_np(y, xc[None], model.likelihood, model.normalize_recon)
            log_p = -0.5 * (z * z).sum(axis=-1) - (latent / 2.0) * log_2pi
            log_q = -0.5 * ((gamma * gamma).sum(axis=-1) + logvar.sum(axis=-1)[None] + latent * log_2pi)
            blocks.append(recon + log_p - log_q)
            done += kc
        log_w = np.concatenate(blocks, axis=0)
        shift = log_w.max(axis=0)
        out[start : start + nc] = shift + np.log(np.exp(log_w - shift).mean(axis=0))
    return out


def iw_melbo_objective(node, graph, config):
    """Importance-weighted mixture objective using the shared-noise proposal,
    wired by position in the graph's sorted Basic nodes (frozen oracle)."""
    arch = graph.arch

    def objective(batch, noise_rng):
        x = as_tensor(batch)
        n = x.shape[0]
        basics = sorted(graph.basic_nodes, key=lambda b: b.id)
        mus, sds = [], []
        for basic in basics:
            h = basic.trunk.forward(x)
            mus.append(node.f_mu.forward(h))
            sds.append((node.f_logvar.forward(h) * 0.5).exp())
        mu_bar = None
        sd_bar = None
        for weight, mu_i, sd_i in zip(node.pi, mus, sds):
            m = mu_i * float(weight)
            s = sd_i * float(weight)
            mu_bar = m if mu_bar is None else mu_bar + m
            sd_bar = s if sd_bar is None else sd_bar + s
        log_ws = []
        latent = arch.latent_dim
        log_2pi = math.log(2.0 * math.pi)
        for k in range(config.k_prime):
            gamma = noise_rng.standard_normal((n, latent))
            z = mu_bar + sd_bar * gamma
            feat = None
            for weight, basic in zip(node.pi, basics):
                f_i = basic.decoder[0].forward(z) * float(weight)
                feat = f_i if feat is None else feat + f_i
            y = node.g_prime.forward(feat)
            recon_pe = vae_mod._recon_loglik_pe(y, x, arch.likelihood, arch.normalize_recon)
            gamma_sq = (gamma * gamma).sum(axis=1)
            log_q = (sd_bar.log().sum(axis=1) * 2.0 + gamma_sq + latent * log_2pi) * -0.5
            log_p = (z * z).sum(axis=1) * -0.5 - (latent / 2.0) * log_2pi
            log_ws.append(recon_pe + log_p - log_q)
        # stack the K' rows into one (K', n) tensor: every other row adds a
        # signed zero, so each row keeps its bits
        eye = np.eye(config.k_prime)
        stacked = None
        for k, w in enumerate(log_ws):
            row = w * eye[k][:, None]
            stacked = row if stacked is None else stacked + row
        shift = stacked.data.max(axis=0)
        return ((stacked - shift).exp().mean(axis=0).log() + shift).mean()

    return objective


def oracle_mix(replay, new, seed):
    """Replay and new rows interleaved by one fair coin per row, one row at a
    time: a row comes from replay when its coin says so and replay has rows
    left, or when new has none left."""
    n_r, n_n = len(replay), len(new)
    total = n_r + n_n
    coin = rng_mod.stream(seed, "replay/mix").random(total) < 0.5
    samples = np.empty((total, new.shape[1]))
    i = j = 0
    for k in range(total):
        if (coin[k] and i < n_r) or j >= n_n:
            samples[k] = replay[i]
            i += 1
        else:
            samples[k] = new[j]
            j += 1
    return samples
