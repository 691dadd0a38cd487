"""Shared test oracles: finite differences, gradient comparison, stacked pools."""

import numpy as np

from degm import nn
from degm.bounds import HypothesisPool


class StackPool(HypothesisPool):
    """Reconstruction oracle: every use reconstructs into a list and stacks it."""

    def reconstructions(self, x):
        return np.stack([h.reconstruct(x) for h in self.hypotheses])


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
