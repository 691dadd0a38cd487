"""Evaluation kernels: bitwise equal to their out-of-place oracles, inputs
untouched, no block-sized temporaries beyond the ones they return, and the
same bits however many CPUs share an importance-weighted chunk."""

import contextlib
import threading
import tracemalloc
from concurrent import futures

import numpy as np
import pytest

from degm import nn, vae
from degm.graph import (
    ArchSpec,
    GraphState,
    build_basic_node,
    build_specific_node,
)
from degm.vae import (
    DomainError,
    ShapeError,
    build_vae,
    elbo,
    elbo_parts,
    iw_logpx_np,
    iwelbo,
    recon_loglik_np,
)
from helpers import (
    oracle_forward_np,
    oracle_iw_logpx_np,
    oracle_mixture_bound,
    oracle_recon_loglik_np,
    oracle_recon_loglik_tape,
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def read_only(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class TestForwardNp:
    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    @pytest.mark.parametrize("shape", [(9,), (40, 9), (3, 40, 9)])
    def test_bitwise_equal_to_oracle(self, act, shape):
        mlp = nn.build_mlp(nn.MlpSpec.make((9, 30, 20, 7), hidden=act, output=act, seed=4))
        # scaled so tanh and sigmoid saturate and relu sees both signs
        x = np.random.default_rng(1).standard_normal(shape) * 6.0
        assert same_bits(mlp.forward_np(x), oracle_forward_np(mlp, x))

    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    def test_input_not_mutated(self, act):
        mlp = nn.build_mlp(nn.MlpSpec.make((9, 30, 7), hidden=act, output=act, seed=4))
        x = read_only(np.random.default_rng(2).standard_normal((40, 9)))
        before = x.copy()
        weights = [p.data.copy() for p in mlp.parameters()]
        mlp.forward_np(x)
        assert same_bits(x, before)
        assert all(same_bits(p.data, w) for p, w in zip(mlp.parameters(), weights))

    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    @pytest.mark.parametrize("rows", [64, 12800])
    @pytest.mark.parametrize("record", [False, True])
    def test_tape_forward_bitwise_equal_to_oracle(self, act, rows, record):
        """The tape forward runs the eval kernel: same bits recorded or under
        no_grad, including the sign of zero (ReLU gives +0.0)."""
        mlp = nn.build_mlp(nn.MlpSpec.make((9, 30, 20, 7), hidden=act, output=act, seed=4))
        x = np.random.default_rng(1).standard_normal((rows, 9)) * 6.0
        with contextlib.nullcontext() if record else nn.no_grad():
            out = mlp.forward(nn.Tensor(x))
        assert out.requires_grad == record
        want = oracle_forward_np(mlp, x)
        assert same_bits(out.data, want)
        if act == "relu":
            assert (want == 0.0).any() and not np.signbit(out.data).any()


class TestReconLoglikNp:
    @pytest.mark.parametrize("likelihood", vae.LIKELIHOODS)
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize(
        "y_shape, x_shape",
        [((20, 16, 144), (1, 16, 144)), ((16, 144), (16, 144)), ((16, 144), (20, 16, 144))],
    )
    def test_bitwise_equal_to_oracle(self, likelihood, normalize, binary, y_shape, x_shape):
        g = np.random.default_rng(3)
        if likelihood == "bernoulli":
            y = g.random(y_shape)
            y.reshape(-1)[::7] = 0.0  # clamped from below
            y.reshape(-1)[3::11] = 1.0  # clamped from above
        else:
            y = g.standard_normal(y_shape)
        x = g.random(x_shape)
        if binary:
            x = (x > 0.5).astype(np.float64)
        got = recon_loglik_np(y, x, likelihood, normalize)
        assert same_bits(got, oracle_recon_loglik_np(y, x, likelihood, normalize))

    @pytest.mark.parametrize("likelihood", vae.LIKELIHOODS)
    def test_inputs_not_mutated(self, likelihood):
        g = np.random.default_rng(4)
        y = read_only(g.random((20, 16, 144)))
        x = read_only((g.random((1, 16, 144)) > 0.5).astype(np.float64))
        y_before, x_before = y.copy(), x.copy()
        recon_loglik_np(y, x, likelihood)
        assert same_bits(y, y_before) and same_bits(x, x_before)

    @pytest.mark.parametrize("bad", [-0.5, 1.5])
    def test_bernoulli_domain_still_checked(self, bad):
        x = np.full((1, 4, 6), 0.5)
        x[0, 2, 3] = bad
        with pytest.raises(DomainError):
            recon_loglik_np(np.full((3, 4, 6), 0.5), x, "bernoulli")


class TestReconLoglikTapeOp:
    """The likelihood is one tape op: its forward is ``recon_loglik_np`` and its
    closed-form backward reproduces the composed elementwise tape bit for bit."""

    @staticmethod
    def inputs(likelihood, y_shape, x_shape):
        g = np.random.default_rng(12)
        if likelihood == "bernoulli":
            y = g.random(y_shape)
            flat = y.reshape(-1)
            flat[::5] = 0.0  # clamped from below
            flat[1::7] = 1.0  # clamped from above
            flat[2::11] = 1e-9  # clamped from below, away from zero
            flat[3::13] = vae.BERNOULLI_CLAMP  # on the clamp: the gradient passes
            x = (g.random(x_shape) > 0.5).astype(np.float64)
        else:
            y = g.standard_normal(y_shape)
            x = g.random(x_shape)
        return y, x

    @pytest.mark.parametrize("likelihood", vae.LIKELIHOODS)
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "y_shape, x_shape",
        [((1, 144), (1, 144)), ((7, 144), (7, 144)), ((64, 144), (64, 144)), ((5, 7, 144), (1, 7, 144))],
    )
    def test_gradient_bitwise_equal_to_composed_tape(self, likelihood, normalize, y_shape, x_shape):
        y, x = self.inputs(likelihood, y_shape, x_shape)
        weights = np.random.default_rng(13).standard_normal(y_shape[:-1])
        results = []
        for fn in (vae._recon_loglik_pe, oracle_recon_loglik_tape):
            yt = nn.Tensor(y, requires_grad=True)
            ll = fn(yt, x, likelihood, normalize)
            nn.backward(-(ll * weights).mean())
            results.append((ll.data, yt.grad))
        (got_ll, got_grad), (want_ll, want_grad) = results
        assert same_bits(got_grad, want_grad)
        assert same_bits(got_ll, recon_loglik_np(y, x, likelihood, normalize))
        np.testing.assert_allclose(got_ll, want_ll, rtol=1e-13)

    @pytest.mark.parametrize("y_shape, x_shape", [((3, 4), (5, 4)), ((4, 6), (2, 4, 6))])
    def test_data_must_broadcast_to_the_output(self, y_shape, x_shape):
        with pytest.raises(ShapeError):
            vae._recon_loglik_pe(np.full(y_shape, 0.5), np.zeros(x_shape), "bernoulli", False)


class TestThroughTheBounds:
    """The kernels in place of their oracles leave the bounds' bits unchanged."""

    @pytest.fixture
    def oracle_kernels(self, monkeypatch):
        def run(fn, *args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(nn.Mlp, "forward_np", oracle_forward_np)
                m.setattr(vae, "recon_loglik_np", oracle_recon_loglik_np)
                return fn(*args, **kwargs)

        return run

    @pytest.mark.parametrize("likelihood", vae.LIKELIHOODS)
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("k_prime", [1, 20])
    def test_iw_logpx_and_elbo(self, oracle_kernels, likelihood, normalize, k_prime):
        model = build_vae(
            data_dim=36,
            latent_dim=4,
            trunk_widths=(20,),
            decoder_widths=(20,),
            likelihood=likelihood,
            normalize_recon=normalize,
            seed=6,
        )
        x = (np.random.default_rng(5).random((70, 36)) > 0.5).astype(np.float64)
        calls = ((iw_logpx_np, {"k_prime": k_prime, "batch_chunk": 32}), (elbo, {}))
        for fn, kwargs in calls:
            got = fn(model, x, rng=np.random.default_rng(7), **kwargs)
            want = oracle_kernels(fn, model, x, rng=np.random.default_rng(7), **kwargs)
            if fn is elbo:
                assert vars(got) == vars(want)
            else:
                assert same_bits(got, want)


class TestSpecificNodeAccumulation:
    """The weighted branch features are summed in place, in pi order."""

    @pytest.fixture
    def graph_and_node(self):
        graph = GraphState(arch=ArchSpec(data_dim=36, inter_dim=12, latent_dim=4, feat_dim=12))
        for task in (1, 2, 3):
            build_basic_node(graph, task, seed=task)
        return graph, build_specific_node(graph, 4, [0.2, 0.5, 0.3], seed=9)

    @staticmethod
    def oracle_features(node, basics, z):
        feat = None
        for weight, basic in zip(node.pi, basics):
            f_i = weight * oracle_forward_np(basic.decoder[0], z)
            feat = f_i if feat is None else feat + f_i
        return feat

    def test_specific_node_decode(self, graph_and_node):
        graph, node = graph_and_node
        z = np.random.default_rng(8).standard_normal((3, 50, 4))
        want = oracle_forward_np(node.g_prime, self.oracle_features(node, graph.basic_nodes, z))
        with nn.no_grad():
            assert same_bits(node.decode(z).data, want)

    @staticmethod
    def assert_mixture_bound(node):
        g = np.random.default_rng(9)
        x = (g.random((50, 36)) > 0.5).astype(np.float64)
        gamma = g.standard_normal((50, 4))
        recon, kl = oracle_mixture_bound(node, x, gamma)
        est = elbo(node, x, noise=gamma)
        assert est.total == (recon - kl).mean()
        assert est.recon_term == recon.mean() and est.kl_term == kl.mean()

    def test_melbo(self, graph_and_node):
        self.assert_mixture_bound(graph_and_node[1])

    def test_two_parent_mixture_bound(self):
        graph = GraphState(arch=ArchSpec(data_dim=36, inter_dim=12, latent_dim=4, feat_dim=12))
        for task in (1, 2):
            build_basic_node(graph, task, seed=task)
        self.assert_mixture_bound(build_specific_node(graph, 3, [0.35, 0.65], seed=9))


class TestSplitAcrossCpus:
    """Each noise block is split along K' across the process's CPUs; the
    estimates stay byte for byte those of the serial kernel."""

    @staticmethod
    def model(kind, likelihood):
        if kind == "vae":
            return build_vae(
                data_dim=36, latent_dim=4, trunk_widths=(20,), decoder_widths=(20,),
                likelihood=likelihood, seed=6,
            )
        arch = ArchSpec(data_dim=36, inter_dim=12, latent_dim=4, feat_dim=12, likelihood=likelihood)
        graph = GraphState(arch=arch)
        for task in (1, 2):
            build_basic_node(graph, task, seed=task)
        return build_specific_node(graph, 3, [0.4, 0.6], seed=9)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["vae", "specific"])
    @pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian_identity"])
    @pytest.mark.parametrize("path", ["rng", "noise"])
    @pytest.mark.parametrize(
        "n, k_prime, k_chunk",
        # 70 rows make a 64-row and a 6-row batch chunk; K'=7 in one piece
        # splits unevenly (3 parts: 3, 2, 2), in chunks of 3 as 3+3+1; one row
        # keeps at least two samples per part
        [(70, 7, 250), (70, 7, 3), (70, 20, 250), (1, 7, 250), (1, 2, 250)],
    )
    def test_bitwise_equal_to_serial_oracle(
        self, monkeypatch, cpus, kind, likelihood, path, n, k_prime, k_chunk
    ):
        model = self.model(kind, likelihood)
        g = np.random.default_rng(11)
        x = g.random((n, 36))
        if likelihood == "bernoulli":
            x = (x > 0.5).astype(np.float64)
        monkeypatch.setattr(vae, "_eval_cpus", lambda: cpus)
        if path == "rng":
            got = iw_logpx_np(model, x, k_prime, rng=np.random.default_rng(7), k_chunk=k_chunk)
            want = oracle_iw_logpx_np(model, x, k_prime, rng=np.random.default_rng(7), k_chunk=k_chunk)
        else:
            noise = read_only(g.standard_normal((k_prime, n, 4)))
            got = iw_logpx_np(model, x, k_prime, noise=noise, k_chunk=k_chunk)
            want = oracle_iw_logpx_np(model, x, k_prime, noise=noise, k_chunk=k_chunk)
        assert same_bits(got, want)

    @pytest.mark.parametrize("kc, nc, cpus, parts", [
        (200, 64, 2, 2), (7, 6, 3, 3), (1, 64, 5, 1), (7, 1, 5, 3), (3, 1, 2, 1), (1, 1, 2, 1),
    ])
    def test_part_count(self, kc, nc, cpus, parts):
        assert vae._part_count(cpus, kc, nc) == parts

    def test_domain_error_from_a_worker(self, monkeypatch):
        model = build_vae(data_dim=36, latent_dim=4, trunk_widths=(20,), decoder_widths=(20,), seed=6)
        x = (np.random.default_rng(5).random((10, 36)) > 0.5).astype(np.float64)
        serial = vae.recon_loglik_np

        def fails_off_the_calling_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise DomainError("raised in a worker")
            return serial(*args, **kwargs)

        monkeypatch.setattr(vae, "_eval_cpus", lambda: 2)
        monkeypatch.setattr(vae, "recon_loglik_np", fails_off_the_calling_thread)
        with pytest.raises(DomainError, match="raised in a worker"):
            iw_logpx_np(model, x, 8)

    def test_grad_mode_restored_after_threaded_eval(self, monkeypatch):
        """Each part switches grad recording off on its own thread only:
        after many 3-part evaluations of a trainable model, the tape records
        and fills every parameter's gradient."""
        model = build_vae(data_dim=36, latent_dim=4, trunk_widths=(20,), decoder_widths=(20,), seed=6)
        x = (np.random.default_rng(5).random((10, 36)) > 0.5).astype(np.float64)
        monkeypatch.setattr(vae, "_eval_cpus", lambda: 3)
        assert vae._part_count(3, 9, 10) == 3
        for _ in range(20):
            iw_logpx_np(model, x, 9)
        assert nn.grad_enabled()
        recon, kl = elbo_parts(model, x, rng=np.random.default_rng(0))
        nn.backward(recon - kl)
        assert all(p.grad is not None for p in model.parameters())

    def test_threads_only_inside_the_call(self, monkeypatch):
        model = build_vae(data_dim=36, latent_dim=4, trunk_widths=(20,), decoder_widths=(20,), seed=6)
        x = (np.random.default_rng(5).random((10, 36)) > 0.5).astype(np.float64)
        real = futures.ThreadPoolExecutor
        pools = []

        def counted(*args, **kwargs):
            pools.append(real(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(futures, "ThreadPoolExecutor", counted)
        monkeypatch.setattr(vae, "_eval_cpus", lambda: 5)
        before = threading.active_count()
        iw_logpx_np(model, x, 1)
        assert pools == []  # K' = 1: one part, no executor
        iw_logpx_np(model, x, 8, k_chunk=3)
        assert len(pools) == 1  # one executor per call, shared by its chunks
        assert threading.active_count() == before


def chunk_peak_blocks(monkeypatch, cpus):
    """tracemalloc peak of one 200 x 64 x 144 eval chunk, in blocks."""
    monkeypatch.setattr(vae, "_eval_cpus", lambda: cpus)
    model = build_vae(seed=1)
    x = (np.random.default_rng(0).random((64, 144)) > 0.5).astype(np.float64)
    iw_logpx_np(model, x, 200)  # warm caches outside the trace
    tracemalloc.start()
    try:
        iw_logpx_np(model, x, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (200 * 64 * 144 * 8)


def test_iw_eval_chunk_peak_memory(monkeypatch):
    """One 200 x 64 x 144 eval chunk allocates about three blocks at its peak:
    the decoding, its clipped copy and the per-pixel terms (it was 5.2 blocks
    when every ufunc allocated its own result)."""
    assert chunk_peak_blocks(monkeypatch, cpus=1) <= 3.5


def test_iw_eval_chunk_peak_memory_in_two_parts(monkeypatch):
    """Split across two CPUs, the parts share those three blocks."""
    assert chunk_peak_blocks(monkeypatch, cpus=2) <= 3.5


class TestOneBound:
    """Training's importance-weighted bound and evaluation's estimates share
    one log-mean-exp: under the same noise the bound is the mean of the
    estimates, bit for bit, on any CPU count and with or without the tape.

    K' = 1 is left out: there evaluation's estimate is a single log weight,
    while training's bound is the analytic-KL bound of ``elbo_parts`` that
    criterion 3 pins to ``elbo``."""

    @staticmethod
    def model(kind):
        if kind == "vae":
            return build_vae(data_dim=36, latent_dim=4, trunk_widths=(20,), decoder_widths=(20,), seed=6)
        graph = GraphState(arch=ArchSpec(data_dim=36, inter_dim=12, latent_dim=4, feat_dim=12))
        for task in (1, 2):
            build_basic_node(graph, task, seed=task)
        if kind == "basic":
            return graph.basic_nodes[0]
        return build_specific_node(graph, 3, [0.4, 0.6], seed=9)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kind", ["vae", "basic", "specific"])
    def test_iwelbo_is_the_mean_estimate(self, monkeypatch, kind, cpus, record):
        model = self.model(kind)
        for p in model.parameters():
            p.requires_grad = True
        monkeypatch.setattr(vae, "_eval_cpus", lambda: cpus)
        g = np.random.default_rng(12)
        mismatches = []
        for n in (2, 17, 64):
            x = (g.random((n, 36)) > 0.5).astype(np.float64)
            for k_prime in (2, 3, 7, 200, 250):
                noise = g.standard_normal((k_prime, n, 4))
                with contextlib.nullcontext() if record else nn.no_grad():
                    bound = iwelbo(model, x, k_prime, noise=noise)
                assert bound.requires_grad == record
                if float(bound) != iw_logpx_np(model, x, k_prime, noise=noise).mean():
                    mismatches.append((n, k_prime))
        assert mismatches == []
