"""Evaluation kernels: bitwise equal to their out-of-place oracles, inputs
untouched, no block-sized temporaries beyond the ones they return, and the
same bits however an importance-weighted chunk is cut into slabs."""

import contextlib
import os
import threading
import tracemalloc

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
    max_grad_error,
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
    def test_iw_logpx_and_elbo(self, monkeypatch, oracle_kernels, likelihood, normalize, k_prime):
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
        monkeypatch.setattr(vae, "IW_BATCH", 32)  # batches of 32, 32 and 6 rows
        got = iw_logpx_np(model, x, k_prime, rng=np.random.default_rng(7))
        assert same_bits(got, oracle_kernels(iw_logpx_np, model, x, k_prime, rng=np.random.default_rng(7)))
        want = oracle_kernels(
            oracle_iw_logpx_np, model, x, k_prime, rng=np.random.default_rng(7), batch_chunk=32
        )
        assert same_bits(got, want)
        got = elbo(model, x, rng=np.random.default_rng(7))
        assert vars(got) == vars(oracle_kernels(elbo, model, x, rng=np.random.default_rng(7)))


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


class TestSlabs:
    """Each batch's noise block is decoded along K' in slabs on the calling
    thread; the estimates stay byte for byte those of the one-piece oracle,
    and of the oracle drawing and decoding the block in K' chunks."""

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

    # 512 rows take every block below in one slab; 160 cut the 64-row batch
    # at K'=7 in 3 slabs and at K'=20 in 8; 5 and 1 cut most blocks as finely
    # as the two-row rule allows (one row with K'=7 in 2 and in 3 slabs)
    @pytest.mark.parametrize("slab_rows", [512, 160, 5, 1])
    @pytest.mark.parametrize("kind", ["vae", "specific"])
    @pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian_identity"])
    @pytest.mark.parametrize("path", ["rng", "noise"])
    @pytest.mark.parametrize(
        "n, k_prime",
        # 70 rows make a 64-row and a 6-row batch; one data row with K'=7 and K'=2
        [(70, 7), (70, 20), (1, 7), (1, 2)],
    )
    def test_bitwise_equal_to_serial_oracle(self, monkeypatch, slab_rows, kind, likelihood, path, n, k_prime):
        monkeypatch.setattr(vae, "SLAB_ROWS", slab_rows)
        self.assert_oracle_bits(self.model(kind, likelihood), likelihood, path, n, k_prime, 250)

    @pytest.mark.parametrize("likelihood", vae.LIKELIHOODS)
    @pytest.mark.parametrize("kind", ["vae", "specific"])
    @pytest.mark.parametrize("path", ["rng", "noise"])
    @pytest.mark.parametrize(
        "n, k_prime, slab_rows",
        # one data row with K' one above a 4-row slab (slabs 3, 2); one row in
        # slabs of two samples at least (K'=9 as 3, 2, 2, 2); 70 rows with
        # K'=7 in uneven slabs (the 64-row chunk as 2, 2, 1, 1, 1 at 100 rows,
        # the 6-row chunk as 3, 2, 2 at 20) and in one-sample slabs
        [(1, 5, 4), (1, 9, 2), (70, 7, 100), (70, 7, 20), (70, 7, 1)],
    )
    def test_slabs_bitwise_equal_to_serial_oracle(
        self, monkeypatch, likelihood, kind, path, n, k_prime, slab_rows
    ):
        monkeypatch.setattr(vae, "SLAB_ROWS", slab_rows)
        self.assert_oracle_bits(self.model(kind, likelihood), likelihood, path, n, k_prime, 250)

    @pytest.mark.parametrize("nc", [1, 3])
    @pytest.mark.parametrize("slab_rows", [1, 2, 5, 512])
    def test_slab_log_weights_equal_one_piece(self, monkeypatch, nc, slab_rows):
        """Every log weight of a block keeps the bits of the block decoded in
        one piece: no slab is a one-row matrix, which BLAS gemv would round
        differently (the estimates above often hide a one-ulp change)."""
        model = self.model("vae", "bernoulli")
        g = np.random.default_rng(11)
        x = (g.random((nc, 36)) > 0.5).astype(np.float64)
        gamma = g.standard_normal((40, nc, 4))
        reduced = []
        real = vae._log_mean_exp

        def recorded(log_w):
            reduced.append(log_w.data.copy())
            return real(log_w)

        monkeypatch.setattr(vae, "_log_mean_exp", recorded)
        monkeypatch.setattr(vae, "SLAB_ROWS", slab_rows)
        iw_logpx_np(model, x, 40, noise=gamma)
        monkeypatch.setattr(vae, "SLAB_ROWS", 40 * nc)
        with nn.no_grad():
            mu, logvar = model.encode(nn.Tensor(x))
            whole = vae._log_w(model, x, mu, logvar, gamma).data
        assert len(reduced) == 1 and same_bits(reduced[0], whole)

    # The oracle draws and decodes each batch's block in K' chunks of 3 or 5
    # (ragged last chunks) or 250 (K'=251 and 513 as 250 + 1 and 250 + 250 + 13);
    # the call draws and decodes it whole, in slabs of one to 512 rows. Batches
    # of 4 (10 rows as 4 + 4 + 2) keep the oracle's pieces at 1000 decoder rows
    # or fewer: OpenBLAS 0.3.31 multiplies the VAE's 20 x 36 layer with other
    # roundings once a product passes about 1e6 multiply-adds (1389 rows).
    @pytest.mark.parametrize("slab_rows", [512, 160, 5, 1])
    @pytest.mark.parametrize("kind", ["vae", "specific"])
    @pytest.mark.parametrize("path", ["rng", "noise"])
    @pytest.mark.parametrize("n", [10, 1])
    @pytest.mark.parametrize("k_prime", [7, 251, 513])
    def test_equal_to_oracle_at_any_k_chunk(self, monkeypatch, slab_rows, kind, path, n, k_prime):
        """A generator fills consecutive K' chunks of a batch with the values
        of one block, and each chunk decodes to the bits it has in the block,
        so chunking along K' would leave every estimate unchanged."""
        monkeypatch.setattr(vae, "SLAB_ROWS", slab_rows)
        monkeypatch.setattr(vae, "IW_BATCH", 4)
        model = self.model(kind, "bernoulli")
        for k_chunk in (3, 5, 250):
            self.assert_oracle_bits(model, "bernoulli", path, n, k_prime, k_chunk, batch_chunk=4)

    @staticmethod
    def assert_oracle_bits(model, likelihood, path, n, k_prime, k_chunk, batch_chunk=64):
        g = np.random.default_rng(11)
        x = g.random((n, 36))
        if likelihood == "bernoulli":
            x = (x > 0.5).astype(np.float64)
        if path == "rng":
            got = iw_logpx_np(model, x, k_prime, rng=np.random.default_rng(7))
            want = oracle_iw_logpx_np(
                model, x, k_prime, rng=np.random.default_rng(7), batch_chunk=batch_chunk, k_chunk=k_chunk
            )
        else:
            noise = read_only(g.standard_normal((k_prime, n, 4)))
            got = iw_logpx_np(model, x, k_prime, noise=noise)
            want = oracle_iw_logpx_np(model, x, k_prime, noise=noise, batch_chunk=batch_chunk, k_chunk=k_chunk)
        assert same_bits(got, want)

    @pytest.mark.parametrize("k, nc, slab_rows, parts", [
        (200, 64, 6400, 2), (7, 6, 14, 3), (1, 64, 13, 1), (7, 1, 1, 3), (3, 1, 2, 1), (1, 1, 1, 1),
    ])
    def test_part_count(self, monkeypatch, k, nc, slab_rows, parts):
        monkeypatch.setattr(vae, "SLAB_ROWS", slab_rows)
        assert vae._part_count(k, nc) == parts

    def test_grad_mode_restored_after_eval(self):
        """Evaluation switches grad recording off only inside the call: after
        many evaluations of a trainable model, the tape records and fills
        every parameter's gradient."""
        model = build_vae(data_dim=36, latent_dim=4, trunk_widths=(20,), decoder_widths=(20,), seed=6)
        x = (np.random.default_rng(5).random((10, 36)) > 0.5).astype(np.float64)
        for _ in range(20):
            iw_logpx_np(model, x, 9)
        assert nn.grad_enabled()
        recon, kl = elbo_parts(model, x, rng=np.random.default_rng(0))
        nn.backward(recon - kl)
        assert all(p.grad is not None for p in model.parameters())

    def test_starts_no_thread(self, monkeypatch):
        """Evaluation runs on the calling thread however many CPUs the
        process may use, so a per-thread tracer sees every span nested."""
        model = build_vae(data_dim=36, latent_dim=4, trunk_widths=(20,), decoder_widths=(20,), seed=6)
        x = (np.random.default_rng(5).random((10, 36)) > 0.5).astype(np.float64)
        real = threading.Thread.start
        started = []

        def counted(thread):
            started.append(thread)
            real(thread)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
        monkeypatch.setattr(threading.Thread, "start", counted)
        iw_logpx_np(model, x, 8)
        assert started == []


def chunk_peak_blocks():
    """tracemalloc peak of one 200 x 64 x 144 eval chunk, in blocks."""
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


def test_iw_eval_chunk_peak_memory():
    """One 200 x 64 x 144 eval chunk stays within 3.5 blocks at its peak (the
    decoding, its clipped copy and the per-pixel terms took about three when
    the chunk was decoded in one piece, 5.2 when every ufunc allocated its
    own result); slabs bring it far lower, see the test below."""
    assert chunk_peak_blocks() <= 3.5


def test_iw_eval_chunk_peak_memory_in_slabs():
    """Decoded in slabs of ``SLAB_ROWS`` rows, a 200 x 64 x 144 chunk peaks
    at half a block or less: the noise draw, the log weights and one slab's
    temporaries (about 0.25)."""
    assert chunk_peak_blocks() <= 0.5


class TestOneBound:
    """Training's importance-weighted bound and evaluation's estimates share
    one log-mean-exp: under the same noise the bound is the mean of the
    estimates, bit for bit, with or without the tape and however evaluation
    cuts its blocks into slabs.

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
    @pytest.mark.parametrize("slab_rows", [512, 5])
    @pytest.mark.parametrize("kind", ["vae", "basic", "specific"])
    def test_iwelbo_is_the_mean_estimate(self, monkeypatch, kind, slab_rows, record):
        monkeypatch.setattr(vae, "SLAB_ROWS", slab_rows)
        model = self.model(kind)
        for p in model.parameters():
            p.requires_grad = True
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

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("slab_rows", [512, 5])
    def test_log_weights_of_a_large_block_agree(self, monkeypatch, slab_rows, record):
        """A 200 x 64 block is 12800 decoder rows, enough for OpenBLAS to round
        some rows of one product otherwise than the same rows in slabs (177
        log weights here, an ulp in the mean). The bound and the estimates
        take the same slabs, so every log weight agrees, on the tape or not."""
        monkeypatch.setattr(vae, "SLAB_ROWS", slab_rows)
        reduced = []
        real = vae._log_mean_exp

        def recorded(log_w):
            reduced.append(log_w.data.copy())
            return real(log_w)

        monkeypatch.setattr(vae, "_log_mean_exp", recorded)
        model = self.model("vae")
        g = np.random.default_rng(12)
        x = (g.random((64, 36)) > 0.5).astype(np.float64)
        noise = g.standard_normal((200, 64, 4))
        with contextlib.nullcontext() if record else nn.no_grad():
            bound = iwelbo(model, x, 200, noise=noise)
        assert bound.requires_grad == record
        assert float(bound) == iw_logpx_np(model, x, 200, noise=noise).mean()
        assert len(reduced) == 2 and same_bits(*reduced)

    def test_gradients_through_joined_slabs_match_fd(self, monkeypatch):
        """With slabs of 4 decoder rows the tape joins 3 slabs of a 4 x 3
        block (2, 1 and 1 samples), and the bound's gradient of every
        parameter still matches finite differences."""
        monkeypatch.setattr(vae, "SLAB_ROWS", 4)
        joined = []
        real = vae.concat_rows

        def counted(parts):
            joined.append(len(parts))
            return real(parts)

        monkeypatch.setattr(vae, "concat_rows", counted)
        model = build_vae(data_dim=6, latent_dim=2, trunk_widths=(5,), decoder_widths=(5,), seed=3)
        g = np.random.default_rng(5)
        x = g.random((3, 6))
        noise = g.standard_normal((4, 3, 2))
        params = model.parameters()
        error = max_grad_error(
            lambda: float(iwelbo(model, x, 4, noise=noise)), lambda: iwelbo(model, x, 4, noise=noise), params
        )
        assert joined[0] == 3 and error < 1e-4
