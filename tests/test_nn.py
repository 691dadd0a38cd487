"""Autodiff substrate: construction, forward, backward, optimizer."""

import math
import threading

import numpy as np
import pytest

from degm import rng
from degm.nn import (
    ContractError,
    InvalidSpecError,
    Mlp,
    MlpSpec,
    OptimizerState,
    ShapeError,
    Tensor,
    adam_step,
    backward,
    build_mlp,
    grad_enabled,
    init_adam,
    no_grad,
    zero_grad,
)
from helpers import max_grad_error, oracle_forward_np


class TestBuildMlp:
    def test_param_count_2_3(self):
        mlp = build_mlp(MlpSpec.make((2, 3), seed=7))
        assert mlp.n_params == 9  # 6 weights + 3 biases

    def test_deterministic_in_seed(self):
        a = build_mlp(MlpSpec.make((5, 4, 2), seed=7))
        b = build_mlp(MlpSpec.make((5, 4, 2), seed=7))
        assert a.param_bytes() == b.param_bytes()

    def test_different_seed_differs(self):
        a = build_mlp(MlpSpec.make((5, 4, 2), seed=7))
        b = build_mlp(MlpSpec.make((5, 4, 2), seed=8))
        assert a.param_bytes() != b.param_bytes()

    def test_init_scale_bound(self):
        mlp = build_mlp(MlpSpec.make((144, 128, 32), seed=1))
        bound = math.sqrt(6.0 / (144 + 128))
        assert np.all(np.abs(mlp.weights[0].data) <= bound)
        assert np.all(np.abs(mlp.weights[1].data) <= math.sqrt(6.0 / (128 + 32)))
        assert np.all(mlp.biases[0].data == 0.0)

    def test_invalid_widths(self):
        with pytest.raises(InvalidSpecError):
            MlpSpec.make((4, 0, 2), seed=0)
        with pytest.raises(InvalidSpecError):
            MlpSpec.make((4, -3), seed=0)
        with pytest.raises(InvalidSpecError):
            MlpSpec.make((4,), seed=0)

    def test_unknown_activation(self):
        with pytest.raises(InvalidSpecError):
            MlpSpec((2, 2), ("softplus",), 0)


class TestForward:
    def test_identity_layer(self):
        mlp = Mlp(
            [Tensor(np.eye(2), requires_grad=True)],
            [Tensor(np.zeros(2), requires_grad=True)],
            ("identity",),
        )
        out = mlp.forward(Tensor(np.array([1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_sigmoid_of_zero(self):
        mlp = Mlp(
            [Tensor(np.zeros((3, 4)), requires_grad=True)],
            [Tensor(np.zeros(4), requires_grad=True)],
            ("sigmoid",),
        )
        out = mlp.forward(Tensor(rng.stream(0, "x").random((5, 3))))
        np.testing.assert_allclose(out.data, 0.5)

    def test_tanh_scalar_table(self):
        mlp = Mlp(
            [Tensor(np.array([[1.0]]), requires_grad=True)],
            [Tensor(np.array([0.0]), requires_grad=True)],
            ("tanh",),
        )
        out = mlp.forward(Tensor(np.array([0.5])))
        assert out.data[0] == pytest.approx(0.46212, abs=1e-5)

    def test_shape_mismatch(self):
        mlp = build_mlp(MlpSpec.make((3, 2), seed=0))
        with pytest.raises(ShapeError):
            mlp.forward(Tensor(np.zeros((4, 5))))

    def test_batched_matches_loop(self):
        mlp = build_mlp(MlpSpec.make((4, 6, 2), seed=11))
        x = rng.stream(1, "x").random((7, 4))
        batched = mlp.forward_np(x)
        rows = np.stack([mlp.forward_np(x[i]) for i in range(7)])
        # gemm vs gemv round differently; equality holds to float64 noise
        np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=1e-15)

    def test_forward_np_matches_forward(self):
        mlp = build_mlp(MlpSpec.make((4, 6, 2), hidden="relu", output="sigmoid", seed=11))
        x = rng.stream(1, "x").random((7, 4))
        np.testing.assert_array_equal(mlp.forward(Tensor(x)).data, mlp.forward_np(x))

    def test_outputs_finite_at_scaled_init(self):
        # inputs in [0,1]^d, parameters at 10x the init scale
        for seed in range(5):
            mlp = build_mlp(MlpSpec.make((16, 12, 8), hidden="tanh", output="identity", seed=seed))
            for w in mlp.weights:
                w.data *= 10.0
            out = mlp.forward_np(rng.stream(seed, "x").random((20, 16)))
            assert np.isfinite(out).all()


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ContractError):
            backward(x * 2.0)

    def test_disconnected_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(np.array([1.0])))

    def test_gradient_accumulates_until_zeroed(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        backward(x.sum())
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, [2.0])
        zero_grad([x])
        assert x.grad is None

    def test_tape_cleared_after_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = (x * x).sum()
        backward(y)
        assert y._parents == () and y._grad_fn is None

    def test_no_grad_blocks_taping(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad

    def test_no_grad_is_per_thread(self):
        # a thread holding no_grad stops recording on itself only
        held, release = threading.Event(), threading.Event()
        seen = {}

        def hold():
            with no_grad():
                seen["inside"] = grad_enabled()
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(30)
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            assert grad_enabled() and (x * x).sum().requires_grad
        finally:
            release.set()
            holder.join(30)
        assert not holder.is_alive() and seen["inside"] is False

    def test_random_two_layer_net_fd(self):
        # random 2-layer nets against central finite differences
        g = rng.stream(42, "fdcheck")
        for trial in range(10):
            act = ("tanh", "relu", "sigmoid", "identity")[trial % 4]
            mlp = build_mlp(MlpSpec.make((3, 4, 2), hidden=act, output="identity", seed=trial))
            x = g.random((5, 3))
            params = mlp.parameters()

            def value():
                out = mlp.forward_np(x)
                return float((out * out).sum())

            def loss():
                out = mlp.forward(Tensor(x))
                return (out * out).sum()

            assert max_grad_error(value, loss, params) < 1e-4


    @pytest.mark.parametrize("act", ["tanh", "relu", "sigmoid", "identity"])
    def test_fused_backward_matches_layer_formulas(self, act):
        # the whole MLP is one tape op; its backward must give each layer's
        # textbook gradients, bit for bit, in numpy from the oracle's outputs
        mlp = build_mlp(MlpSpec.make((5, 7, 6, 3), hidden=act, output=act, seed=2))
        x = Tensor(rng.stream(3, "x").standard_normal((11, 5)) * 3.0, requires_grad=True)
        c = rng.stream(4, "c").standard_normal((11, 3))
        backward((mlp.forward(x) * Tensor(c)).sum())
        outputs = []
        oracle_forward_np(mlp, x.data, outputs)
        through_activation = {
            "tanh": lambda g, y: g * (1.0 - y * y),
            "relu": lambda g, y: g * (y > 0.0),
            "sigmoid": lambda g, y: g * y * (1.0 - y),
            "identity": lambda g, y: g,
        }[act]
        g = c
        for i in reversed(range(3)):
            g = through_activation(g, outputs[i])
            inp = outputs[i - 1] if i else x.data
            assert mlp.weights[i].grad.tobytes() == (inp.T @ g).tobytes()
            assert mlp.biases[i].grad.tobytes() == g.sum(axis=0).tobytes()
            g = g @ mlp.weights[i].data.T
        assert x.grad.tobytes() == g.tobytes()

    def test_frozen_layers_pass_gradient_to_the_input(self):
        mlp = build_mlp(MlpSpec.make((4, 6, 2), seed=3))
        mlp.set_requires_grad(False)
        x = Tensor(rng.stream(1, "x").random((5, 4)), requires_grad=True)
        out = mlp.forward(x)
        backward((out * out).sum())
        assert x.grad is not None and x.grad.shape == (5, 4)
        assert all(p.grad is None for p in mlp.parameters())

    def test_recorded_forward_needs_2d_input(self):
        mlp = build_mlp(MlpSpec.make((4, 2), seed=3))
        with pytest.raises(ShapeError):
            mlp.forward(Tensor(np.zeros((2, 3, 4))))
        with no_grad():
            assert mlp.forward(Tensor(np.zeros((2, 3, 4)))).shape == (2, 3, 2)


class TestAdam:
    def _params(self):
        return [
            Tensor(np.array([1.0, -2.0]), requires_grad=True),
            Tensor(np.array([[0.5]]), requires_grad=True),
        ]

    def test_zero_gradient_leaves_params(self):
        params = self._params()
        before = [p.data.copy() for p in params]
        for p in params:
            p.grad = np.zeros_like(p.data)
        state = init_adam(params)
        adam_step(params, state)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.data, b)
        assert state.step_count == 1

    def test_first_step_is_signed_lr(self):
        # at step 1 the update collapses to -lr * g / (|g| + eps)
        params = [Tensor(np.array([0.0]), requires_grad=True)]
        params[0].grad = np.array([0.3])
        state = init_adam(params, learning_rate=0.01)
        adam_step(params, state)
        expected = -0.01 * 0.3 / (abs(0.3) + 1e-8)
        assert params[0].data[0] == pytest.approx(expected, rel=1e-12)

    def test_missing_gradient_rejected(self):
        params = self._params()
        state = init_adam(params)
        with pytest.raises(ContractError):
            adam_step(params, state)

    def test_identical_runs_identical_trajectories(self):
        def run():
            mlp = build_mlp(MlpSpec.make((3, 4, 1), seed=5))
            params = mlp.parameters()
            state = init_adam(params, learning_rate=1e-2)
            x = rng.stream(9, "adam-x").random((8, 3))
            for _ in range(20):
                zero_grad(params)
                out = mlp.forward(Tensor(x))
                backward((out * out).sum())
                adam_step(params, state)
            return mlp.param_bytes()

        assert run() == run()

    def test_state_tracks_param_count(self):
        params = self._params()
        state = init_adam(params)
        assert len(state.first_moment) == len(params)
        assert len(state.second_moment) == len(params)
        with pytest.raises(ContractError):
            adam_step(params[:1], state)


class TestOps:
    def test_matmul_requires_2d(self):
        a = Tensor(np.zeros(3))
        b = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            a @ b

    def test_broadcast_bias_grad(self):
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        x = Tensor(np.zeros((4, 2)))
        backward((x + b).sum())
        np.testing.assert_array_equal(b.grad, [4.0, 4.0])

    def test_mean_axis(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.mean(axis=1).sum())
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 3.0))

    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward((x.reshape(6) * x.reshape(6)).sum())
        np.testing.assert_allclose(x.grad, 2.0 * x.data)
