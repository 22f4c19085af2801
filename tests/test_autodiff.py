"""Reverse-mode gradient checks against central finite differences."""

import numpy as np
import pytest

from lossyad.errors import ContractError
from lossyad.numerics import Adam, Parameter, Tensor, backward, functional as F

from oracles import finite_diff_grad, max_rel_error


def check_grad(build_loss, params, tol=1e-4, h=1e-5):
    """Compare analytic gradients of build_loss() against central differences."""
    for p in params:
        p.zero_grad()
    loss = build_loss()
    backward(loss)
    for p in params:
        numeric = finite_diff_grad(lambda: build_loss().item(), p.data, h=h)
        assert p.grad is not None, f"no gradient reached {p}"
        err = max_rel_error(p.grad, numeric)
        assert err < tol, f"gradient mismatch for {getattr(p, 'name', p)}: {err}"


class TestBackwardBasics:
    def test_sum_of_parameter_gives_ones(self):
        # linear with a row of ones is the sum of its input vector
        p = Parameter(np.array([1.0, 2.0, 3.0]), "p")
        loss = F.linear(p, Tensor(np.ones((1, 3))), Tensor(np.zeros(1)))
        backward(loss)
        np.testing.assert_array_equal(p.grad, np.ones(3))

    def test_mse_hand_gradient(self):
        # d/dx mean((x - 0)^2) at x=[2] is 2x = 4
        p = Parameter(np.array([2.0]), "p")
        loss = F.mse(p, Tensor(np.zeros(1)))
        backward(loss)
        np.testing.assert_allclose(p.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        p = Parameter(np.ones(2), "p")
        with pytest.raises(ContractError):
            backward(F.add(p, p))

    def test_accumulation_without_reset(self):
        # d/dp mean(p^2) = 2p/2 = p = [1, 1] per backward
        p = Parameter(np.array([1.0, 1.0]), "p")
        backward(F.mse(p, Tensor(np.zeros(2))))
        backward(F.mse(p, Tensor(np.zeros(2))))
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])

    def test_shared_node_used_twice(self):
        p = Parameter(np.array([3.0]), "p")
        loss = F.mse(F.add(p, p), Tensor(np.zeros(1)))  # d/dp (2p)^2 = 8p
        backward(loss)
        np.testing.assert_allclose(p.grad, [24.0])


class TestGradVsFiniteDifferences:
    def test_conv_weights_bias_input(self):
        rng = np.random.default_rng(11)
        x = Parameter(rng.normal(size=(2, 9)), "x")
        w = Parameter(rng.normal(size=(3, 2, 3)), "w")
        b = Parameter(rng.normal(size=3), "b")

        def loss():
            return F.mse(F.causal_conv1d(x, w, b, dilation=2), Tensor(np.zeros((3, 9))))

        check_grad(loss, [x, w, b])

    def test_transposed_conv(self):
        rng = np.random.default_rng(12)
        x = Parameter(rng.normal(size=(3, 7)), "x")
        w = Parameter(rng.normal(size=(3, 2, 2)), "w")
        b = Parameter(rng.normal(size=2), "b")
        target = Tensor(rng.normal(size=(2, 7)))

        def loss():
            return F.mse(F.causal_transposed_conv1d(x, w, b, dilation=2), target)

        check_grad(loss, [x, w, b])

    def test_elementwise_chain(self):
        rng = np.random.default_rng(13)
        p = Parameter(rng.uniform(0.5, 2.0, size=(4,)), "p")
        # 1.5 p + q is <= -2 or >= 1.25, so no entry sits near relu's kink
        q = Parameter(np.array([-5.0, 0.5, -5.0, 0.5]), "q")
        target = Tensor(rng.normal(size=4))

        def loss():
            return F.mse(F.relu(F.add(F.scale(p, 1.5), q)), target)

        check_grad(loss, [p, q])

    def test_linear_and_reductions(self):
        rng = np.random.default_rng(14)
        w = Parameter(rng.normal(size=(3, 5)), "w")
        b = Parameter(rng.normal(size=3), "b")
        x = Parameter(rng.normal(size=5), "x")
        target = Tensor(rng.normal(size=3))

        def loss():
            return F.scale(F.mse(F.relu(F.linear(x, w, b)), target), 1.0 / 3.0)

        check_grad(loss, [w, b, x])

    def test_residual_add_of_two_transposed_convs(self):
        # A decoder block's shape: conv path plus 1x1 skip, summed by add.
        rng = np.random.default_rng(15)
        x = Parameter(rng.normal(size=(3, 10)), "x")
        w = Parameter(rng.normal(size=(3, 2, 3)), "w")
        b = Parameter(rng.normal(size=2), "b")
        rw = Parameter(rng.normal(size=(3, 2, 1)), "rw")
        rb = Parameter(rng.normal(size=2), "rb")
        target = Tensor(rng.normal(size=(2, 10)))

        def loss():
            h = F.causal_transposed_conv1d(x, w, b, dilation=4)
            skip = F.causal_transposed_conv1d(x, rw, rb, dilation=1)
            return F.mse(F.add(h, skip), target)

        check_grad(loss, [x, w, b, rw, rb])

    def test_two_block_toy_autoencoder(self):
        # Small conv stack -> flatten -> linear -> expand -> transposed stack,
        # checked end to end against finite differences.
        rng = np.random.default_rng(18)
        c, t_len, width, latent = 2, 8, 3, 4
        x = Tensor(rng.normal(size=(c, t_len)))
        params = {
            "e1w": Parameter(rng.normal(size=(width, c, 2)) * 0.5, "e1w"),
            "e1b": Parameter(rng.normal(size=width) * 0.1, "e1b"),
            "e2w": Parameter(rng.normal(size=(width, width, 2)) * 0.5, "e2w"),
            "e2b": Parameter(rng.normal(size=width) * 0.1, "e2b"),
            "lw": Parameter(rng.normal(size=(latent, width * t_len)) * 0.2, "lw"),
            "lb": Parameter(rng.normal(size=latent) * 0.1, "lb"),
            "uw": Parameter(rng.normal(size=(width * t_len, latent)) * 0.2, "uw"),
            "ub": Parameter(rng.normal(size=width * t_len) * 0.1, "ub"),
            "d1w": Parameter(rng.normal(size=(width, width, 2)) * 0.5, "d1w"),
            "d1b": Parameter(rng.normal(size=width) * 0.1, "d1b"),
            "d2w": Parameter(rng.normal(size=(width, c, 2)) * 0.5, "d2w"),
            "d2b": Parameter(rng.normal(size=c) * 0.1, "d2b"),
        }

        def loss():
            h = F.relu(F.causal_conv1d(x, params["e1w"], params["e1b"], 1))
            h = F.relu(F.causal_conv1d(h, params["e2w"], params["e2b"], 2))
            y = F.linear(F.flatten(h), params["lw"], params["lb"])
            u = F.reshape(F.linear(y, params["uw"], params["ub"]), (width, t_len))
            u = F.relu(F.causal_transposed_conv1d(u, params["d1w"], params["d1b"], 2))
            xr = F.causal_transposed_conv1d(u, params["d2w"], params["d2b"], 1)
            return F.mse(x, xr)

        check_grad(loss, list(params.values()))


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = Adam([p])
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_hand_evaluation(self):
        # t=1, g=1: m_hat=1, v_hat=1, delta = -lr/(1 + eps) ~ -1e-3
        p = Parameter(np.array([0.0]), "p")
        opt = Adam([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        p.grad = np.array([1.0])
        opt.step()
        expected = -1e-3 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.data, [expected], rtol=1e-12)

    def test_identical_params_identical_updates(self):
        p1 = Parameter(np.array([0.5]), "p1")
        p2 = Parameter(np.array([0.5]), "p2")
        opt = Adam([p1, p2])
        for _ in range(5):
            p1.grad = np.array([0.3])
            p2.grad = np.array([0.3])
            opt.step()
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_missing_grad_rejected(self):
        p = Parameter(np.array([1.0]), "p")
        opt = Adam([p])
        with pytest.raises(ContractError):
            opt.step()
