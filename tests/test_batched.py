"""The batched engine: an (N, ...) batch equals its windows run one by one.

Property tests draw N, channel counts, lengths and dilations; for every op
the batch's forward is the stack of the per-window forwards and every
gradient the stack (inputs) or sum (weights, biases, density parameters)
of the per-window gradients, within 1e-12. The rest pins what the batched
engine relies on: backward frees op-node gradients, inference builds no
graph, and convolution taps that meet only padding are skipped.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lossyad.numerics.functional as F
from lossyad.bottleneck import FactorizedDensity
from lossyad.model import TcnAutoencoder, TcnConfig
from lossyad.numerics import RngState, Tensor, backward
from lossyad.training import LossWeights, rdo_loss

from oracles import conv_oracle

TOL = dict(rtol=0, atol=1e-12)


def leaf(a):
    return Tensor(a, requires_grad=True)


def run_op(op, x, w, b, *args, grad_out):
    """Forward of op on fresh leaves, then its closure fed `grad_out`."""
    tx, tw, tb = leaf(x), leaf(w), leaf(b)
    out = op(tx, tw, tb, *args)
    out._backward_fn(grad_out)
    return out.data, tx.grad, tw.grad, tb.grad


def check_batch_is_stack(op, x, w, b, g, *args):
    """Batch results against per-window ones: outputs and input gradients
    stacked, weight and bias gradients summed."""
    out, gx, gw, gb = run_op(op, x, w, b, *args, grad_out=g)
    singles = [run_op(op, x[n], w, b, *args, grad_out=g[n]) for n in range(len(x))]
    np.testing.assert_allclose(out, np.stack([s[0] for s in singles]), **TOL)
    np.testing.assert_allclose(gx, np.stack([s[1] for s in singles]), **TOL)
    np.testing.assert_allclose(gw, sum(s[2] for s in singles), **TOL)
    np.testing.assert_allclose(gb, sum(s[3] for s in singles), **TOL)


conv_shapes = st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3),
                        st.integers(1, 12), st.integers(1, 3), st.integers(1, 6),
                        st.integers(0, 2 ** 32 - 1))


@given(conv_shapes)
def test_causal_conv1d_batch_equals_windows(shape):
    n, c_in, c_out, t_len, k, dilation, seed = shape
    rng = np.random.default_rng(seed)
    check_batch_is_stack(F.causal_conv1d, rng.normal(size=(n, c_in, t_len)),
                         rng.normal(size=(c_out, c_in, k)), rng.normal(size=c_out),
                         rng.normal(size=(n, c_out, t_len)), dilation)


@given(conv_shapes)
def test_causal_transposed_conv1d_batch_equals_windows(shape):
    n, c_in, c_out, t_len, k, dilation, seed = shape
    rng = np.random.default_rng(seed)
    check_batch_is_stack(F.causal_transposed_conv1d, rng.normal(size=(n, c_in, t_len)),
                         rng.normal(size=(c_in, c_out, k)), rng.normal(size=c_out),
                         rng.normal(size=(n, c_out, t_len)), dilation)


@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_linear_batch_equals_windows(n, f, m, seed):
    rng = np.random.default_rng(seed)
    check_batch_is_stack(F.linear, rng.normal(size=(n, f)), rng.normal(size=(m, f)),
                         rng.normal(size=m), rng.normal(size=(n, m)))


@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_rate_bits_batch_equals_windows(n, dims, seed):
    rng = np.random.default_rng(seed)
    density = FactorizedDensity(dims, RngState(seed))
    for p in density.parameters():
        p.data = p.data + rng.normal(0.0, 0.3, size=p.data.shape)
    z = rng.normal(0.0, 3.0, size=(dims, n))

    def rate_and_grads(values):
        for p in density.parameters():
            p.zero_grad()
        tz = leaf(values)
        rate = density.rate_bits(tz)
        value = rate.item()
        backward(rate)
        return value, tz.grad, [p.grad for p in density.parameters()]

    rate, gz, gp = rate_and_grads(z)
    singles = [rate_and_grads(z[:, i]) for i in range(n)]
    np.testing.assert_allclose(rate, sum(s[0] for s in singles), **TOL)
    np.testing.assert_allclose(gz, np.stack([s[1] for s in singles], axis=1), **TOL)
    for i, g in enumerate(gp):
        np.testing.assert_allclose(g, sum(s[2][i] for s in singles), **TOL)


def toy_model(**kw):
    cfg = dict(input_channels=2, window_length=16, blocks=2, channel_width=4,
               latent_dim=8)
    cfg.update(kw)
    return TcnAutoencoder(TcnConfig(**cfg), seed=5)


class TestBackwardFreesGraph:
    def test_only_leaves_keep_gradients(self):
        model = toy_model()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2, 16))
        x_hat, x_tilde, rate = model.forward_train_with_noise(
            x, rng.uniform(-0.5, 0.5, size=(3, 8)))
        loss = rdo_loss(Tensor(x), x_hat, x_tilde, rate, LossWeights(7.0, 3.0))
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        ops = [n for n in nodes.values() if n._backward_fn is not None]
        assert len(ops) > 20
        backward(loss)
        assert all(p.grad is not None for p in model.parameters())
        assert all(n.grad is None for n in ops)
        assert all(n._backward_fn is None and n._parents == () for n in ops)

    def test_batch_gradient_is_mean_of_window_gradients(self):
        """rdo_loss of a batch is the mean of its windows' losses."""
        model = toy_model()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2, 16))
        noise = rng.uniform(-0.5, 0.5, size=(3, 8))
        weights = LossWeights(7.0, 3.0)

        def grads(xs, ns):
            for p in model.parameters():
                p.zero_grad()
            for xi, ni in zip(xs, ns):
                x_hat, x_tilde, rate = model.forward_train_with_noise(xi, ni)
                loss = rdo_loss(Tensor(xi), x_hat, x_tilde, rate, weights)
                backward(F.scale(loss, 1.0 if xi.ndim == 3 else 1.0 / 3))
            return [p.grad.copy() for p in model.parameters()]

        for batched, windows in zip(grads([x], [noise]), grads(x, noise)):
            np.testing.assert_allclose(batched, windows, rtol=1e-10, atol=1e-12)


class TestInferenceBuildsNoGraph:
    @pytest.mark.parametrize("bottleneck", [True, False])
    def test_batched_forward_eval_has_no_graph(self, bottleneck):
        model = toy_model(bottleneck_enabled=bottleneck)
        x = np.random.default_rng(3).normal(size=(4, 2, 16))
        out = model.forward_eval(x)
        assert out.shape == (4, 2, 16)
        assert out._parents == () and out._backward_fn is None
        assert not out.requires_grad
        for n in range(4):
            np.testing.assert_allclose(out.data[n], model.forward_eval(x[n]).data, **TOL)

    def test_op_nodes_built_during_inference(self, monkeypatch):
        model = toy_model()
        x = np.random.default_rng(3).normal(size=(4, 2, 16))
        built = []
        original = Tensor.__init__

        def counting(obj, data, requires_grad=False, _parents=(), _backward_fn=None):
            built.append(bool(_parents))
            original(obj, data, requires_grad, _parents, _backward_fn)

        monkeypatch.setattr(Tensor, "__init__", counting)
        model.forward_eval(x)
        symbols = model.latent_symbols(x)
        assert built and not any(built)
        assert symbols.shape == (4, 8) and symbols.dtype == np.int64
        # the switch is back on afterwards: training still builds a graph
        _, _, rate = model.forward_train(x, RngState(1))
        assert rate._backward_fn is not None and any(built)


class TestDeadTaps:
    """At T=8, d=4, K=3 tap 0 is shifted by (K-1)*d = 8 = T: it reads only
    padding. Skipping it changes no output and no gradient."""

    T, D = 8, 4

    def all_taps(self, k, dilation, t_len):
        return [(j, (k - 1 - j) * dilation) for j in range(k)]

    def results(self, op, w_shape):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, self.T))
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[1] if op is F.causal_transposed_conv1d
                       else w_shape[0])
        g = rng.normal(size=(2, len(b), self.T))
        return run_op(op, x, w, b, self.D, grad_out=g), x, w, b

    @pytest.mark.parametrize("op,w_shape", [(F.causal_conv1d, (4, 3, 3)),
                                            (F.causal_transposed_conv1d, (3, 4, 3))])
    def test_skip_changes_nothing(self, monkeypatch, op, w_shape):
        assert [j for j, _ in F._live_taps(3, self.D, self.T)] == [1, 2]
        skipped, x, w, b = self.results(op, w_shape)
        monkeypatch.setattr(F, "_live_taps", self.all_taps)
        full, _, _, _ = self.results(op, w_shape)
        for a, c in zip(skipped, full):
            np.testing.assert_array_equal(a, c)
        assert np.all(skipped[2][:, :, 0] == 0.0)
        if op is F.causal_conv1d:
            for n in range(2):
                np.testing.assert_allclose(skipped[0][n],
                                           conv_oracle(x[n], w, b, self.D), **TOL)


def test_forward_train_draws_one_batch_of_noise():
    """(N, latent_dim) noise in one draw is the stream of N per-window draws."""
    a, b = RngState(21), RngState(21)
    batch = a.uniform(-0.5, 0.5, size=(5, 8))
    assert np.array_equal(batch, np.stack([b.uniform(-0.5, 0.5, size=8)
                                           for _ in range(5)]))
    model = toy_model()
    drawn = []
    model.forward_train_with_noise = lambda x, noise: drawn.append(noise)
    model.forward_train(np.zeros((5, 2, 16)), RngState(21))
    assert np.array_equal(drawn[0], batch)
