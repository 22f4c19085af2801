"""Forward-semantics tests for the tensor engine's operations."""

import numpy as np
import pytest

from lossyad.bottleneck import FactorizedDensity
from lossyad.bottleneck.density import _sigmoid
from lossyad.errors import DimensionError, DomainError
from lossyad.numerics import RngState, Tensor, functional as F

from oracles import conv_oracle, tconv_oracle


class TestCausalConv:
    def test_single_channel_kernel2(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        w = np.array([[[1.0, 1.0]]])
        b = np.zeros(1)
        expected = conv_oracle(x, w, b, 1)
        np.testing.assert_array_equal(expected, [[1.0, 3.0, 5.0, 7.0]])
        out = F.causal_conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=1)
        np.testing.assert_allclose(out.data, expected)

    def test_zero_weights_give_bias(self):
        x = np.random.default_rng(0).normal(size=(3, 11))
        w = np.zeros((2, 3, 3))
        b = np.array([1.5, -2.0])
        out = F.causal_conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=2)
        assert np.all(out.data[0] == 1.5)
        assert np.all(out.data[1] == -2.0)

    def test_dilation_skips_inputs(self):
        x = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        w = np.array([[[1.0, 1.0]]])
        b = np.zeros(1)
        expected = conv_oracle(x, w, b, 2)
        np.testing.assert_array_equal(expected, [[1.0, 0.0, 1.0, 0.0, 0.0]])
        out = F.causal_conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=2)
        np.testing.assert_allclose(out.data, expected)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_direct_oracle(self, dilation, k):
        rng = np.random.default_rng(7 * k + dilation)
        x = rng.normal(size=(3, 17))
        w = rng.normal(size=(4, 3, k))
        b = rng.normal(size=4)
        out = F.causal_conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=dilation)
        np.testing.assert_allclose(out.data, conv_oracle(x, w, b, dilation), atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            F.causal_conv1d(Tensor(np.zeros((2, 5))), Tensor(np.zeros((1, 3, 2))),
                            Tensor(np.zeros(1)), dilation=1)

    def test_causality_bit_exact(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 32))
        w = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        base = F.causal_conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=4).data
        for t in [0, 5, 16, 31]:
            xx = x.copy()
            xx[1, t] += 100.0
            pert = F.causal_conv1d(Tensor(xx), Tensor(w), Tensor(b), dilation=4).data
            assert np.array_equal(base[:, :t], pert[:, :t])
            assert not np.array_equal(base[:, t:], pert[:, t:])


class TestTransposedConv:
    def test_adjoint_identity(self):
        # Identical weight array: the transposed op reads its first axis as
        # its own input channels, which are the forward op's output channels.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 8))
        v = rng.normal(size=(2, 8))
        w = rng.normal(size=(2, 2, 2))
        zero2 = np.zeros(2)
        conv_a = F.causal_conv1d(Tensor(a), Tensor(w), Tensor(zero2), dilation=1).data
        tconv_v = F.causal_transposed_conv1d(
            Tensor(v), Tensor(w), Tensor(zero2), dilation=1).data
        lhs = float((conv_a * v).sum())
        rhs = float((a * tconv_v).sum())
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("dilation,k", [(1, 3), (2, 2), (4, 3)])
    def test_adjoint_identity_random(self, dilation, k):
        rng = np.random.default_rng(100 + dilation + k)
        a = rng.normal(size=(3, 20))
        v = rng.normal(size=(5, 20))
        w = rng.normal(size=(5, 3, k))
        conv_a = F.causal_conv1d(Tensor(a), Tensor(w), Tensor(np.zeros(5)),
                                 dilation=dilation).data
        tconv_v = F.causal_transposed_conv1d(
            Tensor(v), Tensor(w), Tensor(np.zeros(3)), dilation=dilation).data
        assert abs((conv_a * v).sum() - (a * tconv_v).sum()) < 1e-10

    def test_zero_weights_give_bias(self):
        out = F.causal_transposed_conv1d(
            Tensor(np.ones((2, 6))), Tensor(np.zeros((2, 3, 2))),
            Tensor(np.array([4.0, 5.0, 6.0])), dilation=1)
        np.testing.assert_array_equal(out.data, np.array([[4.0] * 6, [5.0] * 6, [6.0] * 6]))

    def test_identity_kernel(self):
        x = np.random.default_rng(1).normal(size=(1, 9))
        out = F.causal_transposed_conv1d(
            Tensor(x), Tensor(np.array([[[1.0]]])), Tensor(np.zeros(1)), dilation=1)
        np.testing.assert_array_equal(out.data, x)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 13))
        w = rng.normal(size=(4, 2, 3))
        b = rng.normal(size=2)
        out = F.causal_transposed_conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=2)
        np.testing.assert_allclose(out.data, tconv_oracle(x, w, b, 2), atol=1e-12)


class TestLinear:
    def test_identity_map(self):
        x = np.array([2.0, -1.0, 0.5])
        out = F.linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight(self):
        out = F.linear(Tensor(np.array([9.0, 9.0])), Tensor(np.zeros((2, 2))),
                       Tensor(np.array([3.0, 3.0])))
        np.testing.assert_array_equal(out.data, [3.0, 3.0])

    def test_direct_matvec(self):
        out = F.linear(Tensor(np.array([1.0, 1.0])),
                       Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
                       Tensor(np.zeros(2)))
        expected = np.array([[1.0, 2.0], [3.0, 4.0]]) @ np.array([1.0, 1.0])
        np.testing.assert_array_equal(expected, [3.0, 7.0])
        np.testing.assert_array_equal(out.data, expected)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            F.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(F.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_add_same_shape(self):
        out = F.add(Tensor([1.0, -2.0]), Tensor([0.5, 0.5]))
        np.testing.assert_array_equal(out.data, [1.5, -1.5])

    @pytest.mark.parametrize("shape", [(2, 1), (1,), ()])
    def test_add_rejects_broadcasting(self, shape):
        with pytest.raises(DimensionError):
            F.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(shape)))

    # The density's CDF stack computes sigmoid, softplus and tanh itself.
    def test_sigmoid_symmetry_point(self):
        assert _sigmoid(np.array([0.0]))[0] == 0.5

    def test_exp_log_roundtrip(self):
        # matrices start at softplus^-1 = log(expm1(.)) of 1 / (scale * r_out)
        d = FactorizedDensity(2, rng=RngState(0))
        widths = (1,) + d.filters + (1,)
        scale = d.init_scale ** (1.0 / (len(widths) - 1))
        _, saved = d._logits(np.zeros((2, 1, 3)))
        for (_, positive, _), r_out in zip(saved, widths[1:]):
            np.testing.assert_allclose(positive, 1.0 / (scale * r_out), rtol=1e-14)

    def test_softplus_positive_and_tanh_bounds(self):
        x = np.linspace(-20, 20, 41)
        d = FactorizedDensity(x.size, rng=RngState(0))
        for p in d.matrices + d.factors:
            p.data[...] = x.reshape(-1, 1, 1)
        _, saved = d._logits(np.broadcast_to(x, (x.size, 1, x.size)).copy())
        for _, positive, ta in saved:
            assert np.all(positive > 0)
            if ta is not None:
                assert np.all(np.abs(ta) < 1.0 + 1e-15)


class TestReductions:
    def test_empty_reduction_raises(self):
        with pytest.raises(DomainError):
            F.mse(Tensor(np.zeros(0)), Tensor(np.zeros(0)))


def test_determinism_same_seed_same_outputs():
    from lossyad.numerics import RngState

    def run():
        rng = RngState(91)
        x = rng.normal(size=(3, 16))
        w = rng.normal(size=(4, 3, 3))
        out = F.causal_conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(4)), dilation=2)
        return out.data

    a, b = run(), run()
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()
