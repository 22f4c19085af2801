"""Entropy-model tests: CDF validity, quantization, rate estimation."""

import numpy as np
import pytest

from lossyad.model import TcnAutoencoder, TcnConfig
from lossyad.numerics import RngState, Tensor, backward
from lossyad.bottleneck import FactorizedDensity, quantize, round_half_away

from oracles import finite_diff_grad, max_rel_error


def cdf(d, u):
    """Cumulative of every dimension at each value of the 1-D array u."""
    u = np.asarray(u, dtype=np.float64)
    return d.cumulative_grid(np.broadcast_to(u, (d.dims, u.size)).copy()).data


def make_density(dims=4, seed=0, perturb=0.0):
    rng = RngState(seed)
    d = FactorizedDensity(dims, rng=rng)
    if perturb:
        for p in d.parameters():
            p.data += rng.normal(0.0, perturb, size=p.data.shape)
    return d


class TestCumulative:
    def test_saturates_in_the_tails(self):
        d = make_density()
        c = cdf(d, [20.0 * d.init_scale, -20.0 * d.init_scale])
        assert np.all(c[:, 0] > 0.99)
        assert np.all(c[:, 1] < 0.01)

    def test_monotone_on_random_pairs(self):
        d = make_density(perturb=0.3, seed=3)
        rng = np.random.default_rng(1)
        u = np.sort(rng.uniform(-30, 30, size=(1000, 2)), axis=1)
        c = cdf(d, u.reshape(-1)).reshape(d.dims, 1000, 2)
        assert np.all(c[:, :, 0] <= c[:, :, 1])

    def test_centered_at_zero_when_initialized(self):
        for seed in range(5):
            d = make_density(seed=seed)
            assert np.all(np.abs(cdf(d, [0.0]) - 0.5) < 0.05)

    def test_monotone_on_dense_grid_even_after_perturbation(self):
        d = make_density(dims=3, seed=9, perturb=1.0)
        grid = np.linspace(-60, 60, 1000)
        cdf = d.cumulative_grid(np.broadcast_to(grid, (3, 1000)).copy()).data
        assert np.all(np.diff(cdf, axis=1) >= -1e-12)
        assert np.all(cdf >= 0.0) and np.all(cdf <= 1.0)


def toy_model():
    return TcnAutoencoder(TcnConfig(input_channels=2, window_length=16, blocks=2,
                                    channel_width=4, latent_dim=8), seed=1)


def drawn_noise(rng, calls):
    """The quantization noise forward_train draws from rng, `calls` times,
    captured by stubbing the pass it hands the noise to."""
    model = toy_model()
    drawn = []
    model.forward_train_with_noise = lambda x, noise: drawn.append(noise)
    for _ in range(calls):
        model.forward_train(None, rng)
    assert all(d.shape == (8,) for d in drawn)
    return np.concatenate(drawn)


class TestQuantize:
    def test_round_half_away_from_zero(self):
        y = Tensor(np.array([1.4, -1.5, 1.5, -2.4, 0.0]))
        z = quantize(y)
        np.testing.assert_array_equal(z.data, [1.0, -2.0, 2.0, -2.0, 0.0])

    def test_noise_support_bound(self):
        noise = drawn_noise(RngState(5), 125)
        assert np.all(np.abs(noise) <= 0.5)

    def test_noise_reproducible_with_fixed_seed(self):
        assert np.array_equal(drawn_noise(RngState(17), 8),
                              drawn_noise(RngState(17), 8))
        model = toy_model()
        x = np.random.default_rng(0).normal(size=(2, 16))
        drawn = model.forward_train(x, RngState(17))
        pinned = model.forward_train_with_noise(
            x, RngState(17).uniform(-0.5, 0.5, size=8))
        for a, b in zip(drawn, pinned):
            assert a.data.tobytes() == b.data.tobytes()

    def test_noise_gradient_is_identity(self):
        model = toy_model()
        rate_of = model.density.rate_bits
        latents = []
        model.density.rate_bits = lambda z: latents.append(z) or rate_of(z)
        x = np.random.default_rng(1).normal(size=(3, 2, 16))
        _, _, rate = model.forward_train(x, RngState(2))
        # the rate reads z transposed to (dims, N); z = y + noise
        (z,) = latents[0]._parents
        y, noise = z._parents
        np.testing.assert_array_equal(
            noise.data, RngState(2).uniform(-0.5, 0.5, size=(3, 8)))
        # backward frees op-node gradients, so record what reaches y and z
        reached = {}
        for name, node in (("y", y), ("z", z)):
            def spy(g, name=name, fn=node._backward_fn):
                reached[name] = reached.get(name, 0.0) + g
                fn(g)
            node._backward_fn = spy
        backward(rate)
        assert y.grad is None and z.grad is None
        # y also feeds the clean decode, which the rate does not reach
        np.testing.assert_array_equal(reached["y"], reached["z"])
        assert np.any(reached["z"] != 0.0)

    def test_noise_mean_near_zero(self):
        n = 10 ** 5
        noise = drawn_noise(RngState(11), n // 8)
        sigma = 1.0 / np.sqrt(12.0 * n)
        assert abs(float(np.mean(noise))) < 3.0 * sigma


class TestLikelihood:
    def test_floor_in_far_tail(self):
        d = make_density()
        z = Tensor(np.full(d.dims, 1e5))
        p = d.likelihood(z)
        np.testing.assert_array_equal(p.data, np.full(d.dims, d.likelihood_floor))

    def test_integer_grid_mass_bounded(self):
        d = make_density(perturb=0.5, seed=7)
        ks = np.arange(-100, 101, dtype=np.float64)
        grid = np.broadcast_to(ks, (d.dims, ks.size)).copy()
        p = d.likelihood(Tensor(grid)).data
        totals = p.sum(axis=1)
        assert np.all(totals <= 1.0 + 1e-6)

    def test_equals_cdf_difference(self):
        d = make_density(seed=2)
        z = np.array([0.3, -1.2, 2.0, 0.0])
        p = d.likelihood(Tensor(z)).data
        direct = (d.cumulative_grid(z + 0.5).data
                  - d.cumulative_grid(z - 0.5).data)
        for i in range(d.dims):
            assert abs(p[i] - max(direct[i], d.likelihood_floor)) < 1e-12

    def test_values_in_unit_interval(self):
        d = make_density(perturb=0.8, seed=4)
        rng = np.random.default_rng(0)
        p = d.likelihood(Tensor(rng.uniform(-50, 50, size=d.dims))).data
        assert np.all(p >= d.likelihood_floor)
        assert np.all(p <= 1.0)


class TestRateBits:
    def test_matches_log_identity(self):
        d = make_density(seed=6)
        z = np.array([0.1, -0.7, 1.3, 0.4])
        rate = d.rate_bits(Tensor(z)).item()
        p = d.likelihood(Tensor(z)).data
        assert abs(rate - (-np.log2(np.prod(p)))) < 1e-10
        assert rate >= 0.0

    def test_half_likelihood_gives_one_bit_each(self):
        # Direct check of the formula on a frozen probability vector.
        p = np.full(8, 0.5)
        assert abs(float((-np.log2(p)).sum()) - 8.0) < 1e-12

    def test_certain_symbol_is_free(self):
        p = np.ones(5)
        assert float((-np.log2(p)).sum()) == 0.0

    def test_gradient_wrt_z_and_parameters(self):
        d = make_density(dims=3, seed=8, perturb=0.2)
        z = Tensor(np.array([0.4, -0.9, 1.1]), requires_grad=True)
        params = [z] + d.parameters()

        def loss():
            return d.rate_bits(z)

        for p in params:
            p.zero_grad()
        backward(loss())
        for p in params:
            numeric = finite_diff_grad(lambda: loss().item(), p.data, h=1e-5)
            assert p.grad is not None
            assert max_rel_error(p.grad, numeric) < 1e-4

    def test_rate_is_one_graph_node(self):
        d = make_density(seed=10)
        z = Tensor(np.array([0.4, -0.9, 1.1, 0.0]), requires_grad=True)
        rate = d.rate_bits(z)
        assert rate._parents == (z, *d.parameters())
        assert all(p._backward_fn is None for p in rate._parents)

    def test_values_build_no_graph(self):
        d = make_density(seed=10)
        z = Tensor(np.array([0.4, -0.9, 1.1, 0.0]), requires_grad=True)
        for out in (d.likelihood(z), d.cumulative_grid(z)):
            assert out._parents == () and not out.requires_grad

    def test_floored_far_tail_gradient_points_to_the_mode(self):
        # At |z| = 300 the likelihood is about 1e-14, below the 1e-9 floor,
        # yet the gradient must still pull z back toward the mode.
        d = make_density(seed=8)
        z = Tensor(np.array([300.0, -300.0, 300.0, -300.0]), requires_grad=True)
        np.testing.assert_array_equal(d.likelihood(z).data, d.likelihood_floor)
        backward(d.rate_bits(z))
        assert np.all(np.sign(z.grad) == np.sign(z.data))
        for p in d.parameters():
            assert np.all(np.isfinite(p.grad))

    def test_gradient_is_zero_where_both_edges_agree(self):
        # Both edge cumulatives are exactly equal when they underflow (far
        # tail) or when a dimension's CDF is flat (its first matrix has a
        # softplus of 0); such a dimension gets no gradient at all.
        d = make_density()
        z = Tensor(np.full(d.dims, 1e5), requires_grad=True)
        backward(d.rate_bits(z))
        np.testing.assert_array_equal(z.grad, np.zeros(d.dims))
        d = make_density(seed=5)
        d.matrices[0].data[0] = -800.0
        z = Tensor(np.array([0.3, -0.2, 1.0, 0.0]), requires_grad=True)
        np.testing.assert_array_equal(d.likelihood(z).data[0], d.likelihood_floor)
        backward(d.rate_bits(z))
        assert z.grad[0] == 0.0 and np.all(z.grad[1:] != 0.0)
        for p in d.parameters():
            np.testing.assert_array_equal(p.grad[0], 0.0)

    def test_per_column_rates_match_vector_rates(self):
        d = make_density(seed=12)
        rng = np.random.default_rng(3)
        batch = rng.uniform(-3, 3, size=(d.dims, 5))
        total = d.rate_bits(Tensor(batch)).item()
        per_col = [d.rate_bits(Tensor(batch[:, j])).item() for j in range(5)]
        assert abs(total - sum(per_col)) < 1e-9


def test_integer_pmf_sums_with_tail_to_one():
    d = make_density(dims=5, seed=13, perturb=0.4)
    pmf, tail = d.integer_pmf(-30, 30)
    totals = pmf.sum(axis=1) + tail
    np.testing.assert_allclose(totals, np.ones(5), atol=1e-9)


def test_integer_pmf_per_dim_supports_are_the_scalar_rows():
    d = make_density(dims=5, seed=14, perturb=0.4)
    lo, hi = np.array([-3, 0, -12, 4, -1]), np.array([2, 0, 7, 9, 30])
    pmf, tail = d.integer_pmf(lo, hi)
    assert pmf.shape == (5, 32)
    # a wider grid may round the CDF stack's matmul differently in the
    # last bit, so the rows agree to rounding, not bit for bit
    for i, width in enumerate(hi - lo + 1):
        row_pmf, row_tail = d.integer_pmf(lo[i], hi[i])
        np.testing.assert_allclose(pmf[i, :width], row_pmf[i], rtol=1e-12, atol=0)
        np.testing.assert_allclose(tail[i], row_tail[i], rtol=1e-12, atol=1e-15)
        assert not pmf[i, width:].any()


def test_round_half_away_helper():
    np.testing.assert_array_equal(
        round_half_away(np.array([0.5, -0.5, 2.5, -2.5])), [1.0, -1.0, 3.0, -3.0])
