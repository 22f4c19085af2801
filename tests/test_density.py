"""Entropy-model tests: CDF validity, quantization, rate estimation."""

import numpy as np
import pytest

from lossyad.numerics import RngState, Tensor, backward, functional as F
from lossyad.bottleneck import FactorizedDensity, QuantizerMode, quantize, round_half_away

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


class TestQuantize:
    def test_round_half_away_from_zero(self):
        y = Tensor(np.array([1.4, -1.5, 1.5, -2.4, 0.0]))
        z = quantize(y, QuantizerMode.ROUND)
        np.testing.assert_array_equal(z.data, [1.0, -2.0, 2.0, -2.0, 0.0])

    def test_noise_support_bound(self):
        rng = RngState(5)
        y = Tensor(np.linspace(-3, 3, 1000))
        z = quantize(y, QuantizerMode.NOISE, rng)
        assert np.all(np.abs(z.data - y.data) <= 0.5)

    def test_noise_reproducible_with_fixed_seed(self):
        y = Tensor(np.linspace(-3, 3, 64))
        z1 = quantize(y, QuantizerMode.NOISE, RngState(17))
        z2 = quantize(y, QuantizerMode.NOISE, RngState(17))
        assert np.array_equal(z1.data, z2.data)

    def test_noise_gradient_is_identity(self):
        y = Tensor(np.ones(8), requires_grad=True)
        z = quantize(y, QuantizerMode.NOISE, RngState(2))
        backward(F.rsum(z))
        np.testing.assert_array_equal(y.grad, np.ones(8))

    def test_noise_mean_near_zero(self):
        rng = RngState(11)
        n = 10 ** 5
        y = Tensor(np.zeros(n))
        z = quantize(y, QuantizerMode.NOISE, rng)
        sigma = 1.0 / np.sqrt(12.0 * n)
        assert abs(float(np.mean(z.data - y.data))) < 3.0 * sigma


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


def test_round_half_away_helper():
    np.testing.assert_array_equal(
        round_half_away(np.array([0.5, -0.5, 2.5, -2.5])), [1.0, -1.0, 3.0, -3.0])
