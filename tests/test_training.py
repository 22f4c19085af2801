"""Losses, channel normalizer, and training-loop behavior."""

import gc

import numpy as np
import pytest

from lossyad.errors import ContractError, NumericAbort
from lossyad.bottleneck.density import FactorizedDensity
from lossyad.model import TcnAutoencoder, TcnConfig
from lossyad.numerics import RngState, Tensor, functional as F
from lossyad.training import (
    ChannelNormalizer, LossWeights, TrainingConfig, fit,
    latent_support, rdo_loss,
)


def toy_model_config(**kw):
    base = dict(input_channels=2, window_length=20, blocks=2, channel_width=4,
                latent_dim=6)
    base.update(kw)
    return TcnConfig(**base)


def toy_train_config(**kw):
    base = dict(model=toy_model_config(), weights=LossWeights(100.0, 100.0),
                learning_rate=1e-3, batch_size=8, epochs=2, seed=0)
    base.update(kw)
    return TrainingConfig(**base)


def toy_corpus(n=10, seed=0, c=2, t_len=20):
    # Smooth correlated signals, learnable at desk scale.
    rng = np.random.default_rng(seed)
    t = np.arange(t_len)
    windows = []
    for _ in range(n):
        phase = rng.uniform(0, 2 * np.pi)
        freq = rng.uniform(0.05, 0.12)
        base = np.sin(2 * np.pi * freq * t + phase)
        rows = [base * rng.uniform(0.5, 1.5) + rng.normal(0, 0.05, size=t_len)
                for _ in range(c)]
        windows.append(np.stack(rows))
    return np.stack(windows)


class TestRdoLoss:
    def test_zero_weights_collapse_to_rate(self):
        rate = Tensor(np.float64(7.5))
        x = Tensor(np.ones((2, 3)))
        out = rdo_loss(x, Tensor(np.zeros((2, 3))), Tensor(np.full((2, 3), 9.0)),
                       rate, LossWeights(0.0, 0.0))
        assert out.item() == 7.5

    def test_zero_distortion_collapses_to_rate(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        rate = Tensor(np.float64(3.25))
        out = rdo_loss(x, x, x, rate, LossWeights(1e5, 1e5))
        assert out.item() == 3.25

    def test_paper_scale_weights_accepted(self):
        w = LossWeights(1.0e5, 1.0e5)
        assert w.lambda1 == w.lambda2 == 1.0e5

    def test_negative_weights_rejected(self):
        with pytest.raises(ContractError):
            LossWeights(-1.0, 0.0)

    def test_additivity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 4)))
        xh = Tensor(rng.normal(size=(2, 4)))
        xt = Tensor(rng.normal(size=(2, 4)))
        rate = Tensor(np.float64(11.0))
        w = LossWeights(3.0, 5.0)
        expected = (11.0 + 3.0 * np.mean((x.data - xh.data) ** 2)
                    + 5.0 * np.mean((xh.data - xt.data) ** 2))
        assert abs(rdo_loss(x, xh, xt, rate, w).item() - expected) < 1e-12


class TestAeLoss:
    def test_matches_degenerate_rdo(self):
        # fit's AE objective, MSE through the bypassed bottleneck, is the
        # RDO loss with zero rate and weights (1, 0)
        m = TcnAutoencoder(toy_model_config(bottleneck_enabled=False), seed=3)
        x = np.random.default_rng(2).normal(size=(2, 20))
        recon = m.ae_reconstruct(x)
        direct = F.mse(Tensor(x), recon).item()
        via_rdo = rdo_loss(Tensor(x), recon, recon, Tensor(np.float64(0.0)),
                           LossWeights(1.0, 0.0)).item()
        assert abs(direct - via_rdo) < 1e-12


class TestChannelNormalizer:
    def test_zero_residuals_clamp_at_floor(self):
        norm = ChannelNormalizer(3)
        omega = norm.update(np.zeros((4, 3, 10)))
        np.testing.assert_array_equal(omega, np.full(3, 1e6))

    def test_ema_fixed_point_at_std_two(self):
        norm = ChannelNormalizer(1)
        pattern = np.tile([2.0, -2.0], 8)[None, None, :]  # population std exactly 2
        for _ in range(3):
            omega = norm.update(pattern)
        np.testing.assert_allclose(omega, [0.5], rtol=1e-12)

    def test_ema_converges_from_elsewhere(self):
        norm = ChannelNormalizer(1)
        norm.update(np.tile([1.0, -1.0], 8)[None, None, :])  # start at std 1
        pattern = np.tile([2.0, -2.0], 8)[None, None, :]
        for _ in range(600):
            omega = norm.update(pattern)
        assert abs(omega[0] - 0.5) < 0.01

    def test_scaled_residuals_near_unit_std(self):
        rng = np.random.default_rng(3)
        sigmas = np.array([0.5, 2.0, 3.0])
        norm = ChannelNormalizer(3)
        for _ in range(300):
            batch = rng.normal(0, sigmas[None, :, None], size=(8, 3, 25))
            norm.update(batch)
        check = rng.normal(0, sigmas[None, :, None], size=(64, 3, 25))
        scaled = check * norm.omega[None, :, None]
        stds = scaled.transpose(1, 0, 2).reshape(3, -1).std(axis=1)
        assert np.all(stds > 0.8) and np.all(stds < 1.25)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(4)
        norm = ChannelNormalizer(2)
        for _ in range(50):
            norm.update(rng.normal(size=(4, 2, 10)))
            assert np.all(norm.omega > 0)


def corpus_loss(model, windows, weights, noise_seed):
    """Mean RDO training loss over a corpus with pinned quantization noise."""
    noise_rng = RngState(noise_seed)
    totals = []
    for w in windows:
        x_hat, x_tilde, rate = model.forward_train(w, noise_rng)
        totals.append(rdo_loss(Tensor(w), x_hat, x_tilde, rate, weights).item())
    return float(np.mean(totals))


class TestFit:
    def test_one_epoch_decreases_loss_most_seeds(self):
        windows = toy_corpus(10, seed=5)
        wins = 0
        for seed in range(10):
            cfg = toy_train_config(epochs=1, seed=seed)
            init_model = TcnAutoencoder(cfg.model, seed=seed)
            before = corpus_loss(init_model, windows, cfg.weights, noise_seed=99)
            model, _ = fit(windows, cfg)
            after = corpus_loss(model, windows, cfg.weights, noise_seed=99)
            wins += after < before
        assert wins >= 9

    def test_ae_mode_never_evaluates_density(self, monkeypatch):
        def boom(self, *a, **kw):
            raise AssertionError("density evaluated in AE mode")

        monkeypatch.setattr(FactorizedDensity, "rate_bits", boom)
        monkeypatch.setattr(FactorizedDensity, "likelihood", boom)
        cfg = toy_train_config(model=toy_model_config(bottleneck_enabled=False),
                               epochs=1)
        model, report = fit(toy_corpus(8), cfg)
        assert report.epochs[0].rate == 0.0

    def test_determinism_bit_identical(self):
        windows = toy_corpus(8, seed=6)
        cfg = toy_train_config(epochs=2, seed=11)
        m1, r1 = fit(windows, cfg)
        m2, r2 = fit(windows, cfg)
        for p, q in zip(m1.parameters(), m2.parameters()):
            assert p.data.tobytes() == q.data.tobytes()
        assert np.array_equal(m1.omega, m2.omega)
        assert [e.total for e in r1.epochs] == [e.total for e in r2.epochs]

    def test_loss_decomposition_additivity(self):
        cfg = toy_train_config(epochs=3, weights=LossWeights(50.0, 25.0))
        _, report = fit(toy_corpus(12, seed=7), cfg)
        for e in report.epochs:
            recomposed = (e.rate + cfg.weights.lambda1 * e.distortion
                          + cfg.weights.lambda2 * e.reconstruction)
            assert abs(e.total - recomposed) < 1e-9
            assert e.rate >= 0.0
            assert e.distortion >= 0.0 and e.reconstruction >= 0.0

    def test_ae_total_is_pure_mse(self):
        cfg = toy_train_config(model=toy_model_config(bottleneck_enabled=False),
                               epochs=2)
        _, report = fit(toy_corpus(8, seed=8), cfg)
        for e in report.epochs:
            assert e.total == e.distortion
            assert e.rate == 0.0 and e.reconstruction == 0.0

    def test_numeric_abort_keeps_last_report(self):
        # Finite but absurdly scaled inputs overflow the squared-error term.
        windows = toy_corpus(8, seed=9) * 1e160
        with pytest.raises(NumericAbort) as err:
            fit(windows, toy_train_config(epochs=2))
        assert err.value.last_report is not None

    def test_wrong_window_shape_rejected(self):
        with pytest.raises(ContractError):
            fit(np.zeros((4, 3, 20)), toy_train_config())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError, match="no windows"):
            fit(np.zeros((0, 2, 20)), toy_train_config())

    @pytest.mark.parametrize("bottleneck", [True, False])
    def test_graphs_are_freed_without_the_cycle_collector(self, bottleneck):
        # Autodiff graphs hold no reference cycles, so reference counting
        # alone frees them: with the collector off, nothing is left for it.
        windows = toy_corpus(8, seed=12)
        cfg = toy_train_config(
            model=toy_model_config(bottleneck_enabled=bottleneck), epochs=1)
        gc.collect()
        gc.disable()
        try:
            model, _ = fit(windows, cfg)   # one minibatch of 8
            model.forward_eval(windows[0])
            model.latent_symbols(windows[0])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_latent_support_covers_observations(self):
        windows = toy_corpus(6, seed=10)
        cfg = toy_train_config(epochs=1)
        model, _ = fit(windows, cfg)
        lo, hi = latent_support(model, windows)
        for w in windows:
            sym = model.latent_symbols(w)
            assert np.all(sym >= lo) and np.all(sym <= hi)
