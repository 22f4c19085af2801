"""Loss assembly, the channel normalizer, and the training loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericAbort
from .model import TcnAutoencoder, TcnConfig
from .numerics import Adam, RngState, Tensor, backward, functional as F


@dataclass(frozen=True)
class LossWeights:
    """lambda1 weights the input-vs-quantized-reconstruction distortion,
    lambda2 the quantization-induced distortion between the two decodes."""

    lambda1: float = 1.0e5
    lambda2: float = 1.0e5

    def __post_init__(self):
        if not (np.isfinite(self.lambda1) and np.isfinite(self.lambda2)):
            raise ContractError("loss weights must be finite")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ContractError("loss weights must be non-negative")


def rdo_loss(x, x_hat, x_tilde, rate, weights):
    """Rate-distortion training objective, the mean over the N windows of
    an (N, C, T) batch (one (C, T) window is N = 1):
    rate / N + lambda1 * MSE(x, x_hat) + lambda2 * MSE(x_hat, x_tilde),
    where `rate` is the batch's total in bits."""
    n_windows = x.shape[0] if len(x.shape) == 3 else 1
    loss = F.scale(rate, 1.0 / n_windows)
    if weights.lambda1 != 0.0:
        loss = F.add(loss, F.scale(F.mse(x, x_hat), weights.lambda1))
    if weights.lambda2 != 0.0:
        loss = F.add(loss, F.scale(F.mse(x_hat, x_tilde), weights.lambda2))
    return loss


class ChannelNormalizer:
    """Tracks per-channel residual spread and exposes its inverse.

    The running estimate is seeded directly from the first batch, then
    follows an exponential moving average; the inverse is floored so a
    perfectly reconstructed channel yields a large but finite weight.
    """

    decay = 0.99
    floor = 1e-6

    def __init__(self, channels):
        self.channels = channels
        self.sigma = None

    def update(self, residuals):
        """residuals: (n, C, T) batch."""
        arr = np.asarray(residuals, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != self.channels:
            raise ContractError(
                f"residual batch has shape {arr.shape}, expected (n, {self.channels}, T)")
        batch_sigma = arr.transpose(1, 0, 2).reshape(self.channels, -1).std(axis=1)
        if self.sigma is None:
            self.sigma = batch_sigma
        else:
            self.sigma = self.decay * self.sigma + (1.0 - self.decay) * batch_sigma
        return self.omega

    @property
    def omega(self):
        sigma = np.zeros(self.channels) if self.sigma is None else self.sigma
        return 1.0 / np.maximum(sigma, self.floor)


@dataclass
class EpochStats:
    epoch: int
    rate: float
    distortion: float
    reconstruction: float
    total: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)


@dataclass(frozen=True)
class TrainingConfig:
    model: TcnConfig
    weights: LossWeights
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ContractError("batch_size and epochs must be at least 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError("learning_rate must be finite and positive")


def _as_window_array(corpus):
    arr = np.asarray(corpus, dtype=np.float64)
    if arr.ndim != 3:
        raise ContractError(f"corpus must be (n, C, T), got shape {arr.shape}")
    return arr


def fit(corpus, config):
    """Train a model on unlabeled windows.

    Runs seeded shuffled minibatches with additive-noise quantization and
    Adam updates, logging the unscaled loss components per epoch. Each
    minibatch runs in the model's chunks, one graph per chunk. Keeps
    the best-epoch parameters (by training loss) and the final converged
    channel normalizer. A non-finite loss aborts with the last finite
    report attached.
    """
    windows = _as_window_array(corpus)
    cfg = config.model
    n, c, t_len = windows.shape
    if n == 0:
        raise ContractError("corpus has no windows")
    if (c, t_len) != (cfg.input_channels, cfg.window_length):
        raise ContractError(
            f"corpus windows are {c}x{t_len}, model expects "
            f"{cfg.input_channels}x{cfg.window_length}")

    model = TcnAutoencoder(cfg, seed=config.seed)
    rng = RngState(config.seed)
    shuffle_rng = rng.spawn("shuffle")
    noise_rng = rng.spawn("noise")
    bottleneck = cfg.bottleneck_enabled
    params = model.parameters(include_density=bottleneck)
    opt = Adam(params, lr=config.learning_rate)
    normalizer = ChannelNormalizer(cfg.input_channels)
    report = TrainReport()
    weights = config.weights

    best_total = np.inf

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        rate_sum = d1_sum = d2_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start: start + config.batch_size]
            residuals = []
            opt.zero_grad()
            # Backward per chunk keeps one graph alive at a time; weighting
            # each chunk's mean loss by its share of the minibatch
            # accumulates the minibatch-mean gradient.
            for part in model.chunks(len(batch_idx)):
                x = windows[batch_idx[part]]
                if bottleneck:
                    x_hat, x_tilde, rate = model.forward_train(x, noise_rng)
                    loss = rdo_loss(Tensor(x), x_hat, x_tilde, rate, weights)
                    rate_sum += rate.item()
                    d2_sum += _window_mse_sum(x_hat.data, x_tilde.data)
                else:
                    x_hat = model.ae_reconstruct(x)
                    loss = F.mse(Tensor(x), x_hat)
                d1_sum += _window_mse_sum(x, x_hat.data)
                residuals.append(x - x_hat.data)
                if not np.isfinite(loss.item()):
                    raise NumericAbort(
                        f"non-finite loss in epoch {epoch}", last_report=report)
                backward(F.scale(loss, len(x) / len(batch_idx)))
            opt.step()
            normalizer.update(np.concatenate(residuals))

        rate_mean = rate_sum / n
        d1_mean = d1_sum / n
        d2_mean = d2_sum / n
        if bottleneck:
            total = rate_mean + weights.lambda1 * d1_mean + weights.lambda2 * d2_mean
        else:
            total = d1_mean
        report.epochs.append(EpochStats(
            epoch=epoch, rate=rate_mean, distortion=d1_mean, reconstruction=d2_mean,
            total=total, seconds=time.perf_counter() - t0))
        if not np.isfinite(total):
            raise NumericAbort(f"non-finite epoch total in epoch {epoch}",
                               last_report=report)
        if total < best_total:
            best_total = total
            best_params = [p.data.copy() for p in model.parameters()]

    # epochs >= 1 and every total is finite, so epoch 0 set best_params
    for p, snap in zip(model.parameters(), best_params):
        p.data = snap
    model.omega = normalizer.omega   # converged, from the end of training
    return model, report


def _window_mse_sum(a, b):
    """Sum over an (N, C, T) batch of each window's mean squared difference."""
    return float(np.mean((a - b) ** 2, axis=(1, 2)).sum())


def latent_support(model, windows, margin=2):
    """Per-dimension integer support of the rounded latents over a corpus,
    widened by `margin` on both sides (for the entropy codec's tables)."""
    windows = _as_window_array(windows)
    lo = np.full(model.config.latent_dim, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(model.config.latent_dim, np.iinfo(np.int64).min, dtype=np.int64)
    for part in model.chunks(len(windows)):
        sym = model.latent_symbols(windows[part])
        lo = np.minimum(lo, sym.min(axis=0))
        hi = np.maximum(hi, sym.max(axis=0))
    return lo - margin, hi + margin
