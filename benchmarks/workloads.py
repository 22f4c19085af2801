"""The benchmark's workloads, run through lossyad's public API as the CLI
runs it: fit, latent_support, save_checkpoint/load_checkpoint,
evaluate_one_shot, stream_series and the LatentCodec/Bitstream round trip.

Every call into the package goes through a module attribute
(``training.fit``, ``evaluate.stream_series``, ...) so that the traced mode
can wrap it. Each workload has a set-up and a round, which a run repeats
in turn until its time is up; both always make the same calls, so
``attempted`` grows in whole rounds.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import lossyad.data as data
import lossyad.detection as detection
import lossyad.evaluate as evaluate
import lossyad.model as model_mod
import lossyad.training as training
from lossyad.bottleneck import Bitstream
from lossyad.numerics import Tensor, backward

import checks

# The acceptance gate's desk-scale "trend" experiment (tests/test_acceptance.py).
TREND_SYNTH = data.SynthConfig(
    channels=4, n_sets=8, length=1200, latent_components=2, noise_std=0.08,
    normal_prefix_fraction=0.55, anomaly_rate=0.3, level_shift_sigma=6.0,
    anomaly_types=("level_shift", "level_shift", "variance_burst"))
TREND_T = 100
TREND_LAMBDA = 100.0
TREND_GRID = np.arange(0.2, 12.0 + 1e-9, 0.1)
TREND_P = 0.05
TREND_EPOCHS = 2       # enough for every seed's model to beat all-alarm F1
TREND_EVAL_STRIDE = 25
SYNTH_SEED = 1234      # the corpus is fixed; --seed picks split, shuffle, noise
CS_LIMIT = 0.85
CODEC_REPEATS = 5      # the round trip takes milliseconds; time it 5 times

# Half the TrainingConfig default of 32: one 32-window minibatch at the
# default shape peaked at 3.7 GiB RSS, one of 16 peaks at about 1.4 GiB.
DEFAULT_BATCH = 16
DEFAULT_VALIDATION = 5     # cli defaults for data.n_validation
DEFAULT_STREAM_LENGTH = 250  # stride-1 slice of one validation series


@dataclass
class Meter:
    """Timings and operation counts of one run."""

    rates: dict = field(default_factory=lambda: defaultdict(list))
    work: Counter = field(default_factory=Counter)
    setup_s: list = field(default_factory=list)
    bits_per_symbol: list = field(default_factory=list)
    attempted: int = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def timed(self, metric, work, fn, *args, **kwargs):
        """Call fn and record its rate, `work` units per second, under `metric`.

        The heap is collected first, untimed: autodiff graphs are reference
        cycles, and a collection of garbage left by earlier calls would
        otherwise land in whichever call happens to trigger it."""
        self.attempted += 1
        gc.collect()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.rates[metric].append(work / (perf_counter() - t0))
        self.work[metric] += work
        return out


def _trend_training(bottleneck, seed):
    lam = TREND_LAMBDA if bottleneck else 0.0
    model = model_mod.TcnConfig(input_channels=4, window_length=TREND_T, blocks=3,
                                channel_width=8, latent_dim=8,
                                bottleneck_enabled=bottleneck)
    return training.TrainingConfig(
        model=model, weights=training.LossWeights(lam, lam), learning_rate=1e-3,
        batch_size=32, epochs=TREND_EPOCHS, seed=seed)


def _default_training(bottleneck, seed):
    """TrainingConfig defaults for one epoch over one DEFAULT_BATCH minibatch."""
    lam = 1.0e5 if bottleneck else 0.0   # cli defaults for lambda1/lambda2
    return training.TrainingConfig(
        model=model_mod.TcnConfig(bottleneck_enabled=bottleneck),
        weights=training.LossWeights(lam, lam), batch_size=DEFAULT_BATCH,
        epochs=1, seed=seed)


def _eval_windows(sets, t_len, stride):
    return sum(len(range(0, s.length - t_len + 1, stride)) for s in sets)


def _fit(meter, metric, windows, cfg):
    model, report = meter.timed(metric, cfg.epochs * len(windows),
                                training.fit, windows, cfg)
    w = cfg.weights
    checks.check_epoch_decomposition(report.epochs, w.lambda1, w.lambda2,
                                     cfg.model.bottleneck_enabled)
    return model


def _checkpoint(meter, model, windows, ckpt_dir, digests):
    """Save with codec tables and load back, as `lossyad train` then
    `lossyad compress` do; returns the loaded model and its codec. Every
    fit in a run uses one seed, so every checkpoint must be byte-identical:
    `digests` collects them."""
    support = meter.call(training.latent_support, model, windows)
    meter.call(model_mod.save_checkpoint, model, ckpt_dir, codec_support=support)
    digests.add(hashlib.sha256((ckpt_dir / "checkpoint.bin").read_bytes()).digest())
    if len(digests) != 1:
        raise checks.CheckFailed("fitting again with the same seed changed the "
                                 "checkpoint bytes")
    loaded, _, codec = meter.call(model_mod.load_checkpoint, ckpt_dir)
    shutil.rmtree(ckpt_dir)
    return loaded, codec


def _score(meter, model, codec, eval_sets, stream_sets, stride, grid, want_f1):
    """One-shot eval with its delta sweep, stride-1 streams and the lossless
    round trip of every stride-1 latent, each checked."""
    t_len = model.config.window_length
    report, rows = meter.timed(
        "eval_windows_per_s", _eval_windows(eval_sets, t_len, stride),
        evaluate.evaluate_one_shot, model, eval_sets, grid=grid, stride=stride)
    checks.check_one_shot_report(report, rows, grid)
    if want_f1:
        checks.check_beats_all_alarm(report.best_f1, checks.one_shot_baseline(rows),
                                     "one-shot")
    latents = []
    for s in stream_sets:
        n_windows = s.length - t_len + 1
        result = meter.timed("stream_windows_per_s", n_windows,
                             evaluate.stream_series, model, s,
                             delta=report.best_delta, cs_limit=CS_LIMIT)
        checks.check_alarms(result.confidence, result.alarms, CS_LIMIT)
        checks.check_confidence_votes(result.confidence, t_len, n_windows)
        checks.check_stream_f1(result)
        if want_f1:
            checks.check_beats_all_alarm(
                result.multi_shot_f1,
                checks.all_alarm_f1(int(result.labels.sum()), result.labels.size),
                f"multi-shot {s.set_id}")
        latents.extend(model.latent_symbols(s.channels[:, o: o + t_len])
                       for o in range(n_windows))
    symbols = np.stack(latents, axis=1)
    _codec_round_trip(meter, model, codec, symbols)


def _codec_round_trip(meter, model, codec, symbols):
    def round_trip():
        bs = codec.compress(symbols)
        raw = bs.to_bytes()
        back = checks.decoded(
            lambda: codec.decompress(Bitstream.from_bytes(raw)))
        return bs, raw, back

    flat = symbols.reshape(-1, order="F")
    for _ in range(CODEC_REPEATS):
        bs, raw, back = meter.timed("codec_symbols_per_s", symbols.size,
                                    round_trip)
        meter.attempted += 3  # to_bytes, from_bytes, decompress
        checks.check_round_trip(flat, back)
    coded = 8 * len(raw)
    estimated = model.density.rate_bits(symbols.astype(np.float64)).item()
    checks.check_coded_bits(coded, estimated,
                            checks.empirical_entropy_bits(symbols),
                            len(bs.escapes))
    meter.bits_per_symbol.append(coded / symbols.size)


def check_gradient(model, window, weights, seed):
    """Directional finite difference of the RDO loss on one window with
    pinned quantization noise, against the backward pass."""
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-0.5, 0.5, size=model.config.latent_dim)
    params = model.parameters()

    def loss():
        x_hat, x_tilde, rate = model.forward_train_with_noise(window, noise)
        return training.rdo_loss(Tensor(window), x_hat, x_tilde, rate, weights)

    for p in params:
        p.zero_grad()
    backward(loss())
    grads = [p.grad.copy() for p in params]
    # Half gradient direction, half random: the dot product stays far from
    # zero, so a relative tolerance is meaningful.
    g_norm = np.sqrt(sum(float(np.vdot(g, g)) for g in grads))
    noise_dirs = [rng.normal(size=p.data.shape) for p in params]
    r_norm = np.sqrt(sum(float(np.vdot(r, r)) for r in noise_dirs))
    direction = [g / g_norm + r / r_norm for g, r in zip(grads, noise_dirs)]
    originals = [p.data.copy() for p in params]

    def loss_at(t):
        for p, base, d in zip(params, originals, direction):
            p.data = base + t * d
        try:
            return loss().item()
        finally:
            for p, base in zip(params, originals):
                p.data = base

    for p in params:
        p.zero_grad()
    checks.check_directional_derivative(loss_at, grads, direction)


class FitTrend:
    """RDO and AE fit on the acceptance trend corpus at 5% pollution, then
    the CLI's checkpoint and scoring path on the fitted RDO model."""

    name = "fit-trend"
    warmup_rounds = 0

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.digests = set()

    def setup(self, meter):
        sets = meter.call(data.synth_corpus, TREND_SYNTH, SYNTH_SEED)
        self.split = meter.call(
            data.build_training_corpus, sets, p=TREND_P, seed=self.seed,
            window_length=TREND_T, stride=10, n_validation=2,
            min_anomalous_fraction=0.5)

    def round(self, meter):
        windows = self.split.train.windows
        rdo = _fit(meter, "fit_rdo_windows_per_s", windows,
                   _trend_training(True, self.seed))
        _fit(meter, "fit_ae_windows_per_s", windows,
             _trend_training(False, self.seed))
        model, codec = _checkpoint(meter, rdo, windows, self.work_dir / "ckpt",
                                   self.digests)
        val = self.split.validation
        _score(meter, model, codec, val, val[:1], TREND_EVAL_STRIDE, TREND_GRID,
               want_f1=True)
        self.model = model

    def finish(self):
        check_gradient(self.model, self.split.train.windows[0],
                       _trend_training(True, self.seed).weights, self.seed)


class FitDefault:
    """One minibatch of RDO and AE fit at the TcnConfig defaults (what
    `lossyad train` uses) on the SynthConfig default corpus, then the
    checkpoint and scoring path: eval on the validation series, stream and
    codec on a slice of the first."""

    name = "fit-default"
    # The first minibatch in a process runs about 20% slower (5.2-6.1
    # against 6.4-7.8 window-steps/s measured): one round runs untimed.
    warmup_rounds = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.digests = set()

    def setup(self, meter):
        sets = meter.call(data.synth_corpus, data.SynthConfig(), SYNTH_SEED)
        self.split = meter.call(
            data.build_training_corpus, sets, p=0.0, seed=self.seed,
            window_length=model_mod.TcnConfig().window_length, stride=10,
            n_validation=DEFAULT_VALIDATION)
        t_len = model_mod.TcnConfig().window_length
        s = self.split.validation[0]
        # A slice that starts before the first anomaly and reaches into it.
        start = max(0, min(s.normal_prefix_length() - t_len,
                           s.length - DEFAULT_STREAM_LENGTH))
        sl = slice(start, start + DEFAULT_STREAM_LENGTH)
        self.stream_set = data.LabeledSeries(
            set_id=s.set_id, channels=s.channels[:, sl],
            timestamps=s.timestamps[sl], labels=s.labels[sl])

    def round(self, meter):
        batch = self.split.train.windows[:DEFAULT_BATCH]
        rdo = _fit(meter, "fit_rdo_windows_per_s", batch,
                   _default_training(True, self.seed))
        _fit(meter, "fit_ae_windows_per_s", batch,
             _default_training(False, self.seed))
        model, codec = _checkpoint(meter, rdo, batch, self.work_dir / "ckpt",
                                   self.digests)
        t_len = model.config.window_length
        _score(meter, model, codec, self.split.validation, [self.stream_set],
               t_len, detection.default_delta_grid(), want_f1=False)
        self.model = model
        self.batch = batch

    def finish(self):
        check_gradient(self.model, self.batch[0],
                       _default_training(True, self.seed).weights, self.seed)


WORKLOADS = {w.name: w for w in (FitTrend, FitDefault)}
