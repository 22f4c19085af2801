"""Data handling: labeled multichannel CSV ingestion, normalization,
windowing, the unlabeled-training-corpus protocol, and a seeded synthetic
corpus generator for desk-scale experiments.

The benchmark layout this follows: each set starts with a normal region and
anomalies appear later, so the "normal portion" of a training set is the
maximal prefix before its first anomalous label.

`window` is the one window cutter: a read-only strided view of a series at
every stride-th offset, so the stride-1 stream holds no copy per window.
`build_training_corpus` takes its offsets from the same helper and copies
only the windows it picks, once. `normalize` is the one z-score.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ParseError
from .numerics import RngState

STD_FLOOR = 1e-8


@dataclass
class LabeledSeries:
    set_id: str
    channels: np.ndarray          # (C, N) float64
    timestamps: list              # length N
    labels: np.ndarray            # (N,) int binary
    clean: np.ndarray = None      # (C, N) synthetic ground truth, if known

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.channels.ndim != 2:
            raise ContractError("channels must be (C, N)")
        if self.labels.shape != (self.channels.shape[1],):
            raise ContractError("labels must match the series length")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ContractError("labels must be binary")

    @property
    def n_channels(self):
        return self.channels.shape[0]

    @property
    def length(self):
        return self.channels.shape[1]

    def normal_prefix_length(self):
        anomalous = np.flatnonzero(self.labels)
        return int(anomalous[0]) if anomalous.size else self.length


@dataclass
class WindowBatch:
    """Model-ready windows. Carries provenance for bookkeeping only; label
    data never enters this structure."""

    windows: np.ndarray           # (n, C, T)
    source_ids: list = field(default_factory=list)
    offsets: list = field(default_factory=list)

    def __len__(self):
        return self.windows.shape[0]


@dataclass
class CorpusSplit:
    train: WindowBatch
    validation: list              # full labeled series
    train_ids: list
    validation_ids: list
    anomaly_fraction: float       # requested p
    achieved_fraction: float
    seed: int
    channel_mean: np.ndarray
    channel_std: np.ndarray

    def manifest(self):
        return {
            "train_ids": list(self.train_ids),
            "validation_ids": list(self.validation_ids),
            "anomaly_fraction": self.anomaly_fraction,
            "achieved_fraction": self.achieved_fraction,
            "seed": self.seed,
            "channel_mean": self.channel_mean.tolist(),
            "channel_std": self.channel_std.tolist(),
            "n_train_windows": len(self.train),
        }


def load_series(path, delimiter=",", timestamp_column="datetime",
                label_columns=("anomaly",), set_id=None):
    """Parse one delimited file into a LabeledSeries.

    Feature columns are every non-label, non-timestamp column, in header
    order. The first entry of label_columns is the anomaly label; the rest
    are recognized and dropped. The file must be UTF-8. Malformed content,
    a nan or inf cell or an undecodable byte included, raises ParseError
    with the offending line number.
    """
    path = str(path)
    label_columns = tuple(label_columns)
    if not label_columns:
        raise ContractError("need at least one label column name")
    with open(path, "rb") as fh:
        raw_bytes = fh.read()
    try:
        text = raw_bytes.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw_bytes.count(b"\n", 0, e.start) + 1
        raise ParseError(f"{path}:{line}: byte {e.start} is not UTF-8 "
                         f"({e.reason})") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        anomaly_col = label_columns[0]
        if anomaly_col not in header:
            raise ParseError(f"{path}: missing label column {anomaly_col!r}")
        skip = set(label_columns)
        ts_idx = None
        if timestamp_column is not None and timestamp_column in header:
            ts_idx = header.index(timestamp_column)
            skip.add(timestamp_column)
        feature_idx = [i for i, h in enumerate(header) if h not in skip]
        feature_names = [header[i] for i in feature_idx]
        if not feature_idx:
            raise ParseError(f"{path}: no feature columns found")
        anomaly_idx = header.index(anomaly_col)

        rows, labels, timestamps = [], [], []
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: ragged row with {len(raw)} cells, "
                    f"expected {len(header)}")
            row = []
            for i in feature_idx:
                try:
                    v = float(raw[i])
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise ParseError(
                        f"{path}:{lineno}: value {raw[i]!r} in column "
                        f"{header[i]!r} is not a finite number")
                row.append(v)
            rows.append(row)
            label_raw = raw[anomaly_idx].strip()
            try:
                label_val = float(label_raw)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: non-numeric label {label_raw!r}") from None
            if label_val not in (0.0, 1.0):
                raise ParseError(
                    f"{path}:{lineno}: label in column {anomaly_col!r} must be "
                    f"0 or 1, got {label_raw!r}")
            labels.append(int(label_val))
            timestamps.append(raw[ts_idx] if ts_idx is not None else str(lineno - 2))

    if not rows:
        raise ParseError(f"{path}: no data rows")
    channels = np.asarray(rows, dtype=np.float64).T
    series = LabeledSeries(set_id=set_id or path, channels=channels,
                           timestamps=timestamps,
                           labels=np.asarray(labels, dtype=np.int64))
    series.feature_names = feature_names
    return series


def normalize(train_series, other_series=()):
    """Z-score every series with the per-channel mean and std of the
    training split only; a constant channel's std is floored at STD_FLOOR,
    with a warning. Returns (train, other, (mean, std))."""
    stacked = np.concatenate([s.channels for s in train_series], axis=1)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    constant = std < STD_FLOOR
    if np.any(constant):
        warnings.warn(
            f"channels {np.flatnonzero(constant).tolist()} are constant; "
            f"std floored at {STD_FLOOR}")
    std = np.maximum(std, STD_FLOOR)
    m, sd = mean[:, None], std[:, None]
    train_out, other_out = (
        [LabeledSeries(set_id=s.set_id, channels=(s.channels - m) / sd,
                       timestamps=list(s.timestamps), labels=s.labels.copy(),
                       clean=None if s.clean is None else (s.clean - m) / sd)
         for s in group] for group in (train_series, other_series))
    return train_out, other_out, (mean, std)


def _window_offsets(length, window_length, stride):
    """Offsets 0, stride, 2*stride, ... of the windows within `length`."""
    if stride < 1:
        raise ContractError(f"window stride {stride} must be at least 1")
    return np.arange(0, length - window_length + 1, stride)


def window(series, window_length=200, stride=10):
    """Every window of one LabeledSeries at offsets 0, stride, 2*stride, ...:
    a read-only (n, C, T) strided view of its channels, not a copy."""
    if series.length < window_length:
        raise ContractError(f"series of length {series.length} is shorter "
                            f"than the window {window_length}")
    offsets = _window_offsets(series.length, window_length, stride).tolist()
    view = sliding_window_view(series.channels, window_length, axis=1)
    return WindowBatch(view[:, ::stride].swapaxes(0, 1),
                       [series.set_id] * len(offsets), offsets)


def label_counts(labels, starts, length):
    """Labeled samples in labels[o: o + length] for each o in the array
    `starts` (any shape), from one cumulative sum."""
    csum = np.concatenate([[0], np.cumsum(labels)])
    return csum[starts + length] - csum[starts]


def build_training_corpus(sets, p, seed, window_length=200, stride=10,
                          n_validation=5, min_anomalous_fraction=0.0):
    """Assemble the unlabeled training corpus and the labeled validation split.

    Validation: a seeded draw of n_validation anomaly-containing sets, kept
    whole and labeled. Training: every other set contributes all windows
    from its normal prefix, plus anomalous-region windows sampled (without
    replacement until the pool is exhausted, then with replacement) so they
    make up fraction p of the corpus. A window qualifies as anomalous-region
    when more than max(1, min_anomalous_fraction * T) of its samples carry
    the anomaly label. All labels are dropped from the training side and
    the window order is shuffled.
    """
    if not 0.0 <= p <= 0.25:
        raise ContractError(f"anomaly fraction {p} outside [0, 0.25]")
    if n_validation < 0:
        raise ContractError(f"n_validation {n_validation} must not be negative")
    if len(sets) <= n_validation:
        raise ContractError(
            f"need more than {n_validation} sets, got {len(sets)}")
    n_channels = {s.n_channels for s in sets}
    if len(n_channels) != 1:
        raise ContractError(f"inconsistent channel counts across sets: {n_channels}")
    rng = RngState(seed)
    split_rng = rng.spawn("split")
    sample_rng = rng.spawn("anomaly-sample")
    shuffle_rng = rng.spawn("shuffle")

    with_anomalies = [i for i, s in enumerate(sets) if s.labels.any()]
    if len(with_anomalies) < n_validation:
        raise ContractError(
            f"only {len(with_anomalies)} sets contain anomalies; "
            f"cannot hold out {n_validation}")
    pick = split_rng.choice(len(with_anomalies), size=n_validation, replace=False)
    validation_idx = sorted(with_anomalies[int(j)] for j in np.atleast_1d(pick))
    train_idx = [i for i in range(len(sets)) if i not in validation_idx]

    raw_train = [sets[i] for i in train_idx]
    raw_val = [sets[i] for i in validation_idx]
    train_sets, val_sets, (mean, std) = normalize(raw_train, raw_val)

    min_count = max(1, int(round(min_anomalous_fraction * window_length)))
    normal, pool = [], []     # (index into train_sets, window offset) pairs
    for k, s in enumerate(train_sets):
        prefix = _window_offsets(s.normal_prefix_length(), window_length, stride)
        normal += [(k, o) for o in prefix.tolist()]
        starts = _window_offsets(s.length, window_length, stride)
        counts = label_counts(s.labels, starts, window_length)
        pool += [(k, o) for o in starts[counts >= min_count].tolist()]

    if not normal:
        raise ContractError("no normal-prefix windows available for training")
    n_anom = int(round(p * len(normal) / (1.0 - p))) if p > 0 else 0
    if p > 0 and not pool:
        raise ContractError("p > 0 but no anomalous windows are available")

    chosen = []
    if n_anom > 0:
        pool_n = len(pool)
        chosen = sample_rng.choice(pool_n, size=min(n_anom, pool_n),
                                   replace=False).tolist()
        if n_anom > pool_n:
            chosen += sample_rng.choice(pool_n, size=n_anom - pool_n,
                                        replace=True).tolist()

    picked = normal + [pool[i] for i in chosen]
    picked = [picked[i] for i in shuffle_rng.permutation(len(picked))]
    batch = WindowBatch(
        windows=np.stack([train_sets[k].channels[:, o: o + window_length]
                          for k, o in picked]),
        source_ids=[train_sets[k].set_id for k, _ in picked],
        offsets=[o for _, o in picked])
    achieved = len(chosen) / len(picked)

    return CorpusSplit(train=batch, validation=val_sets,
                       train_ids=[sets[i].set_id for i in train_idx],
                       validation_ids=[sets[i].set_id for i in validation_idx],
                       anomaly_fraction=p, achieved_fraction=achieved,
                       seed=seed, channel_mean=mean, channel_std=std)


ANOMALY_TYPES = ("level_shift", "variance_burst", "frequency_change")


@dataclass(frozen=True)
class SynthConfig:
    channels: int = 8
    n_sets: int = 8
    length: int = 2000
    latent_components: int = 3
    noise_std: float = 0.1
    normal_prefix_fraction: float = 0.55
    anomaly_rate: float = 0.15
    anomaly_types: tuple = ANOMALY_TYPES      # a kind may repeat to weight it
    level_shift_sigma: float = 5.0
    variance_factor: float = 4.0
    frequency_factor: float = 2.5

    def __post_init__(self):
        if min(self.channels, self.n_sets, self.length,
               self.latent_components) < 1:
            raise ContractError("channels, n_sets, length and "
                                "latent_components must be at least 1")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ContractError("noise_std must be finite and non-negative")
        if not (0 <= self.normal_prefix_fraction <= 1
                and 0 <= self.anomaly_rate <= 1):
            raise ContractError("normal_prefix_fraction and anomaly_rate "
                                "must lie in [0, 1]")
        unknown = set(self.anomaly_types) - set(ANOMALY_TYPES)
        if not self.anomaly_types or unknown:
            raise ContractError(f"anomaly_types must be a non-empty list of "
                                f"{list(ANOMALY_TYPES)}, got "
                                f"{list(self.anomaly_types)}")

    def to_dict(self):
        d = dict(self.__dict__)
        d["anomaly_types"] = list(self.anomaly_types)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "anomaly_types" in d:
            d["anomaly_types"] = tuple(d["anomaly_types"])
        return cls(**d)


def synth_corpus(config, seed):
    """Generate correlated quasi-periodic multichannel sets with labeled
    injected anomalies.

    All sets come from one simulated system: the latent frequencies and the
    channel mixing are drawn once per corpus, while phases and a small
    frequency jitter vary per set. Each set stays normal for a prefix, then
    anomaly intervals are injected until the configured rate is reached.
    """
    base = RngState(seed).spawn("synth")
    n, c, m = config.length, config.channels, config.latent_components
    corpus_freqs = base.uniform(0.004, 0.02, size=m)
    mixing = base.uniform(-1.0, 1.0, size=(c, m))
    # keep every channel alive
    mixing += 0.2 * np.sign(mixing + 1e-12)
    sets = []
    stamps = [str(i) for i in range(n)]
    t = np.arange(n)
    for si in range(config.n_sets):
        rng = base.spawn(f"set{si}")
        freqs = corpus_freqs * rng.uniform(0.98, 1.02, size=m)
        phases = rng.uniform(0, 2 * np.pi, size=m)
        latents = np.sin(2 * np.pi * freqs[:, None] * t[None, :] + phases[:, None])
        x = mixing @ latents + rng.normal(0.0, config.noise_std, size=(c, n))
        clean = x.copy()
        sigma_c = x.std(axis=1)

        labels = np.zeros(n, dtype=np.int64)
        prefix = int(round(config.normal_prefix_fraction * n))
        target = int(round(config.anomaly_rate * (n - prefix)))
        placed = 0
        attempts = 0
        while placed < target and attempts < 200:
            attempts += 1
            duration = int(rng.integers(40, 121))
            if prefix + duration >= n:
                break
            start = int(rng.integers(prefix, n - duration))
            if labels[max(0, start - 10): start + duration + 10].any():
                continue
            kind = config.anomaly_types[int(rng.integers(0, len(config.anomaly_types)))]
            sl = slice(start, start + duration)
            if kind != "frequency_change":   # the channels it hits
                mask = rng.uniform(0, 1, size=c) < 0.6
                if not mask.any():
                    mask[int(rng.integers(0, c))] = True
            if kind == "level_shift":
                sign = np.where(rng.uniform(0, 1, size=c) < 0.5, -1.0, 1.0)
                shift = config.level_shift_sigma * sigma_c * sign * mask
                x[:, sl] += shift[:, None]
            elif kind == "variance_burst":
                burst_std = 0.5 * config.variance_factor * sigma_c * mask
                x[:, sl] += rng.normal(0.0, 1.0, size=(c, duration)) * burst_std[:, None]
            else:   # frequency_change
                seg_t = np.arange(start, start + duration)
                warped = np.sin(2 * np.pi * (config.frequency_factor * freqs[:, None])
                                * seg_t[None, :] + phases[:, None])
                x[:, sl] = mixing @ warped + rng.normal(
                    0.0, config.noise_std, size=(c, duration))
            labels[sl] = 1
            placed += duration
        sets.append(LabeledSeries(
            set_id=f"synth-{si:02d}", channels=x,
            timestamps=list(stamps), labels=labels, clean=clean))
    return sets


def write_series_csv(series, path, delimiter=","):
    """Persist a LabeledSeries in the same layout load_series reads."""
    c = series.n_channels
    header = ["datetime"] + [f"ch{i}" for i in range(c)] + ["anomaly"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        for j in range(series.length):
            row = [series.timestamps[j]]
            row += [repr(float(v)) for v in series.channels[:, j]]
            row.append(str(int(series.labels[j])))
            writer.writerow(row)
