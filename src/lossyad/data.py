"""Data handling: labeled multichannel CSV ingestion, normalization,
windowing, the unlabeled-training-corpus protocol, and a seeded synthetic
corpus generator for desk-scale experiments.

The benchmark layout this follows: each set starts with a normal region and
anomalies appear later, so the "normal portion" of a training set is the
maximal prefix before its first anomalous label.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

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
            try:
                rows.append([_finite_float(raw[i]) for i in feature_idx])
            except ValueError:
                bad = next(i for i in feature_idx
                           if not _is_finite_float(raw[i]))
                raise ParseError(
                    f"{path}:{lineno}: value {raw[bad]!r} in column "
                    f"{header[bad]!r} is not a finite number") from None
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


def _finite_float(s):
    """float(s), raising ValueError on nan and +-inf as well."""
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {s!r}")
    return v


def _is_finite_float(s):
    try:
        return math.isfinite(float(s))
    except ValueError:
        return False


def channel_stats(series_list):
    """Per-channel mean and (floored) std over a list of series."""
    stacked = np.concatenate([s.channels for s in series_list], axis=1)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    constant = std < STD_FLOOR
    if np.any(constant):
        warnings.warn(
            f"channels {np.flatnonzero(constant).tolist()} are constant; "
            f"std floored at {STD_FLOOR}")
    return mean, np.maximum(std, STD_FLOOR)


def apply_stats(series, mean, std):
    scaled = (series.channels - mean[:, None]) / std[:, None]
    clean = None
    if series.clean is not None:
        clean = (series.clean - mean[:, None]) / std[:, None]
    out = LabeledSeries(set_id=series.set_id, channels=scaled,
                        timestamps=list(series.timestamps),
                        labels=series.labels.copy(), clean=clean)
    return out


def normalize(train_series, other_series=()):
    """Z-score every series using statistics from the training split only."""
    mean, std = channel_stats(train_series)
    train_out = [apply_stats(s, mean, std) for s in train_series]
    other_out = [apply_stats(s, mean, std) for s in other_series]
    return train_out, other_out, (mean, std)


def window(series, window_length=200, stride=10):
    """Slide a window over one series: offsets 0, stride, 2*stride, ..."""
    channels = series.channels if isinstance(series, LabeledSeries) else \
        np.asarray(series, dtype=np.float64)
    set_id = series.set_id if isinstance(series, LabeledSeries) else "array"
    n = channels.shape[1]
    if n < window_length:
        raise ContractError(
            f"series of length {n} is shorter than the window {window_length}")
    offsets = list(range(0, n - window_length + 1, stride))
    windows = np.stack([channels[:, o: o + window_length] for o in offsets])
    return WindowBatch(windows=windows, source_ids=[set_id] * len(offsets),
                       offsets=offsets)


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
    normal_windows, normal_ids, normal_offsets = [], [], []
    anomalous_pool, pool_ids, pool_offsets = [], [], []
    for s in train_sets:
        prefix = s.normal_prefix_length()
        if prefix >= window_length:
            for o in range(0, prefix - window_length + 1, stride):
                normal_windows.append(s.channels[:, o: o + window_length])
                normal_ids.append(s.set_id)
                normal_offsets.append(o)
        starts = np.arange(0, s.length - window_length + 1, stride)
        counts = label_counts(s.labels, starts, window_length)
        for o in starts[counts >= min_count].tolist():
            anomalous_pool.append(s.channels[:, o: o + window_length])
            pool_ids.append(s.set_id)
            pool_offsets.append(o)

    if not normal_windows:
        raise ContractError("no normal-prefix windows available for training")
    n_normal = len(normal_windows)
    n_anom = int(round(p * n_normal / (1.0 - p))) if p > 0 else 0
    if p > 0 and not anomalous_pool:
        raise ContractError("p > 0 but no anomalous windows are available")

    chosen = []
    if n_anom > 0:
        pool_n = len(anomalous_pool)
        take_wo = min(n_anom, pool_n)
        idx = sample_rng.choice(pool_n, size=take_wo, replace=False)
        chosen.extend(int(i) for i in np.atleast_1d(idx))
        if n_anom > pool_n:
            extra = sample_rng.choice(pool_n, size=n_anom - pool_n, replace=True)
            chosen.extend(int(i) for i in np.atleast_1d(extra))

    windows = normal_windows + [anomalous_pool[i] for i in chosen]
    ids = normal_ids + [pool_ids[i] for i in chosen]
    offsets = normal_offsets + [pool_offsets[i] for i in chosen]
    order = shuffle_rng.permutation(len(windows))
    batch = WindowBatch(
        windows=np.stack([windows[i] for i in order]),
        source_ids=[ids[i] for i in order],
        offsets=[offsets[i] for i in order])
    achieved = len(chosen) / len(windows)

    return CorpusSplit(train=batch, validation=val_sets,
                       train_ids=[sets[i].set_id for i in train_idx],
                       validation_ids=[sets[i].set_id for i in validation_idx],
                       anomaly_fraction=p, achieved_fraction=achieved,
                       seed=seed, channel_mean=mean, channel_std=std)


@dataclass(frozen=True)
class SynthConfig:
    channels: int = 8
    n_sets: int = 8
    length: int = 2000
    latent_components: int = 3
    noise_std: float = 0.1
    normal_prefix_fraction: float = 0.55
    anomaly_rate: float = 0.15
    anomaly_types: tuple = ("level_shift", "variance_burst", "frequency_change")
    level_shift_sigma: float = 5.0
    variance_factor: float = 4.0
    frequency_factor: float = 2.5

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
            if kind == "level_shift":
                mask = rng.uniform(0, 1, size=c) < 0.6
                if not mask.any():
                    mask[int(rng.integers(0, c))] = True
                sign = np.where(rng.uniform(0, 1, size=c) < 0.5, -1.0, 1.0)
                shift = config.level_shift_sigma * sigma_c * sign * mask
                x[:, sl] += shift[:, None]
            elif kind == "variance_burst":
                mask = rng.uniform(0, 1, size=c) < 0.6
                if not mask.any():
                    mask[int(rng.integers(0, c))] = True
                burst_std = 0.5 * config.variance_factor * sigma_c * mask
                x[:, sl] += rng.normal(0.0, 1.0, size=(c, duration)) * burst_std[:, None]
            elif kind == "frequency_change":
                seg_t = np.arange(start, start + duration)
                warped = np.sin(2 * np.pi * (config.frequency_factor * freqs[:, None])
                                * seg_t[None, :] + phases[:, None])
                x[:, sl] = mixing @ warped + rng.normal(
                    0.0, config.noise_std, size=(c, duration))
            else:
                raise ContractError(f"unknown anomaly type {kind!r}")
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
