"""Sliding-window anomaly scoring.

Single-window (1-shot) path: channel-scaled absolute reconstruction error,
per-time maximum over channels, means over consecutive 10-sample subsets,
strict thresholding; its threshold sweep counts F1 per subset. Streaming
(multi-shot) path: per-time votes from stride-1 overlapping windows
accumulate into a confidence score normalized by the number of windows
that can have covered each instant. The scoring
functions take one (C, T) window or an (N, C, T) batch of them; a batch's
results carry the same leading N axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, DomainError

SUBSET_SIZE = 10
DEFAULT_CS_LIMIT = 0.85


def scaled_abs_error(x, x_hat, omega):
    """Per-element omega_c * |x - x_hat|, shape (C, T) or (N, C, T)."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if x.shape != x_hat.shape or x.ndim not in (2, 3):
        raise DimensionError(f"shapes disagree: {x.shape} vs {x_hat.shape}")
    if omega.shape != (x.shape[-2],):
        raise DimensionError(f"omega has shape {omega.shape}, expected ({x.shape[-2]},)")
    if np.any(omega <= 0):
        raise ContractError("omega must be positive")
    return omega[:, None] * np.abs(x - x_hat)


def max_abs_error(scaled_err):
    """Max over the channel axis: (C, T) -> (T,), (N, C, T) -> (N, T)."""
    scaled_err = np.asarray(scaled_err, dtype=np.float64)
    if scaled_err.ndim not in (2, 3) or scaled_err.shape[-2] < 1:
        raise DomainError("need at least one channel")
    return scaled_err.max(axis=-2)


def subset_means(max_err):
    """Means over consecutive half-open blocks [k*s, (k+1)*s), s = SUBSET_SIZE,
    of the last axis."""
    max_err = np.asarray(max_err, dtype=np.float64)
    t_len = max_err.shape[-1]
    if t_len % SUBSET_SIZE != 0:
        raise ContractError(
            f"window length {t_len} not divisible by subset size {SUBSET_SIZE}")
    return max_err.reshape(max_err.shape[:-1] + (t_len // SUBSET_SIZE,
                                                 SUBSET_SIZE)).mean(axis=-1)


def one_shot(means, delta):
    """Strict threshold per subset: 1 iff mean > delta."""
    if not delta > 0:
        raise ContractError("delta must be positive")
    return (np.asarray(means, dtype=np.float64) > delta).astype(np.int64)


def expand_votes(votes):
    """Per-subset decisions expanded to per-time votes (block-constant)
    along the last axis."""
    return np.repeat(np.asarray(votes, dtype=np.int64), SUBSET_SIZE, axis=-1)


@dataclass
class DetectionSeries:
    """All per-window scores for one signal window; a batch of windows
    adds a leading N axis to every field."""

    scaled_err: np.ndarray   # (C, T)
    max_err: np.ndarray      # (T,)
    means: np.ndarray        # (T // SUBSET_SIZE,)
    votes: np.ndarray        # (T // SUBSET_SIZE,) binary
    per_time_votes: np.ndarray  # (T,) binary


def score_window(x, x_hat, omega, delta):
    """Run the full single-window pipeline on a (C, T) window or an
    (N, C, T) batch."""
    ae = scaled_abs_error(x, x_hat, omega)
    mae = max_abs_error(ae)
    means = subset_means(mae)
    votes = one_shot(means, delta)
    return DetectionSeries(scaled_err=ae, max_err=mae, means=means, votes=votes,
                           per_time_votes=expand_votes(votes))


class ConfidenceStream:
    """Accumulates per-time votes from stride-1 overlapping windows.

    Window k (0-indexed) covers times k .. k+T-1. The confidence at time t
    is the vote sum over all windows covering t, scaled by 1/min(t+1, T):
    the number of windows that can ever cover that instant.
    """

    def __init__(self, window_length=200):
        if window_length < 1:
            raise ContractError("window length must be positive")
        self.window_length = int(window_length)
        self._sums = np.zeros(0, dtype=np.int64)
        self.n_windows = 0

    def push(self, per_time_votes):
        """Add the (T,) votes of the next window, or the (N, T) votes of
        the next N stride-1 windows."""
        votes = np.asarray(per_time_votes, dtype=np.int64)
        t_len = self.window_length
        if votes.ndim not in (1, 2) or votes.shape[-1] != t_len:
            raise DimensionError(
                f"votes have shape {votes.shape}, expected ({t_len},) or (N, {t_len})")
        votes = votes.reshape(-1, t_len)
        n = votes.shape[0]
        end = self.n_windows + n - 1 + t_len
        if end > self._sums.shape[0]:
            grown = np.zeros(max(end, 2 * self._sums.shape[0]), dtype=np.int64)
            grown[: self._sums.shape[0]] = self._sums
            self._sums = grown
        # window k of the batch votes at times n_windows + k + [0, T)
        times = self.n_windows + np.arange(n)[:, None] + np.arange(t_len)
        np.add.at(self._sums, times, votes)
        self.n_windows += n

    @property
    def n_times(self):
        if self.n_windows == 0:
            return 0
        return self.n_windows + self.window_length - 1

    def vote_count(self, t):
        """Number of pushed windows covering 0-indexed time t."""
        if not 0 <= t < self.n_times:
            raise ContractError(f"time {t} outside covered range")
        lo = max(0, t - self.window_length + 1)
        hi = min(t, self.n_windows - 1)
        return hi - lo + 1

    def confidence(self):
        """CS_t for every covered time, in [0, 1]."""
        n = self.n_times
        kappa = 1.0 / np.minimum(np.arange(1, n + 1), self.window_length)
        return kappa * self._sums[:n]


def multi_shot(confidence, limit=DEFAULT_CS_LIMIT):
    """Strict threshold on the confidence score: 1 iff CS > limit."""
    if not 0.0 < limit <= 1.0:
        raise ContractError("confidence limit must be in (0, 1]")
    return (np.asarray(confidence, dtype=np.float64) > limit).astype(np.int64)


@dataclass(frozen=True)
class F1Result:
    f1: float
    tp: int
    fp: int
    fn: int


def f1_score(predictions, labels):
    """Per-sample F1 = 2TP / (2TP + FP + FN); undefined counts are an error."""
    p = np.asarray(predictions, dtype=np.int64)
    l = np.asarray(labels, dtype=np.int64)
    if p.shape != l.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {l.shape}")
    tp = int(np.sum((p == 1) & (l == 1)))
    fp = int(np.sum((p == 1) & (l == 0)))
    fn = int(np.sum((p == 0) & (l == 1)))
    denom = 2 * tp + fp + fn
    if denom == 0:
        raise DomainError("F1 undefined: no positives in predictions or labels")
    return F1Result(f1=2.0 * tp / denom, tp=tp, fp=fp, fn=fn)


def default_delta_grid(start=0.2, stop=3.0, step=0.05):
    n = int(round((stop - start) / step)) + 1
    return start + step * np.arange(n)


def sweep_one_shot(means, counts, grid=None):
    """Best single-window F1 over a threshold grid, from per-subset counts.

    means and counts (labeled samples per SUBSET_SIZE-sample subset) share
    a shape, e.g. (windows, subsets). At delta the subsets with mean > delta
    alarm, so TP is their labeled samples, FP = SUBSET_SIZE x their number
    - TP and FN = all labeled samples - TP: the per-sample counts. Returns
    (best F1Result, best delta, curve of (delta, F1)); the first best delta
    of the grid wins a tie.
    """
    grid = np.asarray(default_delta_grid() if grid is None else grid,
                      dtype=np.float64)
    means = np.asarray(means, dtype=np.float64).reshape(-1)
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if counts.shape != means.shape:
        raise DimensionError(f"{counts.size} subset counts for {means.size} means")
    if grid.size == 0:
        raise ContractError("empty threshold grid")
    if not np.all(np.isfinite(means)):
        raise DomainError("subset means must be finite")
    positives = int(counts.sum())
    if positives == 0:
        raise ContractError("threshold sweep needs at least one labeled anomaly")
    order = np.argsort(means)
    # tp_above[i]: labeled samples in the subsets from sorted position i up
    tp_above = np.concatenate([np.cumsum(counts[order][::-1])[::-1], [0]])
    first = np.searchsorted(means[order], grid, side="right")
    tp = tp_above[first]
    fp = SUBSET_SIZE * (means.size - first) - tp
    fn = positives - tp
    f1 = 2.0 * tp / (2 * tp + fp + fn)
    b = int(np.argmax(f1))
    best = F1Result(f1=float(f1[b]), tp=int(tp[b]), fp=int(fp[b]), fn=int(fn[b]))
    return best, float(grid[b]), list(zip(grid.tolist(), f1.tolist()))
