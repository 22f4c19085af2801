"""Evaluation harness: single-window threshold sweeps and streaming scoring.

Both paths take their windows from `data.window`, a strided view of the
series: the one-shot sweep at its stride (T by default), the stream at
stride 1. Both reconstruct them in (N, C, T) batches of the model's chunk
size and score each batch in one call. The one-shot sweep counts F1
from each 10-sample subset's mean and labeled-sample count, the numbers
`eval_scores.csv` holds per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .detection import (
    SUBSET_SIZE, ConfidenceStream, default_delta_grid, f1_score, max_abs_error,
    multi_shot, scaled_abs_error, score_window, subset_means, sweep_one_shot,
)
from .data import label_counts, window


def window_scores(model, series, stride=None):
    """Reconstruct every window of a labeled series and score it.

    Returns (means, counts, rows): the (windows, subsets) subset means and
    labeled-sample counts, and flat per-subset rows
    (set_id, window_offset, subset_index, mean, n_anomalous_samples) with
    enough information to recount the per-sample F1 offline.
    """
    t_len = model.config.window_length
    stride = t_len if stride is None else stride
    batch = window(series, t_len, stride)
    means = np.concatenate([
        subset_means(max_abs_error(scaled_abs_error(
            x, model.forward_eval(x).data, model.omega)))
        for x in (batch.windows[part] for part in model.chunks(len(batch)))])
    starts = np.asarray(batch.offsets)[:, None] + SUBSET_SIZE * np.arange(means.shape[1])
    counts = label_counts(series.labels, starts, SUBSET_SIZE)
    rows = [(series.set_id, o, k, float(m), int(cnt))
            for o, window_means, window_counts in zip(batch.offsets, means, counts)
            for k, (m, cnt) in enumerate(zip(window_means, window_counts))]
    return means, counts, rows


@dataclass
class EvalReport:
    best_f1: float
    best_delta: float
    tp: int
    fp: int
    fn: int
    per_set: dict = field(default_factory=dict)
    curve: list = field(default_factory=list)

    def to_dict(self):
        return {
            "best_f1": self.best_f1,
            "best_delta": self.best_delta,
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "per_set": self.per_set,
            "curve": [[d, f] for d, f in self.curve],
        }


def evaluate_one_shot(model, validation_sets, grid=None, stride=None):
    """Best single-window F1 over the threshold grid, pooled across sets."""
    if not validation_sets:
        raise ContractError("no validation sets")
    if any(s.labels.sum() == 0 for s in validation_sets):
        raise ContractError("every validation set must carry anomaly labels")
    grid = default_delta_grid() if grid is None else grid
    all_means, all_counts, all_rows = [], [], []
    per_set_scores = {}
    for s in validation_sets:
        means, counts, rows = window_scores(model, s, stride=stride)
        all_means.append(means)
        all_counts.append(counts)
        all_rows.extend(rows)
        per_set_scores[s.set_id] = (means, counts)
    best, best_delta, curve = sweep_one_shot(
        np.concatenate(all_means), np.concatenate(all_counts), grid)
    per_set = {}
    for sid, (means, counts) in per_set_scores.items():
        try:
            r, d, _ = sweep_one_shot(means, counts, grid)
            per_set[sid] = {"best_f1": r.f1, "best_delta": d}
        except ContractError:
            per_set[sid] = {"best_f1": None, "best_delta": None}
    report = EvalReport(best_f1=best.f1, best_delta=best_delta, tp=best.tp,
                        fp=best.fp, fn=best.fn, per_set=per_set, curve=curve)
    return report, all_rows


@dataclass
class StreamResult:
    confidence: np.ndarray    # CS per covered time
    alarms: np.ndarray        # multi-shot decision per covered time
    latest_max_err: np.ndarray  # per-time max error from the newest covering window
    labels: np.ndarray
    multi_shot_f1: float
    one_shot_f1: float


def stream_series(model, series, delta, cs_limit=0.85):
    """Stride-1 sliding-window scoring of one labeled series.

    Every window votes per time instant; votes accumulate into the
    confidence score, thresholded at cs_limit. Also reports the plain
    1-shot F1 of the disjoint windows (offsets that are multiples of T) at
    the same delta, for comparison, from the votes of the same pass. A
    non-finite window error is a DomainError, as in the one-shot sweep.
    """
    t_len = model.config.window_length
    windows = window(series, t_len, 1).windows   # a view, copied chunk by chunk
    stream = ConfidenceStream(window_length=t_len)
    latest = np.zeros(series.length)
    disjoint_votes = np.zeros(series.length, dtype=np.int64)
    for part in model.chunks(len(windows)):
        x = np.ascontiguousarray(windows[part])
        det = score_window(x, model.forward_eval(x).data, model.omega, delta)
        if not np.isfinite(det.max_err).all():
            raise DomainError("window errors must be finite")
        stream.push(det.per_time_votes)
        # time t's newest covering window in this chunk is min(t, last)
        first, last = part.start, part.stop - 1
        t = np.arange(first, last + t_len)
        newest = np.minimum(t, last)
        latest[first: last + t_len] = det.max_err[newest - first, t - newest]
        # the disjoint windows (offsets that are multiples of T) tile time
        o = first + (-first) % t_len
        disjoint = det.per_time_votes[o - first:: t_len]
        disjoint_votes[o: o + disjoint.size] = disjoint.reshape(-1)
    cs = stream.confidence()
    alarms = multi_shot(cs, cs_limit)
    labels = series.labels[: stream.n_times]
    ms = f1_score(alarms, labels)
    os_result = f1_score(disjoint_votes[: stream.n_times], labels)

    return StreamResult(confidence=cs, alarms=alarms, latest_max_err=latest,
                        labels=labels, multi_shot_f1=ms.f1,
                        one_shot_f1=os_result.f1)
