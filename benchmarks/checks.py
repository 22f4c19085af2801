"""Output checks for the lossyad benchmark.

Every check recomputes what it verifies from the program's raw outputs
(epoch statistics, alarms, confidence, eval rows, bitstream bytes) or tests
a property the method must have; none of them calls the code path whose
result it checks. A failed check raises CheckFailed, and the benchmark
then reports ``"correct": false``.
"""

from __future__ import annotations

import math

import numpy as np

from lossyad.errors import LossyadError

SUBSET = 10  # samples per one-shot subset (the paper's 10-sample means)


class CheckFailed(AssertionError):
    """A program output disagreed with its independent recomputation."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def check_epoch_decomposition(epochs, lambda1, lambda2, bottleneck, rel=1e-9):
    """Each epoch total is rate + l1*D1 + l2*D2 (AE: total == distortion)."""
    _require(len(epochs) > 0, "training report has no epochs")
    for e in epochs:
        values = (e.rate, e.distortion, e.reconstruction, e.total)
        _require(all(math.isfinite(v) for v in values),
                 f"epoch {e.epoch}: non-finite statistic {values}")
        _require(e.rate >= 0.0, f"epoch {e.epoch}: negative rate {e.rate}")
        if bottleneck:
            recomposed = e.rate + lambda1 * e.distortion + lambda2 * e.reconstruction
        else:
            _require(e.rate == 0.0 and e.reconstruction == 0.0,
                     f"epoch {e.epoch}: AE reports a rate or a second distortion")
            recomposed = e.distortion
        _require(abs(e.total - recomposed) <= rel * max(abs(recomposed), 1e-300),
                 f"epoch {e.epoch}: total {e.total!r} != recomposed {recomposed!r}")


def check_directional_derivative(loss_at, grads, direction, h=1e-6, rel=1e-4):
    """Central difference of the loss along `direction` equals <grad, direction>.

    loss_at(t) evaluates the loss at parameters + t * direction (a list of
    arrays matching `grads`).
    """
    analytic = float(sum(np.vdot(g, d) for g, d in zip(grads, direction)))
    numeric = (loss_at(h) - loss_at(-h)) / (2.0 * h)
    scale = max(abs(analytic), abs(numeric), 1e-12)
    _require(math.isfinite(numeric) and abs(numeric - analytic) <= rel * scale,
             f"directional derivative: finite difference {numeric!r} vs "
             f"gradient {analytic!r}")
    return analytic, numeric


def f1_from_counts(tp, fp, fn):
    denom = 2 * tp + fp + fn
    _require(denom > 0, "F1 undefined: no positives")
    return 2.0 * tp / denom


def recount_f1(predictions, labels):
    """Per-sample F1 recounted from binary predictions and labels."""
    p = np.asarray(predictions).astype(bool)
    l = np.asarray(labels).astype(bool)
    _require(p.shape == l.shape, f"prediction/label shapes {p.shape} vs {l.shape}")
    return f1_from_counts(int(np.sum(p & l)), int(np.sum(p & ~l)),
                          int(np.sum(~p & l)))


def all_alarm_f1(n_positive, n_total):
    """F1 of the detector that alarms on every sample: 2p / (1 + p)."""
    p = n_positive / n_total
    return 2.0 * p / (1.0 + p)


def check_beats_all_alarm(f1, baseline, what):
    _require(f1 > baseline,
             f"{what}: F1 {f1:.4f} does not beat the all-alarm F1 {baseline:.4f}")


def check_alarms(confidence, alarms, cs_limit):
    """Multi-shot decision is exactly confidence > cs_limit."""
    expected = np.asarray(confidence) > cs_limit
    got = np.asarray(alarms)
    _require(got.shape == expected.shape
             and np.array_equal(got.astype(bool), expected)
             and np.all((got == 0) | (got == 1)),
             "alarms disagree with confidence > cs_limit")


def check_confidence_votes(confidence, window_length, n_windows):
    """confidence[t] * min(t+1, T) is a whole vote count no larger than the
    number of stride-1 windows that cover t."""
    cs = np.asarray(confidence, dtype=np.float64)
    t = np.arange(cs.shape[0])
    _require(cs.shape[0] == n_windows + window_length - 1,
             f"confidence covers {cs.shape[0]} times, expected "
             f"{n_windows + window_length - 1}")
    votes = cs * np.minimum(t + 1, window_length)
    whole = np.rint(votes)
    _require(np.all(np.abs(votes - whole) <= 1e-9 * np.maximum(whole, 1.0)),
             "confidence times the normalizer is not a whole vote count")
    covering = (np.minimum(t, n_windows - 1)
                - np.maximum(0, t - window_length + 1) + 1)
    _require(np.all(whole >= 0) and np.all(whole <= covering),
             "a time has more votes than windows covering it")


def check_stream_f1(result):
    """multi_shot_f1 equals per-sample F1 recounted from the alarms."""
    recounted = recount_f1(result.alarms, result.labels)
    _require(recounted == result.multi_shot_f1,
             f"multi-shot F1 {result.multi_shot_f1!r} != recount {recounted!r}")


def one_shot_counts(rows, delta):
    """(tp, fp, fn) at threshold delta from eval rows
    (set_id, offset, subset, mean, n_anomalous)."""
    tp = fp = fn = 0
    for _, _, _, mean, n_anom in rows:
        if mean > delta:
            tp += n_anom
            fp += SUBSET - n_anom
        else:
            fn += n_anom
    return tp, fp, fn


def check_one_shot_report(report, rows, grid):
    """Best one-shot F1 equals the F1 recounted from the rows at the best
    delta, and no delta of the grid recounts higher."""
    tp, fp, fn = one_shot_counts(rows, report.best_delta)
    recounted = f1_from_counts(tp, fp, fn)
    _require((tp, fp, fn) == (report.tp, report.fp, report.fn)
             and recounted == report.best_f1,
             f"one-shot best F1 {report.best_f1!r} (tp={report.tp} fp={report.fp} "
             f"fn={report.fn}) != recount {recounted!r} (tp={tp} fp={fp} fn={fn})")
    best = max(f1_from_counts(*one_shot_counts(rows, float(d))) for d in grid)
    _require(best == report.best_f1,
             f"a grid delta recounts F1 {best!r} above the reported best "
             f"{report.best_f1!r}")
    return recounted


def one_shot_baseline(rows):
    positive = sum(r[4] for r in rows)
    return all_alarm_f1(positive, SUBSET * len(rows))


def decoded(decode):
    """Run a decoder on bytes the program itself wrote: a typed error from
    it is a failed round trip, not a failed operation."""
    try:
        return decode()
    except LossyadError as e:
        raise CheckFailed(f"decoding the coded bytes raised {e!r}") from None


def check_round_trip(symbols, decoded_symbols):
    _require(np.array_equal(np.asarray(decoded_symbols), np.asarray(symbols)),
             "codec round trip through bytes is not exact")


def empirical_entropy_bits(symbols):
    """Sum over latent dimensions of n * H(empirical distribution), in bits.

    symbols: (dims, n). No code built from one fixed distribution per
    dimension can be shorter on this sequence (Gibbs' inequality).
    """
    total = 0.0
    for row in np.asarray(symbols):
        _, counts = np.unique(row, return_counts=True)
        p = counts / counts.sum()
        total += float(-(counts * np.log2(p)).sum())
    return total


def check_coded_bits(coded_bits, estimated_bits, entropy_bits, n_escapes):
    """Coded length sits between the empirical entropy and the estimate.

    Upper: estimate * 1.01 + 512, plus the 64 raw bits that the bitstream
    format stores for each escaped (out-of-support) value.
    Lower: empirical entropy - 64.
    """
    upper = estimated_bits * 1.01 + 512 + 64 * n_escapes
    _require(coded_bits <= upper,
             f"{coded_bits} coded bits exceed the bound {upper:.1f} "
             f"(estimate {estimated_bits:.1f}, {n_escapes} escapes)")
    _require(coded_bits >= entropy_bits - 64,
             f"{coded_bits} coded bits are below the empirical entropy "
             f"{entropy_bits:.1f} - 64")
