"""Evaluation harness tests: stride-1 streaming against a per-window
recount, one-shot sweeps against the per-sample oracle."""

from dataclasses import replace

import numpy as np
import pytest

from lossyad.data import LabeledSeries
from lossyad.errors import DomainError
import lossyad.model as model_mod
from lossyad.detection import ConfidenceStream, default_delta_grid, f1_score, score_window
from lossyad.evaluate import evaluate_one_shot, stream_series
from lossyad.model import TcnAutoencoder, TcnConfig
from oracles import sweep_one_shot_oracle

T = 20


def labeled_series(n=137, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, n))
    labels = np.zeros(n, dtype=np.int64)
    labels[60:90] = 1
    x[:, 60:90] += 4.0
    return LabeledSeries("s0", x, [str(i) for i in range(n)], labels)


def test_stream_runs_one_forward_per_window_and_recounts_one_shot(monkeypatch):
    """The windows stream_series hands to forward_eval, over all its
    batches, are every stride-1 window exactly once, in offset order; its
    scores recount window by window, whatever the chunk size."""
    cfg = TcnConfig(input_channels=2, window_length=T, blocks=2, channel_width=4,
                    latent_dim=4)
    model = TcnAutoencoder(cfg, seed=3)
    series = labeled_series()
    n_windows = series.length - T + 1
    forward_eval = model.forward_eval

    # window by window: votes, the newest window's max error, disjoint votes
    stream = ConfidenceStream(window_length=T)
    latest = np.zeros(series.length)
    votes = np.zeros(series.length, dtype=np.int64)
    for o in range(n_windows):
        w = series.channels[:, o: o + T]
        det = score_window(w, forward_eval(w).data, model.omega, 1.0)
        stream.push(det.per_time_votes)
        latest[o: o + T] = det.max_err
        if o % T == 0:
            votes[o: o + T] = det.per_time_votes
    expected = f1_score(votes, series.labels).f1
    every_window = np.stack([series.channels[:, o: o + T] for o in range(n_windows)])

    for per_chunk in (1, 7, n_windows):
        monkeypatch.setattr(model_mod, "CHUNK_ELEMENTS",
                            per_chunk * cfg.channel_width * T)
        passed = []

        def recording(x):
            passed.append(np.array(x))
            return forward_eval(x)

        monkeypatch.setattr(model, "forward_eval", recording)
        result = stream_series(model, series, delta=1.0)
        assert len(passed) == -(-n_windows // per_chunk)
        assert sum(len(x) for x in passed) == n_windows
        assert np.array_equal(np.concatenate(passed), every_window)
        assert result.one_shot_f1 == expected
        np.testing.assert_array_equal(result.confidence, stream.confidence())
        np.testing.assert_allclose(result.latest_max_err, latest, rtol=0, atol=1e-12)


def test_stream_rejects_a_non_finite_error_in_any_window(monkeypatch):
    """A NaN error in the first window at its last instant, where later
    windows are newer, still ends the stream in a DomainError."""
    cfg = TcnConfig(input_channels=2, window_length=T, blocks=2, channel_width=4,
                    latent_dim=4)
    model = TcnAutoencoder(cfg, seed=3)
    forward_eval = model.forward_eval

    def first_window_nan(x):
        out = forward_eval(x)
        out.data[0, 0, T - 1] = np.nan
        return out

    monkeypatch.setattr(model, "forward_eval", first_window_nan)
    with pytest.raises(DomainError, match="finite"):
        stream_series(model, labeled_series(), delta=1.0)


@pytest.mark.parametrize("stride", [None, 7, 20, 33])
def test_one_shot_counts_per_subset_as_the_per_sample_oracle(stride):
    """evaluate_one_shot's report equals the per-sample sweep over each
    window's per-time labels, and its rows carry each subset's label count."""
    cfg = TcnConfig(input_channels=2, window_length=T, blocks=2, channel_width=4,
                    latent_dim=4)
    model = TcnAutoencoder(cfg, seed=3)
    sets = [labeled_series(), replace(labeled_series(n=150, seed=6), set_id="s1")]
    grid = default_delta_grid(0.2, 3.0, 0.05)
    report, rows = evaluate_one_shot(model, sets, grid=grid, stride=stride)
    by_id = {s.set_id: s for s in sets}
    window_labels = [by_id[sid].labels[o: o + T]
                     for sid, o, k, _, _ in rows if k == 0]
    for sid, o, k, _, count in rows:
        assert count == by_id[sid].labels[o + 10 * k: o + 10 * k + 10].sum()
    means = np.array([r[3] for r in rows]).reshape(len(window_labels), T // 10)
    expected, curve = sweep_one_shot_oracle(means, window_labels, grid)
    got = (report.best_f1, report.tp, report.fp, report.fn, report.best_delta)
    assert got == expected
    assert report.curve == curve
    assert len(window_labels) == len(range(0, 137 - T + 1, stride or T)) + \
        len(range(0, 150 - T + 1, stride or T))
