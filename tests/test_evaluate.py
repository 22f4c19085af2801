"""Evaluation harness tests: stride-1 streaming against a per-window recount."""

import numpy as np

from lossyad.data import LabeledSeries
from lossyad.detection import f1_score, score_window
from lossyad.evaluate import stream_series
from lossyad.model import TcnAutoencoder, TcnConfig

T = 20


def labeled_series(n=137, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, n))
    labels = np.zeros(n, dtype=np.int64)
    labels[60:90] = 1
    x[:, 60:90] += 4.0
    return LabeledSeries("s0", x, [str(i) for i in range(n)], labels)


def test_stream_runs_one_forward_per_window_and_recounts_one_shot(monkeypatch):
    cfg = TcnConfig(input_channels=2, window_length=T, blocks=2, channel_width=4,
                    latent_dim=4)
    model = TcnAutoencoder(cfg, seed=3)
    series = labeled_series()
    calls = []
    forward_eval = model.forward_eval

    def counting(x):
        calls.append(1)
        return forward_eval(x)

    monkeypatch.setattr(model, "forward_eval", counting)
    result = stream_series(model, series, delta=1.0)
    n_windows = series.length - T + 1
    assert len(calls) == n_windows

    # 1-shot F1 of the disjoint windows, recounted window by window.
    votes = np.zeros(n_windows + T - 1, dtype=np.int64)
    for o in range(0, n_windows, T):
        w = series.channels[:, o: o + T]
        det = score_window(w, forward_eval(w).data, model.omega, 1.0)
        votes[o: o + T] = det.per_time_votes
    expected = f1_score(votes, series.labels[: n_windows + T - 1]).f1
    assert result.one_shot_f1 == expected
