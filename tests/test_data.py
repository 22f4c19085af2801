"""Ingestion, normalization, windowing, corpus protocol, synthetic sets."""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lossyad.errors import ContractError, LossyadError, ParseError
from lossyad.data import (
    CorpusSplit, LabeledSeries, SynthConfig, WindowBatch, build_training_corpus,
    label_counts, load_series, normalize, synth_corpus, window, write_series_csv,
)
from lossyad.detection import score_window, sweep_one_shot, subset_means, max_abs_error, scaled_abs_error

from mutations import mutate
from oracles import build_training_corpus_oracle

FIXTURES = Path(__file__).parent / "fixtures"


class TestLoadSeries:
    def test_comma_roundtrip_8x3(self):
        s = load_series(FIXTURES / "mini_comma.csv")
        assert s.channels.shape == (8, 3)
        np.testing.assert_array_equal(s.labels, [0, 1, 0])
        assert s.feature_names[0] == "ch0"
        assert s.timestamps[0] == "2020-01-01 00:00:00"

    def test_semicolon_with_second_label_column(self):
        s = load_series(FIXTURES / "mini_semicolon.csv", delimiter=";",
                        label_columns=("anomaly", "changepoint"))
        assert s.channels.shape == (8, 3)
        np.testing.assert_array_equal(s.labels, [0, 1, 1])
        assert "changepoint" not in s.feature_names

    def test_missing_label_column_named_in_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("datetime,ch0\n2020,1.0\n")
        with pytest.raises(ParseError, match="anomaly"):
            load_series(p)

    def test_non_numeric_feature_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("datetime,ch0,anomaly\nt0,1.0,0\nt1,oops,0\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            load_series(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_feature_reports_line_and_column(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"datetime,ch0,ch1,anomaly\nt0,1.0,2.0,0\nt1,1.0,{cell},0\n")
        with pytest.raises(ParseError, match=r"bad.csv:3: value .* column 'ch1'"):
            load_series(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_label_reports_line_and_column(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"datetime,ch0,anomaly\nt0,1.0,0\nt1,1.0,{cell}\n")
        with pytest.raises(ParseError, match=r"bad.csv:3: label in column 'anomaly'"):
            load_series(p)

    def test_non_utf8_bytes_report_file_and_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"datetime,ch0,anomaly\nt0,1.0,0\nt1,\xff1.0,0\n")
        with pytest.raises(ParseError, match=r"bad.csv:3: byte 33 is not UTF-8"):
            load_series(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("datetime,ch0,anomaly\nt0,1.0,0\nt1,1.0\n")
        with pytest.raises(ParseError, match=":3"):
            load_series(p)

    def test_non_binary_label_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("datetime,ch0,anomaly\nt0,1.0,2\n")
        with pytest.raises(ParseError, match="0 or 1"):
            load_series(p)

    def test_write_read_roundtrip(self, tmp_path):
        sets = synth_corpus(SynthConfig(channels=3, n_sets=1, length=50), seed=5)
        path = tmp_path / "s.csv"
        write_series_csv(sets[0], path)
        back = load_series(path, set_id="s")
        np.testing.assert_allclose(back.channels, sets[0].channels)
        np.testing.assert_array_equal(back.labels, sets[0].labels)


def mk_series(set_id, channels, labels):
    return LabeledSeries(set_id=set_id, channels=channels,
                         timestamps=[str(i) for i in range(channels.shape[1])],
                         labels=labels)



@given(st.data())
def test_mutated_csv_loads_or_is_a_typed_error(tmp_path_factory, data):
    p = tmp_path_factory.getbasetemp() / "mutated.csv"
    p.write_bytes(mutate(data, (FIXTURES / "mini_comma.csv").read_bytes()))
    try:
        s = load_series(p)
    except LossyadError:
        return
    assert np.all(np.isfinite(s.channels))

class TestNormalize:
    def test_constant_channel_floored_with_warning(self):
        s = mk_series("a", np.vstack([np.full(50, 5.0),
                                      np.random.default_rng(0).normal(size=50)]),
                      np.zeros(50, dtype=int))
        with pytest.warns(UserWarning, match="constant"):
            train, _, (mean, std) = normalize([s])
        np.testing.assert_allclose(train[0].channels[0], np.zeros(50))

    def test_idempotent_at_fixed_stats(self):
        rng = np.random.default_rng(1)
        s = mk_series("a", rng.normal(size=(3, 400)), np.zeros(400, dtype=int))
        train1, _, _ = normalize([s])
        train2, _, _ = normalize(train1)
        assert np.max(np.abs(train2[0].channels - train1[0].channels)) < 1e-6

    def test_training_split_means_are_zero(self):
        rng = np.random.default_rng(2)
        sets = [mk_series(f"s{i}", rng.normal(loc=3.0, size=(4, 200)),
                          np.zeros(200, dtype=int)) for i in range(3)]
        train, _, _ = normalize(sets)
        stacked = np.concatenate([s.channels for s in train], axis=1)
        assert np.max(np.abs(stacked.mean(axis=1))) < 1e-9

    def test_validation_uses_training_stats(self):
        rng = np.random.default_rng(3)
        tr = mk_series("t", rng.normal(size=(2, 300)), np.zeros(300, dtype=int))
        va = mk_series("v", rng.normal(loc=10.0, size=(2, 300)),
                       np.zeros(300, dtype=int))
        _, val_out, (mean, std) = normalize([tr], [va])
        np.testing.assert_allclose(
            val_out[0].channels, (va.channels - mean[:, None]) / std[:, None])


class TestWindow:
    def test_exact_fit(self):
        s = mk_series("a", np.zeros((2, 200)), np.zeros(200, dtype=int))
        assert len(window(s, 200, 10)) == 1

    def test_count_formula(self):
        s = mk_series("a", np.zeros((2, 210)), np.zeros(210, dtype=int))
        assert len(window(s, 200, 10)) == 2

    def test_stride_one_multi_shot_mode(self):
        s = mk_series("a", np.zeros((2, 400)), np.zeros(400, dtype=int))
        assert len(window(s, 200, 1)) == 201

    def test_too_short_rejected(self):
        s = mk_series("a", np.zeros((2, 31)), np.zeros(31, dtype=int))
        with pytest.raises(ContractError):
            window(s, 32, 1)

    @pytest.mark.parametrize("stride", [1, 7, 50])
    def test_windows_are_a_read_only_view_of_the_series(self, stride):
        # the stride-1 stream holds O(series) memory, not O(windows * T)
        chans = np.random.default_rng(5).normal(size=(3, 120))
        s = mk_series("a", chans, np.zeros(120, dtype=int))
        batch = window(s, 50, stride)
        expected = np.stack([chans[:, o: o + 50] for o in range(0, 71, stride)])
        np.testing.assert_array_equal(batch.windows, expected)
        assert batch.offsets == list(range(0, 71, stride))
        assert all(type(o) is int for o in batch.offsets)
        assert np.shares_memory(batch.windows, s.channels)
        assert not batch.windows.flags.writeable

    @pytest.mark.parametrize("stride", [0, -3])
    def test_stride_below_one_rejected(self, stride):
        s = mk_series("a", np.zeros((2, 100)), np.zeros(100, dtype=int))
        with pytest.raises(ContractError, match="stride"):
            window(s, 50, stride)

    def test_window_contents_and_labels_align(self):
        rng = np.random.default_rng(4)
        chans = rng.normal(size=(3, 120))
        labels = (rng.uniform(size=120) < 0.2).astype(int)
        s = mk_series("a", chans, labels)
        batch = window(s, 50, 25)
        # each window's 10-sample subsets, as the one-shot sweep counts them
        starts = np.asarray(batch.offsets)[:, None] + 10 * np.arange(5)
        counts = label_counts(s.labels, starts, 10)
        for w, o, c in zip(batch.windows, batch.offsets, counts):
            np.testing.assert_array_equal(w, chans[:, o: o + 50])
            np.testing.assert_array_equal(c, labels[o: o + 50].reshape(5, 10).sum(axis=1))


class TestCorpus:
    def make_sets(self, n_sets=8, length=900, seed=0):
        return synth_corpus(SynthConfig(channels=4, n_sets=n_sets, length=length,
                                        normal_prefix_fraction=0.5,
                                        anomaly_rate=0.25), seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cumulative_label_counts_give_the_loops_split(self, monkeypatch, seed):
        """The split is byte-identical to the one built with one label sum
        per window."""
        import lossyad.data as data_mod

        sets = self.make_sets(seed=seed)
        kwargs = dict(p=0.2, seed=seed, window_length=100, stride=7,
                      n_validation=2, min_anomalous_fraction=0.3)
        fast = build_training_corpus(sets, **kwargs)
        monkeypatch.setattr(data_mod, "label_counts", lambda labels, starts, t: np.array(
            [int(labels[o: o + t].sum()) for o in starts]))
        loop = build_training_corpus(sets, **kwargs)
        assert fast.achieved_fraction > 0.1
        assert fast.train.windows.tobytes() == loop.train.windows.tobytes()
        assert fast.train.source_ids == loop.train.source_ids
        assert fast.train.offsets == loop.train.offsets
        assert all(type(o) is int for o in fast.train.offsets)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.25])
    @pytest.mark.parametrize("stride", [1, 7, 10])
    @pytest.mark.parametrize("min_frac", [0.0, 0.5])
    def test_matches_the_list_building_oracle(self, p, stride, min_frac):
        # at p=0.25 and min_frac 0.5 the anomalous pool runs out, so the
        # draw goes on with replacement
        sets = synth_corpus(SynthConfig(channels=3, n_sets=5, length=500,
                                        normal_prefix_fraction=0.6,
                                        anomaly_rate=0.2), seed=3)
        kwargs = dict(p=p, seed=11, window_length=50, stride=stride,
                      n_validation=2, min_anomalous_fraction=min_frac)
        split = build_training_corpus(sets, **kwargs)
        windows, ids, offsets, achieved = build_training_corpus_oracle(sets, **kwargs)
        assert split.train.windows.shape == windows.shape
        assert split.train.windows.tobytes() == windows.tobytes()
        assert split.train.source_ids == ids
        assert split.train.offsets == offsets
        assert all(type(o) is int for o in split.train.offsets)
        assert split.achieved_fraction == achieved

    def test_p_zero_uses_only_normal_prefix(self):
        sets = self.make_sets()
        split = build_training_corpus(sets, p=0.0, seed=1, window_length=100,
                                      stride=10, n_validation=2)
        assert split.achieved_fraction == 0.0
        by_id = {s.set_id: s for s in sets}
        for sid, off in zip(split.train.source_ids, split.train.offsets):
            src = by_id[sid]
            assert off + 100 <= src.normal_prefix_length()

    def test_requested_fraction_hit_within_half_point(self):
        sets = self.make_sets(n_sets=10, length=1500, seed=2)
        split = build_training_corpus(sets, p=0.05, seed=3, window_length=100,
                                      stride=5, n_validation=2)
        assert len(split.train) >= 900
        assert abs(split.achieved_fraction - 0.05) <= 0.005

    def test_split_disjoint(self):
        sets = self.make_sets()
        split = build_training_corpus(sets, p=0.1, seed=4, window_length=100,
                                      stride=10, n_validation=3)
        assert not set(split.train_ids) & set(split.validation_ids)
        assert len(split.validation_ids) == 3

    def test_seeded_reproducibility(self):
        sets = self.make_sets()
        a = build_training_corpus(sets, p=0.1, seed=5, window_length=100,
                                  stride=10, n_validation=2)
        b = build_training_corpus(sets, p=0.1, seed=5, window_length=100,
                                  stride=10, n_validation=2)
        assert a.train.windows.tobytes() == b.train.windows.tobytes()
        assert a.train_ids == b.train_ids and a.validation_ids == b.validation_ids

    def test_p_without_anomalies_rejected(self):
        rng = np.random.default_rng(6)
        clean = [mk_series(f"c{i}", rng.normal(size=(4, 300)),
                           np.zeros(300, dtype=int)) for i in range(4)]
        anomalous = self.make_sets(n_sets=2, length=600, seed=7)
        # validation takes the only anomalous sets; no anomalous pool remains
        with pytest.raises(ContractError):
            build_training_corpus(anomalous + clean, p=0.05, seed=8,
                                  window_length=100, stride=10, n_validation=2)

    def test_inconsistent_channel_counts_rejected(self):
        rng = np.random.default_rng(13)
        mixed = self.make_sets(n_sets=4) + [
            mk_series("odd", rng.normal(size=(2, 900)), np.zeros(900, dtype=int))]
        with pytest.raises(ContractError, match="channel"):
            build_training_corpus(mixed, p=0.0, seed=0, window_length=100,
                                  n_validation=2)

    def test_no_label_fields_in_window_batch(self):
        names = {f.name for f in fields(WindowBatch)}
        assert names == {"windows", "source_ids", "offsets"}

    def test_invalid_fraction_rejected(self):
        sets = self.make_sets()
        with pytest.raises(ContractError):
            build_training_corpus(sets, p=0.3, seed=0, n_validation=2)


class TestSynthCorpus:
    def test_zero_rate_gives_clean_labels(self):
        sets = synth_corpus(SynthConfig(channels=3, n_sets=2, length=400,
                                        anomaly_rate=0.0), seed=9)
        for s in sets:
            assert s.labels.sum() == 0

    def test_identical_seeds_identical_corpora(self):
        cfg = SynthConfig(channels=4, n_sets=3, length=500)
        a = synth_corpus(cfg, seed=10)
        b = synth_corpus(cfg, seed=10)
        for sa, sb in zip(a, b):
            assert sa.channels.tobytes() == sb.channels.tobytes()
            assert np.array_equal(sa.labels, sb.labels)

    def test_normal_prefix_layout(self):
        sets = synth_corpus(SynthConfig(channels=3, n_sets=3, length=800,
                                        normal_prefix_fraction=0.6), seed=11)
        for s in sets:
            assert s.normal_prefix_length() >= int(0.6 * 800)

    def test_level_shift_detectable_against_ground_truth(self):
        # Oracle detector: reconstruction = the clean signal, normalizer =
        # inverse true channel spread, threshold swept.
        cfg = SynthConfig(channels=4, n_sets=3, length=1000,
                          anomaly_types=("level_shift",), level_shift_sigma=5.0,
                          normal_prefix_fraction=0.4, anomaly_rate=0.2)
        sets = synth_corpus(cfg, seed=12)
        means_list, counts_list = [], []
        for s in sets:
            omega = 1.0 / np.maximum(s.clean.std(axis=1), 1e-6)
            batch = window(s, 100, 100)
            for w, o in zip(batch.windows, batch.offsets):
                clean_w = s.clean[:, o: o + 100]
                mae = max_abs_error(scaled_abs_error(w, clean_w, omega))
                means_list.append(subset_means(mae))
                counts_list.append(s.labels[o: o + 100].reshape(10, 10).sum(axis=1))
        best, _, _ = sweep_one_shot(means_list, counts_list)
        assert best.f1 > 0.9
