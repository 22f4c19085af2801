"""End-to-end CLI tests on a tiny synthetic experiment."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from lossyad.bottleneck import Bitstream
from lossyad.cli import _load_config, _open_checkpoint, build_parser, main
from lossyad.data import SynthConfig, window
from lossyad.config import MAX_DELTA_GRID_POINTS, load_experiment, parse_experiment
from lossyad.errors import ConfigError, NumericAbort
from lossyad.model import TcnConfig
from lossyad.training import LossWeights, TrainingConfig
from oracles import checkpoint_offset


def tiny_config(out_dir, **overrides):
    doc = {
        "model": {
            "input_channels": 3, "window_length": 50, "blocks": 2,
            "channel_width": 6, "latent_dim": 8, "bottleneck_enabled": True,
        },
        "training": {
            "lambda1": 200.0, "lambda2": 200.0, "learning_rate": 1e-3,
            "batch_size": 16, "epochs": 2, "seed": 0,
        },
        "data": {
            "source": "synth",
            "synth": {
                "channels": 3, "n_sets": 5, "length": 400,
                "latent_components": 2, "noise_std": 0.08,
                "normal_prefix_fraction": 0.55, "anomaly_rate": 0.3,
                "level_shift_sigma": 6.0,
            },
            "synth_seed": 77, "anomaly_fraction": 0.05, "split_seed": 3,
            "n_validation": 2, "train_stride": 5,
        },
        "detection": {"delta": 1.0, "delta_grid": [0.2, 6.0, 0.2],
                      "cs_limit": 0.85, "eval_stride": None},
        "output_dir": str(out_dir),
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        doc[section][key] = value
    return doc


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One trained tiny checkpoint shared by the read-only commands."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    cfg_path = write_config(root, tiny_config(out))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, out


# Every key read from a dataclass: (section, key, a value of its type, a
# value of another type). int, float, bool and tuple fields take a JSON int,
# a number, a bool and a list.
DATACLASS_KEYS = [
    *[("model", key, good, 2.5) for key, good in [
        ("input_channels", 2), ("window_length", 100), ("blocks", 2),
        ("channel_width", 2), ("latent_dim", 2)]],
    ("model", "bottleneck_enabled", False, 1),
    *[("training", key, 0.5, "0.5") for key in (
        "lambda1", "lambda2", "learning_rate")],
    *[("training", key, 2, 2.5) for key in ("batch_size", "epochs", "seed")],
    *[("data.synth", key, 2, 2.5) for key in (
        "channels", "n_sets", "length", "latent_components")],
    *[("data.synth", key, 0.5, "0.5") for key in (
        "noise_std", "normal_prefix_fraction", "anomaly_rate",
        "level_shift_sigma", "variance_factor", "frequency_factor")],
    ("data.synth", "anomaly_types", ["variance_burst", "variance_burst"],
     "variance_burst"),
]


# Every key of the training, data, data.synth and detection sections that
# takes a number.
NUMBER_KEYS = [
    *[("training", key) for key in (
        "lambda1", "lambda2", "learning_rate", "batch_size", "epochs", "seed")],
    *[("data", key) for key in (
        "synth_seed", "anomaly_fraction", "split_seed", "n_validation",
        "train_stride", "min_anomalous_fraction")],
    *[("data.synth", key) for key in (
        "channels", "n_sets", "length", "latent_components", "noise_std",
        "normal_prefix_fraction", "anomaly_rate", "level_shift_sigma",
        "variance_factor", "frequency_factor")],
    *[("detection", key) for key in ("delta", "cs_limit", "eval_stride")],
]


def nested(section, key, value):
    """A config document that sets one key of a (dotted) section."""
    doc = {key: value}
    for name in reversed(section.split(".")):
        doc = {name: doc}
    return doc


class TestConfigValidation:
    def test_defaults_are_the_dataclasses(self):
        cfg = parse_experiment({})
        assert cfg.training == TrainingConfig(model=TcnConfig(),
                                              weights=LossWeights())
        assert cfg.data["synth"] == SynthConfig()

    @pytest.mark.parametrize("section, key, good, bad", DATACLASS_KEYS)
    def test_dataclass_key_takes_its_type_only(self, section, key, good, bad):
        parse_experiment(nested(section, key, good))
        with pytest.raises(ConfigError, match=key):
            parse_experiment(nested(section, key, bad))

    @pytest.mark.parametrize("section, key", NUMBER_KEYS)
    def test_bool_for_a_number_is_config_error(self, tmp_path, section, key):
        # Python's True is an int; a JSON bool must not pass as 1
        out = tmp_path / "o"
        doc = tiny_config(out)
        target = doc
        for name in section.split("."):
            target = target[name]
        target[key] = True
        assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 2
        assert not out.exists()

    def test_bool_in_the_delta_grid_is_config_error(self):
        with pytest.raises(ConfigError, match="delta_grid"):
            parse_experiment(nested("detection", "delta_grid", [True, 3.0, 0.05]))

    @pytest.mark.parametrize("edits, flags", [
        ({"delta": float("nan")}, []), ({"delta": -1.0}, []),
        ({"delta": float("inf")}, []), ({}, ["--delta", "nan"]),
        ({}, ["--delta", "-1"]), ({"cs_limit": float("nan")}, []),
        ({"cs_limit": 1.5}, []), ({"cs_limit": 0}, [])])
    def test_bad_threshold_is_config_error(self, trained, tmp_path, edits, flags):
        # json writes and reads NaN and Infinity; the parse must stop them
        # before any checkpoint or split is loaded
        _, out = trained
        doc = tiny_config(tmp_path / "o")
        doc["detection"].update(edits)
        dest = tmp_path / "stream"
        assert main(["stream", "--config", str(write_config(tmp_path, doc)),
                     "--checkpoint", str(out), "--out", str(dest), *flags]) == 2
        assert not (dest / "stream_scores.csv").exists()
        assert not (dest / "stream_summary.json").exists()

    def test_window_length_off_the_subset_grid_is_config_error(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, tiny_config(out, **{"model.window_length": 55}))
        assert main(["train", "--config", str(cfg)]) == 2
        assert not out.exists()

    def test_delta_grid_point_count_capped(self, tmp_path):
        cap = MAX_DELTA_GRID_POINTS
        parse_experiment(nested("detection", "delta_grid", [1, cap, 1]))
        with pytest.raises(ConfigError, match="delta_grid"):
            parse_experiment(nested("detection", "delta_grid", [1, cap + 1, 1]))
        out = tmp_path / "o"
        doc = tiny_config(out, **{"detection.delta_grid": [0.2, 3.0, 1e-9]})
        assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("channels", 0), ("n_sets", 0), ("length", 0), ("latent_components", 0),
        ("noise_std", -1), ("normal_prefix_fraction", 1.5),
        ("anomaly_rate", -0.1), ("anomaly_types", []),
        ("anomaly_types", ["bogus"])])
    def test_invalid_synth_setting_is_config_error(self, tmp_path, key, value):
        out = tmp_path / "o"
        doc = tiny_config(out)
        doc["data"]["synth"][key] = value
        assert main(["synth", "--config", str(write_config(tmp_path, doc))]) == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        doc = tiny_config(tmp_path / "o")
        doc["model"]["channelz"] = 4
        with pytest.raises(ConfigError, match="channelz"):
            parse_experiment(doc)

    def test_unknown_top_level_rejected(self, tmp_path):
        doc = tiny_config(tmp_path / "o")
        doc["extra_section"] = {}
        with pytest.raises(ConfigError, match="extra_section"):
            parse_experiment(doc)

    def test_wrong_type_rejected(self, tmp_path):
        doc = tiny_config(tmp_path / "o")
        doc["training"]["epochs"] = "ten"
        with pytest.raises(ConfigError, match="epochs"):
            parse_experiment(doc)

    def test_csv_source_requires_paths(self, tmp_path):
        doc = tiny_config(tmp_path / "o")
        doc["data"]["source"] = "csv"
        with pytest.raises(ConfigError, match="paths"):
            parse_experiment(doc)

    def test_invalid_config_exit_code(self, tmp_path):
        doc = tiny_config(tmp_path / "o")
        doc["model"]["bad_key"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("kernel_width", 3), ("layers_per_block", 2), ("density_filters", [3, 3, 3]),
        ("density_init_scale", 10.0), ("likelihood_floor", 1e-9)])
    def test_fixed_architecture_key_exit_code(self, tmp_path, key, value):
        # the architecture fixes these; a config that sets one is rejected
        doc = tiny_config(tmp_path / "o")
        doc["model"][key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2

    def test_missing_config_file_exit_code(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_hash_stable_under_key_order(self, tmp_path):
        doc = tiny_config(tmp_path / "o")
        a = parse_experiment(doc)
        shuffled = json.loads(json.dumps(doc))
        b = parse_experiment(shuffled)
        assert a.hash == b.hash

    def test_hash_ignores_out_but_not_seed(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(tmp_path / "o"))

        def hash_of(*extra):
            args = build_parser().parse_args(["train", "--config", str(cfg), *extra])
            return _load_config(args).hash

        at_a = hash_of("--out", str(tmp_path / "a"))
        assert hash_of("--out", str(tmp_path / "b")) == at_a
        assert hash_of() == at_a
        assert hash_of("--out", str(tmp_path / "a"), "--seed", "9") != at_a


class TestTrain:
    def test_writes_three_artifacts(self, trained):
        _, out = trained
        assert (out / "checkpoint.bin").exists()
        assert (out / "manifest.json").exists()
        assert (out / "train_report.csv").exists()

    def test_manifest_carries_hash_and_corpus(self, trained):
        cfg_path, out = trained
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = load_experiment(cfg_path)
        assert manifest["experiment_hash"] == cfg.hash
        assert manifest["corpus"]["anomaly_fraction"] == 0.05
        assert manifest["density_tables"] is not None
        assert (out / "train_report.csv").read_text().startswith(
            f"# config_hash={cfg.hash}")

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        doc = tiny_config(tmp_path / "a")
        cfg = write_config(tmp_path, doc, "a.json")
        assert main(["train", "--config", str(cfg)]) == 0
        doc_b = tiny_config(tmp_path / "b")
        cfg_b = write_config(tmp_path, doc_b, "b.json")
        assert main(["train", "--config", str(cfg_b)]) == 0
        a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert a == b

    def test_seed_override_changes_checkpoint(self, tmp_path):
        doc = tiny_config(tmp_path / "s0")
        cfg = write_config(tmp_path, doc, "s.json")
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--seed", "9",
                     "--out", str(tmp_path / "s9")]) == 0
        a = (tmp_path / "s0" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "s9" / "checkpoint.bin").read_bytes()
        assert a != b

    @pytest.mark.parametrize("key, value", [
        ("batch_size", -3), ("batch_size", 0), ("epochs", 0), ("epochs", -1),
        ("learning_rate", 0.0), ("learning_rate", -1.0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf"))])
    def test_invalid_training_setting_is_config_error(self, tmp_path, key, value):
        out = tmp_path / "o"
        doc = tiny_config(out, **{"training.epochs": 1, f"training.{key}": value})
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2
        assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("command, key, value", [
    ("train", "data.train_stride", 0), ("eval", "detection.eval_stride", 0),
    ("eval", "detection.eval_stride", -3), ("train", "data.n_validation", -1)])
def test_invalid_stride_or_validation_count_is_data_error(
        trained, tmp_path, command, key, value):
    _, checkpoint = trained
    out = tmp_path / "o"
    cfg = write_config(tmp_path, tiny_config(out, **{"training.epochs": 1, key: value}))
    args = [command, "--config", str(cfg)]
    if command == "eval":
        args += ["--checkpoint", str(checkpoint), "--out", str(out)]
    assert main(args) == 3
    assert not (out / "checkpoint.bin").exists()
    assert not (out / "metrics.json").exists()


class TestEval:
    def test_metrics_and_scores(self, trained, tmp_path):
        cfg_path, out = trained
        dest = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(out), "--out", str(dest)]) == 0
        metrics = json.loads((dest / "metrics.json").read_text())
        assert 0.0 <= metrics["best_f1"] <= 1.0
        assert metrics["model_type"] == "rdo"
        assert {"tp", "fp", "fn", "best_delta", "per_set",
                "channel_width"} <= set(metrics)
        lines = (dest / "eval_scores.csv").read_text().strip().splitlines()
        assert lines[1] == "set_id,window_offset,subset_index,mean,n_anomalous"
        assert len(lines) > 10

    def test_f1_recount_from_dumped_scores(self, trained, tmp_path):
        # Independent recount: rebuild predictions from the dump at the
        # reported best delta and recompute F1 from scratch.
        cfg_path, out = trained
        dest = tmp_path / "eval2"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(out), "--out", str(dest)]) == 0
        metrics = json.loads((dest / "metrics.json").read_text())
        rows = (dest / "eval_scores.csv").read_text().strip().splitlines()[2:]
        tp = fp = fn = 0
        for row in rows:
            _, _, _, mean, n_anom = row.split(",")
            n_anom = int(n_anom)
            if float(mean) > metrics["best_delta"]:
                tp += n_anom
                fp += 10 - n_anom
            else:
                fn += n_anom
        recount = 2.0 * tp / (2.0 * tp + fp + fn)
        assert abs(recount - metrics["best_f1"]) < 1e-12
        assert (tp, fp, fn) == (metrics["tp"], metrics["fp"], metrics["fn"])


class TestStreamAndCompress:
    def test_stream_outputs(self, trained, tmp_path):
        cfg_path, out = trained
        dest = tmp_path / "stream"
        assert main(["stream", "--config", str(cfg_path), "--checkpoint",
                     str(out), "--out", str(dest), "--delta", "2.0"]) == 0
        lines = (dest / "stream_scores.csv").read_text().strip().splitlines()
        assert lines[1] == "t,max_err,confidence,alarm,label"
        cs = [float(l.split(",")[2]) for l in lines[2:]]
        assert all(0.0 <= v <= 1.0 for v in cs)
        summary = json.loads((dest / "stream_summary.json").read_text())
        assert 0.0 <= summary["multi_shot_f1"] <= 1.0

    def test_compress_lossless_and_stats(self, trained, tmp_path):
        cfg_path, out = trained
        dest = tmp_path / "comp"
        assert main(["compress", "--config", str(cfg_path), "--checkpoint",
                     str(out), "--out", str(dest)]) == 0
        stats = json.loads((dest / "compress_stats.json").read_text())
        assert stats["lossless"] is True
        assert stats["windows"] >= 1
        assert stats["actual_bytes"] > 0
        assert (dest / "latents.lyb").read_bytes()[:4] == b"LYB1"

    def test_edited_codec_frequency_is_data_error(self, trained, tmp_path):
        cfg_path, out = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(out, ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        freqs = manifest["density_tables"]["frequencies"][0]
        freqs[0], freqs[1] = freqs[0] + 1, freqs[1] - 1
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert main(["compress", "--config", str(cfg_path), "--checkpoint",
                     str(ckpt), "--out", str(tmp_path / "comp")]) == 3

    def test_latent_int64_cannot_hold_is_data_error(self, trained, tmp_path, capsys):
        # A diverged model: latent.bias of [1e20, -1e20] must not be coded as
        # wrapped -2^63 symbols and reported lossless.
        cfg_path, out = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(out, ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        offset = checkpoint_offset(manifest, "latent.bias")
        blob = bytearray((ckpt / "checkpoint.bin").read_bytes())
        blob[offset: offset + 16] = np.array(
            [1e20, -1e20], dtype="<f8").tobytes()
        (ckpt / "checkpoint.bin").write_bytes(bytes(blob))
        dest = tmp_path / "comp"
        assert main(["compress", "--config", str(cfg_path), "--checkpoint",
                     str(ckpt), "--out", str(dest)]) == 3
        assert "int64" in capsys.readouterr().err
        assert not (dest / "latents.lyb").exists()
        assert not (dest / "compress_stats.json").exists()

    def test_non_finite_parameter_is_data_error(self, trained, tmp_path, capsys):
        # a NaN bias would otherwise score every error as "no vote"
        cfg_path, out = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(out, ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        offset = checkpoint_offset(manifest, "expand.bias")
        blob = bytearray((ckpt / "checkpoint.bin").read_bytes())
        blob[offset: offset + 8] = np.array(
            [np.nan], dtype="<f8").tobytes()
        (ckpt / "checkpoint.bin").write_bytes(bytes(blob))
        dest = tmp_path / "stream"
        assert main(["stream", "--config", str(cfg_path), "--checkpoint",
                     str(ckpt), "--out", str(dest)]) == 3
        assert "expand.bias holds a non-finite value" in capsys.readouterr().err
        assert not (dest / "stream_scores.csv").exists()

    def test_latents_read_back_as_the_disjoint_windows(self, trained, tmp_path):
        cfg_path, out = trained
        dest = tmp_path / "comp"
        assert main(["compress", "--config", str(cfg_path), "--checkpoint",
                     str(out), "--out", str(dest)]) == 0
        _, model, _, codec, split, _ = _open_checkpoint(build_parser().parse_args(
            ["compress", "--config", str(cfg_path), "--checkpoint", str(out)]))
        t_len = model.config.window_length
        windows = window(split.validation[0], t_len, t_len).windows
        raw = (dest / "latents.lyb").read_bytes()
        stats = json.loads((dest / "compress_stats.json").read_text())
        assert stats["actual_bytes"] == len(raw)
        assert stats["windows"] == len(windows)
        back = codec.decompress(Bitstream.from_bytes(raw))
        assert np.array_equal(back, model.latent_symbols(windows).reshape(-1))


class TestSweepAndSynth:
    def test_sweep_grid_cardinality(self, tmp_path):
        doc = tiny_config(tmp_path / "sweep")
        doc["training"]["epochs"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--fractions", "0,0.05",
                     "--models", "rdo,ae", "--seeds", "0",
                     "--out", str(tmp_path / "sweep")]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 4
        assert all(r.endswith("ok") for r in data_rows)
        ae_rows = [r for r in data_rows if r.startswith("ae")]
        assert all(",0.0,0.0," in r for r in ae_rows)

    def test_sweep_records_a_numeric_abort_as_an_error_row(self, tmp_path, monkeypatch):
        import lossyad.cli as cli

        def abort(corpus, config):
            raise NumericAbort("loss diverged")

        monkeypatch.setattr(cli, "fit", abort)
        doc = tiny_config(tmp_path / "sweep")
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--fractions", "0",
                     "--models", "rdo", "--seeds", "0",
                     "--out", str(tmp_path / "sweep")]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
        assert rows[-1].endswith("error: loss diverged")

    def test_sweep_lets_a_program_bug_propagate(self, tmp_path, monkeypatch):
        import lossyad.cli as cli

        def bug(corpus, config):
            raise RuntimeError("a bug, not a failed cell")

        monkeypatch.setattr(cli, "fit", bug)
        doc = tiny_config(tmp_path / "sweep")
        cfg = write_config(tmp_path, doc)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["sweep", "--config", str(cfg), "--fractions", "0",
                  "--models", "rdo", "--seeds", "0", "--out", str(tmp_path / "sweep")])
        assert not (tmp_path / "sweep" / "sweep.csv").exists()

    def test_sweep_rejects_seed(self, tmp_path, capsys):
        # --seeds picks the seeds; a --seed would be silently ignored
        cfg = write_config(tmp_path, tiny_config(tmp_path / "sweep"))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_sweep_cell_agrees_with_train_then_eval(self, tmp_path):
        doc = tiny_config(tmp_path / "run", **{"training.seed": 4})
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--models", "rdo",
                     "--fractions", "0.05", "--seeds", "4",
                     "--out", str(tmp_path / "sweep")]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "run")]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert (row["status"], row["model_type"]) == ("ok", metrics["model_type"])
        for key in ("best_f1", "best_delta", "lambda1", "lambda2", "channel_width"):
            assert float(row[key]) == metrics[key], key

    def test_synth_writes_loadable_sets(self, tmp_path):
        doc = tiny_config(tmp_path / "syn")
        cfg = write_config(tmp_path, doc)
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "syn")]) == 0
        manifest = json.loads((tmp_path / "syn" / "synth_manifest.json").read_text())
        assert len(manifest["files"]) == 5
        from lossyad.data import load_series
        s = load_series(manifest["files"][0])
        assert s.channels.shape == (3, 400)

    def test_channel_mismatch_with_checkpoint_is_data_error(self, trained, tmp_path):
        # The checkpoint has 3 input channels; this config's series have 4.
        _, out = trained
        doc = tiny_config(tmp_path / "x", **{"model.input_channels": 4})
        doc["data"]["synth"]["channels"] = 4
        cfg = write_config(tmp_path, doc)
        code = main(["stream", "--config", str(cfg), "--checkpoint", str(out),
                     "--out", str(tmp_path / "x")])
        assert code == 3

    def test_non_finite_csv_cell_is_data_error(self, trained, tmp_path, capsys):
        _, out = trained
        rows = "".join(f"t{t},{t % 3}.0,1.0,0.5,0\n" for t in range(60))
        csv = tmp_path / "bad.csv"
        csv.write_text("datetime,a,b,c,anomaly\n" + rows + "t60,1.0,nan,0.5,0\n")
        doc = tiny_config(tmp_path / "x")
        doc["data"] = {"source": "csv", "paths": [str(csv)]}
        cfg = write_config(tmp_path, doc)
        code = main(["stream", "--config", str(cfg), "--checkpoint", str(out),
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "bad.csv:62: value 'nan' in column 'b'" in capsys.readouterr().err

    def test_non_utf8_csv_is_data_error(self, trained, tmp_path, capsys):
        _, out = trained
        rows = "".join(f"t{t},{t % 3}.0,1.0,0.5,{int(t > 40)}\n" for t in range(60))
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(("datetime,a,b,c,anomaly\n" + rows).encode()
                        + b"t60,1.0,\xe9,0.5,0\n")
        doc = tiny_config(tmp_path / "x")
        doc["data"] = {"source": "csv", "paths": [str(csv)]}
        cfg = write_config(tmp_path, doc)
        code = main(["eval", "--config", str(cfg), "--checkpoint", str(out),
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "latin1.csv:62: byte" in capsys.readouterr().err

    def test_unknown_set_id_is_data_error(self, trained, tmp_path):
        cfg_path, out = trained
        code = main(["stream", "--config", str(cfg_path), "--checkpoint",
                     str(out), "--set", "nope", "--out", str(tmp_path / "x")])
        assert code == 3
