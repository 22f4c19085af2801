"""Command-line entry point.

Subcommands: train, eval, stream, compress, sweep, synth. Every run is
reproducible from (config, seed, data); outputs embed the config hash.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric abort.
Every experiment is a cell: `train_cell` (split, fit), then `evaluate_cell`
(one-shot sweep on the validation split). `train` and `eval` run one step
each with a checkpoint between; a sweep cell runs both on an edited config.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, LossyadError, NumericAbort
from .config import load_experiment, parse_experiment
from .data import (build_training_corpus, load_series, synth_corpus, window,
                   write_series_csv)
from .detection import default_delta_grid
from .evaluate import evaluate_one_shot, stream_series
from .model import load_checkpoint, save_checkpoint
from .training import fit, latent_support

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _override(cfg, edits):
    """`cfg` re-parsed with edits {"section.key" or top-level key: value}."""
    raw = copy.deepcopy(cfg.raw)
    for dotted, value in edits.items():
        section, _, key = dotted.rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[key] = value
    return parse_experiment(raw)


def _load_config(args):
    edits = {"training.seed": getattr(args, "seed", None), "output_dir": args.out}
    return _override(load_experiment(args.config),
                     {k: v for k, v in edits.items() if v is not None})


def _assemble_split(cfg):
    data = cfg.data
    if data["source"] == "synth":
        sets = synth_corpus(data["synth"], seed=data["synth_seed"])
    else:
        sets = [load_series(p, delimiter=data["delimiter"],
                            timestamp_column=data["timestamp_column"],
                            label_columns=tuple(data["label_columns"]))
                for p in data["paths"]]
    return build_training_corpus(
        sets, p=float(data["anomaly_fraction"]), seed=data["split_seed"],
        window_length=cfg.model.window_length, stride=data["train_stride"],
        n_validation=data["n_validation"],
        min_anomalous_fraction=float(data["min_anomalous_fraction"]))


def train_cell(cfg):
    """A cell's split and fit: returns (split, model, TrainReport)."""
    split = _assemble_split(cfg)
    model, report = fit(split.train.windows, cfg.training)
    return split, model, report


def evaluate_cell(cfg, model, split):
    """The config's one-shot sweep of the validation split: (EvalReport, rows)."""
    grid = default_delta_grid(*map(float, cfg.detection["delta_grid"]))
    return evaluate_one_shot(model, split.validation, grid=grid,
                             stride=cfg.detection["eval_stride"])


def _cell_record(cfg, report, manifest):
    """The fields metrics.json and a sweep.csv row share. A checkpoint's
    manifest (else {}) supplies the model type and loss weights it holds."""
    weights = manifest.get("loss_weights", {})
    return {
        "model_type": manifest.get("model_type", cfg.model_type()),
        "anomaly_fraction": cfg.data["anomaly_fraction"],
        "lambda1": weights.get("lambda1", cfg.training.weights.lambda1),
        "lambda2": weights.get("lambda2", cfg.training.weights.lambda2),
        "channel_width": cfg.model.channel_width,
        "best_f1": report.best_f1,
        "best_delta": report.best_delta,
    }


def _open_checkpoint(args):
    """(cfg, model, manifest, codec, split, out) of eval, stream and compress;
    out is --out, else the checkpoint directory, and exists on return."""
    cfg = _load_config(args)
    model, manifest, codec = load_checkpoint(args.checkpoint)
    split = _assemble_split(cfg)
    out = Path(args.out or args.checkpoint)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, model, manifest, codec, split, out


def _pick_series(split, set_id):
    if set_id is None:
        return split.validation[0]
    for s in split.validation:
        if s.set_id == set_id:
            return s
    raise ContractError(
        f"set {set_id!r} not in validation split "
        f"{[s.set_id for s in split.validation]}")


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def _write_csv(path, config_hash, header, rows):
    """A `# config_hash=` line, the header, then the rows, comma-joined."""
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n{header}\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def cmd_train(args):
    cfg = _load_config(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    split, model, report = train_cell(cfg)
    support = None
    if cfg.model.bottleneck_enabled:
        support = latent_support(model, split.train.windows)
    save_checkpoint(model, out, codec_support=support, extra={
        "experiment": cfg.raw,
        "experiment_hash": cfg.hash,
        "model_type": cfg.model_type(),
        "corpus": split.manifest(),
        "loss_weights": {"lambda1": cfg.training.weights.lambda1,
                         "lambda2": cfg.training.weights.lambda2},
    })
    _write_csv(out / "train_report.csv", cfg.hash,
               "epoch,rate,distortion,reconstruction,total,seconds",
               ((e.epoch, e.rate, e.distortion, e.reconstruction, e.total,
                 f"{e.seconds:.3f}") for e in report.epochs))
    last = report.epochs[-1]
    print(f"trained {cfg.model_type()} for {cfg.training.epochs} epochs: "
          f"total={last.total:.6g} rate={last.rate:.6g} -> {out}")
    return EXIT_OK


def cmd_eval(args):
    cfg, model, manifest, _, split, out = _open_checkpoint(args)
    report, rows = evaluate_cell(cfg, model, split)
    _write_json(out / "metrics.json", {
        "config_hash": cfg.hash,
        "train_report": str(Path(args.checkpoint) / "train_report.csv"),
        **report.to_dict(),
        **_cell_record(cfg, report, manifest),
    })
    _write_csv(out / "eval_scores.csv", cfg.hash,
               "set_id,window_offset,subset_index,mean,n_anomalous", rows)
    print(f"best F1 {report.best_f1:.6f} at delta {report.best_delta:.3g} "
          f"(tp={report.tp} fp={report.fp} fn={report.fn})")
    return EXIT_OK


def cmd_stream(args):
    cfg, model, _, _, split, out = _open_checkpoint(args)
    series = _pick_series(split, args.set)
    delta = args.delta if args.delta is not None else cfg.detection["delta"]
    result = stream_series(model, series, delta=float(delta),
                           cs_limit=float(cfg.detection["cs_limit"]))
    _write_csv(out / "stream_scores.csv", cfg.hash,
               "t,max_err,confidence,alarm,label",
               ((t, float(result.latest_max_err[t]), float(result.confidence[t]),
                 int(result.alarms[t]), int(result.labels[t]))
                for t in range(result.confidence.shape[0])))
    _write_json(out / "stream_summary.json", {
        "config_hash": cfg.hash,
        "set_id": series.set_id,
        "delta": float(delta),
        "cs_limit": float(cfg.detection["cs_limit"]),
        "multi_shot_f1": result.multi_shot_f1,
        "one_shot_f1": result.one_shot_f1,
    })
    print(f"stream {series.set_id}: multi-shot F1 {result.multi_shot_f1:.6f}, "
          f"1-shot F1 {result.one_shot_f1:.6f}")
    return EXIT_OK


def cmd_compress(args):
    cfg, model, _, codec, split, out = _open_checkpoint(args)
    if codec is None:
        raise ContractError("checkpoint has no density tables; "
                            "train with the bottleneck enabled")
    series = _pick_series(split, args.set)
    t_len = model.config.window_length

    windows = window(series, t_len, t_len).windows
    symbols = np.concatenate([model.latent_symbols(windows[part])
                              for part in model.chunks(len(windows))]).T
    estimated_bits = model.density.rate_bits(symbols.astype(np.float64)).item()
    n_windows = symbols.shape[1]
    # latents.lyb is one LYB1 stream: the (dims, n_windows) latents, window
    # after window
    bs = codec.compress(symbols)
    if not np.array_equal(codec.decompress(bs), symbols.reshape(-1, order="F")):
        raise ContractError("lossless round-trip failed")
    raw = bs.to_bytes()
    (out / "latents.lyb").write_bytes(raw)
    actual_bytes = len(raw)
    escapes = len(bs.escapes)
    _write_json(out / "compress_stats.json", {
        "config_hash": cfg.hash,
        "set_id": series.set_id,
        "windows": n_windows,
        "symbols": n_windows * model.config.latent_dim,
        "estimated_bits": estimated_bits,
        "actual_bytes": actual_bytes,
        "payload_bytes": len(bs.payload),
        "actual_over_estimated": (8.0 * actual_bytes) / max(estimated_bits, 1e-9),
        "escape_symbols": escapes,
        "lossless": True,
    })
    print(f"compressed {n_windows} windows: {estimated_bits:.1f} bits estimated, "
          f"{8 * actual_bytes} bits actual ({escapes} escapes)")
    return EXIT_OK


_SWEEP_COLUMNS = ("model_type", "anomaly_pct", "seed", "best_f1", "best_delta",
                  "lambda1", "lambda2", "channel_width", "status")


def cmd_sweep(args):
    cfg_base = _load_config(args)
    fractions = [float(x) for x in args.fractions.split(",") if x != ""]
    models = [m.strip().lower() for m in args.models.split(",") if m.strip()]
    seeds = [int(x) for x in args.seeds.split(",") if x != ""]
    for m in models:
        if m not in ("rdo", "ae"):
            raise ConfigError(f"unknown model type {m!r} (want rdo/ae)")
    out = Path(cfg_base.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for model_type, p, seed in itertools.product(models, fractions, seeds):
        edits = {"data.anomaly_fraction": p, "training.seed": seed,
                 "model.bottleneck_enabled": model_type == "rdo"}
        if model_type == "ae":
            edits.update({"training.lambda1": 0.0, "training.lambda2": 0.0})
        row = {"model_type": model_type, "anomaly_pct": p, "seed": seed}
        try:
            cfg = _override(cfg_base, edits)
            split, model, _ = train_cell(cfg)
            report, _ = evaluate_cell(cfg, model, split)
            row.update(_cell_record(cfg, report, {}), status="ok")
            print(f"cell {model_type} p={p} seed={seed}: F1={report.best_f1:.6f}",
                  flush=True)
        except LossyadError as e:  # isolate cell failures, not program bugs
            row["status"] = f"error: {e}"
            print(f"cell {model_type} p={p} seed={seed} FAILED: {e}",
                  file=sys.stderr, flush=True)
        rows.append([row.get(k, "") for k in _SWEEP_COLUMNS])
    _write_csv(out / "sweep.csv", cfg_base.hash, ",".join(_SWEEP_COLUMNS), rows)
    failed = sum(row[-1] != "ok" for row in rows)
    print(f"sweep wrote {len(rows)} cells ({failed} failed) -> {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_synth(args):
    cfg = _load_config(args)
    if cfg.data["source"] != "synth":
        raise ConfigError("synth command requires data.source == 'synth'")
    sets = synth_corpus(cfg.data["synth"], seed=cfg.data["synth_seed"])
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for s in sets:
        path = out / f"{s.set_id}.csv"
        write_series_csv(s, path)
        paths.append(str(path))
    _write_json(out / "synth_manifest.json", {
        "config_hash": cfg.hash,
        "seed": cfg.data["synth_seed"],
        "generator": cfg.data["synth"].to_dict(),
        "files": paths,
    })
    print(f"wrote {len(paths)} synthetic sets -> {out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lossyad",
        description="Rate-distortion-optimized temporal autoencoder for "
                    "time-series anomaly detection")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, checkpoint=False, pick_set=False, seed=True):
        p.add_argument("--config", required=True, help="experiment JSON")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override training.seed")
        p.add_argument("--out", default=None, help="override output directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True,
                           help="checkpoint directory")
        if pick_set:
            p.add_argument("--set", default=None,
                           help="validation set id (default: first)")

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="single-window threshold sweep on the "
                                    "validation sets")
    add_common(p, checkpoint=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stream", help="stride-1 streaming detection over one set")
    add_common(p, checkpoint=True, pick_set=True)
    p.add_argument("--delta", type=float, default=None,
                   help="single-window threshold (default from config)")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("compress", help="entropy-code the latents of one set")
    add_common(p, checkpoint=True, pick_set=True)
    p.set_defaults(func=cmd_compress)

    # no abbreviations: "--seed" must not pass for "--seeds"
    p = sub.add_parser("sweep", help="train/eval a grid of (model, fraction, seed)",
                       allow_abbrev=False)
    add_common(p, seed=False)
    p.add_argument("--fractions", default="0.0,0.05",
                   help="comma-separated anomaly fractions")
    p.add_argument("--models", default="rdo,ae",
                   help="comma-separated model types (rdo/ae)")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="write the synthetic corpus as CSV files")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericAbort as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (LossyadError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
