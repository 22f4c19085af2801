"""Command-line entry point.

Subcommands: train, eval, stream, compress, sweep, synth. Every run is
reproducible from (config, seed, data); outputs embed the config hash.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import copy
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


def _load_config(args):
    cfg = load_experiment(args.config)
    raw = copy.deepcopy(cfg.raw)
    if getattr(args, "seed", None) is not None:
        raw.setdefault("training", {})["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        raw["output_dir"] = str(args.out)
    return parse_experiment(raw)


def _assemble_sets(cfg):
    data = cfg.data
    if data["source"] == "synth":
        return synth_corpus(data["synth"], seed=data["synth_seed"])
    return [load_series(p, delimiter=data["delimiter"],
                        timestamp_column=data["timestamp_column"],
                        label_columns=tuple(data["label_columns"]))
            for p in data["paths"]]


def _assemble_split(cfg, sets=None):
    sets = _assemble_sets(cfg) if sets is None else sets
    data = cfg.data
    split = build_training_corpus(
        sets, p=float(data["anomaly_fraction"]), seed=data["split_seed"],
        window_length=cfg.model.window_length, stride=data["train_stride"],
        n_validation=data["n_validation"],
        min_anomalous_fraction=float(data["min_anomalous_fraction"]))
    return sets, split


def _grid(cfg):
    start, stop, step = cfg.detection["delta_grid"]
    return default_delta_grid(float(start), float(stop), float(step))


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


def cmd_train(args):
    cfg = _load_config(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, split = _assemble_split(cfg)
    model, report = fit(split.train.windows, cfg.training)
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
    report.to_csv(out / "train_report.csv", config_hash=cfg.hash)
    last = report.last()
    print(f"trained {cfg.model_type()} for {cfg.training.epochs} epochs: "
          f"total={last.total:.6g} rate={last.rate:.6g} -> {out}")
    return EXIT_OK


def cmd_eval(args):
    cfg = _load_config(args)
    model, manifest, _ = load_checkpoint(args.checkpoint)
    _, split = _assemble_split(cfg)
    report, rows = evaluate_one_shot(model, split.validation, grid=_grid(cfg),
                                     stride=cfg.detection["eval_stride"])
    out = Path(args.out) if args.out else Path(args.checkpoint)
    out.mkdir(parents=True, exist_ok=True)
    metrics = {
        "config_hash": cfg.hash,
        "model_type": manifest.get("model_type", cfg.model_type()),
        "anomaly_fraction": cfg.data["anomaly_fraction"],
        "lambda1": manifest.get("loss_weights", {}).get(
            "lambda1", cfg.training.weights.lambda1),
        "lambda2": manifest.get("loss_weights", {}).get(
            "lambda2", cfg.training.weights.lambda2),
        "channel_width": cfg.model.channel_width,
        "train_report": str(Path(args.checkpoint) / "train_report.csv"),
        **report.to_dict(),
    }
    _write_json(out / "metrics.json", metrics)
    with open(out / "eval_scores.csv", "w") as fh:
        fh.write(f"# config_hash={cfg.hash}\n")
        fh.write("set_id,window_offset,subset_index,mean,n_anomalous\n")
        for sid, off, k, m, cnt in rows:
            fh.write(f"{sid},{off},{k},{m!r},{cnt}\n")
    print(f"best F1 {report.best_f1:.6f} at delta {report.best_delta:.3g} "
          f"(tp={report.tp} fp={report.fp} fn={report.fn})")
    return EXIT_OK


def cmd_stream(args):
    cfg = _load_config(args)
    model, manifest, _ = load_checkpoint(args.checkpoint)
    _, split = _assemble_split(cfg)
    series = _pick_series(split, args.set)
    delta = args.delta if args.delta is not None else cfg.detection["delta"]
    result = stream_series(model, series, delta=float(delta),
                           cs_limit=float(cfg.detection["cs_limit"]))
    out = Path(args.out) if args.out else Path(args.checkpoint)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stream_scores.csv", "w") as fh:
        fh.write(f"# config_hash={cfg.hash}\n")
        fh.write("t,max_err,confidence,alarm,label\n")
        n = result.confidence.shape[0]
        for t in range(n):
            fh.write(f"{t},{float(result.latest_max_err[t])!r},"
                     f"{float(result.confidence[t])!r},{int(result.alarms[t])},"
                     f"{int(result.labels[t])}\n")
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
    cfg = _load_config(args)
    model, manifest, codec = load_checkpoint(args.checkpoint)
    if codec is None:
        raise ContractError("checkpoint has no density tables; "
                            "train with the bottleneck enabled")
    _, split = _assemble_split(cfg)
    series = _pick_series(split, args.set)
    t_len = model.config.window_length
    out = Path(args.out) if args.out else Path(args.checkpoint)
    out.mkdir(parents=True, exist_ok=True)

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
    stats = {
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
    }
    _write_json(out / "compress_stats.json", stats)
    print(f"compressed {n_windows} windows: {estimated_bits:.1f} bits estimated, "
          f"{8 * actual_bytes} bits actual ({escapes} escapes)")
    return EXIT_OK


def cmd_sweep(args):
    cfg_base = load_experiment(args.config)
    fractions = [float(x) for x in args.fractions.split(",") if x != ""]
    models = [m.strip().lower() for m in args.models.split(",") if m.strip()]
    seeds = [int(x) for x in args.seeds.split(",") if x != ""]
    for m in models:
        if m not in ("rdo", "ae"):
            raise ConfigError(f"unknown model type {m!r} (want rdo/ae)")
    out = Path(args.out) if args.out else Path(cfg_base.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    failures = []
    for model_type in models:
        for p in fractions:
            for seed in seeds:
                raw = copy.deepcopy(cfg_base.raw)
                raw.setdefault("data", {})["anomaly_fraction"] = p
                raw.setdefault("model", {})["bottleneck_enabled"] = \
                    model_type == "rdo"
                tr = raw.setdefault("training", {})
                tr["seed"] = seed
                if model_type == "ae":
                    tr["lambda1"] = 0.0
                    tr["lambda2"] = 0.0
                try:
                    cfg = parse_experiment(raw)
                    _, split = _assemble_split(cfg)
                    model, _ = fit(split.train.windows, cfg.training)
                    report, _ = evaluate_one_shot(
                        model, split.validation, grid=_grid(cfg),
                        stride=cfg.detection["eval_stride"])
                    rows.append((model_type, p, seed, report.best_f1,
                                 report.best_delta,
                                 cfg.training.weights.lambda1,
                                 cfg.training.weights.lambda2,
                                 cfg.model.channel_width, "ok"))
                    print(f"cell {model_type} p={p} seed={seed}: "
                          f"F1={report.best_f1:.6f}", flush=True)
                except LossyadError as e:  # isolate cell failures, not program bugs
                    failures.append((model_type, p, seed, str(e)))
                    rows.append((model_type, p, seed, "", "", "", "", "",
                                 f"error: {e}"))
                    print(f"cell {model_type} p={p} seed={seed} FAILED: {e}",
                          file=sys.stderr, flush=True)
    with open(out / "sweep.csv", "w") as fh:
        fh.write(f"# config_hash={cfg_base.hash}\n")
        fh.write("model_type,anomaly_pct,seed,best_f1,best_delta,"
                 "lambda1,lambda2,channel_width,status\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    print(f"sweep wrote {len(rows)} cells ({len(failures)} failed) -> "
          f"{out / 'sweep.csv'}")
    return EXIT_OK


def cmd_synth(args):
    cfg = _load_config(args)
    if cfg.data["source"] != "synth":
        raise ConfigError("synth command requires data.source == 'synth'")
    sets = synth_corpus(cfg.data["synth"], seed=cfg.data["synth_seed"])
    out = Path(args.out) if args.out else Path(cfg.output_dir)
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

    def add_common(p, checkpoint=False, pick_set=False):
        p.add_argument("--config", required=True, help="experiment JSON")
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

    p = sub.add_parser("sweep", help="train/eval a grid of (model, fraction, seed)")
    add_common(p)
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
