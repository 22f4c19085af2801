"""Experiment configuration: strict JSON schema, defaults, stable hashing.

Unknown keys anywhere in the document are rejected so that a config file
fully describes a run and typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError
from .data import SynthConfig
from .model import TcnConfig, config_hash
from .training import LossWeights, TrainingConfig

_MODEL_KEYS = {
    "input_channels": int, "window_length": int, "blocks": int,
    "channel_width": int, "latent_dim": int, "bottleneck_enabled": bool,
}
_TRAINING_KEYS = {
    "lambda1": (int, float), "lambda2": (int, float),
    "learning_rate": (int, float), "batch_size": int, "epochs": int,
    "seed": int,
}
_SYNTH_KEYS = {
    "channels": int, "n_sets": int, "length": int, "latent_components": int,
    "noise_std": (int, float), "normal_prefix_fraction": (int, float),
    "anomaly_rate": (int, float), "anomaly_types": list,
    "level_shift_sigma": (int, float), "variance_factor": (int, float),
    "frequency_factor": (int, float),
}
_DATA_KEYS = {
    "source": str, "paths": list, "delimiter": str, "timestamp_column": str,
    "label_columns": list, "synth": dict, "synth_seed": int,
    "anomaly_fraction": (int, float), "split_seed": int, "n_validation": int,
    "train_stride": int, "min_anomalous_fraction": (int, float),
}
_DETECTION_KEYS = {
    "delta": (int, float), "delta_grid": list, "cs_limit": (int, float),
    "eval_stride": (int, type(None)),
}
_TOP_KEYS = {"model": dict, "training": dict, "data": dict,
             "detection": dict, "output_dir": str}

_TRAINING_DEFAULTS = {"lambda1": 1.0e5, "lambda2": 1.0e5, "learning_rate": 1e-4,
                      "batch_size": 32, "epochs": 20, "seed": 0}
_DATA_DEFAULTS = {"source": "synth", "delimiter": ",",
                  "timestamp_column": "datetime", "label_columns": ["anomaly"],
                  "synth_seed": 1234, "anomaly_fraction": 0.0, "split_seed": 0,
                  "n_validation": 5, "train_stride": 10,
                  "min_anomalous_fraction": 0.0}
_DETECTION_DEFAULTS = {"delta": 1.0, "delta_grid": [0.2, 3.0, 0.05],
                       "cs_limit": 0.85, "eval_stride": None}


def _check_section(section, raw, known, where):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown key")
        expected = known[key]
        if expected is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"{where}.{key}: expected bool")
        elif expected is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{where}.{key}: expected int")
        elif not isinstance(value, expected):
            name = getattr(expected, "__name__", str(expected))
            raise ConfigError(f"{where}.{key}: expected {name}")
    return dict(raw)


@dataclass
class ExperimentConfig:
    model: TcnConfig
    training: TrainingConfig
    data: dict
    detection: dict
    output_dir: str
    raw: dict

    @property
    def hash(self):
        """Hash of the experiment: the raw config without `output_dir`,
        so one experiment written to two directories has one hash."""
        return config_hash({k: v for k, v in self.raw.items() if k != "output_dir"})

    def model_type(self):
        return "rdo" if self.model.bottleneck_enabled else "ae"


def parse_experiment(doc):
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(f"config.{key}: unknown key")
    model_raw = _check_section("model", doc.get("model", {}), _MODEL_KEYS, "model")
    training_raw = _check_section("training", doc.get("training", {}),
                                  _TRAINING_KEYS, "training")
    data_raw = _check_section("data", doc.get("data", {}), _DATA_KEYS, "data")
    detection_raw = _check_section("detection", doc.get("detection", {}),
                                   _DETECTION_KEYS, "detection")

    try:
        model = TcnConfig.from_dict(model_raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"model: {e}") from None

    tr = {**_TRAINING_DEFAULTS, **training_raw}
    try:
        training = TrainingConfig(
            model=model,
            weights=LossWeights(float(tr["lambda1"]), float(tr["lambda2"])),
            learning_rate=float(tr["learning_rate"]),
            batch_size=int(tr["batch_size"]), epochs=int(tr["epochs"]),
            seed=int(tr["seed"]))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"training: {e}") from None

    data = {**_DATA_DEFAULTS, **data_raw}
    if data["source"] not in ("synth", "csv"):
        raise ConfigError(f"data.source: must be 'synth' or 'csv', "
                          f"got {data['source']!r}")
    if data["source"] == "csv" and not data.get("paths"):
        raise ConfigError("data.paths: required when data.source is 'csv'")
    if "synth" in data_raw:
        _check_section("synth", data_raw["synth"], _SYNTH_KEYS, "data.synth")
        try:
            data["synth"] = SynthConfig.from_dict(data_raw["synth"])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"data.synth: {e}") from None
    elif data["source"] == "synth":
        data["synth"] = SynthConfig()

    detection = {**_DETECTION_DEFAULTS, **detection_raw}
    grid = detection["delta_grid"]
    if (len(grid) != 3 or not all(isinstance(v, (int, float)) for v in grid)
            or grid[0] <= 0 or grid[1] < grid[0] or grid[2] <= 0):
        raise ConfigError("detection.delta_grid: expected [start, stop, step] "
                          "with 0 < start <= stop and step > 0")

    output_dir = doc.get("output_dir", "runs/experiment")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected string")

    return ExperimentConfig(model=model, training=training, data=data,
                            detection=detection, output_dir=output_dir, raw=doc)


def load_experiment(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return parse_experiment(doc)
