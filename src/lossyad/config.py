"""Experiment configuration: strict JSON schema, defaults, stable hashing.

Unknown keys anywhere in the document are rejected so that a config file
fully describes a run and typos fail loudly. The model, training and
data.synth sections are the fields of TcnConfig, of LossWeights and
TrainingConfig, and of SynthConfig: each key's type and default is read
from its dataclass. The data and detection sections have one table each.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields

from .errors import ConfigError
from .data import SynthConfig
from .detection import DEFAULT_CS_LIMIT, SUBSET_SIZE
from .model import TcnConfig, config_hash
from .training import LossWeights, TrainingConfig

# The one-shot sweep holds every point of the delta grid, and metrics.json
# lists its whole curve; a finer grid is rejected.
MAX_DELTA_GRID_POINTS = 10_000

_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "tuple": list}
# what a type error names: the JSON type, not the Python one
_JSON_TYPE_NAMES = {int: "integer", (int, float): "number", bool: "boolean",
                    list: "array", str: "string", dict: "object",
                    (int, type(None)): "integer or null"}


def _dataclass_keys(*classes):
    """key: (JSON type, default) per field; the nested TrainingConfig.model
    and .weights are not keys."""
    return {f.name: (_JSON_TYPES[f.type], f.default)
            for cls in classes for f in fields(cls) if f.type in _JSON_TYPES}


_MODEL_KEYS = _dataclass_keys(TcnConfig)
_TRAINING_KEYS = _dataclass_keys(LossWeights, TrainingConfig)
_SYNTH_KEYS = _dataclass_keys(SynthConfig)
_DATA_KEYS = {
    "source": (str, "synth"), "paths": (list, None), "delimiter": (str, ","),
    "timestamp_column": (str, "datetime"), "label_columns": (list, ["anomaly"]),
    "synth": (dict, None), "synth_seed": (int, 1234),
    "anomaly_fraction": ((int, float), 0.0), "split_seed": (int, 0),
    "n_validation": (int, 5), "train_stride": (int, 10),
    "min_anomalous_fraction": ((int, float), 0.0),
}
_DETECTION_KEYS = {
    "delta": ((int, float), 1.0), "delta_grid": (list, [0.2, 3.0, 0.05]),
    "cs_limit": ((int, float), DEFAULT_CS_LIMIT), "eval_stride": ((int, type(None)), None),
}
_SECTIONS = {"model": _MODEL_KEYS, "training": _TRAINING_KEYS,
             "data": _DATA_KEYS, "detection": _DETECTION_KEYS}


def _check_section(raw, known, where):
    """`raw` over the defaults, once each key is known and of its JSON type."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown key")
        expected = known[key][0]
        # a JSON bool is a bool only: Python's True is also an int
        if (isinstance(value, bool) != (expected is bool)
                or not isinstance(value, expected)):
            raise ConfigError(f"{where}.{key}: expected {_JSON_TYPE_NAMES[expected]}")
    return {**{key: default for key, (_, default) in known.items()}, **raw}


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
        if key not in (*_SECTIONS, "output_dir"):
            raise ConfigError(f"config.{key}: unknown key")
    model_doc, training_doc, data, detection = (
        _check_section(doc.get(name, {}), known, name)
        for name, known in _SECTIONS.items())

    try:
        model = TcnConfig.from_dict(model_doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"model: {e}") from None
    if model.window_length % SUBSET_SIZE:
        raise ConfigError(f"model.window_length: {model.window_length} is not "
                          f"a multiple of the subset size {SUBSET_SIZE}")

    try:
        # the lambdas and the learning rate hold a JSON int as a float
        tr = {key: float(value) if _TRAINING_KEYS[key][0] == (int, float)
              else value for key, value in training_doc.items()}
        weights = LossWeights(tr.pop("lambda1"), tr.pop("lambda2"))
        training = TrainingConfig(model=model, weights=weights, **tr)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"training: {e}") from None

    if data["source"] not in ("synth", "csv"):
        raise ConfigError(f"data.source: must be 'synth' or 'csv', "
                          f"got {data['source']!r}")
    if data["source"] == "csv" and not data["paths"]:
        raise ConfigError("data.paths: required when data.source is 'csv'")
    synth_doc = _check_section(data["synth"] or {}, _SYNTH_KEYS, "data.synth")
    try:
        data["synth"] = SynthConfig.from_dict(synth_doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"data.synth: {e}") from None

    if not 0 < detection["delta"] <= sys.float_info.max:
        raise ConfigError("detection.delta: must be finite and positive")
    if not 0 < detection["cs_limit"] <= 1:
        raise ConfigError("detection.cs_limit: must lie in (0, 1]")
    grid = detection["delta_grid"]
    if (len(grid) != 3 or not all(type(v) in (int, float) for v in grid)
            or not (0 < grid[0] <= grid[1] and grid[2] > 0)):
        raise ConfigError("detection.delta_grid: expected [start, stop, step] "
                          "with 0 < start <= stop and step > 0")
    if not (grid[1] - grid[0]) / grid[2] + 1 <= MAX_DELTA_GRID_POINTS:
        raise ConfigError(f"detection.delta_grid: more than "
                          f"{MAX_DELTA_GRID_POINTS} points")

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
