"""Lossy-compression temporal convolutional autoencoder for anomaly detection.

A rate-distortion-optimized autoencoder with a factorized entropy
bottleneck, the sliding-window detection pipelines built on it, and an
evaluation harness. `lossyad --help` lists the command-line entry points.
"""

from .model import TcnAutoencoder, TcnConfig, load_checkpoint, save_checkpoint
from .training import (ChannelNormalizer, LossWeights, TrainReport,
                       TrainingConfig, fit, rdo_loss)
from .detection import (ConfidenceStream, DetectionSeries, expand_votes,
                        f1_score, max_abs_error, multi_shot, one_shot,
                        scaled_abs_error, score_window, subset_means)
from .data import (CorpusSplit, LabeledSeries, SynthConfig, WindowBatch,
                   build_training_corpus, load_series, normalize, synth_corpus,
                   window)
from .bottleneck import Bitstream, FactorizedDensity, LatentCodec, quantize
from .evaluate import evaluate_one_shot, stream_series
from .config import ExperimentConfig, load_experiment, parse_experiment

__version__ = "0.1.0"
