"""The benchmark (benchmarks/run.py) reports its result as the last line of
standard output. A library call that prints, or an exit hook or finalizer
that writes after the result, would displace that line; this test runs the
benchmark's library calls at toy size in a fresh interpreter and checks that
the one line the script prints is all of its output."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys
from pathlib import Path

import numpy as np

from lossyad import data, evaluate, model as model_mod, training
from lossyad.bottleneck import Bitstream

sets = data.synth_corpus(data.SynthConfig(
    channels=3, n_sets=5, length=400, latent_components=2, noise_std=0.08,
    anomaly_rate=0.3, level_shift_sigma=6.0), seed=7)
split = data.build_training_corpus(sets, p=0.05, seed=1, window_length=50,
                                   stride=5, n_validation=2)
windows = split.train.windows


def config(bottleneck):
    lam = 200.0 if bottleneck else 0.0
    return training.TrainingConfig(
        model=model_mod.TcnConfig(input_channels=3, window_length=50, blocks=2,
                                  channel_width=6, latent_dim=8,
                                  bottleneck_enabled=bottleneck),
        weights=training.LossWeights(lam, lam), learning_rate=1e-3,
        batch_size=16, epochs=1, seed=4)


rdo, _ = training.fit(windows, config(True))
training.fit(windows, config(False))
support = training.latent_support(rdo, windows)
ckpt = Path(sys.argv[1])
model_mod.save_checkpoint(rdo, ckpt, codec_support=support)
model, _, codec = model_mod.load_checkpoint(ckpt)
report, _ = evaluate.evaluate_one_shot(model, split.validation)
series = split.validation[0]
stream = evaluate.stream_series(model, series, delta=report.best_delta)
symbols = model.latent_symbols(windows).T
raw = codec.compress(symbols).to_bytes()
back = codec.decompress(Bitstream.from_bytes(raw))
print(json.dumps({"correct": bool(np.array_equal(back, symbols.reshape(-1, order="F"))),
                  "best_f1": report.best_f1,
                  "multi_shot_f1": stream.multi_shot_f1,
                  "bytes": len(raw)}))
"""


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def test_library_calls_leave_the_result_as_the_only_stdout_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "ckpt")],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and proc.stdout == lines[0] + "\n", proc.stdout
    result = json.loads(lines[0], parse_constant=_reject)
    assert result["correct"] is True
    assert result["bytes"] > 0
