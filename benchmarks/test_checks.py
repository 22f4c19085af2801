"""Fast tests of the benchmark's output checks: each plants a wrong output
and shows the check catches it, after showing the unplanted output passes.

    python3 -m pytest -q benchmarks/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from lossyad.bottleneck import Bitstream, FactorizedDensity, LatentCodec  # noqa: E402
from lossyad.data import LabeledSeries  # noqa: E402
from lossyad.evaluate import evaluate_one_shot, stream_series  # noqa: E402
from lossyad.model import TcnAutoencoder, TcnConfig  # noqa: E402
from lossyad.numerics import RngState  # noqa: E402
from lossyad.training import EpochStats  # noqa: E402

T = 20


@pytest.fixture(scope="module")
def model():
    cfg = TcnConfig(input_channels=2, window_length=T, blocks=2, channel_width=4,
                    latent_dim=4)
    return TcnAutoencoder(cfg, seed=3)


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(5)
    n = 120
    x = rng.normal(size=(2, n))
    labels = np.zeros(n, dtype=np.int64)
    labels[60:90] = 1
    x[:, 60:90] += 4.0
    return LabeledSeries("s0", x, [str(i) for i in range(n)], labels)


def test_flipped_alarm_is_caught(model, series):
    result = stream_series(model, series, delta=1.0, cs_limit=0.85)
    checks.check_alarms(result.confidence, result.alarms, 0.85)
    checks.check_stream_f1(result)
    flipped = result.alarms.copy()
    flipped[70] = 1 - flipped[70]
    with pytest.raises(CheckFailed):
        checks.check_alarms(result.confidence, flipped, 0.85)
    with pytest.raises(CheckFailed):
        checks.check_stream_f1(replace(result, alarms=flipped))


def test_confidence_votes(model, series):
    result = stream_series(model, series, delta=1.0)
    n_windows = series.length - T + 1
    checks.check_confidence_votes(result.confidence, T, n_windows)
    off = result.confidence.copy()
    off[5] += 0.5 / min(6, T)   # half a vote
    with pytest.raises(CheckFailed):
        checks.check_confidence_votes(off, T, n_windows)
    too_many = result.confidence.copy()
    too_many[0] = 2.0           # two votes where one window covers t=0
    with pytest.raises(CheckFailed):
        checks.check_confidence_votes(too_many, T, n_windows)


def test_one_shot_recount(model, series):
    grid = np.arange(0.2, 3.0, 0.1)
    report, rows = evaluate_one_shot(model, [series], grid=grid, stride=10)
    checks.check_one_shot_report(report, rows, grid)
    with pytest.raises(CheckFailed):
        checks.check_one_shot_report(replace(report, tp=report.tp + 1), rows, grid)


def _codec_and_symbols():
    rng = RngState(23)
    density = FactorizedDensity(4, rng=rng)
    codec = LatentCodec(density, np.full(4, -6), np.full(4, 6))
    draw = np.random.default_rng(29)
    symbols = draw.integers(-3, 4, size=(4, 300))
    symbols[1, 7] = 40          # one escape
    return density, codec, symbols


def test_corrupted_payload_byte_is_caught():
    _, codec, symbols = _codec_and_symbols()
    raw = bytearray(codec.compress(symbols).to_bytes())
    flat = symbols.reshape(-1, order="F")

    def round_trip(data):
        decode = lambda: codec.decompress(Bitstream.from_bytes(bytes(data)))
        checks.check_round_trip(flat, checks.decoded(decode))

    round_trip(raw)
    # Every byte of the range-coded payload, one at a time: each either
    # decodes to other symbols or makes the decoder raise. The coder's last
    # four bytes are its final flush, which the decoder need not read.
    payload_start = len(raw) - len(codec.compress(symbols).payload)
    for pos in range(payload_start, len(raw) - 4):
        bad = raw.copy()
        bad[pos] ^= 0x5A
        with pytest.raises(CheckFailed):
            round_trip(bad)


def test_coded_bits_bounds():
    density, codec, symbols = _codec_and_symbols()
    bs = codec.compress(symbols)
    coded = 8 * len(bs.to_bytes())
    estimated = density.rate_bits(symbols.astype(np.float64)).item()
    entropy = checks.empirical_entropy_bits(symbols)
    checks.check_coded_bits(coded, estimated, entropy, len(bs.escapes))
    with pytest.raises(CheckFailed):   # longer than the estimate allows
        checks.check_coded_bits(coded, coded / 2.0, entropy, len(bs.escapes))
    with pytest.raises(CheckFailed):   # shorter than the empirical entropy
        checks.check_coded_bits(int(entropy) - 100, estimated, entropy, 0)


def test_epoch_total_off_by_1e6_is_caught():
    rate, d1, d2, lam = 40.25, 0.5, 0.05, 100.0
    good = EpochStats(epoch=0, rate=rate, distortion=d1, reconstruction=d2,
                      total=rate + lam * d1 + lam * d2, seconds=1.0)
    checks.check_epoch_decomposition([good], lam, lam, bottleneck=True)
    bad = replace(good, total=good.total + 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_epoch_decomposition([bad], lam, lam, bottleneck=True)
    ae = EpochStats(epoch=0, rate=0.0, distortion=d1, reconstruction=0.0,
                    total=d1, seconds=1.0)
    checks.check_epoch_decomposition([ae], 0.0, 0.0, bottleneck=False)
    with pytest.raises(CheckFailed):
        checks.check_epoch_decomposition([replace(ae, total=d1 + 1e-6)], 0.0, 0.0,
                                         bottleneck=False)
    with pytest.raises(CheckFailed):
        checks.check_epoch_decomposition([replace(good, rate=float("nan"))],
                                         lam, lam, bottleneck=True)


def test_directional_derivative():
    a = np.array([1.0, -2.0, 0.5])
    grads = [2.0 * a]                   # gradient of |x|^2 at a
    direction = [np.array([0.3, 0.1, -0.7])]

    def loss_at(t):
        x = a + t * direction[0]
        return float(x @ x)

    checks.check_directional_derivative(loss_at, grads, direction)
    with pytest.raises(CheckFailed):
        checks.check_directional_derivative(loss_at, [grads[0] * 1.001], direction)


def test_all_alarm_baseline():
    labels = np.array([0, 0, 1, 1, 0, 0, 0, 1, 0, 0])
    assert checks.all_alarm_f1(labels.sum(), labels.size) == pytest.approx(
        checks.recount_f1(np.ones_like(labels), labels))
    with pytest.raises(CheckFailed):
        checks.check_beats_all_alarm(0.4, 0.46, "planted")
