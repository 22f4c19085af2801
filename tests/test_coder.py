"""Range coder and bitstream tests: losslessness and rate consistency."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from lossyad.errors import ContractError, ParseError
from lossyad.numerics import RngState, Tensor
from lossyad.bottleneck import (
    Bitstream, FactorizedDensity, FrequencyTable, LatentCodec,
    RangeDecoder, RangeEncoder, quantize_pmf,
)
from lossyad.bottleneck.rangecoder import TOTAL_FREQ


def roundtrip(freqs, symbols):
    table = FrequencyTable(freqs)
    enc = RangeEncoder()
    for s in symbols:
        enc.encode_symbol(table, int(s))
    payload = enc.finish()
    dec = RangeDecoder(payload)
    out = [dec.decode_symbol(table) for _ in symbols]
    return payload, out


class TestRangeCoder:
    def test_roundtrip_uniform(self):
        rng = np.random.default_rng(0)
        freqs = np.full(16, TOTAL_FREQ // 16)
        symbols = rng.integers(0, 16, size=5000)
        _, out = roundtrip(freqs, symbols)
        assert np.array_equal(out, symbols)

    def test_roundtrip_skewed(self):
        rng = np.random.default_rng(1)
        probs = np.array([0.85, 0.1, 0.04, 0.009, 0.001])
        table = quantize_pmf(probs[:-1], probs[-1])
        symbols = rng.choice(5, size=8000, p=probs)
        enc = RangeEncoder()
        for s in symbols:
            enc.encode_symbol(table, int(s))
        payload = enc.finish()
        dec = RangeDecoder(payload)
        out = [dec.decode_symbol(table) for _ in symbols]
        assert np.array_equal(out, symbols)

    def test_degenerate_pmf_codes_to_near_nothing(self):
        # All mass on one symbol: payload should be just the flush bytes.
        table = quantize_pmf(np.array([1.0]), 0.0)
        enc = RangeEncoder()
        for _ in range(10000):
            enc.encode_symbol(table, 0)
        payload = enc.finish()
        assert len(payload) <= 16

    def test_coded_length_tracks_entropy(self):
        rng = np.random.default_rng(2)
        probs = np.array([0.5, 0.25, 0.125, 0.0625, 0.0625])
        table = quantize_pmf(probs[:-1], probs[-1])
        n = 20000
        symbols = rng.choice(5, size=n, p=probs)
        enc = RangeEncoder()
        for s in symbols:
            enc.encode_symbol(table, int(s))
        payload = enc.finish()
        analytic_bits = float((-np.log2(probs[symbols])).sum())
        assert len(payload) * 8 <= analytic_bits * 1.01 + 64 * 8
        assert len(payload) * 8 >= analytic_bits  # cannot beat the entropy

    @pytest.mark.parametrize("seed", range(5))
    def test_decoder_reads_the_payload_exactly(self, seed):
        rng = np.random.default_rng(seed)
        probs = np.array([0.85, 0.1, 0.04, 0.009, 0.001])
        table = quantize_pmf(probs[:-1], probs[-1])
        symbols = rng.choice(5, size=int(rng.integers(0, 400)), p=probs)
        enc = RangeEncoder()
        for s in symbols:
            enc.encode_symbol(table, int(s))
        payload = enc.finish()
        dec = RangeDecoder(payload)
        assert [dec.decode_symbol(table) for _ in symbols] == list(symbols)
        dec.finish()
        with pytest.raises(ParseError):
            dec = RangeDecoder(payload[:-1])
            for _ in symbols:
                dec.decode_symbol(table)

    def test_empty_message(self):
        _, out = roundtrip(np.full(4, TOTAL_FREQ // 4), [])
        assert out == []

    def test_single_symbol_messages(self):
        for s in range(4):
            _, out = roundtrip(np.full(4, TOTAL_FREQ // 4), [s])
            assert out == [s]


class TestFrequencyTable:
    def test_rejects_zero_frequency(self):
        freqs = np.full(4, TOTAL_FREQ // 4)
        freqs[0] = 0
        freqs[1] += TOTAL_FREQ // 4
        with pytest.raises(ContractError):
            FrequencyTable(freqs)

    def test_rejects_wrong_total(self):
        with pytest.raises(ContractError):
            FrequencyTable(np.array([1, 2, 3]))

    def test_quantize_pmf_exact_total_and_floor(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pmf = rng.uniform(0, 1, size=rng.integers(2, 40))
            table = quantize_pmf(pmf / pmf.sum(), 1e-9)
            assert int(table.freqs.sum()) == TOTAL_FREQ
            assert np.all(table.freqs >= 1)


@pytest.fixture(scope="module")
def codec_setup():
    rng = RngState(21)
    density = FactorizedDensity(8, rng=rng)
    for p in density.parameters():
        p.data += rng.normal(0.0, 0.3, size=p.data.shape)
    codec = LatentCodec(density, np.full(8, -12), np.full(8, 12))
    return density, codec


class TestLatentCodec:
    def test_roundtrip_in_support(self, codec_setup):
        _, codec = codec_setup
        rng = np.random.default_rng(4)
        batch = rng.integers(-12, 13, size=(8, 1250))  # 10^4 symbols
        bs = codec.compress(batch)
        out = codec.decompress(bs)
        assert np.array_equal(out, batch.reshape(-1, order="F"))

    def test_roundtrip_with_escapes(self, codec_setup):
        _, codec = codec_setup
        vec = np.array([0, 3, -12, 12, 40, -2, -77, 5])
        bs = codec.compress(vec)
        assert len(bs.escapes) == 2
        out = codec.decompress(bs)
        assert np.array_equal(out, vec)

    def test_header_roundtrip_byte_exact(self, codec_setup):
        _, codec = codec_setup
        vec = np.array([0, 3, -12, 12, 40, -2, -77, 5])
        bs = codec.compress(vec)
        raw = bs.to_bytes()
        bs2 = Bitstream.from_bytes(raw)
        assert bs2.to_bytes() == raw
        out = codec.decompress(bs2)
        assert np.array_equal(out, vec)

    def test_bad_magic_rejected(self):
        with pytest.raises(ParseError):
            Bitstream.from_bytes(b"XXXX" + bytes(32))

    def test_every_truncated_prefix_rejected(self, codec_setup):
        _, codec = codec_setup
        raw = codec.compress(np.array([0, 3, -12, 12, 40, -2, -77, 5])).to_bytes()
        for n in range(len(raw)):
            with pytest.raises(ParseError):
                Bitstream.from_bytes(raw[:n])

    def test_trailing_bytes_rejected(self, codec_setup):
        _, codec = codec_setup
        raw = codec.compress(np.array([0, 3, -12, 12, 40, -2, -77, 5])).to_bytes()
        for tail in (b"\x00", b"garbage"):
            with pytest.raises(ParseError):
                Bitstream.from_bytes(raw + tail)

    def test_nonzero_table_id_scheme_rejected(self, codec_setup):
        _, codec = codec_setup
        raw = bytearray(codec.compress(np.zeros(8, dtype=np.int64)).to_bytes())
        raw[9] = 1
        with pytest.raises(ParseError):
            Bitstream.from_bytes(bytes(raw))

    def test_table_count_must_match_codec(self, codec_setup):
        _, codec = codec_setup
        bs = codec.compress(np.zeros(8, dtype=np.int64))
        with pytest.raises(ParseError):
            codec.decompress(replace(bs, n_tables=4))

    def test_unused_escape_values_rejected(self, codec_setup):
        _, codec = codec_setup
        bs = codec.compress(np.zeros(8, dtype=np.int64))
        with pytest.raises(ParseError):
            codec.decompress(replace(bs, escapes=[99]))

    def test_non_integer_rejected(self, codec_setup):
        _, codec = codec_setup
        with pytest.raises(ContractError):
            codec.compress(np.full(8, 0.25))

    def test_coded_length_vs_density_estimate(self, codec_setup):
        # Draw symbols from each dimension's own model so the cross-entropy
        # identity applies, then compare actual bytes against the analytic
        # rate estimate.
        density, codec = codec_setup
        rng = np.random.default_rng(5)
        n = 2000  # 8 dims x 2000 = 16000 symbols
        batch = np.empty((8, n), dtype=np.int64)
        support = np.arange(-12, 13)
        pmf, tail = density.integer_pmf(-12, 12)
        for i in range(8):
            p = pmf[i] / pmf[i].sum()
            batch[i] = rng.choice(support, size=n, p=p)
        estimated = float(density.rate_bits(Tensor(batch.astype(np.float64))).item())
        bs = codec.compress(batch)
        actual_bits = len(bs.to_bytes()) * 8
        assert actual_bits <= estimated * 1.01 + 64 * 8
        assert actual_bits / estimated >= 1.0

    def test_forged_symbol_count_rejected_at_once(self, codec_setup):
        # A 28-byte stream claiming 2^32 - 1 symbols over an empty payload.
        _, codec = codec_setup
        raw = (b"LYB1" + bytes([1]) + struct.pack("<IBHdI", 2 ** 32 - 1, 0, 8, 0.0, 0)
               + struct.pack("<I", 0))
        assert len(raw) == 28
        bs = Bitstream.from_bytes(raw)
        with pytest.raises(ParseError):
            codec.decompress(bs)

    def test_symbol_count_beyond_the_payload_rejected(self, codec_setup):
        _, codec = codec_setup
        bs = codec.compress(np.array([0, 3, -12, 12, 40, -2, -77, 5]))
        with pytest.raises(ParseError):
            codec.decompress(replace(bs, n_symbols=10 ** 6))

    def test_unread_payload_bytes_rejected(self, codec_setup):
        _, codec = codec_setup
        bs = codec.compress(np.array([0, 3, -12, 12, 40, -2, -77, 5]))
        with pytest.raises(ParseError):
            codec.decompress(replace(bs, payload=bs.payload + b"\x00"))

    def test_payload_dominates_header(self, codec_setup):
        # Identity table-id scheme keeps the fixed header small.
        _, codec = codec_setup
        vec = np.zeros(8, dtype=np.int64)
        bs = codec.compress(vec)
        header = len(bs.to_bytes()) - len(bs.payload)
        assert header <= 64
