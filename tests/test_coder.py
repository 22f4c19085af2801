"""Range coder and bitstream tests: losslessness and rate consistency."""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lossyad.errors import ContractError, ParseError
from lossyad.numerics import RngState, Tensor
from lossyad.bottleneck import (
    Bitstream, FactorizedDensity, FrequencyTable, LatentCodec, quantize_pmf,
)
from lossyad.bottleneck.rangecoder import TOTAL_FREQ, decode, encode
from mutations import mutate
from oracles import range_encode_oracle


def encode_with(table, symbols):
    return encode([table.cum[s] for s in symbols],
                  [int(table.freqs[s]) for s in symbols])


def roundtrip(freqs, symbols):
    table = FrequencyTable(freqs)
    payload = encode_with(table, symbols)
    return payload, decode(payload, [table.cum], len(symbols))


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
        payload = encode_with(table, symbols)
        assert np.array_equal(decode(payload, [table.cum], len(symbols)), symbols)

    def test_degenerate_pmf_codes_to_near_nothing(self):
        # All mass on one symbol: payload should be just the flush bytes.
        table = quantize_pmf(np.array([1.0]), 0.0)
        payload = encode_with(table, [0] * 10000)
        assert len(payload) <= 16

    def test_coded_length_tracks_entropy(self):
        rng = np.random.default_rng(2)
        probs = np.array([0.5, 0.25, 0.125, 0.0625, 0.0625])
        table = quantize_pmf(probs[:-1], probs[-1])
        n = 20000
        symbols = rng.choice(5, size=n, p=probs)
        payload = encode_with(table, symbols)
        analytic_bits = float((-np.log2(probs[symbols])).sum())
        assert len(payload) * 8 <= analytic_bits * 1.01 + 64 * 8
        assert len(payload) * 8 >= analytic_bits  # cannot beat the entropy

    @pytest.mark.parametrize("seed", range(5))
    def test_decoder_reads_the_payload_exactly(self, seed):
        rng = np.random.default_rng(seed)
        probs = np.array([0.85, 0.1, 0.04, 0.009, 0.001])
        table = quantize_pmf(probs[:-1], probs[-1])
        symbols = rng.choice(5, size=int(rng.integers(0, 400)), p=probs)
        payload = encode_with(table, symbols)
        assert decode(payload, [table.cum], len(symbols)) == list(symbols)
        for bad in (payload[:-1], payload + b"\x00"):
            with pytest.raises(ParseError):
                decode(bad, [table.cum], len(symbols))

    def test_empty_message(self):
        _, out = roundtrip(np.full(4, TOTAL_FREQ // 4), [])
        assert out == []

    def test_single_symbol_messages(self):
        for s in range(4):
            _, out = roundtrip(np.full(4, TOTAL_FREQ // 4), [s])
            assert out == [s]

    def test_changed_flush_bytes_rejected(self):
        # Only the payload the encoder writes decodes: the last bytes must
        # be the encoder's final low.
        table = FrequencyTable(np.full(4, TOTAL_FREQ // 4))
        payload = encode_with(table, [0, 1, 2, 3] * 50)
        for pos in range(len(payload) - 4, len(payload)):
            bad = bytearray(payload)
            bad[pos] ^= 0x01
            with pytest.raises(ParseError):
                decode(bytes(bad), [table.cum], 200)


# A table is a set of cut points inside (0, 2^16): every frequency >= 1,
# and at least one cut, so at least two symbols.
tables = st.lists(st.integers(1, TOTAL_FREQ - 1), unique=True, min_size=1,
                  max_size=40).map(
    lambda cuts: FrequencyTable(np.diff([0, *sorted(cuts), TOTAL_FREQ])))


@given(st.lists(tables, min_size=1, max_size=4),
       st.lists(st.integers(0, 2 ** 16), max_size=300))
def test_random_tables_and_symbols_round_trip(tabs, draws):
    symbols = [d % len(tabs[j % len(tabs)]) for j, d in enumerate(draws)]
    payload = encode([tabs[j % len(tabs)].cum[s] for j, s in enumerate(symbols)],
                     [int(tabs[j % len(tabs)].freqs[s]) for j, s in enumerate(symbols)])
    assert payload == range_encode_oracle(tabs, symbols)
    assert decode(payload, [t.cum for t in tabs], len(symbols)) == symbols


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

    def test_rejects_one_symbol_table(self):
        # one symbol never shrinks the range: decode would read no byte and
        # return as many symbols as asked
        with pytest.raises(ContractError, match="two symbols"):
            FrequencyTable([TOTAL_FREQ])
        assert len(quantize_pmf(np.array([1.0]), 0.0)) == 2

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

    def test_far_apart_supports_need_no_grid_between_them(self, codec_setup):
        # each dim's CDF edges are its own grid row: supports 2^40 apart
        # build a (dims, 3) grid, not one 2^40 wide
        density, _ = codec_setup
        lo = np.zeros(8, dtype=np.int64)
        lo[5] = 2 ** 40
        codec = LatentCodec(density, lo, lo + 1)
        vec = lo + np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert np.array_equal(codec.decompress(codec.compress(vec)), vec)

    @pytest.mark.parametrize("lo, hi", [(0, TOTAL_FREQ - 2), (-2 ** 40, 2 ** 40),
                                        (-2 ** 63, 2 ** 63 - 1)])
    def test_support_wider_than_a_table_rejected_before_the_grid(self, codec_setup,
                                                                 lo, hi):
        # support + escape slot must fit 16 bits; the check comes before a
        # CDF grid as wide as the support is allocated
        density, _ = codec_setup
        support_lo, support_hi = np.zeros(8, dtype=np.int64), np.ones(8, dtype=np.int64)
        support_lo[5], support_hi[5] = lo, hi
        with pytest.raises(ContractError, match="16-bit"):
            LatentCodec(density, support_lo, support_hi)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e20])
    def test_value_int64_cannot_hold_rejected(self, codec_setup, value):
        # Cast to int64, inf and 1e20 would code as -2^63.
        _, codec = codec_setup
        with pytest.raises(ContractError):
            codec.compress(np.full(8, value))

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

    def test_pinned_payload_bytes(self, codec_setup):
        # The coded bytes of a fixed batch, 977 of whose 2400 symbols are
        # escapes, recorded before the coder became one loop per stream.
        _, codec = codec_setup
        batch = np.random.default_rng(14).integers(-20, 21, size=(8, 300))
        bs = codec.compress(batch)
        raw = bs.to_bytes()
        assert len(bs.escapes) == 977
        assert hashlib.sha256(raw).hexdigest() == \
            "d50a5790c0a3d5f1d29fbf6603806dda5a419fa1d01a6ab0e10a6bbc4b1e7c86"
        assert np.array_equal(codec.decompress(Bitstream.from_bytes(raw)),
                              batch.reshape(-1, order="F"))

    def test_compress_matches_the_per_symbol_oracle(self, codec_setup):
        _, codec = codec_setup
        flat = np.random.default_rng(7).integers(-16, 17, size=8 * 400)
        inside = (flat >= -12) & (flat <= 12)
        index = np.where(inside, flat + 12, 25)
        bs = codec.compress(flat)
        assert bs.payload == range_encode_oracle(codec.tables, index.tolist())
        assert bs.escapes == flat[~inside].tolist()

    def test_other_tail_bound_rejected(self, codec_setup):
        _, codec = codec_setup
        bs = codec.compress(np.zeros(8, dtype=np.int64))
        with pytest.raises(ParseError, match="tail bound"):
            codec.decompress(replace(bs, tail_bound=bs.tail_bound * 2))

    def test_partial_latent_rejected(self, codec_setup):
        _, codec = codec_setup
        bs = codec.compress(np.zeros(8, dtype=np.int64))
        with pytest.raises(ParseError, match="multiple"):
            codec.decompress(replace(bs, n_symbols=7))

    def test_escaped_value_inside_support_rejected(self, codec_setup):
        _, codec = codec_setup
        bs = codec.compress(np.array([0, 3, -12, 12, 40, -2, -77, 5]))
        with pytest.raises(ParseError, match="inside the support"):
            codec.decompress(replace(bs, escapes=[40, 3]))

    def test_every_truncation_and_bit_flip_rejected_or_exact(self, codec_setup):
        _, codec = codec_setup
        raw = fuzz_base(codec)
        for n in range(len(raw)):
            assert_rejected_or_exact(codec, raw[:n])
        for pos in range(len(raw)):
            for bit in range(8):
                bad = bytearray(raw)
                bad[pos] ^= 1 << bit
                assert_rejected_or_exact(codec, bytes(bad))


def fuzz_base(codec):
    batch = np.random.default_rng(6).integers(-16, 17, size=(8, 6))
    bs = codec.compress(batch)
    assert 0 < len(bs.escapes) < batch.size
    return bs.to_bytes()


def assert_rejected_or_exact(codec, raw):
    """raw is either a ParseError or a stream compress writes for the
    values it decodes to."""
    try:
        out = codec.decompress(Bitstream.from_bytes(raw))
    except ParseError:
        return
    assert codec.compress(out).to_bytes() == raw


@given(st.data())
def test_mutated_bitstream_rejected_or_exact(codec_setup, data):
    _, codec = codec_setup
    assert_rejected_or_exact(codec, mutate(data, fuzz_base(codec)))
