"""32-bit renormalizing range coder over 16-bit frequency tables.

Carry-free variant: the invariant low + range <= 2^32 is preserved by
every shrink step, so emitted bytes are final. Frequencies in a table must
sum to exactly 2^16 and every symbol must have frequency >= 1, which the
pmf quantizer below guarantees.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, ParseError

PRECISION = 32
TOP = 1 << (PRECISION - 8)
BOTTOM = 1 << (PRECISION - 16)
MASK = (1 << PRECISION) - 1
FREQ_BITS = 16
TOTAL_FREQ = 1 << FREQ_BITS


class FrequencyTable:
    """Integer frequencies for one symbol alphabet, summing to 2^16."""

    def __init__(self, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        if freqs.ndim != 1 or freqs.size < 1:
            raise ContractError("frequency table must be a non-empty vector")
        if np.any(freqs < 1):
            raise ContractError("every symbol needs frequency >= 1")
        if int(freqs.sum()) != TOTAL_FREQ:
            raise ContractError(
                f"frequencies must sum to {TOTAL_FREQ}, got {int(freqs.sum())}")
        self.freqs = freqs
        self.cum = np.concatenate([[0], np.cumsum(freqs)])

    def __len__(self):
        return self.freqs.size


def quantize_pmf(pmf, tail_mass):
    """Turn float probabilities plus a tail mass into a valid FrequencyTable.

    The tail symbol is appended last (the escape slot). Every entry is
    floored at 1 and drift from rounding is absorbed by the largest
    entries, deterministically.
    """
    probs = np.concatenate([np.asarray(pmf, dtype=np.float64),
                            [float(tail_mass)]])
    probs = np.maximum(probs, 1e-12)
    probs /= probs.sum()
    n = probs.size
    if n >= TOTAL_FREQ:
        raise ContractError(f"alphabet of {n} symbols is too large for 16-bit tables")
    freqs = np.maximum(1, np.rint(probs * TOTAL_FREQ).astype(np.int64))
    drift = TOTAL_FREQ - int(freqs.sum())
    if drift > 0:
        freqs[int(np.argmax(freqs))] += drift
    while drift < 0:
        i = int(np.argmax(freqs))
        take = min(int(freqs[i]) - 1, -drift)
        if take <= 0:
            raise ContractError("cannot quantize pmf: alphabet too dense")
        freqs[i] -= take
        drift += take
    return FrequencyTable(freqs)


class RangeEncoder:
    def __init__(self):
        self._low = 0
        self._range = MASK
        self._out = bytearray()
        self._finished = False

    def encode_symbol(self, table, symbol):
        cum_lo = int(table.cum[symbol])
        freq = int(table.freqs[symbol])
        r = self._range // TOTAL_FREQ
        self._low += cum_lo * r
        self._range = freq * r
        self._normalize()

    def _normalize(self):
        while True:
            if (self._low ^ (self._low + self._range)) < TOP:
                pass
            elif self._range < BOTTOM:
                # Underflow: clamp range up to the next byte boundary.
                self._range = ((1 << PRECISION) - self._low) & (BOTTOM - 1)
            else:
                break
            self._out.append((self._low >> (PRECISION - 8)) & 0xFF)
            self._low = (self._low << 8) & MASK
            self._range <<= 8

    def finish(self):
        if self._finished:
            raise ContractError("encoder already finished")
        self._finished = True
        for _ in range(PRECISION // 8):
            self._out.append((self._low >> (PRECISION - 8)) & 0xFF)
            self._low = (self._low << 8) & MASK
        return bytes(self._out)


class RangeDecoder:
    """Decoder of a RangeEncoder payload. A valid payload is read exactly
    to its end and never past it: `_next_byte` raises ParseError on a byte
    the payload does not hold, and `finish` on bytes left unread."""

    def __init__(self, data):
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = MASK
        self._state = 0
        for _ in range(PRECISION // 8):
            self._state = (self._state << 8) | self._next_byte()

    def _next_byte(self):
        if self._pos >= len(self._data):
            raise ParseError(f"range-coded payload ends after {len(self._data)} bytes")
        b = self._data[self._pos]
        self._pos += 1
        return b

    def finish(self):
        if self._pos != len(self._data):
            raise ParseError(f"range-coded payload has {len(self._data) - self._pos} "
                             f"bytes no symbol uses")

    def decode_symbol(self, table):
        r = self._range // TOTAL_FREQ
        target = (self._state - self._low) // r
        if target >= TOTAL_FREQ:
            target = TOTAL_FREQ - 1
        symbol = int(np.searchsorted(table.cum, target, side="right")) - 1
        cum_lo = int(table.cum[symbol])
        freq = int(table.freqs[symbol])
        self._low += cum_lo * r
        self._range = freq * r
        self._normalize()
        return symbol

    def _normalize(self):
        while True:
            if (self._low ^ (self._low + self._range)) < TOP:
                pass
            elif self._range < BOTTOM:
                self._range = ((1 << PRECISION) - self._low) & (BOTTOM - 1)
            else:
                break
            self._state = ((self._state << 8) | self._next_byte()) & MASK
            self._low = (self._low << 8) & MASK
            self._range <<= 8
