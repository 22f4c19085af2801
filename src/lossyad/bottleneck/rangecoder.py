"""32-bit renormalizing range coder over 16-bit frequency tables.

Carry-free variant: the invariant low + range <= 2^32 is preserved by
every shrink step, so emitted bytes are final. Frequencies in a table must
sum to exactly 2^16, every symbol must have frequency >= 1 and a table
needs two symbols (one never shrinks the range), which the pmf quantizer
below guarantees: it appends the escape slot.

One call codes a whole stream in a loop over Python ints: `encode(starts,
freqs)` takes each symbol's cumulative start and frequency, and
`decode(payload, cums, n)` gives symbol j the cumulative table
`cums[j % len(cums)]`. `decode` accepts exactly the payloads `encode`
writes; any other payload is a ParseError.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, cycle, islice

import numpy as np

from ..errors import ContractError, ParseError

PRECISION = 32
TOP = 1 << (PRECISION - 8)
BOTTOM = 1 << (PRECISION - 16)
MASK = (1 << PRECISION) - 1
FREQ_BITS = 16
TOTAL_FREQ = 1 << FREQ_BITS
FLUSH_BYTES = PRECISION // 8


class FrequencyTable:
    """Integer frequencies for one symbol alphabet, summing to 2^16."""

    def __init__(self, freqs):
        freqs = np.asarray(freqs, dtype=np.int64)
        if freqs.ndim != 1 or freqs.size < 2:
            raise ContractError("frequency table must be a vector of at least "
                                "two symbols")
        if np.any(freqs < 1):
            raise ContractError("every symbol needs frequency >= 1")
        if int(freqs.sum()) != TOTAL_FREQ:
            raise ContractError(
                f"frequencies must sum to {TOTAL_FREQ}, got {int(freqs.sum())}")
        self.freqs = freqs
        self.cum = tuple(accumulate(freqs.tolist(), initial=0))

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


def encode(starts, freqs):
    """Range-code one stream; symbol j covers [starts[j], starts[j] +
    freqs[j]) of its table's 2^16 total. Both are sequences of Python ints."""
    low, rng = 0, MASK
    out = bytearray()
    put = out.append
    for start, freq in zip(starts, freqs):
        r = rng >> FREQ_BITS
        low += start * r
        rng = freq * r
        while True:
            if (low ^ (low + rng)) < TOP:
                pass
            elif rng < BOTTOM:
                # Underflow: clamp range up to the next byte boundary.
                rng = ((1 << PRECISION) - low) & (BOTTOM - 1)
            else:
                break
            put(low >> (PRECISION - 8))
            low = (low << 8) & MASK
            rng <<= 8
    for _ in range(FLUSH_BYTES):
        put(low >> (PRECISION - 8))
        low = (low << 8) & MASK
    return bytes(out)


def decode(payload, cums, n):
    """Decode n symbols of an `encode` payload; symbol j uses the cumulative
    table cums[j % len(cums)], a tuple of Python ints starting at 0 and
    ending at 2^16. Returns the symbol indices as a list of Python ints."""
    size = len(payload)
    if size < FLUSH_BYTES:
        raise ParseError(f"range-coded payload ends after {size} bytes")
    state = int.from_bytes(payload[:FLUSH_BYTES], "big")
    pos = FLUSH_BYTES
    low, rng = 0, MASK
    out = []
    put = out.append
    for cum in islice(cycle(cums), n):
        r = rng >> FREQ_BITS
        target = (state - low) // r
        if target >= TOTAL_FREQ:
            target = TOTAL_FREQ - 1
        s = bisect_right(cum, target) - 1
        start = cum[s]
        low += start * r
        rng = (cum[s + 1] - start) * r
        while True:
            if (low ^ (low + rng)) < TOP:
                pass
            elif rng < BOTTOM:
                rng = ((1 << PRECISION) - low) & (BOTTOM - 1)
            else:
                break
            # The byte leaving the window is the one the encoder emitted from
            # low; keeping them equal also keeps state >= low.
            if (state ^ low) >= TOP:
                raise ParseError(f"range-coded payload byte {pos - FLUSH_BYTES} "
                                 f"disagrees with the decoded symbols")
            if pos >= size:
                raise ParseError(f"range-coded payload ends after {size} bytes")
            state = ((state << 8) | payload[pos]) & MASK
            pos += 1
            low = (low << 8) & MASK
            rng <<= 8
        put(s)
    # A payload ends with the final low: four bytes, and nothing after them.
    if pos != size or state != low:
        raise ParseError(f"range-coded payload of {size} bytes does not end "
                         f"where its {len(out)} symbols do")
    return out
