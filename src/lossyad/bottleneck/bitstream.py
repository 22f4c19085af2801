"""Byte-exact latent bitstream format and the codec built on the range coder.

Layout (little-endian):

    offset  size  field
    0       4     magic b"LYB1"
    4       1     format version (1)
    5       4     u32 symbol count n (latent length, possibly several latents)
    9       1     table-id scheme, always 0: symbol j uses table j mod D
    10      2     u16 D = number of per-dimension tables
    12      8     f64 tail-mass bound of the codec's tables
    20      4     u32 escape count E
    24      8*E   i64 escaped raw values, in encounter order
    24+8E   4     u32 payload byte length P
    28+8E   P     range-coded payload, which ends the stream

Out-of-support values are coded through each table's escape slot; their raw
values travel in the header side list and are re-inserted on decode, so any
integer latent round-trips exactly.

The codec is batched: numpy maps a (dims, n) batch to table slots and one
`encode` / `decode` call codes it. `decompress` accepts only what `compress`
writes, so `compress(decompress(b))` gives b back. `lossyad compress` writes
a series' latents, window after window, as one stream (`latents.lyb`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError, ParseError
from .rangecoder import TOTAL_FREQ, decode, encode, quantize_pmf

MAGIC = b"LYB1"
VERSION = 1
SCHEME = 0


@dataclass
class Bitstream:
    """A coded latent plus the header fields needed to decode it."""

    payload: bytes
    n_symbols: int
    n_tables: int
    tail_bound: float
    escapes: list = field(default_factory=list)

    def to_bytes(self):
        out = bytearray()
        out += MAGIC
        out.append(VERSION)
        out += struct.pack("<IBHdI", self.n_symbols, SCHEME, self.n_tables,
                           self.tail_bound, len(self.escapes))
        for v in self.escapes:
            out += struct.pack("<q", int(v))
        out += struct.pack("<I", len(self.payload))
        out += self.payload
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw):
        raw = bytes(raw)
        pos = 0

        def take(fmt):
            nonlocal pos
            size = struct.calcsize(fmt)
            if pos + size > len(raw):
                raise ParseError(f"truncated bitstream: {len(raw)} bytes, "
                                 f"need at least {pos + size}")
            values = struct.unpack_from(fmt, raw, pos)
            pos += size
            return values

        magic, version = take("<4sB")
        if magic != MAGIC:
            raise ParseError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise ParseError(f"unsupported bitstream version {version}")
        n_symbols, scheme, n_tables, tail_bound, n_escapes = take("<IBHdI")
        if scheme != SCHEME:
            raise ParseError(f"unknown table-id scheme {scheme}")
        escapes = list(take(f"<{n_escapes}q"))
        (payload_len,) = take("<I")
        if pos + payload_len != len(raw):
            raise ParseError(f"bitstream holds {len(raw) - pos} payload bytes, "
                             f"header says {payload_len}")
        return cls(payload=raw[pos:], n_symbols=n_symbols, n_tables=n_tables,
                   tail_bound=tail_bound, escapes=escapes)


class LatentCodec:
    """Entropy codec for integer latents under per-dimension PMF tables.

    Built from a FactorizedDensity and an integer support per dimension:
    table i quantizes the density's `integer_pmf` row over [lo_i, hi_i],
    and its last slot is the escape symbol carrying the tail mass.
    """

    def __init__(self, density, support_lo, support_hi):
        lo = np.asarray(support_lo, dtype=np.int64)
        hi = np.asarray(support_hi, dtype=np.int64)
        if lo.shape != (density.dims,) or hi.shape != (density.dims,):
            raise ContractError("support bounds must be per-dimension vectors")
        # a dim's alphabet, support plus escape slot, in Python ints: checked
        # against quantize_pmf's table limit before integer_pmf's grid
        sizes = [h - l + 2 for l, h in zip(lo.tolist(), hi.tolist())]
        if max(sizes) >= TOTAL_FREQ:
            raise ContractError(f"alphabet of {max(sizes)} symbols is too large "
                                f"for 16-bit tables")
        self.dims = density.dims
        self.lo = lo
        self.hi = hi
        pmf, tail = density.integer_pmf(lo, hi)
        self.tables = [quantize_pmf(pmf[i, :n - 1], float(tail[i]))
                       for i, n in enumerate(sizes)]
        self.tail_bound = float(tail.max())
        # Cumulative tables as int tuples for `decode`, and right-padded in
        # one (dims, max alphabet + 1) array for compress's gathers.
        self._cums = tuple(t.cum for t in self.tables)
        width = max(map(len, self._cums))
        self._cum = np.array([c + (0,) * (width - len(c)) for c in self._cums])
        self._escape = hi - lo + 1  # each table's last slot

    def compress(self, symbols):
        """Encode an integer latent (dims,) or batch (dims, n) to a Bitstream."""
        symbols = np.asarray(symbols)
        if symbols.dtype.kind != "i" and not np.all(
                (symbols == np.rint(symbols)) & (np.abs(symbols) < 2.0 ** 63)):
            raise ContractError("compress expects integer-valued latents in int64 range")
        symbols = symbols.astype(np.int64)
        if symbols.ndim == 1:
            flat = symbols
        elif symbols.ndim == 2:
            if symbols.shape[0] != self.dims:
                raise ContractError(
                    f"latent has {symbols.shape[0]} dims, codec expects {self.dims}")
            flat = symbols.reshape(-1, order="F")
        else:
            raise ContractError("compress expects a vector or (dims, n) batch")
        if flat.size % self.dims != 0:
            raise ContractError(
                f"latent length {flat.size} is not a multiple of {self.dims}")

        dim = np.arange(flat.size) % self.dims
        lo = self.lo[dim]
        inside = (flat >= lo) & (flat <= self.hi[dim])
        idx = np.where(inside, flat - lo, self._escape[dim])
        starts = self._cum[dim, idx]
        freqs = self._cum[dim, idx + 1] - starts
        return Bitstream(payload=encode(starts.tolist(), freqs.tolist()),
                         n_symbols=int(flat.size), n_tables=self.dims,
                         tail_bound=self.tail_bound,
                         escapes=flat[~inside].tolist())

    def decompress(self, bitstream):
        """Exact inverse of compress; returns a flat int64 vector.

        Nothing is sized from the header's symbol count: decoding stops
        with a ParseError as soon as it needs a byte the payload lacks, and
        a payload must be read to its end. A stream compress would not
        write is a ParseError too.
        """
        if bitstream.n_tables != self.dims:
            raise ParseError(f"bitstream uses {bitstream.n_tables} tables, "
                             f"codec has {self.dims}")
        if bitstream.tail_bound != self.tail_bound:
            raise ParseError(f"bitstream tail bound {bitstream.tail_bound!r} is not "
                             f"the codec's {self.tail_bound!r}")
        if bitstream.n_symbols % self.dims != 0:
            raise ParseError(f"bitstream holds {bitstream.n_symbols} symbols, not "
                             f"a multiple of {self.dims} dims")
        idx = np.array(decode(bitstream.payload, self._cums, bitstream.n_symbols),
                       dtype=np.int64)
        dim = np.arange(idx.size) % self.dims
        escaped = idx == self._escape[dim]
        raw = np.array(bitstream.escapes, dtype=np.int64)
        if raw.size != np.count_nonzero(escaped):
            raise ParseError(f"bitstream carries {raw.size} escape values for "
                             f"{np.count_nonzero(escaped)} escape symbols")
        d = dim[escaped]
        if np.any((raw >= self.lo[d]) & (raw <= self.hi[d])):
            raise ParseError("bitstream escapes a value inside the support")
        out = self.lo[dim] + idx
        out[escaped] = raw
        return out
