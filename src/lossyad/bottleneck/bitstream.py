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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError, ParseError
from .rangecoder import RangeDecoder, RangeEncoder, quantize_pmf

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

    Built from a FactorizedDensity and an integer support per dimension;
    each table's last slot is the escape symbol carrying the tail mass.
    """

    def __init__(self, density, support_lo, support_hi):
        lo = np.asarray(support_lo, dtype=np.int64)
        hi = np.asarray(support_hi, dtype=np.int64)
        if lo.shape != (density.dims,) or hi.shape != (density.dims,):
            raise ContractError("support bounds must be per-dimension vectors")
        if np.any(hi < lo):
            raise ContractError("empty support for some dimension")
        self.dims = density.dims
        self.lo = lo
        self.hi = hi
        glo, ghi = int(lo.min()), int(hi.max())
        edges = np.arange(glo, ghi + 2, dtype=np.float64) - 0.5
        grid = np.broadcast_to(edges, (density.dims, edges.size)).copy()
        cdf = density.cumulative_grid(grid).data
        self.tables = []
        tail_bounds = []
        for i in range(density.dims):
            a, b = int(lo[i]) - glo, int(hi[i]) - glo
            pmf = np.maximum(np.diff(cdf[i, a: b + 2]), 0.0)
            tail = max(float(cdf[i, a] + (1.0 - cdf[i, b + 1])), 0.0)
            self.tables.append(quantize_pmf(pmf, tail))
            tail_bounds.append(tail)
        self.tail_bound = float(max(tail_bounds))

    def escape_index(self, dim):
        return len(self.tables[dim]) - 1

    def compress(self, symbols):
        """Encode an integer latent (dims,) or batch (dims, n) to a Bitstream."""
        symbols = np.asarray(symbols)
        if not np.all(symbols == np.rint(symbols)):
            raise ContractError("compress expects integer-valued latents")
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
        if flat.size and symbols.ndim == 1 and flat.size % self.dims != 0:
            raise ContractError(
                f"latent length {flat.size} is not a multiple of {self.dims}")

        enc = RangeEncoder()
        escapes = []
        for j, v in enumerate(flat):
            dim = j % self.dims
            if self.lo[dim] <= v <= self.hi[dim]:
                enc.encode_symbol(self.tables[dim], int(v - self.lo[dim]))
            else:
                enc.encode_symbol(self.tables[dim], self.escape_index(dim))
                escapes.append(int(v))
        return Bitstream(payload=enc.finish(), n_symbols=int(flat.size),
                         n_tables=self.dims, tail_bound=self.tail_bound,
                         escapes=escapes)

    def decompress(self, bitstream):
        """Exact inverse of compress; returns a flat int64 vector.

        Nothing is sized from the header's symbol count: decoding stops
        with a ParseError as soon as it needs a byte the payload lacks, and
        a payload must be read to its end.
        """
        if bitstream.n_tables != self.dims:
            raise ParseError(f"bitstream uses {bitstream.n_tables} tables, "
                             f"codec has {self.dims}")
        dec = RangeDecoder(bitstream.payload)
        out = []
        pending = iter(bitstream.escapes)
        for j in range(bitstream.n_symbols):
            dim = j % self.dims
            idx = dec.decode_symbol(self.tables[dim])
            if idx == self.escape_index(dim):
                raw = next(pending, None)
                if raw is None:
                    raise ParseError("escape symbol without a raw value")
                out.append(raw)
            else:
                out.append(int(self.lo[dim]) + idx)
        dec.finish()
        if next(pending, None) is not None:
            raise ParseError("bitstream carries escape values no symbol uses")
        return np.array(out, dtype=np.int64)
