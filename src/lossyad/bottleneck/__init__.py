"""Entropy bottleneck: factorized density, quantization, rate, real coding."""

from .density import FactorizedDensity, quantize, round_half_away
from .rangecoder import FrequencyTable, quantize_pmf
from .bitstream import Bitstream, LatentCodec

__all__ = [
    "FactorizedDensity", "quantize", "round_half_away",
    "FrequencyTable", "quantize_pmf",
    "Bitstream", "LatentCodec",
]
