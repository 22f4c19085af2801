"""Temporal convolutional autoencoder with an entropy bottleneck.

Encoder: stacked dilated causal convolution blocks (dilation doubling per
block, residual 1x1 connections), flattened and compressed by a linear
layer to a per-window latent. Decoder mirrors the encoder with transposed
causal convolutions in reversed dilation order. A factorized density over
the latent provides the rate estimate; a config flag bypasses the
bottleneck entirely to recover the plain autoencoder baseline.

Every pass takes a batch of N windows, (N, C, T), with (N, latent_dim)
latents; one (C, T) window, with a (latent_dim,) latent, is the N = 1
case and keeps its shapes. `TcnAutoencoder.chunks` splits a batch into the
pieces that every batched caller runs one at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError, DomainError, ParseError
from .numerics import Parameter, RngState, Tensor, functional as F
from .bottleneck import FactorizedDensity, LatentCodec, quantize

# Activation elements (windows x channel_width x window_length) that one
# batched call holds per layer. Memory, not speed, sets it: a training graph
# keeps every layer's activations of its chunk alive until backward. At the
# TcnConfig defaults (width 128, T 200) a chunk is one window; at width 8,
# T 100 it is 16 windows, where 32 raised peak RSS by 14% for 8% more speed.
CHUNK_ELEMENTS = 12_800
KERNEL_WIDTH = 3
LAYERS_PER_BLOCK = 2


@dataclass(frozen=True)
class TcnConfig:
    """The sizes experiments vary; the architecture fixes the rest (the
    constants above and FactorizedDensity's class attributes)."""

    input_channels: int = 8
    window_length: int = 200
    blocks: int = 8
    channel_width: int = 128
    latent_dim: int = 64
    bottleneck_enabled: bool = True

    def __post_init__(self):
        if min(self.input_channels, self.window_length, self.blocks,
               self.channel_width, self.latent_dim) < 1:
            raise ContractError("all architecture sizes must be positive")
        if self.latent_dim >= self.input_channels * self.window_length:
            raise ContractError(
                f"latent_dim {self.latent_dim} must be strictly smaller than "
                f"C*T = {self.input_channels * self.window_length}")

    @property
    def dilations(self):
        """Dilation of each encoder block: doubles per block, from 1."""
        return tuple(2 ** l for l in range(self.blocks))

    @property
    def receptive_field(self):
        growth = sum(self.dilations)
        return 1 + LAYERS_PER_BLOCK * (KERNEL_WIDTH - 1) * growth

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def _kaiming_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _xavier_uniform(rng, shape, fan_in):
    # gain-1 variant for linear paths (the 1x1 skips): preserves variance
    # through a stack of residual blocks.
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _Block:
    """One residual conv block: LAYERS_PER_BLOCK convs of width
    KERNEL_WIDTH, relu between them, plus a 1x1 skip.

    The last conv of the path is zero-initialized so a freshly built block
    acts as its skip connection; without this, stacking blocks multiplies
    activation variance and desk-scale training starts far off-scale.
    """

    def __init__(self, rng, name, c_in, c_out, dilation, transposed):
        self.dilation = dilation
        self.transposed = transposed
        self.convs = []
        layers, k = LAYERS_PER_BLOCK, KERNEL_WIDTH
        for i in range(layers):
            if transposed:
                # channel change on the last layer, mirroring the forward block
                a = c_in
                b = c_in if i < layers - 1 else c_out
                shape = (a, b, k)
            else:
                # channel change on the first layer
                a = c_in if i == 0 else c_out
                b = c_out
                shape = (b, a, k)
            if i == layers - 1:
                init = np.zeros(shape)
            else:
                init = _kaiming_uniform(rng, shape, fan_in=a * k)
            w = Parameter(init, f"{name}.conv{i}.weight")
            bias = Parameter(np.zeros(b), f"{name}.conv{i}.bias")
            self.convs.append((w, bias))
        res_shape = (c_in, c_out, 1) if transposed else (c_out, c_in, 1)
        self.res_w = Parameter(_xavier_uniform(rng, res_shape, fan_in=c_in),
                               f"{name}.res.weight")
        self.res_b = Parameter(np.zeros(c_out), f"{name}.res.bias")

    def parameters(self):
        out = []
        for w, b in self.convs:
            out.extend([w, b])
        out.extend([self.res_w, self.res_b])
        return out

    def forward(self, x):
        op = F.causal_transposed_conv1d if self.transposed else F.causal_conv1d
        h = x
        for i, (w, b) in enumerate(self.convs):
            if i > 0:
                h = F.relu(h)
            h = op(h, w, b, self.dilation)
        skip = op(x, self.res_w, self.res_b, 1)
        return F.add(h, skip)


class TcnAutoencoder:
    """Encoder/decoder pair with shared decoder weights for both
    quantized and unquantized reconstructions."""

    def __init__(self, config, seed=0):
        self.config = config
        rng = RngState(seed)
        wrng = rng.spawn("weights")
        c, t_len, w = config.input_channels, config.window_length, config.channel_width

        self.encoder_blocks = []
        for l in range(config.blocks):
            c_in = c if l == 0 else w
            self.encoder_blocks.append(_Block(
                wrng, f"encoder.block{l}", c_in, w, config.dilations[l],
                transposed=False))

        flat = w * t_len
        self.latent_w = Parameter(
            _kaiming_uniform(wrng, (config.latent_dim, flat), fan_in=flat),
            "latent.weight")
        self.latent_b = Parameter(np.zeros(config.latent_dim), "latent.bias")
        self.expand_w = Parameter(
            _kaiming_uniform(wrng, (flat, config.latent_dim), fan_in=config.latent_dim),
            "expand.weight")
        self.expand_b = Parameter(np.zeros(flat), "expand.bias")

        self.decoder_blocks = []
        for j in range(config.blocks):
            c_out = c if j == config.blocks - 1 else w
            self.decoder_blocks.append(_Block(
                wrng, f"decoder.block{j}", w, c_out,
                config.dilations[config.blocks - 1 - j], transposed=True))

        self.density = FactorizedDensity(config.latent_dim, rng.spawn("density"))

        self.omega = np.ones(c)
        self._params = self._collect_parameters()

    def _collect_parameters(self):
        params = []
        for blk in self.encoder_blocks:
            params.extend(blk.parameters())
        params.extend([self.latent_w, self.latent_b, self.expand_w, self.expand_b])
        for blk in self.decoder_blocks:
            params.extend(blk.parameters())
        params.extend(self.density.parameters())
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names in model")
        return params

    def parameters(self, include_density=True):
        if include_density:
            return list(self._params)
        density_names = {p.name for p in self.density.parameters()}
        return [p for p in self._params if p.name not in density_names]

    def chunks(self, n):
        """Consecutive slices of range(n), each at most CHUNK_ELEMENTS
        activation elements of this model (at least one window)."""
        per_window = self.config.channel_width * self.config.window_length
        step = max(1, CHUNK_ELEMENTS // per_window)
        return [slice(s, min(s + step, n)) for s in range(0, n, step)]

    def _check_input(self, x):
        expected = (self.config.input_channels, self.config.window_length)
        if x.data.ndim not in (2, 3) or x.data.shape[-2:] != expected:
            raise DimensionError(
                f"input shape {x.data.shape}, expected {expected} or (N, *{expected})")

    def encoder_stack(self, x):
        """Conv stack activations before the latent linear layer."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        self._check_input(x)
        h = x
        for blk in self.encoder_blocks:
            h = blk.forward(h)
        return h

    def encode(self, x):
        """(N, C, T) windows -> (N, latent_dim) latents; (C, T) -> (latent_dim,)."""
        h = self.encoder_stack(x)
        return F.linear(F.flatten(h), self.latent_w, self.latent_b)

    def decode(self, z):
        """(N, latent_dim) latents -> (N, C, T) windows; (latent_dim,) -> (C, T)."""
        if not isinstance(z, Tensor):
            z = Tensor(z)
        if z.data.ndim not in (1, 2) or z.data.shape[-1] != self.config.latent_dim:
            raise DimensionError(
                f"latent shape {z.data.shape}, expected (N, {self.config.latent_dim}) "
                f"or ({self.config.latent_dim},)")
        h = F.reshape(F.linear(z, self.expand_w, self.expand_b),
                      z.data.shape[:-1] + (self.config.channel_width,
                                           self.config.window_length))
        for blk in self.decoder_blocks:
            h = blk.forward(h)
        return h

    def forward_train(self, x, rng):
        """Training pass with quantization noise drawn from rng as
        i.i.d. Uniform(-1/2, 1/2), one value per window and latent
        dimension, in one draw of shape (N, latent_dim)."""
        if not self.config.bottleneck_enabled:
            raise ContractError("forward_train requires the bottleneck; "
                                "use ae_reconstruct for the baseline")
        lead = np.shape(x.data if isinstance(x, Tensor) else x)[:-2]
        noise = rng.uniform(-0.5, 0.5, size=lead + (self.config.latent_dim,))
        return self.forward_train_with_noise(x, noise)

    def forward_train_with_noise(self, x, noise):
        """Noise-quantized and clean reconstructions plus the rate, in bits
        summed over the batch, of the noisy latent y + noise; the gradient
        of z = y + noise in y is the identity."""
        y = self.encode(x)
        z = F.add(y, Tensor(noise))
        return (self.decode(z), self.decode(y),
                self.density.rate_bits(F.transpose(z)))

    def ae_reconstruct(self, x):
        """Baseline path: latent fed straight to the decoder, no quantization."""
        return self.decode(self.encode(x))

    def forward_eval(self, x):
        """Inference reconstruction (deterministic, no RNG consumed, no graph)."""
        with F.no_grad():
            if self.config.bottleneck_enabled:
                return self.decode(quantize(self.encode(x)))
            return self.ae_reconstruct(x)

    def latent_symbols(self, x):
        """Integer (rounded) latent for entropy coding, (N, latent_dim) or
        (latent_dim,); builds no graph. One int64 cannot hold is a DomainError."""
        with F.no_grad():
            z = quantize(self.encode(x)).data
        if not np.all(np.abs(z) < 2.0 ** 63):
            raise DomainError("latent is not finite or exceeds the int64 range")
        return z.astype(np.int64)


def config_hash(payload):
    """Stable hash of a JSON-serializable config payload."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


CHECKPOINT_FORMAT_VERSION = 2


def save_checkpoint(model, out_dir, codec_support=None, extra=None):
    """Write checkpoint.bin, the model's parameters in `model.parameters()`
    order as little-endian float64 arrays back to back, and manifest.json,
    whose `parameters` lists each one's name and shape in that order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = model.parameters()
    table = [{"name": p.name, "shape": list(p.data.shape)} for p in params]
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": model.config.to_dict(),
        "config_hash": config_hash(model.config.to_dict()),
        "parameters": table,
        "omega": model.omega.tolist(),
        "density_tables": None,
    }
    if codec_support is not None:
        lo, hi = codec_support
        codec = LatentCodec(model.density, lo, hi)
        manifest["density_tables"] = {
            "support_lo": np.asarray(lo).tolist(),
            "support_hi": np.asarray(hi).tolist(),
            "frequencies": [t.freqs.tolist() for t in codec.tables],
        }
    if extra:
        manifest.update(extra)
    with open(out_dir / "checkpoint.bin", "wb") as blob:
        for p in params:   # each array straight to the file, no joined copy
            np.ascontiguousarray(p.data, dtype="<f8").tofile(blob)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return out_dir / "checkpoint.bin", out_dir / "manifest.json"


def load_checkpoint(ckpt_dir):
    """Rebuild a model (and its codec, when saved) from a checkpoint directory.

    The manifest must list exactly the model's parameters, names and shapes
    in model order, checkpoint.bin must hold exactly their values, and every
    value and omega must be finite, omega positive; anything else is a
    ParseError, never a partly loaded model.
    """
    ckpt_dir = Path(ckpt_dir)
    manifest_path = ckpt_dir / "manifest.json"
    manifest = manifest_path.read_bytes()
    with open(ckpt_dir / "checkpoint.bin", "rb") as blob:
        try:
            manifest = json.loads(manifest)  # a UnicodeDecodeError is a ValueError
            model, codec = _model_from_manifest(manifest, blob)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{manifest_path}: {type(e).__name__}: {e}") from None
    return model, manifest, codec


def _model_from_manifest(manifest, blob):
    """The model and codec of a parsed manifest; `blob` is checkpoint.bin,
    open for reading, whose size is checked before any of it is read."""
    if manifest["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise ParseError(f"unsupported checkpoint version {manifest['format_version']}")
    if manifest["config_hash"] != config_hash(manifest["config"]):
        raise ParseError("config_hash does not match the manifest's config")
    model = TcnAutoencoder(TcnConfig.from_dict(manifest["config"]), seed=0)
    params = model.parameters()
    if manifest["parameters"] != [{"name": p.name, "shape": list(p.data.shape)}
                                  for p in params]:
        raise ParseError("checkpoint parameters differ from the model's "
                         "names, shapes or order")
    need = 8 * sum(p.data.size for p in params)
    size = os.fstat(blob.fileno()).st_size
    if size != need:
        raise ParseError(f"checkpoint.bin has {size} bytes, parameters need {need}")
    # one parameter read at a time, every one checked before any is assigned
    values = []
    for p in params:
        arr = np.fromfile(blob, dtype="<f8", count=p.data.size)
        if not np.isfinite(arr).all():
            raise ParseError(f"{p.name} holds a non-finite value")
        values.append(arr.astype(np.float64, copy=False).reshape(p.data.shape))
    for p, arr in zip(params, values):
        p.data = arr
    model.omega = np.asarray(manifest["omega"], dtype=np.float64)
    if model.omega.shape != (model.config.input_channels,):
        raise ParseError(f"omega has shape {model.omega.shape}, expected "
                         f"({model.config.input_channels},)")
    if not (np.isfinite(model.omega).all() and (model.omega > 0).all()):
        raise ParseError("omega must be finite and positive")
    codec = None
    if manifest.get("density_tables"):
        dt = manifest["density_tables"]
        codec = LatentCodec(model.density,
                            np.asarray(dt["support_lo"], dtype=np.int64),
                            np.asarray(dt["support_hi"], dtype=np.int64))
        if dt["frequencies"] != [t.freqs.tolist() for t in codec.tables]:
            raise ParseError("density_tables.frequencies differ from the tables "
                             "the checkpoint's density gives")
    return model, codec
