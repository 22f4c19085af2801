"""Factorized probability model over the latent, plus uniform quantization.

Each latent dimension gets an independent learned CDF built from a stack of
monotone layers: positive (softplus-reparameterized) matrices, biases, and
tanh-bounded mixing factors, finished by a sigmoid. Probabilities of the
integer-quantized latent are CDF differences at half-integer edges, which
is what both the rate estimate and the entropy coder consume.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import ContractError, DimensionError
from ..numerics import Parameter, Tensor, functional as F

LOG2 = float(np.log(2.0))


class QuantizerMode(Enum):
    NOISE = "noise"
    ROUND = "round"


def round_half_away(values):
    """Round half away from zero: 1.5 -> 2, -1.5 -> -2 (plain np.round ties to even)."""
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def quantize(y, mode, rng=None):
    """Quantize a latent tensor.

    NOISE (training): adds i.i.d. Uniform(-1/2, 1/2); the gradient with
    respect to y is the identity. ROUND (inference): deterministic
    round-half-away-from-zero with no gradient path.
    """
    if mode is QuantizerMode.NOISE:
        if rng is None:
            raise ContractError("NOISE quantization requires an RngState")
        noise = rng.uniform(-0.5, 0.5, size=y.data.shape)
        return F.add(y, Tensor(noise))
    if mode is QuantizerMode.ROUND:
        return Tensor(round_half_away(y.data))
    raise ContractError(f"unknown quantizer mode {mode!r}")


class FactorizedDensity:
    """Independent per-dimension CDF stack with a likelihood floor.

    filters gives the hidden layer widths; the full stack is
    (1, *filters, 1). init_scale sets the initial width of the modeled
    densities (the composed stack starts as roughly sigmoid(u/init_scale)).
    Bias init is kept small, drawn from rng, so the initial CDF is centered:
    the cumulative at 0 stays within a few percent of 1/2.
    """

    def __init__(self, dims, rng, filters=(3, 3, 3), init_scale=10.0,
                 likelihood_floor=1e-9):
        if dims < 1:
            raise ContractError("density needs at least one dimension")
        self.dims = int(dims)
        self.filters = tuple(int(f) for f in filters)
        self.init_scale = float(init_scale)
        self.likelihood_floor = float(likelihood_floor)

        widths = (1,) + self.filters + (1,)
        n_layers = len(widths) - 1
        scale = self.init_scale ** (1.0 / n_layers)

        self.matrices = []
        self.biases = []
        self.factors = []
        for i in range(n_layers):
            r_in, r_out = widths[i], widths[i + 1]
            # softplus(raw) == 1 / (scale * r_out): composed gain ~= 1/init_scale
            raw = np.log(np.expm1(1.0 / (scale * r_out)))
            self.matrices.append(Parameter(
                np.full((self.dims, r_out, r_in), raw), f"bottleneck.matrix_{i}"))
            bias0 = rng.uniform(-0.04, 0.04, size=(self.dims, r_out, 1))
            self.biases.append(Parameter(bias0, f"bottleneck.bias_{i}"))
            if i < n_layers - 1:
                self.factors.append(Parameter(
                    np.zeros((self.dims, r_out, 1)), f"bottleneck.factor_{i}"))

    def parameters(self):
        return [*self.matrices, *self.biases, *self.factors]

    def _logits(self, u):
        """Logits of the cumulative at u: Tensor (dims, 1, n) -> (dims, 1, n)."""
        h = u
        for i, (m, b) in enumerate(zip(self.matrices, self.biases)):
            h = F.add(F.bmm(F.softplus(m), h), b)
            if i < len(self.factors):
                h = F.add(h, F.mul(F.tanh(self.factors[i]), F.tanh(h)))
        return h

    def _as_grid(self, values):
        """(dims,) or (dims, n) array -> Tensor (dims, 1, n)."""
        arr = values if isinstance(values, Tensor) else Tensor(values)
        if arr.data.shape[0] != self.dims:
            raise DimensionError(
                f"latent has {arr.data.shape[0]} dims, density models {self.dims}")
        if arr.data.ndim == 1:
            return F.reshape(arr, (self.dims, 1, 1))
        if arr.data.ndim == 2:
            return F.reshape(arr, (self.dims, 1, arr.data.shape[1]))
        raise DimensionError(f"expected (dims,) or (dims, n), got {arr.data.shape}")

    def cumulative_grid(self, values):
        """Cumulative probability at each entry of a (dims,) or (dims, n) array."""
        arr = values if isinstance(values, Tensor) else Tensor(values)
        logits = self._logits(self._as_grid(arr))
        return F.reshape(F.sigmoid(logits), arr.data.shape)

    def likelihood(self, z):
        """Per-element probability of the quantized values: c(z+1/2)-c(z-1/2).

        z: Tensor (dims,) or (dims, n). Differentiable in z and in the
        density parameters; floored at likelihood_floor. The sign flip
        mirrors both edges into the sigmoid's left tail, where differences
        of near-zero values keep full float precision.
        """
        if not isinstance(z, Tensor):
            z = Tensor(z)
        orig_shape = z.data.shape
        grid = self._as_grid(z)
        upper = self._logits(F.add(grid, 0.5))
        lower = self._logits(F.add(grid, -0.5))
        sign = Tensor(-np.sign(upper.data + lower.data))
        p = F.absolute(F.sub(F.sigmoid(F.mul(sign, upper)),
                             F.sigmoid(F.mul(sign, lower))))
        p = F.lower_bound(p, self.likelihood_floor)
        return F.reshape(p, orig_shape)

    def rate_bits(self, z):
        """Estimated code length of z in bits: sum_i -log2 likelihood(z_i)."""
        return F.scale(F.rsum(F.log(self.likelihood(z))), -1.0 / LOG2)

    def integer_pmf(self, lo, hi):
        """Tabulate P(k) for integers k in [lo, hi] per dimension.

        Returns (pmf, tail_mass): pmf is (dims, hi-lo+1), tail_mass (dims,)
        holding the probability outside the tabulated support. Evaluated
        without gradients.
        """
        if hi < lo:
            raise ContractError(f"empty support [{lo}, {hi}]")
        edges = np.arange(lo, hi + 2, dtype=np.float64) - 0.5
        grid = np.broadcast_to(edges, (self.dims, edges.size)).copy()
        cdf = self.cumulative_grid(grid).data
        pmf = np.maximum(np.diff(cdf, axis=1), 0.0)
        tail = np.maximum(cdf[:, 0] + (1.0 - cdf[:, -1]), 0.0)
        return pmf, tail
