"""Factorized probability model over the latent, plus rounding quantization.

Each latent dimension gets an independent learned CDF (Ballé et al. 2018,
App. 6.1) built from a stack of monotone layers: softplus-positive
matrices, biases and tanh-bounded mixing factors, finished by a sigmoid.
The probability of an integer-quantized value z is c(z+1/2) - c(z-1/2),
which is what both the rate estimate and the entropy coder consume.
`rate_bits` is a single autodiff node whose backward runs in closed form
back through the stack; `cumulative_grid`, `likelihood` and `integer_pmf`
are plain numpy evaluations that build no graph.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, DimensionError
from ..numerics import Parameter, Tensor

LOG2 = float(np.log(2.0))


def round_half_away(values):
    """Round half away from zero: 1.5 -> 2, -1.5 -> -2 (plain np.round ties to even)."""
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def quantize(y):
    """Quantize a latent tensor for inference: deterministic
    round-half-away-from-zero with no gradient path. (Training adds
    Uniform(-1/2, 1/2) noise instead; see TcnAutoencoder.forward_train.)
    """
    return Tensor(round_half_away(y.data))


def _sigmoid(x):
    """Logistic function of an array, without overflow for either sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class FactorizedDensity:
    """Independent per-dimension CDF stack with a likelihood floor.

    The architecture fixes the class attributes: filters gives the hidden
    layer widths of the full stack (1, *filters, 1); init_scale sets the
    initial width of the modeled densities (the composed stack starts as
    roughly sigmoid(u/init_scale)). Bias init is kept small, drawn from rng,
    so the initial CDF is centered: the cumulative at 0 stays within a few
    percent of 1/2.
    """

    filters = (3, 3, 3)
    init_scale = 10.0
    likelihood_floor = 1e-9

    def __init__(self, dims, rng):
        if dims < 1:
            raise ContractError("density needs at least one dimension")
        self.dims = int(dims)

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
        """Logits of the cumulative at u, a (dims, 1, n) array, and per layer
        its input, positive matrix and the tanh of its pre-activation (None
        for the last layer): what the backward of `rate_bits` reads.
        """
        saved = []
        h = u
        for i, (m, b) in enumerate(zip(self.matrices, self.biases)):
            positive = np.logaddexp(0.0, m.data)
            a = positive @ h + b.data
            ta = None
            if i < len(self.factors):
                ta = np.tanh(a)
                a = a + np.tanh(self.factors[i].data) * ta
            saved.append((h, positive, ta))
            h = a
        return h, saved

    def _as_grid(self, values):
        """(dims,) or (dims, n) array or Tensor -> ((dims, 1, n) array, its shape)."""
        arr = np.asarray(values.data if isinstance(values, Tensor) else values,
                         dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise DimensionError(f"expected (dims,) or (dims, n), got {arr.shape}")
        if arr.shape[0] != self.dims:
            raise DimensionError(
                f"latent has {arr.shape[0]} dims, density models {self.dims}")
        return arr.reshape(self.dims, 1, arr.size // self.dims), arr.shape

    def _edges(self, grid):
        """Cumulatives at the half-integer edges around a (dims, 1, n) grid.

        Returns (upper, lower, sign, saved): sigmoid(sign * logit) at z+1/2
        and z-1/2, where the sign flip mirrors both edges into the sigmoid's
        left tail, so their difference keeps full float precision even far
        from the mode, and the layers `_logits` saved. Both edges run
        through the stack in one pass.
        """
        n = grid.shape[2]
        logits, saved = self._logits(np.concatenate([grid + 0.5, grid - 0.5], axis=2))
        upper, lower = logits[..., :n], logits[..., n:]
        sign = -np.sign(upper + lower)
        return _sigmoid(sign * upper), _sigmoid(sign * lower), sign, saved

    def cumulative_grid(self, values):
        """Cumulative probability at each entry of a (dims,) or (dims, n)
        array; a Tensor without a graph."""
        grid, shape = self._as_grid(values)
        return Tensor(_sigmoid(self._logits(grid)[0]).reshape(shape))

    def likelihood(self, z):
        """Per-element probability of the quantized values, c(z+1/2)-c(z-1/2),
        floored at likelihood_floor: a (dims,) or (dims, n) Tensor without
        a graph."""
        grid, shape = self._as_grid(z)
        upper, lower, _, _ = self._edges(grid)
        return Tensor(np.maximum(np.abs(upper - lower), self.likelihood_floor).reshape(shape))

    def rate_bits(self, z):
        """Estimated code length of z in bits, sum_i -log2 likelihood(z_i).

        One graph node, differentiable in z and in every density
        parameter. Its backward is closed-form back through the CDF stack;
        at the likelihood floor the gradient passes only where it would
        raise the probability, so far-tail latents stay trainable.
        """
        if not isinstance(z, Tensor):
            z = Tensor(z)
        grid, shape = self._as_grid(z)
        n = grid.shape[2]
        upper, lower, sign, saved = self._edges(grid)
        diff = upper - lower
        unfloored = np.abs(diff)
        p = np.maximum(unfloored, self.likelihood_floor)
        out = Tensor(np.log(p.reshape(shape)).sum() * (-1.0 / LOG2),
                     requires_grad=True, _parents=(z, *self.parameters()))

        def _bw(g):
            gp = g * (-1.0 / LOG2) / p
            # the floor passes a gradient only where descent would raise p
            gp = gp * ((unfloored >= self.likelihood_floor) | (gp < 0.0))
            # d|diff| is sign(diff): zero where both edges agree exactly
            gd = gp * np.sign(diff)
            gh = np.concatenate([gd * sign * upper * (1.0 - upper),
                                 -gd * sign * lower * (1.0 - lower)], axis=2)
            for i in reversed(range(len(saved))):
                h, positive, ta = saved[i]
                if ta is not None:
                    tf = np.tanh(self.factors[i].data)
                    self.factors[i].accumulate_grad(
                        (gh * ta).sum(axis=2, keepdims=True) * (1.0 - tf * tf))
                    gh = gh * (1.0 + tf * (1.0 - ta * ta))
                self.biases[i].accumulate_grad(gh.sum(axis=2, keepdims=True))
                self.matrices[i].accumulate_grad(
                    (gh @ np.swapaxes(h, 1, 2)) * _sigmoid(self.matrices[i].data))
                gh = np.swapaxes(positive, 1, 2) @ gh
            if z.requires_grad:
                z.accumulate_grad((gh[..., :n] + gh[..., n:]).reshape(shape))

        out._backward_fn = _bw
        return out

    def integer_pmf(self, lo, hi):
        """Tabulate P(k) for integers k in [lo_i, hi_i] of each dimension i.

        lo and hi are scalars or (dims,) vectors. Returns (pmf, tail_mass):
        pmf is (dims, max(hi-lo)+1), row i P(lo_i), P(lo_i+1), ... and zero
        past hi_i; tail_mass (dims,) is c(lo-1/2) + 1 - c(hi+1/2) per dim.
        """
        lo, hi = (np.broadcast_to(np.asarray(v, dtype=np.int64), (self.dims,))
                  for v in (lo, hi))
        if np.any(hi < lo):
            raise ContractError("empty support for some dimension")
        width = hi - lo + 1
        cdf = self.cumulative_grid(lo[:, None] + np.arange(width.max() + 1) - 0.5).data
        pmf = np.maximum(np.diff(cdf, axis=1), 0.0)
        pmf[np.arange(pmf.shape[1]) >= width[:, None]] = 0.0
        tail = np.maximum(cdf[:, 0] + (1.0 - cdf[np.arange(self.dims), width]), 0.0)
        return pmf, tail
