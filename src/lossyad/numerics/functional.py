"""Differentiable operations for the fixed autoencoder topology.

The set is exactly what the encoder, decoder and training loss use:
causal and transposed causal convolutions, `relu`, `add` for the residual
skips, `linear` and `reshape`/`flatten` around the latent, and `mse`,
`scale` and `add` for the loss. (The density's rate is one node of its
own, built in `bottleneck.density`.) All forward values are float64. Each
op registers a reverse-mode closure that accumulates into its parents'
.grad buffers; the closure holds arrays and parent tensors, never the
op's own output, so a graph is acyclic and freed by reference count.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, DimensionError, DomainError
from .tensor import Tensor, as_tensor


def add(a, b):
    """Elementwise sum of two tensors of the same shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shapes disagree: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad,
                 _parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    out._backward_fn = _bw
    return out


def scale(a, s):
    """Multiply by a plain python scalar."""
    a = as_tensor(a)
    s = float(s)
    out = Tensor(a.data * s, requires_grad=a.requires_grad, _parents=(a,))

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    out._backward_fn = _bw
    return out


def relu(a):
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), requires_grad=a.requires_grad, _parents=(a,))

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0.0))

    out._backward_fn = _bw
    return out


def reshape(a, shape):
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), requires_grad=a.requires_grad, _parents=(a,))

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.data.shape))

    out._backward_fn = _bw
    return out


def flatten(a):
    return reshape(a, (-1,))


def mse(a, b):
    """Mean squared error over all elements, as a single graph node."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mse shapes disagree: {a.shape} vs {b.shape}")
    if a.data.size == 0:
        raise DomainError("mse of an empty tensor is undefined")
    diff = a.data - b.data
    n = diff.size
    out = Tensor(np.float64((diff * diff).sum() / n),
                 requires_grad=a.requires_grad or b.requires_grad, _parents=(a, b))

    def _bw(g):
        gd = g * (2.0 / n) * diff
        if a.requires_grad:
            a.accumulate_grad(gd)
        if b.requires_grad:
            b.accumulate_grad(-gd)

    out._backward_fn = _bw
    return out


def linear(x, w, b):
    """y = W x + b for a length-N vector x, (M, N) weight, length-M bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 1 or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            f"linear expects vector/matrix/vector, got {x.shape}, {w.shape}, {b.shape}")
    if w.data.shape[1] != x.data.shape[0] or w.data.shape[0] != b.data.shape[0]:
        raise DimensionError(
            f"linear shapes disagree: W {w.shape}, x {x.shape}, b {b.shape}")
    out = Tensor(w.data @ x.data + b.data,
                 requires_grad=x.requires_grad or w.requires_grad or b.requires_grad,
                 _parents=(x, w, b))

    def _bw(g):
        if b.requires_grad:
            b.accumulate_grad(g)
        if w.requires_grad:
            w.accumulate_grad(np.outer(g, x.data))
        if x.requires_grad:
            x.accumulate_grad(w.data.T @ g)

    out._backward_fn = _bw
    return out


def _check_conv_shapes(x, w, b, dilation, transposed):
    if x.data.ndim != 2 or w.data.ndim != 3 or b.data.ndim != 1:
        raise DimensionError(
            f"conv expects (C, T) input, (·, ·, K) weight, (·,) bias; "
            f"got {x.shape}, {w.shape}, {b.shape}")
    if dilation < 1:
        raise ContractError(f"dilation must be >= 1, got {dilation}")
    if w.data.shape[2] < 1:
        raise ContractError("kernel width must be >= 1")
    expected_cin = w.data.shape[0] if transposed else w.data.shape[1]
    cout = w.data.shape[1] if transposed else w.data.shape[0]
    if x.data.shape[0] != expected_cin:
        raise DimensionError(
            f"channel mismatch: input has {x.data.shape[0]} channels, "
            f"weight expects {expected_cin}")
    if b.data.shape[0] != cout:
        raise DimensionError(f"bias length {b.data.shape[0]} != output channels {cout}")


# The three kernels of a dilated causal convolution, shared by both ops:
# the transposed convolution is the exact adjoint of causal_conv1d with the
# same weight array, so its forward is the convolution's input gradient, its
# input gradient is the convolution without bias, and its weight gradient is
# the convolution's weight correlation with the roles of input and output
# gradient swapped. `xp` and `gp` are left-padded by (K-1)*dilation zeros.

def _left_pad(x, pad):
    xp = np.zeros((x.shape[0], x.shape[1] + pad))
    xp[:, pad:] = x
    return xp


def _conv(xp, w, dilation, out):
    """out += sum_j w[:, :, j] @ xp[:, j*d: j*d + T], for out of shape (C_out, T)."""
    t_len = out.shape[1]
    for j in range(w.shape[2]):
        out += w[:, :, j] @ xp[:, j * dilation: j * dilation + t_len]
    return out


def _conv_input_grad(g, w, dilation, gx):
    """gx += sum_j w[:, :, j].T @ g[:, t + (K-1-j)*d], reading g right-padded
    with zeros: the adjoint of `_conv`, for gx of shape (C_in, T)."""
    t_len = g.shape[1]
    k = w.shape[2]
    g_right = np.zeros((g.shape[0], t_len + (k - 1) * dilation))
    g_right[:, :t_len] = g
    for j in range(k):
        off = (k - 1 - j) * dilation
        gx += w[:, :, j].T @ g_right[:, off: off + t_len]
    return gx


def _conv_weight_grad(g, xp, dilation, k):
    """gw[:, :, j] = g @ xp[:, j*d: j*d + T].T, the weight gradient of `_conv`."""
    t_len = g.shape[1]
    gw = np.empty((g.shape[0], xp.shape[0], k))
    for j in range(k):
        gw[:, :, j] = g @ xp[:, j * dilation: j * dilation + t_len].T
    return gw


def causal_conv1d(x, w, b, dilation=1):
    """Dilated causal convolution.

    x: (C_in, T); w: (C_out, C_in, K); b: (C_out,). The input is left-padded
    with (K-1)*dilation zeros so the output has length T and out[:, t]
    depends only on x[:, t' <= t].
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_conv_shapes(x, w, b, dilation, transposed=False)
    t_len = x.data.shape[1]
    k = w.data.shape[2]
    pad = (k - 1) * dilation
    xp = _left_pad(x.data, pad)
    out = Tensor(_conv(xp, w.data, dilation, np.repeat(b.data[:, None], t_len, axis=1)),
                 requires_grad=x.requires_grad or w.requires_grad or b.requires_grad,
                 _parents=(x, w, b))

    def _bw(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=1))
        if w.requires_grad:
            w.accumulate_grad(_conv_weight_grad(g, xp, dilation, k))
        if x.requires_grad:
            x.accumulate_grad(_conv_input_grad(g, w.data, dilation, np.zeros_like(x.data)))

    out._backward_fn = _bw
    return out


def causal_transposed_conv1d(x, w, b, dilation=1):
    """Adjoint-form transposed causal convolution.

    x: (C_in, T); w: (C_in, C_out, K); b: (C_out,). With the same weight
    array and zero bias this is the exact adjoint of causal_conv1d:
    <conv(a), v> == <a, tconv(v)>. out[:, t] depends only on x[:, t' >= t].
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_conv_shapes(x, w, b, dilation, transposed=True)
    t_len = x.data.shape[1]
    k = w.data.shape[2]
    pad = (k - 1) * dilation
    out = Tensor(_conv_input_grad(x.data, w.data, dilation,
                                  np.repeat(b.data[:, None], t_len, axis=1)),
                 requires_grad=x.requires_grad or w.requires_grad or b.requires_grad,
                 _parents=(x, w, b))

    def _bw(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=1))
        gp = _left_pad(g, pad)
        if w.requires_grad:
            w.accumulate_grad(_conv_weight_grad(x.data, gp, dilation, k))
        if x.requires_grad:
            x.accumulate_grad(_conv(gp, w.data, dilation, np.zeros((w.data.shape[0], t_len))))

    out._backward_fn = _bw
    return out
