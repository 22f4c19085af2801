"""Differentiable operations for the fixed autoencoder topology.

The set is exactly what the model uses: causal and transposed causal
convolutions, `linear` and `reshape`/`flatten` for the encoder/decoder, the
elementwise ops, `bmm`, `lower_bound` and `rsum` for the factorized density,
and `mse` and `scale` for the loss. All forward values are float64. Each op registers a
reverse-mode closure that accumulates into parents' .grad buffers; the
closure holds arrays and parent tensors, never the op's own output, so a
graph is acyclic and freed by reference count. Broadcasting in add/sub/mul
follows numpy rules; gradients are summed back over broadcast axes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, DimensionError, DomainError
from .tensor import Tensor, as_tensor


def _unbroadcast(grad, shape):
    """Sum `grad` over axes that were broadcast up from `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(a, b, out_data, da, db):
    a, b = as_tensor(a), as_tensor(b)
    req = a.requires_grad or b.requires_grad
    out = Tensor(out_data(a.data, b.data), requires_grad=req, _parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(da(g, a.data, b.data), a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(db(g, a.data, b.data), b.data.shape))

    out._backward_fn = _bw
    return out


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


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


def _unary(a, out_data, da):
    a = as_tensor(a)
    y = out_data(a.data)
    out = Tensor(y, requires_grad=a.requires_grad, _parents=(a,))

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(da(g, a.data, y))

    out._backward_fn = _bw
    return out


def relu(a):
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def tanh(a):
    return _unary(a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def _sigmoid(x):
    """Logistic function of an array, without overflow for either sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    return _unary(a, _sigmoid, lambda g, x, y: g * y * (1.0 - y))


def softplus(a):
    """log(1 + exp(x)), computed stably; derivative is sigmoid(x)."""
    return _unary(a, lambda x: np.logaddexp(0.0, x),
                  lambda g, x, y: g * _sigmoid(x))


def absolute(a):
    return _unary(a, np.abs, lambda g, x, y: g * np.sign(x))


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    return _unary(a, np.log, lambda g, x, y: g / x)


def lower_bound(a, bound):
    """max(x, bound) with a gradient that still passes when pushing x upward.

    At clamped positions the gradient is let through only if it would
    increase x; this keeps rate terms trainable at the likelihood floor.
    """
    a = as_tensor(a)
    bound = float(bound)
    out = Tensor(np.maximum(a.data, bound), requires_grad=a.requires_grad, _parents=(a,))

    def _bw(g):
        if a.requires_grad:
            passthrough = (a.data >= bound) | (g < 0.0)
            a.accumulate_grad(g * passthrough)

    out._backward_fn = _bw
    return out


def bmm(a, b):
    """Batched matmul: (D, m, k) @ (D, k, n) -> (D, m, n)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise DimensionError(f"bmm expects 3D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise DimensionError(f"bmm shapes disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad,
                 _parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(g @ np.swapaxes(b.data, 1, 2))
        if b.requires_grad:
            b.accumulate_grad(np.swapaxes(a.data, 1, 2) @ g)

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


def rsum(a):
    """Sum of all elements."""
    a = as_tensor(a)
    if a.data.size == 0:
        raise DomainError("reduction over an empty tensor")
    out = Tensor(a.data.sum(), requires_grad=a.requires_grad, _parents=(a,))

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g, a.data.shape).copy())

    out._backward_fn = _bw
    return out


def mse(a, b):
    """Mean squared error over all elements, as a single graph node."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mse shapes disagree: {a.shape} vs {b.shape}")
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


def causal_conv1d(x, w, b, dilation=1):
    """Dilated causal convolution.

    x: (C_in, T); w: (C_out, C_in, K); b: (C_out,). The input is left-padded
    with (K-1)*dilation zeros so the output has length T and out[:, t]
    depends only on x[:, t' <= t].
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_conv_shapes(x, w, b, dilation, transposed=False)
    c_in, t_len = x.data.shape
    c_out, _, k = w.data.shape
    pad = (k - 1) * dilation

    xp = np.zeros((c_in, t_len + pad))
    xp[:, pad:] = x.data
    out_data = np.repeat(b.data[:, None], t_len, axis=1)
    for j in range(k):
        out_data += w.data[:, :, j] @ xp[:, j * dilation: j * dilation + t_len]

    out = Tensor(out_data,
                 requires_grad=x.requires_grad or w.requires_grad or b.requires_grad,
                 _parents=(x, w, b))

    def _bw(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=1))
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for j in range(k):
                gw[:, :, j] = g @ xp[:, j * dilation: j * dilation + t_len].T
            w.accumulate_grad(gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j * dilation: j * dilation + t_len] += w.data[:, :, j].T @ g
            x.accumulate_grad(gxp[:, pad:])

    out._backward_fn = _bw
    return out


def causal_transposed_conv1d(x, w, b, dilation=1):
    """Adjoint-form transposed causal convolution.

    x: (C_in, T); w: (C_in, C_out, K); b: (C_out,). With matching weight
    (axes 0/1 swapped) and zero bias this is the exact adjoint of
    causal_conv1d: <conv(a), v> == <a, tconv(v)>. The input is right-padded,
    so out[:, t] depends only on x[:, t' >= t].
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_conv_shapes(x, w, b, dilation, transposed=True)
    c_in, t_len = x.data.shape
    _, c_out, k = w.data.shape
    pad = (k - 1) * dilation

    xp = np.zeros((c_in, t_len + pad))
    xp[:, :t_len] = x.data
    out_data = np.repeat(b.data[:, None], t_len, axis=1)
    for j in range(k):
        off = (k - 1 - j) * dilation
        out_data += w.data[:, :, j].T @ xp[:, off: off + t_len]

    out = Tensor(out_data,
                 requires_grad=x.requires_grad or w.requires_grad or b.requires_grad,
                 _parents=(x, w, b))

    def _bw(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=1))
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for j in range(k):
                off = (k - 1 - j) * dilation
                gw[:, :, j] = xp[:, off: off + t_len] @ g.T
            w.accumulate_grad(gw)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                off = (k - 1 - j) * dilation
                gxp[:, off: off + t_len] += w.data[:, :, j] @ g
            x.accumulate_grad(gxp[:, :t_len])

    out._backward_fn = _bw
    return out
