"""Differentiable operations for the fixed autoencoder topology.

The set is exactly what the encoder, decoder and training loss use:
causal and transposed causal convolutions, `relu`, `add` for the residual
skips, `linear`, `reshape`/`flatten` and `transpose` around the latent, and
`mse`, `scale` and `add` for the loss. (The density's rate is one node of
its own, built in `bottleneck.density`.) Every op takes a batch with a
leading N axis: convolutions (N, C, T), `linear` (N, F); a (C, T) window
or an (F,) vector is the one-window case and keeps its shape. All forward
values are float64. Each op registers a reverse-mode closure that
accumulates into its parents' .grad buffers; the closure holds arrays and
parent tensors, never the op's own output, so a graph is acyclic and freed
by reference count. Inside `no_grad()` the ops build no graph at all.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ContractError, DimensionError, DomainError
from .tensor import Tensor, as_tensor

_grad_enabled = True


@contextmanager
def no_grad():
    """Within the block, op outputs are plain tensors without a graph."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data, parents, backward_fn):
    """An op's output: a graph node when recording and a parent needs grad."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents,
                      _backward_fn=backward_fn)
    return Tensor(data)


def add(a, b):
    """Elementwise sum of two tensors of the same shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shapes disagree: {a.shape} vs {b.shape}")

    def _bw(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    return _node(a.data + b.data, (a, b), _bw)


def scale(a, s):
    """Multiply by a plain python scalar."""
    a = as_tensor(a)
    s = float(s)

    def _bw(g):
        a.accumulate_grad(g * s)

    return _node(a.data * s, (a,), _bw)


def relu(a):
    a = as_tensor(a)

    def _bw(g):
        a.accumulate_grad(g * (a.data > 0.0))

    return _node(np.maximum(a.data, 0.0), (a,), _bw)


def reshape(a, shape):
    a = as_tensor(a)

    def _bw(g):
        a.accumulate_grad(g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), _bw)


def flatten(a):
    """Merge the trailing (C, T) axes: (C, T) -> (C*T,), (N, C, T) -> (N, C*T)."""
    return reshape(a, a.data.shape[:-2] + (-1,))


def transpose(a):
    """Reverse the axes: (N, D) -> (D, N); a vector is its own transpose."""
    a = as_tensor(a)

    def _bw(g):
        a.accumulate_grad(g.T)

    return _node(a.data.T, (a,), _bw)


def mse(a, b):
    """Mean squared error over all elements, as a single graph node."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mse shapes disagree: {a.shape} vs {b.shape}")
    if a.data.size == 0:
        raise DomainError("mse of an empty tensor is undefined")
    diff = a.data - b.data
    n = diff.size

    def _bw(g):
        gd = g * (2.0 / n) * diff
        if a.requires_grad:
            a.accumulate_grad(gd)
        if b.requires_grad:
            b.accumulate_grad(-gd)

    return _node(np.float64((diff * diff).sum() / n), (a, b), _bw)


def linear(x, w, b):
    """y = x W^T + b for (N, F) rows x (or one (F,) vector), an (M, F)
    weight and a length-M bias; the weight gradient is one GEMM."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim not in (1, 2) or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            f"linear expects (N, F) or (F,) input, (M, F) weight, (M,) bias; "
            f"got {x.shape}, {w.shape}, {b.shape}")
    m, f = w.data.shape
    if x.data.shape[-1] != f or b.data.shape[0] != m:
        raise DimensionError(
            f"linear shapes disagree: W {w.shape}, x {x.shape}, b {b.shape}")

    def _bw(g):
        rows, x_rows = g.reshape(-1, m), x.data.reshape(-1, f)
        if b.requires_grad:
            b.accumulate_grad(rows.sum(axis=0))
        if w.requires_grad:
            # for one row an outer product: BLAS runs a K = 1 GEMM 2-3x slower
            w.accumulate_grad(np.outer(rows, x_rows) if len(rows) == 1
                              else rows.T @ x_rows)
        if x.requires_grad:
            x.accumulate_grad(g @ w.data)

    return _node(x.data @ w.data.T + b.data, (x, w, b), _bw)


def _check_conv_shapes(x, w, b, dilation, transposed):
    if x.data.ndim not in (2, 3) or w.data.ndim != 3 or b.data.ndim != 1:
        raise DimensionError(
            f"conv expects (N, C, T) or (C, T) input, (·, ·, K) weight, (·,) "
            f"bias; got {x.shape}, {w.shape}, {b.shape}")
    if dilation < 1:
        raise ContractError(f"dilation must be >= 1, got {dilation}")
    if w.data.shape[2] < 1:
        raise ContractError("kernel width must be >= 1")
    expected_cin = w.data.shape[0] if transposed else w.data.shape[1]
    cout = w.data.shape[1] if transposed else w.data.shape[0]
    if x.data.shape[-2] != expected_cin:
        raise DimensionError(
            f"channel mismatch: input has {x.data.shape[-2]} channels, "
            f"weight expects {expected_cin}")
    if b.data.shape[0] != cout:
        raise DimensionError(f"bias length {b.data.shape[0]} != output channels {cout}")


# The three kernels of a dilated causal convolution over an (N, C, T)
# batch, shared by both ops: the transposed convolution is the exact adjoint
# of causal_conv1d with the same weight array, so its forward is the
# convolution's input gradient, its input gradient is the convolution
# without bias, and its weight gradient is the convolution's weight
# correlation with the roles of input and output gradient swapped.
#
# Tap j of a kernel of width K reads the input shifted by s = (K-1-j)*d.
# A tap with s >= T meets only padding zeros, so its output is zero and its
# weight gradient is exactly zero: `_live_taps` leaves it out.

def _live_taps(k, dilation, t_len):
    """(j, shift) for every tap whose shift stays inside the window."""
    return [(j, (k - 1 - j) * dilation) for j in range(k)
            if (k - 1 - j) * dilation < t_len]


def _tap_matrices(w):
    """(K, A, B) contiguous copy of an (A, B, K) weight: a strided tap slice
    would drop a batched matmul off BLAS."""
    return np.ascontiguousarray(w.transpose(2, 0, 1))


def _conv(x, taps, dilation, out):
    """out += sum_j taps[j] @ x[:, :, t - s_j], reading x left-padded with
    zeros, for x (N, C_in, T) and out (N, C_out, T)."""
    k, (n, c, t_len) = taps.shape[0], x.shape
    pad = (k - 1) * dilation
    xp = np.zeros((n, c, t_len + pad))
    xp[:, :, pad:] = x
    for j, s in _live_taps(k, dilation, t_len):
        out += taps[j] @ xp[:, :, pad - s: pad - s + t_len]
    return out


def _conv_input_grad(g, taps, dilation, gx):
    """gx += sum_j taps[j].T @ g[:, :, t + s_j], reading g right-padded with
    zeros: the adjoint of `_conv`, for g (N, C_out, T) and gx (N, C_in, T)."""
    k, (n, c, t_len) = taps.shape[0], g.shape
    g_right = np.zeros((n, c, t_len + (k - 1) * dilation))
    g_right[:, :, :t_len] = g
    for j, s in _live_taps(k, dilation, t_len):
        gx += taps[j].T @ g_right[:, :, s: s + t_len]
    return gx


def _conv_weight_grad(g, x, dilation, k):
    """gw[:, :, j] = sum_n g[n, :, s_j:] @ x[n, :, :T-s_j].T, the weight
    gradient of `_conv`: a batched matmul summed over N."""
    t_len = g.shape[2]
    gw = np.zeros((g.shape[1], x.shape[1], k))
    for j, s in _live_taps(k, dilation, t_len):
        per_window = g[:, :, s:] @ x[:, :, :t_len - s].swapaxes(1, 2)
        gw[:, :, j] = per_window[0] if len(per_window) == 1 else per_window.sum(axis=0)
    return gw


def _as_batch(a):
    """(C, T) -> (1, C, T): one window is a batch of one."""
    return a if a.ndim == 3 else a[None]


def _causal_conv_node(x, w, b, dilation, transposed):
    """The graph node of either convolution: a kernel for the forward, its
    adjoint for the input gradient, and the shared weight correlation."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_conv_shapes(x, w, b, dilation, transposed)
    x3 = _as_batch(x.data)
    n, _, t_len = x3.shape
    k = w.data.shape[2]
    forward, adjoint = (_conv_input_grad, _conv) if transposed else (_conv, _conv_input_grad)
    out = forward(x3, _tap_matrices(w.data), dilation,
                  np.broadcast_to(b.data[:, None], (n, b.data.shape[0], t_len)).copy())

    def _bw(g):
        g = _as_batch(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2)))
        if w.requires_grad:
            w.accumulate_grad(_conv_weight_grad(x3, g, dilation, k) if transposed
                              else _conv_weight_grad(g, x3, dilation, k))
        if x.requires_grad:
            gx = adjoint(g, _tap_matrices(w.data), dilation, np.zeros_like(x3))
            x.accumulate_grad(gx.reshape(x.data.shape))

    return _node(out.reshape(x.data.shape[:-2] + out.shape[1:]), (x, w, b), _bw)


def causal_conv1d(x, w, b, dilation=1):
    """Dilated causal convolution.

    x: (N, C_in, T) or (C_in, T); w: (C_out, C_in, K); b: (C_out,). The
    input is left-padded with (K-1)*dilation zeros so the output has length
    T and out[..., t] depends only on x[..., t' <= t].
    """
    return _causal_conv_node(x, w, b, dilation, transposed=False)


def causal_transposed_conv1d(x, w, b, dilation=1):
    """Adjoint-form transposed causal convolution.

    x: (N, C_in, T) or (C_in, T); w: (C_in, C_out, K); b: (C_out,). With
    the same weight array and zero bias this is the exact adjoint of
    causal_conv1d: <conv(a), v> == <a, tconv(v)>. out[..., t] depends only
    on x[..., t' >= t].
    """
    return _causal_conv_node(x, w, b, dilation, transposed=True)
