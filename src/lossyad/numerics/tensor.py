"""Minimal reverse-mode autodiff tensor over float64 numpy arrays.

The engine covers exactly the operations the fixed autoencoder topology
needs (see `functional`); it is not a general-purpose framework. Every
tensor stores its value as a C-contiguous float64 array so that repeated
runs with identical inputs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError


class Tensor:
    """A node in the computation graph.

    Attributes:
        data: float64 ndarray holding the value.
        grad: accumulated gradient (same shape as data), or None before backward.
        requires_grad: whether gradients flow into this node.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(_parents)
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
            if self.grad.shape != self.data.shape:
                raise ContractError(
                    f"gradient of shape {self.grad.shape} for a {self.data.shape} tensor")
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable tensor. Names must be unique within a model."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def backward(loss):
    """Populate .grad on every reachable leaf tensor with requires_grad.

    `loss` must be scalar. Repeated calls on new graphs without zero_grad
    accumulate, matching the usual reverse-mode convention. The pass
    consumes the graph: once an op node's closure has passed its gradient
    on, the node drops that gradient, the closure and its parent links, so
    activations are freed as the pass goes and only leaves (parameters and
    inputs) hold a gradient afterwards.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.accumulate_grad(np.ones_like(loss.data))
    while topo:
        node = topo.pop()
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = None
            node._parents = ()


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)
