"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError


class Adam:
    """Standard Adam over a fixed parameter list.

    Holds one first and one second moment per parameter (`m`, `v`), updated
    in place, so the same arrays live for the optimizer's lifetime. Each
    step takes every parameter's gradient and clears it (`p.grad` is None
    afterwards), so no gradient outlives the step that used it. State is
    deterministic given the gradient sequence.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names in optimizer")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise ContractError(f"parameter {p.name} has no gradient")
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g, p.grad = p.grad, None
            # the textbook expression's operations in its order, so the
            # bytes match m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g);
            # p -= lr*m_hat / (sqrt(v_hat) + eps)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            g *= g
            g *= 1.0 - self.beta2
            v *= self.beta2
            v += g
            del g   # freed before m_hat and v_hat are made
            m_hat = m / (1.0 - self.beta1 ** t)
            m_hat *= self.lr
            v_hat = v / (1.0 - self.beta2 ** t)
            np.sqrt(v_hat, out=v_hat)
            v_hat += self.eps
            m_hat /= v_hat
            p.data -= m_hat
