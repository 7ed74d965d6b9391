"""The Adam optimiser.

The paper trains GNNs with standard stochastic optimisation in mini-batch
mode; Adam covers the configurations used by the OGB examples the paper
follows.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.tensor.nn import Parameter


class Adam:
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.001,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias_c1 = 1.0 - self.beta1 ** self._step_count
        bias_c2 = 1.0 - self.beta2 ** self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias_c1
            v_hat = v / bias_c2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
