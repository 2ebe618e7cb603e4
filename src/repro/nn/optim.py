"""Optimizers: Adam (the paper's choice for PPO) and SGD, plus global
gradient-norm clipping."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .tensor import Tensor


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    params = [p for p in parameters if p.grad is not None]
    total = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for parameter in params:
            parameter.grad *= scale
    return total


class Adam:
    """Adam with bias correction (Kingma & Ba).

    The step runs in place: the moments update in their own arrays and
    the update is formed in two scratch buffers sized to the largest
    parameter, allocated once, in the same operation order as the
    textbook ``lr * m_hat / (sqrt(v_hat) + eps)``, so results are
    bit-identical to it.  ``parameter.grad`` is only read.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0
        largest = max((p.size for p in self.parameters), default=0)
        self._scratch = (np.empty(largest), np.empty(largest))

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            grad = parameter.grad
            if grad is None:
                continue
            update, denom = (
                buffer[: m.size].reshape(m.shape) for buffer in self._scratch
            )
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=update)
            m += update
            v *= self.beta2
            np.square(grad, out=update)
            update *= 1.0 - self.beta2
            v += update
            np.divide(m, bias1, out=update)
            update *= self.lr
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            parameter.data -= update

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None


class SGD:
    """Plain SGD with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += parameter.grad
                parameter.data -= self.lr * velocity
            else:
                parameter.data -= self.lr * parameter.grad

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None
