"""Neural-network layers over the autograd tensor.

Implements exactly what the paper's actor-critic networks need
(Fig. 3/4): dense layers with ReLU, an LSTM cell for the
producer-consumer embedding, and a module system with parameter
collection for the optimizer.

Each layer has two forwards: ``__call__`` builds the autograd graph that
training backpropagates through, and ``infer`` computes the same
numbers from the weight arrays in plain numpy, for acting and
prediction.  ``infer`` runs in its input's dtype and repeats the
autograd forward's operations in the same order (less the LSTM matmuls
of all-zero inputs, see :meth:`LSTMCell.infer`), so on float64 input
its output equals the autograd forward's ``.data`` bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .tensor import Tensor, concatenate


class Module:
    """Base class: parameter registration via attribute scanning."""

    def parameters(self) -> Iterator[Tensor]:
        seen: set[int] = set()
        for value in self.__dict__.values():
            yield from _parameters_of(value, seen)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.grad = None

    def state_dict(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        parameters = list(self.parameters())
        if len(parameters) != len(state):
            raise ValueError(
                f"state has {len(state)} arrays, model has {len(parameters)}"
            )
        for parameter, array in zip(parameters, state):
            if parameter.data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch {parameter.data.shape} vs {array.shape}"
                )
            parameter.data = array.copy()


def _parameters_of(value, seen: set[int]) -> Iterator[Tensor]:
    if isinstance(value, Tensor):
        if value.requires_grad and id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, Module):
        for parameter in value.parameters():
            if id(parameter) not in seen:
                seen.add(id(parameter))
                yield parameter
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _parameters_of(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _parameters_of(item, seen)


class Linear(Module):
    """A dense layer ``y = x W + b`` with Kaiming-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        self.in_features = in_features
        self.out_features = out_features
        bound = math.sqrt(6.0 / in_features)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data.astype(x.dtype, copy=False)
        if self.bias is not None:
            out += self.bias.data.astype(x.dtype, copy=False)
        return out


class MLP(Module):
    """A stack of Linear + ReLU layers (the paper's backbone: 3 x 512)."""

    def __init__(
        self,
        sizes: list[int],
        rng: np.random.Generator,
        final_activation: bool = True,
    ):
        self.layers = [
            Linear(fan_in, fan_out, rng)
            for fan_in, fan_out in zip(sizes, sizes[1:])
        ]
        self.final_activation = final_activation

    def __call__(self, x: Tensor) -> Tensor:
        for index, layer in enumerate(self.layers):
            x = layer(x)
            if self.final_activation or index + 1 < len(self.layers):
                x = x.relu()
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for index, layer in enumerate(self.layers):
            x = layer.infer(x)
            if self.final_activation or index + 1 < len(self.layers):
                np.maximum(x, 0.0, out=x)
        return x


class LSTMCell(Module):
    """A standard LSTM cell (input/forget/cell/output gates)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = math.sqrt(1.0 / hidden_size)
        self.weight_ih = Tensor(
            rng.uniform(-bound, bound, size=(input_size, 4 * hidden_size)),
            requires_grad=True,
        )
        self.weight_hh = Tensor(
            rng.uniform(-bound, bound, size=(hidden_size, 4 * hidden_size)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(4 * hidden_size), requires_grad=True)

    def __call__(
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, Tensor]:
        h, c = state
        gates = x @ self.weight_ih + h @ self.weight_hh + self.bias
        size = self.hidden_size
        i = gates[:, 0 * size : 1 * size].sigmoid()
        f = gates[:, 1 * size : 2 * size].sigmoid()
        g = gates[:, 2 * size : 3 * size].tanh()
        o = gates[:, 3 * size : 4 * size].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next

    def infer(
        self,
        x: np.ndarray,
        state: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step on plain arrays; ``state=None`` is the zero state.

        From the zero state the recurrent matmul, and the input matmul
        of an all-zero ``x`` (an absent producer), only add signed
        zeros to the gate pre-activations.  The gates map -0 and +0 to
        the same bits (sigmoid gives 0.5; a +-0 cell input enters
        ``c`` as ``+0 + i*g``), so both are skipped and the outputs
        stay bit-identical to the autograd cell for finite weights.
        """
        dtype = x.dtype
        size = self.hidden_size
        if state is None:
            c = np.zeros((x.shape[0], size), dtype)
            if x.any():
                gates = x @ self.weight_ih.data.astype(dtype, copy=False)
            else:
                gates = np.zeros((x.shape[0], 4 * size), dtype)
        else:
            h, c = state
            gates = x @ self.weight_ih.data.astype(dtype, copy=False)
            gates += h @ self.weight_hh.data.astype(dtype, copy=False)
        gates += self.bias.data.astype(dtype, copy=False)
        # One elementwise sigmoid over all four blocks gives each gate
        # the bits of its per-slice autograd sigmoid (the cell block's
        # share is unused).
        sigmoid = np.negative(gates)
        np.exp(sigmoid, out=sigmoid)
        sigmoid += 1.0
        np.divide(1.0, sigmoid, out=sigmoid)
        i = sigmoid[:, 0 * size : 1 * size]
        f = sigmoid[:, 1 * size : 2 * size]
        o = sigmoid[:, 3 * size : 4 * size]
        g = np.tanh(gates[:, 2 * size : 3 * size])
        c_next = f * c
        c_next += i * g
        h_next = np.tanh(c_next)
        h_next *= o
        return h_next, c_next

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = Tensor(np.zeros((batch, self.hidden_size)))
        return zeros, Tensor(np.zeros((batch, self.hidden_size)))


class LSTMEncoder(Module):
    """Runs an LSTM cell over a short sequence; returns the final hidden
    state — the producer-consumer embedding of §V-A."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.cell = LSTMCell(input_size, hidden_size, rng)

    def __call__(self, steps: list[Tensor]) -> Tensor:
        if not steps:
            raise ValueError("LSTMEncoder needs at least one step")
        batch = steps[0].shape[0]
        state = self.cell.initial_state(batch)
        for step in steps:
            state = self.cell(step, state)
        return state[0]

    def infer(self, steps: Sequence[np.ndarray]) -> np.ndarray:
        """Final hidden state for (B, feature) ``steps``, computed step
        by step like the autograd forward (never one stacked matmul
        over the steps, whose bits differ)."""
        if not len(steps):
            raise ValueError("LSTMEncoder needs at least one step")
        state = None
        for step in steps:
            state = self.cell.infer(step, state)
        return state[0]
