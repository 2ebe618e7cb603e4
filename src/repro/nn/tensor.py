"""A small reverse-mode autograd engine over numpy arrays.

The paper trains its actor-critic networks with PyTorch; this module is
the from-scratch substrate replacement: a :class:`Tensor` records the
operations applied to it and :meth:`Tensor.backward` accumulates
gradients by reverse topological traversal.  Broadcasting follows numpy
semantics, with gradients summed back over broadcast axes.

Supported primitives cover what the policy/value networks need: +, -,
*, /, matmul, exp, log, tanh, sigmoid, relu, power, sum/mean, max,
reshape, transpose, concatenate, stack, slicing and row gathering.

Graphs are freed at backward: each op's closure refers to its own
output tensor, so an unreleased graph is a reference cycle only the
cyclic garbage collector can reclaim.  :meth:`Tensor.backward` drops
every interior node's closure and parents once its gradient has been
propagated, so a graph's intermediates die with the last reference to
them.  Backpropagating through a released graph a second time raises
``RuntimeError``.

Acting never builds a graph: the layers' ``infer`` methods compute the
same forward in plain numpy.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

ArrayLike = "np.ndarray | float | int | list"


def _as_array(value, dtype) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(dtype, copy=False)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _released_backward(grad: np.ndarray) -> None:
    raise RuntimeError(
        "backward() through a graph that an earlier backward() already "
        "released; rebuild the forward pass"
    )


class Tensor:
    """A numpy array with reverse-mode gradient tracking."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_sideband",
        "__weakref__",
    )
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=np.float64,
    ):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction -----------------------------------------------------------

    @staticmethod
    def zeros(shape, requires_grad: bool = False, dtype=np.float64) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad, dtype)

    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data, dtype=data.dtype)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basics -----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, dtype=self.dtype)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode accumulation from this tensor.

        Releases the graph as it goes: every interior node loses its
        closure and parents, so the graph can be backpropagated once.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without grad on non-scalar")
            grad = np.ones_like(self.data)
        # Iterative post-order DFS (a recursive closure would be a
        # reference cycle keeping ``order`` alive until the cyclic GC).
        order: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                stack.pop()
                order.append(node)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            backward = node._backward
            if backward is None:
                if node_grad is not None:
                    node._accumulate(node_grad)
                continue
            node._backward, node._parents = _released_backward, ()
            if node_grad is None:
                continue
            node._sideband = grads  # type: ignore[attr-defined]
            backward(node_grad)
            del node._sideband  # type: ignore[attr-defined]

    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Route gradient to a parent inside backward()."""
        if not parent.requires_grad:
            return
        if parent._backward is None and not parent._parents:
            parent._accumulate(grad)
            return
        sideband: dict[int, np.ndarray] = self._sideband  # type: ignore[attr-defined]
        if id(parent) in sideband:
            sideband[id(parent)] = sideband[id(parent)] + grad
        else:
            sideband[id(parent)] = grad

    # -- arithmetic ----------------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self.dtype)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray, a=self, b=other, out_shape=data.shape):
            self_out._send(a, _unbroadcast(grad, a.shape))
            self_out._send(b, _unbroadcast(grad, b.shape))

        self_out = Tensor._from_op(data, (self, other), backward)
        return self_out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray, a=self):
            out._send(a, -grad)

        out = Tensor._from_op(data, (self,), backward)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray, a=self, b=other):
            out._send(a, _unbroadcast(grad * b.data, a.shape))
            out._send(b, _unbroadcast(grad * a.data, b.shape))

        out = Tensor._from_op(data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray, a=self, b=other):
            out._send(a, _unbroadcast(grad / b.data, a.shape))
            out._send(
                b, _unbroadcast(-grad * a.data / (b.data**2), b.shape)
            )

        out = Tensor._from_op(data, (self, other), backward)
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data**exponent

        def backward(grad: np.ndarray, a=self, e=exponent):
            out._send(a, grad * e * a.data ** (e - 1))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray, a=self, b=other):
            if b.data.ndim >= 2:
                out._send(a, _unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape))
            else:
                out._send(a, _unbroadcast(np.outer(grad, b.data), a.shape))
            if a.data.ndim >= 2:
                out._send(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape))
            else:
                out._send(b, _unbroadcast(np.outer(a.data, grad), b.shape))

        out = Tensor._from_op(data, (self, other), backward)
        return out

    # -- elementwise functions ---------------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray, a=self, d=data):
            out._send(a, grad * d)

        out = Tensor._from_op(data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray, a=self):
            out._send(a, grad / a.data)

        out = Tensor._from_op(data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray, a=self, d=data):
            out._send(a, grad * (1.0 - d**2))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray, a=self, d=data):
            out._send(a, grad * d * (1.0 - d))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray, a=self):
            out._send(a, grad * (a.data > 0))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def clip_value(self, low: float, high: float) -> "Tensor":
        """Clamp with straight-through gradient inside the bounds."""
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray, a=self):
            inside = (a.data >= low) & (a.data <= high)
            out._send(a, grad * inside)

        out = Tensor._from_op(data, (self,), backward)
        return out

    # -- reductions --------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            out._send(a, np.broadcast_to(g, a.shape).copy())

        out = Tensor._from_op(np.asarray(data), (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self):
            expanded = data if keepdims else np.expand_dims(data, axis)
            g = grad if keepdims else np.expand_dims(grad, axis)
            hit = a.data == expanded
            counts = hit.sum(axis=axis, keepdims=True)
            out._send(a, g * hit / counts)

        out = Tensor._from_op(np.asarray(data), (self,), backward)
        return out

    # -- shape ops ---------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray, a=self):
            out._send(a, grad.reshape(a.shape))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray, a=self):
            out._send(a, grad.transpose(inverse))

        out = Tensor._from_op(data, (self,), backward)
        return out

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad: np.ndarray, a=self):
            full = np.zeros_like(a.data)
            np.add.at(full, key, grad)
            out._send(a, full)

        out = Tensor._from_op(np.asarray(data), (self,), backward)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


# ---------------------------------------------------------------------------
# Free functions
# ---------------------------------------------------------------------------


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            out._send(tensor, grad[tuple(slicer)])

    out = Tensor._from_op(data, tuple(tensors), backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        parts = np.moveaxis(grad, axis, 0)
        for tensor, part in zip(tensors, parts):
            out._send(tensor, part)

    out = Tensor._from_op(data, tuple(tensors), backward)
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray):
        out._send(a, _unbroadcast(grad * condition, a.shape))
        out._send(b, _unbroadcast(grad * (~condition), b.shape))

    out = Tensor._from_op(data, (a, b), backward)
    return out


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax (max-shift is detached)."""
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = logits - shift
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(logits, axis=axis).exp()
