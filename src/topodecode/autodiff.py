"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every differentiable quantity is wrapped in a :class:`Var`. Operations build
a graph of parent links plus vector-Jacobian callbacks; :func:`backward`
walks the graph once in reverse topological order and accumulates gradients
into ``Var.grad``. Accumulation order is fixed by graph construction order,
so repeated runs with identical inputs are bitwise reproducible. Inside
:func:`no_grad` nodes keep no parents, so intermediates are freed as soon as
the forward is done with them.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Var",
    "var",
    "add",
    "add_n",
    "matmul",
    "spmm",
    "scale",
    "relu",
    "tanh",
    "take_cols",
    "lincomb",
    "mul_mask",
    "mse",
    "backward",
    "no_grad",
]

_recording = True


class Var:
    """Node in the computation graph: a value, its gradient, and parents."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.grad = None
        if _recording:
            self._parents = parents
            self._vjp = vjp
        else:
            self._parents = ()
            self._vjp = None

    @property
    def shape(self):
        return np.shape(self.value)

    def __repr__(self):
        return f"Var(shape={self.shape}, leaf={self._vjp is None})"


def var(value) -> Var:
    """Wrap an array-like as a leaf node (float64)."""
    return Var(np.asarray(value, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Var, b: Var) -> Var:
    out = a.value + b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Var(out, (a, b), vjp)


def add_n(parts: list[Var]) -> Var:
    """Sum of same-shaped nodes."""
    if len(parts) == 1:
        return parts[0]
    out = parts[0].value.copy()
    for p in parts[1:]:
        out += p.value

    def vjp(g):
        return tuple(g for _ in parts)

    return Var(out, tuple(parts), vjp)


def matmul(a: Var, b: Var) -> Var:
    out = a.value @ b.value

    def vjp(g):
        return g @ b.value.T, a.value.T @ g

    return Var(out, (a, b), vjp)


def spmm(m, x: Var) -> Var:
    """Constant linear operator times a variable dense matrix. ``m`` is a
    sparse matrix or any operator with ``@`` whose ``.T`` applies its
    transpose, such as a symmetric operator whose ``.T`` is itself."""
    out = m @ x.value

    def vjp(g):
        return (m.T @ g,)

    return Var(out, (x,), vjp)


def scale(s: Var, x: Var) -> Var:
    """Scalar variable times an array variable."""
    out = s.value * x.value

    def vjp(g):
        return np.sum(g * x.value), s.value * g

    return Var(out, (s, x), vjp)


def relu(x: Var) -> Var:
    out = np.maximum(x.value, 0.0)

    def vjp(g):
        return (g * (x.value > 0.0),)

    return Var(out, (x,), vjp)


def tanh(x: Var) -> Var:
    out = np.tanh(x.value)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return Var(out, (x,), vjp)


def take_cols(x: Var, idx: np.ndarray) -> Var:
    """Columns ``idx`` of ``x`` in that order; indices may repeat, and the
    gradients of repeated columns add up in index order."""
    out = x.value[:, idx]

    def vjp(g):
        rows, cols = x.value.shape
        flat = (np.arange(rows)[:, None] * cols + idx).reshape(-1)
        return (np.bincount(flat, g.reshape(-1), rows * cols).reshape(rows, cols),)

    return Var(out, (x,), vjp)


def lincomb(scalars: list[Var], flat: np.ndarray, shape) -> Var:
    """Linear combination of constant matrices by scalar variables.

    ``flat`` holds the matrices as rows of a (n_terms, size) array; the
    output is reshaped to ``shape``. One GEMV forward, one GEMV backward.
    """
    w = np.array([s.value for s in scalars])
    out = (w @ flat).reshape(shape)

    def vjp(g):
        return tuple(flat @ g.reshape(-1))

    return Var(out, tuple(scalars), vjp)


def mul_mask(x: Var, mask: np.ndarray) -> Var:
    """Elementwise product with a constant mask (dropout)."""
    out = x.value * mask

    def vjp(g):
        return (g * mask,)

    return Var(out, (x,), vjp)


def mse(pred: Var, target: np.ndarray) -> Var:
    diff = pred.value - target
    out = np.float64(np.mean(diff * diff))

    def vjp(g):
        return (g * 2.0 * diff / diff.size,)

    return Var(out, (pred,), vjp)


def backward(root: Var) -> None:
    """Accumulate gradients of ``root`` (a scalar) into every reachable node."""
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g


@contextmanager
def no_grad():
    """Evaluate without recording: nodes built inside keep no parents and
    no VJP, so :func:`backward` cannot reach through them."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous
