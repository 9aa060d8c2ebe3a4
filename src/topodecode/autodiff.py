"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every differentiable quantity is wrapped in a :class:`Var`. Operations build
a graph of parent links plus vector-Jacobian callbacks; :func:`backward`
walks the graph once in reverse topological order and accumulates gradients
into the leaves' ``Var.grad``. The walk consumes the graph: each interior
node drops its gradient and its links once its VJP has run, so only the
leaves keep ``.grad`` and the graph cannot be walked twice. Accumulation
order is fixed by graph construction order, so repeated runs with identical
inputs are bitwise reproducible. Inside :func:`no_grad` nodes keep no
parents, so intermediates are freed as soon as the forward is done with
them.
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
    "block_matmul",
    "spmm",
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


def block_matmul(w: Var, blocks: list[Var]) -> Var:
    """The products ``w[:, rows_k] @ blocks[k]`` side by side, where the row
    blocks ``rows_k`` of ``blocks`` split ``w``'s columns in order: block k
    reads the next ``blocks[k].shape[0]`` columns of ``w`` and fills the
    next ``blocks[k].shape[1]`` output columns. A block may be empty. The
    VJP writes ``w``'s gradient once, whole."""
    rows = np.cumsum([0] + [x.value.shape[0] for x in blocks])
    cols = np.cumsum([0] + [x.value.shape[1] for x in blocks])
    if rows[-1] != w.value.shape[1]:
        raise ValueError(f"blocks have {rows[-1]} rows in all, w has {w.value.shape[1]} columns")

    def w_block(k):
        # The F-ordered copy ``w[:, index_array]`` makes: BLAS then sums in
        # the same order as for a column gather followed by a product.
        return np.asfortranarray(w.value[:, rows[k]:rows[k + 1]])

    out = np.concatenate([w_block(k) @ x.value for k, x in enumerate(blocks)], axis=1)

    def vjp(g):
        dw = np.empty_like(w.value)
        dxs = []
        for k, x in enumerate(blocks):
            g_k = np.ascontiguousarray(g[:, cols[k]:cols[k + 1]])
            dw[:, rows[k]:rows[k + 1]] = g_k @ x.value.T
            dxs.append(w_block(k).T @ g_k)
        return (dw, *dxs)

    return Var(out, (w, *blocks), vjp)


def spmm(m, x: Var) -> Var:
    """Constant linear operator times a variable dense matrix. ``m`` is a
    sparse matrix or any operator with ``@`` whose ``.T`` applies its
    transpose, such as a symmetric operator whose ``.T`` is itself."""
    out = m @ x.value

    def vjp(g):
        return (m.T @ g,)

    return Var(out, (x,), vjp)


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


def lincomb(scalars: list[Var], terms: list) -> Var:
    """Sum of ``scalars[i] * terms[i]``, added in term order. Each term is a
    constant array or a Var of the output's shape; constant terms are not
    graph parents."""
    values = [t.value if isinstance(t, Var) else t for t in terms]
    out = scalars[0].value * values[0]
    for s, value in zip(scalars[1:], values[1:]):
        out += s.value * value
    nodes = [(s, t) for s, t in zip(scalars, terms) if isinstance(t, Var)]

    def vjp(g):
        return tuple(np.vdot(value, g) for value in values) + tuple(
            s.value * g for s, _ in nodes
        )

    return Var(out, (*scalars, *(t for _, t in nodes)), vjp)


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
    """Accumulate gradients of ``root`` (a scalar) into every reachable leaf.

    The walk consumes the graph: once a node's VJP has run, the node drops
    its gradient, parents and VJP, so each interior value and gradient is
    freed as soon as nothing later needs it. Only leaves keep ``.grad``.
    A second contribution to a node is added in place only into an array
    this walk allocated itself, never into one a VJP returned, which may be
    shared with another node."""
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

    # Every node stays alive in ``order`` until popped, so ids are unique.
    owned: set[int] = set()
    root.grad = np.ones_like(root.value)
    while order:
        node = order.pop()
        if node._vjp is None:
            continue
        if node.grad is not None:
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = g
                elif id(parent) in owned:
                    parent.grad += g
                else:
                    parent.grad = parent.grad + g
                    owned.add(id(parent))
        node.grad, node._parents, node._vjp = None, (), None


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
