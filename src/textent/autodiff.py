"""Reverse-mode automatic differentiation over numpy arrays.

Each op records its inputs and a backward closure; ``Tensor.backward()``
walks the recorded graph in reverse topological order and accumulates
gradients into the leaves. Elementwise ops follow numpy broadcasting (the
backward pass sums gradients back down to each operand's shape). ``matmul``
requires operands of rank >= 2 with either equal batch dimensions or a
plain 2-D operand. An activation of rank > 2 times a 2-D weight (every dense
layer) runs as one GEMM over the activation flattened to ``[rows,
features]``, forward and backward: the weight gradient is one product of the
flattened activation's transpose with the flattened output gradient, not a
batched product summed over the batch. Products where both operands carry
batch dimensions (attention) use numpy's batched ``@``. ``matmul`` skips the
gradient product of an operand that does not require a gradient.

A node's first gradient is stored as a copy and later ones are added in
place; an embedding gather scatter-adds straight into its table's gradient.

Everything here is dtype-preserving: float32 graphs stay float32, float64
graphs stay float64. Constants folded into a graph are cast to the dtype of
the tensor they combine with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import erf, expit

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


class Tensor:
    """A node in the recorded op graph wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ---------------------------------------------

    def _const(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return add(self, self._const(other))

    def __radd__(self, other):
        return add(self._const(other), self)

    def __sub__(self, other):
        return sub(self, self._const(other))

    def __rsub__(self, other):
        return sub(self._const(other), self)

    def __mul__(self, other):
        return mul(self, self._const(other))

    def __rmul__(self, other):
        return mul(self._const(other), self)

    def __truediv__(self, other):
        return div(self, self._const(other))

    def __neg__(self):
        return mul(self, self._const(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if len(axes) > 1 else axes[0])

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    # -- backward pass ----------------------------------------------------

    def backward(self, seed=None):
        """Accumulate gradients of this node into every reachable leaf.

        ``seed`` defaults to ones (i.e. d(self)/d(self)); pass an array of
        the same shape to seed a custom cotangent.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        _accum(self, np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def parameter(data: np.ndarray) -> Tensor:
    """Leaf tensor that collects gradients."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    """Leaf tensor excluded from differentiation."""
    return Tensor(np.asarray(data))


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # A copy, never ``g`` itself: add and sub hand one array to both parents.
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _node(data, parents, backward) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=tuple(parents) if req else (),
                  backward=backward if req else None)


# -- arithmetic -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    if a.ndim > 2 and b.ndim == 2:
        return _dense(a, b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), backward)


def _dense(a: Tensor, w: Tensor) -> Tensor:
    """``a @ w`` for a rank > 2 activation ``a`` and a 2-D weight ``w``, run
    as one GEMM over ``a`` flattened to ``[rows, features]``."""
    a2 = a.data.reshape(-1, a.data.shape[-1])
    out_data = (a2 @ w.data).reshape(a.data.shape[:-1] + w.data.shape[-1:])

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            _accum(a, (g2 @ w.data.T).reshape(a.data.shape))
        if w.requires_grad:
            _accum(w, a2.T @ g2)

    return _node(out_data, (a, w), backward)


# -- shape ops -------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(orig))

    return _node(out_data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out_data = a.data.transpose(axes)

    def backward(g):
        _accum(a, g.transpose(tuple(np.argsort(axes))))

    return _node(out_data, (a,), backward)


def _is_basic_index(key) -> bool:
    """True when ``key`` selects by slices and integers only (a view, with
    no position selected twice)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, (slice, int, np.integer)) or k is Ellipsis for k in parts)


def take(a: Tensor, key) -> Tensor:
    """Indexing/gather; backward scatter-adds into ``a``'s gradient through
    the same key."""
    out_data = a.data[key]

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if _is_basic_index(key):
            a.grad[key] += g
        else:
            np.add.at(a.grad, key, g)

    return _node(out_data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _node(out_data, tuple(tensors), backward)


# -- reductions -------------------------------------------------------------


def _restore_axes(g: np.ndarray, axis, keepdims: bool, shape: tuple) -> np.ndarray:
    if not keepdims and axis is not None:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        _accum(a, _restore_axes(np.asarray(g), axis, keepdims, a.data.shape))

    return _node(out_data, (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))

    def backward(g):
        scaled = np.asarray(g) / count
        _accum(a, _restore_axes(scaled, axis, keepdims, a.data.shape))

    return _node(out_data, (a,), backward)


# -- nonlinearities ----------------------------------------------------------


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        _accum(a, g * out_data)

    return _node(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data)

    return _node(out_data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * (0.5 / out_data))

    return _node(out_data, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out_data = x * phi

    def backward(g):
        # g * (phi + x * pdf(x)), built in place on one temporary
        d = x * x
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= x
        d += phi
        d *= g
        _accum(a, d)

    return _node(out_data, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably."""
    out_data = np.logaddexp(np.zeros((), dtype=a.data.dtype), a.data)

    def backward(g):
        _accum(a, g * expit(a.data))

    return _node(out_data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, out_data * (g - inner))

    return _node(out_data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse

    def backward(g):
        probs = np.exp(out_data)
        _accum(a, g - probs * np.asarray(g).sum(axis=axis, keepdims=True))

    return _node(out_data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    The variance denominator is floored by ``eps`` so constant inputs map to
    zero instead of NaN.
    """
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=var.dtype))
    xhat = (x - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        n = x.shape[-1]
        g2 = g.reshape(-1, n)
        xhat2 = xhat.reshape(-1, n)
        gxhat = g2 * xhat2
        _accum(gain, gxhat.sum(axis=0).reshape(gain.data.shape))
        _accum(bias, g2.sum(axis=0).reshape(bias.data.shape))
        if a.requires_grad:
            # inv * (gx - mean(gx) - xhat * mean(gx * xhat)) with gx = g * gain,
            # built in place; sum(gx * xhat) is one product of gxhat with the gain
            gain_vec = gain.data.reshape(n)
            dot = (gxhat @ gain_vec)[:, None]
            dot /= n
            gx = g2 * gain_vec
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= np.multiply(xhat2, dot, out=gxhat)
            gx *= inv.reshape(-1, 1)
            _accum(a, gx.reshape(x.shape))

    return _node(out_data, (a, gain, bias), backward)
