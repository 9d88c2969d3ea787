"""Reverse-mode automatic differentiation over numpy arrays.

Each op records its inputs and a backward closure; ``Tensor.backward()``
walks the recorded graph in reverse topological order and accumulates
gradients into the leaves. Elementwise ops follow numpy broadcasting (the
backward pass sums gradients back down to each operand's shape). ``matmul``
requires operands of rank >= 2 with either equal batch dimensions or a
plain 2-D operand; products where both operands carry batch dimensions use
numpy's batched ``@``. ``matmul`` skips the gradient product of an operand
that does not require a gradient, and ``mul``/``div`` skip the product for a
constant operand.

Two fused nodes carry the transformer's dense work:

``linear(a, w, b)``
    ``a @ w + b`` as one GEMM over ``a`` flattened to ``[rows, features]``,
    with the bias added in place. Its backward returns the input, weight
    and bias gradients directly: the weight gradient is one product of the
    flattened input's transpose with the flattened output gradient, and the
    bias gradient one sum over all leading axes. ``matmul`` of a rank > 2
    activation with a 2-D weight is a ``linear`` without bias.
``attention(q, k, v, heads, bias)``
    Multi-head scaled dot-product attention over ``[batch, seq, hidden]``
    projections, returning the context and the attention probabilities.
    Its backward uses the softmax identity
    ``dS = P * (dP - rowsum(dP * P)) * scale``.

Gradient ownership: a node's first gradient is stored without a copy when
the backward closure that produced it hands over an array it has just
allocated and gives to no other node (``_accum(..., owned=True)``); GEMM
results, elementwise products and any reduction that summed qualify. The
array must also be C-contiguous with the node's dtype and shape, the layout
a copy would have: a gradient in another layout would change the rounding
of the GEMMs that read it. Everything else is copied on arrival: the ``g`` that ``add``/``sub`` pass
to both parents unchanged, the broadcast views of ``reduce_sum`` and
``reduce_mean``, and the views of ``g`` that ``reshape``, ``transpose`` and
``concat`` pass on. Later gradients are added in place, and an embedding
gather scatter-adds straight into its table's gradient. No two nodes
therefore ever share a gradient array.

Everything here is dtype-preserving: float32 graphs stay float32, float64
graphs stay float64. Constants folded into a graph are cast to the dtype of
the tensor they combine with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import erf

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


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t``'s gradient.

    ``owned`` says that ``g`` was just allocated by the caller and is given
    to ``t`` alone, so it can become the first gradient without a copy
    (when it is C-contiguous and already has ``t``'s dtype and shape).
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if (owned and type(g) is np.ndarray and g.flags.c_contiguous
                and g.dtype == t.data.dtype and g.shape == t.data.shape):
            t.grad = g
        else:
            t.grad = np.empty_like(t.data)
            t.grad[...] = g
    else:
        t.grad += g


def _accum_sum(t: Tensor, g: np.ndarray) -> None:
    """``_accum`` of ``g`` summed down to ``t``'s shape; owned when it summed."""
    reduced = _unbroadcast(g, t.data.shape)
    _accum(t, reduced, owned=reduced is not g)


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
        _accum_sum(a, g)
        _accum_sum(b, g)

    return _node(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        _accum_sum(a, g)
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape), owned=True)

    return _node(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    return _node(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
                   owned=True)

    return _node(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    if a.ndim > 2 and b.ndim == 2:
        return linear(a, b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
                   owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape),
                   owned=True)

    return _node(out_data, (a, b), backward)


def linear(a: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``a @ w + b`` for an activation ``a`` of rank >= 2, a 2-D weight ``w``
    and an optional bias vector ``b``, run as one GEMM over ``a`` flattened
    to ``[rows, features]`` with the bias added in place."""
    if a.ndim < 2 or w.ndim != 2:
        raise ValueError("linear needs an activation of rank >= 2 and a 2-D weight")
    a2 = a.data.reshape(-1, a.data.shape[-1])
    y = a2 @ w.data
    if b is not None:
        y += b.data
    out_data = y.reshape(a.data.shape[:-1] + w.data.shape[-1:])

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            _accum(a, (g2 @ w.data.T).reshape(a.data.shape), owned=True)
        if w.requires_grad:
            _accum(w, a2.T @ g2, owned=True)
        if b is not None and b.requires_grad:
            _accum(b, g2.sum(axis=0), owned=True)

    parents = (a, w) if b is None else (a, w, b)
    return _node(out_data, parents, backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              bias: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention.

    ``q``, ``k`` and ``v`` are ``[B, L, H]`` projections, split into
    ``heads`` heads of width ``H / heads``; ``bias`` (broadcast to
    ``[B, heads, L, L]``, e.g. ``[B, 1, 1, L]`` with -1e9 at padding) is
    added to the scaled scores. Returns the context ``[B, L, H]`` and the
    probabilities ``[B, heads, L, L]``.
    """
    B, L, H = q.data.shape
    hd = H // heads
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=q.data.dtype)

    def split(t):
        return t.data.reshape(B, L, heads, hd).transpose(0, 2, 1, 3)

    q4, k4, v4 = split(q), split(k), split(v)
    probs = q4 @ k4.transpose(0, 1, 3, 2)
    probs *= scale
    if bias is not None:
        probs += bias
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out_data = (probs @ v4).transpose(0, 2, 1, 3).reshape(B, L, H)

    def merge(g4):
        return np.ascontiguousarray(g4.transpose(0, 2, 1, 3)).reshape(B, L, H)

    def backward(g):
        dc = np.ascontiguousarray(g.reshape(B, L, heads, hd).transpose(0, 2, 1, 3))
        if v.requires_grad:
            _accum(v, merge(np.swapaxes(probs, -1, -2) @ dc), owned=True)
        ds = dc @ np.swapaxes(v4, -1, -2)
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds *= scale
        if q.requires_grad:
            _accum(q, merge(ds @ k4), owned=True)
        if k.requires_grad:
            _accum(k, merge(np.swapaxes(np.swapaxes(q4, -1, -2) @ ds, -1, -2)),
                   owned=True)

    return _node(out_data, (q, k, v), backward), probs


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
        _accum(a, g * out_data, owned=True)

    return _node(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data, owned=True)

    return _node(out_data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * (0.5 / out_data), owned=True)

    return _node(out_data, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    phi = x * _INV_SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
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
        _accum(a, d, owned=True)

    return _node(out_data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse

    def backward(g):
        probs = np.exp(out_data)
        _accum(a, g - probs * np.asarray(g).sum(axis=axis, keepdims=True), owned=True)

    return _node(out_data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    The variance denominator is floored by ``eps`` so constant inputs map to
    zero instead of NaN.
    """
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    # np.var's own arithmetic, reusing x - mu for xhat
    xhat = x - mu
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=var.dtype))
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(g):
        n = x.shape[-1]
        g2 = g.reshape(-1, n)
        xhat2 = xhat.reshape(-1, n)
        gxhat = g2 * xhat2
        _accum(gain, gxhat.sum(axis=0).reshape(gain.data.shape), owned=True)
        _accum(bias, g2.sum(axis=0).reshape(bias.data.shape), owned=True)
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
            _accum(a, gx.reshape(x.shape), owned=True)

    return _node(out_data, (a, gain, bias), backward)
