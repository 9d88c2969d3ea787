"""Optimizer and gradient plumbing over the ``autodiff`` graph.

Holds the Adam optimizer, the one loss-and-gradient path
(``value_and_grads``) and a central-difference gradient-check harness.
Adam keeps the parameters and both moments in flat buffers:
``AdamState.for_params`` copies the parameters into one and rebinds the
caller's dict entries to views of it, and ``adam_step`` gathers the
gradients into another and updates all of them in cache-sized chunks.
Every parameter needs a gradient at every step.
Softmax, layer norm and the other numeric primitives live in ``autodiff``
alone. 32-bit floats are the training default; gradient checks should be
run on 64-bit parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping

import numpy as np

from . import autodiff
from .errors import DataError, NumericError


# -- optimizer ----------------------------------------------------------------


# Elements per pass of the update: the four operands and two temporaries of a
# chunk stay in cache across the update's 14 in-place operations.
_CHUNK = 1 << 16


@dataclass
class AdamState:
    """Adam moments, learning rate and step counter over one flat buffer.

    ``for_params`` lays the parameters out in one contiguous buffer; ``m``
    and ``v`` map each parameter name to its view into the flat moment
    buffers, so the moments can still be read by name.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    lr: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    # the parameter views ``for_params`` handed out, and the flat buffers of
    # parameters, moments, gathered gradients and the two chunk temporaries
    _views: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _flat: tuple[np.ndarray, ...] = field(default=(), repr=False)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float = 1e-3) -> "AdamState":
        """Fresh state for ``params``, which it rebinds to views of one buffer.

        Every entry of ``params`` is copied into one contiguous buffer and
        replaced by a view of it with the same shape, dtype and values. The
        parameters must share one dtype.
        """
        dtypes = {p.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise DataError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        flat = np.empty(sum(p.size for p in params.values()), dtype=dtype)
        if params:
            np.concatenate([p.reshape(-1) for p in params.values()], out=flat)
        shapes = {name: p.shape for name, p in params.items()}
        state = cls(lr=lr)
        m, v, g = np.zeros_like(flat), np.zeros_like(flat), np.empty_like(flat)
        scratch = min(flat.size, _CHUNK)
        state._flat = (flat, m, v, g, np.empty(scratch, dtype), np.empty(scratch, dtype))
        state._views = _split(flat, shapes)
        state.m = _split(m, shapes)
        state.v = _split(v, shapes)
        params.update(state._views)
        return state


def _split(flat: np.ndarray, shapes: Mapping[str, tuple]) -> dict[str, np.ndarray]:
    """Consecutive slices of ``flat``, reshaped, one per name."""
    out, start = {}, 0
    for name, shape in shapes.items():
        stop = start + int(np.prod(shape))
        out[name] = flat[start:stop].reshape(shape)
        start = stop
    return out


def adam_step(params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied in place.

    ``params`` must be the dict ``AdamState.for_params`` prepared for
    ``state``, and every parameter needs a gradient. Mutates ``params`` and
    ``state`` (exclusive access required) and returns them for convenience.
    A parameter with an all-zero gradient and zero moments is left
    bit-identical. Every gradient is checked before anything is mutated: a
    missing gradient, a mismatched shape or a parameter ``for_params`` did
    not lay out raises ``DataError``, a non-finite value ``NumericError``.
    Each names the parameter and leaves the parameters and the state as they
    were.
    """
    if state.lr <= 0:
        raise DataError("learning rate must be positive")
    views = state._views
    for name, p in params.items():
        if views.get(name) is not p:
            raise DataError(f"parameter '{name}' is not in the optimizer's buffer; "
                            f"prepare the parameters with AdamState.for_params")
    for name, p in views.items():
        if params.get(name) is not p:
            raise DataError(f"parameter '{name}' is missing from the parameters")
        g = grads.get(name)
        if g is None:
            raise DataError(f"no gradient for parameter '{name}'")
        if g.shape != p.shape:
            raise DataError(f"gradient shape {g.shape} does not match parameter "
                            f"'{name}' with shape {p.shape}")
    flat_p, flat_m, flat_v, flat_g, t1, t2 = state._flat
    if views:
        np.concatenate([grads[name].reshape(-1) for name in views], out=flat_g)
    if not np.isfinite(flat_g).all():
        bad = next(name for name in views if not np.isfinite(grads[name]).all())
        raise NumericError(f"non-finite gradient for parameter '{bad}'")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for start in range(0, flat_p.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        p, m, v, g = flat_p[chunk], flat_m[chunk], flat_v[chunk], flat_g[chunk]
        s1, s2 = t1[:p.size], t2[:p.size]
        # The expressions in the comments, evaluated in their own order (so the
        # result is bit-identical) with s1 and s2 as the only temporaries.
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=s1)
        v *= state.beta2
        np.multiply(g, g, out=s2)
        s2 *= 1.0 - state.beta2
        v += s2
        # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=s1)
        s1 *= state.lr
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += state.eps
        s1 /= s2
        p -= s1
    return params, state


# -- gradient checking --------------------------------------------------------


LossFn = Callable[[dict[str, autodiff.Tensor]], autodiff.Tensor]


def value_and_grads(loss_fn: LossFn, params: Mapping[str, np.ndarray]
                    ) -> tuple[float, dict[str, np.ndarray]]:
    """Run ``loss_fn`` on parameter leaves and backpropagate.

    Returns the scalar loss and a gradient per parameter (zeros for
    parameters the loss does not touch).
    """
    leaves = {k: autodiff.parameter(v) for k, v in params.items()}
    out = loss_fn(leaves)
    if out.data.size != 1:
        raise DataError(f"loss must be scalar, got shape {out.data.shape}")
    value = float(out.data.reshape(())[()])
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss {value!r}")
    out.backward()
    grads = {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for k, t in leaves.items()}
    return value, grads


def grad_check(loss_fn: LossFn, params: Mapping[str, np.ndarray],
               samples: int = 200, h: float = 1e-5, *,
               rng: np.random.Generator | None = None,
               analytic: Mapping[str, np.ndarray] | None = None,
               eps: float = 1e-6) -> float:
    """Compare analytic gradients against central differences.

    Samples ``samples`` coordinates uniformly across all parameters and
    returns the maximum of ``|analytic - numeric| / (|analytic| + |numeric|
    + eps)``. ``eps`` is the noise floor of the relative error: coordinates
    whose true gradient sits at the scale of finite-difference roundoff
    (machine epsilon times loss over step) would otherwise report errors
    near 1 out of pure noise. ``analytic`` overrides the autodiff gradients
    when given (useful for checking hand-written backward passes).
    """
    if h <= 0:
        raise DataError("step h must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    work = {k: np.array(v, copy=True) for k, v in params.items()}
    if analytic is None:
        _, analytic = value_and_grads(loss_fn, work)

    def evaluate() -> float:
        leaves = {k: autodiff.constant(v) for k, v in work.items()}
        data = loss_fn(leaves).data
        value = float(data.reshape(())[()]) if data.size == 1 else float("nan")
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss {value!r} during finite differencing")
        return value

    names = sorted(work)
    sizes = np.array([work[n].size for n in names])
    total = int(sizes.sum())
    if total == 0:
        raise DataError("no parameters to check")
    cuts = np.cumsum(sizes)
    worst = 0.0
    for coord in rng.integers(0, total, size=samples):
        which = int(np.searchsorted(cuts, coord, side="right"))
        name = names[which]
        offset = int(coord - (cuts[which] - sizes[which]))
        flat = work[name].reshape(-1)
        orig = flat[offset]
        flat[offset] = orig + h
        plus = evaluate()
        flat[offset] = orig - h
        minus = evaluate()
        flat[offset] = orig
        numeric = (plus - minus) / (2.0 * h)
        exact = float(np.asarray(analytic[name]).reshape(-1)[offset])
        err = abs(exact - numeric) / (abs(exact) + abs(numeric) + eps)
        worst = max(worst, err)
    return worst
