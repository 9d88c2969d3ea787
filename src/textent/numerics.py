"""Optimizer and gradient plumbing over the ``autodiff`` graph.

Holds the Adam optimizer, the one loss-and-gradient path
(``value_and_grads``) and a central-difference gradient-check harness.
Softmax, layer norm and the other numeric primitives live in ``autodiff``
alone. 32-bit floats are the training default; gradient checks should be
run on 64-bit parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import autodiff
from .errors import DataError, NumericError


# -- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter Adam moments plus hyperparameters and step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray], lr: float = 1e-3,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        state.m = {k: np.zeros_like(v) for k, v in params.items()}
        state.v = {k: np.zeros_like(v) for k, v in params.items()}
        return state


def adam_step(params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied in place.

    Mutates ``params`` and ``state`` (exclusive access required) and returns
    them for convenience. A parameter with an all-zero gradient and zero
    moments is left bit-identical. Every gradient is checked before anything
    is mutated: a mismatched shape raises ``DataError`` and a non-finite
    value raises ``NumericError``. Both name the parameter and leave the
    parameters and the state as they were.
    """
    if state.lr <= 0:
        raise DataError("learning rate must be positive")
    updates = [(name, p, g) for name, p in params.items()
               if (g := grads.get(name)) is not None]
    for name, p, g in updates:
        if g.shape != p.shape:
            raise DataError(f"gradient shape {g.shape} does not match parameter "
                            f"'{name}' with shape {p.shape}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p, g in updates:
        m = state.m[name]
        v = state.v[name]
        # The expressions in the comments, evaluated in their own order (so the
        # result is bit-identical) with s1 and s2 as the only temporaries.
        s1, s2 = np.empty_like(p), np.empty_like(p)
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
