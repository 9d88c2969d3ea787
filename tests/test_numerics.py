"""Contract tests for the numeric primitives, Adam, and the grad checker."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textent import autodiff, numerics
from textent.encoder import ModelConfig, encode_tensors, init_params
from textent.errors import DataError, NumericError
from textent.numerics import AdamState, adam_step, grad_check, value_and_grads

from conftest import adam_step_per_tensor, layer_norm_ref


# The models call the autodiff ops; these run them on constants.


def softmax(logits):
    return np.exp(autodiff.log_softmax(autodiff.constant(np.asarray(logits, dtype=float))).data)


def layer_norm(x, gain, bias):
    return autodiff.layer_norm(autodiff.constant(x), autodiff.constant(gain),
                               autodiff.constant(bias)).data


def exp_normalize_oracle(logits, dps=50):
    """High-precision softmax, independent of the implementation under test."""
    mpmath.mp.dps = dps
    exps = [mpmath.exp(mpmath.mpf(float(x))) for x in logits]
    total = sum(exps)
    return [float(e / total) for e in exps]


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    @pytest.mark.parametrize("x", [-3.0, 0.0, 1e5])
    def test_single_class(self, x):
        np.testing.assert_allclose(softmax([x]), [1.0])

    def test_against_high_precision_oracle(self):
        logits = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(softmax(logits), exp_normalize_oracle(logits),
                                   rtol=1e-12)

    @given(st.lists(st.floats(-80, 80), min_size=1, max_size=12),
           st.floats(-50, 50))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        p = softmax(logits)
        assert abs(p.sum() - 1.0) < 1e-6
        assert np.all(p >= 0)
        shifted = softmax([x + shift for x in logits])
        np.testing.assert_allclose(p, shifted, atol=1e-9)
        # the max-logit coordinate attains the max probability (exp may
        # collapse near-ties, so compare probabilities, not indices)
        assert p[int(np.argmax(logits))] == p.max()


class TestLayerNorm:
    def test_constant_input_floored_to_zero(self):
        out = layer_norm(np.array([1.0, 1.0, 1.0, 1.0]), np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-5)

    def test_already_normalized(self):
        out = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2))
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-5)

    def test_moments_recomputed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 5.0, size=64)
        out = layer_norm(x, np.ones(64), np.zeros(64))
        assert abs(out.mean()) < 1e-5
        assert abs(out.var() - 1.0) < 1e-5

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(4)
        x, gain, bias = rng.normal(size=(5, 16)), rng.normal(size=16), rng.normal(size=16)
        np.testing.assert_allclose(layer_norm(x, gain, bias), layer_norm_ref(x, gain, bias),
                                   rtol=1e-12)

    def test_constant_integer_input_floored_to_zero(self):
        out = layer_norm(np.array([3, 3, 3]), np.ones(3), np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(3))


class TestAdam:
    def test_zero_gradient_leaves_params_bit_identical(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        before = params["w"].copy()
        state = AdamState.for_params(params, lr=0.1)
        adam_step(params, {"w": np.zeros(3)}, state)
        assert state.step == 1
        np.testing.assert_array_equal(params["w"], before)

    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([0.0])}
        state = AdamState.for_params(params, lr=1e-3)
        adam_step(params, {"w": np.array([0.37])}, state)
        # bias-corrected first step: lr * g / (|g| + eps')
        assert math.isclose(params["w"][0], -1e-3, rel_tol=1e-4)

    def test_descends_quadratic(self):
        # independent recurrence for f(w) = w^2 starting at w = 1
        def analytic(steps, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
            w, m, v = 1.0, 0.0, 0.0
            trace = [w * w]
            for t in range(1, steps + 1):
                g = 2 * w
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
                trace.append(w * w)
            return w, trace

        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params, lr=0.1)
        losses = [1.0]
        for _ in range(2):
            adam_step(params, {"w": 2 * params["w"]}, state)
            losses.append(float(params["w"][0] ** 2))
        w_ref, trace = analytic(2, lr=0.1)
        assert losses[2] < losses[1] < losses[0]
        np.testing.assert_allclose(losses, trace, rtol=1e-10)
        assert math.isclose(params["w"][0], w_ref, rel_tol=1e-10)

    def test_deterministic(self):
        def run():
            params = {"w": np.linspace(-1, 1, 7)}
            state = AdamState.for_params(params, lr=0.01)
            for i in range(5):
                adam_step(params, {"w": np.sin(params["w"] + i)}, state)
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_names_parameter_and_mutates_nothing(self):
        params = {"a": np.array([1.0, -2.0]), "b": np.array([[0.5, 0.25]])}
        state = AdamState.for_params(params, lr=0.1)
        adam_step(params, {"a": np.array([0.3, -0.1]), "b": np.array([[1.0, 2.0]])},
                  state)
        snapshot = [{k: v.tobytes() for k, v in d.items()}
                    for d in (params, state.m, state.v)]
        with pytest.raises(NumericError, match="'b'"):
            adam_step(params, {"a": np.array([0.2, 0.4]),
                               "b": np.array([[np.nan, 1.0]])}, state)
        assert state.step == 1
        assert [{k: v.tobytes() for k, v in d.items()}
                for d in (params, state.m, state.v)] == snapshot

    def test_shape_mismatch_names_parameter(self):
        params = {"emb": np.zeros((2, 3))}
        state = AdamState.for_params(params)
        with pytest.raises(DataError, match="emb"):
            adam_step(params, {"emb": np.zeros((3, 2))}, state)


# Odd shapes, an empty and a 0-d tensor, over more than two chunks in float32.
FLAT_SHAPES = {"emb": (257, 301), "bias": (13,), "empty": (0, 4), "scalar": (),
               "cube": (3, 5, 7), "long": (70001,), "gain": (1,)}


def _odd_params():
    rng = np.random.default_rng(8)
    return {k: rng.normal(size=s).astype(np.float32) for k, s in FLAT_SHAPES.items()}


def _snapshot(params, state):
    return ([{k: v.tobytes() for k, v in d.items()} for d in (params, state.m, state.v)],
            state.step)


class TestFlatAdam:
    """The flat, chunked optimizer against the per-tensor one it replaced."""

    def test_bit_equal_to_per_tensor_oracle_over_five_steps(self):
        params = _odd_params()
        assert sum(p.size for p in params.values()) > 2 * numerics._CHUNK
        ref = {k: p.copy() for k, p in params.items()}
        state = AdamState.for_params(params, lr=3e-3)
        ref_state = AdamState(lr=3e-3, m={k: np.zeros_like(p) for k, p in ref.items()},
                              v={k: np.zeros_like(p) for k, p in ref.items()})
        rng = np.random.default_rng(9)
        for step in range(5):
            grads = {k: rng.normal(scale=10.0 ** (step - 2), size=p.shape).astype(np.float32)
                     for k, p in ref.items()}
            grads["gain"][:] = 0.0  # zero gradient, zero moments: bit-identical
            adam_step(params, grads, state)
            adam_step_per_tensor(ref, grads, ref_state)
        assert state.step == ref_state.step == 5
        for mine, theirs in ((params, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
            for k in FLAT_SHAPES:
                assert mine[k].dtype == np.float32 and mine[k].shape == FLAT_SHAPES[k]
                assert mine[k].tobytes() == theirs[k].tobytes(), k
        assert params["gain"].tobytes() == _odd_params()["gain"].tobytes()

    def test_for_params_leaves_views_of_one_buffer(self):
        params = _odd_params()
        originals = {k: p for k, p in params.items()}
        state = AdamState.for_params(params)
        base = params["emb"].base
        assert base is not None
        for k, p in params.items():
            assert p is not originals[k], k
            assert p.size == 0 or np.shares_memory(p, base), k
            np.testing.assert_array_equal(p, originals[k])
        held = params["long"]
        adam_step(params, {k: np.ones_like(p) for k, p in params.items()}, state)
        assert held is params["long"]  # updated in place, through the view
        np.testing.assert_array_less(held, originals["long"])
        np.testing.assert_array_equal(originals["emb"], _odd_params()["emb"])

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(DataError, match="mix dtypes"):
            AdamState.for_params({"a": np.zeros(2), "b": np.zeros(2, np.float32)})

    def test_missing_gradient_names_parameter(self):
        params = _odd_params()
        state = AdamState.for_params(params)
        grads = {k: np.zeros_like(p) for k, p in params.items() if k != "cube"}
        before = _snapshot(params, state)
        with pytest.raises(DataError, match="no gradient for parameter 'cube'"):
            adam_step(params, grads, state)
        assert _snapshot(params, state) == before

    @pytest.mark.parametrize("how", ["copied", "replaced", "added", "removed"])
    def test_dict_not_prepared_names_parameter(self, how):
        params = _odd_params()
        state = AdamState.for_params(params)
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        if how == "copied":
            params = {k: p.copy() for k, p in params.items()}
        elif how == "replaced":
            params["bias"] = params["bias"].copy()
        elif how == "added":
            params["bias2"] = grads["bias2"] = np.zeros(3, np.float32)
        else:
            del params["bias"]
        with pytest.raises(DataError, match="'bias|'emb"):
            adam_step(params, grads, state)
        assert state.step == 0

    def test_nan_in_last_chunk_names_parameter_and_mutates_nothing(self):
        params = _odd_params()
        state = AdamState.for_params(params, lr=0.1)
        grads = {k: np.full_like(p, 0.5) for k, p in params.items()}
        adam_step(params, grads, state)
        before = _snapshot(params, state)
        last = list(params)[-1]  # "gain", the last element of the last chunk
        grads[last][-1] = np.nan
        with pytest.raises(NumericError, match=f"'{last}'"):
            adam_step(params, grads, state)
        assert _snapshot(params, state) == before


class TestGradCheck:
    def test_quadratic_bowl(self):
        params = {"w": np.array([0.3, -1.2, 2.0])}

        def fn(pt):
            return (pt["w"] * pt["w"]).sum()

        err = grad_check(fn, params, samples=30, h=1e-4,
                         rng=np.random.default_rng(0))
        assert err < 1e-8

    def test_transformer_block_toy_config(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, ffn_hidden=16,
                          max_seq_len=8, vocab_size=12, entity_count=2,
                          entity_dim=8, variant="dual")
        params = init_params(cfg, seed=0, dtype=np.float64)
        ids = np.array([[1, 5, 6, 7, 2]])
        segs = np.zeros_like(ids)

        def fn(pt):
            hidden = encode_tensors(pt, cfg, ids, segs)
            return (hidden * hidden).mean()

        err = grad_check(fn, params.tensors, samples=150, h=1e-5,
                         rng=np.random.default_rng(1))
        assert err < 1e-4

    def test_detects_corrupted_gradient(self):
        params = {"w": np.array([0.5, 1.5])}

        def fn(pt):
            return (pt["w"] * pt["w"]).sum()

        _, grads = value_and_grads(fn, params)
        grads["w"][0] *= 2.0
        err = grad_check(fn, params, samples=40, h=1e-4,
                         rng=np.random.default_rng(2), analytic=grads)
        assert err > 0.1

    def test_non_finite_loss_raises(self):
        params = {"w": np.array([1.0])}

        def fn(pt):
            return (pt["w"] * np.inf).sum()

        with pytest.raises(NumericError):
            grad_check(fn, params, samples=4, h=1e-6)
