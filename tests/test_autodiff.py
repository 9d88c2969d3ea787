"""Per-op correctness of the reverse-mode graph against finite differences."""

import numpy as np
import pytest
from scipy.special import erf

from textent import autodiff
from textent.numerics import grad_check

from conftest import composed_attention, gelu_ref, softmax


def _check(loss_fn, params, samples=40, h=1e-6, seed=0):
    err = grad_check(loss_fn, params, samples=samples, h=h,
                     rng=np.random.default_rng(seed))
    assert err < 1e-4, f"max relative gradient error {err:.3e}"


def _rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


def test_add_mul_broadcast_grads():
    params = {"a": _rand((3, 4), 1), "b": _rand((4,), 2), "c": _rand((3, 1), 3)}

    def fn(pt):
        return ((pt["a"] + pt["b"]) * pt["c"] * pt["a"]).sum()

    _check(fn, params)


def test_matmul_grads():
    params = {"x": _rand((3, 4), 1), "w": _rand((4, 5), 2)}

    def fn(pt):
        y = pt["x"] @ pt["w"]
        z = y @ y.transpose(1, 0)       # one node as both operands
        return (z * z).mean()

    _check(fn, params)


@pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 4)])
@pytest.mark.parametrize("trained", ["x", "w"])
def test_dense_grads_with_one_operand_trained(shape, trained):
    data = {"x": _rand(shape, 14), "w": _rand((4, 5), 15)}
    frozen = "w" if trained == "x" else "x"
    const = autodiff.constant(data[frozen])

    def fn(pt):
        operands = {trained: pt[trained], frozen: const}
        out = autodiff.gelu(autodiff.linear(operands["x"], operands["w"]))
        return (out * out).mean()

    _check(fn, {trained: data[trained]})
    leaf = autodiff.parameter(data[trained])
    fn({trained: leaf}).backward()
    assert const.grad is None and leaf.grad.shape == leaf.data.shape


def test_dense_matches_batched_matmul_float32():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(6, 9, 32)).astype(np.float32)
    w = rng.normal(size=(32, 48)).astype(np.float32)
    g = rng.normal(size=(6, 9, 48)).astype(np.float32)
    xt, wt = autodiff.parameter(x), autodiff.parameter(w)
    out = autodiff.linear(xt, wt)
    out.backward(g)
    assert out.data.dtype == xt.grad.dtype == wt.grad.dtype == np.float32
    np.testing.assert_allclose(out.data, np.matmul(x, w), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(xt.grad, np.matmul(g, w.T), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(wt.grad, np.matmul(x.transpose(0, 2, 1), g).sum(axis=0),
                               rtol=1e-5, atol=1e-4)


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4), (2, 2, 3, 4)])
@pytest.mark.parametrize("bias, frozen", [(True, None), (True, "x"), (True, "w"),
                                          (True, "b"), (False, None), (False, "x"),
                                          (False, "w")])
def test_linear_grads(shape, bias, frozen):
    data = {"x": _rand(shape, 20), "w": _rand((4, 3), 21), "b": _rand((3,), 22)}
    if not bias:
        del data["b"]
    consts = {frozen: autodiff.constant(data.pop(frozen))} if frozen else {}

    def fn(pt):
        t = {**pt, **consts}
        out = autodiff.linear(t["x"], t["w"], t.get("b"))
        return (autodiff.gelu(out) * out).mean()

    _check(fn, data)
    leaves = {k: autodiff.parameter(v) for k, v in data.items()}
    fn(leaves).backward()
    for name, leaf in leaves.items():
        assert leaf.grad.shape == leaf.data.shape, name
    assert all(c.grad is None for c in consts.values())


def test_linear_matches_bias_add_float32():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4, 7, 16)).astype(np.float32)
    w = rng.normal(size=(16, 8)).astype(np.float32)
    b = rng.normal(size=(8,)).astype(np.float32)
    g = rng.normal(size=(4, 7, 8)).astype(np.float32)
    leaves = [autodiff.parameter(a) for a in (x, w, b)]
    out = autodiff.linear(*leaves)
    out.backward(g)
    np.testing.assert_array_equal(out.data, (x.reshape(-1, 16) @ w + b).reshape(4, 7, 8))
    np.testing.assert_array_equal(leaves[2].grad, g.sum(axis=(0, 1)))
    assert all(t.grad.dtype == np.float32 for t in leaves)


def _pad_bias(B, L, dtype=np.float64):
    mask = np.ones((B, L), dtype=bool)
    mask[0, -2:] = False
    mask[-1, -1] = False
    return np.where(mask, 0.0, -1e9).astype(dtype).reshape(B, 1, 1, L)


@pytest.mark.parametrize("padded", [True, False])
def test_attention_grads(padded):
    B, L, H, heads = 2, 5, 6, 3
    params = {n: _rand((B, L, H), 30 + i, 0.7) for i, n in enumerate("qkv")}
    bias = _pad_bias(B, L) if padded else None
    cot = _rand((B, L, H), 33)

    def fn(pt):
        ctx = autodiff.attention(pt["q"], pt["k"], pt["v"], heads, bias)
        return (ctx * autodiff.constant(cot)).sum() + (ctx * ctx).mean()

    _check(fn, params)


@pytest.mark.parametrize("padded", [True, False])
def test_attention_grads_with_q_k_v_drawn_from_one_x(padded):
    B, L, H, heads = 2, 4, 8, 2
    params = {"x": _rand((B, L, H), 34), "w": _rand((H, H), 35, 0.5)}
    bias = _pad_bias(B, L) if padded else None

    def fn(pt):
        x = pt["x"]
        ctx = autodiff.attention(x, autodiff.linear(x, pt["w"]), x, heads, bias)
        return (ctx * ctx).sum()

    _check(fn, params)


def test_attention_probabilities_and_padding():
    """Read through the context alone: a padded key gets no weight, so its
    value never reaches the context, and each query's weights sum to one, so
    a value that is the same at every key comes back as itself."""
    B, L, H, heads = 2, 5, 6, 3
    q, k, v = (_rand((B, L, H), 40 + i) for i in range(3))
    bias = _pad_bias(B, L)

    def ctx_of(values):
        return autodiff.attention(autodiff.constant(q), autodiff.constant(k),
                                  autodiff.constant(values), heads, bias)

    ctx = ctx_of(v)
    assert ctx.shape == (B, L, H) and not ctx.requires_grad
    moved = v.copy()
    moved[0, -2:] += 100.0  # exactly the keys _pad_bias masks
    moved[-1, -1] -= 50.0
    assert ctx_of(moved).data.tobytes() == ctx.data.tobytes()
    flat = np.broadcast_to(_rand((B, 1, H), 43), (B, L, H)).copy()
    np.testing.assert_allclose(ctx_of(flat).data, flat, rtol=1e-13)


@pytest.mark.parametrize("B, L", [(96, 14), (50, 12), (12, 6), (1, 22)],
                         ids=["pretrain", "bos-block", "finetune", "one-row"])
def test_attention_equals_the_softmax_over_numpys_row_max(B, L):
    """The fused node takes its row max its own way; the bits are those of the
    composed chain, whose softmax subtracts ``max(axis=-1)``."""
    H, heads = 64, 4
    rng = np.random.default_rng(B * L)
    q, k, v = (autodiff.constant(rng.normal(size=(B, L, H)).astype(np.float32))
               for _ in range(3))
    bias = _pad_bias(B, L, np.float32)
    ctx = autodiff.attention(q, k, v, heads, bias)
    want = composed_attention(q, k, v, heads, bias)
    assert ctx.data.tobytes() == want.data.tobytes()

def test_div_sqrt_grads():
    params = {"a": np.abs(_rand((5,), 4)) + 0.5, "b": np.abs(_rand((5,), 5)) + 0.5}

    def fn(pt):
        return (pt["b"] / pt["a"] + autodiff.sqrt(pt["a"])).sum()

    _check(fn, params)


def test_gelu_softplus_grads():
    params = {"x": _rand((4, 6), 6)}

    def fn(pt):
        return autodiff.gelu(pt["x"]).sum()

    _check(fn, params)


def test_softmax_and_log_softmax_grads():
    params = {"x": _rand((3, 5), 7)}
    target = np.array([1, 4, 0])

    def fn(pt):
        p = softmax(pt["x"], axis=-1)
        lp = autodiff.log_softmax(pt["x"] * 1.5, axis=-1)
        return (p * p).sum() + (-lp[np.arange(3), target].mean())

    _check(fn, params)


def test_layer_norm_grads():
    params = {"x": _rand((2, 3, 8), 8), "g": 1.0 + 0.1 * _rand((8,), 9),
              "b": 0.1 * _rand((8,), 10)}

    def fn(pt):
        y = autodiff.layer_norm(pt["x"], pt["g"], pt["b"])
        return (y * y).sum()

    _check(fn, params)


def test_getitem_gather_and_slice_grads():
    params = {"table": _rand((7, 4), 11)}
    idx = np.array([0, 3, 3, 6])  # repeated row exercises scatter-add

    def fn(pt):
        rows = pt["table"][idx]
        head = pt["table"][:, 0]
        return (rows * rows).sum() + head.sum()

    _check(fn, params)



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("table_shape, key", [
    ((2, 64), np.zeros((96, 13), dtype=np.int64)),     # dual's segment ids
    ((9, 16), np.full(40, 3)),                         # one entity's row, repeated
    ((9, 16), np.full(40, -2)),
    ((9, 2, 3), np.full((5, 4), 7)),
    ((9,), np.full(300, 4)),                           # one-element rows
    ((9, 1), np.full(300, 4)),
    ((9, 16), np.array([3, 3, 5, 3])),
], ids=["segments", "entity", "negative", "3d", "vector", "column", "mixed"])
@pytest.mark.parametrize("preset", [False, True], ids=["unset", "set"])
def test_gather_backward_equals_add_at(dtype, table_shape, key, preset):
    rng = np.random.default_rng(8)
    table = autodiff.parameter(rng.normal(size=table_shape).astype(dtype))
    g = (rng.normal(size=key.shape + table_shape[1:])
         * rng.lognormal(0.0, 3.0, size=key.shape + (1,) * (len(table_shape) - 1))
         ).astype(dtype)
    want = np.zeros(table_shape, dtype)
    if preset:
        want = rng.normal(size=table_shape).astype(dtype)
        table.grad = want.copy()
    np.add.at(want, key, g)
    table[key].backward(g)
    assert table.grad.dtype == dtype and table.grad.tobytes() == want.tobytes()

def test_table_gathered_twice_and_transposed_grads():
    params = {"table": _rand((7, 4), 17)}
    ids = np.array([[0, 3, 3], [6, 0, 2]])  # a [batch, seq] gather with repeats

    def fn(pt):
        rows = pt["table"][ids] + pt["table"][:3]      # token and position tables
        logits = autodiff.linear(rows, pt["table"].transpose(1, 0))  # tied output head
        return (logits * logits).mean() + rows.sum()

    _check(fn, params)


def test_concat_and_reductions_grads():
    params = {"a": _rand((3, 2), 12), "b": _rand((3, 5), 13)}

    def fn(pt):
        joined = autodiff.concat([pt["a"], pt["b"]], axis=-1)
        return joined.mean() + (joined * joined).sum(axis=-1, keepdims=True).mean()

    _check(fn, params)


def test_reduce_sum_over_an_axis_keeps_dims():
    with pytest.raises(ValueError, match="keeps its dims"):
        autodiff.parameter(np.ones((3, 2))).sum(axis=0)


def test_backward_accumulates_through_shared_nodes():
    x = autodiff.parameter(np.array([2.0, 3.0]))
    y = x * x
    z = (y + y).sum()  # y consumed twice
    z.backward()
    np.testing.assert_allclose(x.grad, 4.0 * x.data)


@pytest.mark.parametrize("reused_first", [True, False])
def test_add_parents_keep_their_own_gradients(reused_first):
    # add hands one array to both parents; a later gradient into one parent
    # must not reach the other
    x = autodiff.parameter(np.array([1.0, 2.0]))
    y = autodiff.parameter(np.array([3.0, 5.0]))
    a, b = x * 2.0, y * 3.0
    terms = [(a * 7.0).sum(), (a + b).sum()]
    (terms[0] + terms[1] if reused_first else terms[1] + terms[0]).backward()
    np.testing.assert_array_equal(x.grad, [16.0, 16.0])
    np.testing.assert_array_equal(y.grad, [3.0, 3.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_owned_first_gradient_takes_a_later_branch():
    # w's first gradient is the GEMM result the first linear hands over; the
    # second branch then adds into that array in place
    rng = np.random.default_rng(50)
    x = autodiff.parameter(rng.normal(size=(3, 4)))
    w = autodiff.parameter(rng.normal(size=(4, 5)))
    y1 = autodiff.linear(x, w)
    y2 = autodiff.linear(autodiff.gelu(x), w)
    ((y1 * y1).sum() + y2.sum()).backward()
    ones = np.ones((3, 5))
    g1 = 2.0 * y1.data
    gelu_grad = (0.5 * (1.0 + erf(x.data / np.sqrt(2.0)))
                 + x.data * np.exp(-0.5 * x.data ** 2) / np.sqrt(2.0 * np.pi))
    np.testing.assert_allclose(w.grad, x.data.T @ g1 + gelu_ref(x.data).T @ ones)
    np.testing.assert_allclose(x.grad, g1 @ w.data.T + gelu_grad * (ones @ w.data.T))
    # the nodes on the way kept their own gradients
    np.testing.assert_array_equal(y2.grad, ones)
    np.testing.assert_allclose(y1.grad, g1)
    assert not np.shares_memory(w.grad, x.grad)


def test_constants_collect_no_gradient():
    c = autodiff.constant(np.ones(3))
    x = autodiff.parameter(np.ones(3))
    (x * c).sum().backward()
    assert c.grad is None
    np.testing.assert_allclose(x.grad, 1.0)


def test_dtype_preserved_through_graph():
    x = autodiff.parameter(np.ones((2, 2), dtype=np.float32))
    out = autodiff.gelu(x * 2.0 + 1.0).sum()
    assert out.data.dtype == np.float32
    out.backward()
    assert x.grad.dtype == np.float32


def test_matmul_rejects_vectors():
    """``@`` is ``linear``: a vector operand is its ``ValueError``, and an
    activation with batch axes times a weight is its product and gradients."""
    w = autodiff.parameter(_rand((3, 3), 1))
    vec = autodiff.parameter(np.ones(3))
    for left, right in ((vec, w), (w, vec)):
        with pytest.raises(ValueError, match="linear"):
            left @ right
    a = _rand((4, 5, 3), 2)
    results = []
    for product in (lambda x: x @ w, lambda x: autodiff.linear(x, w)):
        x = autodiff.parameter(a)
        w.grad = None
        out = product(x)
        (out * out).sum().backward()
        results.append((out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()))
    assert results[0] == results[1]
