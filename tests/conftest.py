import numpy as np
import pytest
from scipy.special import erf

from textent import autodiff
from textent.encoder import ModelConfig
from textent.evaluation import rank_items
from textent.synthetic import SyntheticWorldSpec, generate_synthetic

# Results of the acceptance criteria, printed after the run.
CRITERIA_RESULTS: list[tuple[bool, str]] = []


def record_criterion(ok: bool, line: str) -> None:
    CRITERIA_RESULTS.append((ok, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for ok, line in CRITERIA_RESULTS:
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] {line}")


SMALL_SPEC = SyntheticWorldSpec(entities=12, attribute_vocab=40,
                                attributes_per_entity=5, sentences_per_entity=10,
                                words_per_sentence=7, noise_ratio=0.2, seed=11,
                                clusters=2)


@pytest.fixture(scope="session")
def small_world():
    return generate_synthetic(SMALL_SPEC)


@pytest.fixture(scope="session")
def tiny_configs(small_world):
    vocab = small_world.vocab
    return {v: ModelConfig.for_vocab(vocab, v, layers=2, heads=2, hidden=16,
                                     ffn_hidden=32, entity_dim=16)
            for v in ("dual", "full", "hybrid")}


def mixed_examples(world, count, offset=0):
    """Examples spread over distinct entities."""
    per_entity = world.spec.sentences_per_entity
    return [world.corpus[(i * per_entity + i + offset) % len(world.corpus)]
            for i in range(count)]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def render_example(example, vocab):
    """Sentence text for a corpus example (UNK renders as its marker)."""
    return " ".join(vocab.detokenize(t) for t in example.tokens)


def overlap_oracle_rank(attributes, query_words):
    """Ground-truth ranking by attribute overlap with the query words."""
    words = set(query_words)
    ids = sorted(attributes)
    return rank_items(ids, [float(len(words & set(attributes[e]))) for e in ids])


# -- numpy references for the heads ------------------------------------------------
#
# The library computes the heads and layer norm through the autodiff graph
# ops. These plain formulas are the independent reference the head and layer
# norm tests pin them against.


def gelu_ref(x):
    return 0.5 * x * (1.0 + erf(x * 0.7071067811865476))


def layer_norm_ref(x, gain, bias, eps=1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def mlm_logits_ref(rows, tensors):
    """Tied masked-token head: dense, GELU, layer norm, then token_emb.T."""
    t = tensors
    x = gelu_ref(rows @ t["mlm_dense_w"] + t["mlm_dense_b"])
    x = layer_norm_ref(x, t["mlm_ln_g"], t["mlm_ln_b"])
    return x @ t["token_emb"].T + t["mlm_out_b"]


def hybrid_mlm_logits_ref(rows, entity_vec, tensors):
    """Untied head over concat(hidden, entity embedding)."""
    t = tensors
    joined = np.concatenate([rows, np.tile(entity_vec, (len(rows), 1))], axis=1)
    x = gelu_ref(joined @ t["hyb_dense_w"] + t["hyb_dense_b"])
    x = layer_norm_ref(x, t["hyb_ln_g"], t["hyb_ln_b"])
    return x @ t["hyb_out_w"] + t["hyb_out_b"]


# -- the composed graph the fused nodes replace ------------------------------------
#
# The encoder and heads run ``autodiff.linear`` and ``autodiff.attention``.
# These chains build the same model from the elementary ops (matmul, bias
# add, reshape, transpose, scale, mask add, softmax), in the same order;
# ``tests/test_encoder.py`` pins the fused graph to them bit for bit.


def softmax(a, axis=-1):
    """Softmax node with its own backward; the fused attention's reference."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        autodiff._accum(a, out_data * (g - inner), owned=True)

    return autodiff._node(out_data, (a,), backward)


def composed_linear(x, w, b):
    return x @ w + b


def composed_attention(q, k, v, heads, bias):
    B, L, H = q.shape
    hd = H // heads

    def split(t):
        return t.reshape(B, L, heads, hd).transpose(0, 2, 1, 3)

    scores = (split(q) @ split(k).transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
    if bias is not None:
        scores = scores + autodiff.constant(bias)
    probs = softmax(scores, axis=-1)
    return (probs @ split(v)).transpose(0, 2, 1, 3).reshape(B, L, H)


def encode_tensors_composed(pt, config, input_ids, segment_ids, pad_mask=None):
    """``encoder.encode_tensors`` with every fused node replaced by its chain."""
    B, L = np.shape(input_ids)
    x = pt["token_emb"][input_ids] + pt["pos_emb"][:L] + pt["seg_emb"][segment_ids]
    x = autodiff.layer_norm(x, pt["emb_ln_g"], pt["emb_ln_b"])
    bias = None
    if pad_mask is not None:
        bias = np.where(pad_mask, 0.0, -1e9).astype(x.dtype).reshape(B, 1, 1, L)
    for i in range(config.layers):
        p = {k[len(f"layer{i}."):]: t for k, t in pt.items() if k.startswith(f"layer{i}.")}
        q, k, v = (composed_linear(x, p[f"attn_{n}_w"], p[f"attn_{n}_b"]) for n in "qkv")
        ctx = composed_attention(q, k, v, config.heads, bias)
        attn_out = composed_linear(ctx, p["attn_o_w"], p["attn_o_b"])
        x = autodiff.layer_norm(x + attn_out, p["attn_ln_g"], p["attn_ln_b"])
        inner = autodiff.gelu(composed_linear(x, p["ffn_w1"], p["ffn_b1"]))
        ffn_out = composed_linear(inner, p["ffn_w2"], p["ffn_b2"])
        x = autodiff.layer_norm(x + ffn_out, p["ffn_ln_g"], p["ffn_ln_b"])
    return x


def mlm_head_composed(pt, h, tokens=None):
    t = autodiff.gelu(composed_linear(h, pt["mlm_dense_w"], pt["mlm_dense_b"]))
    t = autodiff.layer_norm(t, pt["mlm_ln_g"], pt["mlm_ln_b"])
    if tokens is None:
        return t @ pt["token_emb"].transpose(1, 0) + pt["mlm_out_b"]
    return t @ pt["token_emb"][tokens].transpose(1, 0) + pt["mlm_out_b"][tokens]


def hybrid_head_composed(pt, joined):
    t = autodiff.gelu(composed_linear(joined, pt["hyb_dense_w"], pt["hyb_dense_b"]))
    t = autodiff.layer_norm(t, pt["hyb_ln_g"], pt["hyb_ln_b"])
    return composed_linear(t, pt["hyb_out_w"], pt["hyb_out_b"])
