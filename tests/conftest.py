import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from textent import autodiff
from textent.encoder import ModelConfig, flat_gather
from textent.evaluation import rank_items
from textent.finetune import (_draw_negatives, _encode_tags, _negative_pool,
                              predict_tag_scores)
from textent.synthetic import SyntheticWorldSpec, generate_synthetic

# ``tools/recipe.py``, the acceptance recipe, is imported as ``recipe``.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

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


def read_checkpoint_file(directory):
    """The JSON header and the data bytes of ``directory/model.safetensors``,
    split without textent's reader so that a test can edit either."""
    raw = (Path(directory) / "model.safetensors").read_bytes()
    size = int.from_bytes(raw[:8], "little")
    return json.loads(raw[8:8 + size]), raw[8 + size:]


def write_checkpoint_file(directory, header, data: bytes) -> None:
    """``directory/model.safetensors`` holding ``header`` (a JSON value, or
    the raw bytes of one) and ``data``."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    (Path(directory) / "model.safetensors").write_bytes(
        len(head).to_bytes(8, "little") + head + data)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def render_example(example, vocab):
    """Sentence text for a corpus example (UNK renders as its marker)."""
    return " ".join(vocab.id_to_token[t] for t in example.tokens)


def sample_negatives(entity_id, tag_vocab, positives, rate, rng):
    """One entity's negatives with its pool built on the step: the reference
    for the pools ``finetune._finetune_plan`` builds once per run."""
    pool, count = _negative_pool(entity_id, tag_vocab, positives, rate)
    return _draw_negatives(pool, count, rng) if pool else []


def predict_tags(params, vocab, entity_id, tags):
    """``predict_tag_scores`` of one entity, with ``tags`` encoded for it alone."""
    return predict_tag_scores(params, vocab, entity_id, tags,
                              encoded=_encode_tags(params, vocab, tags))


def overlap_oracle_rank(attributes, query_words):
    """Ground-truth ranking by attribute overlap with the query words."""
    words = set(query_words)
    ids = sorted(attributes)
    return rank_items(ids, [float(len(words & set(attributes[e]))) for e in ids])


# -- independent brute-force metric oracles ----------------------------------------
#
# Written from the metric definitions, not from ``textent.evaluation``; the
# metric tests and acceptance criterion 2 compare the library against them.


def oracle_precision(labels, k):
    top = labels[:k]
    return sum(top) / len(top) if top else 0.0


def oracle_dcg(rels, k):
    return sum(r / math.log2(i + 2) for i, r in enumerate(rels[:k]))


def oracle_ndcg(rels, k):
    best = oracle_dcg(sorted(rels, reverse=True), k)
    return oracle_dcg(rels, k) / best if best > 0 else 0.0


def oracle_ap(labels):
    hits, acc = 0, 0.0
    for rank, l in enumerate(labels, start=1):
        if l:
            hits += 1
            acc += sum(labels[:rank]) / rank
    return acc / hits if hits else 0.0


def oracle_auc(scores, labels):
    pairs = wins = 0
    for i, j in itertools.product(range(len(scores)), repeat=2):
        if labels[i] == 1 and labels[j] == 0:
            pairs += 1
            if scores[i] > scores[j]:
                wins += 1
            elif scores[i] == scores[j]:
                wins += 0.5
    return wins / pairs if pairs else float("nan")


def oracle_rr(ranked, relevant):
    for rank, item in enumerate(ranked, start=1):
        if item in relevant:
            return 1.0 / rank
    return 0.0


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


# -- the per-tensor optimizer the flat one replaces --------------------------------


def adam_step_per_tensor(params, grads, state):
    """Adam one tensor at a time, with ``state.m``/``state.v`` as plain dicts.

    The optimizer before it moved to flat buffers, kept as the oracle that
    ``numerics.adam_step`` must match bit for bit: the same 14 in-place
    operations in the same order, per tensor instead of per chunk.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        s1, s2 = np.empty_like(p), np.empty_like(p)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=s1)
        v *= state.beta2
        np.multiply(g, g, out=s2)
        s2 *= 1.0 - state.beta2
        v += s2
        np.divide(m, c1, out=s1)
        s1 *= state.lr
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += state.eps
        s1 /= s2
        p -= s1


# -- the composed graph the fused nodes replace ------------------------------------
#
# The encoder and heads run ``autodiff.linear`` and ``autodiff.attention``.
# These chains build the same model from the elementary ops (a bias-free
# ``linear`` then a bias add, batched matmul, reshape, transpose, scale, mask
# add, softmax), in the same order; ``tests/test_encoder.py`` pins the fused
# graph to them bit for bit.


def softmax(a, axis=-1):
    """Softmax node with its own backward; the fused attention's reference."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        autodiff._accum(a, out_data * (g - inner), owned=True)

    return autodiff._node(out_data, (a,), backward)


def batched_matmul(a, b):
    """``a @ b`` over equal batch axes, with its own backward; the composed
    attention's products (``autodiff.linear`` takes a 2-D weight)."""
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            autodiff._accum(a, g @ np.swapaxes(b.data, -1, -2), owned=True)
        if b.requires_grad:
            autodiff._accum(b, np.swapaxes(a.data, -1, -2) @ g, owned=True)

    return autodiff._node(out_data, (a, b), backward)


def composed_linear(x, w, b):
    return autodiff.linear(x, w) + b


def composed_attention(q, k, v, heads, bias):
    B, L, H = q.shape
    hd = H // heads

    def split(t):
        return t.reshape(B, L, heads, hd).transpose(0, 2, 1, 3)

    scores = batched_matmul(split(q), split(k).transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
    if bias is not None:
        scores = scores + autodiff.constant(bias)
    probs = softmax(scores, axis=-1)
    return batched_matmul(probs, split(v)).transpose(0, 2, 1, 3).reshape(B, L, H)


def encode_tensors_composed(pt, config, input_ids, segment_ids, pad_mask=None, read=None):
    """``encoder.encode_tensors`` with every fused node replaced by its chain;
    ``read`` gathers at the same point of the last layer."""
    B, L = np.shape(input_ids)
    x = pt["token_emb"][input_ids] + pt["pos_emb"][:L] + pt["seg_emb"][segment_ids]
    x = autodiff.layer_norm(x, pt["emb_ln_g"], pt["emb_ln_b"])
    if read is not None and config.layers == 0:
        return flat_gather(x, *read)
    bias = None
    if pad_mask is not None:
        bias = np.where(pad_mask, 0.0, -1e9).astype(x.dtype).reshape(B, 1, 1, L)
    for i in range(config.layers):
        p = {k[len(f"layer{i}."):]: t for k, t in pt.items() if k.startswith(f"layer{i}.")}
        q, k, v = (composed_linear(x, p[f"attn_{n}_w"], p[f"attn_{n}_b"]) for n in "qkv")
        ctx = composed_attention(q, k, v, config.heads, bias)
        if read is not None and i == config.layers - 1:
            ctx, x = flat_gather(ctx, *read), flat_gather(x, *read)
        attn_out = composed_linear(ctx, p["attn_o_w"], p["attn_o_b"])
        x = autodiff.layer_norm(x + attn_out, p["attn_ln_g"], p["attn_ln_b"])
        inner = autodiff.gelu(composed_linear(x, p["ffn_w1"], p["ffn_b1"]))
        ffn_out = composed_linear(inner, p["ffn_w2"], p["ffn_b2"])
        x = autodiff.layer_norm(x + ffn_out, p["ffn_ln_g"], p["ffn_ln_b"])
    return x


def mlm_head_composed(pt, h, tokens=None):
    t = autodiff.gelu(composed_linear(h, pt["mlm_dense_w"], pt["mlm_dense_b"]))
    t = autodiff.layer_norm(t, pt["mlm_ln_g"], pt["mlm_ln_b"])
    w, b = pt["token_emb"], pt["mlm_out_b"]
    if tokens is not None:
        w, b = w[tokens], b[tokens]
    return composed_linear(t, w.transpose(1, 0), b)


def hybrid_head_composed(pt, h, entity_rows):
    joined = autodiff.concat([h, pt["entity_table"][entity_rows]], axis=-1)
    t = autodiff.gelu(composed_linear(joined, pt["hyb_dense_w"], pt["hyb_dense_b"]))
    t = autodiff.layer_norm(t, pt["hyb_ln_g"], pt["hyb_ln_b"])
    return composed_linear(t, pt["hyb_out_w"], pt["hyb_out_b"])
