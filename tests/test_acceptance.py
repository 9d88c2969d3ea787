"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

Criteria 4-6 train on a committed synthetic world (100 entities, 20
attributes each, 50 sentences per entity, noise 0.3, seed 7) with committed
training seeds. The values of the first run that passed their thresholds,
for training seeds 11-13 and two BLAS kernels, are recorded in CHANGES.md
in the entry "Tag scoring reads what pretraining learned". Everything else
is exact or oracle-checked.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from conftest import record_criterion, mixed_examples, render_example
from textent.encoder import ModelConfig, init_params
from textent.evaluation import (EvalConfig, TfidfIndex, average_precision,
                                evaluate_retrieval, evaluate_tag_scores, mrr,
                                ndcg_at_k, precision_at_k, recall_at_k, roc_auc,
                                zero_shot_rank)
from textent.finetune import (FinetuneConfig, run_finetune, score_tag_matrix,
                              split_holdout, tag_loss)
from textent.numerics import grad_check, value_and_grads
from textent.objectives import (TrainingConfig, build_batch, dual_graph,
                                full_graph, hybrid_graph, mask_tokens, pretrain,
                                pretrain_loss)
from textent.encoder import mlm_logits
from textent.synthetic import SyntheticWorldSpec, generate_synthetic
from textent.text import CLS, MASK, PAD, SEP, tokenize

# -- committed reference run -------------------------------------------------------

WORLD_SEED = 7
TRAIN_SEED = 11
FT_SEED = 5
PRETRAIN_STEPS = 2000
PRETRAIN_BATCH = 96
FULL_ENTITY_MASK_RATE = 0.8
FT_EPOCHS = 8


@pytest.fixture(scope="module")
def world():
    return generate_synthetic(SyntheticWorldSpec(seed=WORLD_SEED))


@pytest.fixture(scope="module")
def pretrained(world):
    """2000-step pretraining per variant on the committed world."""
    out = {}
    timings = {}
    for variant in ("dual", "hybrid", "full"):
        cfg = ModelConfig.for_vocab(world.vocab, variant)
        train = TrainingConfig(
            steps=PRETRAIN_STEPS, seed=TRAIN_SEED, batch_size=PRETRAIN_BATCH,
            entity_mask_rate=FULL_ENTITY_MASK_RATE if variant == "full" else 0.5,
            log_every=0)
        t0 = time.time()
        params, _ = pretrain(world.corpus, world.vocab, cfg, train)
        timings[variant] = time.time() - t0
        out[variant] = params
    out["_timings"] = timings
    return out


@pytest.fixture(scope="module")
def closed_split(world):
    rng = np.random.default_rng(np.random.SeedSequence((FT_SEED, 1)))
    return split_holdout(world.votes.entity_ids(), 0.2, rng)


@pytest.fixture(scope="module")
def finetuned_closed(pretrained, world, closed_split):
    """Closed-protocol fine-tune of every variant + held-out-entity metrics."""
    train_entities, held_entities = closed_split
    tags = world.votes.tags
    results = {}
    for variant in ("dual", "hybrid", "full"):
        cfg = FinetuneConfig(epochs=FT_EPOCHS, seed=FT_SEED)
        tuned = run_finetune(pretrained[variant], world.votes, cfg, world.vocab,
                             train_entities)
        scores = score_tag_matrix(tuned.params, world.vocab, held_entities, tags)
        rows = evaluate_tag_scores(scores, world.votes, EvalConfig(precision_ks=(1,)),
                                   held_entities, tags)
        results[variant] = {r["metric"]: r["value"] for r in rows}
    return results


# -- criterion 1: gradient integrity ------------------------------------------------


def test_criterion_1_gradient_integrity(small_world):
    t0 = time.time()
    vocab = small_world.vocab
    rng0 = np.random.default_rng(33)
    examples = mixed_examples(small_world, 6)
    errors = {}

    def check(name, cfg, loss_fn):
        params = init_params(cfg, seed=5, dtype=np.float64)
        errors[name] = grad_check(loss_fn(params), params.tensors, samples=200,
                                  h=1e-4, rng=np.random.default_rng(1))

    toy = dict(layers=2, heads=4, hidden=64, ffn_hidden=256, entity_dim=64)
    cfg_dual = ModelConfig.for_vocab(vocab, "dual", **toy)
    cfg_full = ModelConfig.for_vocab(vocab, "full", **toy)
    cfg_hyb = ModelConfig.for_vocab(vocab, "hybrid", **toy)
    train = TrainingConfig(score_scale=4.0, loss_mix=0.7)

    batch_plain = build_batch(examples, vocab, cfg_dual)
    check("dual", cfg_dual,
          lambda p: lambda pt: dual_graph(pt, p.config, batch_plain, train)[0])

    batch_full = build_batch(examples, vocab, cfg_full, rng=rng0,
                             word_mask_rate=0.4, entity_mask_rate=0.5)
    check("full", cfg_full,
          lambda p: lambda pt: full_graph(pt, p.config, batch_full, train)[0])

    batch_hyb = build_batch(examples, vocab, cfg_hyb, rng=rng0, word_mask_rate=0.4)
    check("hybrid", cfg_hyb,
          lambda p: lambda pt: hybrid_graph(pt, p.config, batch_hyb, train)[0])

    # the fine-tuning losses: tag softmax over dual's cosine, hybrid's
    # masked-word head and full's entity posterior
    tag_tokens = [tokenize(t, vocab) for t in small_world.votes.tags[:6]]
    check("finetune_softmax", cfg_dual,
          lambda p: lambda pt: tag_loss(pt, p.config, tag_tokens, 1, 2,
                                        np.array([1.0, 0.5]), 4.0))

    tags = small_world.votes.tags
    phrases = tags[:4] + [f"{tags[4]} {tags[5]}", f"{tags[6]} unseen {tags[7]}"]
    phrase_tokens = [tokenize(t, vocab) for t in phrases]
    check("finetune_head", cfg_hyb,
          lambda p: lambda pt: tag_loss(pt, p.config, phrase_tokens, 1, 2,
                                        np.array([1.0, 0.5]), 4.0))
    check("finetune_posterior", cfg_full,
          lambda p: lambda pt: tag_loss(pt, p.config, phrase_tokens, 3, 2,
                                        np.array([1.3, 0.7]), 4.0))

    elapsed = time.time() - t0
    ok = all(err < 1e-4 for err in errors.values()) and elapsed < 120
    detail = " ".join(f"{k}={v:.2e}" for k, v in errors.items())
    record_criterion(ok, f"criterion 1: gradient integrity ({detail}; "
                         f"{elapsed:.0f}s < 120s)")
    assert elapsed < 120
    for name, err in errors.items():
        assert err < 1e-4, f"{name} gradient error {err:.3e}"


# -- criterion 2: metric oracle equivalence ------------------------------------------


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
    pairs = wins = 0.0
    for i in range(len(scores)):
        for j in range(len(scores)):
            if labels[i] == 1 and labels[j] == 0:
                pairs += 1
                wins += 1.0 if scores[i] > scores[j] else (0.5 if scores[i] == scores[j] else 0.0)
    return wins / pairs if pairs else float("nan")


def oracle_rr(ranked, relevant):
    for rank, item in enumerate(ranked, start=1):
        if item in relevant:
            return 1.0 / rank
    return 0.0


def test_criterion_2_metric_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    tie_scores = [0.9, 0.5, 0.5, 0.3, 0.8, 0.1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for L in range(1, 7):
            items = [f"i{j}" for j in range(L)]
            for labels in itertools.product([0, 1], repeat=L):
                labels = list(labels)
                for k in range(1, L + 1):
                    worst = max(worst, abs(precision_at_k(labels, k)
                                           - oracle_precision(labels, k)))
                    relevant = {items[j] for j in range(L) if labels[j]}
                    got = recall_at_k(items, relevant, k)
                    want = (len({i for i in items[:k]} & relevant) / len(relevant)
                            if relevant else float("nan"))
                    if relevant:
                        worst = max(worst, abs(got - want))
                worst = max(worst, abs(average_precision(labels) - oracle_ap(labels)))
                relevant = {items[j] for j in range(L) if labels[j]}
                if relevant:
                    worst = max(worst, abs(mrr([items], [relevant])
                                           - oracle_rr(items, relevant)))
                scores = tie_scores[:L]
                got_auc = roc_auc(scores, labels)
                want_auc = oracle_auc(scores, labels)
                if not math.isnan(want_auc):
                    worst = max(worst, abs(got_auc - want_auc))
            for rels in itertools.product([0, 1, 2, 3], repeat=L):
                for k in (1, max(1, L // 2), L):
                    worst = max(worst, abs(ndcg_at_k(list(rels), k)
                                           - oracle_ndcg(list(rels), k)))
    elapsed = time.time() - t0
    ok = worst <= 1e-9
    record_criterion(ok, f"criterion 2: metric oracle equivalence "
                         f"(max |diff| {worst:.2e} <= 1e-9; {elapsed:.1f}s)")
    assert ok


# -- criterion 3: loss identities ----------------------------------------------------


def test_criterion_3_loss_identities(small_world, tiny_configs):
    vocab = small_world.vocab
    checks = {}

    # hybrid == dual when the word-mask rate is 0 (exact)
    cfg_h = tiny_configs["hybrid"]
    params_h = init_params(cfg_h, seed=1)
    batch = build_batch(mixed_examples(small_world, 5), vocab, cfg_h)
    train = TrainingConfig()
    checks["hybrid==dual"] = (
        pretrain_loss(batch, params_h, train).value
        == value_and_grads(lambda pt: dual_graph(pt, cfg_h, batch, train)[0],
                           params_h.tensors)[0])

    # full with loss_mix 0 equals the entity-token cross-entropy (exact)
    cfg_f = tiny_configs["full"]
    params_f = init_params(cfg_f, seed=2, dtype=np.float64)
    rng = np.random.default_rng(3)
    batch_f = build_batch(mixed_examples(small_world, 5), vocab, cfg_f, rng=rng,
                          word_mask_rate=0.3, entity_mask_rate=1.0)
    out = pretrain_loss(batch_f, params_f, TrainingConfig(loss_mix=0.0))
    checks["full-lam0"] = out.value == out.entity_term
    # and the entity term matches an independent exp-normalize of realized logits
    ces = []
    for i in range(batch_f.size):
        row = batch_f.input_ids[i][batch_f.pad_mask[i]].tolist()
        segs = batch_f.segment_ids[i][batch_f.pad_mask[i]].tolist()
        from textent.encoder import encode
        hidden = encode(row, segs, params_f).hidden_states
        logits = mlm_logits(hidden, [1], params_f)[0]
        target = cfg_f.entity_token_id(int(batch_f.entity_rows[i]))
        shifted = logits - logits.max()
        ces.append(float(-(shifted[target] - np.log(np.exp(shifted).sum()))))
    checks["full-lam0-oracle"] = abs(out.value - np.mean(ces)) < 1e-9

    # a batch of one is a certainty (exact zero)
    cfg_d = tiny_configs["dual"]
    params_d = init_params(cfg_d, seed=4)
    single = build_batch(small_world.corpus[:1], vocab, cfg_d)
    checks["b1-zero"] = pretrain_loss(single, params_d, train).value == 0.0

    # identical scores over B distinct entities: log B within 1e-6
    params_u = init_params(cfg_d, seed=5, dtype=np.float64)
    params_u.tensors["entity_table"][:] = params_u.tensors["entity_table"][0]
    batch_u = build_batch(mixed_examples(small_world, 4), vocab, cfg_d)
    checks["uniform-logB"] = abs(pretrain_loss(batch_u, params_u, train).value
                                 - math.log(4)) < 1e-6

    ok = all(checks.values())
    record_criterion(ok, "criterion 3: loss identities ("
                     + " ".join(f"{k}={'ok' if v else 'FAIL'}"
                                for k, v in checks.items()) + ")")
    assert ok, checks


# -- criterion 4: zero-shot retrieval -------------------------------------------------


def test_criterion_4_zero_shot_retrieval(world, pretrained):
    t0 = time.time()
    base = sum(1.0 / r for r in range(1, world.spec.entities + 1)) / world.spec.entities
    values = {}
    for variant in ("dual", "hybrid"):
        ranked = [zero_shot_rank(pretrained[variant], world.vocab, q.text)
                  for q in world.queries]
        rows = evaluate_retrieval(ranked, world.queries, EvalConfig())
        values[variant] = next(r["value"] for r in rows if r["metric"] == "mrr")
    elapsed = time.time() - t0 + sum(pretrained["_timings"][v]
                                     for v in ("dual", "hybrid"))
    ok = (values["dual"] >= 10 * base and values["hybrid"] >= 10 * base
          and values["hybrid"] >= values["dual"] - 0.02 and elapsed < 900)
    record_criterion(ok, f"criterion 4: zero-shot MRR dual {values['dual']:.3f}, "
                         f"hybrid {values['hybrid']:.3f} (floor {10 * base:.3f}, "
                         f"hybrid >= dual-0.02; {elapsed:.0f}s < 900s)")
    assert values["dual"] >= 10 * base
    assert values["hybrid"] >= 10 * base
    assert values["hybrid"] >= values["dual"] - 0.02
    assert elapsed < 900


# -- criterion 5: supervised tag prediction -------------------------------------------


def test_criterion_5_supervised_tag_prediction(world, closed_split, finetuned_closed):
    _, held_entities = closed_split
    tags = world.votes.tags
    index = TfidfIndex(world.corpus, world.vocab)
    tfidf_scores = {e: index.tag_scores(e, tags) for e in held_entities}
    rows = evaluate_tag_scores(tfidf_scores, world.votes, EvalConfig(precision_ks=(1,)),
                               held_entities, tags)
    tfidf_map = next(r["value"] for r in rows if r["metric"] == "map")

    ok = True
    parts = [f"tfidf MAP {tfidf_map:.3f}"]
    for variant in ("dual", "hybrid", "full"):
        auc = finetuned_closed[variant]["auc"]
        vmap = finetuned_closed[variant]["map"]
        ok = ok and auc >= 0.9 and vmap > tfidf_map
        parts.append(f"{variant} AUC {auc:.3f} MAP {vmap:.3f}")
    summary = ", ".join(parts)
    record_criterion(ok, "criterion 5: supervised tags (" + summary
                     + "; AUC >= 0.9 and MAP > tfidf)")
    for variant in ("dual", "hybrid", "full"):
        assert finetuned_closed[variant]["auc"] >= 0.9, f"{variant} AUC: {summary}"
        assert finetuned_closed[variant]["map"] > tfidf_map, f"{variant} MAP: {summary}"


# -- criterion 6: open-vocabulary protocol --------------------------------------------


def test_criterion_6_open_vocabulary(world, pretrained, finetuned_closed):
    rng = np.random.default_rng(np.random.SeedSequence((FT_SEED, 2)))
    train_tags, held_tags = split_holdout(world.votes.tags, 0.2, rng)
    entities = world.votes.entity_ids()
    ok = True
    parts = []
    for variant in ("dual", "hybrid"):
        cfg = FinetuneConfig(epochs=FT_EPOCHS, seed=FT_SEED, protocol="open")
        tuned = run_finetune(pretrained[variant], world.votes, cfg, world.vocab,
                             allowed_tags=set(train_tags))
        assert not tuned.used_tags & set(held_tags)
        scores = score_tag_matrix(tuned.params, world.vocab, entities, held_tags)
        rows = evaluate_tag_scores(scores, world.votes, EvalConfig(precision_ks=(1,)),
                                   entities, held_tags)
        open_auc = next(r["value"] for r in rows if r["metric"] == "auc")
        closed_auc = finetuned_closed[variant]["auc"]
        ok = ok and open_auc >= closed_auc - 0.1
        parts.append(f"{variant} open {open_auc:.3f} vs closed {closed_auc:.3f}")
    record_criterion(ok, "criterion 6: open vocabulary (" + ", ".join(parts)
                     + "; within 0.1)")
    assert ok, parts


# -- criterion 7: contract suite ------------------------------------------------------


def test_criterion_7_contract_suite(small_world, tmp_path):
    from textent.text import preprocess
    from textent.evaluation import binarize

    checks = {}
    vocab = small_world.vocab

    # frozen entity embeddings, every variant
    for variant in ("dual", "full", "hybrid"):
        cfg = ModelConfig.for_vocab(vocab, variant, layers=1, heads=2, hidden=16,
                                    ffn_hidden=32, entity_dim=16)
        params, _ = pretrain(small_world.corpus, vocab, cfg,
                             TrainingConfig(batch_size=8, steps=20, seed=3,
                                            log_every=0))
        if variant == "full":
            rows = params.tensors["token_emb"][cfg.word_vocab_size:]
        else:
            rows = params.tensors["entity_table"]
        before = rows.tobytes()
        tuned = run_finetune(params, small_world.votes,
                             FinetuneConfig(epochs=1, seed=1), vocab)
        if variant == "full":
            after = tuned.params.tensors["token_emb"][cfg.word_vocab_size:].tobytes()
        else:
            after = tuned.params.tensors["entity_table"].tobytes()
        checks[f"frozen-{variant}"] = before == after

    # preprocess filter rules on constructed fixtures
    raw = [("m1", "The Movie", f"i liked the movie a lot really {i}")
           for i in range(5)]
    raw.append(("m1", "The Movie", "too short"))
    raw += [("m2", "Other", f"fine long enough review here {i}") for i in range(4)]
    examples, pvocab = preprocess(raw)
    kept_entities = {ex.entity_id for ex in examples}
    checks["filter-5-reviews"] = kept_entities == {"m1"}
    checks["filter-5-words"] = len(examples) == 5
    scrubbed = all("movie" not in render_example(ex, pvocab).split()
                   for ex in examples)
    checks["name-scrub"] = scrubbed

    # strict binarization boundary
    checks["binarize"] = (binarize(3, 2), binarize(2, 2), binarize(0, 2)) == (1, 0, 0)

    # masking never touches specials
    rng = np.random.default_rng(0)
    masked_ok = True
    for _ in range(200):
        tokens = [CLS, 7, PAD, 8, MASK, 9, SEP]
        out, positions, _ = mask_tokens(tokens, 1.0, rng)
        masked_ok = masked_ok and positions == [1, 3, 5]
        masked_ok = masked_ok and out[0] == CLS and out[2] == PAD and out[6] == SEP
    checks["mask-specials"] = masked_ok

    # seeded runs are bit-identical
    cfg = ModelConfig.for_vocab(vocab, "hybrid", layers=1, heads=2, hidden=16,
                                ffn_hidden=32, entity_dim=16)
    train = TrainingConfig(batch_size=8, steps=15, seed=77, log_every=0)
    p1, m1 = pretrain(small_world.corpus, vocab, cfg, train)
    p2, m2 = pretrain(small_world.corpus, vocab, cfg, train)
    same = m1 == m2 and all(np.array_equal(p1.tensors[k], p2.tensors[k])
                            for k in p1.tensors)
    checks["seed-determinism"] = same

    ok = all(checks.values())
    record_criterion(ok, "criterion 7: contract suite ("
                     + " ".join(f"{k}={'ok' if v else 'FAIL'}"
                                for k, v in checks.items()) + ")")
    assert ok, checks
