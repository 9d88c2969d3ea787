"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

Criteria 4-6 train the acceptance recipe of ``tools/recipe.py`` on a
committed synthetic world (100 entities, 20 attributes each, 50 sentences
per entity, noise 0.3, seed 7) at training seed 11: one spawned process per
variant, each with one BLAS thread. They pass by ``recipe.criteria``'s bars
and rules, the ones ``tools/quality.py`` reports. The values of the first
run that passed their thresholds, for training seeds 11-13 and two BLAS
kernels, are recorded in CHANGES.md in the entry "Tag scoring reads what
pretraining learned". Everything else is exact or oracle-checked.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

import recipe
from conftest import (mixed_examples, oracle_ap, oracle_auc, oracle_ndcg,
                      oracle_precision, oracle_rr, record_criterion, render_example)
from textent.encoder import ModelConfig, init_params
from textent.evaluation import (average_precision, mrr, ndcg_at_k, precision_at_k,
                                recall_at_k, roc_auc)
from textent.finetune import FinetuneConfig, run_finetune, tag_loss
from textent.numerics import grad_check, value_and_grads
from textent.objectives import (TrainingConfig, build_batch, dual_graph,
                                full_graph, hybrid_graph, mask_tokens, pretrain,
                                pretrain_loss)
from textent.encoder import mlm_logits
from textent.synthetic import generate_synthetic
from textent.text import CLS, MASK, PAD, SEP, tokenize

# -- committed reference run -------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    return generate_synthetic(recipe.world_spec(tiny=False))


@pytest.fixture(scope="module")
def jobs():
    """The recipe's seed-11 job per variant, each in its own spawned process."""
    results = recipe.run_jobs((v, recipe.TRAIN_SEED) for v in recipe.VARIANTS)
    return {variant: job for (variant, _), job in results.items()}


@pytest.fixture(scope="module")
def bars(world):
    return recipe.world_bars(world)


@pytest.fixture(scope="module")
def report(jobs, bars):
    """Criteria 4-6 of the seed-11 jobs, each check with its value, bar and margin."""
    return recipe.criteria(jobs, bars)


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
                                        np.array([1.0, 0.5])))

    tags = small_world.votes.tags
    phrases = tags[:4] + [f"{tags[4]} {tags[5]}", f"{tags[6]} unseen {tags[7]}"]
    phrase_tokens = [tokenize(t, vocab) for t in phrases]
    check("finetune_head", cfg_hyb,
          lambda p: lambda pt: tag_loss(pt, p.config, phrase_tokens, 1, 2,
                                        np.array([1.0, 0.5])))
    check("finetune_posterior", cfg_full,
          lambda p: lambda pt: tag_loss(pt, p.config, phrase_tokens, 3, 2,
                                        np.array([1.3, 0.7])))

    elapsed = time.time() - t0
    ok = all(err < 1e-4 for err in errors.values()) and elapsed < 120
    detail = " ".join(f"{k}={v:.2e}" for k, v in errors.items())
    record_criterion(ok, f"criterion 1: gradient integrity ({detail}; "
                         f"{elapsed:.0f}s < 120s)")
    assert elapsed < 120
    for name, err in errors.items():
        assert err < 1e-4, f"{name} gradient error {err:.3e}"


# -- criterion 2: metric oracle equivalence ------------------------------------------


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


def test_criterion_4_zero_shot_retrieval(jobs, bars, report):
    result = report["criterion_4"]
    mrr = {v: result["checks"][v]["value"] for v in recipe.RETRIEVAL}
    elapsed = sum(jobs[v]["seconds"]["pretrain"] + jobs[v]["seconds"]["zero_shot"]
                  for v in recipe.RETRIEVAL)
    ok = result["pass"] and elapsed < 900
    record_criterion(ok, f"criterion 4: zero-shot MRR dual {mrr['dual']:.3f}, "
                         f"hybrid {mrr['hybrid']:.3f} (floor {bars['mrr_floor']:.3f}, "
                         f"hybrid >= dual-{recipe.HYBRID_SLACK}; {elapsed:.0f}s < 900s)")
    assert result["pass"], result["checks"]
    assert elapsed < 900


# -- criterion 5: supervised tag prediction -------------------------------------------


def test_criterion_5_supervised_tag_prediction(jobs, bars, report):
    result = report["criterion_5"]
    summary = ", ".join(
        [f"tfidf MAP {bars['tfidf_map']:.3f}"]
        + [f"{v} AUC {jobs[v]['closed']['auc']:.3f} MAP {jobs[v]['closed']['map']:.3f}"
           for v in recipe.VARIANTS])
    record_criterion(result["pass"], f"criterion 5: supervised tags ({summary}; "
                                     f"AUC >= {recipe.AUC_BAR} and MAP > tfidf)")
    assert result["pass"], result["checks"]


# -- criterion 6: open-vocabulary protocol --------------------------------------------


def test_criterion_6_open_vocabulary(world, jobs, report):
    _, (_, held_tags) = recipe.splits(world)
    for variant in recipe.RETRIEVAL:
        assert not set(jobs[variant]["open_tags"]) & set(held_tags)
    result = report["criterion_6"]
    parts = [f"{v} open {jobs[v]['open']['auc']:.3f} vs closed {jobs[v]['closed']['auc']:.3f}"
             for v in recipe.RETRIEVAL]
    record_criterion(result["pass"], "criterion 6: open vocabulary (" + ", ".join(parts)
                     + f"; within {recipe.OPEN_SLACK})")
    assert result["pass"], result["checks"]


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
        framed = mask_tokens(tokens, 1.0, rng, maskable=[True] * len(tokens))[1]
        masked_ok = masked_ok and framed == [1, 3, 5]  # a frame, as build_batch passes
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
