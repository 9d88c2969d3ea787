"""Masking, loss identities, exp-normalize oracles, and the training loop."""

import logging
import math

import numpy as np
import pytest

from conftest import mixed_examples
from textent import objectives
from textent.encoder import (ENTITY_POSITION, ModelConfig, encode, entity_row,
                             init_params, sentence_row)
from textent.errors import DataError, TrainingDiverged
from textent.numerics import value_and_grads
from textent.objectives import (MaskedBatch, TrainingConfig, build_batch, dual_graph,
                                mask_tokens, pretrain, pretrain_loss)
from textent.text import CLS, MASK, PAD, SEP, CorpusExample


def exp_normalize(scores):
    """Independent softmax oracle over a score vector."""
    e = [math.exp(s - max(scores)) for s in scores]
    return [x / sum(e) for x in e]


class TestMaskTokens:
    def test_rate_zero_changes_nothing(self, rng):
        tokens = [CLS, 7, 8, 9, SEP]
        masked, positions, labels = mask_tokens(tokens, 0.0, rng)
        assert masked == tokens and positions == [] and labels == []

    def test_rate_one_masks_all_eligible(self, rng):
        tokens = [CLS, 7, 8, 9, SEP]
        masked, positions, labels = mask_tokens(tokens, 1.0, rng)
        assert masked == [CLS, MASK, MASK, MASK, SEP]
        assert positions == [1, 2, 3] and labels == [7, 8, 9]

    def test_specials_never_masked(self, rng):
        tokens = [CLS, PAD, SEP, MASK, 9]
        for _ in range(50):
            masked, positions, _ = mask_tokens(tokens, 1.0, rng)
            assert positions == [4]
            assert masked[:4] == tokens[:4]

    def test_empirical_rate_concentrates(self):
        rng = np.random.default_rng(99)
        tokens = [7] * 100_000
        _, positions, _ = mask_tokens(tokens, 0.15, rng)
        assert abs(len(positions) / 100_000 - 0.15) < 0.01

    def test_deterministic_given_rng_state(self):
        a = mask_tokens([7] * 20, 0.5, np.random.default_rng(5))
        b = mask_tokens([7] * 20, 0.5, np.random.default_rng(5))
        assert a == b

    def test_bad_rate(self, rng):
        with pytest.raises(DataError):
            mask_tokens([7], 1.5, rng)


class TestDualLoss:
    def test_single_row_batch_is_exactly_zero(self, small_world, tiny_configs):
        cfg = tiny_configs["dual"]
        params = init_params(cfg, seed=0)
        batch = build_batch(small_world.corpus[:1], small_world.vocab, cfg)
        out = pretrain_loss(batch, params, TrainingConfig())
        assert out.value == 0.0

    def test_duplicate_entities_collapse_to_zero(self, small_world, tiny_configs):
        cfg = tiny_configs["dual"]
        params = init_params(cfg, seed=0)
        same = [ex for ex in small_world.corpus if ex.entity_id == "e0000"][:4]
        batch = build_batch(same, small_world.vocab, cfg)
        assert pretrain_loss(batch, params, TrainingConfig()).value == 0.0

    def test_identical_scores_give_log_b(self, small_world, tiny_configs):
        cfg = tiny_configs["dual"]
        params = init_params(cfg, seed=0, dtype=np.float64)
        examples = mixed_examples(small_world, 4)
        batch = build_batch(examples, small_world.vocab, cfg)
        # distinct entities, identical embeddings: flat softmax over B candidates
        params.tensors["entity_table"][:] = params.tensors["entity_table"][0]
        out = pretrain_loss(batch, params, TrainingConfig())
        assert abs(out.value - math.log(4)) < 1e-6

    def test_matches_exp_normalize_oracle(self, small_world, tiny_configs):
        cfg = tiny_configs["dual"]
        params = init_params(cfg, seed=7, dtype=np.float64)
        examples = mixed_examples(small_world, 4)
        vocab = small_world.vocab
        batch = build_batch(examples, vocab, cfg)
        scale = 4.0
        out = pretrain_loss(batch, params, TrainingConfig(score_scale=scale))

        losses = []
        candidates = []
        for ex in examples:  # first-appearance candidate order
            e = vocab.entity_index(ex.entity_id)
            if e not in candidates:
                candidates.append(e)
        for ex in examples:
            row, segs = sentence_row(ex.tokens, cfg)
            cls = encode(row, segs, params).cls_vector
            scores = []
            for e in candidates:
                g = params.tensors["entity_table"][e]
                scores.append(scale * float(np.dot(g, cls) /
                                            (np.linalg.norm(g) * np.linalg.norm(cls))))
            probs = exp_normalize(scores)
            losses.append(-math.log(probs[candidates.index(vocab.entity_index(ex.entity_id))]))
        assert abs(out.value - np.mean(losses)) < 1e-6

    def test_probabilities_normalize_and_preserve_score_order(self, small_world,
                                                              tiny_configs):
        cfg = tiny_configs["dual"]
        params = init_params(cfg, seed=3, dtype=np.float64)
        examples = mixed_examples(small_world, 5)
        vocab = small_world.vocab
        row, segs = sentence_row(examples[0].tokens, cfg)
        cls = encode(row, segs, params).cls_vector
        table = params.tensors["entity_table"]
        scores = [4.0 * float(np.dot(table[i], cls)
                              / (np.linalg.norm(table[i]) * np.linalg.norm(cls)))
                  for i in range(cfg.entity_count)]
        probs = exp_normalize(scores)
        assert abs(sum(probs) - 1.0) < 1e-6
        assert np.argsort(probs).tolist() == np.argsort(scores).tolist()

    def test_absent_entity_rows_get_zero_gradient(self, small_world, tiny_configs):
        cfg = tiny_configs["dual"]
        params = init_params(cfg, seed=0)
        examples = mixed_examples(small_world, 3)
        vocab = small_world.vocab
        batch = build_batch(examples, vocab, cfg)
        out = pretrain_loss(batch, params, TrainingConfig())
        present = {vocab.entity_index(ex.entity_id) for ex in examples}
        for e in range(cfg.entity_count):
            row_grad = out.grads["entity_table"][e]
            if e in present:
                assert np.abs(row_grad).max() > 0
            else:
                np.testing.assert_array_equal(row_grad, 0.0)


class TestFullLoss:
    def test_no_masks_is_zero(self, small_world, tiny_configs):
        cfg = tiny_configs["full"]
        params = init_params(cfg, seed=0)
        batch = build_batch(small_world.corpus[:3], small_world.vocab, cfg)
        out = pretrain_loss(batch, params, TrainingConfig())
        assert out.value == 0.0
        assert all(np.all(g == 0) for g in out.grads.values())

    def test_loss_mix_zero_is_entity_term_alone(self, small_world, tiny_configs, rng):
        cfg = tiny_configs["full"]
        params = init_params(cfg, seed=0)
        batch = build_batch(mixed_examples(small_world, 4), small_world.vocab, cfg,
                            rng=rng, word_mask_rate=0.4, entity_mask_rate=1.0)
        out = pretrain_loss(batch, params, TrainingConfig(loss_mix=0.0))
        assert out.value == out.entity_term

    def test_two_term_oracle_from_realized_logits(self, small_world, tiny_configs):
        cfg = tiny_configs["full"]
        params = init_params(cfg, seed=5, dtype=np.float64)
        vocab = small_world.vocab
        ex = small_world.corpus[0]
        token_id = vocab.entity_token(ex.entity_id)
        row, segs = entity_row(token_id, ex.tokens, cfg)
        masked = list(row)
        masked[ENTITY_POSITION] = MASK
        word_pos = 4
        word_label = masked[word_pos]
        masked[word_pos] = MASK
        batch = MaskedBatch(
            input_ids=np.asarray([masked]), segment_ids=np.asarray([segs]),
            pad_mask=np.ones((1, len(masked)), dtype=bool),
            mask_positions=[np.asarray([word_pos])],
            mask_labels=[np.asarray([word_label])],
            entity_rows=np.asarray([vocab.entity_index(ex.entity_id)]),
            entity_masked=np.asarray([True]))
        lam = 0.7
        out = pretrain_loss(batch, params, TrainingConfig(loss_mix=lam))

        hidden = encode(masked, segs, params).hidden_states
        from textent.encoder import mlm_logits
        realized = mlm_logits(hidden, [ENTITY_POSITION, word_pos], params)
        ce1 = -math.log(exp_normalize(realized[0])[token_id])
        ce2 = -math.log(exp_normalize(realized[1])[word_label])
        assert abs(out.value - (ce1 + lam * ce2)) < 1e-9
        assert abs(out.entity_term - ce1) < 1e-9
        assert abs(out.mlm_term - ce2) < 1e-9

    def test_no_entity_masking_reduces_to_plain_mlm(self, small_world, tiny_configs,
                                                    rng):
        cfg = tiny_configs["full"]
        params = init_params(cfg, seed=0, dtype=np.float64)
        batch = build_batch(mixed_examples(small_world, 3), small_world.vocab, cfg,
                            rng=rng, word_mask_rate=0.5, entity_mask_rate=0.0)
        out = pretrain_loss(batch, params, TrainingConfig(loss_mix=1.0))
        assert out.entity_term == 0.0
        assert out.value == out.mlm_term


def dual_value(batch, params):
    """The dual graph's loss on ``params``, whatever their variant."""
    return value_and_grads(
        lambda pt: dual_graph(pt, params.config, batch, TrainingConfig())[0],
        params.tensors)[0]


class TestHybridLoss:
    def test_equals_dual_when_word_mask_rate_zero(self, small_world, tiny_configs):
        cfg = tiny_configs["hybrid"]
        params = init_params(cfg, seed=0)
        examples = mixed_examples(small_world, 4)
        batch = build_batch(examples, small_world.vocab, cfg)
        out = pretrain_loss(batch, params, TrainingConfig())
        assert out.value == dual_value(batch, params)

    def test_loss_mix_zero_equals_dual(self, small_world, tiny_configs, rng):
        cfg = tiny_configs["hybrid"]
        params = init_params(cfg, seed=0)
        examples = mixed_examples(small_world, 4)
        batch = build_batch(examples, small_world.vocab, cfg, rng=rng,
                            word_mask_rate=0.4)
        out = pretrain_loss(batch, params, TrainingConfig(loss_mix=0.0))
        assert out.value == dual_value(batch, params)

    def test_entity_gradient_receives_both_terms(self, small_world, tiny_configs, rng):
        cfg = tiny_configs["hybrid"]
        params = init_params(cfg, seed=0, dtype=np.float64)
        examples = mixed_examples(small_world, 4)
        vocab = small_world.vocab
        batch = build_batch(examples, vocab, cfg, rng=rng, word_mask_rate=0.5)
        both, dual_only = (
            pretrain_loss(batch, params, TrainingConfig(loss_mix=mix)).grads["entity_table"]
            for mix in (1.0, 0.0))
        mlm_part = both - dual_only
        rows = sorted({vocab.entity_index(ex.entity_id) for ex in examples})
        assert np.abs(dual_only[rows]).max() > 0
        assert np.abs(mlm_part[rows]).max() > 0


class TestBuildBatch:
    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    def test_token_id_outside_word_vocabulary_names_entity(self, small_world,
                                                           tiny_configs, variant):
        cfg = tiny_configs[variant]
        good = small_world.corpus[0]
        for bad_id in (cfg.word_vocab_size, -1):
            bad = CorpusExample(good.entity_id, list(good.tokens) + [bad_id])
            with pytest.raises(DataError, match=f"{good.entity_id!r}.*{bad_id}"):
                build_batch([good, bad], small_world.vocab, cfg)

    @pytest.mark.parametrize("variant", ["hybrid", "full"])
    def test_special_ids_inside_a_sentence_are_never_masked(self, small_world,
                                                            tiny_configs, variant):
        """Only the words 5 and 6 become targets, whatever the row's frame
        allows; ``read_corpus`` accepts the special ids as token ids."""
        entity_id = small_world.corpus[0].entity_id
        row = CorpusExample(entity_id, [5, CLS, 6, SEP, PAD])
        batch = build_batch([row], small_world.vocab, tiny_configs[variant],
                            rng=np.random.default_rng(0), word_mask_rate=1.0)
        first = 1 if variant == "hybrid" else ENTITY_POSITION + 2
        assert batch.mask_positions[0].tolist() == [first, first + 2]
        assert batch.mask_labels[0].tolist() == [5, 6]
        assert batch.input_ids[0, first + 1:first + 5].tolist() == [CLS, MASK, SEP, PAD]


class TestPretrain:
    def test_loss_improves_over_200_steps(self, small_world):
        vocab = small_world.vocab
        cfg = ModelConfig.for_vocab(vocab, "dual", layers=1, heads=2, hidden=16,
                                    ffn_hidden=32, entity_dim=16)
        train = TrainingConfig(batch_size=8, steps=200, seed=42, log_every=0)
        _, metrics = pretrain(small_world.corpus, vocab, cfg, train)
        first = np.mean([m["loss"] for m in metrics[:50]])
        last = np.mean([m["loss"] for m in metrics[-50:]])
        assert last < first

    def test_fixed_seed_reproduces_loss_trace(self, small_world):
        vocab = small_world.vocab
        cfg = ModelConfig.for_vocab(vocab, "hybrid", layers=1, heads=2, hidden=16,
                                    ffn_hidden=32, entity_dim=16)
        train = TrainingConfig(batch_size=6, steps=25, seed=9, log_every=0)
        _, m1 = pretrain(small_world.corpus, vocab, cfg, train)
        _, m2 = pretrain(small_world.corpus, vocab, cfg, train)
        assert m1 == m2

    def test_batch_of_one_warns_and_entity_loss_is_zero(self, small_world, caplog):
        vocab = small_world.vocab
        cfg = ModelConfig.for_vocab(vocab, "dual", layers=1, heads=2, hidden=16,
                                    ffn_hidden=32, entity_dim=16)
        train = TrainingConfig(batch_size=1, steps=5, seed=0, log_every=0)
        with caplog.at_level(logging.WARNING):
            _, metrics = pretrain(small_world.corpus, vocab, cfg, train)
        assert any("in-batch" in r.message for r in caplog.records)
        assert all(m["loss_entity"] == 0.0 for m in metrics)

    def test_empty_corpus_rejected(self, small_world, tiny_configs):
        with pytest.raises(DataError):
            pretrain([], small_world.vocab, tiny_configs["dual"], TrainingConfig())

    def test_nan_loss_aborts_with_step_and_entities(self, small_world, monkeypatch):
        vocab = small_world.vocab
        cfg = ModelConfig.for_vocab(vocab, "dual", layers=1, heads=2, hidden=16,
                                    ffn_hidden=32, entity_dim=16)
        real = objectives.adam_step

        def poisoned(params, grads, state):  # step 1's update leaves a NaN bias
            real(params, grads, state)
            params["emb_ln_b"][0] = np.nan

        monkeypatch.setattr(objectives, "adam_step", poisoned)
        train = TrainingConfig(batch_size=4, steps=3, seed=0, log_every=0)
        with pytest.raises(TrainingDiverged,
                           match=r"non-finite loss nan at step 2; batch entities"):
            pretrain(small_world.corpus, vocab, cfg, train)

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", -1.0), ("lr", 0.0),
        ("score_scale", float("nan")), ("loss_mix", float("inf")),
    ])
    def test_non_finite_or_non_positive_rate_rejected_before_a_step(
            self, small_world, tiny_configs, monkeypatch, field, value):
        monkeypatch.setattr(objectives, "build_batch", None)  # no step may start
        train = TrainingConfig(batch_size=4, steps=3, seed=0, log_every=0,
                               **{field: value})
        with pytest.raises(DataError, match=f"{field} must be finite"):
            pretrain(small_world.corpus, small_world.vocab, tiny_configs["dual"], train)

    def test_nan_gradient_aborts_with_step_and_parameter(self, small_world,
                                                         monkeypatch):
        vocab = small_world.vocab
        cfg = ModelConfig.for_vocab(vocab, "dual", layers=1, heads=2, hidden=16,
                                    ffn_hidden=32, entity_dim=16)
        real = objectives.pretrain_loss
        calls = []

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(out)
            if len(calls) == 2:
                out.grads["entity_table"][0, 0] = np.nan
            return out

        monkeypatch.setattr(objectives, "pretrain_loss", poisoned)
        train = TrainingConfig(batch_size=4, steps=3, seed=0, log_every=0)
        with pytest.raises(TrainingDiverged, match=r"step 2\b.*'entity_table'"):
            pretrain(small_world.corpus, vocab, cfg, train)

    def test_checkpoints_written_at_interval(self, small_world, tmp_path):
        vocab = small_world.vocab
        cfg = ModelConfig.for_vocab(vocab, "dual", layers=1, heads=2, hidden=16,
                                    ffn_hidden=32, entity_dim=16)
        train = TrainingConfig(batch_size=4, steps=4, seed=0, checkpoint_every=2,
                               log_every=0)
        pretrain(small_world.corpus, vocab, cfg, train, out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "model.safetensors").exists()
        assert (tmp_path / "run" / "step_000002" / "model.safetensors").exists()
        assert (tmp_path / "run" / "step_000004" / "model.safetensors").exists()

    @pytest.mark.parametrize("field", ["checkpoint_every", "log_every"])
    def test_negative_interval_rejected(self, small_world, tiny_configs, tmp_path,
                                        field):
        train = TrainingConfig(batch_size=4, steps=3, **{field: -1})
        with pytest.raises(DataError, match=f"{field} must be >= 0"):
            pretrain(small_world.corpus, small_world.vocab, tiny_configs["dual"],
                     train, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()


class TestGraphLookup:
    """``pretrain_loss`` finds each graph on the module when it is called, so
    a wrapper set there (as the benchmark's tracer sets one) sees every step."""

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    def test_wrapped_graph_runs_once_per_step(self, small_world, tiny_configs,
                                              monkeypatch, variant):
        calls = {v: 0 for v in ("dual", "full", "hybrid")}
        for v in calls:
            real = getattr(objectives, f"{v}_graph")

            def counting(*args, _v=v, _real=real):
                calls[_v] += 1
                return _real(*args)

            monkeypatch.setattr(objectives, f"{v}_graph", counting)
        cfg = tiny_configs[variant]
        train = TrainingConfig(batch_size=4, steps=3, seed=0, log_every=0)
        batch = build_batch(mixed_examples(small_world, 4), small_world.vocab, cfg,
                            rng=np.random.default_rng(0), word_mask_rate=0.3,
                            entity_mask_rate=0.5)
        pretrain_loss(batch, init_params(cfg, seed=0), train)
        assert calls == {v: int(v == variant) for v in calls}
        pretrain(small_world.corpus, small_world.vocab, cfg, train)
        assert calls == {v: (1 + train.steps) * (v == variant) for v in calls}
