"""Fine-tuning contracts: weighting, sampling, frozen embeddings, protocols."""

import math
from collections import Counter

import numpy as np
import pytest

from textent.encoder import (ModelConfig, encode, entity_row, hybrid_mlm_logits,
                             init_params, pad_rows, sentence_row)
from textent.errors import DataError, TrainingDiverged
from textent.finetune import (FinetuneConfig, MaskLayout, example_weight,
                              finetune_dual, finetune_full, head_tag_graph,
                              posterior_tag_graph, predict_tag_scores, run_finetune,
                              sample_negatives, score_tag_matrix, split_holdout,
                              export_predictions)
from textent.numerics import grad_check
from textent.objectives import TrainingConfig, pretrain
from textent.text import MASK, tokenize


class TestExampleWeight:
    def test_linear_single_vote(self):
        assert example_weight(1, "linear") == 1.0

    def test_log1p_single_vote(self):
        assert math.isclose(example_weight(1, "log1p"), math.log(2))

    def test_log1p_nine_votes(self):
        assert math.isclose(example_weight(9, "log1p"), math.log(10))

    def test_rejects_nonpositive_votes(self):
        with pytest.raises(DataError):
            example_weight(0, "linear")


class TestSampleNegatives:
    def test_all_positive_vocab_gives_empty(self, rng):
        vocab = ["a", "b", "c"]
        with pytest.warns(UserWarning):
            assert sample_negatives("m", vocab, vocab, 0.5, rng) == []

    def test_rate_covering_whole_complement(self, rng):
        vocab = [f"t{i}" for i in range(10)]
        out = sample_negatives("m", vocab, vocab[:5], 1.0, rng)
        assert sorted(out) == vocab[5:]

    def test_never_returns_positives(self, rng):
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(20):
            out = sample_negatives("m", vocab, vocab[:10], 0.3, rng)
            assert not set(out) & set(vocab[:10])
            assert len(out) == 9  # floor(0.3 * 30)

    def test_inclusion_frequency_uniform_within_3_sigma(self):
        vocab = [f"t{i:03d}" for i in range(100)]
        rng = np.random.default_rng(0)
        counts = Counter()
        draws = 10_000
        for _ in range(draws):
            for t in sample_negatives("m", vocab, [], 0.1, rng):
                counts[t] += 1
        mean = draws * 0.1
        sigma = math.sqrt(draws * 0.1 * 0.9)
        for t in vocab:
            assert abs(counts[t] - mean) <= 3 * sigma

    def test_deterministic_for_fixed_rng(self):
        vocab = [f"t{i}" for i in range(50)]
        a = sample_negatives("m", vocab, vocab[:5], 0.2, np.random.default_rng(3))
        b = sample_negatives("m", vocab, vocab[:5], 0.2, np.random.default_rng(3))
        assert a == b


class TestSplit:
    def test_deterministic_and_disjoint(self):
        items = [f"e{i}" for i in range(20)]
        a = split_holdout(items, 0.2, np.random.default_rng(1))
        b = split_holdout(items, 0.2, np.random.default_rng(1))
        assert a == b
        train, held = a
        assert len(held) == 4
        assert set(train) | set(held) == set(items)
        assert not set(train) & set(held)

    def test_rejects_degenerate_split(self):
        with pytest.raises(DataError):
            split_holdout(["a"], 0.9, np.random.default_rng(0))


@pytest.fixture(scope="module")
def trained(small_world):
    """Short pretraining runs shared by the fine-tuning tests."""
    out = {}
    for variant in ("dual", "full", "hybrid"):
        cfg = ModelConfig.for_vocab(small_world.vocab, variant, layers=1, heads=2,
                                    hidden=16, ffn_hidden=32, entity_dim=16)
        params, _ = pretrain(small_world.corpus, small_world.vocab, cfg,
                             TrainingConfig(batch_size=8, steps=60, seed=21,
                                            log_every=0))
        out[variant] = params
    return out


def _entity_rows(params):
    cfg = params.config
    if cfg.variant == "full":
        return params.tensors["token_emb"][cfg.word_vocab_size:]
    return params.tensors["entity_table"]


class TestFrozenEntityEmbeddings:
    @pytest.mark.parametrize("variant", ["full", "dual", "hybrid"])
    def test_rows_bit_identical_across_finetuning(self, variant, trained, small_world):
        params = trained[variant]
        before = _entity_rows(params).copy()
        cfg = FinetuneConfig(epochs=2, seed=4)
        result = run_finetune(params, small_world.votes, cfg, small_world.vocab)
        after = _entity_rows(result.params)
        np.testing.assert_array_equal(before, after)
        # and the rest of the model did move
        moved = any(not np.array_equal(params.tensors[k], result.params.tensors[k])
                    for k in params.tensors)
        assert moved

    def test_zero_epochs_leaves_params_unchanged(self, trained, small_world):
        params = trained["dual"]
        result = run_finetune(params, small_world.votes,
                              FinetuneConfig(epochs=0, seed=0), small_world.vocab)
        for k in params.tensors:
            np.testing.assert_array_equal(params.tensors[k], result.params.tensors[k])

    def test_variant_mismatch_rejected(self, trained, small_world):
        with pytest.raises(DataError):
            finetune_full(trained["dual"], small_world.votes, FinetuneConfig(),
                          small_world.vocab)
        with pytest.raises(DataError):
            finetune_dual(trained["full"], small_world.votes, FinetuneConfig(),
                          small_world.vocab)


class TestDivergence:
    @pytest.mark.parametrize("variant", ["full", "dual", "hybrid"])
    def test_non_finite_loss_names_epoch_and_entity(self, variant, trained, small_world):
        cfg = FinetuneConfig(epochs=1, seed=4, lr=float("nan"))
        with pytest.raises(TrainingDiverged,
                           match=r"epoch 1, entity 'e\d+': non-finite loss"):
            run_finetune(trained[variant], small_world.votes, cfg, small_world.vocab)


class TestOpenVocabulary:
    def test_held_out_tags_never_trained_on(self, trained, small_world):
        rng = np.random.default_rng(17)
        train_tags, held_tags = split_holdout(small_world.votes.tags, 0.2, rng)
        for variant in ("dual", "full", "hybrid"):
            result = run_finetune(trained[variant], small_world.votes,
                                  FinetuneConfig(epochs=1, seed=2, protocol="open"),
                                  small_world.vocab, allowed_tags=set(train_tags))
            assert result.used_tags
            assert not result.used_tags & set(held_tags)


class TestPredictTagScores:
    def test_deterministic(self, trained, small_world):
        tags = small_world.votes.tags[:8]
        a = predict_tag_scores(trained["dual"], small_world.vocab, "e0001", tags)
        b = predict_tag_scores(trained["dual"], small_world.vocab, "e0001", tags)
        np.testing.assert_array_equal(a, b)

    def test_full_variant_scores_are_probabilities(self, trained, small_world):
        tags = small_world.votes.tags[:10]
        scores = predict_tag_scores(trained["full"], small_world.vocab, "e0002", tags)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_full_scores_are_the_entity_posterior(self, trained, small_world):
        """p(entity | tag) over the entity block sums to one per tag."""
        vocab = small_world.vocab
        tags = small_world.votes.tags[:5]
        total = sum(predict_tag_scores(trained["full"], vocab, e, tags)
                    for e in vocab.entity_ids)
        np.testing.assert_allclose(total, np.ones(len(tags)), rtol=1e-5)

    @pytest.mark.parametrize("variant", ["full", "dual", "hybrid"])
    def test_unknown_and_multiword_tags_get_finite_scores(self, variant, trained,
                                                          small_world):
        tags = small_world.votes.tags
        phrases = ["completely unseen phrase", f"{tags[0]} {tags[1]}",
                   f"{tags[2]} unseen {tags[3]}", "", tags[4]]
        scores = predict_tag_scores(trained[variant], small_world.vocab, "e0001",
                                    phrases)
        assert scores.shape == (len(phrases),) and np.all(np.isfinite(scores))

    def test_unknown_entity_rejected(self, trained, small_world):
        with pytest.raises(DataError):
            predict_tag_scores(trained["dual"], small_world.vocab, "nope",
                               small_world.votes.tags[:3])

    def test_unknown_tag_words_fall_back_to_unk(self, trained, small_world):
        scores = predict_tag_scores(trained["dual"], small_world.vocab, "e0000",
                                    ["completely unseen phrase"])
        assert scores.shape == (1,) and np.isfinite(scores[0])

    def test_rank_order_invariant_under_monotone_transform(self, trained, small_world):
        tags = small_world.votes.tags[:12]
        scores = predict_tag_scores(trained["hybrid"], small_world.vocab, "e0003", tags)
        transformed = np.exp(3.0 * scores) + 5.0
        assert np.argsort(-scores).tolist() == np.argsort(-transformed).tolist()

    def test_hybrid_multiword_score_is_geometric_mean(self, trained, small_world):
        """A tag of n words reads n masks; its score is the geometric mean of
        the per-token probabilities at those masks (numpy head as oracle)."""
        vocab = small_world.vocab
        a, b = small_world.votes.tags[:2]
        params = trained["hybrid"]
        got = predict_tag_scores(params, vocab, "e0002", [f"{a} {b}", a])
        row, segs = sentence_row([MASK, MASK], params.config)
        hidden = encode(row, segs, params).hidden_states
        ent = params.tensors["entity_table"][vocab.entity_index("e0002")]
        logits = hybrid_mlm_logits(hidden, ent, [1, 2], params).astype(np.float64)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        pair = np.exp((logp[0, vocab.lookup(a)] + logp[1, vocab.lookup(b)]) / 2)
        row1, segs1 = sentence_row([MASK], params.config)
        logits1 = hybrid_mlm_logits(encode(row1, segs1, params).hidden_states, ent,
                                    [1], params).astype(np.float64)[0]
        single = np.exp(logits1[vocab.lookup(a)]) / np.exp(logits1).sum()
        np.testing.assert_allclose(got, [pair, single], rtol=1e-4)


class TestScoreTagMatrix:
    """Scoring many entities encodes the tags once; the scores must be the
    ones each entity gets from a fresh encoding of its own."""

    @pytest.mark.parametrize("variant", ["dual", "hybrid", "full"])
    def test_matches_per_entity_scores_bit_for_bit(self, variant, trained, small_world):
        params, vocab = trained[variant], small_world.vocab
        tags = small_world.votes.tags + ["unseen phrase", ""]
        matrix = score_tag_matrix(params, vocab, vocab.entity_ids, tags, 3.0)
        assert list(matrix) == vocab.entity_ids
        for entity_id in vocab.entity_ids:
            alone = predict_tag_scores(params, vocab, entity_id, tags, 3.0)
            assert [matrix[entity_id][t] for t in tags] == alone.tolist(), entity_id


class TestFinetuneGradients:
    """Central differences on the hybrid and full fine-tuning losses (dual's
    is checked by acceptance criterion 1)."""

    @staticmethod
    def _check(cfg, loss_fn):
        params = init_params(cfg, seed=5, dtype=np.float64)
        return grad_check(loss_fn(params), params.tensors, samples=200, h=1e-4,
                          rng=np.random.default_rng(1))

    def _tag_tokens(self, small_world):
        tags = small_world.votes.tags
        phrases = tags[:4] + [f"{tags[4]} {tags[5]}", f"{tags[6]} unseen {tags[7]}"]
        return [tokenize(t, small_world.vocab) for t in phrases]

    def test_head_tag_graph(self, small_world, tiny_configs):
        cfg = tiny_configs["hybrid"]
        layout = MaskLayout.for_tags(self._tag_tokens(small_world), cfg)
        err = self._check(cfg, lambda p: lambda pt: head_tag_graph(
            pt, p.config, layout, 1, 2, np.array([1.0, 0.5])))
        assert err < 1e-4

    def test_posterior_tag_graph(self, small_world, tiny_configs):
        cfg = tiny_configs["full"]
        rows, segs = zip(*(entity_row(MASK, t, cfg)
                           for t in self._tag_tokens(small_world)))
        ids, seg_arr, mask = pad_rows(list(rows), list(segs))
        err = self._check(cfg, lambda p: lambda pt: posterior_tag_graph(
            pt, p.config, ids, seg_arr, mask, 3, 2, np.array([1.3, 0.7])))
        assert err < 1e-4


class TestLearningSignal:
    def test_finetuned_model_separates_attributes_on_train_entity(self, trained,
                                                                  small_world):
        """After fine-tuning, an entity's own attributes outscore random
        other tags on average (ground truth from the generator)."""
        result = finetune_dual(trained["dual"], small_world.votes,
                               FinetuneConfig(epochs=4, seed=8), small_world.vocab)
        entity = "e0000"
        attrs = small_world.attributes[entity]
        others = [t for t in small_world.votes.tags if t not in attrs][: len(attrs)]
        scores = score_tag_matrix(result.params, small_world.vocab, [entity],
                                  small_world.votes.tags)[entity]
        attr_mean = np.mean([scores[t] for t in attrs])
        other_mean = np.mean([scores[t] for t in others])
        assert attr_mean > other_mean


def test_export_predictions_format(tmp_path):
    scores = {"e2": {"a": 0.2, "b": 0.9}, "e1": {"a": 0.5, "b": 0.1}}
    path = tmp_path / "pred.tsv"
    export_predictions(path, scores)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "entity_id\ttag\tscore"
    assert lines[1].startswith("e1\ta") and lines[2].startswith("e1\tb")
    assert lines[3].startswith("e2\tb")  # descending score within entity
