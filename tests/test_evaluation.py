"""Metric oracles, baselines, and zero-shot ranking contracts."""

import itertools
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from textent import autodiff, evaluation
from textent.encoder import (ModelConfig, encode_rows, init_params, normalize_rows,
                             sentence_row)
from textent.errors import DataError, NumericError
from textent.evaluation import (BosIndex, EvalConfig, TfidfIndex, average_precision,
                                binarize, bos_rank, evaluate_retrieval,
                                evaluate_tag_scores, mean_average_precision, mrr,
                                ndcg_at_k, precision_at_k,
                                rank_items, recall_at_k, relevance, roc_auc,
                                top_tags_baseline, zero_shot_rank)
from textent.text import CorpusExample, Query, TagVotes, build_vocab, tokenize

from conftest import (oracle_ap, oracle_auc, oracle_ndcg, oracle_precision,
                      overlap_oracle_rank, predict_tags)


class TestBinarize:
    def test_strictly_above_threshold(self):
        assert binarize(3, 2) == 1

    def test_at_threshold_is_negative(self):
        assert binarize(2, 2) == 0

    @pytest.mark.parametrize("t", [0, 1, 5])
    def test_zero_votes_always_negative(self, t):
        assert binarize(0, t) == 0

    def test_relevance_is_identity(self):
        assert relevance(0) == 0
        assert relevance(5) == 5

    def test_consistency_with_binarize(self):
        for votes in range(7):
            assert (relevance(votes) > 2) == bool(binarize(votes, 2))


class TestRankItems:
    def test_ties_broken_by_ascending_id(self):
        ranked = rank_items(["b", "a", "c"], [1.0, 1.0, 2.0])
        assert ranked.ids == ["c", "a", "b"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            rank_items(["a", "a"], [1.0, 2.0])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_monotone_transform(self, scores):
        ids = [f"i{k}" for k in range(len(scores))]
        squashed_scores = [math.atan(s) for s in scores]
        # atan maps some distinct doubles near +-100 to one value; such a draw
        # is not a strictly monotone transform of the scores
        assume(len(set(squashed_scores)) == len(set(scores)))
        base = rank_items(ids, scores)
        squashed = rank_items(ids, squashed_scores)
        assert base.ids == squashed.ids


class TestPrecisionRecall:
    def test_all_top_k_positive(self):
        assert precision_at_k([1, 1, 1, 0], 3) == 1.0

    def test_no_positives(self):
        assert precision_at_k([0, 0, 0], 3) == 0.0

    def test_enumerated_case(self):
        assert math.isclose(precision_at_k([1, 0, 1], 3), 2 / 3)

    def test_short_list_flagged(self):
        with pytest.warns(UserWarning):
            value = precision_at_k([1, 0], 5)
        assert math.isclose(value, 0.5)

    def test_recall_all_found(self):
        assert recall_at_k(["a", "b", "c"], {"a", "b"}, 3) == 1.0

    def test_recall_empty_relevant_flagged(self):
        with pytest.warns(UserWarning):
            assert math.isnan(recall_at_k(["a"], set(), 1))

    def test_recall_enumerated(self):
        ranked = ["a", "b", "c", "d", "e"]
        assert math.isclose(recall_at_k(ranked, {"a", "c", "x", "y", "z"}, 3), 2 / 5)


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        assert math.isclose(ndcg_at_k([3, 2, 1], 3), 1.0)

    def test_reversed_matches_formula_oracle(self):
        value = ndcg_at_k([1, 2, 3], 3)
        assert abs(value - oracle_ndcg([1, 2, 3], 3)) < 1e-9

    def test_k_one_best_first(self):
        assert ndcg_at_k([5, 1, 9], 1) == pytest.approx(5 / 9)
        assert ndcg_at_k([9, 1, 5], 1) == 1.0

    def test_all_zero_flagged(self):
        with pytest.warns(UserWarning):
            assert ndcg_at_k([0, 0], 2) == 0.0

    def test_zero_top_k_with_mass_elsewhere(self):
        assert ndcg_at_k([0, 0, 0, 4], 3) == 0.0


class TestAveragePrecision:
    def test_single_positive_first(self):
        assert average_precision([1, 0, 0, 0]) == 1.0

    def test_single_positive_rank_four(self):
        assert average_precision([0, 0, 0, 1]) == 0.25

    def test_five_item_case_matches_brute_force(self):
        labels = [1, 0, 1, 1, 0]
        assert abs(average_precision(labels) - oracle_ap(labels)) < 1e-12

    def test_map_skips_lists_without_positives(self):
        value = mean_average_precision([[1, 0], [0, 0], [0, 1]])
        assert math.isclose(value, (1.0 + 0.5) / 2)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5] * 4, [1, 0, 1, 0]) == 0.5

    def test_six_point_case_matches_pair_counting(self):
        scores = [0.9, 0.5, 0.5, 0.3, 0.8, 0.1]
        labels = [1, 0, 1, 0, 0, 1]
        assert abs(roc_auc(scores, labels) - oracle_auc(scores, labels)) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("levels", [2, 5, None], ids=["ties", "some-ties", "distinct"])
    def test_seeded_inputs_match_pair_counting(self, seed, levels):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        scores = (rng.integers(0, levels, n) / 4.0 if levels else rng.normal(size=n))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]  # both classes present
        assert abs(roc_auc(scores, labels) - oracle_auc(scores, labels)) < 1e-12

    def test_single_class_flagged_nan(self):
        with pytest.warns(UserWarning):
            assert math.isnan(roc_auc([0.1, 0.2], [1, 1]))

    def test_nan_score_gives_nan(self):
        assert math.isnan(roc_auc([0.3, float("nan"), 0.1], [1, 0, 0]))


class TestMrr:
    def test_first_item_relevant(self):
        assert mrr([["a", "b"]], [{"a"}]) == 1.0

    def test_first_relevant_at_rank_four(self):
        assert mrr([["x", "y", "z", "a"]], [{"a"}]) == 0.25

    def test_none_relevant_present(self):
        assert mrr([["x", "y"]], [{"a"}]) == 0.0

    def test_empty_relevant_sets_excluded(self):
        value = mrr([["a"], ["b"]], [{"a"}, set()])
        assert value == 1.0


class TestExhaustiveSmallInstances:
    """Spot checks; the full sweep up to length 6 runs in the acceptance suite."""

    def test_precision_and_ap_all_length_four_assignments(self):
        for labels in itertools.product([0, 1], repeat=4):
            labels = list(labels)
            for k in (1, 2, 3, 4):
                assert abs(precision_at_k(labels, k) - oracle_precision(labels, k)) < 1e-12
            assert abs(average_precision(labels) - oracle_ap(labels)) < 1e-12

    def test_ndcg_all_length_four_relevance_assignments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for rels in itertools.product([0, 1, 2, 3], repeat=4):
                for k in (1, 2, 4):
                    assert abs(ndcg_at_k(list(rels), k) - oracle_ndcg(list(rels), k)) < 1e-12


class TestTfidf:
    @pytest.fixture()
    def toy(self):
        vocab = build_vocab([["apple", "banana", "cherry", "date"]])
        corpus = [
            CorpusExample("d1", [vocab.lookup(w) for w in ("apple", "apple", "banana")]),
            CorpusExample("d2", [vocab.lookup(w) for w in ("banana", "cherry")]),
            CorpusExample("d3", [vocab.lookup(w) for w in ("cherry", "cherry", "cherry", "date")]),
        ]
        return TfidfIndex(corpus, vocab), vocab

    def test_three_doc_scores_match_hand_computation(self, toy):
        index, _ = toy
        ln32 = math.log(3 / 2)
        d1 = index.tag_scores("d1", ["apple", "banana"])
        assert math.isclose(d1["apple"], 2 * ln32)
        assert d1["banana"] == 0.0  # df=2 -> idf ln(3/3)=0
        assert math.isclose(index.tag_scores("d3", ["date"])["date"], ln32)
        assert index.tag_scores("d2", ["apple"]) == {"apple": 0.0}

    def test_absent_tag_scores_zero_everywhere(self, toy):
        index, _ = toy
        for doc in ("d1", "d2", "d3"):
            assert index.tag_scores(doc, ["egg"]) == {"egg": 0.0}

    def test_single_document_idf_clamped_at_zero(self):
        vocab = build_vocab([["apple"]])
        index = TfidfIndex([CorpusExample("d1", [vocab.lookup("apple")])], vocab)
        assert index.idf[vocab.lookup("apple")] == 0.0  # ln(1/2) clamped
        assert index.tag_scores("d1", ["apple"]) == {"apple": 0.0}

    def test_query_ranking_prefers_lexical_match(self, toy):
        index, _ = toy
        ranked = index.rank_query("apple banana")
        assert ranked.ids[0] == "d1"

    def test_multi_token_tag_sums_over_tokens(self, toy):
        index, _ = toy
        scores = index.tag_scores("d1", ["apple date", "apple", "date"])
        assert math.isclose(scores["apple date"], scores["apple"] + scores["date"])


@pytest.fixture(scope="module")
def zero_shot_setup(small_world):
    params = {}
    for variant in ("dual", "full", "hybrid"):
        cfg = ModelConfig.for_vocab(small_world.vocab, variant, layers=1, heads=2,
                                    hidden=16, ffn_hidden=32, entity_dim=16)
        params[variant] = init_params(cfg, seed=13)
    return params


class TestZeroShot:
    def test_whitespace_invariance(self, zero_shot_setup, small_world):
        params = zero_shot_setup["dual"]
        q = small_world.queries[0].text
        noisy = "  " + q.replace(" ", "   ") + " \t "
        a = zero_shot_rank(params, small_world.vocab, q)
        b = zero_shot_rank(params, small_world.vocab, noisy)
        assert a.ids == b.ids and a.scores == b.scores

    @pytest.mark.parametrize("variant", ["dual", "full"])
    def test_covers_every_entity_once(self, variant, zero_shot_setup, small_world):
        ranked = zero_shot_rank(zero_shot_setup[variant], small_world.vocab,
                                small_world.queries[0].text)
        assert len(ranked.ids) == small_world.spec.entities
        assert len(set(ranked.ids)) == len(ranked.ids)
        assert all(a >= b for a, b in zip(ranked.scores, ranked.scores[1:]))

    def test_empty_query_rejected(self, zero_shot_setup, small_world):
        with pytest.raises(DataError, match="empty"):
            zero_shot_rank(zero_shot_setup["dual"], small_world.vocab, "...")

    @staticmethod
    def _dual64(zero_shot_setup):
        return zero_shot_setup["dual"].astype(np.float64)  # a copy

    @staticmethod
    def _query_cls(params, vocab, query):
        row, segs = sentence_row(tokenize(query, vocab), params.config)
        return encode_rows([row], [segs], params)[0][0, 0]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_entity_along_the_query_scores_plus_or_minus_the_scale(
            self, zero_shot_setup, small_world, sign):
        params, vocab = self._dual64(zero_shot_setup), small_world.vocab
        query = small_world.queries[0].text
        params.tensors["entity_table"][0] = sign * self._query_cls(params, vocab, query)
        ranked = zero_shot_rank(params, vocab, query)
        score = dict(zip(ranked.ids, ranked.scores))[vocab.entity_ids[0]]
        assert abs(score - sign * 4.0) < 1e-12

    def test_invariant_to_entity_row_scale(self, zero_shot_setup, small_world):
        params, vocab = self._dual64(zero_shot_setup), small_world.vocab
        query = small_world.queries[0].text
        before = zero_shot_rank(params, vocab, query)
        params.tensors["entity_table"][2] *= 7.0
        after = zero_shot_rank(params, vocab, query)
        eid = vocab.entity_ids[2]
        assert abs(before.scores[before.ids.index(eid)]
                   - after.scores[after.ids.index(eid)]) < 1e-12

    def test_zero_norm_entity_row_is_named(self, zero_shot_setup, small_world):
        params, vocab = self._dual64(zero_shot_setup), small_world.vocab
        params.tensors["entity_table"][2] = 0.0
        query = small_world.queries[0].text
        with pytest.raises(NumericError) as info:
            zero_shot_rank(params, vocab, query)
        assert str(info.value).startswith(f"query {query!r}: ")
        assert "zero-norm entity vector in row 2 " in str(info.value)

    def test_zero_norm_query_encoding_is_named(self, zero_shot_setup, small_world):
        params = self._dual64(zero_shot_setup)
        params.tensors["layer0.ffn_ln_g"][:] = 0.0  # the last norm zeroes every state
        query = small_world.queries[0].text
        with pytest.raises(NumericError) as info:
            zero_shot_rank(params, small_world.vocab, query)
        assert str(info.value).startswith(f"query {query!r}: ")
        assert "zero-norm text vector in row 0 " in str(info.value)

    @pytest.mark.parametrize("variant", ["dual", "full"])
    def test_query_scores_like_a_tag_before_fine_tuning(self, zero_shot_setup,
                                                        small_world, variant):
        """A query is read through the tag readout: dual scores equal the tag
        scores, and full scores are the log of the tag posterior."""
        params, vocab = zero_shot_setup[variant], small_world.vocab
        query = small_world.queries[0].text
        ranked = zero_shot_rank(params, vocab, query)
        got = np.asarray([dict(zip(ranked.ids, ranked.scores))[e]
                          for e in vocab.entity_ids])
        tag = np.asarray([predict_tags(params, vocab, e, [query])[0]
                          for e in vocab.entity_ids])
        if variant == "full":
            np.testing.assert_allclose(np.exp(got), tag, rtol=0, atol=1e-6)
            assert abs(np.logaddexp.reduce(got)) < 1e-5
        else:
            np.testing.assert_allclose(got, tag, rtol=0, atol=1e-6)

    def test_oracle_overlap_ceiling_is_perfect_on_queries(self, small_world):
        ranked = [overlap_oracle_rank(small_world.attributes, q.text.split())
                  for q in small_world.queries]
        value = mrr([r.ids for r in ranked],
                    [set(q.relevant) for q in small_world.queries])
        assert value == 1.0


class TestBagOfSentences:
    def test_verbatim_sentence_scores_one_with_max(self, zero_shot_setup, small_world):
        params = zero_shot_setup["dual"]
        vocab = small_world.vocab
        ex = small_world.corpus[0]
        query = " ".join(vocab.id_to_token[t] for t in ex.tokens)
        ranked = bos_rank(params, vocab, query, small_world.corpus, "max")
        score = dict(zip(ranked.ids, ranked.scores))[ex.entity_id]
        assert abs(score - 1.0) < 1e-6

    def test_mean_never_exceeds_max(self, zero_shot_setup, small_world):
        params = zero_shot_setup["dual"]
        query = small_world.queries[0].text
        mx = bos_rank(params, small_world.vocab, query, small_world.corpus, "max")
        mn = bos_rank(params, small_world.vocab, query, small_world.corpus, "mean")
        mx_scores = dict(zip(mx.ids, mx.scores))
        mn_scores = dict(zip(mn.ids, mn.scores))
        for eid in mx_scores:
            assert mn_scores[eid] <= mx_scores[eid] + 1e-12

    def test_two_entity_direct_computation(self, zero_shot_setup, small_world):
        params = zero_shot_setup["dual"]
        vocab = small_world.vocab
        corpus = [ex for ex in small_world.corpus if ex.entity_id in ("e0000", "e0001")]
        query = small_world.queries[0].text
        ranked = bos_rank(params, vocab, query, corpus, "max")

        from textent.text import tokenize
        def embed(tokens):
            row, segs = sentence_row(tokens, params.config)
            hidden, mask = encode_rows([row], [segs], params)
            return hidden[0][mask[0]].mean(axis=0)

        q_vec = embed(tokenize(query, vocab))
        expected = {}
        for eid in ("e0000", "e0001"):
            sims = []
            for ex in corpus:
                if ex.entity_id == eid:
                    v = embed(ex.tokens)
                    sims.append(float(np.dot(v, q_vec) /
                                      (np.linalg.norm(v) * np.linalg.norm(q_vec))))
            expected[eid] = max(sims)
        got = dict(zip(ranked.ids, ranked.scores))
        for eid in expected:
            assert abs(got[eid] - expected[eid]) < 1e-6


class TestTopTags:
    def test_matches_brute_force_sort(self):
        votes = TagVotes()
        votes.add("m1", "funny", 5)
        votes.add("m2", "funny", 2)
        votes.add("m1", "dark", 3)
        votes.add("m2", "slow", 1)
        order = top_tags_baseline(votes)
        totals = {"funny": 7, "dark": 3, "slow": 1}
        expected = sorted(totals, key=lambda t: (-totals[t], t))
        assert order == expected

    def test_restricted_to_training_entities(self):
        votes = TagVotes()
        votes.add("m1", "a", 1)
        votes.add("m2", "b", 10)
        order = top_tags_baseline(votes, entities=["m1"])
        assert order[0] == "a"

    def test_deterministic(self, small_world):
        assert top_tags_baseline(small_world.votes) == \
            top_tags_baseline(small_world.votes)


class TestReportBuilders:
    def test_tag_report_shape(self, small_world):
        tags = small_world.votes.tags
        entities = small_world.entity_ids[:4]
        rng = np.random.default_rng(0)
        scores = {e: {t: float(rng.random()) for t in tags} for e in entities}
        rows = evaluate_tag_scores(scores, small_world.votes,
                                   EvalConfig(precision_ks=(1, 5)), entities, tags)
        names = {(r["metric"], r["k"]) for r in rows}
        assert ("map", None) in names and ("auc", None) in names
        assert ("precision", 5) in names and ("ndcg", 1) in names
        for r in rows:
            assert 0.0 <= r["value"] <= 1.0 or math.isnan(r["value"])

    def test_ground_truth_scores_are_perfect(self, small_world):
        tags = small_world.votes.tags
        entities = small_world.entity_ids
        scores = {e: {t: float(small_world.votes.votes(e, t)) for t in tags}
                  for e in entities}
        rows = evaluate_tag_scores(scores, small_world.votes,
                                   EvalConfig(precision_ks=(1,)), entities, tags)
        by_name = {(r["metric"], r["k"]): r["value"] for r in rows}
        assert by_name[("auc", None)] > 0.999
        assert by_name[("map", None)] > 0.999

    def test_retrieval_report_counts_coverage(self):
        queries = [Query("q1", ["a"]), Query("q2", [])]
        ranked = [rank_items(["a", "b"], [2.0, 1.0]),
                  rank_items(["a", "b"], [2.0, 1.0])]
        rows = evaluate_retrieval(ranked, queries, EvalConfig(recall_ks=(1,)))
        by_name = {(r["metric"], r["k"]): r for r in rows}
        assert by_name[("mrr", None)]["value"] == 1.0
        assert by_name[("mrr", None)]["n"] == 1
        assert by_name[("coverage", None)]["value"] == 0.5


# -- the indexed baselines against their earlier per-query implementations ----------


class ReferenceTfidf:
    """The dict-of-counts TF-IDF that the sparse index replaced."""

    def __init__(self, corpus, vocab):
        self.vocab = vocab
        docs = {}
        for ex in corpus:
            counts = docs.setdefault(ex.entity_id, {})
            for t in ex.tokens:
                counts[t] = counts.get(t, 0) + 1
        self.entity_ids = sorted(docs)
        self.term_counts = docs
        df = {}
        for counts in docs.values():
            for t in counts:
                df[t] = df.get(t, 0) + 1
        n_docs = len(self.entity_ids)
        self.idf = {t: max(0.0, math.log(n_docs / (1.0 + d))) for t, d in df.items()}

    def tag_score(self, entity_id, tag):
        counts = self.term_counts.get(entity_id, {})
        return sum(counts.get(t, 0) * self.idf.get(t, 0.0)
                   for t in tokenize(tag, self.vocab))

    def rank_query(self, query):
        q_vec = {}
        for t in tokenize(query, self.vocab):
            q_vec[t] = q_vec.get(t, 0.0) + 1.0
        for t in q_vec:
            q_vec[t] *= self.idf.get(t, 0.0)
        q_norm = math.sqrt(sum(v * v for v in q_vec.values()))
        scores = []
        for entity_id in self.entity_ids:
            counts = self.term_counts[entity_id]
            dot = sum(q_vec.get(t, 0.0) * c * self.idf.get(t, 0.0)
                      for t, c in counts.items())
            d_norm = math.sqrt(sum((c * self.idf.get(t, 0.0)) ** 2
                                   for t, c in counts.items()))
            scores.append(0.0 if q_norm == 0.0 or d_norm == 0.0
                          else dot / (q_norm * d_norm))
        return rank_items(self.entity_ids, scores)


def reference_bos_rank(params, vocab, query, corpus, aggregation):
    """Bag-of-sentences as it was: every entity's sentences encoded per query."""
    cfg = params.config

    def embed(rows_tokens):
        out = []
        for lo in range(0, len(rows_tokens), 64):
            rows, segs = zip(*(sentence_row(t, cfg) for t in rows_tokens[lo: lo + 64]))
            hidden, mask = encode_rows(list(rows), list(segs), params)
            summed = (hidden * mask[:, :, None]).sum(axis=1)
            out.append(summed / mask.sum(axis=1, keepdims=True))
        return np.concatenate(out, axis=0)

    q_vec = embed([tokenize(query, vocab)])[0]
    q_vec = q_vec / np.linalg.norm(q_vec)
    by_entity = {}
    for ex in corpus:
        by_entity.setdefault(ex.entity_id, []).append(ex.tokens)
    scores = []
    for entity_id in sorted(by_entity):
        vecs = embed(by_entity[entity_id])
        sims = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)) @ q_vec
        scores.append(float(sims.max() if aggregation == "max" else sims.mean()))
    return rank_items(sorted(by_entity), scores)


def assert_same_ranking(got, want, tolerance=1e-6):
    assert got.ids == want.ids
    np.testing.assert_allclose(got.scores, want.scores, rtol=0.0, atol=tolerance)


class TestTfidfMatchesReference:
    def test_query_rankings_and_scores(self, small_world):
        index = TfidfIndex(small_world.corpus, small_world.vocab)
        reference = ReferenceTfidf(small_world.corpus, small_world.vocab)
        queries = [q.text for q in small_world.queries] + ["zzz unseen words"]
        for query in queries:
            assert_same_ranking(index.rank_query(query), reference.rank_query(query))

    def test_tag_scores_bit_identical(self, small_world):
        index = TfidfIndex(small_world.corpus, small_world.vocab)
        reference = ReferenceTfidf(small_world.corpus, small_world.vocab)
        tags = small_world.votes.tags
        tags = tags + [f"{tags[0]} {tags[1]}", "unseen phrase", ""]
        for entity_id in small_world.entity_ids:
            got = index.tag_scores(entity_id, tags)
            for tag in tags:
                want = reference.tag_score(entity_id, tag)
                assert got[tag] == want and type(got[tag]) is type(want), (entity_id, tag)

    @pytest.mark.parametrize("bad", [-1, 10_000])
    def test_out_of_vocabulary_ids_rejected(self, small_world, bad):
        corpus = small_world.corpus[:3] + [CorpusExample("e0000", [5, bad])]
        with pytest.raises(DataError, match="outside the vocabulary"):
            TfidfIndex(corpus, small_world.vocab)


@pytest.fixture
def many_bos_workers(monkeypatch):
    """More BoS workers than CPUs, whatever BLAS's thread count leaves free."""
    monkeypatch.setattr(evaluation, "_bos_workers", lambda: 4)


class TestBosZeroNorm:
    def test_zero_norm_sentence_names_the_entity(self, zero_shot_setup, small_world):
        params = zero_shot_setup["dual"].copy()
        params.tensors["layer0.ffn_ln_g"][:] = 0.0  # the last norm zeroes every state
        with pytest.raises(NumericError) as info:
            BosIndex(params, small_world.vocab, small_world.corpus)
        assert str(info.value).startswith(f"entity {min(small_world.entity_ids)!r}: ")
        assert "zero-norm sentence vector in row 0 " in str(info.value)

    def test_first_failing_entity_in_sorted_order_is_named(self, zero_shot_setup,
                                                           small_world, many_bos_workers):
        """Both entities fail. The first in sorted order comes last in the
        corpus and holds eight times the sentences, so its task finishes last;
        the error still names it."""
        params = zero_shot_setup["dual"].copy()
        params.tensors["layer0.ffn_ln_g"][:] = 0.0
        first, second = sorted(small_world.entity_ids)[:2]
        corpus = ([ex for ex in small_world.corpus if ex.entity_id == second]
                  + [ex for ex in small_world.corpus if ex.entity_id == first] * 8)
        with pytest.raises(NumericError) as info:
            BosIndex(params, small_world.vocab, corpus)
        assert str(info.value).startswith(f"entity {first!r}: ")

    def test_zero_norm_query_is_named(self, zero_shot_setup, small_world):
        params = zero_shot_setup["dual"].copy()
        index = BosIndex(params, small_world.vocab, small_world.corpus)
        params.tensors["layer0.ffn_ln_g"][:] = 0.0  # the index holds params by reference
        query = small_world.queries[0].text
        with pytest.raises(NumericError, match=re.escape(
                f"query {query!r} encodes to a zero-norm vector")):
            index.rank_query(query)


def serial_bos_matrix(params, corpus):
    """The index's matrix and spans built one entity after another."""
    by_entity = {}
    for ex in corpus:
        by_entity.setdefault(ex.entity_id, []).append(ex.tokens)
    blocks = [normalize_rows(autodiff.constant(evaluation._mean_pooled(by_entity[e], params)),
                             "sentence").data for e in sorted(by_entity)]
    bounds = np.cumsum([0] + [len(b) for b in blocks]).tolist()
    return np.concatenate(blocks, axis=0), list(zip(bounds[:-1], bounds[1:]))


class TestBosParallelBuild:
    @pytest.mark.parametrize("variant", ["dual", "hybrid"])
    def test_matrix_and_spans_equal_a_serial_build_bit_for_bit(
            self, zero_shot_setup, small_world, variant, many_bos_workers):
        params = zero_shot_setup[variant]
        matrix, spans = serial_bos_matrix(params, small_world.corpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the workers interleave as often as they can
        try:
            index = BosIndex(params, small_world.vocab, small_world.corpus)
        finally:
            sys.setswitchinterval(interval)
        assert index.matrix.dtype == matrix.dtype and index.matrix.shape == matrix.shape
        assert index.matrix.tobytes() == matrix.tobytes()
        assert index.spans == spans

    def test_no_worker_thread_outlives_the_build(self, zero_shot_setup, small_world,
                                                 many_bos_workers, monkeypatch):
        workers = set()
        mean_pooled = evaluation._mean_pooled

        def recorded(*args):
            workers.add(threading.current_thread())
            return mean_pooled(*args)

        monkeypatch.setattr(evaluation, "_mean_pooled", recorded)
        before = threading.active_count()
        BosIndex(zero_shot_setup["dual"], small_world.vocab, small_world.corpus)
        assert threading.active_count() == before
        assert workers and threading.main_thread() not in workers
        assert not any(t.is_alive() for t in workers)

    def test_one_worker_per_cpu_with_one_blas_thread(self):
        """The worker count reads BLAS's thread count from the library."""
        if not any((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                   .glob("libscipy_openblas*")):
            pytest.skip("numpy has no bundled OpenBLAS to ask")
        src = str(Path(evaluation.__file__).resolve().parents[1])
        code = (f"import os, sys; sys.path.insert(0, {src!r}); "
                "from textent import evaluation; "
                "print(evaluation._bos_workers(), len(os.sched_getaffinity(0)))")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        workers, cpus = run.stdout.split()
        assert workers == cpus


class TestBosMatchesReference:
    @pytest.mark.parametrize("aggregation", ["max", "mean"])
    def test_rankings_and_scores(self, zero_shot_setup, small_world, aggregation):
        params, vocab = zero_shot_setup["dual"], small_world.vocab
        index = BosIndex(params, vocab, small_world.corpus)
        for query in small_world.queries:
            want = reference_bos_rank(params, vocab, query.text, small_world.corpus,
                                      aggregation)
            assert_same_ranking(index.rank_query(query.text, aggregation), want)
            assert_same_ranking(bos_rank(params, vocab, query.text, small_world.corpus,
                                         aggregation), want)

    def test_in_place_parameter_update_is_not_served_stale(self, zero_shot_setup,
                                                           small_world):
        params = zero_shot_setup["dual"].copy()
        vocab, corpus = small_world.vocab, small_world.corpus
        query = small_world.queries[0].text
        before = bos_rank(params, vocab, query, corpus)
        params.tensors["layer0.ffn_w1"][:4] += np.float32(0.5)
        after = bos_rank(params, vocab, query, corpus)
        assert after.scores != before.scores
        assert_same_ranking(after, reference_bos_rank(params, vocab, query, corpus, "max"))

    def test_edited_sentence_is_not_served_stale(self, zero_shot_setup, small_world):
        params, vocab = zero_shot_setup["dual"], small_world.vocab
        corpus = [CorpusExample(ex.entity_id, list(ex.tokens)) for ex in small_world.corpus]
        query = small_world.queries[0].text
        before = bos_rank(params, vocab, query, corpus)
        corpus[0].tokens[:] = tokenize(query, vocab)  # in place: same list object
        after = bos_rank(params, vocab, query, corpus)
        assert dict(zip(after.ids, after.scores))[corpus[0].entity_id] == \
            pytest.approx(1.0, abs=1e-6)
        assert after.scores != before.scores
        assert_same_ranking(after, reference_bos_rank(params, vocab, query, corpus, "max"))

    def test_out_of_vocabulary_ids_rejected(self, zero_shot_setup, small_world):
        params = zero_shot_setup["dual"]
        corpus = [CorpusExample("e0000", [5, params.config.word_vocab_size])]
        with pytest.raises(DataError, match="outside the vocabulary"):
            BosIndex(params, small_world.vocab, corpus)
        with pytest.raises(DataError, match="outside the vocabulary"):
            bos_rank(params, small_world.vocab, small_world.queries[0].text, corpus)

    def test_bad_query_rejected_before_the_corpus_is_encoded(self, zero_shot_setup,
                                                             small_world, monkeypatch):
        def refuse(*args):
            raise AssertionError("the corpus was encoded")

        monkeypatch.setattr(evaluation, "encode_rows", refuse)
        params, vocab = zero_shot_setup["dual"], small_world.vocab
        with pytest.raises(DataError, match="empty after tokenization"):
            bos_rank(params, vocab, "", small_world.corpus)
        with pytest.raises(DataError, match="aggregation"):
            bos_rank(params, vocab, small_world.queries[0].text, small_world.corpus,
                     "median")
