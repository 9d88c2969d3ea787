"""Ranking metrics, zero-shot entity retrieval, and entity-less baselines.

Zero-shot retrieval reads a query the way fine-tuning reads a tag
(``finetune.EncodedTags``), against every entity at once.

Metrics consume ranks and labels only, so they are invariant under strictly
monotone transforms of the underlying scores. Ties in score are broken by
ascending item id everywhere, which keeps every ranking deterministic.

Vote counts double as graded relevance (NDCG gain is the raw count) and are
binarized by a strict threshold for the classification-style metrics:
label = 1 iff votes > threshold.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from . import autodiff
# Unused here, ``mlm_logits`` stays importable: the benchmark's tracer wraps
# ``evaluation.mlm_logits`` (and ``evaluation.encode_rows``) by name.
from .encoder import (ModelParams, encode_rows, mlm_logits,  # noqa: F401
                      normalize_rows, sentence_row, wrap_tensors)
from .errors import DataError, NumericError
from .finetune import EncodedTags
from .text import CorpusExample, Query, TagVotes, Vocabulary, tokenize


@dataclass
class EvalConfig:
    threshold: int = 2                       # strict: positive iff votes > threshold
    precision_ks: tuple[int, ...] = tuple(range(1, 21))
    recall_ks: tuple[int, ...] = (50, 100)
    bos_aggregation: str = "max"             # or "mean"

    def validate(self) -> None:
        if self.threshold < 0:
            raise DataError("threshold must be >= 0")
        if any(k < 1 for k in self.precision_ks + self.recall_ks):
            raise DataError("k values must be positive")
        if self.bos_aggregation not in ("max", "mean"):
            raise DataError("bos_aggregation must be 'max' or 'mean'")


def binarize(votes: int, threshold: int = 2) -> int:
    """1 iff votes strictly exceed the threshold."""
    if votes < 0:
        raise DataError("votes must be >= 0")
    return 1 if votes > threshold else 0


def relevance(votes: int) -> int:
    """Graded relevance is the raw vote count."""
    if votes < 0:
        raise DataError("votes must be >= 0")
    return votes


@dataclass
class RankedList:
    """Item ids in descending score order; score ties broken by id."""

    ids: list[str]
    scores: list[float]


def rank_items(ids: Sequence[str], scores: Sequence[float]) -> RankedList:
    if len(ids) != len(set(ids)):
        raise DataError("ranked item ids must be unique")
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return RankedList([ids[i] for i in order], [float(scores[i]) for i in order])


# -- metrics over rank-ordered labels -------------------------------------------


def precision_at_k(labels: Sequence[int], k: int) -> float:
    """Fraction of the top k that is positive.

    With fewer than k items the precision is computed over what exists (and
    flagged with a warning).
    """
    if k < 1:
        raise DataError("k must be >= 1")
    if len(labels) < k:
        warnings.warn(f"precision@{k} over only {len(labels)} items")
    top = labels[:k]
    if not len(top):
        return 0.0
    return float(sum(1 for l in top if l) / len(top))


def ndcg_at_k(relevances: Sequence[float], k: int) -> float:
    """DCG with gain = relevance and 1/log2(rank+1) discount, over ideal DCG.

    Returns 0 (flagged) when no relevance mass exists at all.
    """
    if k < 1:
        raise DataError("k must be >= 1")
    if any(r < 0 for r in relevances):
        raise DataError("relevances must be >= 0")

    def dcg(vals: Sequence[float]) -> float:
        return sum(v / math.log2(rank + 2) for rank, v in enumerate(vals[:k]))

    ideal = dcg(sorted(relevances, reverse=True))
    if ideal == 0.0:
        warnings.warn("ndcg undefined for all-zero relevances; returning 0")
        return 0.0
    return dcg(list(relevances)) / ideal


def average_precision(labels: Sequence[int]) -> float:
    """Mean over positive ranks of the precision at that rank."""
    hits = 0
    total = 0.0
    for rank, label in enumerate(labels, start=1):
        if label:
            hits += 1
            total += hits / rank
    if hits == 0:
        return 0.0
    return total / hits


def mean_average_precision(label_lists: Iterable[Sequence[int]]) -> float:
    """Mean AP over lists that contain at least one positive."""
    values = [average_precision(labels) for labels in label_lists
              if any(labels)]
    if not values:
        warnings.warn("no list with a positive label; MAP undefined, returning 0")
        return 0.0
    return float(np.mean(values))


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outscores a random negative (ties 1/2).

    Single-class labels are undefined: returns NaN with a warning so
    aggregations can skip them.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != len(labels):
        raise DataError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        warnings.warn("roc_auc undefined for single-class labels")
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reciprocal_rank(ranked_ids: Sequence[str], relevant: set[str]) -> float:
    for rank, item in enumerate(ranked_ids, start=1):
        if item in relevant:
            return 1.0 / rank
    return 0.0


def mrr(ranked_lists: Sequence[Sequence[str]], relevant_sets: Sequence[set[str]]) -> float:
    """Mean reciprocal rank over queries with a nonempty relevant set."""
    values = [reciprocal_rank(ranked, rel)
              for ranked, rel in zip(ranked_lists, relevant_sets) if rel]
    if not values:
        warnings.warn("no query with a nonempty relevant set")
        return 0.0
    return float(np.mean(values))


def recall_at_k(ranked_ids: Sequence[str], relevant: set[str], k: int) -> float:
    """|top-k intersect relevant| / |relevant|; NaN (flagged) when empty."""
    if k < 1:
        raise DataError("k must be >= 1")
    if not relevant:
        warnings.warn("recall undefined for an empty relevant set")
        return float("nan")
    top = set(ranked_ids[:k])
    return len(top & relevant) / len(relevant)


# -- zero-shot entity ranking -----------------------------------------------------


def zero_shot_rank(params: ModelParams, vocab: Vocabulary, query: str,
                   score_scale: float = 4.0) -> RankedList:
    """Rank every entity for a query with a pre-trained (not fine-tuned) model.

    The query is read as a tag before fine-tuning: dual and hybrid score the
    scaled cosine of its CLS encoding with each entity embedding, full the
    log p(entity | [CLS] [MASK] [SEP] query [SEP]). A zero-norm query or
    entity row is a ``NumericError`` naming the query and the row.
    """
    if not score_scale > 0:
        raise DataError(f"score_scale must be > 0, got {score_scale}")
    cfg = params.config
    tokens = _query_tokens(query, vocab)
    readout = "posterior" if cfg.variant == "full" else "cosine"
    try:
        encoded = EncodedTags.build(wrap_tensors(params), cfg, [tokens], readout)
        scores = encoded.logits(np.arange(cfg.entity_count), score_scale).data[0]
    except NumericError as exc:
        raise NumericError(f"query {query!r}: {exc}") from exc
    return rank_items(vocab.entity_ids, [float(s) for s in scores])


# -- entity-less baselines ---------------------------------------------------------


def _corpus_arrays(corpus: Sequence[CorpusExample], size: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-sentence lengths and all token ids, checked to lie in [0, size)."""
    lengths = np.fromiter((len(ex.tokens) for ex in corpus), np.int64, len(corpus))
    tokens = np.fromiter(chain.from_iterable(ex.tokens for ex in corpus), np.int64,
                         int(lengths.sum()))
    if tokens.size and (tokens.min() < 0 or tokens.max() >= size):
        bad = int(tokens[(tokens < 0) | (tokens >= size)][0])
        raise DataError(f"corpus token id {bad} outside the vocabulary [0, {size})")
    return lengths, tokens


def _query_tokens(query: str, vocab: Vocabulary) -> list[int]:
    q_tokens = tokenize(query, vocab)
    if not q_tokens:
        raise DataError("query is empty after tokenization")
    return q_tokens


def _check_aggregation(aggregation: str) -> None:
    if aggregation not in ("max", "mean"):
        raise DataError("aggregation must be 'max' or 'mean'")


class TfidfIndex:
    """Per-entity documents scored by raw term frequency times ln(N/(1+df)).

    The idf is clamped at zero so degenerate corpora cannot go negative;
    query ranking uses cosine over tf-idf vectors. The index is one sparse
    [entities, vocabulary] matrix of tf-idf weights with precomputed row
    norms, so a query is one sparse matrix-vector product.
    """

    def __init__(self, corpus: Sequence[CorpusExample], vocab: Vocabulary):
        self.vocab = vocab
        size = len(vocab)
        lengths, tokens = _corpus_arrays(corpus, size)
        self.entity_ids = sorted({ex.entity_id for ex in corpus})
        n_docs = len(self.entity_ids)
        self.row_of = {e: i for i, e in enumerate(self.entity_ids)}
        rows = np.repeat(np.fromiter((self.row_of[ex.entity_id] for ex in corpus),
                                     np.int64, len(corpus)), lengths)
        # count (entity, token) pairs by sorting their flat keys: row-major,
        # so the unique keys are already in CSR order
        keys, counts = np.unique(rows * size + tokens, return_counts=True)
        docs, cols = np.divmod(keys, size)
        indptr = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(np.bincount(docs, minlength=n_docs), out=indptr[1:])
        df = np.bincount(cols, minlength=size)
        # math.log, not np.log: the clamped idf stays bit-identical per token
        self.idf = np.array([max(0.0, math.log(n_docs / (1.0 + d))) if d else 0.0
                             for d in df.tolist()])
        weights = counts * self.idf[cols]
        self.weights = sparse.csr_matrix((weights, cols, indptr), shape=(n_docs, size))
        self.norms = np.sqrt(np.bincount(docs, weights=weights ** 2, minlength=n_docs))

    def _weights_of(self, entity_id: str) -> np.ndarray:
        """Dense tf-idf row of one entity; zeros for an entity with no text."""
        row = self.row_of.get(entity_id)
        if row is None:
            return np.zeros(len(self.idf))
        return self.weights[row].toarray()[0]

    def tag_scores(self, entity_id: str, tags: Sequence[str]) -> dict[str, float]:
        """Per tag, the sum of tf-idf over its tokens; 0 for unseen tags."""
        weights = self._weights_of(entity_id)
        return {tag: sum(float(weights[t]) for t in tokenize(tag, self.vocab))
                for tag in tags}

    def rank_query(self, query: str) -> RankedList:
        q_tokens = _query_tokens(query, self.vocab)
        q_vec = np.bincount(q_tokens, minlength=len(self.idf)) * self.idf
        denom = self.norms * math.sqrt(float(q_vec @ q_vec))
        dots = self.weights @ q_vec
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
        return rank_items(self.entity_ids, scores.tolist())


BOS_BATCH = 64  # sentences per forward pass when the corpus is encoded


def _mean_pooled(rows_tokens: Sequence[Sequence[int]], params: ModelParams) -> np.ndarray:
    """Mean of the non-pad token output vectors, one row per sentence."""
    cfg = params.config
    out = []
    for lo in range(0, len(rows_tokens), BOS_BATCH):
        chunk = rows_tokens[lo: lo + BOS_BATCH]
        rows, segs = zip(*(sentence_row(t, cfg) for t in chunk))
        hidden, mask = encode_rows(list(rows), list(segs), params)
        summed = (hidden * mask[:, :, None]).sum(axis=1)
        out.append(summed / mask.sum(axis=1, keepdims=True))
    return np.concatenate(out, axis=0)


class BosIndex:
    """Bag-of-sentences baseline: entities scored without entity embeddings.

    Sentence vectors are the mean of all (non-pad) token output vectors;
    score(entity) aggregates cosine(query, sentence) over the entity's
    sentences by max or mean. The corpus is encoded once, into a
    unit-normalised [sentences, hidden] matrix whose rows are grouped by
    entity; a query encodes only itself. The index holds the parameters by
    reference, so it is stale once they are updated in place.
    """

    def __init__(self, params: ModelParams, vocab: Vocabulary,
                 corpus: Sequence[CorpusExample]):
        self.params = params
        self.vocab = vocab
        _corpus_arrays(corpus, params.config.word_vocab_size)
        by_entity: dict[str, list[list[int]]] = {}
        for ex in corpus:
            by_entity.setdefault(ex.entity_id, []).append(ex.tokens)
        self.entity_ids = sorted(by_entity)
        # each entity is encoded in its own batches: a sentence's vector does
        # not depend on which other entities' sentences share its batch
        blocks = []
        for entity_id in self.entity_ids:
            vecs = autodiff.constant(_mean_pooled(by_entity[entity_id], params))
            try:
                blocks.append(normalize_rows(vecs, "sentence").data)
            except NumericError as exc:
                raise NumericError(f"entity {entity_id!r}: {exc}") from exc
        self.matrix = (np.concatenate(blocks, axis=0) if blocks
                       else np.zeros((0, params.config.hidden), dtype=np.float32))
        bounds = np.cumsum([0] + [len(b) for b in blocks]).tolist()
        self.spans = list(zip(bounds[:-1], bounds[1:]))

    def rank_query(self, query: str, aggregation: str = "max") -> RankedList:
        _check_aggregation(aggregation)
        q_tokens = _query_tokens(query, self.vocab)
        q_vec = _mean_pooled([q_tokens], self.params)[0]
        q_norm = np.linalg.norm(q_vec)
        if q_norm < 1e-8:  # the floor normalize_rows puts on the corpus side
            raise NumericError(f"query {query!r} encodes to a zero-norm vector")
        q_vec = q_vec / q_norm
        # one product per entity block: BLAS rounds a row's dot product
        # differently depending on where the row sits in the matrix
        reduce = np.max if aggregation == "max" else np.mean
        scores = [float(reduce(self.matrix[lo:hi] @ q_vec)) for lo, hi in self.spans]
        return rank_items(self.entity_ids, scores)


def bos_rank(params: ModelParams, vocab: Vocabulary, query: str,
             corpus: Sequence[CorpusExample], aggregation: str = "max") -> RankedList:
    """Rank entities for one query with a freshly built BosIndex.

    This encodes the whole corpus; to rank many queries against one
    checkpoint, build one BosIndex and call its ``rank_query``.
    """
    _check_aggregation(aggregation)
    _query_tokens(query, vocab)  # reject a bad query before encoding the corpus
    return BosIndex(params, vocab, corpus).rank_query(query, aggregation)


def top_tags_baseline(votes: TagVotes, entities: Sequence[str] | None = None) -> list[str]:
    """One fixed tag ordering (by total votes over the given entities)."""
    allowed = set(entities) if entities is not None else None
    totals = {t: 0 for t in votes.tags}
    for (e, t), c in votes.counts.items():
        if allowed is None or e in allowed:
            totals[t] += c
    return sorted(votes.tags, key=lambda t: (-totals[t], t))


# -- report builders -----------------------------------------------------------------


def evaluate_tag_scores(scores: Mapping[str, Mapping[str, float]], votes: TagVotes,
                        config: EvalConfig, entities: Sequence[str],
                        tags: Sequence[str]) -> list[dict]:
    """MAP/AUC plus precision@k and NDCG@k rows for an entity->tag->score map."""
    config.validate()
    label_lists = []
    relevance_lists = []
    aucs = []
    for entity_id in entities:
        per_tag = scores[entity_id]
        ranked = rank_items(list(tags), [per_tag[t] for t in tags])
        labels = [binarize(votes.votes(entity_id, t), config.threshold)
                  for t in ranked.ids]
        rels = [relevance(votes.votes(entity_id, t)) for t in ranked.ids]
        label_lists.append(labels)
        relevance_lists.append(rels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            aucs.append(roc_auc([per_tag[t] for t in tags],
                                [binarize(votes.votes(entity_id, t), config.threshold)
                                 for t in tags]))
    auc_values = [a for a in aucs if not math.isnan(a)]
    rows = [
        {"metric": "map", "k": None,
         "value": mean_average_precision(label_lists),
         "n": sum(1 for l in label_lists if any(l))},
        {"metric": "auc", "k": None,
         "value": float(np.mean(auc_values)) if auc_values else float("nan"),
         "n": len(auc_values)},
    ]
    for k in config.precision_ks:
        rows.append({"metric": "precision", "k": k,
                     "value": float(np.mean([precision_at_k(l, k) for l in label_lists])),
                     "n": len(label_lists)})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ndcgs = [ndcg_at_k(r, k) for r in relevance_lists]
        rows.append({"metric": "ndcg", "k": k,
                     "value": float(np.mean(ndcgs)), "n": len(ndcgs)})
    return rows


def evaluate_retrieval(ranked_lists: Sequence[RankedList], queries: Sequence[Query],
                       config: EvalConfig) -> list[dict]:
    """MRR and recall@k rows; queries with no relevant ids are skipped."""
    config.validate()
    ids = [r.ids for r in ranked_lists]
    rels = [set(q.relevant) for q in queries]
    covered = [i for i, r in enumerate(rels) if r]
    rows = [{"metric": "mrr", "k": None,
             "value": mrr(ids, rels), "n": len(covered)}]
    for k in config.recall_ks:
        vals = [recall_at_k(ids[i], rels[i], k) for i in covered]
        rows.append({"metric": "recall", "k": k,
                     "value": float(np.mean(vals)) if vals else float("nan"),
                     "n": len(vals)})
    if len(covered) < len(queries):
        rows.append({"metric": "coverage", "k": None,
                     "value": len(covered) / len(queries), "n": len(queries)})
    return rows


def write_report(path: str | Path, rows: Sequence[Mapping]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def dump_rankings(path: str | Path, queries: Sequence[Query],
                  ranked_lists: Sequence[RankedList], top_k: int = 20) -> None:
    """Per-query TSV dump (query index, rank, entity, score) for inspection."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query_index\trank\tentity_id\tscore\n")
        for qi, ranked in enumerate(ranked_lists):
            for rank, (entity_id, score) in enumerate(
                    zip(ranked.ids[:top_k], ranked.scores[:top_k]), start=1):
                fh.write(f"{qi}\t{rank}\t{entity_id}\t{score:.8g}\n")
