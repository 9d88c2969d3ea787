"""Output checks written for the benchmark, independent of the code measured.

Each check returns ``None`` when the output is right and a one-line reason
when it is not; a wrong output counts as a failed operation.
"""

from __future__ import annotations

import math

import numpy as np

from textent import encoder, text


def check_losses(rows, steps: int) -> str | None:
    """One finite loss row per pretraining step, numbered 1..steps."""
    if len(rows) != steps:
        return f"{len(rows)} loss rows for {steps} steps"
    for expected, row in enumerate(rows, start=1):
        if row.get("step") != expected:
            return f"loss row {expected} is numbered {row.get('step')}"
        if not math.isfinite(row.get("loss", float("nan"))):
            return f"non-finite loss at step {expected}"
    return None


def check_frozen(before, after) -> str | None:
    """Entity-embedding rows are bit-identical after fine-tuning."""
    old = encoder.entity_matrix(before)
    new = encoder.entity_matrix(after)
    if old.shape != new.shape or old.tobytes() != new.tobytes():
        return "fine-tuning changed frozen entity embeddings"
    return None


def check_tag_scores(scores, entities, tags) -> str | None:
    """A finite score for every (entity, tag) pair, and nothing else."""
    if sorted(scores) != sorted(entities):
        return "tag scores do not cover exactly the requested entities"
    for entity_id in entities:
        row = scores[entity_id]
        if sorted(row) != sorted(tags):
            return f"tag scores for {entity_id} do not cover exactly the tag set"
        if not all(math.isfinite(s) for s in row.values()):
            return f"non-finite tag score for {entity_id}"
    return None


def check_ranking(ranked, entity_ids) -> str | None:
    """A permutation of every entity id in descending score order.

    Equal scores are ordered by ascending id, the ranking contract.
    """
    if len(ranked.ids) != len(ranked.scores):
        return "ranking has mismatched ids and scores"
    if sorted(ranked.ids) != sorted(entity_ids):
        return "ranking is not a permutation of the entity ids"
    if not all(math.isfinite(s) for s in ranked.scores):
        return "ranking has a non-finite score"
    for i in range(len(ranked.ids) - 1):
        a, b = ranked.scores[i], ranked.scores[i + 1]
        if a < b or (a == b and ranked.ids[i] > ranked.ids[i + 1]):
            return f"ranking out of order at position {i}"
    return None


class TfidfOracle:
    """Dense numpy recomputation of the TF-IDF cosine ranking."""

    TOLERANCE = 1e-9

    def __init__(self, corpus, vocab):
        self.vocab = vocab
        self.entity_ids = sorted({ex.entity_id for ex in corpus})
        row_of = {e: i for i, e in enumerate(self.entity_ids)}
        counts = np.zeros((len(self.entity_ids), len(vocab)), dtype=np.float64)
        for ex in corpus:
            np.add.at(counts[row_of[ex.entity_id]], np.asarray(ex.tokens, dtype=np.int64), 1.0)
        df = np.count_nonzero(counts, axis=0)
        idf = np.where(df > 0, np.log(len(self.entity_ids) / (1.0 + df)), 0.0)
        self.idf = np.maximum(idf, 0.0)
        self.weights = counts * self.idf
        self.norms = np.linalg.norm(self.weights, axis=1)

    def scores(self, query: str) -> np.ndarray:
        q = np.zeros(len(self.vocab), dtype=np.float64)
        np.add.at(q, np.asarray(text.tokenize(query, self.vocab), dtype=np.int64), 1.0)
        q *= self.idf
        denom = self.norms * np.linalg.norm(q)
        dots = self.weights @ q
        return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)

    def check(self, ranked, query: str) -> str | None:
        """Same scores (to rounding) and the same order up to rounding ties."""
        problem = check_ranking(ranked, self.entity_ids)
        if problem:
            return problem
        expected = dict(zip(self.entity_ids, self.scores(query)))
        got = [expected[e] for e in ranked.ids]
        if any(abs(g - s) > self.TOLERANCE for g, s in zip(got, ranked.scores)):
            return "TF-IDF scores differ from the numpy recomputation"
        if any(got[i] < got[i + 1] - self.TOLERANCE for i in range(len(got) - 1)):
            return "TF-IDF order differs from the numpy recomputation"
        return None


def check_zero_shot(ranked, params, vocab, query: str, score_scale: float = 4.0,
                    tolerance: float = 1e-5) -> str | None:
    """Ranking contract, plus brute-force cosine scores for dual and hybrid."""
    problem = check_ranking(ranked, vocab.entity_ids)
    if problem or params.config.variant == "full":
        return problem
    row, segs = encoder.sentence_row(text.tokenize(query, vocab), params.config)
    cls = encoder.encode(row, segs, params).cls_vector.astype(np.float64)
    table = encoder.entity_matrix(params).astype(np.float64)
    cosines = table @ cls / (np.linalg.norm(table, axis=1) * np.linalg.norm(cls))
    expected = dict(zip(vocab.entity_ids, score_scale * cosines))
    worst = max(abs(expected[e] - s) for e, s in zip(ranked.ids, ranked.scores))
    if worst > tolerance:
        return f"zero-shot score off the brute-force cosine by {worst:.3g}"
    return None
