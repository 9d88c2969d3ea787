"""Tag-prediction fine-tuning for all three model variants.

Every observed (entity, tag) pair is a positive example weighted by its
vote count (or log thereof); per entity, a fixed fraction of the tag
vocabulary is sampled as negatives, excluding that entity's known
positives. One loop, ``run_finetune``, serves every variant: per
positive, cross-entropy of the tag under a softmax over it and the
entity's negatives (``tag_loss``). Entity embeddings stay frozen
throughout: their gradient rows (``entity_matrix`` of the gradients) are
zeroed before every optimizer step, and since fine-tuning starts from fresh
optimizer state the rows remain bit-identical.

Each variant reads a tag through what its pretraining learned about all
entities, so held-out entities are scored by the same readout. One class,
``EncodedTags``, holds the three named readouts: fine-tuning trains their
logits, tag scoring reads them, and zero-shot retrieval
(``evaluation.zero_shot_rank``) reads a query as a tag before fine-tuning.

  dual    ``cosine``: ``READ_SCALE`` times the cosine between the tag's CLS
          encoding and the entity embedding (the in-batch objective's
          score), one scale for training and for every read
  hybrid  ``head``: mean log-probability of the tag's tokens under the
          masked-word head, read at [CLS] [MASK]*n [SEP] with the entity
          embedding concatenated, as in the hybrid word term
  full    ``posterior``: log p(entity | [CLS] [MASK] [SEP] tag [SEP]) over
          the entity block, as in the full entity term

Two evaluation protocols: "closed" holds out entities, "open" holds out a
slice of the tag vocabulary (held-out tags never enter a training batch).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import autodiff
from .autodiff import Tensor
from .encoder import (ENTITY_POSITION, ModelConfig, ModelParams, cosine_head_tensors,
                      encode_tensors, entity_matrix, entity_row, flat_gather,
                      hybrid_head_tensors, mlm_head_tensors, normalize_rows, pad_rows,
                      sentence_row, wrap_tensors)
from .errors import DataError, NumericError, TrainingDiverged
from .numerics import AdamState, adam_step, value_and_grads
from .text import MASK, UNK, TagVotes, Vocabulary, tokenize

log = logging.getLogger(__name__)

WEIGHT_MODES = ("linear", "log1p")
PROTOCOLS = ("closed", "open")
# The cosine multiplier of the ``cosine`` readout, in fine-tuning and in every
# score read after it (tag scoring, zero-shot ranking). Metrics read only
# ranks; a power of two rescales the cosines exactly, so it creates no ties.
READ_SCALE = 4.0


@dataclass
class FinetuneConfig:
    negative_rate: float = 0.10     # fraction of the tag vocabulary per entity
    weight_mode: str = "log1p"
    epochs: int = 5
    lr: float = 3e-4                # 1e-3 overfits dual and full
    seed: int = 0
    holdout_fraction: float = 0.2
    protocol: str = "closed"

    def validate(self) -> None:
        if not 0.0 < self.negative_rate <= 1.0:
            raise DataError("negative_rate must be in (0, 1]")
        if self.weight_mode not in WEIGHT_MODES:
            raise DataError(f"unknown weight mode {self.weight_mode!r}")
        if self.protocol not in PROTOCOLS:
            raise DataError(f"unknown protocol {self.protocol!r}")
        if self.epochs < 0 or not 0.0 < self.holdout_fraction < 1.0:
            raise DataError("bad epochs or holdout_fraction")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DataError(f"lr must be finite and > 0, got {self.lr}")


def example_weight(votes: int, mode: str = "log1p") -> float:
    """Positive-pair weight: the vote count, or log(1 + votes)."""
    if votes < 1:
        raise DataError(f"positive example needs votes >= 1, got {votes}")
    if mode == "linear":
        return float(votes)
    if mode == "log1p":
        return float(np.log1p(votes))
    raise DataError(f"unknown weight mode {mode!r}")


def _negative_pool(entity_id: str, tag_vocab: Sequence[str], positives: Iterable[str],
                   rate: float) -> tuple[list[str], int]:
    """The sorted tags ``entity_id`` may draw as negatives, and how many."""
    pool = sorted(set(tag_vocab) - set(positives))
    if not pool:
        warnings.warn(f"no negative candidates left for {entity_id}")
    return pool, min(int(rate * len(tag_vocab)), len(pool))


def _draw_negatives(pool: Sequence[str], count: int,
                    rng: np.random.Generator) -> list[str]:
    """``count`` distinct tags of a non-empty ``pool``, in pool order."""
    picked = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(picked)]


def split_holdout(items: Sequence[str], fraction: float,
                  rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """Deterministic (train, held-out) split; both halves sorted."""
    items = sorted(items)
    n_hold = max(1, int(round(fraction * len(items))))
    if n_hold >= len(items):
        raise DataError("holdout fraction leaves no training items")
    perm = rng.permutation(len(items))
    held = sorted(items[i] for i in perm[:n_hold])
    train = sorted(items[i] for i in perm[n_hold:])
    return train, held


@dataclass
class FinetuneResult:
    params: ModelParams
    used_tags: set[str] = field(default_factory=set)
    metrics: list[dict] = field(default_factory=list)


def _tag_tokens(tag: str, vocab: Vocabulary) -> list[int]:
    """Token ids of a tag; a tag with no words reads as one [UNK]."""
    return tokenize(tag, vocab) or [UNK]


# -- the tag readout ----------------------------------------------------------------


def tag_softmax_loss(scores: Tensor, positive_count: int,
                     weights: np.ndarray) -> Tensor:
    """Weighted tag-softmax: each positive against the shared negatives.

    ``scores`` holds the positives first, then the negatives.
    """
    negatives = list(range(positive_count, scores.shape[0]))
    rows = np.asarray([[p] + negatives for p in range(positive_count)])
    logp = autodiff.log_softmax(scores[rows], axis=-1)
    w = np.asarray(weights, dtype=scores.dtype)
    return (logp[:, 0] * autodiff.constant(-w)).sum() / float(w.sum())


@dataclass
class MaskLayout:
    """[CLS] [MASK]*n [SEP] rows for reading tags off a masked-word head.

    One row per distinct tag length; a tag of n tokens reads token i at
    mask i of the n-mask row, and ``average`` maps token log-probabilities
    to per-tag means.
    """

    input_ids: np.ndarray       # [rows, L]
    segment_ids: np.ndarray
    pad_mask: np.ndarray
    token_rows: np.ndarray      # [tokens]: row of the mask each token is read at
    token_cols: np.ndarray      # [tokens]: its column
    token_ids: np.ndarray       # [tokens]: the token read there
    average: np.ndarray         # [tags, tokens]: 1/n over each tag's tokens

    @classmethod
    def for_tags(cls, token_lists: Sequence[Sequence[int]],
                 config: ModelConfig) -> "MaskLayout":
        token_lists = [list(t)[: config.max_seq_len - 2] for t in token_lists]
        lengths = sorted({len(t) for t in token_lists})
        row_of = {n: r for r, n in enumerate(lengths)}
        ids, segs, mask = pad_rows(*zip(*(sentence_row([MASK] * n, config)
                                          for n in lengths)))
        owners = [c for c, t in enumerate(token_lists) for _ in t]
        token_rows = [row_of[len(token_lists[c])] for c in owners]
        token_cols = [pos for t in token_lists for pos in range(1, len(t) + 1)]
        token_ids = [tok for t in token_lists for tok in t]
        average = np.zeros((len(token_lists), len(token_ids)))
        average[owners, np.arange(len(token_ids))] = [1.0 / len(token_lists[c])
                                                      for c in owners]
        as_int = lambda xs: np.asarray(xs, dtype=np.int64)
        return cls(ids, segs, mask, as_int(token_rows), as_int(token_cols),
                   as_int(token_ids), average)


# The readout a tag is read through, per variant: what its pretraining trained.
TAG_READOUT = {"dual": "cosine", "hybrid": "head", "full": "posterior"}


@dataclass
class EncodedTags:
    """Texts read through one readout, encoded once.

    ``build`` runs the part no entity changes; ``logits`` adds the
    per-entity arithmetic. Fine-tuning builds it on parameter tensors and
    trains on the logits; tag scoring and zero-shot retrieval build it once
    on constants and read the logits of the entities they rank.

      cosine     ``rows`` are the texts' unit CLS directions, scored by the
                 encoder's cosine head (dual and hybrid)
      head       ``rows`` are the encoder outputs at each text token's mask
                 in ``layout``, read by the hybrid masked-word head
      posterior  ``rows`` are log p(entity | [CLS] [MASK] [SEP] text [SEP])
                 over the entity block (full)
    """

    readout: str
    pt: Mapping[str, Tensor]
    rows: Tensor
    layout: MaskLayout | None = None

    @classmethod
    def build(cls, pt: Mapping[str, Tensor], cfg: ModelConfig,
              tokens: Sequence[Sequence[int]], readout: str) -> "EncodedTags":
        if readout == "head":
            layout = MaskLayout.for_tags(tokens, cfg)
            hidden = encode_tensors(pt, cfg, layout.input_ids, layout.segment_ids,
                                    layout.pad_mask)
            return cls(readout, pt,
                       flat_gather(hidden, layout.token_rows, layout.token_cols), layout)
        # cosine reads each text's [CLS], posterior its entity slot
        col = ENTITY_POSITION if readout == "posterior" else 0
        read = (np.arange(len(tokens)), np.full(len(tokens), col, dtype=np.int64))
        if readout == "posterior":
            rows = pad_rows(*zip(*(entity_row(MASK, t, cfg) for t in tokens)))
            logits = mlm_head_tensors(pt, encode_tensors(pt, cfg, *rows, read=read),
                                      slice(cfg.word_vocab_size, None))
            return cls(readout, pt, autodiff.log_softmax(logits, axis=-1))
        rows = pad_rows(*zip(*(sentence_row(t, cfg) for t in tokens)))
        return cls(readout, pt, normalize_rows(encode_tensors(pt, cfg, *rows, read=read),
                                               "text"))

    def logits(self, entities: Sequence[int] | np.ndarray) -> Tensor:
        """Scores [texts, len(entities)]; ``cosine`` is ``READ_SCALE`` x cosine."""
        if self.readout == "posterior":
            return self.rows[:, entities]
        if self.readout == "head":
            (entity_index,) = entities  # the hybrid head reads one entity
            n_tokens = len(self.layout.token_ids)
            logp = autodiff.log_softmax(
                hybrid_head_tensors(self.pt, self.rows, np.full(n_tokens, entity_index)),
                axis=-1)
            picked = logp[np.arange(n_tokens), self.layout.token_ids].reshape(n_tokens, 1)
            average = autodiff.constant(self.layout.average.astype(picked.dtype))
            return average @ picked
        return cosine_head_tensors(self.pt, self.rows, entities, READ_SCALE)


def tag_loss(pt: Mapping[str, Tensor], cfg: ModelConfig, tokens: Sequence[Sequence[int]],
             entity_index: int, positive_count: int, weights: np.ndarray) -> Tensor:
    """One entity's fine-tuning loss: the tag softmax over its readout.

    ``tokens`` lists the positive tags first, then the negatives.
    """
    encoded = EncodedTags.build(pt, cfg, tokens, TAG_READOUT[cfg.variant])
    scores = encoded.logits([entity_index])[:, 0]
    return tag_softmax_loss(scores, positive_count, weights)


def _finetune_plan(votes: TagVotes, tags: Sequence[str], train_entities: Sequence[str],
                   allowed_tags: set[str] | None, config: FinetuneConfig,
                   ) -> dict[str, tuple[list[str], np.ndarray, list[str], int]]:
    """Per training entity with an allowed positive and a negative to draw:
    its tag-sorted positives, their weights, its negative pool and the
    number of negatives a step draws from it."""
    by_entity = votes.positives_by_entity()
    plan = {}
    for entity_id in train_entities:
        pairs = [(t, c) for t, c in by_entity.get(entity_id, ())
                 if allowed_tags is None or t in allowed_tags]
        if not pairs:
            continue
        positives = [t for t, _ in pairs]
        pool, count = _negative_pool(entity_id, tags, positives, config.negative_rate)
        if pool:  # with none, a lone candidate is a certainty: zero loss, no step
            weights = np.asarray([example_weight(c, config.weight_mode) for _, c in pairs])
            plan[entity_id] = (positives, weights, pool, count)
    return plan


def run_finetune(params: ModelParams, votes: TagVotes, config: FinetuneConfig,
                 vocab: Vocabulary, train_entities: Sequence[str] | None = None,
                 allowed_tags: set[str] | None = None) -> FinetuneResult:
    """Tag-softmax fine-tuning of any variant; the input params are not changed.

    ``train_entities`` defaults to every entity with votes; ``allowed_tags``
    (open protocol) keeps every other tag out of training. Each training
    entity's tag-sorted positives and weights, its negative pool, the
    allowed tags and every tag's tokens are looked up once per call, so a
    step only draws its negatives. A non-finite loss or gradient raises
    ``TrainingDiverged`` naming the epoch and the entity.
    """
    config.validate()
    params = ModelParams(params.config, dict(params.tensors))  # for_params copies the tensors
    cfg = params.config
    if train_entities is None:
        train_entities = votes.entity_ids()
    tags = ([t for t in votes.tags if t in allowed_tags]
            if allowed_tags is not None else votes.tags)
    tag_tokens = {t: _tag_tokens(t, vocab) for t in tags}
    plan = _finetune_plan(votes, tags, train_entities, allowed_tags, config)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    state = AdamState.for_params(params.tensors, lr=config.lr)
    result = FinetuneResult(params)
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_entities))
        epoch_loss, steps = 0.0, 0
        for i in order:
            entity_id = train_entities[i]
            if entity_id not in plan:
                continue
            positives, weights, pool, count = plan[entity_id]
            negatives = _draw_negatives(pool, count, rng)
            if not negatives:
                continue  # a lone candidate is a certainty: zero loss, no step
            candidates = positives + negatives
            result.used_tags.update(candidates)
            tokens = [tag_tokens[t] for t in candidates]
            index = vocab.entity_index(entity_id)
            try:
                loss, grads = value_and_grads(
                    lambda pt: tag_loss(pt, cfg, tokens, index, len(positives), weights),
                    params.tensors)
                entity_matrix(ModelParams(cfg, grads))[:] = 0.0  # entities stay frozen
                adam_step(params.tensors, grads, state)
            except NumericError as exc:
                raise TrainingDiverged(
                    f"epoch {epoch + 1}, entity {entity_id!r}: {exc}") from exc
            epoch_loss += loss
            steps += 1
        result.metrics.append({"epoch": epoch + 1,
                               "loss": epoch_loss / max(steps, 1)})
        log.info("epoch %d  loss %.4f", epoch + 1, epoch_loss / max(steps, 1))
    return result


# -- scoring ---------------------------------------------------------------------


def _encode_tags(params: ModelParams, vocab: Vocabulary,
                 tags: Sequence[str]) -> EncodedTags:
    return EncodedTags.build(wrap_tensors(params), params.config,
                             [_tag_tokens(t, vocab) for t in tags],
                             TAG_READOUT[params.config.variant])


def predict_tag_scores(params: ModelParams, vocab: Vocabulary, entity_id: str,
                       tags: Sequence[str], *, encoded: EncodedTags) -> np.ndarray:
    """Score every tag for one entity; higher means more relevant.

    Full: the posterior p(entity | [CLS] [MASK] [SEP] tag [SEP]) over the
    entity block, in (0, 1). Hybrid: the geometric mean of the tag's token
    probabilities under the masked-word head at [CLS] [MASK]*n [SEP],
    conditioned on the entity embedding, in (0, 1). Dual: ``READ_SCALE``
    times the cosine between the entity embedding and the encoded tag.
    Scores are comparable across tags for one entity; evaluation consumes
    ranks.

    ``encoded`` holds ``tags`` encoded once, as ``score_tag_matrix``
    passes it for every entity; ``params`` and ``tags`` name what it was
    built from (the benchmark's tracer reads ``tags`` by position).
    """
    index = vocab.entity_index(entity_id)  # raises for unknown entities
    scores = encoded.logits([index]).data[:, 0]
    if encoded.readout == "cosine":
        return scores
    return np.exp(scores.astype(np.float64))


def score_tag_matrix(params: ModelParams, vocab: Vocabulary,
                     entities: Sequence[str], tags: Sequence[str]
                     ) -> dict[str, dict[str, float]]:
    """predict_tag_scores for many entities, keyed entity -> tag -> score.

    The tags are encoded once for all entities.
    """
    encoded = _encode_tags(params, vocab, tags)
    out: dict[str, dict[str, float]] = {}
    for entity_id in entities:
        scores = predict_tag_scores(params, vocab, entity_id, tags, encoded=encoded)
        out[entity_id] = {t: float(s) for t, s in zip(tags, scores)}
    return out


def export_predictions(path: str | Path, scores: Mapping[str, Mapping[str, float]]) -> None:
    """TSV of (entity_id, tag, score), entities sorted, scores descending."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("entity_id\ttag\tscore\n")
        for entity_id in sorted(scores):
            ranked = sorted(scores[entity_id].items(), key=lambda kv: (-kv[1], kv[0]))
            for tag, score in ranked:
                fh.write(f"{entity_id}\t{tag}\t{score:.8g}\n")
