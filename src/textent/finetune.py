"""Tag-prediction fine-tuning for all three model variants.

Every observed (entity, tag) pair is a positive example weighted by its
vote count (or log thereof); per entity, a fixed fraction of the tag
vocabulary is sampled as negatives, excluding that entity's known
positives. One loop serves every variant: per positive, cross-entropy of
the tag under a softmax over it and the entity's negatives. Entity
embeddings stay frozen throughout: their gradient rows are zeroed before
every optimizer step, and since fine-tuning starts from fresh optimizer
state the rows remain bit-identical.

Each variant scores a tag through what its pretraining learned about all
entities, so held-out entities are scored by the same readout:

  dual    scaled cosine between the tag's CLS encoding and the entity
          embedding (the in-batch objective's score)
  hybrid  mean log-probability of the tag's tokens under the masked-word
          head, read at [CLS] [MASK]*n [SEP] with the entity embedding
          concatenated, as in the hybrid word term
  full    log p(entity | [CLS] [MASK] [SEP] tag [SEP]) over the entity
          block, as in the full entity term

Two evaluation protocols: "closed" holds out entities, "open" holds out a
slice of the tag vocabulary (held-out tags never enter a training batch).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import autodiff
from .autodiff import Tensor
from .encoder import (ENTITY_POSITION, ModelConfig, ModelParams, encode_tensors,
                      entity_row, hybrid_head_tensors, mlm_head_tensors, pad_rows,
                      sentence_row, wrap_tensors)
from .errors import DataError, NumericError, TrainingDiverged
from .numerics import AdamState, adam_step, value_and_grads
from .objectives import _flat_gather, _normalize_rows
from .text import MASK, UNK, TagVotes, Vocabulary, tokenize

log = logging.getLogger(__name__)

WEIGHT_MODES = ("linear", "log1p")
PROTOCOLS = ("closed", "open")


@dataclass
class FinetuneConfig:
    negative_rate: float = 0.10     # fraction of the tag vocabulary per entity
    weight_mode: str = "log1p"
    epochs: int = 5
    lr: float = 3e-4                # 1e-3 overfits dual and full
    seed: int = 0
    holdout_fraction: float = 0.2
    protocol: str = "closed"
    score_scale: float = 4.0

    def validate(self) -> None:
        if not 0.0 < self.negative_rate <= 1.0:
            raise DataError("negative_rate must be in (0, 1]")
        if self.weight_mode not in WEIGHT_MODES:
            raise DataError(f"unknown weight mode {self.weight_mode!r}")
        if self.protocol not in PROTOCOLS:
            raise DataError(f"unknown protocol {self.protocol!r}")
        if self.epochs < 0 or not 0.0 < self.holdout_fraction < 1.0:
            raise DataError("bad epochs or holdout_fraction")


def example_weight(votes: int, mode: str = "log1p") -> float:
    """Positive-pair weight: the vote count, or log(1 + votes)."""
    if votes < 1:
        raise DataError(f"positive example needs votes >= 1, got {votes}")
    if mode == "linear":
        return float(votes)
    if mode == "log1p":
        return float(np.log1p(votes))
    raise DataError(f"unknown weight mode {mode!r}")


def sample_negatives(entity_id: str, tag_vocab: Sequence[str],
                     positives: Iterable[str], rate: float,
                     rng: np.random.Generator) -> list[str]:
    """Draw ``floor(rate * len(tag_vocab))`` tags uniformly, never positives."""
    if not 0.0 < rate <= 1.0:
        raise DataError("negative rate must be in (0, 1]")
    pool = sorted(set(tag_vocab) - set(positives))
    if not pool:
        warnings.warn(f"no negative candidates left for {entity_id}")
        return []
    count = min(int(rate * len(tag_vocab)), len(pool))
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


def _frozen_entity_grad_zero(params: ModelParams, grads: dict[str, np.ndarray]) -> None:
    cfg = params.config
    if cfg.variant == "full":
        grads["token_emb"][cfg.word_vocab_size:] = 0.0
    else:
        grads["entity_table"][:] = 0.0


def _tag_tokens(tag: str, vocab: Vocabulary) -> list[int]:
    """Token ids of a tag; a tag with no words reads as one [UNK]."""
    return tokenize(tag, vocab) or [UNK]


def _step_data(votes: TagVotes, entity_id: str, allowed_tags: set[str] | None,
               config: FinetuneConfig, rng: np.random.Generator,
               ) -> tuple[list[tuple[str, float]], list[str]]:
    """Weighted positives and sampled negatives for one entity step."""
    vocab_tags = ([t for t in votes.tags if t in allowed_tags]
                  if allowed_tags is not None else votes.tags)
    positives = [(t, example_weight(c, config.weight_mode))
                 for t, c in votes.positives(entity_id)
                 if allowed_tags is None or t in allowed_tags]
    if not positives:
        return [], []
    negatives = sample_negatives(entity_id, vocab_tags,
                                 [t for t, _ in positives],
                                 config.negative_rate, rng)
    return positives, negatives


# -- per-variant tag scores as graphs ----------------------------------------------


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


def cosine_tag_scores(pt, config, input_ids, segment_ids, pad_mask,
                      entity_index: int, score_scale: float) -> Tensor:
    """Dual: scaled cosine between each encoded tag's CLS and the entity."""
    directions = _tag_directions(pt, config, input_ids, segment_ids, pad_mask)
    return _cosine_against(pt, directions, entity_index, score_scale)


def _tag_directions(pt, config, input_ids, segment_ids, pad_mask) -> Tensor:
    """Unit-length CLS encodings of the tag rows: dual's entity-free part."""
    hidden, _ = encode_tensors(pt, config, input_ids, segment_ids, pad_mask)
    return _normalize_rows(hidden[:, 0], "tag")


def _cosine_against(pt, directions: Tensor, entity_index: int,
                    score_scale: float) -> Tensor:
    ent_n = _normalize_rows(pt["entity_table"][np.asarray([entity_index])], "entity")
    return (directions @ ent_n.transpose(1, 0)).reshape(directions.shape[0]) * score_scale


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


def head_tag_scores(pt, config, layout: MaskLayout, entity_index: int) -> Tensor:
    """Hybrid: mean log-probability of each tag's tokens under the
    entity-conditioned masked-word head, read at [CLS] [MASK]*n [SEP]."""
    return _head_scores_at(pt, layout, _mask_states(pt, config, layout), entity_index)


def _mask_states(pt, config, layout: MaskLayout) -> Tensor:
    """Encoder output at every mask a tag token is read at: hybrid's
    entity-free part."""
    hidden, _ = encode_tensors(pt, config, layout.input_ids, layout.segment_ids,
                               layout.pad_mask)
    return _flat_gather(hidden, layout.token_rows, layout.token_cols)


def _head_scores_at(pt, layout: MaskLayout, h: Tensor, entity_index: int) -> Tensor:
    n_tokens = len(layout.token_ids)
    ent = pt["entity_table"][np.full(n_tokens, entity_index)]
    logp = autodiff.log_softmax(
        hybrid_head_tensors(pt, autodiff.concat([h, ent], axis=-1)), axis=-1)
    picked = logp[np.arange(n_tokens), layout.token_ids].reshape(n_tokens, 1)
    average = autodiff.constant(layout.average.astype(picked.dtype))
    return (average @ picked).reshape(len(layout.average))


def posterior_log_probs(pt, config, input_ids, segment_ids, pad_mask) -> Tensor:
    """Full: log p(entity | [CLS] [MASK] [SEP] tag [SEP]) over the entity
    block, one row per tag: the direction pretraining trained."""
    hidden, _ = encode_tensors(pt, config, input_ids, segment_ids, pad_mask)
    entities = slice(config.word_vocab_size, None)
    logits = mlm_head_tensors(pt, hidden[:, ENTITY_POSITION], entities)
    return autodiff.log_softmax(logits, axis=-1)


def binary_tag_graph(pt, config, input_ids, segment_ids, pad_mask,
                     labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted logistic loss of the CLS classifier over (entity, tag) rows.

    Fine-tuning does not use it: a head trained on the fine-tuning entities
    alone does not carry over to held-out ones. Full checkpoints still hold
    the head's parameters.
    """
    hidden, _ = encode_tensors(pt, config, input_ids, segment_ids, pad_mask)
    logits = (hidden[:, 0] @ pt["cls_w"] + pt["cls_b"]).reshape(len(labels))
    sign = autodiff.constant(np.asarray(1.0 - 2.0 * labels, dtype=logits.dtype))
    per_example = autodiff.softplus(logits * sign)
    w = np.asarray(weights, dtype=per_example.dtype)
    return (per_example * autodiff.constant(w)).sum() / float(w.sum())


def softmax_tag_graph(pt, config, input_ids, segment_ids, pad_mask,
                      entity_index: int, positive_count: int,
                      weights: np.ndarray, score_scale: float) -> Tensor:
    """Dual fine-tuning loss: tag-softmax over scaled cosine scores."""
    scores = cosine_tag_scores(pt, config, input_ids, segment_ids, pad_mask,
                               entity_index, score_scale)
    return tag_softmax_loss(scores, positive_count, weights)


def head_tag_graph(pt, config, layout: MaskLayout, entity_index: int,
                   positive_count: int, weights: np.ndarray) -> Tensor:
    """Hybrid fine-tuning loss: tag-softmax over masked-word head scores."""
    return tag_softmax_loss(head_tag_scores(pt, config, layout, entity_index),
                            positive_count, weights)


def posterior_tag_graph(pt, config, input_ids, segment_ids, pad_mask,
                        entity_index: int, positive_count: int,
                        weights: np.ndarray) -> Tensor:
    """Full fine-tuning loss: tag-softmax over log p(entity | tag)."""
    logp = posterior_log_probs(pt, config, input_ids, segment_ids, pad_mask)
    return tag_softmax_loss(logp[:, entity_index], positive_count, weights)


def _posterior_rows(tokens: Sequence[Sequence[int]], config: ModelConfig):
    return pad_rows(*zip(*(entity_row(MASK, t, config) for t in tokens)))


def _sentence_rows(tokens: Sequence[Sequence[int]], config: ModelConfig):
    return pad_rows(*zip(*(sentence_row(t, config) for t in tokens)))


def _step_graph(cfg: ModelConfig, tokens: list[list[int]], entity_index: int,
                positive_count: int, weights: np.ndarray, config: FinetuneConfig):
    """The variant's fine-tuning loss for one entity, as a function of the
    parameter tensors."""
    if cfg.variant == "hybrid":
        layout = MaskLayout.for_tags(tokens, cfg)
        return lambda pt: head_tag_graph(pt, cfg, layout, entity_index,
                                         positive_count, weights)
    if cfg.variant == "full":
        rows = _posterior_rows(tokens, cfg)
        return lambda pt: posterior_tag_graph(pt, cfg, *rows, entity_index,
                                              positive_count, weights)
    rows = _sentence_rows(tokens, cfg)
    return lambda pt: softmax_tag_graph(pt, cfg, *rows, entity_index,
                                        positive_count, weights, config.score_scale)


def _finetune(params: ModelParams, votes: TagVotes, config: FinetuneConfig,
              vocab: Vocabulary, train_entities: Sequence[str] | None,
              allowed_tags: set[str] | None) -> FinetuneResult:
    config.validate()
    params = params.copy()
    cfg = params.config
    if train_entities is None:
        train_entities = votes.entity_ids()
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    state = AdamState.for_params(params.tensors, lr=config.lr)
    result = FinetuneResult(params)
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_entities))
        epoch_loss, steps = 0.0, 0
        for i in order:
            entity_id = train_entities[i]
            positives, negatives = _step_data(votes, entity_id, allowed_tags, config, rng)
            if not positives or not negatives:
                continue  # a lone candidate is a certainty: zero loss, no step
            candidates = [t for t, _ in positives] + negatives
            result.used_tags.update(candidates)
            loss_fn = _step_graph(cfg, [_tag_tokens(t, vocab) for t in candidates],
                                  vocab.entity_index(entity_id), len(positives),
                                  np.asarray([w for _, w in positives]), config)
            try:
                loss, grads = value_and_grads(loss_fn, params.tensors)
                _frozen_entity_grad_zero(params, grads)
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


def finetune_full(params: ModelParams, votes: TagVotes, config: FinetuneConfig,
                  vocab: Vocabulary, train_entities: Sequence[str] | None = None,
                  allowed_tags: set[str] | None = None) -> FinetuneResult:
    """Tag-softmax fine-tuning of the full variant through log p(entity | tag)."""
    if params.config.variant != "full":
        raise DataError("finetune_full needs a full-variant checkpoint")
    return _finetune(params, votes, config, vocab, train_entities, allowed_tags)


def finetune_dual(params: ModelParams, votes: TagVotes, config: FinetuneConfig,
                  vocab: Vocabulary, train_entities: Sequence[str] | None = None,
                  allowed_tags: set[str] | None = None) -> FinetuneResult:
    """Tag-softmax fine-tuning of the dual and hybrid variants.

    Per positive (entity, tag): cross-entropy of the tag under a softmax
    over the tag plus the entity's sampled negatives. Dual scores a tag by
    the scaled cosine between its encoding and the frozen entity embedding;
    hybrid by the tag's mean log-probability under the entity-conditioned
    masked-word head.
    """
    if params.config.variant not in ("dual", "hybrid"):
        raise DataError("finetune_dual needs a dual- or hybrid-variant checkpoint")
    return _finetune(params, votes, config, vocab, train_entities, allowed_tags)


def run_finetune(params: ModelParams, votes: TagVotes, config: FinetuneConfig,
                 vocab: Vocabulary, train_entities: Sequence[str] | None = None,
                 allowed_tags: set[str] | None = None) -> FinetuneResult:
    """Dispatch to the variant's fine-tuning strategy.

    A non-finite loss or gradient raises ``TrainingDiverged`` naming the
    epoch and the entity.
    """
    if params.config.variant == "full":
        return finetune_full(params, votes, config, vocab, train_entities, allowed_tags)
    return finetune_dual(params, votes, config, vocab, train_entities, allowed_tags)


# -- scoring ---------------------------------------------------------------------


@dataclass
class EncodedTags:
    """The part of scoring a tag list that no entity changes, encoded once.

    Dual keeps the tags' unit CLS directions, hybrid the encoder output at
    each tag token's mask, full the posterior log p(entity | tag) over the
    entity block. ``scores`` adds the per-entity arithmetic on top.
    """

    variant: str
    pt: dict[str, Tensor]
    rows: Tensor
    layout: MaskLayout | None = None

    @classmethod
    def build(cls, params: ModelParams, vocab: Vocabulary,
              tags: Sequence[str]) -> "EncodedTags":
        cfg = params.config
        tokens = [_tag_tokens(t, vocab) for t in tags]
        pt = wrap_tensors(params, trainable=False)
        if cfg.variant == "full":
            return cls(cfg.variant, pt,
                       posterior_log_probs(pt, cfg, *_posterior_rows(tokens, cfg)))
        if cfg.variant == "hybrid":
            layout = MaskLayout.for_tags(tokens, cfg)
            return cls(cfg.variant, pt, _mask_states(pt, cfg, layout), layout)
        return cls(cfg.variant, pt, _tag_directions(pt, cfg, *_sentence_rows(tokens, cfg)))

    def scores(self, entity_index: int, score_scale: float) -> np.ndarray:
        if self.variant == "full":
            return np.exp(self.rows.data[:, entity_index].astype(np.float64))
        if self.variant == "hybrid":
            mean_logp = _head_scores_at(self.pt, self.layout, self.rows, entity_index).data
            return np.exp(mean_logp.astype(np.float64))
        return _cosine_against(self.pt, self.rows, entity_index, score_scale).data


def predict_tag_scores(params: ModelParams, vocab: Vocabulary, entity_id: str,
                       tags: Sequence[str], score_scale: float = 4.0, *,
                       encoded: EncodedTags | None = None) -> np.ndarray:
    """Score every tag for one entity; higher means more relevant.

    Full: the posterior p(entity | [CLS] [MASK] [SEP] tag [SEP]) over the
    entity block, in (0, 1). Hybrid: the geometric mean of the tag's token
    probabilities under the masked-word head at [CLS] [MASK]*n [SEP],
    conditioned on the entity embedding, in (0, 1). Dual: scaled cosine
    between the entity embedding and the encoded tag. Scores are comparable
    across tags for one entity; evaluation consumes ranks.

    ``score_tag_matrix`` passes ``encoded``, its one
    ``EncodedTags.build(params, vocab, tags)``, for every entity.
    """
    index = vocab.entity_index(entity_id)  # raises for unknown entities
    if encoded is None:
        encoded = EncodedTags.build(params, vocab, tags)
    return encoded.scores(index, score_scale)


def score_tag_matrix(params: ModelParams, vocab: Vocabulary,
                     entities: Sequence[str], tags: Sequence[str],
                     score_scale: float = 4.0) -> dict[str, dict[str, float]]:
    """predict_tag_scores for many entities, keyed entity -> tag -> score.

    The tags are encoded once for all entities.
    """
    encoded = EncodedTags.build(params, vocab, tags)
    out: dict[str, dict[str, float]] = {}
    for entity_id in entities:
        scores = predict_tag_scores(params, vocab, entity_id, tags, score_scale,
                                    encoded=encoded)
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
