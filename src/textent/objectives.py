"""Self-supervised training objectives and the pretraining loop.

Three losses over the shared encoder:

  dual    in-batch-negative softmax over scaled cosine scores between each
          sentence's CLS vector and the batch's (unique) entity embeddings
  full    masked-token cross-entropy on [CLS] entity [SEP] sentence [SEP]
          rows: an entity term (rows whose entity token was masked) plus a
          weighted word term, both over the entity-extended vocabulary
  hybrid  the dual term plus a masked-word term whose prediction input is
          the hidden state concatenated with the row's entity embedding

Each is one graph, ``<variant>_graph(pt, config, batch, train)``, that
returns the total loss with the realized entity and word terms;
``pretrain_loss`` takes the value and gradients of the model's variant's.

Cosine scores are multiplied by a score scale before the softmax; raw
cosines in [-1, 1] make the softmax nearly flat. The scale is monotone, so
it never changes how entities rank. It does bound the loss from below:
with n candidates, the target at cosine 1 and the rest at cosine 0 (many
entities in a few dimensions cannot all point away from each other), the
loss is log(1 + (n - 1) exp(-scale)). A batch of 96 sentences holds about
62 distinct entities, which puts that floor at about 0.72 nats at scale 4,
so the softmax stays flat however well the model ranks; at the default of
16 it is below 1e-5.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff
from .autodiff import Tensor
from .encoder import (ENTITY_POSITION, ModelConfig, ModelParams, cosine_head_tensors,
                      encode_tensors, entity_row, hybrid_head_tensors,
                      init_params, mlm_head_tensors, normalize_rows, pad_rows,
                      save_checkpoint, sentence_row)
from .errors import DataError, NumericError, TrainingDiverged
from .numerics import AdamState, adam_step, value_and_grads
from .text import CLS, MASK, PAD, SEP, CorpusExample, Vocabulary

log = logging.getLogger(__name__)

NEVER_MASKED = (PAD, CLS, SEP, MASK)


@dataclass
class TrainingConfig:
    batch_size: int = 32
    word_mask_rate: float = 0.15
    entity_mask_rate: float = 0.5
    loss_mix: float = 1.0       # weight of the masked-word term
    score_scale: float = 16.0   # cosine multiplier before the softmax
    steps: int = 2000
    seed: int = 0
    lr: float = 1e-3
    checkpoint_every: int = 0   # 0: final checkpoint only
    log_every: int = 100        # 0: no progress log

    def validate(self) -> None:
        if self.batch_size < 1 or self.steps < 0:
            raise DataError("batch_size must be >= 1 and steps >= 0")
        for name in ("word_mask_rate", "entity_mask_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DataError(f"{name} must be in [0, 1]")
        if not (math.isfinite(self.loss_mix) and self.loss_mix >= 0):
            raise DataError(f"loss_mix must be finite and >= 0, got {self.loss_mix}")
        for name in ("lr", "score_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{name} must be finite and > 0, got {value}")
        for name in ("checkpoint_every", "log_every"):
            value = getattr(self, name)
            if value < 0:
                raise DataError(f"{name} must be >= 0 (0: off), got {value}")


@dataclass
class MaskedBatch:
    input_ids: np.ndarray                 # [B, L], PAD-padded
    segment_ids: np.ndarray               # [B, L]
    pad_mask: np.ndarray                  # [B, L] bool, True at real tokens
    mask_positions: list[np.ndarray]      # per row: masked word positions
    mask_labels: list[np.ndarray]         # per row: original ids there
    entity_rows: np.ndarray               # [B] entity indices
    entity_masked: np.ndarray             # [B] bool (full layout only)

    @property
    def size(self) -> int:
        return self.input_ids.shape[0]


def mask_tokens(tokens: Sequence[int], rate: float,
                rng: np.random.Generator,
                maskable: Sequence[bool] | None = None,
                ) -> tuple[list[int], list[int], list[int]]:
    """Independently mask each eligible position with probability ``rate``.

    A ``NEVER_MASKED`` id is never eligible; pass ``maskable`` to restrict
    further (e.g. to the sentence span of a structured row).
    Returns (masked tokens, positions, original labels).
    """
    if not 0.0 <= rate <= 1.0:
        raise DataError("mask rate must be in [0, 1]")
    masked = list(tokens)
    hits = (rng.random(len(masked)) < rate).tolist()
    positions = [i for i, (t, hit) in enumerate(zip(masked, hits)) if hit
                 and t not in NEVER_MASKED and (maskable is None or maskable[i])]
    labels = [masked[i] for i in positions]
    for i in positions:
        masked[i] = MASK
    return masked, positions, labels


def build_batch(examples: Sequence[CorpusExample], vocab: Vocabulary,
                config: ModelConfig, rng: np.random.Generator | None = None,
                word_mask_rate: float = 0.0, entity_mask_rate: float = 0.0,
                ) -> MaskedBatch:
    """Pad a batch of corpus examples into the variant's input layout.

    A token id outside ``[0, word_vocab_size)`` is a ``DataError`` naming
    the entity: under ``full`` the ids past the words are entity tokens.
    """
    if not examples:
        raise DataError("empty batch")
    if rng is None and (word_mask_rate > 0 or entity_mask_rate > 0):
        raise DataError("masking requires an rng")
    rows, segs, positions, labels, ent_idx, ent_masked = [], [], [], [], [], []
    for ex in examples:
        idx = vocab.entity_index(ex.entity_id)
        if ex.tokens and not (min(ex.tokens) >= 0
                              and max(ex.tokens) < config.word_vocab_size):
            bad = next(t for t in ex.tokens if not 0 <= t < config.word_vocab_size)
            raise DataError(f"entity {ex.entity_id!r}: token id {bad} outside the "
                            f"word vocabulary [0, {config.word_vocab_size})")
        ent_idx.append(idx)
        if config.variant == "full":
            row, seg = entity_row(config.entity_token_id(idx), ex.tokens, config)
            first_word = ENTITY_POSITION + 2
            masked_entity = bool(entity_mask_rate and rng.random() < entity_mask_rate)
            if masked_entity:
                row[ENTITY_POSITION] = MASK
        else:
            row, seg = sentence_row(ex.tokens, config)
            first_word = 1
            masked_entity = False
        ent_masked.append(masked_entity)
        if word_mask_rate > 0:
            frame = [first_word <= i < len(row) - 1 for i in range(len(row))]
            row, pos, lab = mask_tokens(row, word_mask_rate, rng, maskable=frame)
        else:
            pos, lab = [], []
        rows.append(row)
        segs.append(seg)
        positions.append(np.asarray(pos, dtype=np.int64))
        labels.append(np.asarray(lab, dtype=np.int64))
    input_ids, segment_ids, pad_mask = pad_rows(rows, segs)
    return MaskedBatch(input_ids, segment_ids, pad_mask, positions, labels,
                       np.asarray(ent_idx, dtype=np.int64),
                       np.asarray(ent_masked, dtype=bool))


# -- losses -----------------------------------------------------------------------


@dataclass
class LossOutput:
    value: float
    entity_term: float
    mlm_term: float
    grads: dict[str, np.ndarray] = field(repr=False)


def _unique_candidates(entity_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate entities, keeping first-appearance order."""
    uniq, first = np.unique(entity_rows, return_index=True)
    order = np.argsort(first)
    candidates = uniq[order]
    position = {int(e): i for i, e in enumerate(candidates)}
    targets = np.asarray([position[int(e)] for e in entity_rows], dtype=np.int64)
    return candidates, targets


def _dual_term(pt: dict[str, Tensor], cls: Tensor, batch: MaskedBatch,
               score_scale: float) -> Tensor:
    """In-batch softmax over the rows' [CLS] states ``cls`` [B, H]."""
    candidates, targets = _unique_candidates(batch.entity_rows)
    scores = cosine_head_tensors(pt, normalize_rows(cls, "sentence"),
                                 candidates, score_scale)
    return _masked_ce(scores, targets)


def _masked_ce(logits: Tensor, labels: np.ndarray) -> Tensor:
    logp = autodiff.log_softmax(logits, axis=-1)
    picked = logp[np.arange(len(labels)), labels]
    return -picked.mean()


def _word_mask_indices(batch: MaskedBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.concatenate([np.full(len(p), i, dtype=np.int64)
                           for i, p in enumerate(batch.mask_positions)] or
                          [np.zeros(0, dtype=np.int64)])
    cols = np.concatenate([p for p in batch.mask_positions] or [np.zeros(0, dtype=np.int64)])
    labels = np.concatenate([l for l in batch.mask_labels] or [np.zeros(0, dtype=np.int64)])
    return rows, cols, labels


def _cls_read(batch: MaskedBatch) -> tuple[np.ndarray, np.ndarray]:
    """``encode_tensors`` read positions of every row's [CLS]."""
    return np.arange(batch.size), np.zeros(batch.size, dtype=np.int64)


def dual_graph(pt: dict[str, Tensor], config: ModelConfig, batch: MaskedBatch,
               train: TrainingConfig) -> tuple[Tensor, float, float]:
    """In-batch-negative softmax loss; the candidate set is the batch's
    unique entities, so a batch of one is a free win (loss 0)."""
    cls = encode_tensors(pt, config, batch.input_ids, batch.segment_ids,
                         batch.pad_mask, read=_cls_read(batch))
    loss = _dual_term(pt, cls, batch, train.score_scale)
    return loss, float(loss.data), 0.0


def full_graph(pt: dict[str, Tensor], config: ModelConfig, batch: MaskedBatch,
               train: TrainingConfig) -> tuple[Tensor, float, float]:
    """Entity-prediction plus masked-word cross-entropy over the extended
    vocabulary; each term is averaged over its own count and an absent term
    contributes zero.

    When no term carries weight the total is a constant 0, and when
    nothing is masked the encoder does not run. The encoder's last layer
    runs only at the masked entity slots, then the masked words.
    """
    ent_rows = np.flatnonzero(batch.entity_masked)
    w_rows, w_cols, w_labels = _word_mask_indices(batch)
    n_ent = len(ent_rows)
    if n_ent == 0 and len(w_rows) == 0:
        return autodiff.constant(0.0), 0.0, 0.0
    read = (np.concatenate([ent_rows, w_rows]),
            np.concatenate([np.full(n_ent, ENTITY_POSITION, dtype=np.int64), w_cols]))
    states = encode_tensors(pt, config, batch.input_ids, batch.segment_ids,
                            batch.pad_mask, read=read)
    terms: list[Tensor] = []
    entity_term = 0.0
    mlm_term = 0.0
    if n_ent:
        h = states[:n_ent]
        ent_labels = np.asarray(
            [config.entity_token_id(int(e)) for e in batch.entity_rows[ent_rows]],
            dtype=np.int64)
        ce = _masked_ce(mlm_head_tensors(pt, h), ent_labels)
        entity_term = float(ce.data)
        terms.append(ce)
    if len(w_rows):
        h = states[n_ent:]
        ce = _masked_ce(mlm_head_tensors(pt, h), w_labels)
        mlm_term = float(ce.data)
        if train.loss_mix != 0.0:
            terms.append(ce * train.loss_mix)
    if not terms:
        return autodiff.constant(0.0), entity_term, mlm_term
    total = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    return total, entity_term, mlm_term


def hybrid_graph(pt: dict[str, Tensor], config: ModelConfig, batch: MaskedBatch,
                 train: TrainingConfig) -> tuple[Tensor, float, float]:
    """Dual term plus masked-word cross-entropy through the concat head.

    With no masked positions (or loss_mix 0) this equals the dual loss on
    the same rows exactly: the encoder then reads only the [CLS] states, as
    dual's does. Otherwise it reads them and then the masked words.
    """
    w_rows, w_cols, w_labels = _word_mask_indices(batch)
    rows, cols = _cls_read(batch)
    states = encode_tensors(pt, config, batch.input_ids, batch.segment_ids,
                            batch.pad_mask, read=(np.concatenate([rows, w_rows]),
                                                  np.concatenate([cols, w_cols])))
    B = batch.size
    total = _dual_term(pt, states[:B], batch, train.score_scale)
    entity_term = float(total.data)
    mlm_term = 0.0
    if len(w_rows):
        ce = _masked_ce(hybrid_head_tensors(pt, states[B:], batch.entity_rows[w_rows]),
                        w_labels)
        mlm_term = float(ce.data)
        if train.loss_mix != 0.0:
            total = total + ce * train.loss_mix
    return total, entity_term, mlm_term


def pretrain_loss(batch: MaskedBatch, params: ModelParams,
                  train: TrainingConfig) -> LossOutput:
    """Value and gradients of the variant's loss, through ``value_and_grads``.

    The graph is looked up on this module at call time, so a wrapper set on
    ``objectives.<variant>_graph`` sees every call.
    """
    graph = globals()[f"{params.config.variant}_graph"]
    terms = {}

    def loss_fn(pt: dict[str, Tensor]) -> Tensor:
        total, terms["entity"], terms["mlm"] = graph(pt, params.config, batch, train)
        return total

    value, grads = value_and_grads(loss_fn, params.tensors)
    return LossOutput(value, terms["entity"], terms["mlm"], grads)


# -- pretraining loop ----------------------------------------------------------------


def pretrain(corpus: Sequence[CorpusExample], vocab: Vocabulary,
             model_config: ModelConfig, train_config: TrainingConfig,
             out_dir=None) -> tuple[ModelParams, list[dict]]:
    """Shuffled mini-batch training; deterministic for a fixed seed.

    Returns the trained parameters and one metrics row per step. Aborts
    with TrainingDiverged if the loss goes non-finite (naming the step and
    batch entities) or a gradient does (naming the step and parameter).
    """
    if not corpus:
        raise DataError("empty corpus")
    train_config.validate()
    model_config.validate()
    seeds = np.random.SeedSequence(train_config.seed).spawn(2)
    rng_init = np.random.default_rng(seeds[0])
    rng_data = np.random.default_rng(seeds[1])
    params = init_params(model_config, rng_init)
    state = AdamState.for_params(params.tensors, lr=train_config.lr)
    variant = model_config.variant
    if train_config.batch_size == 1 and variant in ("dual", "hybrid"):
        log.warning("batch_size=1 leaves no in-batch negatives; the entity term is 0")

    word_rate = 0.0 if variant == "dual" else train_config.word_mask_rate
    ent_rate = train_config.entity_mask_rate if variant == "full" else 0.0
    n = len(corpus)
    order = rng_data.permutation(n)
    cursor = 0
    metrics: list[dict] = []
    for step in range(1, train_config.steps + 1):
        if cursor + train_config.batch_size > n:
            order = rng_data.permutation(n)
            cursor = 0
        take = order[cursor: cursor + train_config.batch_size]
        cursor += train_config.batch_size
        examples = [corpus[i] for i in take]
        batch = build_batch(examples, vocab, model_config, rng=rng_data,
                            word_mask_rate=word_rate, entity_mask_rate=ent_rate)
        try:
            out = pretrain_loss(batch, params, train_config)
        except NumericError as exc:
            ids = sorted({ex.entity_id for ex in examples})
            raise TrainingDiverged(f"{exc} at step {step}; batch entities: {ids}") from exc
        try:
            adam_step(params.tensors, out.grads, state)
        except NumericError as exc:
            raise TrainingDiverged(f"step {step}: {exc}") from exc
        metrics.append({"step": step, "loss": out.value,
                        "loss_entity": out.entity_term, "loss_mlm": out.mlm_term})
        if train_config.log_every and step % train_config.log_every == 0:
            recent = [m["loss"] for m in metrics[-train_config.log_every:]]
            log.info("step %d  loss %.4f", step, float(np.mean(recent)))
        if (out_dir is not None and train_config.checkpoint_every
                and step % train_config.checkpoint_every == 0):
            save_checkpoint(params, Path(out_dir) / f"step_{step:06d}")
    if out_dir is not None:
        save_checkpoint(params, out_dir)
    return params, metrics
