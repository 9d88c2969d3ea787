"""Miniature transformer encoder with entity embeddings and output heads.

The encoder is a standard bidirectional transformer: summed token/position/
segment embeddings through layer norm, then post-norm residual blocks of
multi-head self-attention and a GELU feed-forward. Three model variants
share it:

  dual    separate entity embedding table, scored against the CLS output
          by cosine similarity
  full    entity tokens live inside an extended input vocabulary and
          cross-attend with sentence tokens; masked-token prediction uses
          the tied head, a projection tied to the input embedding matrix,
          which is full's alone
  hybrid  dual's separate table, plus its own masked-token head whose
          input is the hidden state concatenated with the entity embedding
          (its projection is untied: the input width differs)

A checkpoint is one file, ``model.safetensors``, in the safetensors layout:
an 8-byte little-endian header length, a UTF-8 JSON header holding the
config under ``__metadata__`` and each tensor's dtype (``F32`` or ``F64``),
shape and ``data_offsets``, then the raw little-endian data packed in name
order. Loading checks the header against the config. Saving writes a
temporary file, fsyncs it and renames it into place, so a failed save leaves
the previous checkpoint loadable. Older checkpoints (a ``manifest.json`` and
one file per tensor) are rejected.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff
from .autodiff import Tensor
from .errors import DataError, NumericError
from .text import CLS, PAD, SEP, Vocabulary, _row_problem, parse_json_object

VARIANTS = ("dual", "full", "hybrid")


@dataclass
class ModelConfig:
    layers: int = 2
    heads: int = 4
    hidden: int = 64
    ffn_hidden: int = 256
    max_seq_len: int = 64
    vocab_size: int = 0
    entity_count: int = 0
    entity_dim: int = 64
    variant: str = "dual"

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}")
        if self.layers < 0 or self.heads < 1 or self.hidden < 2:
            raise DataError("bad encoder dimensions")
        if self.hidden % self.heads != 0:
            raise DataError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.ffn_hidden < 1:
            raise DataError(f"ffn_hidden must be >= 1, got {self.ffn_hidden}")
        if self.max_seq_len < 4:  # the shortest full row: [CLS] entity [SEP] [SEP]
            raise DataError(f"max_seq_len must be >= 4, got {self.max_seq_len}")
        if self.vocab_size < 5:
            raise DataError("vocab_size must cover the reserved specials")
        if self.entity_count < 1:
            raise DataError("entity_count must be >= 1")
        # entity rows are read against hidden states: full's entity tokens share
        # token_emb, and the cosine head pairs dual/hybrid rows with the CLS vector
        if self.entity_dim != self.hidden:
            raise DataError(f"entity_dim {self.entity_dim} must equal hidden {self.hidden}")
        if self.variant == "full" and self.vocab_size <= self.entity_count:
            raise DataError("full variant stores entity tokens inside vocab_size")

    @property
    def word_vocab_size(self) -> int:
        """Input ids below this are word/special tokens."""
        if self.variant == "full":
            return self.vocab_size - self.entity_count
        return self.vocab_size

    def entity_token_id(self, entity_index: int) -> int:
        if self.variant != "full":
            raise DataError("entity tokens only exist in the full variant")
        if not 0 <= entity_index < self.entity_count:
            raise DataError(f"entity index {entity_index} out of range")
        return self.word_vocab_size + entity_index

    @classmethod
    def for_vocab(cls, vocab: Vocabulary, variant: str, **overrides) -> "ModelConfig":
        """Desk-scale config sized to a vocabulary; ``entity_dim`` follows ``hidden``."""
        size = len(vocab) if variant == "full" else vocab.word_size
        overrides.setdefault("entity_dim", overrides.get("hidden", cls.hidden))
        cfg = cls(vocab_size=size, entity_count=vocab.entity_count, variant=variant,
                  **overrides)
        cfg.validate()
        return cfg


def expected_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    h, f, v = config.hidden, config.ffn_hidden, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "token_emb": (v, h),
        "pos_emb": (config.max_seq_len, h),
        "seg_emb": (2, h),
        "emb_ln_g": (h,),
        "emb_ln_b": (h,),
    }
    for i in range(config.layers):
        pre = f"layer{i}."
        for name in ("q", "k", "v", "o"):
            shapes[pre + f"attn_{name}_w"] = (h, h)
            shapes[pre + f"attn_{name}_b"] = (h,)
        shapes[pre + "attn_ln_g"] = (h,)
        shapes[pre + "attn_ln_b"] = (h,)
        shapes[pre + "ffn_w1"] = (h, f)
        shapes[pre + "ffn_b1"] = (f,)
        shapes[pre + "ffn_w2"] = (f, h)
        shapes[pre + "ffn_b2"] = (h,)
        shapes[pre + "ffn_ln_g"] = (h,)
        shapes[pre + "ffn_ln_b"] = (h,)
    if config.variant in ("dual", "hybrid"):
        shapes["entity_table"] = (config.entity_count, config.entity_dim)
    if config.variant == "full":
        # transform (dense + GELU + norm), then a projection tied to token_emb
        shapes["mlm_dense_w"] = (h, h)
        shapes["mlm_dense_b"] = (h,)
        shapes["mlm_ln_g"] = (h,)
        shapes["mlm_ln_b"] = (h,)
        shapes["mlm_out_b"] = (v,)
    if config.variant == "hybrid":
        # the tied head's structure over the concatenated input, untied
        shapes["hyb_dense_w"] = (h + config.entity_dim, h)
        shapes["hyb_dense_b"] = (h,)
        shapes["hyb_ln_g"] = (h,)
        shapes["hyb_ln_b"] = (h,)
        shapes["hyb_out_w"] = (h, v)
        shapes["hyb_out_b"] = (v,)
    return shapes


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


@dataclass
class ModelParams:
    """Every learnable tensor of one model, keyed by name."""

    config: ModelConfig
    tensors: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.config, {k: v.astype(dtype) for k, v in self.tensors.items()})


INIT_STD = 0.02  # of every initialized weight matrix and embedding


def init_params(config: ModelConfig, seed: int | np.random.Generator = 0,
                dtype=np.float32) -> ModelParams:
    """Truncated-normal initialization (``INIT_STD``, cut at two std)."""
    config.validate()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(config).items():
        if name.endswith("_ln_g"):
            tensors[name] = np.ones(shape, dtype=dtype)
        elif name.endswith(("_b", "_ln_b")):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = _trunc_normal(rng, shape, INIT_STD, dtype)
    if "entity_table" in tensors:
        norms = np.linalg.norm(tensors["entity_table"], axis=1)
        if not np.all(norms > 0):
            raise NumericError("entity table initialized with a zero row")
    return ModelParams(config, tensors)


# -- forward pass ---------------------------------------------------------------


@dataclass
class EncoderOutput:
    hidden_states: np.ndarray            # [seq_len, hidden]
    cls_vector: np.ndarray               # hidden_states[0]


def encode_tensors(pt: Mapping[str, Tensor], config: ModelConfig,
                   input_ids: np.ndarray, segment_ids: np.ndarray,
                   pad_mask: np.ndarray | None = None,
                   read: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Autodiff forward pass over a padded batch.

    ``input_ids``/``segment_ids`` are [batch, seq]; ``pad_mask`` is a bool
    array marking real (non-PAD) positions. Returns hidden states
    [batch, seq, hidden].

    ``read = (rows, cols)`` asks only for the states at positions
    ``(rows[i], cols[i])``, in that order (repeats allowed), and returns
    them as [n, hidden]: ``flat_gather`` of the full output, computed
    without the unread rows. The last layer's attention still runs over
    every position, because every position is a key and a value for the
    positions read; its context and residual are then gathered at the read
    positions, and the output projection, both layer norms and the
    feed-forward run on those n rows alone. With no layers the embedding
    layer norm's output is gathered.
    """
    ids = np.asarray(input_ids)
    segs = np.asarray(segment_ids)
    B, L = ids.shape
    if L > config.max_seq_len:
        raise DataError(f"sequence length {L} exceeds max_seq_len {config.max_seq_len}")
    dtype = pt["token_emb"].data.dtype

    x = pt["token_emb"][ids] + pt["pos_emb"][:L] + pt["seg_emb"][segs]
    x = autodiff.layer_norm(x, pt["emb_ln_g"], pt["emb_ln_b"])
    if read is not None and config.layers == 0:
        return flat_gather(x, *read)

    bias = None
    if pad_mask is not None:
        bias = np.where(pad_mask, 0.0, -1e9).astype(dtype).reshape(B, 1, 1, L)

    for i in range(config.layers):
        pre = f"layer{i}."

        def _linear(inp, w, b):
            return autodiff.linear(inp, pt[pre + w], pt[pre + b])

        ctx = autodiff.attention(_linear(x, "attn_q_w", "attn_q_b"),
                                 _linear(x, "attn_k_w", "attn_k_b"),
                                 _linear(x, "attn_v_w", "attn_v_b"),
                                 config.heads, bias)
        if read is not None and i == config.layers - 1:
            ctx, x = flat_gather(ctx, *read), flat_gather(x, *read)
        attn_out = _linear(ctx, "attn_o_w", "attn_o_b")
        x = autodiff.layer_norm(x + attn_out, pt[pre + "attn_ln_g"], pt[pre + "attn_ln_b"])
        inner = autodiff.gelu(_linear(x, "ffn_w1", "ffn_b1"))
        ffn_out = _linear(inner, "ffn_w2", "ffn_b2")
        x = autodiff.layer_norm(x + ffn_out, pt[pre + "ffn_ln_g"], pt[pre + "ffn_ln_b"])
    return x


def wrap_tensors(params: ModelParams) -> dict[str, Tensor]:
    """Every tensor as a graph constant, for forward passes without gradients."""
    return {k: autodiff.constant(v) for k, v in params.tensors.items()}


def pad_rows(rows: Sequence[Sequence[int]], segments: Sequence[Sequence[int]]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad variable-length rows into [B, L] arrays plus a real-token mask."""
    B = len(rows)
    L = max(len(r) for r in rows)
    ids = np.full((B, L), PAD, dtype=np.int64)
    segs = np.zeros((B, L), dtype=np.int64)
    mask = np.zeros((B, L), dtype=bool)
    for i, (row, seg) in enumerate(zip(rows, segments)):
        ids[i, : len(row)] = row
        segs[i, : len(seg)] = seg
        mask[i, : len(row)] = True
    return ids, segs, mask


def encode_rows(rows: Sequence[Sequence[int]], segments: Sequence[Sequence[int]],
                params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-free batched forward; returns hidden [B, L, H] and pad mask."""
    ids, segs, mask = pad_rows(rows, segments)
    hidden = encode_tensors(wrap_tensors(params), params.config, ids, segs, mask)
    return hidden.data, mask


def encode(tokens: Sequence[int], segments: Sequence[int],
           params: ModelParams) -> EncoderOutput:
    """Encode one sequence, checked: ``encode_rows`` of one row.

    Deterministic in params and input. A one-row pad mask adds 0.0 to every
    attention score, so the states equal an unmasked forward bit for bit.
    """
    if len(tokens) != len(segments):
        raise DataError("tokens and segments must have equal length")
    if len(tokens) == 0:
        raise DataError("cannot encode an empty sequence")
    for pos, tid in enumerate(tokens):
        if not 0 <= tid < params.config.vocab_size:
            raise DataError(f"token id {tid} out of range at position {pos}")
    hidden, _ = encode_rows([tokens], [segments], params)
    return EncoderOutput(hidden_states=hidden[0], cls_vector=hidden[0, 0])


def sentence_row(tokens: Sequence[int], config: ModelConfig) -> tuple[list[int], list[int]]:
    """[CLS] sentence [SEP] with zero segments (dual/hybrid layout)."""
    body = list(tokens)[: config.max_seq_len - 2]
    row = [CLS] + body + [SEP]
    return row, [0] * len(row)


def entity_row(entity_token: int, tokens: Sequence[int], config: ModelConfig
               ) -> tuple[list[int], list[int]]:
    """[CLS] entity [SEP] sentence [SEP]; entity carries segment 0."""
    body = list(tokens)[: config.max_seq_len - 4]
    row = [CLS, entity_token, SEP] + body + [SEP]
    segs = [0, 0, 0] + [1] * (len(body) + 1)
    return row, segs


ENTITY_POSITION = 1  # index of the entity token in entity_row sequences


# -- entity embeddings and heads -------------------------------------------------


def entity_matrix(params: ModelParams) -> np.ndarray:
    """[entity_count, entity_dim] embedding rows (a view, not a copy)."""
    cfg = params.config
    if cfg.variant == "full":
        return params.tensors["token_emb"][cfg.word_vocab_size:]
    return params.tensors["entity_table"]


# The tied head's own tensors; it also reads token_emb.
_TIED_HEAD = ("mlm_dense_w", "mlm_dense_b", "mlm_ln_g", "mlm_ln_b", "mlm_out_b")


def mlm_head_tensors(pt: Mapping[str, Tensor], h: Tensor,
                     tokens: slice | None = None) -> Tensor:
    """Tied masked-token head on the graph: transform, then token_emb.T.

    ``tokens`` limits the logits to a block of the vocabulary.
    """
    t = autodiff.gelu(autodiff.linear(h, pt["mlm_dense_w"], pt["mlm_dense_b"]))
    t = autodiff.layer_norm(t, pt["mlm_ln_g"], pt["mlm_ln_b"])
    w, b = pt["token_emb"], pt["mlm_out_b"]
    if tokens is not None:
        w, b = w[tokens], b[tokens]
    return autodiff.linear(t, w.transpose(1, 0), b)


def hybrid_head_tensors(pt: Mapping[str, Tensor], h: Tensor,
                        entity_rows: np.ndarray) -> Tensor:
    """Untied masked-token head over concat(h, entity_table[entity_rows])."""
    joined = autodiff.concat([h, pt["entity_table"][entity_rows]], axis=-1)
    t = autodiff.gelu(autodiff.linear(joined, pt["hyb_dense_w"], pt["hyb_dense_b"]))
    t = autodiff.layer_norm(t, pt["hyb_ln_g"], pt["hyb_ln_b"])
    return autodiff.linear(t, pt["hyb_out_w"], pt["hyb_out_b"])


def normalize_rows(t: Tensor, what: str) -> Tensor:
    """Rows of ``t`` at unit length; a zero row is a NumericError naming it."""
    norms_sq = (t * t).sum(axis=-1, keepdims=True)
    zero = np.flatnonzero(norms_sq.data < 1e-16)
    if len(zero):
        raise NumericError(f"zero-norm {what} vector in row {zero[0]} of cosine scoring")
    return t / autodiff.sqrt(norms_sq)


def cosine_head_tensors(pt: Mapping[str, Tensor], unit_rows: Tensor,
                        entities: np.ndarray, score_scale: float) -> Tensor:
    """Scaled cosines [rows, len(entities)] of unit rows against entity rows."""
    ent = normalize_rows(pt["entity_table"][entities], "entity")
    return (unit_rows @ ent.transpose(1, 0)) * score_scale


def flat_gather(hidden: Tensor, row_idx: np.ndarray, col_idx: np.ndarray) -> Tensor:
    """``hidden[row_idx[i], col_idx[i]]`` for each i, as one gather."""
    B, L, H = hidden.shape
    return hidden.reshape(B * L, H)[row_idx * L + col_idx]


def mlm_logits(hidden_states: np.ndarray, positions: Sequence[int],
               params: ModelParams) -> np.ndarray:
    """Masked-token logits over the vocabulary, one row per position.

    A dense + GELU + layer-norm transform feeds a projection tied to the
    input embedding matrix, plus a learned bias. Only full has this head.
    """
    if "mlm_out_b" not in params.tensors:
        raise DataError(f"variant {params.config.variant!r} has no tied MLM head")
    positions = list(positions)
    L = hidden_states.shape[0]
    for p in positions:
        if not 0 <= p < L:
            raise DataError(f"masked position {p} outside sequence of length {L}")
    if not positions:
        return np.zeros((0, params.config.vocab_size), dtype=hidden_states.dtype)
    pt = {k: autodiff.constant(params.tensors[k]) for k in _TIED_HEAD + ("token_emb",)}
    return mlm_head_tensors(pt, autodiff.constant(hidden_states[positions])).data


# -- checkpoints ------------------------------------------------------------------


_FILE = "model.safetensors"
_FORMAT = "textent-checkpoint"
_VERSION = "4"
_DTYPES = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}


def save_checkpoint(params: ModelParams, directory: str | Path) -> None:
    """Write ``params`` to ``directory/model.safetensors`` in the layout the
    module docstring gives; a save that fails part-way leaves the checkpoint
    that was there loadable and unchanged.

    The file is written to ``model.safetensors.tmp``, flushed to disk with
    ``os.fsync``, moved into place with ``os.replace``, and the directory is
    fsynced so that the rename survives a crash. Nothing else in
    ``directory`` is touched.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    code = "F64" if next(iter(params.tensors.values())).dtype == np.float64 else "F32"
    header = {"__metadata__": {"format": _FORMAT, "version": _VERSION,
                               "config": json.dumps(asdict(params.config))}}
    blobs, offset = [], 0
    for name, arr in sorted(params.tensors.items()):
        blobs.append(np.asarray(arr, _DTYPES[code]).tobytes())
        header[name] = {"dtype": code, "shape": list(arr.shape),
                        "data_offsets": [offset, offset + len(blobs[-1])]}
        offset += len(blobs[-1])
    head = json.dumps(header).encode("utf-8")
    head += b" " * (-len(head) % 8)  # the data starts 8-byte aligned
    staged = directory / f"{_FILE}.tmp"
    with open(staged, "wb") as fh:
        fh.write(b"".join([len(head).to_bytes(8, "little"), head, *blobs]))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(staged, directory / _FILE)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _read_config(path: Path, meta) -> ModelConfig:
    """The ``ModelConfig`` in a checkpoint header's ``__metadata__``."""
    problem = _row_problem(meta, format=str, version=str, config=str)
    if problem:
        raise DataError(f"{path}: __metadata__ {problem}")
    if meta["format"] != _FORMAT:
        raise DataError(f"{path}: format {meta['format']!r} is not {_FORMAT!r}")
    if meta["version"] != _VERSION:
        raise DataError(f"{path}: unsupported version {meta['version']!r}")
    defaults = asdict(ModelConfig())
    config = parse_json_object(meta["config"].encode("utf-8"), f"{path}: config")
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise DataError(f"{path}: unknown config keys {unknown}")
    problem = _row_problem(config, **{key: type(defaults[key]) for key in config})
    if problem:
        raise DataError(f"{path}: config {problem}")
    config = ModelConfig(**config)
    config.validate()
    return config


def load_checkpoint(directory: str | Path) -> ModelParams:
    """Load what ``save_checkpoint`` wrote.

    The header must name exactly the tensors ``expected_shapes`` gives the
    config, with their shapes and one dtype, and their ``data_offsets``
    must tile the data bytes in name order; every value must be finite. Anything
    else, a format-3 checkpoint (``manifest.json``) among it, is a
    ``DataError`` naming the file.
    """
    path = Path(directory) / _FILE
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        if (path.parent / "manifest.json").exists():
            raise DataError(f"{path.parent} holds a format-3 checkpoint "
                            f"(manifest.json), which this version does not read") from exc
        raise DataError(f"no checkpoint {_FILE} in {path.parent}") from exc
    size = int.from_bytes(raw[:8], "little")
    if len(raw) < 8 or size > len(raw) - 8:
        raise DataError(f"{path}: {len(raw)} bytes hold no header of {size} bytes")
    header = parse_json_object(raw[8:8 + size], path)
    config = _read_config(path, header.pop("__metadata__", None))
    shapes = expected_shapes(config)
    if set(header) != set(shapes):
        missing = sorted(set(shapes) - set(header))
        extra = sorted(set(header) - set(shapes))
        raise DataError(f"{path}: tensors do not match config "
                        f"(missing {missing}, unexpected {extra})")
    data, tensors, code, end = memoryview(raw)[8 + size:], {}, None, 0
    for name in sorted(header):  # packed in name order, as save_checkpoint writes
        entry = header[name]
        problem = _row_problem(entry, dtype=str, shape=list[int], data_offsets=list[int])
        if problem:
            raise DataError(f"{path}: tensor {name!r}: {problem}")
        code = code or entry["dtype"]
        if entry["dtype"] != code or code not in _DTYPES:
            raise DataError(f"{path}: tensor {name!r} has dtype {entry['dtype']!r}; every "
                            f"tensor needs the same one of {sorted(_DTYPES)}")
        if tuple(entry["shape"]) != shapes[name]:
            raise DataError(f"{path}: tensor {name!r} has shape {tuple(entry['shape'])}, "
                            f"expected {shapes[name]}")
        span = [end, end + int(np.prod(shapes[name])) * _DTYPES[code].itemsize]
        if entry["data_offsets"] != span or span[1] > len(data):
            raise DataError(f"{path}: tensor {name!r} data_offsets {entry['data_offsets']} "
                            f"are not {span} of {len(data)} data bytes")
        values = np.frombuffer(data[span[0]:span[1]], _DTYPES[code])
        if not np.isfinite(values).all():
            raise DataError(f"{path}: tensor {name!r} holds non-finite values")
        tensors[name] = values.reshape(shapes[name]).astype(_DTYPES[code].type)
        end = span[1]
    if end != len(data):
        raise DataError(f"{path}: {len(data) - end} data bytes follow the last tensor")
    return ModelParams(config, tensors)
