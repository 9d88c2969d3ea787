"""Miniature transformer encoder with entity embeddings and output heads.

The encoder is a standard bidirectional transformer: summed token/position/
segment embeddings through layer norm, then post-norm residual blocks of
multi-head self-attention and a GELU feed-forward. Three model variants
share it:

  dual    separate entity embedding table, scored against the CLS output
          by cosine similarity
  full    entity tokens live inside an extended input vocabulary and
          cross-attend with sentence tokens; masked-token prediction uses
          a projection tied to the input embedding matrix
  hybrid  dual's separate table, plus a second masked-token head whose
          input is the hidden state concatenated with the entity embedding
          (its projection is untied: the input width differs)

Checkpoints are a JSON manifest (format version 2) next to one raw
little-endian float file per named tensor; loading validates the manifest
and every shape against the config, and still reads version 1.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff
from .autodiff import Tensor
from .errors import DataError, NumericError
from .text import CLS, PAD, SEP, Vocabulary

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
        if self.hidden % self.heads != 0:
            raise DataError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.layers < 0 or self.heads < 1 or self.hidden < 2:
            raise DataError("bad encoder dimensions")
        if self.ffn_hidden < 1:
            raise DataError(f"ffn_hidden must be >= 1, got {self.ffn_hidden}")
        if self.max_seq_len < 4:  # the shortest full row: [CLS] entity [SEP] [SEP]
            raise DataError(f"max_seq_len must be >= 4, got {self.max_seq_len}")
        if self.vocab_size < 5:
            raise DataError("vocab_size must cover the reserved specials")
        if self.entity_count < 1:
            raise DataError("entity_count must be >= 1")
        if self.variant == "full":
            if self.entity_dim != self.hidden:
                raise DataError("full variant requires entity_dim == hidden")
            if self.vocab_size <= self.entity_count:
                raise DataError("full variant stores entity tokens inside vocab_size")
        else:
            # cosine compatibility pairs entity rows with the CLS vector
            if self.entity_dim != self.hidden:
                raise DataError("dual/hybrid compatibility requires entity_dim == hidden")

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
        """Desk-scale config sized to a vocabulary (entities included)."""
        size = len(vocab) if variant == "full" else vocab.word_size
        cfg = cls(vocab_size=size, entity_count=vocab.entity_count, variant=variant,
                  **overrides)
        cfg.validate()
        return cfg

    @classmethod
    def paper_scale(cls, vocab: Vocabulary, variant: str) -> "ModelConfig":
        """The 12-layer, 12-head, 768-wide configuration. Not for CI."""
        return cls.for_vocab(vocab, variant, layers=12, heads=12, hidden=768,
                             ffn_hidden=3072, max_seq_len=512, entity_dim=768)


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
    if config.variant in ("full", "hybrid"):
        # transform (dense + GELU + norm), then a projection tied to token_emb
        shapes["mlm_dense_w"] = (h, h)
        shapes["mlm_dense_b"] = (h,)
        shapes["mlm_ln_g"] = (h,)
        shapes["mlm_ln_b"] = (h,)
        shapes["mlm_out_b"] = (v,)
    if config.variant == "hybrid":
        # same structure over the concatenated input; projection is untied
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


def init_params(config: ModelConfig, seed: int | np.random.Generator = 0,
                dtype=np.float32, init_std: float = 0.02) -> ModelParams:
    """Truncated-normal initialization (cut at two standard deviations)."""
    config.validate()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(config).items():
        if name.endswith("_ln_g"):
            tensors[name] = np.ones(shape, dtype=dtype)
        elif name.endswith(("_b", "_ln_b")):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = _trunc_normal(rng, shape, init_std, dtype)
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
                   pad_mask: np.ndarray | None = None) -> Tensor:
    """Autodiff forward pass over a padded batch.

    ``input_ids``/``segment_ids`` are [batch, seq]; ``pad_mask`` is a bool
    array marking real (non-PAD) positions. Returns hidden states
    [batch, seq, hidden].
    """
    ids = np.asarray(input_ids)
    segs = np.asarray(segment_ids)
    B, L = ids.shape
    if L > config.max_seq_len:
        raise DataError(f"sequence length {L} exceeds max_seq_len {config.max_seq_len}")
    dtype = pt["token_emb"].data.dtype

    x = pt["token_emb"][ids] + pt["pos_emb"][:L] + pt["seg_emb"][segs]
    x = autodiff.layer_norm(x, pt["emb_ln_g"], pt["emb_ln_b"])

    bias = None
    if pad_mask is not None:
        bias = np.where(pad_mask, 0.0, -1e9).astype(dtype).reshape(B, 1, 1, L)

    for i in range(config.layers):
        pre = f"layer{i}."

        def _linear(inp, w, b):
            return autodiff.linear(inp, pt[pre + w], pt[pre + b])

        ctx, _ = autodiff.attention(_linear(x, "attn_q_w", "attn_q_b"),
                                    _linear(x, "attn_k_w", "attn_k_b"),
                                    _linear(x, "attn_v_w", "attn_v_b"),
                                    config.heads, bias)
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


# The tensors the tied head reads: ``mlm_logits`` wraps only these.
_MLM_HEAD = ("mlm_dense_w", "mlm_dense_b", "mlm_ln_g", "mlm_ln_b", "token_emb", "mlm_out_b")


def mlm_head_tensors(pt: Mapping[str, Tensor], h: Tensor,
                     tokens: slice | None = None) -> Tensor:
    """Tied masked-token head on the graph: transform, then token_emb.T.

    ``tokens`` limits the logits to a block of the vocabulary.
    """
    t = autodiff.gelu(autodiff.linear(h, pt["mlm_dense_w"], pt["mlm_dense_b"]))
    t = autodiff.layer_norm(t, pt["mlm_ln_g"], pt["mlm_ln_b"])
    if tokens is None:
        return t @ pt["token_emb"].transpose(1, 0) + pt["mlm_out_b"]
    return t @ pt["token_emb"][tokens].transpose(1, 0) + pt["mlm_out_b"][tokens]


def hybrid_head_tensors(pt: Mapping[str, Tensor], joined: Tensor) -> Tensor:
    """Untied masked-token head over concat(hidden, entity embedding)."""
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
    input embedding matrix, plus a learned bias.
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
    pt = {k: autodiff.constant(params.tensors[k]) for k in _MLM_HEAD}
    return mlm_head_tensors(pt, autodiff.constant(hidden_states[positions])).data


# -- checkpoints ------------------------------------------------------------------


_MANIFEST = "manifest.json"
_FORMAT = "textent-checkpoint"
_VERSION = 2
_DTYPES = ("<f4", "<f8")
# Version 1 full checkpoints also carry a classifier head that nothing reads.
_V1_ONLY = ("cls_w", "cls_b")


def save_checkpoint(params: ModelParams, directory: str | Path) -> None:
    directory = Path(directory)
    (directory / "tensors").mkdir(parents=True, exist_ok=True)
    dtype = next(iter(params.tensors.values())).dtype
    code = "<f8" if dtype == np.float64 else "<f4"
    manifest = {
        "format": _FORMAT,
        "version": _VERSION,
        "config": asdict(params.config),
        "dtype": code,
        "tensors": {},
    }
    for name, arr in sorted(params.tensors.items()):
        fname = f"tensors/{name}.bin"
        arr.astype(code).tofile(directory / fname)
        manifest["tensors"][name] = {"file": fname, "shape": list(arr.shape)}
    with open(directory / _MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def _read_manifest(directory: Path) -> dict:
    """The checkpoint's manifest; DataError naming it for anything malformed."""
    path = directory / _MANIFEST
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"no checkpoint manifest in {directory}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path} is not a JSON object")
    for key in ("format", "version", "config", "dtype", "tensors"):
        if key not in manifest:
            raise DataError(f"{path} has no {key!r}")
    if manifest["format"] != _FORMAT:
        raise DataError(f"{path}: format {manifest['format']!r} is not {_FORMAT!r}")
    version = manifest["version"]
    if type(version) is not int or version not in (1, _VERSION):
        raise DataError(f"{path}: unsupported version {version!r}")
    if manifest["dtype"] not in _DTYPES:
        raise DataError(f"{path}: dtype {manifest['dtype']!r} is not one of {_DTYPES}")
    for key in ("config", "tensors"):
        if not isinstance(manifest[key], dict):
            raise DataError(f"{path}: {key!r} is not a JSON object")
    root = directory.resolve()
    for name, meta in manifest["tensors"].items():
        if not (isinstance(meta, dict) and isinstance(meta.get("file"), str)
                and isinstance(meta.get("shape"), list)):
            raise DataError(f"{path}: tensor {name!r} needs a 'file' string "
                            f"and a 'shape' list")
        if (Path(meta["file"]).is_absolute()
                or not (root / meta["file"]).resolve().is_relative_to(root)):
            raise DataError(f"{path}: tensor {name!r} file {meta['file']!r} is "
                            f"outside the checkpoint directory")
    defaults = asdict(ModelConfig())
    unknown = sorted(set(manifest["config"]) - set(defaults))
    if unknown:
        raise DataError(f"{path}: unknown config keys {unknown}")
    for key, value in manifest["config"].items():
        if type(value) is not type(defaults[key]):
            raise DataError(f"{path}: config {key!r} is {value!r}, "
                            f"not {type(defaults[key]).__name__}")
    return manifest


def load_checkpoint(directory: str | Path) -> ModelParams:
    """Load a version 1 or 2 checkpoint; version 1's classifier head is dropped."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    config = ModelConfig(**manifest["config"])
    config.validate()
    code = manifest["dtype"]
    shapes = expected_shapes(config)
    entries = {name: meta for name, meta in manifest["tensors"].items()
               if manifest["version"] > 1 or name not in _V1_ONLY}
    if set(entries) != set(shapes):
        missing = sorted(set(shapes) - set(entries))
        extra = sorted(set(entries) - set(shapes))
        raise DataError(f"checkpoint tensors do not match config "
                        f"(missing {missing}, unexpected {extra})")
    tensors = {}
    for name, meta in entries.items():
        shape = tuple(meta["shape"])
        if shape != shapes[name]:
            raise DataError(f"tensor '{name}' has shape {shape}, expected {shapes[name]}")
        data = np.fromfile(directory / meta["file"], dtype=code)
        if data.size != int(np.prod(shape)):
            raise DataError(f"tensor '{name}' file has {data.size} values, "
                            f"expected {int(np.prod(shape))}")
        if not np.isfinite(data).all():
            raise DataError(f"tensor '{name}' holds non-finite values")
        native = np.float64 if code == "<f8" else np.float32
        tensors[name] = data.reshape(shapes[name]).astype(native)
    return ModelParams(config, tensors)
