"""Coarse spans around the public calls of each textent module.

The tracer records one span per call at a module boundary: name, start,
end, parent span, the benchmark operation it belongs to, the round, the
model variant of that operation, and a few shape-derived attributes. Spans
stay in memory and are written out once, when the run ends.

Wrappers go on the *consumer* module's attribute, because textent imports
functions by name (``objectives.py`` does ``from .encoder import
encode_tensors``), and are installed only for traced rounds: an untraced
round runs the program's own functions with nothing in between. Spans are
deliberately coarse; a wrapper per autodiff op costs a large share of a
training step and would distort the proportions it is meant to measure.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from textent import autodiff, encoder, evaluation, finetune, objectives

VARIANTS = ("dual", "hybrid", "full")

# Span names. The benchmark's own operation spans reuse the name of the
# public call they wrap.
PRETRAIN = "objectives.pretrain"
BUILD_BATCH = "objectives.build_batch"
GRAPH_FWD = "objectives.graph_fwd"
ENCODE_FWD = "encoder.encode_fwd"
BACKWARD = "autodiff.backward"
ADAM = "numerics.adam"
MLM_LOGITS = "encoder.mlm_logits"
LOAD_CHECKPOINT = "encoder.load_checkpoint"
RUN_FINETUNE = "finetune.run_finetune"
SCORE_MATRIX = "finetune.score_tag_matrix"
PREDICT_TAGS = "finetune.predict_tag_scores"
ZERO_SHOT = "evaluation.zero_shot_rank"
RANK_ITEMS = "evaluation.rank_items"
ENCODE_ROWS = "evaluation.encode_rows"
BOS = "evaluation.bos_rank"
TFIDF_BUILD = "evaluation.tfidf_build"
TFIDF_RANK = "evaluation.tfidf_rank"
TOKENIZE = "text.tokenize"
READ_CORPUS = "text.read_corpus"
GENERATE = "synthetic.generate_synthetic"


class NullTracer:
    """Stands in when tracing is off: operation spans cost one no-op."""

    def op(self, name, variant=None):
        return nullcontext()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        # [name, start, end, parent, op, round, variant, attrs]
        self.spans: list[list] = []
        self.round: int | None = None
        self._stack: list[int] = []
        self._op: int | None = None
        self._variant: str | None = None
        self._ops = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict | None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op,
                           self.round, self._variant, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, name: str, variant: str | None = None):
        """Span for one benchmark operation; nested spans inherit its id."""
        self._ops += 1
        self._op, self._variant = self._ops, variant
        index = self._open(name, None)
        try:
            yield
        finally:
            self._close(index)
            self._op = self._variant = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        self._wrap(objectives, "build_batch", BUILD_BATCH)
        for graph in ("dual_graph", "full_graph", "hybrid_graph"):
            self._wrap(objectives, graph, GRAPH_FWD, _graph_attrs)
        for module in (objectives, finetune, encoder):
            self._wrap(module, "encode_tensors", ENCODE_FWD, _encode_attrs)
        self._wrap(autodiff.Tensor, "backward", BACKWARD)
        for module in (objectives, finetune):
            self._wrap(module, "adam_step", ADAM, _adam_attrs)
        self._wrap(evaluation, "mlm_logits", MLM_LOGITS)
        self._wrap(finetune, "predict_tag_scores", PREDICT_TAGS, _predict_attrs)
        self._wrap(evaluation, "rank_items", RANK_ITEMS)
        self._wrap(evaluation, "encode_rows", ENCODE_ROWS, _rows_attrs)
        for module in (evaluation, finetune):
            self._wrap(module, "tokenize", TOKENIZE)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def child_time(self) -> list[float]:
        """Per span, the time its direct children cover (they never overlap)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def write(self, path: Path, header: dict) -> None:
        """One JSON line per span after a header line; ``self`` is in seconds."""
        covered = self.child_time()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                name, start, end, parent, op, rnd, variant, attrs = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "self": end - start - covered[i], "parent": parent,
                                     "op": op, "round": rnd, "variant": variant,
                                     "attrs": attrs}) + "\n")


# -- shape-derived attributes ---------------------------------------------------


def _encode_attrs(pt, config, input_ids, segment_ids, pad_mask=None, *rest, **kw):
    rows, length = np.shape(input_ids)
    padded = 0 if pad_mask is None else rows * length - int(np.count_nonzero(pad_mask))
    return {"rows": rows, "positions": rows * length, "padded": padded}


def encoder_gemm_flop(config, rows: int, length: int) -> int:
    """Forward multiply-add work of the encoder's matrix products, in flop."""
    h, f = config.hidden, config.ffn_hidden
    tokens = rows * length
    per_layer = (8 * tokens * h * h          # q, k, v and output projections
                 + 4 * tokens * h * f        # the two feed-forward matrices
                 + 4 * tokens * length * h)  # scores and the weighted sum
    return config.layers * per_layer


def _graph_attrs(pt, config, batch, *rest, **kw):
    """GEMM work of one training step, from the batch's shapes.

    Forward products plus the two backward products each one induces
    (3x forward), for the encoder and the variant's output head.
    """
    rows, length = batch.input_ids.shape
    h, v = config.hidden, config.vocab_size
    words = sum(len(p) for p in batch.mask_positions)
    candidates = len(np.unique(batch.entity_rows))
    dual_head = 2 * rows * candidates * h
    if config.variant == "dual":
        head = dual_head
    elif config.variant == "full":
        masked = words + int(np.count_nonzero(batch.entity_masked))
        if masked == 0:
            return {"gflop": 0.0}
        head = masked * (2 * h * h + 2 * h * v)
    else:
        head = dual_head + words * (2 * (h + config.entity_dim) * h + 2 * h * v)
    return {"gflop": 3 * (encoder_gemm_flop(config, rows, length) + head) / 1e9}


def _adam_attrs(params, grads, state):
    return {"elems": sum(p.size for k, p in params.items() if grads.get(k) is not None)}


def _predict_attrs(params, vocab, entity_id, tags, *rest, **kw):
    return {"rows": len(tags)}


def _rows_attrs(rows, segments, params):
    return {"rows": len(rows)}


# -- per-layer metrics -----------------------------------------------------------


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric, named by module; zero where a layer did no work."""
    spans = tracer.spans
    child_time = tracer.child_time()
    by_name: dict[str, list[tuple[int, list]]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append((i, s))
    op_name = {s[4]: s[0] for s in spans if s[3] is None}
    first = min((s[5] for s in spans if s[5] is not None), default=None)

    def named(name, variant=None, op=None, first_only=False):
        """(index, span) pairs of one span name, optionally filtered."""
        return [(i, s) for i, s in by_name.get(name, ())
                if (variant is None or s[6] == variant)
                and (op is None or op_name.get(s[4]) == op)
                and (not first_only or s[5] == first)]

    def mean_ms(pairs) -> float:
        return 1e3 * float(np.mean([s[2] - s[1] for _, s in pairs])) if pairs else 0.0

    def total(pairs, key) -> float:
        return float(sum(s[7][key] for _, s in pairs))

    out: dict[str, float] = {}
    for v in VARIANTS:
        graphs = named(GRAPH_FWD, v)
        out[f"objectives.build_batch_ms.{v}"] = mean_ms(named(BUILD_BATCH, v))
        out[f"objectives.graph_fwd_ms.{v}"] = mean_ms(graphs)
        out[f"objectives.head_fwd_self_ms.{v}"] = (
            1e3 * float(np.mean([s[2] - s[1] - child_time[i] for i, s in graphs]))
            if graphs else 0.0)
        out[f"encoder.encode_fwd_ms.{v}"] = mean_ms(named(ENCODE_FWD, v))
        out[f"autodiff.backward_ms.{v}"] = mean_ms(named(BACKWARD, v))
        out[f"numerics.adam_ms.{v}"] = mean_ms(named(ADAM, v))
        steps = len(named(ADAM, v, op=RUN_FINETUNE))
        run_time = sum(s[2] - s[1] for _, s in named(RUN_FINETUNE, v))
        out[f"finetune.step_ms.{v}"] = 1e3 * run_time / steps if steps else 0.0
        out[f"finetune.score_ms_per_entity.{v}"] = mean_ms(named(PREDICT_TAGS, v))
        flops = [s[7]["gflop"] for _, s in named(GRAPH_FWD, v, first_only=True)]
        out[f"encoder.gemm_gflop_per_step.{v}"] = float(np.mean(flops)) if flops else 0.0
        step_ms = _pretrain_step_ms(named(BUILD_BATCH, v), named(ADAM, v, op=PRETRAIN))
        out[f"objectives.step_ms_p90.{v}"] = _quantile(step_ms, 0.90)
        out[f"objectives.step_n.{v}"] = float(len(step_ms))

    out["encoder.mlm_logits_ms"] = mean_ms(named(MLM_LOGITS))
    out["encoder.load_checkpoint_ms"] = mean_ms(named(LOAD_CHECKPOINT))
    out["evaluation.rank_items_ms"] = mean_ms(named(RANK_ITEMS))
    bos = named(BOS)
    bos_ids = {i for i, _ in bos}
    bos_time = sum(s[2] - s[1] for _, s in bos)
    bos_encode = sum(s[2] - s[1] for _, s in named(ENCODE_ROWS) if s[3] in bos_ids)
    out["evaluation.bos_encode_share"] = bos_encode / bos_time if bos_time else 0.0
    out["evaluation.tfidf_build_ms"] = mean_ms(named(TFIDF_BUILD))
    out["evaluation.tfidf_rank_ms"] = mean_ms(named(TFIDF_RANK))
    out["text.tokenize_ms"] = mean_ms(named(TOKENIZE))
    out["text.read_corpus_ms"] = mean_ms(named(READ_CORPUS))
    out["synthetic.generate_ms"] = mean_ms(named(GENERATE))

    # exact counts, over the first traced round so they repeat run to run
    encodes = named(ENCODE_FWD, first_only=True)
    positions = total(encodes, "positions")
    out["encoder.rows_encoded"] = total(encodes, "rows")
    out["encoder.pad_frac"] = total(encodes, "padded") / positions if positions else 0.0
    out["numerics.adam_elems"] = total(named(ADAM, first_only=True), "elems")
    predicts = named(PREDICT_TAGS, first_only=True)
    out["finetune.tag_rows_per_entity"] = (total(predicts, "rows") / len(predicts)
                                           if predicts else 0.0)
    first_bos = {i for i, _ in named(BOS, first_only=True)}
    bos_rows = total([(i, s) for i, s in named(ENCODE_ROWS) if s[3] in first_bos], "rows")
    out["evaluation.bos_rows_per_query"] = bos_rows / len(first_bos) if first_bos else 0.0

    zero_shot = [1e3 * (s[2] - s[1]) for _, s in named(ZERO_SHOT)]
    tfidf = [1e3 * (s[2] - s[1]) for _, s in named(TFIDF_RANK)]
    out["evaluation.zero_shot_ms_p99"] = _quantile(zero_shot, 0.99)
    out["evaluation.zero_shot_n"] = float(len(zero_shot))
    out["evaluation.tfidf_ms_p99"] = _quantile(tfidf, 0.99)
    out["evaluation.tfidf_n"] = float(len(tfidf))
    out["trace.overhead_frac"] = overhead_frac
    return out


def _unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if "gflop" in name:
        return "GFLOP"
    if name.endswith(("_frac", "_share")):
        return "ratio"
    return "count"


LAYER_NAMES = (
    [f"{metric}.{v}" for metric in (
        "objectives.build_batch_ms", "objectives.graph_fwd_ms",
        "objectives.head_fwd_self_ms", "encoder.encode_fwd_ms", "autodiff.backward_ms",
        "numerics.adam_ms", "finetune.step_ms", "finetune.score_ms_per_entity",
        "encoder.gemm_gflop_per_step", "objectives.step_ms_p90", "objectives.step_n")
     for v in VARIANTS]
    + ["encoder.mlm_logits_ms", "encoder.load_checkpoint_ms", "evaluation.rank_items_ms",
       "evaluation.bos_encode_share", "evaluation.tfidf_build_ms",
       "evaluation.tfidf_rank_ms", "text.tokenize_ms", "text.read_corpus_ms",
       "synthetic.generate_ms", "encoder.rows_encoded", "encoder.pad_frac",
       "numerics.adam_elems", "finetune.tag_rows_per_entity",
       "evaluation.bos_rows_per_query", "evaluation.zero_shot_ms_p99",
       "evaluation.zero_shot_n", "evaluation.tfidf_ms_p99", "evaluation.tfidf_n",
       "trace.overhead_frac"])
LAYER_UNITS = {name: _unit(name) for name in LAYER_NAMES}


def _pretrain_step_ms(batches, adams) -> list[float]:
    """Per-step wall time inside pretrain calls: batch build through Adam.

    Each step builds one batch and ends with one Adam update, so the k-th
    batch of an operation pairs with its k-th update.
    """
    ends: dict[int, list[float]] = {}
    for _, s in adams:
        ends.setdefault(s[4], []).append(s[2])
    starts: dict[int, list[float]] = {}
    for _, s in batches:
        starts.setdefault(s[4], []).append(s[1])
    return [1e3 * (e - b) for op, bs in starts.items()
            for b, e in zip(bs, ends.get(op, ()))]
