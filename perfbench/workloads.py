"""The three workloads, their set-up, and the measured loop that drives them.

Every workload drives the same public library calls the CLI subcommands
make, in one process, one call at a time (a closed loop). A run repeats a
fixed *round* of calls until its time is up. Within a round the three model
variants run in the order dual, hybrid, full, reversed on odd rounds, so
drift in machine speed falls on all three alike.

  pretrain  ``objectives.pretrain(steps=K, batch_size=96)`` per variant:
            forward and backward over large batches, then Adam. No
            tokenisation, TF-IDF or inference path runs.
  finetune  ``finetune.run_finetune`` (one epoch over the closed split's
            training entities) then ``finetune.score_tag_matrix`` for the
            held-out entities against every tag, per variant: many tiny
            steps, where fixed per-step costs dominate.
  retrieve  ``evaluation.zero_shot_rank`` for every query on each variant,
            ``TfidfIndex.rank_query`` for every query, and one
            ``evaluation.bos_rank`` query: forward only, no backward, no Adam.

Models for finetune and retrieve are seeded ``init_params`` checkpoints,
round-tripped through ``save_checkpoint``/``load_checkpoint``: throughput
does not depend on weight values, and learned quality is the test suite's
job, not the benchmark's.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from textent import encoder, evaluation, finetune, objectives, synthetic, text
from textent.encoder import ModelConfig

import oracles
import tracing
from tracing import VARIANTS

WORKLOADS = ("pretrain", "finetune", "retrieve")
SETUP_REPEATS = 7
MIN_ROUNDS = 3
HOLDOUT_FRACTION = 0.2  # the closed protocol's default split
FULL_ENTITY_MASK_RATE = 0.8  # as in the acceptance run
BOS_QUERIES = 8  # BoS rotates through this many fixed queries, one per round


@dataclass(frozen=True)
class Scale:
    """Input sizes. The benchmark runs ``COMMITTED``; its self-test a tiny one."""

    world: synthetic.SyntheticWorldSpec = field(default_factory=synthetic.SyntheticWorldSpec)
    model: dict = field(default_factory=lambda: dict(layers=2, heads=4, hidden=64,
                                                     ffn_hidden=256, entity_dim=64))
    pretrain_steps: int = 8
    batch_size: int = 96


COMMITTED = Scale()

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s",
                    **{f"{v}_per_s": "1/s" for v in VARIANTS}}


def metric_units(trace: bool) -> dict[str, str]:
    """Unit of every metric a run reports, by name."""
    return tracing.LAYER_UNITS if trace else END_TO_END_UNITS


@dataclass
class State:
    """Inputs and models one workload needs, built by ``setup``."""

    corpus: list
    vocab: text.Vocabulary
    votes: text.TagVotes
    queries: list
    configs: dict[str, ModelConfig]
    params: dict = field(default_factory=dict)
    train_entities: list = field(default_factory=list)
    held_entities: list = field(default_factory=list)
    rows_per_epoch: int = 0
    index: evaluation.TfidfIndex | None = None
    tfidf_oracle: oracles.TfidfOracle | None = None


def setup(workload: str, seed: int, scale: Scale, workdir: Path, tracer) -> State:
    """Generate the world, round-trip it through files, prepare models.

    Everything here counts toward ``setup_s``.
    """
    with tracer.op(tracing.GENERATE):
        world = synthetic.generate_synthetic(replace(scale.world, seed=seed))
    workdir.mkdir(parents=True, exist_ok=True)
    text.write_corpus(workdir / "corpus.jsonl", world.corpus)
    world.vocab.save(workdir / "vocab.tsv")
    text.write_votes(workdir / "votes.jsonl", world.votes)
    text.write_queries(workdir / "queries.jsonl", world.queries)
    with tracer.op(tracing.READ_CORPUS):
        corpus = text.read_corpus(workdir / "corpus.jsonl")
    vocab = text.Vocabulary.load(workdir / "vocab.tsv")
    state = State(corpus=corpus, vocab=vocab,
                  votes=text.read_votes(workdir / "votes.jsonl"),
                  queries=text.read_queries(workdir / "queries.jsonl"),
                  configs={v: ModelConfig.for_vocab(vocab, v, **scale.model)
                           for v in VARIANTS})
    if workload in ("finetune", "retrieve"):
        for i, v in enumerate(VARIANTS):
            params = encoder.init_params(state.configs[v],
                                         seed=np.random.default_rng((seed, i)))
            encoder.save_checkpoint(params, workdir / v)
            with tracer.op(tracing.LOAD_CHECKPOINT, v):
                state.params[v] = encoder.load_checkpoint(workdir / v)
    if workload == "finetune":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        state.train_entities, state.held_entities = finetune.split_holdout(
            state.votes.entity_ids(), HOLDOUT_FRACTION, rng)
    if workload == "retrieve":
        with tracer.op(tracing.TFIDF_BUILD):
            state.index = evaluation.TfidfIndex(corpus, vocab)
    return state


def finetune_rows(votes: text.TagVotes, entities, negative_rate: float) -> int:
    """(entity, tag) rows one fine-tuning epoch trains on.

    Each entity with a positive tag contributes its positives plus
    ``floor(rate * tags)`` sampled negatives (fewer if the pool runs out).
    """
    n_tags = len(votes.tags)
    rows = 0
    for entity_id in entities:
        positives = len(votes.positives(entity_id))
        if positives:
            rows += positives + min(int(negative_rate * n_tags), n_tags - positives)
    return rows


def prepare_oracles(workload: str, state: State) -> None:
    """Oracle inputs and work counts; not part of ``setup_s``."""
    if workload == "finetune":
        state.rows_per_epoch = finetune_rows(state.votes, state.train_entities,
                                             finetune.FinetuneConfig().negative_rate)
    if workload == "retrieve":
        state.tfidf_oracle = oracles.TfidfOracle(state.corpus, state.vocab)


# -- rounds ------------------------------------------------------------------------


class Round:
    """Timings, failures and outputs of one round of a workload."""

    def __init__(self, index: int, tracer):
        self.index = index
        self.tracer = tracer
        self.lane_time = {v: 0.0 for v in VARIANTS}
        self.lane_items = {v: 0 for v in VARIANTS}
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.outputs: list = []

    def call(self, name: str, variant, fn, check, items: int = 0, lane: bool = False):
        """Time one library call, then check its output outside the timing.

        Returns the call's result, or None when it raised or failed its check.
        """
        self.attempted += 1
        try:
            with self.tracer.op(name, variant):
                start = time.perf_counter()
                out = fn()
                elapsed = time.perf_counter() - start
            problem = check(out)
        except Exception as exc:  # a failed operation is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            print(f"round {self.index}: {name} ({variant}) failed: {problem}",
                  file=sys.stderr)
            return None
        self.busy += elapsed
        if lane:
            self.lane_time[variant] += elapsed
            self.lane_items[variant] += items
        return out


def _order(index: int) -> tuple[str, ...]:
    return VARIANTS if index % 2 == 0 else VARIANTS[::-1]


def pretrain_round(rnd: Round, state: State, scale: Scale) -> None:
    steps = scale.pretrain_steps
    for v in _order(rnd.index):
        cfg = objectives.TrainingConfig(
            steps=steps, batch_size=scale.batch_size, seed=rnd.index, log_every=0,
            entity_mask_rate=FULL_ENTITY_MASK_RATE if v == "full" else 0.5)
        out = rnd.call(tracing.PRETRAIN, v,
                       lambda: objectives.pretrain(state.corpus, state.vocab,
                                                   state.configs[v], cfg),
                       lambda res: oracles.check_losses(res[1], steps),
                       items=steps * scale.batch_size, lane=True)
        rnd.outputs.append(None if out is None else [r["loss"] for r in out[1]])


def finetune_round(rnd: Round, state: State, scale: Scale) -> None:
    tags = state.votes.tags
    for v in _order(rnd.index):
        before = state.params[v]
        cfg = finetune.FinetuneConfig(epochs=1, seed=rnd.index)
        result = rnd.call(tracing.RUN_FINETUNE, v,
                          lambda: finetune.run_finetune(before, state.votes, cfg,
                                                        state.vocab, state.train_entities),
                          lambda res: oracles.check_frozen(before, res.params),
                          items=state.rows_per_epoch, lane=True)
        if result is None:
            rnd.outputs.append(None)
            continue
        scores = rnd.call(tracing.SCORE_MATRIX, v,
                          lambda: finetune.score_tag_matrix(result.params, state.vocab,
                                                            state.held_entities, tags),
                          lambda res: oracles.check_tag_scores(res, state.held_entities,
                                                               tags))
        rnd.outputs.append(None if scores is None else
                           [result.metrics[-1]["loss"]] +
                           [scores[e][t] for e in state.held_entities for t in tags])


def retrieve_round(rnd: Round, state: State, scale: Scale) -> None:
    vocab = state.vocab
    for v in _order(rnd.index):
        params = state.params[v]
        for query in state.queries:
            ranked = rnd.call(tracing.ZERO_SHOT, v,
                              lambda: evaluation.zero_shot_rank(params, vocab, query.text),
                              lambda res: oracles.check_zero_shot(res, params, vocab,
                                                                  query.text),
                              items=1, lane=True)
            rnd.outputs.append(_ranking_output(ranked))
    for query in state.queries:
        ranked = rnd.call(tracing.TFIDF_RANK, None,
                          lambda: state.index.rank_query(query.text),
                          lambda res: state.tfidf_oracle.check(res, query.text))
        rnd.outputs.append(_ranking_output(ranked))
    query = state.queries[rnd.index % min(BOS_QUERIES, len(state.queries))]
    ranked = rnd.call(tracing.BOS, "dual",
                      lambda: evaluation.bos_rank(state.params["dual"], vocab,
                                                  query.text, state.corpus),
                      lambda res: oracles.check_ranking(res, vocab.entity_ids))
    rnd.outputs.append(_ranking_output(ranked))


def _ranking_output(ranked):
    return None if ranked is None else (ranked.ids, ranked.scores)


ROUNDS = {"pretrain": pretrain_round, "finetune": finetune_round,
          "retrieve": retrieve_round}


# -- a run -----------------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    tracer: tracing.Tracer | None = None


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        scale: Scale = COMMITTED) -> RunResult:
    """Set up, then repeat rounds for ``seconds``; end-to-end or per-layer metrics.

    Untraced, the metrics are the end-to-end ones. Traced, each round runs
    twice with identical inputs, first untraced and then traced; the pair
    gives the tracing overhead, and the traced outputs must reproduce the
    untraced ones bit for bit.
    """
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    if trace:
        tracer.install()
    setup_times = []
    try:
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = setup(workload, seed, scale, workdir / f"setup{i}", tracer)
            setup_times.append(time.perf_counter() - start)
    finally:
        if trace:
            tracer.uninstall()
    prepare_oracles(workload, state)

    round_fn = ROUNDS[workload]
    rounds: list[Round] = []
    traced_time = untraced_time = 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() < deadline:
        plain = Round(index, tracing.NullTracer())
        round_fn(plain, state, scale)
        rounds.append(plain)
        attempted += plain.attempted
        failed += plain.failed
        if trace:
            traced = Round(index, tracer)
            tracer.round = index
            tracer.install()
            try:
                round_fn(traced, state, scale)
            finally:
                tracer.uninstall()
                tracer.round = None
            attempted += traced.attempted
            failed += traced.failed
            untraced_time += plain.busy
            traced_time += traced.busy
            if traced.outputs != plain.outputs:
                failed += 1
                print(f"round {index}: traced outputs differ from untraced ones",
                      file=sys.stderr)
        index += 1

    if trace:
        overhead = traced_time / untraced_time - 1.0 if untraced_time else 0.0
        metrics = tracing.layer_metrics(tracer, overhead)
    else:
        metrics = end_to_end(rounds, setup_times)
    return RunResult(correct=failed == 0, attempted=attempted, failed=failed,
                     metrics=metrics, tracer=tracer if trace else None)


def end_to_end(rounds: list[Round], setup_times: list[float]) -> dict[str, float]:
    """Rates are run-wide totals and ``round_s`` is the mean round.

    On a shared machine speed drifts in spells of seconds to minutes; the
    run-wide average varied less between runs than a median or best round.
    """
    metrics = {"setup_s": statistics.median(setup_times),
               "round_s": statistics.fmean(r.busy for r in rounds)}
    for v in VARIANTS:
        busy = sum(r.lane_time[v] for r in rounds)
        metrics[f"{v}_per_s"] = sum(r.lane_items[v] for r in rounds) / busy if busy else 0.0
    return metrics
