"""Self-test of the benchmark at a tiny world size; finishes in seconds.

    python3 -m pytest -q perfbench

Checks that every declared metric is reported with its unit on every
workload, that exact counts repeat, and that each oracle rejects a
deliberately corrupted output.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from textent import encoder, evaluation, synthetic  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(
    world=synthetic.SyntheticWorldSpec(entities=12, attribute_vocab=40,
                                       attributes_per_entity=5, sentences_per_entity=10,
                                       words_per_sentence=7, noise_ratio=0.2, clusters=2),
    model=dict(layers=1, heads=2, hidden=16, ffn_hidden=32, entity_dim=16),
    pretrain_steps=2, batch_size=8)
SEED = 11
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("encoder.rows_encoded", "encoder.pad_frac", "numerics.adam_elems",
                "finetune.tag_rows_per_entity", "evaluation.bos_rows_per_query",
                *(f"encoder.gemm_gflop_per_step.{v}" for v in tracing.VARIANTS))


def _run(workload, trace, tmp_path):
    return workloads.run(workload, SEED, 0.0, trace, tmp_path, scale=TINY)


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for section, units in (("end_to_end", workloads.metric_units(False)),
                           ("per_layer", workloads.metric_units(True))):
        declared = {m["name"]: m for m in BENCH[section]}
        assert list(declared) == list(units), section
        for name, metric in declared.items():
            assert metric["unit"] == units[name], name
            assert metric["better"] in ("higher", "lower"), name
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = _run(workload, False, tmp_path)
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == {m["name"] for m in BENCH["end_to_end"]}
    for name, value in result.metrics.items():
        assert math.isfinite(value) and value > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path, world):
    first = _run(workload, True, tmp_path / "a")
    second = _run(workload, True, tmp_path / "b")
    assert first.correct and first.failed == 0
    assert set(first.metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert all(math.isfinite(v) for v in first.metrics.values())
    for name in EXACT_COUNTS:
        assert first.metrics[name] == second.metrics[name], name
    backward = sum(first.metrics[f"autodiff.backward_ms.{v}"] for v in tracing.VARIANTS)
    assert (backward == 0.0) == (workload == "retrieve")
    if workload == "retrieve":
        corpus_rows = TINY.world.entities * TINY.world.sentences_per_entity
        assert first.metrics["evaluation.bos_rows_per_query"] == corpus_rows + 1
    if workload == "finetune":
        # the votes file lists only tags that have votes
        voted = {tag for _, tag in world.votes.counts}
        assert first.metrics["finetune.tag_rows_per_entity"] == len(voted)


# -- oracles reject corrupted outputs ------------------------------------------------


@pytest.fixture(scope="module")
def world():
    return synthetic.generate_synthetic(replace(TINY.world, seed=SEED))


@pytest.fixture(scope="module")
def dual_params(world):
    cfg = encoder.ModelConfig.for_vocab(world.vocab, "dual", **TINY.model)
    return encoder.init_params(cfg, seed=3)


def _swap(ranked, i=0, j=1, scores_too=False):
    """Exchange two ids, and with ``scores_too`` their scores as well."""
    ids, scores = list(ranked.ids), list(ranked.scores)
    ids[i], ids[j] = ids[j], ids[i]
    if scores_too:
        scores[i], scores[j] = scores[j], scores[i]
    return evaluation.RankedList(ids, scores)


def test_loss_oracle_rejects_corrupted_losses():
    rows = [{"step": s, "loss": 1.0 / s} for s in (1, 2, 3)]
    assert oracles.check_losses(rows, 3) is None
    assert oracles.check_losses(rows[:2], 3)
    assert oracles.check_losses(rows[:1] + [{"step": 2, "loss": float("nan")}] + rows[2:], 3)
    assert oracles.check_losses([rows[1], rows[0], rows[2]], 3)


def test_ranking_oracle_rejects_corrupted_rankings(world, dual_params):
    query = world.queries[0].text
    ranked = evaluation.zero_shot_rank(dual_params, world.vocab, query)
    assert oracles.check_ranking(ranked, world.vocab.entity_ids) is None
    last = len(ranked.ids) - 1
    assert oracles.check_ranking(_swap(ranked, 0, last, scores_too=True),
                                 world.vocab.entity_ids)
    dropped = evaluation.RankedList(ranked.ids[:-1], ranked.scores[:-1])
    assert oracles.check_ranking(dropped, world.vocab.entity_ids)
    assert oracles.check_zero_shot(ranked, dual_params, world.vocab, query) is None
    shifted = evaluation.RankedList(ranked.ids, [s - 1e-3 for s in ranked.scores])
    assert oracles.check_zero_shot(shifted, dual_params, world.vocab, query)
    assert oracles.check_zero_shot(_swap(ranked, 0, last), dual_params, world.vocab, query)


def test_tfidf_oracle_rejects_corrupted_rankings(world):
    index = evaluation.TfidfIndex(world.corpus, world.vocab)
    oracle = oracles.TfidfOracle(world.corpus, world.vocab)
    for query in world.queries:
        assert oracle.check(index.rank_query(query.text), query.text) is None
    query = world.queries[0].text
    ranked = index.rank_query(query)
    # exchange two entities that do not tie, keeping the scores in place
    j = next(j for j in range(1, len(ranked.ids)) if ranked.scores[j] < ranked.scores[0])
    assert oracle.check(_swap(ranked, 0, j), query)
    inflated = evaluation.RankedList(ranked.ids, [s * 1.01 for s in ranked.scores])
    assert oracle.check(inflated, query)


def test_finetune_oracles_reject_corrupted_outputs(world, dual_params):
    moved = dual_params.copy()
    assert oracles.check_frozen(dual_params, moved) is None
    moved.tensors["entity_table"][0, 0] += np.float32(1e-6)
    assert oracles.check_frozen(dual_params, moved)
    entities, tags = world.entity_ids[:2], world.votes.tags
    scores = {e: {t: 0.5 for t in tags} for e in entities}
    assert oracles.check_tag_scores(scores, entities, tags) is None
    scores[entities[0]][tags[0]] = float("nan")
    assert oracles.check_tag_scores(scores, entities, tags)
    del scores[entities[0]][tags[0]]
    assert oracles.check_tag_scores(scores, entities, tags)
