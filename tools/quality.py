"""Acceptance criteria 4-6 at several training seeds, with each margin to its bar.

    python3 tools/quality.py --out BENCH_quality.json          # seeds 11-13, minutes
    python3 tools/quality.py --tiny --out /tmp/quality.json    # a 12-entity world, seconds

It trains as ``tests/test_acceptance.py`` does: the seed-7 world, 2000
pretrain steps at batch 96 (full entity mask rate 0.8), 8 closed-protocol
fine-tuning epochs at seed 5 on the 80 training entities, and the open
protocol for dual and hybrid. Training seed 11 is the acceptance run, so
its values equal the ones Tier-1 prints. The sweep reports and gates
nothing; the acceptance tests stay the gate. Per training seed it writes

  criterion_4  zero-shot MRR of dual and hybrid against the floor (10x the
               MRR of a random ranking) and hybrid against dual - 0.02
  criterion_5  held-out-entity tag AUC (bar 0.9) and MAP (bar: TF-IDF's)
               for every variant
  criterion_6  open-protocol AUC of dual and hybrid against the closed
               AUC - 0.1

with ``margin = value - bar`` for each; criterion 4's time bound is left to
Tier-1. Each (variant, seed) job runs in its own process with one BLAS
thread, at most ``nproc`` at once; the BLAS thread count does not change
the bits of a training run, so a job computes what an in-process run
computes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from digests import (BATCH_SIZE, FT_SEED, FULL_ENTITY_MASK_RATE, HOLDOUT_FRACTION, SRC,
                     VARIANTS, world_spec)

TRAIN_SEEDS = (11, 12, 13)
STEPS = 2000
FT_EPOCHS = 8
TINY_STEPS = 3
TINY_EPOCHS = 1
RETRIEVAL = ("dual", "hybrid")     # the variants criteria 4 and 6 read
AUC_BAR = 0.9
MRR_FLOOR_FACTOR = 10
HYBRID_SLACK = 0.02
OPEN_SLACK = 0.1


def _splits(world):
    """The closed (entity) and open (tag) splits the acceptance fixtures use."""
    import numpy as np

    from textent.finetune import split_holdout

    entities = split_holdout(world.votes.entity_ids(), HOLDOUT_FRACTION,
                             np.random.default_rng(np.random.SeedSequence((FT_SEED, 1))))
    tags = split_holdout(world.votes.tags, HOLDOUT_FRACTION,
                         np.random.default_rng(np.random.SeedSequence((FT_SEED, 2))))
    return entities, tags


def _tag_metrics(params, world, entities, tags) -> dict[str, float]:
    from textent.evaluation import EvalConfig, evaluate_tag_scores
    from textent.finetune import score_tag_matrix

    scores = score_tag_matrix(params, world.vocab, entities, tags)
    rows = evaluate_tag_scores(scores, world.votes, EvalConfig(precision_ks=(1,)),
                               entities, tags)
    return {r["metric"]: r["value"] for r in rows if r["metric"] in ("auc", "map")}


def run_job(variant: str, seed: int, tiny: bool) -> dict:
    """Pretrain one variant at one training seed and read what criteria 4-6 need."""
    from textent.encoder import ModelConfig
    from textent.evaluation import EvalConfig, evaluate_retrieval, zero_shot_rank
    from textent.finetune import FinetuneConfig, run_finetune
    from textent.objectives import TrainingConfig, pretrain
    from textent.synthetic import generate_synthetic

    world = generate_synthetic(world_spec(tiny))
    (train_entities, held_entities), (train_tags, held_tags) = _splits(world)
    epochs = TINY_EPOCHS if tiny else FT_EPOCHS
    train = TrainingConfig(
        steps=TINY_STEPS if tiny else STEPS, seed=seed, batch_size=BATCH_SIZE,
        entity_mask_rate=FULL_ENTITY_MASK_RATE if variant == "full" else 0.5,
        log_every=0)
    params, _ = pretrain(world.corpus, world.vocab,
                         ModelConfig.for_vocab(world.vocab, variant), train)
    out = {}
    tuned = run_finetune(params, world.votes, FinetuneConfig(epochs=epochs, seed=FT_SEED),
                         world.vocab, train_entities)
    out["closed"] = _tag_metrics(tuned.params, world, held_entities, world.votes.tags)
    if variant in RETRIEVAL:
        ranked = [zero_shot_rank(params, world.vocab, q.text) for q in world.queries]
        rows = evaluate_retrieval(ranked, world.queries, EvalConfig())
        out["mrr"] = next(r["value"] for r in rows if r["metric"] == "mrr")
        tuned = run_finetune(params, world.votes,
                             FinetuneConfig(epochs=epochs, seed=FT_SEED, protocol="open"),
                             world.vocab, allowed_tags=set(train_tags))
        out["open"] = _tag_metrics(tuned.params, world, world.votes.entity_ids(),
                                   held_tags)
    return out


def _bars(world) -> dict[str, float]:
    """The bars that do not depend on a model: the MRR floor and TF-IDF's MAP."""
    from textent.evaluation import EvalConfig, TfidfIndex, evaluate_tag_scores

    n = world.spec.entities
    (_, held_entities), _ = _splits(world)
    index = TfidfIndex(world.corpus, world.vocab)
    tags = world.votes.tags
    rows = evaluate_tag_scores({e: index.tag_scores(e, tags) for e in held_entities},
                               world.votes, EvalConfig(precision_ks=(1,)),
                               held_entities, tags)
    return {"mrr_floor": MRR_FLOOR_FACTOR * sum(1.0 / r for r in range(1, n + 1)) / n,
            "tfidf_map": next(r["value"] for r in rows if r["metric"] == "map")}


def _entry(value: float, bar: float) -> dict[str, float]:
    return {"value": value, "bar": bar, "margin": value - bar}


def criteria(jobs: dict[str, dict], bars: dict[str, float]) -> dict[str, dict]:
    """Criteria 4-6 of one training seed from its per-variant jobs."""
    floor, dual_mrr = bars["mrr_floor"], jobs["dual"]["mrr"]
    c4 = {"dual": _entry(dual_mrr, floor), "hybrid": _entry(jobs["hybrid"]["mrr"], floor),
          "hybrid_vs_dual": _entry(jobs["hybrid"]["mrr"], dual_mrr - HYBRID_SLACK)}
    c5 = {}
    for v in VARIANTS:
        c5[f"{v}.auc"] = _entry(jobs[v]["closed"]["auc"], AUC_BAR)
        c5[f"{v}.map"] = _entry(jobs[v]["closed"]["map"], bars["tfidf_map"])
    c6 = {v: _entry(jobs[v]["open"]["auc"], jobs[v]["closed"]["auc"] - OPEN_SLACK)
          for v in RETRIEVAL}
    out = {}
    for name, checks in (("criterion_4", c4), ("criterion_5", c5), ("criterion_6", c6)):
        # criterion 5's MAP bar is strict; every other bar admits equality
        ok = all(e["margin"] > 0 if k.endswith(".map") else e["margin"] >= 0
                 for k, e in checks.items())
        out[name] = {"pass": ok, "checks": checks}
    return out


def sweep(tiny: bool, workers: int) -> dict:
    """Every (variant, seed) job through a spawn pool; the report as a dict."""
    import numpy as np

    from textent.synthetic import generate_synthetic

    t0 = time.perf_counter()
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"),
                               max_tasks_per_child=1)
    with pool:
        futures = {(v, s): pool.submit(run_job, v, s, tiny)
                   for s in TRAIN_SEEDS for v in VARIANTS}
        bars = _bars(generate_synthetic(world_spec(tiny)))
        results = {key: f.result() for key, f in futures.items()}
    return {
        "setup": {"world_seed": world_spec(tiny).seed, "tiny": tiny,
                  "pretrain_steps": TINY_STEPS if tiny else STEPS,
                  "batch_size": BATCH_SIZE, "full_entity_mask_rate": FULL_ENTITY_MASK_RATE,
                  "finetune_epochs": TINY_EPOCHS if tiny else FT_EPOCHS,
                  "finetune_seed": FT_SEED, "train_seeds": list(TRAIN_SEEDS)},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "blas_threads": 1,
                        "workers": workers,
                        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE")},
        "bars": bars,
        "seeds": {str(s): criteria({v: results[v, s] for v in VARIANTS}, bars)
                  for s in TRAIN_SEEDS},
        "wall_s": time.perf_counter() - t0,
    }


def summary(report: dict) -> list[str]:
    """One line per seed and criterion: each value with its margin."""
    lines = []
    for seed, crit in report["seeds"].items():
        for name, result in crit.items():
            parts = [f"{k} {e['value']:.3f} ({e['margin']:+.3f})"
                     for k, e in result["checks"].items()]
            lines.append(f"seed {seed} {name} {'pass' if result['pass'] else 'FAIL'}: "
                         + ", ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON report to write")
    parser.add_argument("--tiny", action="store_true",
                        help="a 12-entity world, 3 pretrain steps and 1 epoch")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads, here and in every worker
    sys.path.insert(0, str(SRC))  # spawned workers start with this sys.path
    jobs = len(TRAIN_SEEDS) * len(VARIANTS)
    report = sweep(args.tiny, min(len(os.sched_getaffinity(0)), jobs))
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print("\n".join(summary(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
