"""Acceptance criteria 4-6 at several training seeds, with each margin to its bar.

    python3 tools/quality.py --out BENCH_quality.json          # seeds 11-13, minutes
    python3 tools/quality.py --tiny --out /tmp/quality.json    # a 12-entity world, seconds

It trains the acceptance recipe of ``tools/recipe.py``, the one
``tests/test_acceptance.py`` trains, at each training seed. Training seed
11 is the acceptance run, so its values equal the ones Tier-1 prints. The
sweep reports and gates nothing; the acceptance tests stay the gate. Per
training seed it writes

  criterion_4  zero-shot MRR of dual and hybrid against the floor (10x the
               MRR of a random ranking) and hybrid against dual - 0.02
  criterion_5  held-out-entity tag AUC (bar 0.9) and MAP (bar: TF-IDF's)
               for every variant
  criterion_6  open-protocol AUC of dual and hybrid against the closed
               AUC - 0.1

with ``margin = value - bar`` for each; criterion 4's time bound is left to
Tier-1. Each (variant, seed) job runs through ``recipe.run_jobs``: in its
own process with one BLAS thread, computing what an in-process run
computes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from recipe import (BATCH_SIZE, FT_EPOCHS, FT_SEED, FULL_ENTITY_MASK_RATE,
                    RETRIEVAL, SRC, STEPS, TINY_EPOCHS, TINY_STEPS, VARIANTS, run_jobs,
                    splits, world_spec)

TRAIN_SEEDS = (11, 12, 13)
AUC_BAR = 0.9
MRR_FLOOR_FACTOR = 10
HYBRID_SLACK = 0.02
OPEN_SLACK = 0.1


def _bars(world) -> dict[str, float]:
    """The bars that do not depend on a model: the MRR floor and TF-IDF's MAP."""
    from textent.evaluation import EvalConfig, TfidfIndex, evaluate_tag_scores

    n = world.spec.entities
    (_, held_entities), _ = splits(world)
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


def sweep(tiny: bool) -> dict:
    """Every (variant, seed) job through ``recipe.run_jobs``; the report as a dict."""
    import numpy as np

    from textent.synthetic import generate_synthetic

    t0 = time.perf_counter()
    bars = _bars(generate_synthetic(world_spec(tiny)))
    jobs = [(v, s) for s in TRAIN_SEEDS for v in VARIANTS]
    results = run_jobs(jobs, tiny)
    return {
        "setup": {"world_seed": world_spec(tiny).seed, "tiny": tiny,
                  "pretrain_steps": TINY_STEPS if tiny else STEPS,
                  "batch_size": BATCH_SIZE, "full_entity_mask_rate": FULL_ENTITY_MASK_RATE,
                  "finetune_epochs": TINY_EPOCHS if tiny else FT_EPOCHS,
                  "finetune_seed": FT_SEED, "train_seeds": list(TRAIN_SEEDS)},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "blas_threads": 1,
                        "workers": len(jobs),
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
    sys.path.insert(0, str(SRC))  # spawned workers start with this sys.path
    report = sweep(args.tiny)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print("\n".join(summary(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
