"""Acceptance criteria 4-6 at several training seeds, with each margin to its bar.

    python3 tools/quality.py --out BENCH_quality.json          # seeds 11-13, minutes
    python3 tools/quality.py --tiny --out /tmp/quality.json    # a 12-entity world, seconds

It trains the acceptance recipe of ``tools/recipe.py``, the one
``tests/test_acceptance.py`` trains, at each training seed, and reads its
criteria through ``recipe.criteria``, as the acceptance tests do. Training
seed 11 is the acceptance run, so its values equal the ones Tier-1 prints.
The sweep reports and gates nothing; the acceptance tests stay the gate.
Per training seed it writes

  criterion_4  zero-shot MRR of dual and hybrid against the floor
               (``MRR_FLOOR_FACTOR`` times the MRR of a random ranking) and
               hybrid against dual - ``HYBRID_SLACK``
  criterion_5  held-out-entity tag AUC (bar ``AUC_BAR``) and MAP (bar:
               TF-IDF's) for every variant
  criterion_6  open-protocol AUC of dual and hybrid against the closed
               AUC - ``OPEN_SLACK``

with the constants of ``tools/recipe.py`` and ``margin = value - bar`` for
each; criterion 4's time bound is left to Tier-1. Each (variant, seed) job runs through ``recipe.run_jobs``: in its
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

from recipe import (BATCH_SIZE, FT_EPOCHS, FT_SEED, FULL_ENTITY_MASK_RATE, SRC, STEPS,
                    TINY_EPOCHS, TINY_STEPS, VARIANTS, criteria, run_jobs, world_bars,
                    world_spec)

TRAIN_SEEDS = (11, 12, 13)


def sweep(tiny: bool) -> dict:
    """Every (variant, seed) job through ``recipe.run_jobs``; the report as a dict."""
    import numpy as np

    from textent.synthetic import generate_synthetic

    t0 = time.perf_counter()
    bars = world_bars(generate_synthetic(world_spec(tiny)))
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
