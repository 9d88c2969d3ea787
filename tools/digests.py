"""SHA-256 digests of what training and inference compute, for bit-for-bit comparisons.

    python3 tools/digests.py                  # the seed-7 acceptance world, 50 steps
    python3 tools/digests.py --tiny --steps 2 # a 12-entity world, seconds

Run it on two checkouts and diff the output: a change that claims to move
no bits prints the same lines. It prints first

  world
      ``recipe.world_digest`` of the generated world;

then the digests of ``recipe.run_jobs`` at training seed 11, ``--steps``
pretrain steps and one fine-tuning epoch, the jobs that the acceptance
criteria run at 2000 steps and 8 epochs (one spawned process per variant,
one BLAS thread each), per variant:

  pretrain.<variant>.params / .losses
      the parameters and the per-step (loss, loss_entity, loss_mlm) trace;
  finetune.<variant>.params / .loss / .scores
      the closed protocol, started from the checkpoint that
      ``save_checkpoint`` wrote and ``load_checkpoint`` read back, then
      ``score_tag_matrix`` over the held-out entities and every tag;
  open.<variant>.params / .loss / .scores  (dual and hybrid)
      the open protocol, scored over every entity and the held-out tags;
  zero_shot.<variant>.rankings
      ``zero_shot_rank`` of every query on the pretrained checkpoint;
  bos.dual.matrix
      the pretrained dual checkpoint's ``BosIndex`` matrix over the corpus
      (dtype, shape and bytes).
"""

from __future__ import annotations

import argparse
import sys

from recipe import SRC, TRAIN_SEED, VARIANTS, run_jobs, world_digest, world_spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=50, help="pretrain steps per variant")
    parser.add_argument("--tiny", action="store_true",
                        help="a 12-entity world instead of the acceptance world")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))  # spawned workers start with this sys.path
    from textent.synthetic import generate_synthetic

    print("world  " + world_digest(generate_synthetic(world_spec(args.tiny))))
    jobs = run_jobs(((v, TRAIN_SEED) for v in VARIANTS), args.tiny, args.steps, epochs=1)
    for job in jobs.values():
        for name, digest in job["digests"].items():
            print(f"{name}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
