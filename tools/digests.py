"""SHA-256 digests of what training and inference compute, for bit-for-bit comparisons.

    python3 tools/digests.py                  # the seed-7 acceptance world, 50 steps
    python3 tools/digests.py --tiny --steps 2 # a 12-entity world, seconds

Run it on two checkouts and diff the output: a change that claims to move
no bits prints the same lines. One BLAS thread is used, so the digests do
not depend on how the work is split between threads. It prints first

  world
      the generated world: corpus entity ids and tokens, vocabulary tokens
      and kinds, vote counts in insertion order and the tag list, queries,
      attributes, distractors and sentences;

then per variant

  pretrain.<variant>.params / .losses
      the parameters and the per-step (loss, loss_entity, loss_mlm) trace
      after ``--steps`` pretrain steps of the acceptance recipe
      (``tools/recipe.py``: batch 96, training seed 11, full entity mask
      rate 0.8);
  finetune.<variant>.params / .loss / .scores
      one ``FinetuneConfig(epochs=1, seed=5)`` epoch on the closed split's
      training entities, started from that checkpoint, then
      ``score_tag_matrix`` over the held-out entities and every tag;
  zero_shot.<variant>.rankings
      ``zero_shot_rank`` of every query on the pretrained checkpoint;
  bos.dual.matrix
      the pretrained dual checkpoint's ``BosIndex`` matrix over the corpus
      (dtype, shape and bytes).

Checkpoints are written and read back with ``save_checkpoint`` and
``load_checkpoint`` between the stages.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from recipe import (BLAS_ENV, FT_SEED, SRC, TRAIN_SEED, VARIANTS, params_sha, sha, splits,
                    training_config, world_spec)


def collect(spec, steps: int) -> dict[str, str]:
    """Every digest, keyed ``stage.variant.what``, for one world and step count."""
    from textent import encoder
    from textent.evaluation import BosIndex, zero_shot_rank
    from textent.finetune import FinetuneConfig, run_finetune, score_tag_matrix
    from textent.objectives import pretrain
    from textent.synthetic import generate_synthetic

    world = generate_synthetic(spec)
    (train_entities, held_entities), _ = splits(world)
    tags = world.votes.tags
    out = {"world": sha([(ex.entity_id, ex.tokens) for ex in world.corpus],
                        world.vocab.id_to_token, world.vocab.kinds,
                        list(world.votes.counts.items()), tags,
                        [(q.text, q.relevant) for q in world.queries],
                        world.attributes, world.distractors, world.sentences)}
    with tempfile.TemporaryDirectory() as tmp:
        for variant in VARIANTS:
            params, metrics = pretrain(world.corpus, world.vocab,
                                       encoder.ModelConfig.for_vocab(world.vocab, variant),
                                       training_config(variant, TRAIN_SEED, steps))
            out[f"pretrain.{variant}.params"] = params_sha(params)
            out[f"pretrain.{variant}.losses"] = sha(
                [(m["loss"], m["loss_entity"], m["loss_mlm"]) for m in metrics])
            encoder.save_checkpoint(params, Path(tmp) / variant)
            params = encoder.load_checkpoint(Path(tmp) / variant)

            tuned = run_finetune(params, world.votes, FinetuneConfig(epochs=1, seed=FT_SEED),
                                 world.vocab, train_entities)
            scores = score_tag_matrix(tuned.params, world.vocab, held_entities, tags)
            out[f"finetune.{variant}.params"] = params_sha(tuned.params)
            out[f"finetune.{variant}.loss"] = sha([m["loss"] for m in tuned.metrics])
            out[f"finetune.{variant}.scores"] = sha(
                [(e, t, scores[e][t]) for e in held_entities for t in tags])

            rankings = [zero_shot_rank(params, world.vocab, q.text) for q in world.queries]
            out[f"zero_shot.{variant}.rankings"] = sha(
                [(r.ids, r.scores) for r in rankings])
            if variant == "dual":
                matrix = BosIndex(params, world.vocab, world.corpus).matrix
                out["bos.dual.matrix"] = sha(str(matrix.dtype), matrix.shape,
                                             matrix.tobytes())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=50, help="pretrain steps per variant")
    parser.add_argument("--tiny", action="store_true",
                        help="a 12-entity world instead of the acceptance world")
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(BLAS_ENV, "1"))  # read when numpy loads, below
    sys.path.insert(0, str(SRC))
    for name, digest in collect(world_spec(args.tiny), args.steps).items():
        print(f"{name}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
