"""The acceptance recipe: the world, the training runs, one job per (variant, seed)
and criteria 4-6.

``tests/test_acceptance.py`` (criteria 4-6), ``tools/digests.py`` and
``tools/quality.py`` train this recipe and nothing else: the seed-7
synthetic world, 2000 pretrain steps at batch 96 (full entity mask rate 0.8,
0.5 for the others), training seed 11, and 8 fine-tuning epochs at seed 5.
The closed protocol fine-tunes on 80 of the 100 entities (split seed
``(5, 1)``); the open protocol, for dual and hybrid, on 80% of the tags
(split seed ``(5, 2)``).

``run_job`` pretrains one variant at one training seed, reads what criteria
4-6 need and digests everything it computed. ``run_jobs`` runs jobs in
spawned processes, one job per process and one BLAS thread each; a job
computes there what it computes in-process, because the BLAS thread count
does not change the bits of a training run. ``world_bars`` and ``criteria``
turn one training seed's jobs into criteria 4-6, each check with its value,
bar and margin.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import get_context
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

VARIANTS = ("dual", "hybrid", "full")
RETRIEVAL = ("dual", "hybrid")     # the variants criteria 4 and 6 read
WORLD_SEED = 7
BATCH_SIZE = 96
TRAIN_SEED = 11
STEPS = 2000
FT_SEED = 5
FT_EPOCHS = 8
FULL_ENTITY_MASK_RATE = 0.8
HOLDOUT_FRACTION = 0.2
TINY_STEPS = 3
TINY_EPOCHS = 1
TINY_WORLD = dict(entities=12, attribute_vocab=40, attributes_per_entity=5,
                  sentences_per_entity=10, words_per_sentence=7, noise_ratio=0.2,
                  clusters=2)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
AUC_BAR = 0.9            # criterion 5: held-out-entity tag AUC of every variant
MRR_FLOOR_FACTOR = 10    # criterion 4: times the MRR of a random ranking
HYBRID_SLACK = 0.02      # criterion 4: hybrid's MRR against dual's
OPEN_SLACK = 0.1         # criterion 6: open-protocol AUC against the closed one


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def params_sha(params) -> str:
    return sha(*(item for name in sorted(params.tensors)
                 for item in (name, params.tensors[name].tobytes())))


def world_digest(world) -> str:
    """One digest of a generated world: corpus entity ids and tokens, vocabulary
    tokens and kinds, vote counts in insertion order and the tag list, queries,
    attributes, distractors and sentences."""
    return sha([(ex.entity_id, ex.tokens) for ex in world.corpus],
               world.vocab.id_to_token, world.vocab.kinds,
               list(world.votes.counts.items()), world.votes.tags,
               [(q.text, q.relevant) for q in world.queries],
               world.attributes, world.distractors, world.sentences)


def world_spec(tiny: bool):
    """The seed-7 acceptance world, or a 12-entity one."""
    from textent.synthetic import SyntheticWorldSpec

    return SyntheticWorldSpec(**(TINY_WORLD if tiny else {}), seed=WORLD_SEED)


def splits(world):
    """The closed (entity) and open (tag) splits, each as (train, held out)."""
    import numpy as np

    from textent.finetune import split_holdout

    entities = split_holdout(world.votes.entity_ids(), HOLDOUT_FRACTION,
                             np.random.default_rng(np.random.SeedSequence((FT_SEED, 1))))
    tags = split_holdout(world.votes.tags, HOLDOUT_FRACTION,
                         np.random.default_rng(np.random.SeedSequence((FT_SEED, 2))))
    return entities, tags


def training_config(variant: str, seed: int, steps: int):
    """The pretraining run of one variant at one training seed."""
    from textent.objectives import TrainingConfig

    return TrainingConfig(
        steps=steps, seed=seed, batch_size=BATCH_SIZE,
        entity_mask_rate=FULL_ENTITY_MASK_RATE if variant == "full" else 0.5,
        log_every=0)


def _tag_metrics(scores, world, entities, tags) -> dict[str, float]:
    from textent.evaluation import EvalConfig, evaluate_tag_scores

    rows = evaluate_tag_scores(scores, world.votes, EvalConfig(precision_ks=(1,)),
                               entities, tags)
    return {r["metric"]: r["value"] for r in rows if r["metric"] in ("auc", "map")}


def run_job(variant: str, seed: int, tiny: bool = False, steps: int | None = None,
            epochs: int | None = None) -> dict:
    """Pretrain one variant at one training seed and read what criteria 4-6 need.

    ``steps`` and ``epochs`` default to the recipe's (``TINY_STEPS`` and
    ``TINY_EPOCHS`` on the tiny world). The pretrained checkpoint is saved
    and loaded back before anything reads it. Returns the zero-shot MRR and
    the closed protocol's held-out AUC and MAP and, for dual and hybrid, the
    open protocol's held-out-tag AUC and MAP and the tags the open run
    trained on. ``seconds`` holds the wall time of pretraining and of the
    zero-shot pass. ``digests`` holds the SHA-256 of everything the job
    computed, keyed ``stage.variant.what``: the pretrained parameters and
    per-step (loss, loss_entity, loss_mlm) trace; per protocol the
    fine-tuned parameters, the per-epoch losses and the scores of every
    held-out (entity, tag) pair; the zero-shot ranking of every query; and
    dual's ``BosIndex`` matrix over the corpus (dtype, shape and bytes).
    """
    from textent import encoder
    from textent.evaluation import BosIndex, EvalConfig, evaluate_retrieval, zero_shot_rank
    from textent.finetune import FinetuneConfig, run_finetune, score_tag_matrix
    from textent.objectives import pretrain
    from textent.synthetic import generate_synthetic

    world = generate_synthetic(world_spec(tiny))
    (train_entities, held_entities), (train_tags, held_tags) = splits(world)
    if steps is None:
        steps = TINY_STEPS if tiny else STEPS
    if epochs is None:
        epochs = TINY_EPOCHS if tiny else FT_EPOCHS
    t0 = time.perf_counter()
    params, metrics = pretrain(world.corpus, world.vocab,
                               encoder.ModelConfig.for_vocab(world.vocab, variant),
                               training_config(variant, seed, steps))
    out = {"seconds": {"pretrain": time.perf_counter() - t0}}
    digests = out["digests"] = {
        f"pretrain.{variant}.params": params_sha(params),
        f"pretrain.{variant}.losses": sha([(m["loss"], m["loss_entity"], m["loss_mlm"])
                                           for m in metrics])}
    with tempfile.TemporaryDirectory() as tmp:
        encoder.save_checkpoint(params, Path(tmp) / variant)
        params = encoder.load_checkpoint(Path(tmp) / variant)

    def finetune(stage, protocol, entities, tags, **subset):
        tuned = run_finetune(params, world.votes,
                             FinetuneConfig(epochs=epochs, seed=FT_SEED, protocol=protocol),
                             world.vocab, **subset)
        scores = score_tag_matrix(tuned.params, world.vocab, entities, tags)
        digests[f"{stage}.{variant}.params"] = params_sha(tuned.params)
        digests[f"{stage}.{variant}.loss"] = sha([m["loss"] for m in tuned.metrics])
        digests[f"{stage}.{variant}.scores"] = sha(
            [(e, t, scores[e][t]) for e in entities for t in tags])
        return tuned, _tag_metrics(scores, world, entities, tags)

    _, out["closed"] = finetune("finetune", "closed", held_entities, world.votes.tags,
                                train_entities=train_entities)
    if variant in RETRIEVAL:
        tuned, out["open"] = finetune("open", "open", world.votes.entity_ids(), held_tags,
                                      allowed_tags=set(train_tags))
        out["open_tags"] = sorted(tuned.used_tags)

    t0 = time.perf_counter()
    ranked = [zero_shot_rank(params, world.vocab, q.text) for q in world.queries]
    rows = evaluate_retrieval(ranked, world.queries, EvalConfig())
    out["seconds"]["zero_shot"] = time.perf_counter() - t0
    out["mrr"] = next(r["value"] for r in rows if r["metric"] == "mrr")
    digests[f"zero_shot.{variant}.rankings"] = sha([(r.ids, r.scores) for r in ranked])
    if variant == "dual":
        matrix = BosIndex(params, world.vocab, world.corpus).matrix
        digests["bos.dual.matrix"] = sha(str(matrix.dtype), matrix.shape, matrix.tobytes())
    return out


def world_bars(world) -> dict[str, float]:
    """The bars that do not depend on a model: the MRR floor and TF-IDF's MAP."""
    from textent.evaluation import TfidfIndex

    n = world.spec.entities
    (_, held_entities), _ = splits(world)
    index = TfidfIndex(world.corpus, world.vocab)
    tags = world.votes.tags
    tfidf = _tag_metrics({e: index.tag_scores(e, tags) for e in held_entities}, world,
                         held_entities, tags)
    return {"mrr_floor": MRR_FLOOR_FACTOR * sum(1.0 / r for r in range(1, n + 1)) / n,
            "tfidf_map": tfidf["map"]}


def _entry(value: float, bar: float) -> dict[str, float]:
    return {"value": value, "bar": bar, "margin": value - bar}


def criteria(jobs: dict[str, dict], bars: dict[str, float]) -> dict[str, dict]:
    """Criteria 4-6 of one training seed from its per-variant jobs.

    Each criterion holds ``pass`` and its ``checks``, each check its
    ``value``, ``bar`` and ``margin = value - bar``. Criterion 4's time bound
    is left to Tier-1.
    """
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


@contextmanager
def _one_blas_thread():
    """One BLAS thread in every process spawned inside the block.

    A spawned process reads the variables when it loads numpy; the parent's
    values are restored on exit.
    """
    before = {var: os.environ.get(var) for var in BLAS_ENV}
    os.environ.update(dict.fromkeys(BLAS_ENV, "1"))
    try:
        yield
    finally:
        for var, value in before.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _exit_with(caller: int) -> None:
    """Run in each worker: end it once ``caller`` is no longer its parent."""

    def watch():
        while os.getppid() == caller:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_jobs(jobs, tiny: bool = False, steps: int | None = None,
             epochs: int | None = None) -> dict[tuple[str, int], dict]:
    """``run_job`` for every (variant, seed) in ``jobs``, keyed by that pair.

    Every job runs in its own spawned process with one BLAS thread, all at
    once: on 2 CPUs the three seed-11 jobs took 103-108 s on three processes
    and 146 s on two. No process outlives the call, nor the calling process
    if that is killed. A job that fails raises ``RuntimeError`` naming its
    variant and seed once the other jobs end.
    """
    jobs = list(jobs)
    results = {}
    with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=len(jobs), mp_context=get_context("spawn"),
            max_tasks_per_child=1, initializer=_exit_with,
            initargs=(os.getpid(),)) as pool:
        futures = {(v, s): pool.submit(run_job, v, s, tiny, steps, epochs) for v, s in jobs}
        for (variant, seed), future in futures.items():
            try:
                results[variant, seed] = future.result()
            except Exception as exc:
                raise RuntimeError(f"job {variant} at training seed {seed} failed: "
                                   f"{exc!r}") from exc
    return results
