"""Command-line entry point wiring the pipeline end to end.

Subcommands: generate, preprocess, pretrain, finetune, evaluate, retrieve,
export. Every flag can also come from a config file of ``key = value``
lines (``#`` comments allowed); explicit flags win over the file. Logs go
to stderr; data goes to files or stdout only.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluation, finetune as ft, objectives, synthetic, text
from .encoder import ModelConfig, entity_matrix, load_checkpoint, save_checkpoint
from .errors import DataError

log = logging.getLogger("textent")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{line_no}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset options from --config; explicit flags win."""
    if not getattr(args, "config", None):
        return
    values = _read_config_file(args.config)
    for action in parser._actions:
        key = action.dest
        if key in ("help", "config") or key not in values:
            continue
        if getattr(args, key) is None:
            val = values[key]
            if action.type is not None:
                val = action.type(val)
            setattr(args, key, val)
    unknown = set(values) - {a.dest for a in parser._actions}
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")


def _defaults(args: argparse.Namespace, **fallbacks) -> None:
    for key, value in fallbacks.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _require(args, *flags: str) -> None:
    """DataError naming the first of ``flags`` (argument dests) left unset."""
    run = f"--task {args.task}" + (f" --baseline {args.baseline}" if args.baseline else "")
    for flag in flags:
        if getattr(args, flag, None) is None:
            raise DataError(f"{run} needs --{flag.replace('_', '-')}")


def _load_vocab_for_checkpoint(args) -> text.Vocabulary:
    path = getattr(args, "vocab", None) or Path(args.checkpoint) / "vocab.tsv"
    if not Path(path).exists():
        raise DataError(f"no vocabulary at {path}; pass --vocab")
    return text.Vocabulary.load(path)


# -- subcommands -----------------------------------------------------------------


def cmd_generate(args) -> int:
    base = synthetic.SyntheticWorldSpec()
    _defaults(args, **{f: getattr(base, f) for f in
                       ("entities", "attribute_vocab", "attributes_per_entity",
                        "sentences_per_entity", "words_per_sentence",
                        "noise_ratio", "clusters", "distractor_ratio")})
    spec = synthetic.SyntheticWorldSpec(
        entities=args.entities, attribute_vocab=args.attribute_vocab,
        attributes_per_entity=args.attributes_per_entity,
        sentences_per_entity=args.sentences_per_entity,
        words_per_sentence=args.words_per_sentence,
        noise_ratio=args.noise_ratio, seed=args.seed,
        clusters=args.clusters, distractor_ratio=args.distractor_ratio)
    world = synthetic.generate_synthetic(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text.write_corpus(out / "corpus.jsonl", world.corpus)
    world.vocab.save(out / "vocab.tsv")
    text.write_votes(out / "votes.jsonl", world.votes)
    text.write_queries(out / "queries.jsonl", world.queries)
    text.write_jsonl(out / "attributes.jsonl",
                     ({"entity_id": e, "attributes": world.attributes[e],
                       "distractors": world.distractors[e]}
                      for e in world.entity_ids))
    with open(out / "world.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, indent=2)
    log.info("wrote %d sentences for %d entities to %s",
             len(world.corpus), spec.entities, out)
    return 0


def cmd_preprocess(args) -> int:
    raw = text.read_raw_reviews(args.input)
    examples, vocab = text.preprocess(
        raw, min_words=args.min_words, min_reviews=args.min_reviews,
        max_seq_len=args.max_seq_len, min_freq=args.min_freq)
    entity_ids = sorted({ex.entity_id for ex in examples})
    vocab = text.extend_with_entities(vocab, entity_ids)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text.write_corpus(out / "corpus.jsonl", examples)
    vocab.save(out / "vocab.tsv")
    log.info("kept %d sentences across %d entities", len(examples), len(entity_ids))
    return 0


def _model_config_from_args(args, vocab: text.Vocabulary) -> ModelConfig:
    base = ModelConfig()
    _defaults(args, **{f: getattr(base, f) for f in
                       ("layers", "heads", "hidden", "ffn_hidden", "max_seq_len")})
    entity_dim = args.entity_dim if args.entity_dim is not None else args.hidden
    return ModelConfig.for_vocab(
        vocab, args.variant, layers=args.layers, heads=args.heads,
        hidden=args.hidden, ffn_hidden=args.ffn_hidden,
        max_seq_len=args.max_seq_len, entity_dim=entity_dim)


def cmd_pretrain(args) -> int:
    vocab = text.Vocabulary.load(args.vocab)
    corpus = text.read_corpus(args.corpus)
    model_cfg = _model_config_from_args(args, vocab)
    base = objectives.TrainingConfig()
    _defaults(args, **{f: getattr(base, f) for f in
                       ("steps", "batch_size", "lr", "word_mask_rate",
                        "entity_mask_rate", "loss_mix", "score_scale",
                        "checkpoint_every", "log_every")})
    train_cfg = objectives.TrainingConfig(
        batch_size=args.batch_size, word_mask_rate=args.word_mask_rate,
        entity_mask_rate=args.entity_mask_rate, loss_mix=args.loss_mix,
        score_scale=args.score_scale, steps=args.steps, seed=args.seed,
        lr=args.lr, checkpoint_every=args.checkpoint_every,
        log_every=args.log_every)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params, metrics = objectives.pretrain(corpus, vocab, model_cfg, train_cfg,
                                          out_dir=out)
    vocab.save(out / "vocab.tsv")
    text.write_jsonl(out / "metrics.jsonl", metrics)
    log.info("pretrained %s for %d steps; final loss %.4f",
             args.variant, args.steps, metrics[-1]["loss"] if metrics else float("nan"))
    return 0


def cmd_finetune(args) -> int:
    params = load_checkpoint(args.checkpoint)
    vocab = _load_vocab_for_checkpoint(args)
    votes = text.read_votes(args.votes)
    base = ft.FinetuneConfig()
    _defaults(args, **{f: getattr(base, f) for f in
                       ("protocol", "epochs", "lr", "negative_rate", "weight_mode",
                        "holdout_fraction", "score_scale")})
    cfg = ft.FinetuneConfig(
        negative_rate=args.negative_rate, weight_mode=args.weight_mode,
        epochs=args.epochs, lr=args.lr, seed=args.seed,
        holdout_fraction=args.holdout_fraction, protocol=args.protocol,
        score_scale=args.score_scale)
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1)))
    entities = votes.entity_ids()
    if cfg.protocol == "closed":
        train_entities, held_entities = ft.split_holdout(entities, cfg.holdout_fraction, rng)
        train_tags, held_tags = list(votes.tags), []
        allowed = None
    else:
        train_tags, held_tags = ft.split_holdout(votes.tags, cfg.holdout_fraction, rng)
        train_entities, held_entities = entities, []
        allowed = set(train_tags)
    result = ft.run_finetune(params, votes, cfg, vocab, train_entities, allowed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.params, out)
    vocab.save(out / "vocab.tsv")
    with open(out / "split.json", "w", encoding="utf-8") as fh:
        json.dump({"protocol": cfg.protocol,
                   "train_entities": train_entities, "held_entities": held_entities,
                   "train_tags": train_tags, "held_tags": held_tags}, fh, indent=2)
    text.write_jsonl(out / "metrics.jsonl", result.metrics)
    eval_entities = held_entities if cfg.protocol == "closed" else entities
    eval_tags = votes.tags if cfg.protocol == "closed" else held_tags
    scores = ft.score_tag_matrix(result.params, vocab, eval_entities, eval_tags,
                                 cfg.score_scale)
    ft.export_predictions(out / "predictions.tsv", scores)
    log.info("finetuned (%s protocol); wrote %s", cfg.protocol, out)
    return 0


def cmd_evaluate(args) -> int:
    base = evaluation.EvalConfig()
    _defaults(args, threshold=base.threshold, bos_aggregation=base.bos_aggregation,
              score_scale=ft.FinetuneConfig().score_scale, top_k_dump=20)
    eval_cfg = evaluation.EvalConfig(threshold=args.threshold,
                                     bos_aggregation=args.bos_aggregation)
    rows: list[dict]
    if args.task == "retrieval":
        _require(args, "queries")
        queries = text.read_queries(args.queries)
        if args.baseline == "tfidf":
            _require(args, "corpus", "vocab")
            corpus = text.read_corpus(args.corpus)
            vocab = text.Vocabulary.load(args.vocab)
            index = evaluation.TfidfIndex(corpus, vocab)
            ranked = [index.rank_query(q.text) for q in queries]
        elif args.baseline == "bos":
            _require(args, "checkpoint", "corpus")
            params = load_checkpoint(args.checkpoint)
            vocab = _load_vocab_for_checkpoint(args)
            corpus = text.read_corpus(args.corpus)
            bos = evaluation.BosIndex(params, vocab, corpus)
            ranked = [bos.rank_query(q.text, eval_cfg.bos_aggregation) for q in queries]
        else:
            _require(args, "checkpoint")
            params = load_checkpoint(args.checkpoint)
            vocab = _load_vocab_for_checkpoint(args)
            ranked = [evaluation.zero_shot_rank(params, vocab, q.text, args.score_scale)
                      for q in queries]
        rows = evaluation.evaluate_retrieval(ranked, queries, eval_cfg)
        if args.dump_dir:
            Path(args.dump_dir).mkdir(parents=True, exist_ok=True)
            evaluation.dump_rankings(Path(args.dump_dir) / "rankings.tsv",
                                     queries, ranked, args.top_k_dump)
    elif args.task == "tags":
        _require(args, "votes")
        votes = text.read_votes(args.votes)
        split = None
        if args.split:
            with open(args.split, encoding="utf-8") as fh:
                split = json.load(fh)
        elif args.checkpoint and (Path(args.checkpoint) / "split.json").exists():
            with open(Path(args.checkpoint) / "split.json", encoding="utf-8") as fh:
                split = json.load(fh)
        if split is None:
            entities = votes.entity_ids()
            tags = votes.tags
        elif split.get("protocol") == "open":
            entities = votes.entity_ids()
            tags = split["held_tags"]
        else:
            entities = split["held_entities"]
            tags = votes.tags
        if args.baseline == "tfidf":
            _require(args, "corpus", "vocab")
            corpus = text.read_corpus(args.corpus)
            vocab = text.Vocabulary.load(args.vocab)
            index = evaluation.TfidfIndex(corpus, vocab)
            scores = {e: index.tag_scores(e, tags) for e in entities}
        elif args.baseline == "toptags":
            order = evaluation.top_tags_baseline(
                votes, split["train_entities"] if split else None)
            rank_score = {t: float(len(order) - i) for i, t in enumerate(order)}
            scores = {e: {t: rank_score.get(t, 0.0) for t in tags} for e in entities}
        else:
            _require(args, "checkpoint")
            params = load_checkpoint(args.checkpoint)
            vocab = _load_vocab_for_checkpoint(args)
            scores = ft.score_tag_matrix(params, vocab, entities, tags, args.score_scale)
        rows = evaluation.evaluate_tag_scores(scores, votes, eval_cfg, entities, tags)
    else:
        raise DataError(f"unknown task {args.task!r}")
    if args.out:
        evaluation.write_report(args.out, rows)
    else:
        for row in rows:
            sys.stdout.write(json.dumps(row) + "\n")
    return 0


def cmd_retrieve(args) -> int:
    _defaults(args, k=10, score_scale=ft.FinetuneConfig().score_scale)
    params = load_checkpoint(args.checkpoint)
    vocab = _load_vocab_for_checkpoint(args)
    ranked = evaluation.zero_shot_rank(params, vocab, args.query, args.score_scale)
    sys.stdout.write("rank\tentity_id\tscore\n")
    for rank, (entity_id, score) in enumerate(
            zip(ranked.ids[: args.k], ranked.scores[: args.k]), start=1):
        sys.stdout.write(f"{rank}\t{entity_id}\t{score:.8g}\n")
    return 0


def cmd_export(args) -> int:
    params = load_checkpoint(args.checkpoint)
    vocab = _load_vocab_for_checkpoint(args)
    table = entity_matrix(params)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# variant={params.config.variant} dim={table.shape[1]} "
                 f"entities={table.shape[0]}\n")
        for i, entity_id in enumerate(vocab.entity_ids):
            values = "\t".join(repr(float(x)) for x in table[i])
            fh.write(f"{entity_id}\t{values}\n")
    log.info("exported %d embeddings to %s", table.shape[0], args.out)
    return 0


# -- argument wiring ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, seed_required: bool = False) -> None:
    p.add_argument("--config", help="key = value config file; flags win")
    p.add_argument("--seed", type=int, required=False, default=None,
                   help="run seed" + (" (required)" if seed_required else ""))


def build_parser() -> _Parser:
    parser = _Parser(prog="textent",
                     description="entity representations from associated text")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate", help="write a synthetic corpus", parents=[])
    _add_common(p, seed_required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--entities", type=int, default=None)
    p.add_argument("--attribute-vocab", type=int, default=None)
    p.add_argument("--attributes-per-entity", type=int, default=None)
    p.add_argument("--sentences-per-entity", type=int, default=None)
    p.add_argument("--words-per-sentence", type=int, default=None)
    p.add_argument("--noise-ratio", type=float, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--distractor-ratio", type=float, default=None)
    p.set_defaults(fn=cmd_generate, _seed_required=True, _parser=p)

    p = sub.add_parser("preprocess", help="filter and tokenize raw reviews")
    _add_common(p)
    p.add_argument("--input", required=True, help="raw reviews JSONL")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-words", type=int, default=5)
    p.add_argument("--min-reviews", type=int, default=5)
    p.add_argument("--max-seq-len", type=int, default=64)
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(fn=cmd_preprocess, _seed_required=False, _parser=p)

    p = sub.add_parser("pretrain", help="train a variant on a corpus")
    _add_common(p, seed_required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--variant", required=True, choices=("dual", "full", "hybrid"))
    p.add_argument("--out-dir", required=True)
    for flag, typ in (("--steps", int), ("--batch-size", int), ("--lr", float),
                      ("--word-mask-rate", float), ("--entity-mask-rate", float),
                      ("--loss-mix", float), ("--score-scale", float),
                      ("--layers", int), ("--heads", int), ("--hidden", int),
                      ("--ffn-hidden", int), ("--max-seq-len", int),
                      ("--entity-dim", int), ("--checkpoint-every", int),
                      ("--log-every", int)):
        p.add_argument(flag, type=typ, default=None)
    p.set_defaults(fn=cmd_pretrain, _seed_required=True, _parser=p)

    p = sub.add_parser("finetune", help="tag-prediction fine-tuning")
    _add_common(p, seed_required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--votes", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--protocol", choices=("closed", "open"), default=None)
    for flag, typ in (("--epochs", int), ("--lr", float), ("--negative-rate", float),
                      ("--holdout-fraction", float), ("--score-scale", float)):
        p.add_argument(flag, type=typ, default=None)
    p.add_argument("--weight-mode", choices=("linear", "log1p"), default=None)
    p.set_defaults(fn=cmd_finetune, _seed_required=True, _parser=p)

    p = sub.add_parser("evaluate", help="metrics for models and baselines")
    _add_common(p)
    p.add_argument("--task", required=True, choices=("tags", "retrieval"))
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--votes", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--split", default=None, help="split.json from finetune")
    p.add_argument("--baseline", choices=("tfidf", "bos", "toptags"), default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--bos-aggregation", choices=("max", "mean"), default=None)
    p.add_argument("--score-scale", type=float, default=None)
    p.add_argument("--out", default=None, help="report JSONL path (default stdout)")
    p.add_argument("--dump-dir", default=None)
    p.add_argument("--top-k-dump", type=int, default=None)
    p.set_defaults(fn=cmd_evaluate, _seed_required=False, _parser=p)

    p = sub.add_parser("retrieve", help="rank entities for one query")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--score-scale", type=float, default=None)
    p.set_defaults(fn=cmd_retrieve, _seed_required=False, _parser=p)

    p = sub.add_parser("export", help="write entity embeddings as TSV")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export, _seed_required=False, _parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        _apply_config_file(args, args._parser)
        if getattr(args, "_seed_required", False) and args.seed is None:
            sys.stderr.write(f"textent {args.command}: error: --seed is required\n")
            return 1
        if args.seed is None:
            args.seed = 0
        return args.fn(args)
    except DataError as exc:
        sys.stderr.write(f"textent {args.command}: error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"textent {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
