"""Command-line entry point wiring the pipeline end to end.

Subcommands: generate, preprocess, pretrain, finetune, evaluate, retrieve,
export. Every flag, required ones included, can also come from a config
file of ``key = value`` lines (``#`` comments allowed); explicit flags win
over the file. Logs go to stderr; data goes to files or stdout only.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import evaluation, finetune as ft, objectives, synthetic, text
from .encoder import (ModelConfig, ModelParams, entity_matrix, load_checkpoint,
                      save_checkpoint)
from .errors import DataError

log = logging.getLogger("textent")

# The baselines ``evaluate`` runs for each task.
BASELINES = {"retrieval": ("tfidf", "bos"), "tags": ("tfidf", "toptags")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, line in text.numbered_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{line_no}: expected 'key = value'")
        if "\0" in line:  # no path or flag can hold one
            raise DataError(f"{path}:{line_no}: holds a NUL character")
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
            try:
                val = action.type(val) if action.type is not None else val
            except ValueError as exc:
                raise DataError(f"{args.config}: {key} = {val!r} is not "
                                f"{action.type.__name__}") from exc
            if action.choices is not None and val not in action.choices:
                raise DataError(f"{args.config}: {key} = {val!r} is not one of "
                                f"{list(action.choices)}")
            setattr(args, key, val)
    unknown = set(values) - {a.dest for a in parser._actions}
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")


def _defaults(args: argparse.Namespace, **fallbacks) -> None:
    for key, value in fallbacks.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _set_fields(cls, args: argparse.Namespace) -> dict:
    """The flags that are set and name a field of dataclass ``cls``; unset
    flags are left out, so they keep the dataclass defaults."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _require(args, *flags: str) -> None:
    """DataError naming the first of ``flags`` (argument dests) left unset."""
    run = f"--task {args.task}" + (f" --baseline {args.baseline}" if args.baseline else "")
    for flag in flags:
        if getattr(args, flag, None) is None:
            raise DataError(f"{run} needs --{flag.replace('_', '-')}")


def _tfidf_index(args) -> evaluation.TfidfIndex:
    _require(args, "corpus", "vocab")
    return evaluation.TfidfIndex(text.read_corpus(args.corpus),
                                 text.Vocabulary.load(args.vocab))


def _at_least_one(args, flag: str) -> None:
    value = getattr(args, flag)
    if value < 1:
        raise DataError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")


def _split_problem(split: dict, votes: text.TagVotes, lists: tuple[str, ...]) -> str | None:
    """Why ``finetune``'s split cannot be read for ``lists`` (held list first), or None."""
    problem = text._row_problem(split, protocol=str)
    if problem is None and split["protocol"] not in ft.PROTOCOLS:
        return f"'protocol' is {split['protocol']!r}, not one of {ft.PROTOCOLS}"
    problem = problem or text._row_problem(split, **dict.fromkeys(lists, list[str]))
    for key in () if problem else lists:
        known, seen = set(votes.tags if key == "held_tags" else votes.entity_ids()), set()
        for name in split[key]:
            if name not in known:
                return f"{key!r} names {name!r}, which has no votes"
            if name in seen:
                return f"{key!r} names {name!r} twice"
            seen.add(name)
    return problem or (None if split[lists[0]] else f"{lists[0]!r} is empty")


def _load_model(args) -> tuple[ModelParams, text.Vocabulary]:
    """The --checkpoint and its vocabulary (--vocab, or the checkpoint's own)."""
    params = load_checkpoint(args.checkpoint)
    path = getattr(args, "vocab", None) or Path(args.checkpoint) / "vocab.tsv"
    if not Path(path).exists():
        raise DataError(f"no vocabulary at {path}; pass --vocab")
    vocab = text.Vocabulary.load(path)
    cfg = params.config
    if (vocab.entity_count, vocab.word_size) != (cfg.entity_count, cfg.word_vocab_size):
        raise DataError(
            f"vocabulary {path} ({vocab.entity_count} entities, {vocab.word_size} "
            f"words) does not match checkpoint {args.checkpoint} "
            f"({cfg.entity_count} entities, {cfg.word_vocab_size} words)")
    return params, vocab


# -- subcommands -----------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = synthetic.SyntheticWorldSpec(**_set_fields(synthetic.SyntheticWorldSpec, args))
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
    flags = {k: v for k, v in vars(args).items() if v is not None
             and k in ("min_words", "min_reviews", "max_seq_len", "min_freq")}
    examples, vocab = text.preprocess(raw, **flags)  # unset flags: its defaults
    entity_ids = sorted({ex.entity_id for ex in examples})
    vocab = text.extend_with_entities(vocab, entity_ids)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text.write_corpus(out / "corpus.jsonl", examples)
    vocab.save(out / "vocab.tsv")
    log.info("kept %d sentences across %d entities", len(examples), len(entity_ids))
    return 0


def _model_config_from_args(args, vocab: text.Vocabulary) -> ModelConfig:
    flags = _set_fields(ModelConfig, args)
    del flags["variant"]
    return ModelConfig.for_vocab(vocab, args.variant, **flags)


def cmd_pretrain(args) -> int:
    vocab = text.Vocabulary.load(args.vocab)
    corpus = text.read_corpus(args.corpus, vocab)
    model_cfg = _model_config_from_args(args, vocab)
    train_cfg = objectives.TrainingConfig(**_set_fields(objectives.TrainingConfig, args))
    out = Path(args.out_dir)  # the final checkpoint creates it
    params, metrics = objectives.pretrain(corpus, vocab, model_cfg, train_cfg,
                                          out_dir=out)
    vocab.save(out / "vocab.tsv")
    text.write_jsonl(out / "metrics.jsonl", metrics)
    log.info("pretrained %s for %d steps; final loss %.4f", args.variant,
             train_cfg.steps, metrics[-1]["loss"] if metrics else float("nan"))
    return 0


def cmd_finetune(args) -> int:
    params, vocab = _load_model(args)
    votes = text.read_votes(args.votes, vocab.entity_ids)
    cfg = ft.FinetuneConfig(**_set_fields(ft.FinetuneConfig, args))
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
    scores = ft.score_tag_matrix(result.params, vocab, eval_entities, eval_tags)
    ft.export_predictions(out / "predictions.tsv", scores)
    log.info("finetuned (%s protocol); wrote %s", cfg.protocol, out)
    return 0


def cmd_evaluate(args) -> int:
    base = evaluation.EvalConfig()
    _defaults(args, threshold=base.threshold, bos_aggregation=base.bos_aggregation,
              top_k_dump=20)
    _at_least_one(args, "top_k_dump")
    if args.baseline is not None and args.baseline not in BASELINES[args.task]:
        raise DataError(f"--task {args.task} takes --baseline "
                        f"{' or '.join(BASELINES[args.task])}, not {args.baseline!r}")
    eval_cfg = evaluation.EvalConfig(threshold=args.threshold,
                                     bos_aggregation=args.bos_aggregation)
    rows: list[dict]
    if args.task == "retrieval":
        _require(args, "queries")
        queries = text.read_queries(args.queries)
        if args.baseline == "tfidf":
            index = _tfidf_index(args)
            known, rank = index.entity_ids, index.rank_query
        elif args.baseline == "bos":
            _require(args, "checkpoint", "corpus")
            params, vocab = _load_model(args)
            bos = evaluation.BosIndex(params, vocab, text.read_corpus(args.corpus))
            known = bos.entity_ids
            rank = lambda query: bos.rank_query(query, eval_cfg.bos_aggregation)
        else:
            _require(args, "checkpoint")
            params, vocab = _load_model(args)
            known = vocab.entity_ids
            rank = lambda query: evaluation.zero_shot_rank(params, vocab, query)
        if not set(known).issuperset(e for q in queries for e in q.relevant):
            text.read_queries(args.queries, known)  # raises, naming the line
        ranked = [rank(q.text) for q in queries]
        rows = evaluation.evaluate_retrieval(ranked, queries, eval_cfg)
        if args.dump_dir:
            Path(args.dump_dir).mkdir(parents=True, exist_ok=True)
            evaluation.dump_rankings(Path(args.dump_dir) / "rankings.tsv",
                                     queries, ranked, args.top_k_dump)
    else:  # tags
        _require(args, "votes")
        votes = text.read_votes(args.votes)
        known = votes.entity_ids()  # top tags scores any entity the votes name
        if args.baseline == "tfidf":
            index = _tfidf_index(args)
            known = index.entity_ids
        elif args.baseline != "toptags":
            _require(args, "checkpoint")
            params, vocab = _load_model(args)
            known = vocab.entity_ids
        if not set(known).issuperset(votes.entity_ids()):
            text.read_votes(args.votes, known)  # raises, naming the line
        split_path = args.split
        if not split_path and args.checkpoint:
            split_path = Path(args.checkpoint) / "split.json"
            split_path = split_path if split_path.exists() else None
        entities, tags, split = votes.entity_ids(), votes.tags, {}
        if split_path:
            split = text.read_json_object(split_path)
            held = "held_tags" if split.get("protocol") == "open" else "held_entities"
            lists = (held, "train_entities") if args.baseline == "toptags" else (held,)
            problem = _split_problem(split, votes, lists)
            if problem:
                raise DataError(f"{split_path}: {problem}")
            entities, tags = ((entities, split[held]) if held == "held_tags"
                              else (split[held], tags))
        if args.baseline == "tfidf":
            scores = {e: index.tag_scores(e, tags) for e in entities}
        elif args.baseline == "toptags":
            order = evaluation.top_tags_baseline(votes, split.get("train_entities"))
            rank_score = {t: float(len(order) - i) for i, t in enumerate(order)}
            scores = {e: {t: rank_score.get(t, 0.0) for t in tags} for e in entities}
        else:
            scores = ft.score_tag_matrix(params, vocab, entities, tags)
        rows = evaluation.evaluate_tag_scores(scores, votes, eval_cfg, entities, tags)
    if args.out:
        text.write_jsonl(args.out, rows)
    else:
        sys.stdout.writelines(json.dumps(row) + "\n" for row in rows)
    return 0


def cmd_retrieve(args) -> int:
    _defaults(args, k=10)
    _at_least_one(args, "k")
    params, vocab = _load_model(args)
    ranked = evaluation.zero_shot_rank(params, vocab, args.query)
    sys.stdout.write("rank\tentity_id\tscore\n")
    for rank, (entity_id, score) in enumerate(
            zip(ranked.ids[: args.k], ranked.scores[: args.k]), start=1):
        sys.stdout.write(f"{rank}\t{entity_id}\t{score:.8g}\n")
    return 0


def cmd_export(args) -> int:
    params, vocab = _load_model(args)
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


def _add_common(p: argparse.ArgumentParser, fn, *required: str) -> None:
    """--config and --seed, the command, and the flags (argument dests) it
    requires. ``main`` checks those after reading --config, so the file can
    supply them; argparse's own check runs before."""
    p.add_argument("--config", help="key = value config file; flags win")
    p.add_argument("--seed", type=int, default=None, help="run seed")
    p.set_defaults(fn=fn, _parser=p, _required=required)


def _missing(args) -> list[str]:
    """The required flags that neither the command line nor --config set."""
    return ["/".join(a.option_strings) for a in args._parser._actions
            if a.dest in args._required and getattr(args, a.dest) is None]


def build_parser() -> _Parser:
    parser = _Parser(prog="textent",
                     description="entity representations from associated text")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate", help="write a synthetic corpus", parents=[])
    _add_common(p, cmd_generate, "seed", "out_dir")
    p.add_argument("--out-dir")
    p.add_argument("--entities", type=int, default=None)
    p.add_argument("--attribute-vocab", type=int, default=None)
    p.add_argument("--attributes-per-entity", type=int, default=None)
    p.add_argument("--sentences-per-entity", type=int, default=None)
    p.add_argument("--words-per-sentence", type=int, default=None)
    p.add_argument("--noise-ratio", type=float, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--distractor-ratio", type=float, default=None)

    p = sub.add_parser("preprocess", help="filter and tokenize raw reviews")
    _add_common(p, cmd_preprocess, "input", "out_dir")
    p.add_argument("--input", help="raw reviews JSONL")
    p.add_argument("--out-dir")
    for flag, default in (("--min-words", 5), ("--min-reviews", 5),
                          ("--max-seq-len", 64), ("--min-freq", 1)):
        p.add_argument(flag, type=int, default=None, help=f"default {default}")

    p = sub.add_parser("pretrain", help="train a variant on a corpus")
    _add_common(p, cmd_pretrain, "seed", "corpus", "vocab", "variant", "out_dir")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--variant", choices=("dual", "full", "hybrid"))
    p.add_argument("--out-dir")
    for flag, typ in (("--steps", int), ("--batch-size", int), ("--lr", float),
                      ("--word-mask-rate", float), ("--entity-mask-rate", float),
                      ("--loss-mix", float), ("--score-scale", float),
                      ("--layers", int), ("--heads", int), ("--hidden", int),
                      ("--ffn-hidden", int), ("--max-seq-len", int),
                      ("--checkpoint-every", int), ("--log-every", int)):
        p.add_argument(flag, type=typ, default=None)

    p = sub.add_parser("finetune", help="tag-prediction fine-tuning")
    _add_common(p, cmd_finetune, "seed", "checkpoint", "votes", "out_dir")
    p.add_argument("--checkpoint")
    p.add_argument("--votes")
    p.add_argument("--vocab", default=None)
    p.add_argument("--out-dir")
    p.add_argument("--protocol", choices=("closed", "open"), default=None)
    for flag, typ in (("--epochs", int), ("--lr", float), ("--negative-rate", float),
                      ("--holdout-fraction", float)):
        p.add_argument(flag, type=typ, default=None)
    p.add_argument("--weight-mode", choices=("linear", "log1p"), default=None)

    p = sub.add_parser("evaluate", help="metrics for models and baselines")
    _add_common(p, cmd_evaluate, "task")
    p.add_argument("--task", choices=("tags", "retrieval"))
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--votes", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--split", default=None, help="split.json from finetune")
    p.add_argument("--baseline", choices=("tfidf", "bos", "toptags"), default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--bos-aggregation", choices=("max", "mean"), default=None)
    p.add_argument("--out", default=None, help="report JSONL path (default stdout)")
    p.add_argument("--dump-dir", default=None)
    p.add_argument("--top-k-dump", type=int, default=None)

    p = sub.add_parser("retrieve", help="rank entities for one query")
    _add_common(p, cmd_retrieve, "checkpoint", "query")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab", default=None)
    p.add_argument("--query")
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("export", help="write entity embeddings as TSV")
    _add_common(p, cmd_export, "checkpoint", "out")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab", default=None)
    p.add_argument("--out")
    for command in sub.choices.values():
        for action in command._actions:
            if action.dest in command.get_default("_required"):
                action.help = " ".join(filter(None, (action.help, "(required)")))
    return parser


@contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread while the command runs, unless the environment sets it.

    The BoS index then builds on every CPU (``evaluation._bos_workers``); the
    thread count does not change the bits. The previous count is restored.
    """
    before = (None if "OPENBLAS_NUM_THREADS" in os.environ
              else evaluation._blas_threads())
    if before is not None:
        evaluation._set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            evaluation._set_blas_threads(before)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # reported with the subcommand's usage, when there is one
        getattr(args, "_parser", parser).error(f"unrecognized arguments: {' '.join(unknown)}")
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        _apply_config_file(args, args._parser)
        missing = _missing(args)
        if missing:
            args._parser.print_usage(sys.stderr)
            sys.stderr.write(f"{args._parser.prog}: error: the following arguments "
                             f"are required: {', '.join(missing)}\n")
            return 1
        if args.seed is None:
            args.seed = 0
        if args.seed < 0:
            raise DataError(f"--seed must be >= 0, got {args.seed}")
        with _one_blas_thread():
            return args.fn(args)
    except DataError as exc:
        sys.stderr.write(f"textent {args.command}: error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"textent {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
