"""What in ``src/textent`` no program path reaches, from a line trace.

    python3 tools/reach.py

Runs, under the stdlib ``trace`` module with line counting (``runctx``,
which also traces the threads the runs start, such as ``BosIndex``'s pool):

  - ``recipe.run_job`` in-process for every variant on the 12-entity world,
    with 2 pretrain steps and one fine-tuning epoch: what
    ``tools/digests.py --tiny --steps 2`` digests;
  - a tiny-world pass of every subcommand of ``textent``: ``generate``,
    ``preprocess`` on a constructed review file, ``pretrain`` of each
    variant with ``--checkpoint-every`` (dual's flags come from
    ``--config``), ``finetune`` with both protocols, ``evaluate`` for every
    task and baseline, ``retrieve`` and ``export``, after three usage
    errors (no subcommand, an unknown flag, a required flag set nowhere).

It prints each ``src/textent`` function that no run entered, with its
reason when ``ALLOWLIST`` holds one, then each statement that no run
reached inside a function that one did. Raise statements, except handlers
and the branches that raise or warn are left out; so are the functions
and statements inside a function already listed.

A function stays only with a reason in ``ALLOWLIST``: it exits 1 when it
lists a function that ``ALLOWLIST`` does not hold, or when an
``ALLOWLIST`` entry is no longer listed. ``tests/test_reach.py`` runs it.
It unsets ``OPENBLAS_NUM_THREADS`` for its runs: ``textent`` then pins
OpenBLAS to one thread itself, the path a user's run takes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import trace
from pathlib import Path

from recipe import SRC, TINY_WORLD, TRAIN_SEED, VARIANTS, WORLD_SEED, run_job

PACKAGE = SRC / "textent"

# Functions no program path enters, each kept for the reason beside it.
ALLOWLIST = {
    "encoder.encode": "perfbench/oracles.py reads a query's CLS vector through it (with "
                      "the EncoderOutput it returns); tests encode one row with it",
    "encoder.mlm_logits": "perfbench/tracing.py wraps evaluation.mlm_logits by name; "
                          "tests read the tied head through it as an oracle",
    "evaluation.bos_rank": "perfbench's retrieve workload ranks its BoS query with it",
    "text.TagVotes.positives": "perfbench/workloads.py counts each entity's tag rows "
                               "with it",
    "encoder.ModelParams.copy": "perfbench/test_perfbench.py moves a copy of the "
                                "parameters to check its frozen-entity oracle",
    "numerics.grad_check": "the gradient tests and acceptance criterion 1 compare every "
                           "backward against it",
    "encoder.ModelParams.astype": "the zero-shot tests edit a float64 copy of a "
                                  "checkpoint made with it",
    "synthetic._draw_words_loop": "the fallback where Lemire's method would reject a "
                                  "draw, and the reference the synthetic tests compare "
                                  "_draw_words against",
}


# -- the runs ---------------------------------------------------------------------

_REVIEWS = [  # (entity, name, text): three entities that survive the filters
    (e, name, f"{name} {words} number {i} of the reviews here")
    for e, name, words in (("r1", "Blue Lagoon", "calm warm water and a quiet café"),
                           ("r2", "Night Train", "loud fast cars with bright lights"),
                           ("r3", "", "slow river wheel and dusty grain"))
    for i in range(6)
]
_REVIEWS += [_REVIEWS[0],                                               # a duplicate
             ("r1", "Blue Lagoon", "too short"),                        # too short
             ("r4", "Lonely", "only one review for this entity at all")]  # too few


def _cli(*argv: str, status: int = 0) -> None:
    """``textent <argv>`` in-process; raises with its stderr unless it exits
    with ``status``."""
    from textent.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    if code != status:
        raise RuntimeError(f"textent {' '.join(argv)} exited {code}:\n{err.getvalue()}")


def cli_pass(root: Path) -> None:
    """Every subcommand of ``textent`` on a tiny world, under ``root``, after
    the three usage errors: no subcommand, an unknown flag, a required flag
    set nowhere."""
    _cli(status=1)
    _cli("generate", "--no-such-flag", status=1)
    _cli("generate", "--seed", "1", status=1)

    data = root / "data"
    world = [f"--{k.replace('_', '-')}={v}" for k, v in TINY_WORLD.items()]
    _cli("generate", "--seed", str(WORLD_SEED), "--out-dir", str(data), *world)

    reviews = root / "reviews.jsonl"
    reviews.write_text("".join(json.dumps({"entity_id": e, "entity_name": n, "text": t},
                                          ensure_ascii=False) + "\n"
                               for e, n, t in _REVIEWS), encoding="utf-8")
    _cli("preprocess", "--input", str(reviews), "--out-dir", str(root / "reviews"))

    corpus, vocab, votes = (str(data / f) for f in ("corpus.jsonl", "vocab.tsv",
                                                    "votes.jsonl"))
    small = ["--steps", "2", "--batch-size", "8", "--checkpoint-every", "1",
             "--log-every", "1", "--seed", "11"]
    config = root / "dual.cfg"
    config.write_text(f"corpus = {corpus}\nvocab = {vocab}\n# the rest on the line\n"
                      "variant = dual\n", encoding="utf-8")
    _cli("pretrain", "--config", str(config), "--out-dir", str(root / "dual"), *small)
    for variant in ("hybrid", "full"):
        _cli("pretrain", "--corpus", corpus, "--vocab", vocab, "--variant", variant,
             "--out-dir", str(root / variant), *small)

    for variant in ("dual", "hybrid", "full"):
        _cli("finetune", "--checkpoint", str(root / variant), "--votes", votes,
             "--epochs", "1", "--seed", "5", "--out-dir", str(root / f"{variant}-closed"))
    _cli("finetune", "--checkpoint", str(root / "dual"), "--votes", votes,
         "--protocol", "open", "--epochs", "1", "--seed", "5",
         "--out-dir", str(root / "dual-open"))

    queries = str(data / "queries.jsonl")
    dump = ["--dump-dir", str(root / "dump"), "--top-k-dump", "3"]
    for variant in ("dual", "hybrid", "full"):
        _cli("evaluate", "--task", "retrieval", "--checkpoint", str(root / variant),
             "--queries", queries, *dump)
        _cli("evaluate", "--task", "tags", "--checkpoint", str(root / f"{variant}-closed"),
             "--votes", votes, "--out", str(root / f"{variant}-tags.jsonl"))
    _cli("evaluate", "--task", "tags", "--checkpoint", str(root / "dual-open"),
         "--votes", votes)
    _cli("evaluate", "--task", "retrieval", "--baseline", "tfidf", "--corpus", corpus,
         "--vocab", vocab, "--queries", queries)
    _cli("evaluate", "--task", "retrieval", "--baseline", "bos", "--checkpoint",
         str(root / "dual"), "--corpus", corpus, "--queries", queries,
         "--bos-aggregation", "mean")
    split = str(root / "dual-closed" / "split.json")
    _cli("evaluate", "--task", "tags", "--baseline", "tfidf", "--corpus", corpus,
         "--vocab", vocab, "--votes", votes, "--split", split)
    _cli("evaluate", "--task", "tags", "--baseline", "toptags", "--votes", votes,
         "--split", split)

    for variant in ("dual", "hybrid", "full"):
        with contextlib.redirect_stdout(io.StringIO()):
            _cli("retrieve", "--checkpoint", str(root / variant), "--query",
                 "some words", "--k", "3")
        _cli("export", "--checkpoint", str(root / variant),
             "--out", str(root / f"{variant}.tsv"))


def _runs() -> None:
    for variant in VARIANTS:
        run_job(variant, TRAIN_SEED, tiny=True, steps=2, epochs=1)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        cli_pass(Path(tmp))


def line_counts() -> set[tuple[str, int]]:
    """The (file, line) pairs of ``src/textent`` that the runs executed."""
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runctx("_runs()", globals(), {})
    package = str(PACKAGE.resolve())
    return {(str(Path(f).resolve()), line) for (f, line), n in tracer.counts.items()
            if n and f.startswith(package)}


# -- what the runs missed -----------------------------------------------------------


def _body(node) -> list[ast.stmt]:
    """A function's statements without its docstring."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def _warns(stmt: ast.stmt) -> bool:
    """``warnings.warn(...)`` or ``log.warning(...)`` as a statement."""
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr in ("warn", "warning"))


def _error_branch(block: list[ast.stmt]) -> bool:
    """A branch that raises or warns."""
    return any(isinstance(s, ast.Raise) or _warns(s) for s in block)


def _ran(node, lines: set[int]) -> bool:
    return any(n in lines for n in range(node.lineno, node.end_lineno + 1))


class _Report:
    def __init__(self, module: str, path: Path, source: str, executed: set[int]):
        self.module, self.path, self.executed = module, path, executed
        self.source = source.splitlines()
        self.functions: list[str] = []
        self.statements: list[str] = []

    def scope(self, node, prefix: str) -> None:
        """Walk a module or class body for the functions it defines."""
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                self.scope(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.function(child, f"{prefix}{child.name}")

    def function(self, node, name: str) -> None:
        body = _body(node)
        own = set(range(body[0].lineno, node.end_lineno + 1)) if body else set()
        nested = [n for s in body for n in ast.walk(s)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for inner in nested:  # their bodies are theirs, their headers ours
            own -= set(range(_body(inner)[0].lineno, inner.end_lineno + 1))
        if not own & self.executed:
            self.functions.append(f"{self.module}.{name}")
            return
        self.block(body, name)
        for inner in nested:
            if not any(inner in ast.walk(other) for other in nested if other is not inner):
                self.function(inner, f"{name}.{inner.name}")

    def block(self, stmts: list[ast.stmt], where: str) -> None:
        for stmt in stmts:
            if (isinstance(stmt, (ast.Raise, ast.Global, ast.Nonlocal, ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.ClassDef)) or _warns(stmt)
                    or isinstance(stmt, ast.AnnAssign) and stmt.value is None):
                continue  # raises, warns, defines, or declares: no line to run
            if not _ran(stmt, self.executed):
                text = self.source[stmt.lineno - 1].strip()
                self.statements.append(
                    f"{self.path.relative_to(SRC)}:{stmt.lineno}  {where}  {text}")
                continue
            for field in ("body", "orelse", "finalbody"):
                branch = getattr(stmt, field, None)
                if isinstance(branch, list) and not _error_branch(branch):
                    self.block(branch, where)


def report(executed: set[tuple[str, int]]) -> tuple[list[str], list[str]]:
    """The functions no run entered, and the unreached statements of the rest."""
    functions, statements = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        found = _Report(path.stem, path, source,
                        {n for f, n in executed if f == str(path.resolve())})
        found.scope(ast.parse(source), "")
        functions += found.functions
        statements += found.statements
    return functions, statements


def main() -> int:
    os.environ.pop("OPENBLAS_NUM_THREADS", None)  # read when numpy loads, in the runs
    sys.path.insert(0, str(SRC))
    functions, statements = report(line_counts())
    print(f"# functions no run entered: {len(functions)}")
    for name in functions:
        print(f"function  {name}  # {ALLOWLIST.get(name, 'NOT ALLOWED')}")
    print(f"# statements no run reached: {len(statements)}")
    for line in statements:
        print(f"statement  {line}")
    strays = [name for name in functions if name not in ALLOWLIST]
    stale = [name for name in ALLOWLIST if name not in functions]
    for name in strays:
        print(f"reach: {name} is reached by no program path; call it from one, "
              f"delete it, or give its reason in ALLOWLIST", file=sys.stderr)
    for name in stale:
        print(f"reach: ALLOWLIST entry {name} is no longer listed; drop it",
              file=sys.stderr)
    return 1 if strays or stale else 0


if __name__ == "__main__":
    sys.exit(main())
