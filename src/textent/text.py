"""Tokenization, vocabulary handling, corpus preprocessing and file formats.

The tokenizer is a deterministic whitespace tokenizer: lowercase, strip
punctuation, split on whitespace, out-of-vocabulary words map to UNK. The
vocabulary keeps five reserved specials at fixed ids 0..4, word tokens in a
contiguous block after them, and entity tokens in a contiguous block
strictly after all word tokens.

File formats (all UTF-8):
  raw reviews    JSONL {"entity_id": str, "entity_name": str, "text": str}
  corpus         JSONL {"entity_id": str, "tokens": [int]}
  vocabulary     TSV   token <tab> id <tab> kind   (kind in word/special/entity)
  tag votes      JSONL {"entity_id": str, "tag": str, "votes": int}
  queries        JSONL {"query": str, "relevant_entity_ids": [str]}
"""

from __future__ import annotations

import bisect
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError

PAD, CLS, SEP, MASK, UNK = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("[PAD]", "[CLS]", "[SEP]", "[MASK]", "[UNK]")
_UNK_MARKER = SPECIAL_TOKENS[UNK]
_KINDS = ("word", "special", "entity")

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def normalize_words(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace.

    The literal marker "[UNK]" survives normalization so scrubbed corpora
    can round-trip through the tokenizer.
    """
    words = []
    for raw in text.lower().split():
        if raw == _UNK_MARKER.lower():
            words.append(_UNK_MARKER)
            continue
        word = _NON_ALNUM.sub("", raw)
        if word:
            words.append(word)
    return words


@dataclass
class Vocabulary:
    """Token table: specials at 0..4, then words, then an entity block."""

    token_to_id: dict[str, int] = field(default_factory=dict)
    id_to_token: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    entity_ids: list[str] = field(default_factory=list)

    @classmethod
    def from_words(cls, words: Sequence[str]) -> "Vocabulary":
        vocab = cls()
        for tok in SPECIAL_TOKENS:
            vocab._append(tok, "special")
        for word in words:
            vocab._append(word, "word")
        return vocab

    def _append(self, token: str, kind: str) -> int:
        if token in self.token_to_id:
            raise DataError(f"duplicate token {token!r}")
        tid = len(self.id_to_token)
        self.token_to_id[token] = tid
        self.id_to_token.append(token)
        self.kinds.append(kind)
        return tid

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def word_size(self) -> int:
        """Number of non-entity tokens (== first entity token id)."""
        return len(self.id_to_token) - len(self.entity_ids)

    @property
    def entity_count(self) -> int:
        return len(self.entity_ids)

    def lookup(self, token: str) -> int:
        tid = self.token_to_id.get(token)
        if tid is None:
            raise DataError(f"unknown token {token!r}")
        return tid

    def entity_token(self, entity_id: str) -> int:
        tid = self.token_to_id.get(entity_id)
        if tid is None or self.kinds[tid] != "entity":
            raise DataError(f"unknown entity {entity_id!r}")
        return tid

    def entity_index(self, entity_id: str) -> int:
        return self.entity_token(entity_id) - self.word_size

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tid, (token, kind) in enumerate(zip(self.id_to_token, self.kinds)):
                fh.write(f"{token}\t{tid}\t{kind}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read ``save``'s TSV; DataError at ``path:line`` for a malformed line.

        Ids 0-4 must be ``SPECIAL_TOKENS`` in order, of kind ``special``, and
        no later token may be special.
        """
        vocab = cls()
        for line_no, line in numbered_lines(path):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            problem = None
            if len(fields) != 3:
                problem = f"expected token, id and kind, got {line!r}"
            elif not (fields[1].isascii() and fields[1].isdigit()):
                problem = f"id {fields[1]!r} is not a non-negative integer"
            elif int(fields[1]) != len(vocab):
                problem = f"id {fields[1]} is not the next id, {len(vocab)}"
            elif fields[2] not in _KINDS:
                problem = f"kind {fields[2]!r} is not one of {_KINDS}"
            elif len(vocab) < len(SPECIAL_TOKENS):
                if (fields[0], fields[2]) != (SPECIAL_TOKENS[len(vocab)], "special"):
                    problem = (f"id {len(vocab)} must be special token "
                               f"{SPECIAL_TOKENS[len(vocab)]!r}, got {fields[2]} "
                               f"{fields[0]!r}")
            elif fields[2] == "special":
                problem = (f"special token {fields[0]!r} after the reserved ids "
                           f"0-{len(SPECIAL_TOKENS) - 1}")
            elif vocab.entity_ids and fields[2] != "entity":
                problem = f"{fields[2]} token {fields[0]!r} after the entity block"
            elif fields[0] in vocab.token_to_id:
                problem = f"duplicate token {fields[0]!r}"
            if problem:
                raise DataError(f"{path}:{line_no}: {problem}")
            token, _, kind = fields
            vocab._append(token, kind)
            if kind == "entity":
                vocab.entity_ids.append(token)
        if len(vocab) < len(SPECIAL_TOKENS):
            raise DataError(f"{path}: {len(vocab)} tokens, fewer than the "
                            f"{len(SPECIAL_TOKENS)} special tokens")
        return vocab


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Token ids for ``text``; out-of-vocabulary words map to UNK."""
    ids = []
    for word in normalize_words(text):
        tid = vocab.token_to_id.get(word, UNK)
        if tid >= vocab.word_size:
            tid = UNK  # never emit entity tokens from free text
        ids.append(tid)
    return ids


def build_vocab(documents: Iterable[Sequence[str]], min_freq: int = 1) -> Vocabulary:
    """Vocabulary over every word with frequency >= ``min_freq``.

    Ordering is deterministic: frequency descending, then lexicographic.
    The "[UNK]" marker is never counted as a word.
    """
    counts: Counter[str] = Counter()
    for doc in documents:
        for word in doc:
            if word != _UNK_MARKER:
                counts[word] += 1
    kept = sorted((w for w, c in counts.items() if c >= min_freq),
                  key=lambda w: (-counts[w], w))
    return Vocabulary.from_words(kept)


def extend_with_entities(vocab: Vocabulary, entity_ids: Sequence[str]) -> Vocabulary:
    """New vocabulary with a token per entity appended after all words.

    Word-token ids are unchanged; entity ids must be unique and must not
    collide with existing tokens.
    """
    seen = set()
    for eid in entity_ids:
        if eid in seen:
            raise DataError(f"duplicate entity id {eid!r}")
        seen.add(eid)
    out = Vocabulary(dict(vocab.token_to_id), list(vocab.id_to_token),
                     list(vocab.kinds), list(vocab.entity_ids))
    for eid in entity_ids:
        out._append(eid, "entity")
        out.entity_ids.append(eid)
    return out


# -- corpus --------------------------------------------------------------------


@dataclass
class CorpusExample:
    """One sentence (or short paragraph) attributed to an entity."""

    entity_id: str
    tokens: list[int]


@dataclass
class Query:
    text: str
    relevant: list[str]


_SENTENCE_SPLIT = re.compile(r"[.!?]+")


def _scrub_name(words: list[str], name_words: list[str]) -> list[str]:
    """Replace every run matching ``name_words`` with UNK markers."""
    if not name_words:
        return words
    n = len(name_words)
    out: list[str] = []
    i = 0
    while i < len(words):
        if words[i : i + n] == name_words:
            out.extend([_UNK_MARKER] * n)
            i += n
        else:
            out.append(words[i])
            i += 1
    return out


def preprocess(raw_reviews: Iterable[tuple[str, str, str]], *,
               min_words: int = 5, min_reviews: int = 5,
               max_seq_len: int = 64, min_freq: int = 1,
               ) -> tuple[list[CorpusExample], Vocabulary]:
    """Filter, scrub and split raw reviews into a tokenized corpus.

    Per entity: reviews are de-duplicated by exact text, reviews shorter
    than ``min_words`` words are dropped, and entities with fewer than
    ``min_reviews`` surviving reviews are dropped entirely. Case-insensitive
    occurrences of the entity's own name are replaced by UNK. Reviews are
    split into sentences on ``. ! ?`` and truncated to ``max_seq_len``
    tokens. Entities are processed in sorted id order, which fixes both the
    vocabulary and the output ordering. ``max_seq_len`` must be >= 1 and the
    other settings >= 0.
    """
    for name, value, least in (("min_words", min_words, 0), ("min_reviews", min_reviews, 0),
                               ("max_seq_len", max_seq_len, 1), ("min_freq", min_freq, 0)):
        if value < least:
            raise DataError(f"{name} must be >= {least}, got {value}")
    by_entity: dict[str, list[tuple[str, str]]] = {}
    for entity_id, entity_name, text in raw_reviews:
        by_entity.setdefault(entity_id, []).append((entity_name, text))

    sentences: list[tuple[str, list[str]]] = []
    for entity_id in sorted(by_entity):
        seen_texts: set[str] = set()
        kept: list[tuple[str, str]] = []
        for entity_name, text in by_entity[entity_id]:
            if text in seen_texts:
                continue
            seen_texts.add(text)
            if len(normalize_words(text)) < min_words:
                continue
            kept.append((entity_name, text))
        if len(kept) < min_reviews:
            continue
        for entity_name, text in kept:
            name_words = normalize_words(entity_name)
            for chunk in _SENTENCE_SPLIT.split(text):
                words = _scrub_name(normalize_words(chunk), name_words)
                if words:
                    sentences.append((entity_id, words[:max_seq_len]))

    vocab = build_vocab((words for _, words in sentences), min_freq=min_freq)
    examples = [CorpusExample(entity_id, [vocab.token_to_id.get(w, UNK) for w in words])
                for entity_id, words in sentences]
    return examples, vocab


# -- tag votes ------------------------------------------------------------------


@dataclass
class TagVotes:
    """Sparse (entity, tag) -> vote count map plus the tag vocabulary.

    ``tags`` is kept sorted so every consumer sees one canonical ordering,
    independent of insertion or file order. It may list tags that have no
    votes anywhere (the full label vocabulary).
    """

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    tags: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.tags = sorted(set(self.tags) | {t for _, t in self.counts})

    def add(self, entity_id: str, tag: str, votes: int) -> None:
        if votes < 1:
            raise DataError(f"vote count must be >= 1, got {votes}")
        self.counts[(entity_id, tag)] = self.counts.get((entity_id, tag), 0) + votes
        pos = bisect.bisect_left(self.tags, tag)
        if pos == len(self.tags) or self.tags[pos] != tag:
            self.tags.insert(pos, tag)

    def votes(self, entity_id: str, tag: str) -> int:
        return self.counts.get((entity_id, tag), 0)

    def entity_ids(self) -> list[str]:
        return sorted({e for e, _ in self.counts})

    def positives(self, entity_id: str) -> list[tuple[str, int]]:
        """(tag, votes) pairs for an entity, sorted by tag."""
        return self.positives_by_entity().get(entity_id, [])

    def positives_by_entity(self) -> dict[str, list[tuple[str, int]]]:
        """``positives`` of every entity with votes, in one pass."""
        grouped: dict[str, list[tuple[str, int]]] = {}
        for (entity_id, tag), count in self.counts.items():
            grouped.setdefault(entity_id, []).append((tag, count))
        return {e: sorted(pairs) for e, pairs in grouped.items()}


# -- file io --------------------------------------------------------------------


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) for every line of a UTF-8 text file; a
    line that is not UTF-8 is a ``DataError`` at ``path:line``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():  # undecodable bytes became surrogates
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DataError(f"{path}:{line_no}: not UTF-8 text") from exc
            yield line_no, line


_encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(ensure_ascii=False)
_decode = json.JSONDecoder().raw_decode  # json.loads less its set-up; lines come stripped


def _numbered_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """(1-based line number, parsed object) for every non-blank line; bad
    JSON and a string holding a lone surrogate are ``DataError``s."""
    rows = []
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            row, end = _decode(line)
            if end < len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if "\\u" in line:  # only an escape decodes to a lone surrogate
                _encode(row).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"{path}:{line_no}: a string holds a lone surrogate "
                            f"escape") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise DataError(f"{path}: bad JSON on line {line_no}") from exc
        rows.append((line_no, row))
    return rows


def read_json_object(path: str | Path) -> dict:
    """The JSON object a UTF-8 file holds; a ``DataError`` naming ``path`` if not."""
    return parse_json_object(Path(path).read_bytes(), path)


def parse_json_object(data: bytes, source: str | Path) -> dict:
    """The JSON object UTF-8 ``data`` holds; a ``DataError`` naming ``source`` if not."""
    try:
        value = json.loads(data.decode("utf-8"))
        _encode(value).encode("utf-8")  # fails on a lone surrogate escape
    except UnicodeEncodeError as exc:
        raise DataError(f"{source}: a string holds a lone surrogate escape") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise DataError(f"{source} is not a JSON object")
    return value


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_encode(row) + "\n")


def read_raw_reviews(path: str | Path) -> list[tuple[str, str, str]]:
    """Review rows; each needs a string entity_id and text, and an
    entity_name string when it has one."""
    out = []
    for line_no, row in _numbered_jsonl(path):
        problem = _row_problem(row, entity_id=str, text=str)
        if problem is None and "entity_name" in row:
            problem = _row_problem(row, entity_name=str)
        if problem:
            raise DataError(f"{path}:{line_no}: {problem}")
        out.append((row["entity_id"], row.get("entity_name", ""), row["text"]))
    return out


def write_corpus(path: str | Path, examples: Iterable[CorpusExample]) -> None:
    write_jsonl(path, ({"entity_id": ex.entity_id, "tokens": ex.tokens} for ex in examples))


def read_corpus(path: str | Path, vocab: Vocabulary | None = None) -> list[CorpusExample]:
    """Corpus rows; each needs a string entity_id and a non-empty list of token
    ids >= 0, and given ``vocab``, one of its entities and ids below its
    ``word_size`` (without one, fitting a vocabulary is the consumer's check)."""
    known = None if vocab is None else set(vocab.entity_ids)
    out = []
    for line_no, row in _numbered_jsonl(path):
        problem = _row_problem(row, entity_id=str, tokens=list[int])
        if problem is None and not row["tokens"]:
            problem = f"corpus row for {row['entity_id']!r} has no tokens"
        elif problem is None and min(row["tokens"]) < 0:
            problem = (f"corpus row for {row['entity_id']!r} has a token id that is "
                       f"not a non-negative integer")
        if problem is None and known is not None:
            problem = _unknown_entity("entity_id", [row["entity_id"]], known)
            if problem is None and max(row["tokens"]) >= vocab.word_size:
                problem = (f"corpus row for {row['entity_id']!r} has token id "
                           f"{max(row['tokens'])}, outside the word vocabulary "
                           f"[0, {vocab.word_size})")
        if problem:
            raise DataError(f"{path}:{line_no}: {problem}")
        out.append(CorpusExample(row["entity_id"], row["tokens"]))
    return out


def write_votes(path: str | Path, votes: TagVotes) -> None:
    write_jsonl(path, ({"entity_id": e, "tag": t, "votes": c}
                       for (e, t), c in sorted(votes.counts.items())))


def _row_problem(row, **kinds) -> str | None:
    """What is wrong with a JSON object's fields; ``list[int]`` checks each element."""
    if not isinstance(row, dict):
        return "not a JSON object"
    for key, kind in kinds.items():
        if key not in row:
            return f"{key!r} is missing"
        value = row[key]
        if type(value) is kind:
            continue
        if type(value) is not getattr(kind, "__origin__", kind):
            return f"{key!r} is {value!r}, not {kind.__name__}"
        (item,) = kind.__args__
        if list(map(type, value)).count(item) < len(value):
            bad = next(v for v in value if type(v) is not item)
            return f"{key!r} holds {bad!r}, not {item.__name__}"
    return None


def _unknown_entity(key: str, names: list[str], known: set[str]) -> str | None:
    """The problem with the first of ``key``'s ``names`` that is not in ``known``."""
    missing = next((name for name in names if name not in known), None)
    return None if missing is None else f"{key!r} names {missing!r}, which is not an entity"


def read_votes(path: str | Path, entities: Iterable[str] | None = None) -> TagVotes:
    """Vote rows; each needs string entity_id and tag and integer votes >= 1,
    and an entity_id among ``entities`` when they are given."""
    known = None if entities is None else set(entities)
    votes = TagVotes()
    for line_no, row in _numbered_jsonl(path):
        problem = _row_problem(row, entity_id=str, tag=str, votes=int)
        if problem is None and row["votes"] < 1:
            problem = f"vote count must be >= 1, got {row['votes']}"
        if problem is None and known is not None:
            problem = _unknown_entity("entity_id", [row["entity_id"]], known)
        if problem:
            raise DataError(f"{path}:{line_no}: {problem}")
        votes.add(row["entity_id"], row["tag"], row["votes"])
    return votes


def write_queries(path: str | Path, queries: Iterable[Query]) -> None:
    write_jsonl(path, ({"query": q.text, "relevant_entity_ids": q.relevant} for q in queries))


def read_queries(path: str | Path, entities: Iterable[str] | None = None) -> list[Query]:
    """Query rows; each needs a string query and a list of string
    relevant_entity_ids, each among ``entities`` when they are given."""
    known = None if entities is None else set(entities)
    queries = []
    for line_no, row in _numbered_jsonl(path):
        problem = _row_problem(row, query=str, relevant_entity_ids=list[str])
        if problem is None and known is not None:
            problem = _unknown_entity("relevant_entity_ids", row["relevant_entity_ids"],
                                      known)
        if problem:
            raise DataError(f"{path}:{line_no}: {problem}")
        queries.append(Query(row["query"], list(row["relevant_entity_ids"])))
    return queries
