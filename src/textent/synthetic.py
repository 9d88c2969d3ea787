"""Deterministic synthetic entity-attribute corpus generator.

Each entity owns a fixed set of attribute words drawn from one topic
cluster of the attribute vocabulary, plus a few off-cluster distractor
words. Sentences mix the entity's attribute/distractor words with filler
noise. Tag votes count, per true attribute, how many of the entity's
sentences mention it; distractor mentions earn no votes, which is what
makes the tag labels more than a word-count readout. Queries are fresh
shuffles of an entity's full attribute set with that entity as the unique
relevant answer.

Everything is a pure function of the spec (including its seed): same spec,
byte-identical world. The sentence words are drawn in array passes
(``_draw_words``) that take the same numbers from numpy's Generator stream
as one ``random()`` and one ``integers()`` call per word
(``_draw_words_loop``), so the world depends on that stream, which numpy
may change between versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import DataError
from .text import CorpusExample, Query, TagVotes, Vocabulary, extend_with_entities

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SYLLABLES = 3
_DISTINCT_WORDS = (len(_CONSONANTS) * len(_VOWELS)) ** _SYLLABLES  # 729,000


@dataclass(frozen=True)
class SyntheticWorldSpec:
    """Knobs for the generated world; all counts must be >= 1."""

    entities: int = 100
    attribute_vocab: int = 200
    attributes_per_entity: int = 20
    sentences_per_entity: int = 50
    words_per_sentence: int = 10
    noise_ratio: float = 0.3
    seed: int = 0
    clusters: int = 5
    distractor_ratio: float = 0.25  # distractors per entity, as a fraction of attributes

    def validate(self) -> None:
        for name in ("entities", "attribute_vocab", "attributes_per_entity",
                     "sentences_per_entity", "words_per_sentence", "clusters"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if not 0.0 <= self.noise_ratio < 1.0:
            raise DataError("noise_ratio must be in [0, 1)")
        if not (math.isfinite(self.distractor_ratio) and self.distractor_ratio >= 0.0):
            raise DataError(f"distractor_ratio must be finite and >= 0, "
                            f"got {self.distractor_ratio}")
        if self.attribute_vocab < self.attributes_per_entity:
            raise DataError("attribute vocabulary smaller than attributes per entity")
        if self.attribute_vocab // self.clusters < self.attributes_per_entity:
            raise DataError("cluster size smaller than attributes per entity")
        if self.attribute_vocab + self.filler_vocab > _DISTINCT_WORDS:
            raise DataError(f"{self.attribute_vocab} attribute and {self.filler_vocab} "
                            f"filler words exceed the {_DISTINCT_WORDS} distinct words")
        sizes = self.cluster_sizes
        if sum(math.comb(size, self.attributes_per_entity) for size in sizes) < self.entities:
            raise DataError(f"fewer distinct attribute sets than {self.entities} entities")
        if self.distractors_per_entity > self.attribute_vocab - max(sizes):
            raise DataError("not enough off-cluster tags for distractors")

    @property
    def distractors_per_entity(self) -> int:
        return int(round(self.distractor_ratio * self.attributes_per_entity))

    @property
    def filler_vocab(self) -> int:
        return max(50, self.attribute_vocab // 2)

    @property
    def cluster_sizes(self) -> list[int]:
        """Attribute words per cluster; the last cluster takes the remainder."""
        size = self.attribute_vocab // self.clusters
        return [size] * (self.clusters - 1) + [self.attribute_vocab - (self.clusters - 1) * size]


@dataclass
class SyntheticWorld:
    """Generated corpus plus the exact ground truth behind it."""

    spec: SyntheticWorldSpec
    corpus: list[CorpusExample]
    vocab: Vocabulary
    attributes: dict[str, list[str]]
    distractors: dict[str, list[str]]
    queries: list[Query]
    votes: TagVotes
    sentences: dict[str, list[list[str]]] = field(repr=False, default_factory=dict)

    @property
    def entity_ids(self) -> list[str]:
        return sorted(self.attributes)


def _make_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                       + _VOWELS[rng.integers(len(_VOWELS))] for _ in range(_SYLLABLES))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _draw_words_loop(rng: np.random.Generator, count: int, noise_ratio: float,
                     n_pool: int, n_filler: int) -> np.ndarray:
    """``count`` word picks, one ``random()`` and one ``integers()`` call each.

    A pick below ``n_pool`` indexes the entity's pool; ``n_pool + i`` is
    filler word ``i``.
    """
    picks = np.empty(count, dtype=np.int64)
    for i in range(count):
        if rng.random() < noise_ratio:
            picks[i] = n_pool + rng.integers(n_filler)
        else:
            picks[i] = rng.integers(n_pool)
    return picks


def _draw_words(rng: np.random.Generator, count: int, noise_ratio: float,
                n_pool: int, n_filler: int) -> np.ndarray:
    """``_draw_words_loop``'s picks and end state, from one read of raw PCG64 words.

    ``random()`` is the top 53 bits of a fresh 64-bit word. ``integers(k)``
    for 1 < k < 2**32 is Lemire's multiply-shift of one 32-bit half: the
    half the generator holds buffered if it holds one, else the low half of
    a fresh word, whose high half it then buffers. Word i's double and
    integer alternate, so after a buffered half is used every third raw
    word is a pair of halves and the others are doubles.

    Falls back to the loop from the saved state for other bit generators or
    bounds, and when a draw would hit Lemire's rejection branch (about k in
    2**32 per draw).
    """
    bitgen = rng.bit_generator
    if (count < 1 or not isinstance(bitgen, np.random.PCG64)
            or not (1 < n_pool < 2**32 and 1 < n_filler < 2**32)):
        return _draw_words_loop(rng, count, noise_ratio, n_pool, n_filler)
    saved = bitgen.state
    buffered = saved["has_uint32"]
    raw = bitgen.random_raw(count + (count - buffered + 1) // 2)
    paired = np.zeros(len(raw), dtype=bool)
    paired[buffered + 1::3] = True
    doubles = (raw[~paired] >> 11) * 2.0**-53
    pairs = raw[paired]
    halves = np.empty(buffered + 2 * len(pairs), dtype=np.uint64)
    halves[:buffered] = saved["uinteger"]
    halves[buffered::2] = pairs & 0xFFFFFFFF
    halves[buffered + 1::2] = pairs >> 32

    noise = doubles < noise_ratio
    bound = np.where(noise, np.uint64(n_filler), np.uint64(n_pool))
    scaled = halves[:count] * bound
    if np.any((scaled & 0xFFFFFFFF) < (1 << 32) % bound):
        bitgen.state = saved
        return _draw_words_loop(rng, count, noise_ratio, n_pool, n_filler)
    state = bitgen.state
    state["has_uint32"] = len(halves) - count
    state["uinteger"] = int(halves[-1])  # the last half buffered, used or not
    bitgen.state = state
    return (scaled >> 32).astype(np.int64) + np.where(noise, n_pool, 0)


def generate_synthetic(spec: SyntheticWorldSpec) -> SyntheticWorld:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    taken: set[str] = set()
    attr_words = _make_words(rng, spec.attribute_vocab, taken)
    filler_words = _make_words(rng, spec.filler_vocab, taken)

    cluster_of = np.repeat(np.arange(spec.clusters), spec.cluster_sizes)
    n_attr = spec.attributes_per_entity
    n_distr = spec.distractors_per_entity
    entity_ids = [f"e{i:04d}" for i in range(spec.entities)]
    # pools[e]: entity e's sorted attribute indices, then its sorted distractors
    pools = np.empty((spec.entities, n_attr + n_distr), dtype=np.int64)
    seen_sets: set[frozenset[int]] = set()
    for pool in pools:
        while True:
            cluster = int(rng.integers(spec.clusters))
            members = np.flatnonzero(cluster_of == cluster)
            attr_idx = rng.choice(members, size=n_attr, replace=False)
            key = frozenset(int(i) for i in attr_idx)
            if key not in seen_sets:
                seen_sets.add(key)
                break
        pool[:n_attr] = np.sort(attr_idx)
        if n_distr:
            outside = np.flatnonzero(cluster_of != cluster)
            pool[n_attr:] = np.sort(rng.choice(outside, size=n_distr, replace=False))
    attributes = {eid: [attr_words[i] for i in pool[:n_attr]]
                  for eid, pool in zip(entity_ids, pools)}
    distractors = {eid: [attr_words[i] for i in pool[n_attr:]]
                   for eid, pool in zip(entity_ids, pools)}

    # picks[e, s, w] indexes entity e's pool, then the filler words
    shape = (spec.entities, spec.sentences_per_entity, spec.words_per_sentence)
    picks = _draw_words(rng, math.prod(shape), spec.noise_ratio, pools.shape[1],
                        len(filler_words)).reshape(shape)
    # word ids index attr_words + filler_words
    fillers = np.arange(spec.attribute_vocab, spec.attribute_vocab + len(filler_words))
    choices = np.hstack([pools, np.broadcast_to(fillers, (spec.entities, len(fillers)))])
    entity_of = np.broadcast_to(np.arange(spec.entities)[:, None, None], shape)
    word_ids = choices[entity_of, picks]

    # a sentence's vote for an attribute counts once, however often it names it
    ordered = np.sort(picks, axis=2)
    first = np.ones(shape, dtype=bool)
    first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    named = first & (ordered < n_attr)
    mentions = np.bincount(entity_of[named] * n_attr + ordered[named],
                           minlength=spec.entities * n_attr).reshape(-1, n_attr)
    votes = TagVotes(counts={(eid, tag): count
                             for eid, row in zip(entity_ids, mentions.tolist())
                             for tag, count in zip(attributes[eid], row) if count},
                     tags=list(attr_words))

    queries = []
    for eid in entity_ids:
        order = rng.permutation(len(attributes[eid]))
        queries.append(Query(" ".join(attributes[eid][i] for i in order), [eid]))

    # the vocabulary ``build_vocab`` makes of the sentences: frequency descending, then word
    words = attr_words + filler_words
    freq = np.bincount(word_ids.ravel(), minlength=len(words)).tolist()
    kept = sorted((i for i, n in enumerate(freq) if n), key=lambda i: (-freq[i], words[i]))
    vocab = extend_with_entities(Vocabulary.from_words([words[i] for i in kept]), entity_ids)
    token_of = np.zeros(len(words), dtype=np.int64)
    token_of[kept] = [vocab.lookup(words[i]) for i in kept]
    corpus = [CorpusExample(eid, tokens)
              for eid, rows in zip(entity_ids, token_of[word_ids].tolist())
              for tokens in rows]
    sentences = dict(zip(entity_ids, np.array(words, dtype=object)[word_ids].tolist()))
    return SyntheticWorld(spec=spec, corpus=corpus, vocab=vocab,
                          attributes=attributes, distractors=distractors,
                          queries=queries, votes=votes, sentences=sentences)
