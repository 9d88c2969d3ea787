"""Generator determinism, construction guarantees, and the vote recount oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from textent import synthetic
from textent.errors import DataError
from textent.synthetic import SyntheticWorld, SyntheticWorldSpec, generate_synthetic
from textent.text import (UNK, CorpusExample, Query, TagVotes, build_vocab,
                          extend_with_entities)

from conftest import overlap_oracle_rank, render_example

SPEC = SyntheticWorldSpec(entities=10, attribute_vocab=30, attributes_per_entity=4,
                          sentences_per_entity=12, words_per_sentence=6,
                          noise_ratio=0.25, seed=5, clusters=2)


def test_fixed_seed_reproduces_byte_identical_world():
    a = generate_synthetic(SPEC)
    b = generate_synthetic(SPEC)
    assert [(ex.entity_id, ex.tokens) for ex in a.corpus] == \
           [(ex.entity_id, ex.tokens) for ex in b.corpus]
    assert a.vocab.id_to_token == b.vocab.id_to_token
    assert a.votes.counts == b.votes.counts
    assert [(q.text, q.relevant) for q in a.queries] == \
           [(q.text, q.relevant) for q in b.queries]


def test_different_seed_changes_world():
    a = generate_synthetic(SPEC)
    b = generate_synthetic(SyntheticWorldSpec(**{**SPEC.__dict__, "seed": 6}))
    assert [ex.tokens for ex in a.corpus] != [ex.tokens for ex in b.corpus]


def test_noise_free_single_attribute_sentences():
    spec = SyntheticWorldSpec(entities=4, attribute_vocab=8, attributes_per_entity=1,
                              sentences_per_entity=5, words_per_sentence=4,
                              noise_ratio=0.0, seed=1, clusters=1)
    world = generate_synthetic(spec)
    assert spec.distractors_per_entity == 0
    for ex in world.corpus:
        attr = world.attributes[ex.entity_id][0]
        words = set(render_example(ex, world.vocab).split())
        assert words == {attr}


def test_vote_counts_match_corpus_recount_oracle():
    world = generate_synthetic(SPEC)
    sentences = {}
    for ex in world.corpus:
        sentences.setdefault(ex.entity_id, []).append(
            set(render_example(ex, world.vocab).split()))
    for eid in world.entity_ids:
        for tag in world.votes.tags:
            expected = sum(1 for s in sentences[eid] if tag in s) \
                if tag in world.attributes[eid] else 0
            assert world.votes.votes(eid, tag) == expected

    # support is exactly the attribute set here (every attribute mentioned)
    for eid in world.entity_ids:
        support = {t for (e, t) in world.votes.counts if e == eid}
        assert support == set(world.attributes[eid])


def test_filler_words_disjoint_from_tags():
    world = generate_synthetic(SPEC)
    tags = set(world.votes.tags)
    for ex in world.corpus:
        for word in render_example(ex, world.vocab).split():
            in_pool = word in world.attributes[ex.entity_id] or \
                word in world.distractors[ex.entity_id]
            if word in tags:
                assert in_pool  # tag words only ever come from the entity's pool


def test_queries_cover_full_attribute_set():
    world = generate_synthetic(SPEC)
    for query, eid in zip(world.queries, world.entity_ids):
        assert query.relevant == [eid]
        assert sorted(query.text.split()) == sorted(world.attributes[eid])


def test_overlap_oracle_ranks_generator_first_for_every_query():
    world = generate_synthetic(SPEC)
    for query in world.queries:
        ranked = overlap_oracle_rank(world.attributes, query.text.split())
        assert ranked.ids[0] == query.relevant[0]


def test_attribute_sets_distinct():
    world = generate_synthetic(SPEC)
    sets = [frozenset(a) for a in world.attributes.values()]
    assert len(set(sets)) == len(sets)


def test_entity_tokens_disjoint_from_words():
    world = generate_synthetic(SPEC)
    for ex in world.corpus:
        assert all(t < world.vocab.word_size for t in ex.tokens)
        assert all(t != UNK for t in ex.tokens)


def test_rejects_vocab_smaller_than_attributes():
    with pytest.raises(DataError, match="smaller than attributes"):
        generate_synthetic(SyntheticWorldSpec(entities=2, attribute_vocab=3,
                                              attributes_per_entity=4, clusters=1))


def test_rejects_bad_noise_ratio():
    with pytest.raises(DataError):
        generate_synthetic(SyntheticWorldSpec(noise_ratio=1.0))


@pytest.mark.parametrize("change, problem", [
    (dict(distractor_ratio=-0.5), "distractor_ratio must be finite and >= 0, got -0.5"),
    (dict(distractor_ratio=math.nan), "distractor_ratio must be finite and >= 0, got nan"),
    (dict(distractor_ratio=math.inf), "distractor_ratio must be finite and >= 0, got inf"),
    (dict(entities=3, attribute_vocab=4, attributes_per_entity=4, clusters=1,
          distractor_ratio=0), "fewer distinct attribute sets than 3 entities"),
    (dict(entities=11, attribute_vocab=7, attributes_per_entity=2, clusters=3,
          distractor_ratio=0), "fewer distinct attribute sets than 11 entities"),
    (dict(attribute_vocab=486_001, attributes_per_entity=1),
     "486001 attribute and 243000 filler words exceed the 729000 distinct words"),
    # the last cluster holds 4 of 10 words, so its entities have 6 off-cluster tags
    (dict(entities=2, attribute_vocab=10, attributes_per_entity=3, clusters=3,
          distractor_ratio=7 / 3), "not enough off-cluster tags for distractors"),
])
def test_rejects_specs_it_cannot_draw(change, problem):
    # validate alone: generating some of these worlds would never end
    with pytest.raises(DataError, match=problem):
        SyntheticWorldSpec(**{**SPEC.__dict__, **change}).validate()


def test_accepts_exactly_enough_attribute_sets():
    # clusters of 2 and 3 words hold C(2, 2) + C(3, 2) = 4 distinct pairs
    spec = SyntheticWorldSpec(entities=4, attribute_vocab=5, attributes_per_entity=2,
                              clusters=2, distractor_ratio=0, seed=3)
    world = generate_synthetic(spec)
    assert len({frozenset(a) for a in world.attributes.values()}) == 4


# -- the array passes draw what the per-word loop draws ---------------------------


def _fields(world):
    return ([(ex.entity_id, ex.tokens) for ex in world.corpus],
            world.vocab.id_to_token, world.vocab.kinds, world.vocab.entity_ids,
            list(world.votes.counts.items()), world.votes.tags,
            [(q.text, q.relevant) for q in world.queries],
            world.attributes, world.distractors, world.sentences)


def _loop_world(spec):
    """Every field of the world one random() and one integers() call per word
    draws, assembled word by word, and the generator's final state."""
    rng = np.random.default_rng(spec.seed)
    taken = set()

    def make_words(count):
        words = []
        while len(words) < count:
            word = "".join(rng.choice(list(synthetic._CONSONANTS))
                           + rng.choice(list(synthetic._VOWELS)) for _ in range(3))
            if word not in taken:
                taken.add(word)
                words.append(word)
        return words

    attr_words = make_words(spec.attribute_vocab)
    filler_words = make_words(max(50, spec.attribute_vocab // 2))
    cluster_size = spec.attribute_vocab // spec.clusters
    cluster_of = np.minimum(np.arange(spec.attribute_vocab) // cluster_size,
                            spec.clusters - 1)
    entity_ids = [f"e{i:04d}" for i in range(spec.entities)]
    attributes, distractors, seen = {}, {}, set()
    for eid in entity_ids:
        while True:
            cluster = int(rng.integers(spec.clusters))
            attr_idx = rng.choice(np.flatnonzero(cluster_of == cluster),
                                  size=spec.attributes_per_entity, replace=False)
            if frozenset(attr_idx.tolist()) not in seen:
                seen.add(frozenset(attr_idx.tolist()))
                break
        attributes[eid] = [attr_words[i] for i in sorted(attr_idx)]
        distractors[eid] = []
        if spec.distractors_per_entity:
            distr_idx = rng.choice(np.flatnonzero(cluster_of != cluster),
                                   size=spec.distractors_per_entity, replace=False)
            distractors[eid] = [attr_words[i] for i in sorted(distr_idx)]

    sentences, counts = {}, {}
    for eid in entity_ids:
        pool = attributes[eid] + distractors[eid]
        words = pool + filler_words
        picks = synthetic._draw_words_loop(
            rng, spec.sentences_per_entity * spec.words_per_sentence, spec.noise_ratio,
            len(pool), len(filler_words)).reshape(spec.sentences_per_entity, -1)
        sentences[eid] = [[words[i] for i in row] for row in picks]
        for tag in attributes[eid]:
            mentions = sum(1 for row in sentences[eid] if tag in row)
            if mentions:
                counts[(eid, tag)] = mentions
    queries = []
    for eid in entity_ids:
        order = rng.permutation(len(attributes[eid]))
        queries.append(Query(" ".join(attributes[eid][i] for i in order), [eid]))
    vocab = extend_with_entities(
        build_vocab(row for rows in sentences.values() for row in rows), entity_ids)
    corpus = [CorpusExample(eid, [vocab.lookup(w) for w in row])
              for eid in entity_ids for row in sentences[eid]]
    world = SyntheticWorld(spec, corpus, vocab, attributes, distractors, queries,
                           TagVotes(counts, attr_words), sentences)
    return _fields(world), rng.bit_generator.state


_default_rng = np.random.default_rng


def _generated(spec):
    """``generate_synthetic``'s fields and its generator's final state."""
    made = []

    def default_rng(seed):
        made.append(_default_rng(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", default_rng):
        world = generate_synthetic(spec)
    return _fields(world), made[0].bit_generator.state


@st.composite
def small_specs(draw):
    clusters = draw(st.integers(1, 3))
    per_entity = draw(st.integers(1, 4))
    spec = SyntheticWorldSpec(
        entities=draw(st.integers(1, 8)),
        attribute_vocab=clusters * draw(st.integers(per_entity, per_entity + 4))
        + draw(st.integers(0, clusters - 1)),
        attributes_per_entity=per_entity,
        sentences_per_entity=draw(st.integers(1, 6)),
        words_per_sentence=draw(st.integers(1, 8)),
        noise_ratio=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9))),
        seed=draw(st.integers(0, 2**64 - 1)),
        clusters=clusters,
        distractor_ratio=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    try:
        spec.validate()
    except DataError:
        assume(False)
    return spec


@given(small_specs())
@settings(max_examples=150, deadline=None)
def test_world_matches_per_word_loop(spec):
    assert _generated(spec) == _loop_world(spec)


def test_acceptance_world_matches_per_word_loop_without_falling_back():
    spec = SyntheticWorldSpec(seed=7)
    with mock.patch.object(synthetic, "_draw_words_loop",
                           wraps=synthetic._draw_words_loop) as loop:
        generated = _generated(spec)
    loop.assert_not_called()
    assert generated == _loop_world(spec)


BOUNDS = st.one_of(st.integers(1, 300), st.integers(2**31 - 2, 2**31 + 3),
                   st.integers(2**32 - 2, 2**32 + 1))


@given(count=st.integers(0, 40), noise=st.floats(0.0, 1.0), n_pool=BOUNDS, n_filler=BOUNDS,
       buffered=st.booleans(), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=300, deadline=None)
def test_draw_matches_loop(count, noise, n_pool, n_filler, buffered, seed):
    """Same picks, same end state, from a generator with or without a buffered half."""
    runs = []
    for draw in (synthetic._draw_words, synthetic._draw_words_loop):
        rng = np.random.default_rng(seed)
        if buffered:
            rng.integers(7)
        picks = draw(rng, count, noise, n_pool, n_filler)
        runs.append((picks.tolist(), rng.bit_generator.state, rng.random()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("bound", [2**31 + 1, 2**31 + 2])
def test_draw_falls_back_to_loop_where_lemire_rejects(bound):
    """Near 2**31 Lemire's method rejects about half the draws: the loop reruns them."""
    expected_rng = np.random.default_rng(3)
    expected = synthetic._draw_words_loop(expected_rng, 10, 0.5, bound, bound)
    rng = np.random.default_rng(3)
    with mock.patch.object(synthetic, "_draw_words_loop",
                           wraps=synthetic._draw_words_loop) as loop:
        picks = synthetic._draw_words(rng, 10, 0.5, bound, bound)
    loop.assert_called_once()
    assert picks.tolist() == expected.tolist()
    assert rng.bit_generator.state == expected_rng.bit_generator.state
