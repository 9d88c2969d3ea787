"""Generator determinism, construction guarantees, and the vote recount oracle."""

import pytest

from textent.errors import DataError
from textent.synthetic import SyntheticWorldSpec, generate_synthetic
from textent.text import UNK, render_example

from conftest import overlap_oracle_rank

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
