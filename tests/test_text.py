"""Tokenizer, vocabulary, preprocessing, and file-format tests."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textent.errors import DataError
from textent.text import (CLS, MASK, PAD, SEP, UNK, CorpusExample, Query,
                          TagVotes, Vocabulary, build_vocab, extend_with_entities,
                          normalize_words, preprocess, read_corpus, read_queries,
                          read_json_object, read_raw_reviews, read_votes, tokenize,
                          write_corpus, write_jsonl, write_queries, write_votes)

from conftest import render_example


@pytest.fixture()
def vocab():
    return Vocabulary.from_words(["surreal", "cerebral", "japan", "the", "movie"])


class TestTokenize:
    def test_empty(self, vocab):
        assert tokenize("", vocab) == []

    def test_case_folding(self, vocab):
        ids = tokenize("The THE the", vocab)
        assert len(ids) == 3 and len(set(ids)) == 1

    def test_table_lookup_order(self, vocab):
        ids = tokenize("surreal cerebral japan", vocab)
        assert ids == [vocab.lookup("surreal"), vocab.lookup("cerebral"),
                       vocab.lookup("japan")]

    def test_out_of_vocab_maps_to_unk(self, vocab):
        assert tokenize("nonexistentword", vocab) == [UNK]

    def test_punctuation_stripped(self, vocab):
        assert tokenize("Movie!!! (the)", vocab) == [vocab.lookup("movie"),
                                                     vocab.lookup("the")]

    def test_unk_marker_round_trip(self, vocab):
        assert tokenize("[UNK] movie", vocab) == [UNK, vocab.lookup("movie")]


class TestVocabulary:
    def test_specials_fixed_ids(self, vocab):
        assert (PAD, CLS, SEP, MASK, UNK) == (0, 1, 2, 3, 4)
        assert vocab.lookup("[PAD]") == 0
        assert vocab.lookup("[UNK]") == 4

    def test_lookup_inverts_id_to_token(self, vocab):
        for tid in range(len(vocab)):
            assert vocab.lookup(vocab.id_to_token[tid]) == tid

    def test_build_vocab_one_word(self):
        v = build_vocab([["hello"], ["hello"]])
        assert len(v) == 6  # 5 specials + 1 word

    def test_build_vocab_min_freq_filters_everything(self):
        v = build_vocab([["a"], ["b"]], min_freq=3)
        assert len(v) == 5

    def test_build_vocab_matches_counting_oracle(self):
        docs = [["b", "a", "b"], ["c", "b", "a"], ["d"]]
        counts = Counter(w for doc in docs for w in doc)  # independent recount
        expected = sorted(counts, key=lambda w: (-counts[w], w))
        v = build_vocab(docs)
        got = v.id_to_token[5:]
        assert got == expected  # b, a, c, d

    def test_save_load_round_trip(self, vocab, tmp_path):
        extended = extend_with_entities(vocab, ["m1", "m2"])
        extended.save(tmp_path / "vocab.tsv")
        loaded = Vocabulary.load(tmp_path / "vocab.tsv")
        assert loaded.token_to_id == extended.token_to_id
        assert loaded.kinds == extended.kinds
        assert loaded.entity_ids == ["m1", "m2"]

    @pytest.mark.parametrize("line, problem", [
        ("extra\t7", "expected token, id and kind"),
        ("extra\t7\tword\tmore", "expected token, id and kind"),
        ("extra\tseven\tword", "id 'seven' is not a non-negative integer"),
        ("extra\t-7\tword", "id '-7' is not a non-negative integer"),
        ("extra\t9\tword", "id 9 is not the next id, 7"),
        ("extra\t7\tbogus", "kind 'bogus' is not one of"),
        ("movie\t7\tword", "duplicate token 'movie'"),
        ("e1\t7\tentity\nlate\t8\tword", "word token 'late' after the entity block"),
        ("extra\t7\tspecial", "special token 'extra' after the reserved ids 0-4"),
    ])
    def test_bad_vocabulary_line_names_file_and_line(self, tmp_path, line, problem):
        path = tmp_path / "vocab.tsv"
        Vocabulary.from_words(["the", "movie"]).save(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(DataError, match=problem) as exc:
            Vocabulary.load(path)
        assert f"{path}:{8 + line.count(chr(10))}:" in str(exc.value)

    @pytest.mark.parametrize("lines, problem", [
        (["hello\t0\tword"], "1: id 0 must be special token '[PAD]', got word 'hello'"),
        (["[PAD]\t0\tword"], "1: id 0 must be special token '[PAD]', got word '[PAD]'"),
        (["[PAD]\t0\tspecial", "[SEP]\t1\tspecial"],
         "2: id 1 must be special token '[CLS]', got special '[SEP]'"),
        (["[PAD]\t0\tspecial", "e1\t1\tentity"],
         "2: id 1 must be special token '[CLS]', got entity 'e1'"),
        (["[PAD]\t0\tspecial", "[CLS]\t1\tspecial"],
         " 2 tokens, fewer than the 5 special tokens"),
        ([], " 0 tokens, fewer than the 5 special tokens"),
    ], ids=["word-first", "pad-as-word", "specials-out-of-order", "entity-among-specials",
            "two-specials", "empty"])
    def test_vocabulary_opens_with_the_five_specials(self, tmp_path, lines, problem):
        path = tmp_path / "vocab.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(DataError) as exc:
            Vocabulary.load(path)
        assert str(exc.value) == f"{path}:{problem}"


class TestEntityExtension:
    def test_zero_entities_unchanged(self, vocab):
        out = extend_with_entities(vocab, [])
        assert out.token_to_id == vocab.token_to_id

    def test_contiguous_allocation(self):
        v = build_vocab([[f"w{i}" for i in range(95)]])
        assert v.word_size == 100
        out = extend_with_entities(v, ["e0", "e1", "e2"])
        assert [out.entity_token(e) for e in ("e0", "e1", "e2")] == [100, 101, 102]

    def test_round_trip_bijection(self, vocab):
        out = extend_with_entities(vocab, ["x", "y", "z"])
        for e in ("x", "y", "z"):
            assert out.entity_ids[out.entity_index(e)] == e

    def test_word_ids_unchanged(self, vocab):
        out = extend_with_entities(vocab, ["m1"])
        for token, tid in vocab.token_to_id.items():
            assert out.token_to_id[token] == tid

    def test_duplicate_entity_raises(self, vocab):
        with pytest.raises(DataError, match="duplicate"):
            extend_with_entities(vocab, ["m1", "m1"])

    def test_disjoint_blocks(self, vocab):
        out = extend_with_entities(vocab, ["m1", "m2"])
        word_ids = {tid for tid, k in enumerate(out.kinds) if k != "entity"}
        entity_ids = {out.entity_token(e) for e in ("m1", "m2")}
        assert word_ids.isdisjoint(entity_ids)


def _review(entity_id, name, text):
    return (entity_id, name, text)


class TestPreprocess:
    def test_short_review_dropped(self):
        raw = [_review("m1", "title", "great movie")]  # 2 words
        raw += [_review("m1", "title", f"a perfectly fine long review number {i}")
                for i in range(5)]
        examples, vocab = preprocess(raw)
        texts = [render_example(ex, vocab) for ex in examples]
        assert not any("great movie" == t for t in texts)
        assert len(examples) == 5

    def test_entity_with_few_reviews_dropped(self):
        raw = [_review("m1", "t", f"one long enough review number {i}") for i in range(4)]
        raw += [_review("m2", "t", f"another long enough review number {i}") for i in range(5)]
        examples, _ = preprocess(raw)
        assert {ex.entity_id for ex in examples} == {"m2"}

    def test_name_scrubbed_case_insensitive(self):
        raw = [_review("m1", "Silent Hill",
                       f"i watched SILENT hill yesterday and liked it {i}")
               for i in range(5)]
        examples, vocab = preprocess(raw)
        for ex in examples:
            words = render_example(ex, vocab).split()
            assert "silent" not in words and "hill" not in words
            assert words.count("[UNK]") == 2

    def test_sentences_split_on_terminators(self):
        raw = [_review("m1", "t", f"first sentence here okay number {i}! second part...")
               for i in range(5)]
        examples, _ = preprocess(raw)
        assert len(examples) == 10  # two sentences per review

    def test_duplicate_reviews_deduped_before_count_filter(self):
        raw = [_review("m1", "t", "the same exact review text here")] * 10
        examples, _ = preprocess(raw)
        assert examples == []  # 1 unique review < 5

    def test_truncation(self):
        long_text = " ".join(f"w{i}" for i in range(100))
        raw = [_review("m1", "t", long_text)] + \
              [_review("m1", "t", f"short but long enough review {i}") for i in range(4)]
        examples, _ = preprocess(raw, max_seq_len=16)
        assert max(len(ex.tokens) for ex in examples) == 16

    @pytest.mark.parametrize("setting, value, least", [
        ("max_seq_len", -3, 1), ("max_seq_len", 0, 1), ("min_words", -1, 0),
        ("min_reviews", -1, 0), ("min_freq", -1, 0)])
    def test_setting_out_of_range_is_data_error(self, setting, value, least):
        raw = [_review("m1", "t", f"a perfectly fine long review number {i}")
               for i in range(5)]
        with pytest.raises(DataError, match=f"^{setting} must be >= {least}, got {value}$"):
            preprocess(raw, **{setting: value})

    def test_idempotent_on_its_own_output(self):
        rng_texts = [f"alpha beta gamma delta epsilon {i} zeta" for i in range(6)]
        raw = [_review("m1", "Some Name", t + " some name ending") for t in rng_texts]
        first, vocab1 = preprocess(raw)
        rendered = [(ex.entity_id, "", render_example(ex, vocab1)) for ex in first]
        second, vocab2 = preprocess(rendered)
        assert [(ex.entity_id, render_example(ex, vocab2)) for ex in second] == \
               [(ex.entity_id, render_example(ex, vocab1)) for ex in first]


class TestFileFormats:
    def test_corpus_round_trip(self, tmp_path):
        examples = [CorpusExample("m1", [5, 6, 7]), CorpusExample("m2", [8])]
        write_corpus(tmp_path / "c.jsonl", examples)
        assert read_corpus(tmp_path / "c.jsonl") == examples

    @pytest.mark.parametrize("row, problem", [
        ('{"tokens": [5, 6]}', "'entity_id' is missing"),
        ('{"entity_id": 2, "tokens": [5, 6]}', "'entity_id' is 2, not str"),
        ('{"entity_id": "m2", "tokens": 5}', "'tokens' is 5, not list"),
        ('{"entity_id": "m2", "tokens": [5, -1]}', "not a non-negative integer"),
        ('{"entity_id": "m2", "tokens": [5, 6.5]}', "'tokens' holds 6.5, not int"),
        ('{"entity_id": "m2", "tokens": [5, "6"]}', "'tokens' holds '6', not int"),
        ('{"entity_id": "m2", "tokens": [5, true]}', "'tokens' holds True, not int"),
        ('{"entity_id": "m2", "tokens": []}', "no tokens"),
        ('{"entity_id": "m\\ud800", "tokens": [5]}', "lone surrogate escape"),
    ])
    def test_bad_corpus_row_names_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "c.jsonl"
        path.write_text('{"entity_id": "m1", "tokens": [5]}\n\n' + row + "\n")
        with pytest.raises(DataError, match=problem) as exc:
            read_corpus(path)
        assert f"{path}:3:" in str(exc.value)

    def test_jsonl_bytes_match_json_dumps(self, tmp_path):
        rows = [{"entity_id": "caf\u00e9", "text": "na\u00efve \u2603 \U0001f600 \"q\"\n"},
                {"tokens": [5, 6], "k": None, "value": float("nan"), "x": -0.0},
                {"relevant_entity_ids": ["\u00df", "m1"], "votes": 3}]
        write_jsonl(tmp_path / "r.jsonl", rows)
        want = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        assert (tmp_path / "r.jsonl").read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("content, problem", [
        (b"{not json", " is not valid JSON"),
        (b'{"a": "caf\xe9"}', " is not valid JSON"),
        (b"[" * 100_000, " is not valid JSON"),
        (b"[1, 2]", " is not a JSON object"),
        (b'{"a": ["\\ud800"]}', ": a string holds a lone surrogate escape"),
    ], ids=["bad-json", "not-utf8", "deep-nesting", "not-object", "lone-surrogate"])
    def test_bad_json_object_names_file(self, tmp_path, content, problem):
        path = tmp_path / "x.json"
        path.write_bytes(content)
        with pytest.raises(DataError) as exc:
            read_json_object(path)
        assert str(exc.value).startswith(f"{path}{problem}")

    def test_json_object_reads_escapes(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": ["\\ud83d\\ude00", "\\u00e9"], "b": {"c": 1}}')
        assert read_json_object(path) == {"a": ["\U0001f600", "\u00e9"], "b": {"c": 1}}

    def test_raw_reviews_read_with_and_without_entity_name(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"entity_id": "m1", "entity_name": "Up", "text": "a b"}\n'
                        '{"entity_id": "m2", "text": "c"}\n')
        assert read_raw_reviews(path) == [("m1", "Up", "a b"), ("m2", "", "c")]

    def test_surrogate_pair_escape_reads_as_one_character(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"entity_id": "m\\ud83d\\ude00", "text": "\\u00e9"}\n')
        assert read_raw_reviews(path) == [("m\U0001f600", "", "\u00e9")]

    def test_votes_round_trip(self, tmp_path):
        votes = TagVotes()
        votes.add("m1", "funny", 3)
        votes.add("m2", "dark", 1)
        write_votes(tmp_path / "v.jsonl", votes)
        loaded = read_votes(tmp_path / "v.jsonl")
        assert loaded.counts == votes.counts
        assert loaded.tags == ["dark", "funny"]

    def test_positives_sorted_by_tag_whatever_the_insertion_order(self):
        votes = TagVotes()
        for entity_id, tag, count in [("m2", "funny", 1), ("m1", "funny", 3),
                                      ("m1", "dark", 2), ("m2", "absurd", 4)]:
            votes.add(entity_id, tag, count)
        assert votes.positives_by_entity() == {"m1": [("dark", 2), ("funny", 3)],
                                               "m2": [("absurd", 4), ("funny", 1)]}
        assert votes.positives("m1") == [("dark", 2), ("funny", 3)]
        assert votes.positives("m3") == []

    @pytest.mark.parametrize("reader, row, problem", [
        (read_votes, '{"entity_id": "m1", "tag": "t", "votes": "many"}', "'votes' is 'many'"),
        (read_votes, '{"entity_id": "m1", "votes": 2}', "'tag' is missing"),
        (read_votes, '{"entity_id": "m1", "tag": "t", "votes": 0}', "must be >= 1"),
        (read_queries, '{"relevant_entity_ids": ["m1"]}', "'query' is missing"),
        (read_queries, '["dark", ["m1"]]', "not a JSON object"),
        (read_queries, '{"query": "q", "relevant_entity_ids": [1, null]}',
         "'relevant_entity_ids' holds 1, not str"),
        (read_queries, '{"query": "q", "relevant_entity_ids": ["m1", null]}',
         "'relevant_entity_ids' holds None, not str"),
        (read_raw_reviews, '[1, 2]', ":2: not a JSON object"),
        (read_raw_reviews, '{"entity_id": "m2", "text": 5}', "'text' is 5, not str"),
        (read_raw_reviews, '{"entity_id": 3, "entity_name": 4, "text": "t"}',
         "'entity_id' is 3, not str"),
        (read_raw_reviews, '{"entity_id": "m2", "entity_name": 4, "text": "t"}',
         "'entity_name' is 4, not str"),
        (read_raw_reviews, '{"entity_id": "m2"}', "'text' is missing"),
        (read_raw_reviews, '{"entity_id": "m\\ud800", "text": "t"}',
         "lone surrogate escape"),
        (read_votes, '{"entity_id": "m1", "tag": "x\\udc00", "votes": 1}',
         "lone surrogate escape"),
        (read_queries, '{"query": "q", "relevant_entity_ids": ["\\udbff"]}',
         "lone surrogate escape"),
    ])
    def test_bad_vote_or_query_row_names_file_and_line(self, tmp_path, reader, row,
                                                       problem):
        path = tmp_path / "rows.jsonl"
        good = {read_votes: '{"entity_id": "m1", "tag": "t", "votes": 1}',
                read_queries: '{"query": "q", "relevant_entity_ids": []}',
                read_raw_reviews: '{"entity_id": "m1", "text": "fine"}'}[reader]
        path.write_text(good + "\n" + row + "\n")
        with pytest.raises(DataError, match=problem) as exc:
            reader(path)
        assert f"{path}:2:" in str(exc.value)

    @pytest.mark.parametrize("reader, rows, problem", [
        (read_votes, ['{"entity_id": "m1", "tag": "t", "votes": 1}',
                      '{"entity_id": "m9", "tag": "t", "votes": 1}'],
         ":2: 'entity_id' names 'm9', which is not an entity"),
        (read_queries, ['{"query": "q", "relevant_entity_ids": []}',
                        '{"query": "q", "relevant_entity_ids": ["m1", "nope", "m9"]}'],
         ":2: 'relevant_entity_ids' names 'nope', which is not an entity"),
    ], ids=["votes", "queries"])
    def test_row_naming_no_entity_names_file_and_line(self, tmp_path, reader, rows,
                                                      problem):
        path = tmp_path / "rows.jsonl"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError) as exc:
            reader(path, ["m1", "m2"])
        assert str(exc.value) == f"{path}{problem}"
        assert reader(path) == reader(path, ["m1", "m2", "m9", "nope"])

    @pytest.mark.parametrize("row, problem", [
        ('{"entity_id": "m9", "tokens": [5]}',
         ":2: 'entity_id' names 'm9', which is not an entity"),
        ('{"entity_id": "m2", "tokens": [5, 10, 6]}',
         ":2: corpus row for 'm2' has token id 10, outside the word vocabulary [0, 10)"),
    ], ids=["unknown-entity", "id-past-words"])
    def test_corpus_row_outside_the_vocabulary_names_file_and_line(self, tmp_path, vocab,
                                                                   row, problem):
        vocab = extend_with_entities(vocab, ["m1", "m2"])  # words 0-9, entities 10-11
        path = tmp_path / "c.jsonl"
        path.write_text('{"entity_id": "m1", "tokens": [1, 9, 2]}\n' + row + "\n")
        with pytest.raises(DataError) as exc:
            read_corpus(path, vocab)
        assert str(exc.value) == f"{path}{problem}"
        assert len(read_corpus(path)) == 2  # without a vocabulary the ids are not checked

    @pytest.mark.parametrize("reader", [read_corpus, read_votes, read_queries,
                                        read_raw_reviews])
    @pytest.mark.parametrize("line, problem", [
        (b'{"entity_id": "caf\xe9"}', r":2: not UTF-8 text"),
        (b"[" * 100_000, r": bad JSON on line 2"),
    ], ids=["latin-1", "deep-nesting"])
    def test_unreadable_line_names_file_and_line(self, tmp_path, reader, line,
                                                 problem):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"\n" + line + b"\n")
        with pytest.raises(DataError, match=problem):
            reader(path)

    def test_queries_round_trip(self, tmp_path):
        qs = [Query("dark surreal movie", ["m1", "m2"])]
        write_queries(tmp_path / "q.jsonl", qs)
        assert read_queries(tmp_path / "q.jsonl") == qs

    def test_votes_require_positive_counts(self):
        with pytest.raises(DataError):
            TagVotes().add("m", "t", 0)


@given(st.lists(st.text(alphabet="abcXYZ .!?", min_size=0, max_size=30), max_size=8))
@settings(max_examples=60, deadline=None)
def test_normalize_words_lowercase_alnum(texts):
    for t in texts:
        for w in normalize_words(t):
            assert w == w.lower()
            assert w.replace("[UNK]", "a").isalnum() or w == "[UNK]"


# -- readers never fail with anything but DataError ---------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_READER_KEYS = {read_corpus: ("entity_id", "tokens"),
                read_votes: ("entity_id", "tag", "votes"),
                read_queries: ("query", "relevant_entity_ids"),
                read_raw_reviews: ("entity_id", "entity_name", "text")}
_NOT_UTF8 = st.binary(max_size=12).map(lambda b: b + b"\xff")  # never UTF-8


def _jsonl_lines(keys):
    row = st.dictionaries(st.sampled_from(keys) | st.text(max_size=4), _JSON,
                          max_size=len(keys) + 1)
    return (row | _JSON).map(lambda v: json.dumps(v).encode()) | _NOT_UTF8


_TSV_FIELD = st.sampled_from(["word", "special", "entity", "[PAD]", "a", "0", "1",
                              "2", "-1", "\u0663"]) | st.text(max_size=5)
_TSV_LINES = st.lists(_TSV_FIELD, min_size=1, max_size=4).map(
    lambda fields: "\t".join(fields).encode()) | _NOT_UTF8


@pytest.mark.parametrize("reader", [*_READER_KEYS, Vocabulary.load],
                         ids=lambda r: r.__qualname__)
def test_reader_parses_or_raises_data_error(reader, tmp_path_factory):
    """A file of arbitrary JSON rows (TSV lines for the vocabulary), some
    with the reader's own keys, and lines that are not UTF-8 either loads
    or raises ``DataError``; nothing else escapes."""
    path = tmp_path_factory.mktemp("fuzz") / "rows"
    keys = _READER_KEYS.get(reader)
    lines = _TSV_LINES if keys is None else _jsonl_lines(keys)

    @given(st.lists(lines, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def check(rows):
        path.write_bytes(b"\n".join(rows) + b"\n")
        try:
            reader(path)
        except DataError:
            pass

    check()
