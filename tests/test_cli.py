"""Command-line behavior: determinism, formats, exit codes, end-to-end smoke."""

import json
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from textent import evaluation, finetune, objectives
from textent.cli import main
from textent.encoder import ModelConfig, entity_matrix, load_checkpoint
from textent.evaluation import bos_rank
from textent.text import Vocabulary, extend_with_entities, read_corpus, read_queries

GEN_ARGS = ["--entities", "10", "--attribute-vocab", "30",
            "--attributes-per-entity", "4", "--sentences-per-entity", "8",
            "--words-per-sentence", "6", "--noise-ratio", "0.2", "--clusters", "2"]

TRAIN_ARGS = ["--layers", "1", "--heads", "2", "--hidden", "16",
              "--ffn-hidden", "32", "--entity-dim", "16", "--batch-size", "8",
              "--log-every", "0"]


def _generate(path, seed="7"):
    assert main(["generate", "--seed", seed, "--out-dir", str(path)] + GEN_ARGS) == 0


def _pretrain(data, out, steps, seed="3", variant="dual"):
    assert main(["pretrain", "--corpus", str(data / "corpus.jsonl"),
                 "--vocab", str(data / "vocab.tsv"), "--variant", variant,
                 "--seed", seed, "--steps", str(steps), "--out-dir", str(out)]
                + TRAIN_ARGS) == 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    _generate(root / "data")
    _pretrain(root / "data", root / "ckpt", steps=200)
    return root


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        _generate(tmp_path / "a")
        _generate(tmp_path / "b")
        for name in ("corpus.jsonl", "vocab.tsv", "votes.jsonl", "queries.jsonl",
                     "attributes.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        _generate(tmp_path / "a", seed="7")
        _generate(tmp_path / "b", seed="8")
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != \
            (tmp_path / "b" / "corpus.jsonl").read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        assert main(["generate", "--out-dir", str(tmp_path / "x")] + GEN_ARGS) == 1
        assert "--seed" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--definitely-not-a-flag", "1"])
        assert exc.value.code == 1

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = main(["pretrain", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--vocab", str(tmp_path / "nope.tsv"), "--variant", "dual",
                     "--seed", "1", "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_bad_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        code = main(["preprocess", "--input", str(bad),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_bad_review_row_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "reviews.jsonl"
        bad.write_text('{"entity_id": 3, "entity_name": 4, "text": "a b c d e"}\n')
        assert main(["preprocess", "--input", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1: 'entity_id' is 3, not str" in err and "Traceback" not in err

    def test_lone_surrogate_escape_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "reviews.jsonl"
        bad.write_text('{"entity_id": "m\\ud800", "text": "a b c d e"}\n' * 5)
        assert main(["preprocess", "--input", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1: a string holds a lone surrogate escape" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, problem", [
        (["--max-seq-len", "-1"], "max_seq_len must be >= 4, got -1"),
        (["--max-seq-len", "3"], "max_seq_len must be >= 4, got 3"),
        (["--ffn-hidden", "-3"], "ffn_hidden must be >= 1, got -3"),
    ])
    def test_bad_pretrain_config_is_data_error(self, workdir, tmp_path, capsys, flags,
                                               problem):
        data = workdir / "data"
        assert main(["pretrain", "--corpus", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.tsv"), "--variant", "dual",
                     "--seed", "1", "--steps", "1", "--out-dir", str(tmp_path / "p")]
                    + flags) == 2
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["retrieve", "--checkpoint", "{root}/ckpt", "--query", "x", "--score-scale", "-4"],
        ["evaluate", "--task", "retrieval", "--checkpoint", "{root}/ckpt",
         "--queries", "{data}/queries.jsonl", "--score-scale", "0"],
        ["evaluate", "--task", "tags", "--checkpoint", "{root}/ckpt",
         "--votes", "{data}/votes.jsonl", "--score-scale", "0"],
        ["finetune", "--checkpoint", "{root}/ckpt", "--votes", "{data}/votes.jsonl",
         "--seed", "1", "--out-dir", "{tmp}/ft", "--score-scale", "0"],
        ["finetune", "--checkpoint", "{root}/ckpt", "--votes", "{data}/votes.jsonl",
         "--seed", "1", "--out-dir", "{tmp}/ft", "--score-scale", "-4"],
    ], ids=["retrieve", "evaluate-retrieval", "evaluate-tags", "finetune-zero",
            "finetune-negative"])
    def test_non_positive_score_scale_is_data_error(self, workdir, tmp_path, capsys,
                                                    args):
        args = [a.format(root=workdir, data=workdir / "data", tmp=tmp_path) for a in args]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "score_scale must be > 0" in err and "Traceback" not in err
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("task, flag, row, problem", [
        ("tags", "--votes", {"entity_id": "e0000", "tag": "t", "votes": "many"},
         "'votes' is 'many'"),
        ("tags", "--votes", {"entity_id": "e0000", "votes": 3}, "row has no 'tag'"),
        ("retrieval", "--queries", {"relevant_entity_ids": ["e0000"]},
         "row has no 'query'"),
    ])
    def test_bad_vote_or_query_row_is_data_error(self, tmp_path, capsys, task, flag,
                                                  row, problem):
        bad = tmp_path / "rows.jsonl"
        bad.write_text(json.dumps(row) + "\n")
        assert main(["evaluate", "--task", task, flag, str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1: {problem}" in err and "Traceback" not in err

    @pytest.mark.parametrize("args, problem", [
        (["pretrain", "--checkpoint-every", "-1"], "checkpoint_every must be >= 0"),
        (["pretrain", "--log-every", "-1"], "log_every must be >= 0"),
        (["retrieve", "--k", "-1"], "--k must be >= 1, got -1"),
        (["retrieve", "--k", "0"], "--k must be >= 1, got 0"),
        (["evaluate", "--task", "retrieval", "--queries", "{data}/queries.jsonl",
          "--dump-dir", "{tmp}/out", "--top-k-dump", "0"],
         "--top-k-dump must be >= 1, got 0"),
    ], ids=["checkpoint-every", "log-every", "k-negative", "k-zero", "top-k-dump"])
    def test_negative_interval_or_count_is_data_error(self, workdir, tmp_path, capsys,
                                                      args, problem):
        data = workdir / "data"
        run = {"pretrain": ["--corpus", str(data / "corpus.jsonl"),
                            "--vocab", str(data / "vocab.tsv"), "--variant", "dual",
                            "--seed", "1", "--steps", "3", "--out-dir", "{tmp}/out"],
               "retrieve": ["--checkpoint", str(workdir / "ckpt"), "--query", "x"],
               "evaluate": ["--checkpoint", str(workdir / "ckpt")]}[args[0]]
        args = [a.format(data=data, tmp=tmp_path) for a in args + run]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and problem in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_manifest_without_config_is_data_error(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["config"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", "x"]) == 2
        err = capsys.readouterr().err
        assert "has no 'config'" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage, problem", [
        (lambda m: "{not json", "is not valid JSON"),
        (lambda m: '{"format": "caf\udce9"}', "is not valid JSON"),
        (lambda m: "[" * 100_000, "is not valid JSON"),
        (lambda m: {**m, "config": {**m["config"], "dropout": 0.1}},
         "unknown config keys ['dropout']"),
        (lambda m: {**m, "config": {**m["config"], "hidden": "16"}},
         "config 'hidden' is '16', not int"),
        (lambda m: {**m, "dtype": ">f4"}, "dtype '>f4'"),
        (lambda m: {**m, "dtype": "<i4"}, "dtype '<i4'"),
        (lambda m: {**m, "version": 99}, "unsupported version 99"),
        (lambda m: {**m, "format": "nope"}, "format 'nope'"),
        (lambda m: {**m, "tensors": list(m["tensors"])}, "'tensors' is not a JSON object"),
        (lambda m: {**m, "tensors": {**m["tensors"], "entity_table": {
            "file": "tensors/entity_table.bin"}}},
         "tensor 'entity_table' needs a 'file' string and a 'shape' list"),
        (lambda m: {**m, "tensors": {**m["tensors"], "entity_table": [
            "tensors/entity_table.bin", [10, 16]]}},
         "tensor 'entity_table' needs a 'file' string and a 'shape' list"),
        (lambda m: {**m, "tensors": {**m["tensors"], "entity_table": {
            "file": "tensors/entity_table.bin", "shape": "10x16"}}},
         "tensor 'entity_table' needs a 'file' string and a 'shape' list"),
        (lambda m: {**m, "tensors": {**m["tensors"], "seg_emb": {
            **m["tensors"]["seg_emb"], "file": "../other/tensors/seg_emb.bin"}}},
         "tensor 'seg_emb' file '../other/tensors/seg_emb.bin' is outside"),
        (lambda m: {**m, "tensors": {**m["tensors"], "seg_emb": {
            **m["tensors"]["seg_emb"], "file": str(Path(__file__).resolve())}}},
         "tensor 'seg_emb' file"),
    ], ids=["not-json", "not-utf8", "deep-nesting", "unknown-config-key", "config-value-type", "big-endian-dtype", "int-dtype",
            "unknown-version", "unknown-format", "tensors-list", "tensor-without-shape",
            "tensor-as-list", "shape-not-list", "file-outside", "file-absolute"])
    def test_bad_manifest_is_data_error(self, workdir, tmp_path, capsys, damage,
                                        problem):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        shutil.copytree(workdir / "ckpt", tmp_path / "other")  # a readable escape
        manifest = json.loads((ckpt / "manifest.json").read_text())
        damaged = damage(manifest)
        (ckpt / "manifest.json").write_text(  # a surrogate writes one raw byte
            damaged if isinstance(damaged, str) else json.dumps(damaged),
            errors="surrogateescape")
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", "x"]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt / 'manifest.json'}" in err and problem in err
        assert "Traceback" not in err

    def test_non_finite_tensor_is_data_error(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        path = ckpt / "tensors" / "layer0.ffn_w1.bin"
        values = np.fromfile(path, dtype="<f4")
        values[5] = np.nan
        values.tofile(path)
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", "x"]) == 2
        err = capsys.readouterr().err
        assert "tensor 'layer0.ffn_w1' holds non-finite values" in err
        assert "Traceback" not in err

    def test_zero_norm_entity_is_numeric_error(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        path = ckpt / "tensors" / "entity_table.bin"
        table = np.fromfile(path, dtype="<f4").reshape(10, 16)
        table[3] = 0.0
        table.tofile(path)
        query = read_queries(workdir / "data" / "queries.jsonl")[0].text
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", query]) == 2
        captured = capsys.readouterr()
        assert f"query {query!r}: zero-norm entity vector in row 3 " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_bos_zero_norm_sentence_is_numeric_error(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        for name in ("layer0.ffn_ln_g", "layer0.ffn_ln_b"):  # every state becomes 0
            np.zeros(16, dtype="<f4").tofile(ckpt / "tensors" / f"{name}.bin")
        data = workdir / "data"
        assert main(["evaluate", "--task", "retrieval", "--baseline", "bos",
                     "--checkpoint", str(ckpt), "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries.jsonl")]) == 2
        captured = capsys.readouterr()
        entity_id = min(ex.entity_id for ex in read_corpus(data / "corpus.jsonl"))
        assert f"entity {entity_id!r}: zero-norm sentence vector in row 0 " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("split, baseline, problem", [
        ("{not json", "toptags", "is not valid JSON"),
        ('{"protocol": "caf\udce9"}', "toptags", "is not valid JSON"),
        ("[" * 100_000, "toptags", "is not valid JSON"),
        ({"protocol": "open", "train_tags": []}, "toptags", "has no 'held_tags' list"),
        ({"protocol": "closed", "train_entities": []}, "toptags",
         "has no 'held_entities' list"),
        ({"protocol": "closed", "held_entities": ["e0000"]}, "toptags",
         "has no 'train_entities' list"),
    ], ids=["not-json", "not-utf8", "deep-nesting", "no-held-tags", "no-held-entities",
            "no-train-entities"])
    def test_bad_split_is_data_error(self, workdir, tmp_path, capsys, split, baseline,
                                     problem):
        path = tmp_path / "split.json"
        path.write_text(split if isinstance(split, str) else json.dumps(split),
                        errors="surrogateescape")  # a surrogate writes one raw byte
        assert main(["evaluate", "--task", "tags", "--baseline", baseline,
                     "--votes", str(workdir / "data" / "votes.jsonl"),
                     "--split", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path} " in err and problem in err and "Traceback" not in err

    @pytest.mark.parametrize("variant", ["dual", "full"])
    @pytest.mark.parametrize("extra_entities", [1, -1])
    def test_vocab_not_matching_checkpoint_is_data_error(self, workdir, tmp_path, capsys,
                                                        variant, extra_entities):
        ckpt = tmp_path / "ckpt"
        _pretrain(workdir / "data", ckpt, steps=0, variant=variant)
        vocab = Vocabulary.load(ckpt / "vocab.tsv")
        words = vocab.id_to_token[vocab.kinds.count("special"):vocab.word_size]
        entities = (vocab.entity_ids + ["e_extra"] if extra_entities > 0
                    else vocab.entity_ids[:-1])
        path = tmp_path / "vocab.tsv"
        extend_with_entities(Vocabulary.from_words(words), entities).save(path)
        for command in (["retrieve", "--query", "x"],
                        ["export", "--out", str(tmp_path / "emb.tsv")]):
            assert main(command + ["--checkpoint", str(ckpt), "--vocab", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"vocabulary {path} ({len(entities)} entities" in err
            assert f"checkpoint {ckpt} ({len(vocab.entity_ids)} entities" in err
            assert "Traceback" not in err
        assert not (tmp_path / "emb.tsv").exists()

    def test_token_id_past_word_vocabulary_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        _generate(data)
        word_vocab = ModelConfig.for_vocab(Vocabulary.load(data / "vocab.tsv"),
                                           "full").word_vocab_size
        lines = (data / "corpus.jsonl").read_text().splitlines()
        row = json.loads(lines[0])
        row["tokens"][0] = word_vocab  # the first entity token under full
        lines[0] = json.dumps(row)
        (data / "corpus.jsonl").write_text("\n".join(lines) + "\n")
        code = main(["pretrain", "--corpus", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.tsv"), "--variant", "full",
                     "--seed", "3", "--steps", str(len(lines)),
                     "--out-dir", str(tmp_path / "out")] + TRAIN_ARGS)
        err = capsys.readouterr().err
        assert code == 2
        assert row["entity_id"] in err and str(word_vocab) in err
        assert "Traceback" not in err


class TestEvaluateInputs:
    """Each evaluate path names the flag it is missing instead of failing."""

    @pytest.mark.parametrize("extra, flag", [
        ([], "--queries"),
        (["--queries", "{data}/queries.jsonl"], "--checkpoint"),
        (["--queries", "{data}/queries.jsonl", "--baseline", "bos",
          "--corpus", "{data}/corpus.jsonl"], "--checkpoint"),
        (["--queries", "{data}/queries.jsonl", "--baseline", "bos",
          "--checkpoint", "{root}/ckpt"], "--corpus"),
        (["--queries", "{data}/queries.jsonl", "--baseline", "tfidf",
          "--corpus", "{data}/corpus.jsonl"], "--vocab"),
    ])
    def test_missing_retrieval_input_is_data_error(self, workdir, capsys, extra, flag):
        extra = [a.format(data=workdir / "data", root=workdir) for a in extra]
        assert main(["evaluate", "--task", "retrieval"] + extra) == 2
        err = capsys.readouterr().err
        assert f"needs {flag}" in err and "Traceback" not in err

    def test_missing_votes_is_data_error(self, capsys):
        assert main(["evaluate", "--task", "tags"]) == 2
        assert "needs --votes" in capsys.readouterr().err

    def test_bos_baseline_matches_library_ranking(self, workdir, tmp_path, capsys):
        data = workdir / "data"
        assert main(["evaluate", "--task", "retrieval", "--baseline", "bos",
                     "--checkpoint", str(workdir / "ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries.jsonl"),
                     "--dump-dir", str(tmp_path), "--top-k-dump", "3"]) == 0
        capsys.readouterr()
        params = load_checkpoint(workdir / "ckpt")
        vocab = Vocabulary.load(workdir / "ckpt" / "vocab.tsv")
        corpus = read_corpus(data / "corpus.jsonl")
        lines = (tmp_path / "rankings.tsv").read_text().splitlines()[1:]
        for qi, query in enumerate(read_queries(data / "queries.jsonl")):
            ranked = bos_rank(params, vocab, query.text, corpus)
            dumped = [line.split("\t")[2] for line in lines
                      if line.startswith(f"{qi}\t")]
            assert dumped == ranked.ids[:3]


class TestConfigFile:
    def test_config_supplies_values_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("entities = 6\nattribute-vocab = 30\n"
                       "attributes-per-entity = 4\nsentences-per-entity = 8\n"
                       "words-per-sentence = 6\nclusters = 2\n# comment\n")
        assert main(["generate", "--seed", "1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "a"), "--entities", "9"]) == 0
        corpus = read_corpus(tmp_path / "a" / "corpus.jsonl")
        assert len({ex.entity_id for ex in corpus}) == 9  # flag beat the file

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-such-option = 1\n")
        assert main(["generate", "--seed", "1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "a")]) == 2

    def test_config_supplies_required_flags(self, workdir, tmp_path):
        data = workdir / "data"
        _pretrain(data, tmp_path / "flags", steps=3, seed="3", variant="dual")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = dual\nseed = 3\n")
        assert main(["pretrain", "--config", str(cfg),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.tsv"), "--steps", "3",
                     "--out-dir", str(tmp_path / "file")] + TRAIN_ARGS) == 0
        a, b = (load_checkpoint(tmp_path / run) for run in ("flags", "file"))
        assert a.config == b.config and set(a.tensors) == set(b.tensors)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_required_flag_set_nowhere_is_usage_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        data = workdir / "data"
        assert main(["pretrain", "--config", str(cfg),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--out-dir", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert "textent pretrain: error: the following arguments are required: " \
               "--vocab, --variant" in err
        assert not (tmp_path / "p").exists()

    def test_config_supplies_preprocess_flags(self, tmp_path):
        raw = tmp_path / "reviews.jsonl"
        raw.write_text("".join(
            json.dumps({"entity_id": f"m{e}", "text": f"review {i} says movie {e} is good"})
            + "\n" for e in range(3) for i in range(6)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_reviews = 7\n")

        def corpus(*flags):
            out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
            assert main(["preprocess", "--input", str(raw), "--out-dir", str(out),
                         *flags]) == 0
            return (out / "corpus.jsonl").read_bytes()

        from_file = corpus("--config", str(cfg))
        assert from_file == corpus("--min-reviews", "7") == b""
        assert corpus() != b""

    @pytest.mark.parametrize("command, line, problem", [
        ("pretrain", "steps = abc", "steps = 'abc' is not int"),
        ("pretrain", "lr = fast", "lr = 'fast' is not float"),
        ("evaluate", "baseline = bogus",
         "baseline = 'bogus' is not one of ['tfidf', 'bos', 'toptags']"),
    ])
    def test_config_value_its_flag_rejects_is_data_error(self, workdir, tmp_path,
                                                         capsys, command, line,
                                                         problem):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\n{line}\n")
        data = workdir / "data"
        args = {"pretrain": ["--corpus", str(data / "corpus.jsonl"),
                             "--vocab", str(data / "vocab.tsv"), "--variant", "dual",
                             "--seed", "1", "--out-dir", str(tmp_path / "p")],
                "evaluate": ["--task", "retrieval"]}[command]
        assert main([command, "--config", str(cfg)] + args) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: {problem}" in err and "Traceback" not in err


class TestPretrain:
    def test_deterministic_checkpoints(self, tmp_path, workdir):
        _pretrain(workdir / "data", tmp_path / "r1", steps=20, seed="5")
        _pretrain(workdir / "data", tmp_path / "r2", steps=20, seed="5")
        a = load_checkpoint(tmp_path / "r1")
        b = load_checkpoint(tmp_path / "r2")
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_metrics_log_schema(self, workdir):
        rows = [json.loads(line) for line in
                (workdir / "ckpt" / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == 200
        assert set(rows[0]) == {"step", "loss", "loss_entity", "loss_mlm"}

    def test_inputs_not_mutated(self, tmp_path):
        _generate(tmp_path / "data")
        before = (tmp_path / "data" / "corpus.jsonl").read_bytes()
        _pretrain(tmp_path / "data", tmp_path / "out", steps=2)
        assert (tmp_path / "data" / "corpus.jsonl").read_bytes() == before


class TestConfigDefaults:
    """Flags left unset take the config dataclasses' own defaults."""

    def test_pretrain_uses_training_config_defaults(self, workdir, tmp_path,
                                                     monkeypatch):
        seen = []
        real = objectives.pretrain
        monkeypatch.setattr(objectives, "pretrain", lambda *a, **kw: (
            seen.append(a[3]), real(*a, **kw))[1])
        _pretrain(workdir / "data", tmp_path / "p", steps=2)
        want = objectives.TrainingConfig(steps=2, seed=3, batch_size=8, log_every=0)
        assert [asdict(c) for c in seen] == [asdict(want)]

    def test_finetune_uses_finetune_config_defaults(self, workdir, tmp_path,
                                                    monkeypatch):
        seen = []
        real = finetune.run_finetune
        monkeypatch.setattr(finetune, "run_finetune", lambda *a, **kw: (
            seen.append(a[2]), real(*a, **kw))[1])
        assert main(["finetune", "--checkpoint", str(workdir / "ckpt"),
                     "--votes", str(workdir / "data" / "votes.jsonl"),
                     "--seed", "5", "--epochs", "1",
                     "--out-dir", str(tmp_path / "ft")]) == 0
        want = finetune.FinetuneConfig(epochs=1, seed=5)
        assert [asdict(c) for c in seen] == [asdict(want)]


    def test_pretrain_uses_model_config_defaults(self, workdir, tmp_path, monkeypatch):
        seen = []
        real = objectives.pretrain
        monkeypatch.setattr(objectives, "pretrain", lambda *a, **kw: (
            seen.append(a[2]), real(*a, **kw))[1])
        data = workdir / "data"
        assert main(["pretrain", "--corpus", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.tsv"), "--variant", "dual",
                     "--seed", "3", "--steps", "1", "--batch-size", "4",
                     "--log-every", "0", "--out-dir", str(tmp_path / "p")]) == 0
        want = ModelConfig.for_vocab(Vocabulary.load(data / "vocab.tsv"), "dual")
        assert [asdict(c) for c in seen] == [asdict(want)]

    def test_evaluate_and_retrieve_use_config_defaults(self, workdir, monkeypatch,
                                                       capsys):
        seen = {}

        def spy(module, name, arg):
            """Record positional argument ``arg`` of each call to ``name``."""
            real = getattr(module, name)

            def wrapped(*a, **kw):
                seen[name] = a[arg]
                return real(*a, **kw)

            monkeypatch.setattr(module, name, wrapped)

        spy(evaluation, "evaluate_tag_scores", 2)
        spy(finetune, "score_tag_matrix", 4)
        spy(evaluation, "zero_shot_rank", 3)
        data = workdir / "data"
        assert main(["evaluate", "--task", "tags", "--checkpoint", str(workdir / "ckpt"),
                     "--votes", str(data / "votes.jsonl")]) == 0
        query = read_queries(data / "queries.jsonl")[0]
        assert main(["retrieve", "--checkpoint", str(workdir / "ckpt"),
                     "--query", query.text]) == 0
        capsys.readouterr()
        assert asdict(seen["evaluate_tag_scores"]) == asdict(evaluation.EvalConfig())
        scale = finetune.FinetuneConfig().score_scale
        assert seen["score_tag_matrix"] == seen["zero_shot_rank"] == scale


class TestRetrieve:
    def test_tsv_format(self, workdir, capsys):
        query = read_queries(workdir / "data" / "queries.jsonl")[0]
        assert main(["retrieve", "--checkpoint", str(workdir / "ckpt"),
                     "--query", query.text, "--k", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "rank\tentity_id\tscore"
        assert len(lines) == 6
        first = lines[1].split("\t")
        assert first[0] == "1" and first[1].startswith("e")
        float(first[2])


class TestExport:
    def test_row_count_header_and_round_trip(self, workdir, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        assert main(["export", "--checkpoint", str(workdir / "ckpt"),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header.startswith("#") and "dim=16" in header and "variant=dual" in header
        assert len(rows) == 10

        params = load_checkpoint(workdir / "ckpt")
        table = {}
        for row in rows:
            parts = row.split("\t")
            table[parts[0]] = np.array([float(x) for x in parts[1:]],
                                       dtype=np.float64)
        from textent.text import Vocabulary, tokenize
        from textent.encoder import sentence_row, encode
        vocab = Vocabulary.load(workdir / "ckpt" / "vocab.tsv")
        query = read_queries(workdir / "data" / "queries.jsonl")[0]
        tokens = tokenize(query.text, vocab)
        row_ids, segs = sentence_row(tokens, params.config)
        cls = encode(row_ids, segs, params).cls_vector.astype(np.float64)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        rows = entity_matrix(params).astype(np.float64)
        for i, eid in enumerate(vocab.entity_ids[:4]):
            assert abs(cosine(rows[i], cls) - cosine(table[eid], cls)) < 1e-6


class TestEndToEnd:
    def test_trained_model_beats_its_random_init_on_mrr(self, workdir, tmp_path,
                                                        capsys):
        # paired run: same seed, 0 steps vs 200 steps
        _pretrain(workdir / "data", tmp_path / "init", steps=0, seed="3")

        def mrr_of(ckpt):
            assert main(["evaluate", "--task", "retrieval",
                         "--checkpoint", str(ckpt),
                         "--queries", str(workdir / "data" / "queries.jsonl")]) == 0
            rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
            return next(r["value"] for r in rows if r["metric"] == "mrr")

        trained = mrr_of(workdir / "ckpt")
        untrained = mrr_of(tmp_path / "init")
        assert trained > untrained

    def test_console_script_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "textent.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "retrieve" in proc.stdout
