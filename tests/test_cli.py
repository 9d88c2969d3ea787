"""Command-line behavior: determinism, formats, exit codes, end-to-end smoke."""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from textent import evaluation, finetune, objectives, synthetic
from textent.cli import build_parser, main
from textent.encoder import ModelConfig, entity_matrix, load_checkpoint, save_checkpoint
from textent.evaluation import bos_rank
from textent.text import (Vocabulary, extend_with_entities, read_corpus, read_queries,
                          read_votes)

from conftest import read_checkpoint_file, write_checkpoint_file

GEN_ARGS = ["--entities", "10", "--attribute-vocab", "30",
            "--attributes-per-entity", "4", "--sentences-per-entity", "8",
            "--words-per-sentence", "6", "--noise-ratio", "0.2", "--clusters", "2"]

TRAIN_ARGS = ["--layers", "1", "--heads", "2", "--hidden", "16",
              "--ffn-hidden", "32", "--batch-size", "8", "--log-every", "0"]


def _generate(path, seed="7"):
    assert main(["generate", "--seed", seed, "--out-dir", str(path)] + GEN_ARGS) == 0


def _pretrain(data, out, steps, seed="3", variant="dual"):
    assert main(["pretrain", "--corpus", str(data / "corpus.jsonl"),
                 "--vocab", str(data / "vocab.tsv"), "--variant", variant,
                 "--seed", seed, "--steps", str(steps), "--out-dir", str(out)]
                + TRAIN_ARGS) == 0


_DELETE = object()


def _meta(**changes):
    """A header edit that sets ``__metadata__`` fields."""
    return lambda h: {**h, "__metadata__": {**h["__metadata__"], **changes}}


def _config(**changes):
    """A header edit that sets fields of the config ``__metadata__`` holds."""
    return lambda h: _meta(config=json.dumps(
        {**json.loads(h["__metadata__"]["config"]), **changes}))(h)


def _tensor(name, **changes):
    """A header edit that sets (or, with ``_DELETE``, drops) one tensor's fields."""
    return lambda h: {**h, name: {k: v for k, v in {**h[name], **changes}.items()
                                  if v is not _DELETE}}


def _every_tensor(**changes):
    return lambda h: {k: v if k == "__metadata__" else {**v, **changes}
                      for k, v in h.items()}


def _edited_checkpoint(workdir, tmp_path, edit, *names):
    """A copy of the shared checkpoint with ``edit`` applied in place to
    each named tensor; returns its directory."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(workdir / "ckpt", ckpt)
    params = load_checkpoint(ckpt)
    for name in names:
        edit(params.tensors[name])
    save_checkpoint(params, ckpt)
    return ckpt


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

    @pytest.mark.parametrize("ratio", ["-0.5", "nan"])
    def test_bad_distractor_ratio_is_data_error(self, tmp_path, capsys, ratio):
        assert main(["generate", "--seed", "1", "--out-dir", str(tmp_path / "d"),
                     "--distractor-ratio", ratio]) == 2
        err = capsys.readouterr().err
        assert f"distractor_ratio must be finite and >= 0, got {float(ratio)}" in err
        assert "Traceback" not in err and not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flags, problem", [
        (["--entities", "3", "--attribute-vocab", "4", "--attributes-per-entity", "4",
          "--clusters", "1", "--distractor-ratio", "0"],
         "fewer distinct attribute sets than 3 entities"),
        (["--attribute-vocab", "486001", "--attributes-per-entity", "1"],
         "486001 attribute and 243000 filler words exceed the 729000 distinct words"),
    ], ids=["attribute-sets", "words"])
    def test_world_the_generator_cannot_finish_is_data_error(self, tmp_path, flags, problem):
        """Checked before drawing starts; a draw would never end, hence the timeout."""
        proc = subprocess.run([sys.executable, "-m", "textent.cli", "generate", "--seed", "1",
                               "--out-dir", str(tmp_path / "d")] + flags,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert problem in proc.stderr and "Traceback" not in proc.stderr

    def test_lone_surrogate_escape_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "reviews.jsonl"
        bad.write_text('{"entity_id": "m\\ud800", "text": "a b c d e"}\n' * 5)
        assert main(["preprocess", "--input", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1: a string holds a lone surrogate escape" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, problem", [
        ("--max-seq-len", "-3", "max_seq_len must be >= 1, got -3"),
        ("--max-seq-len", "0", "max_seq_len must be >= 1, got 0"),
        ("--min-words", "-1", "min_words must be >= 0, got -1"),
        ("--min-reviews", "-1", "min_reviews must be >= 0, got -1"),
        ("--min-freq", "-1", "min_freq must be >= 0, got -1"),
    ])
    def test_bad_preprocess_setting_is_data_error(self, tmp_path, capsys, flag, value,
                                                  problem):
        raw = tmp_path / "reviews.jsonl"
        raw.write_text("".join(json.dumps({"entity_id": "m1", "text": f"a b c d e f {i}"})
                               + "\n" for i in range(5)))
        assert main(["preprocess", "--input", str(raw), "--out-dir", str(tmp_path / "out"),
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, problem", [
        (["--max-seq-len", "-1"], "max_seq_len must be >= 4, got -1"),
        (["--max-seq-len", "3"], "max_seq_len must be >= 4, got 3"),
        (["--ffn-hidden", "-3"], "ffn_hidden must be >= 1, got -3"),
        (["--heads", "0"], "bad encoder dimensions"),
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
        ["retrieve", "--checkpoint", "{root}/ckpt", "--query", "x"],
        ["evaluate", "--task", "retrieval", "--checkpoint", "{root}/ckpt",
         "--queries", "{data}/queries.jsonl"],
        ["evaluate", "--task", "tags", "--checkpoint", "{root}/ckpt",
         "--votes", "{data}/votes.jsonl"],
        ["finetune", "--checkpoint", "{root}/ckpt", "--votes", "{data}/votes.jsonl",
         "--seed", "1", "--out-dir", "{tmp}/ft"],
    ], ids=["retrieve", "evaluate-retrieval", "evaluate-tags", "finetune"])
    def test_read_commands_take_no_score_scale(self, workdir, tmp_path, capsys, args):
        """Fine-tuning and every score read after it use one fixed scale: the
        flag is a usage error reported against the subcommand, and a config
        file that sets it names the key."""
        args = [a.format(root=workdir, data=workdir / "data", tmp=tmp_path) for a in args]
        with pytest.raises(SystemExit) as info:
            main(args + ["--score-scale", "4"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert f"usage: textent {args[0]}" in err
        assert "unrecognized arguments: --score-scale 4" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("score_scale = 4\n")
        assert main(args + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "unknown config keys: ['score_scale']" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("task, baseline, flags, accepted", [
        ("retrieval", "toptags", ["--queries", "{data}/queries.jsonl"], "tfidf or bos"),
        ("tags", "bos", ["--votes", "{data}/votes.jsonl"], "tfidf or toptags"),
    ], ids=["retrieval-toptags", "tags-bos"])
    def test_baseline_that_does_not_serve_the_task_is_data_error(
            self, workdir, capsys, task, baseline, flags, accepted):
        flags = [f.format(data=workdir / "data") for f in flags]
        assert main(["evaluate", "--task", task, "--baseline", baseline,
                     "--checkpoint", str(workdir / "ckpt"),
                     "--corpus", str(workdir / "data" / "corpus.jsonl")] + flags) == 2
        captured = capsys.readouterr()
        assert (f"--task {task} takes --baseline {accepted}, not {baseline!r}"
                in captured.err)
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("task, flag, row, problem", [
        ("tags", "--votes", {"entity_id": "e0000", "tag": "t", "votes": "many"},
         "'votes' is 'many'"),
        ("tags", "--votes", {"entity_id": "e0000", "votes": 3}, "'tag' is missing"),
        ("retrieval", "--queries", {"relevant_entity_ids": ["e0000"]},
         "'query' is missing"),
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

    def test_header_without_config_is_data_error(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        header, data = read_checkpoint_file(ckpt)
        del header["__metadata__"]["config"]
        write_checkpoint_file(ckpt, header, data)
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", "x"]) == 2
        err = capsys.readouterr().err
        assert "model.safetensors: __metadata__ 'config' is missing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage, problem", [
        (lambda h: b"{not json", "is not valid JSON"),
        (lambda h: b'{"format": "caf\xe9"}', "is not valid JSON"),
        (lambda h: b"[" * 100_000, "is not valid JSON"),
        (lambda h: [h], "is not a JSON object"),
        (lambda h: {k: v for k, v in h.items() if k != "__metadata__"},
         "__metadata__ not a JSON object"),
        (_config(dropout=0.1), "unknown config keys ['dropout']"),
        (_config(hidden="16"), "config 'hidden' is '16', not int"),
        (_meta(config="{"), "config is not valid JSON"),
        (_meta(config="[]"), "config is not a JSON object"),
        (_every_tensor(dtype=">f4"), "dtype '>f4'"),
        (_every_tensor(dtype="I32"), "dtype 'I32'"),
        (_tensor("seg_emb", dtype="F64"), "tensor 'seg_emb' has dtype 'F64'"),
        (_meta(version="99"), "unsupported version '99'"),
        (_meta(version=4), "'version' is 4, not str"),
        (_meta(format="nope"), "format 'nope'"),
        (_tensor("entity_table", shape=_DELETE), "tensor 'entity_table': 'shape' is missing"),
        (lambda h: {**h, "entity_table": ["F32", [10, 16]]},
         "tensor 'entity_table': not a JSON object"),
        (_tensor("entity_table", shape="10x16"),
         "tensor 'entity_table': 'shape' is '10x16', not list"),
        (_tensor("entity_table", shape=[10.0, 16]),
         "tensor 'entity_table': 'shape' holds 10.0, not int"),
        (_tensor("seg_emb", dtype="\ud800"), "a string holds a lone surrogate escape"),
        (_tensor("seg_emb", data_offsets=[0, 4]), "tensor 'seg_emb' data_offsets [0, 4]"),
        (_tensor("token_emb", data_offsets=[0, 10 ** 9]), "tensor 'token_emb' data_offsets"),
    ], ids=["not-json", "not-utf8", "deep-nesting", "not-object", "no-metadata",
            "unknown-config-key", "config-value-type", "config-not-json",
            "config-not-object", "big-endian-dtype", "int-dtype", "mixed-dtype",
            "unknown-version", "version-not-str", "unknown-format", "tensor-without-shape",
            "tensor-as-list", "shape-not-list", "shape-float", "lone-surrogate",
            "offsets-overlap", "offsets-past-end"])
    def test_bad_header_is_data_error(self, workdir, tmp_path, capsys, damage, problem):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        header, data = read_checkpoint_file(ckpt)
        write_checkpoint_file(ckpt, damage(header), data)
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", "x"]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt / 'model.safetensors'}" in err and problem in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("keep, problem", [
        (0, "0 bytes hold no header"), (7, "7 bytes hold no header"),
        (40, "40 bytes hold no header"), (-1, "data_offsets"),
    ], ids=["empty", "inside-length", "inside-header", "inside-data"])
    def test_truncated_file_is_data_error(self, workdir, tmp_path, capsys, keep, problem):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        path = ckpt / "model.safetensors"
        path.write_bytes(path.read_bytes()[:keep])
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", "x"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and problem in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["retrieve", "--query", "x"],
        ["evaluate", "--task", "retrieval", "--queries", "{data}/queries.jsonl"],
        ["export", "--out", "{tmp}/embeddings.tsv"],
    ], ids=["retrieve", "evaluate", "export"])
    def test_header_with_zero_heads_is_data_error(self, workdir, tmp_path, capsys, args):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        header, data = read_checkpoint_file(ckpt)
        write_checkpoint_file(ckpt, _config(heads=0)(header), data)
        args = [a.format(data=workdir / "data", tmp=tmp_path) for a in args]
        assert main(args + ["--checkpoint", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert "bad encoder dimensions" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "embeddings.tsv").exists()

    @pytest.mark.parametrize("args", [
        ["retrieve", "--query", "x"],
        ["evaluate", "--task", "retrieval", "--queries", "{data}/queries.jsonl"],
        ["finetune", "--votes", "{data}/votes.jsonl", "--seed", "1", "--out-dir", "{tmp}/out"],
        ["export", "--out", "{tmp}/out"],
    ], ids=["retrieve", "evaluate", "finetune", "export"])
    def test_format_3_checkpoint_is_data_error(self, workdir, tmp_path, capsys, args):
        """A checkpoint as format 3 wrote it, a manifest and one file per
        tensor, is refused by name."""
        ckpt = tmp_path / "old"
        (ckpt / "tensors").mkdir(parents=True)
        (ckpt / "manifest.json").write_text('{"format": "textent-checkpoint", "version": 3}')
        shutil.copy(workdir / "ckpt" / "vocab.tsv", ckpt)
        args = [a.format(data=workdir / "data", tmp=tmp_path) for a in args]
        assert main(args + ["--checkpoint", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert f"{ckpt} holds a format-3 checkpoint (manifest.json), which this " \
               f"version does not read" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_non_finite_tensor_is_data_error(self, workdir, tmp_path, capsys):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda t: t.flat.__setitem__(5, np.nan),
                                  "layer0.ffn_w1")
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", "x"]) == 2
        err = capsys.readouterr().err
        assert "tensor 'layer0.ffn_w1' holds non-finite values" in err
        assert "Traceback" not in err

    def test_zero_norm_entity_is_numeric_error(self, workdir, tmp_path, capsys):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda t: t.__setitem__(3, 0.0),
                                  "entity_table")
        query = read_queries(workdir / "data" / "queries.jsonl")[0].text
        assert main(["retrieve", "--checkpoint", str(ckpt), "--query", query]) == 2
        captured = capsys.readouterr()
        assert f"query {query!r}: zero-norm entity vector in row 3 " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_bos_zero_norm_sentence_is_numeric_error(self, workdir, tmp_path, capsys):
        ckpt = _edited_checkpoint(workdir, tmp_path, lambda t: t.fill(0.0),  # every state is 0
                                  "layer0.ffn_ln_g", "layer0.ffn_ln_b")
        data = workdir / "data"
        assert main(["evaluate", "--task", "retrieval", "--baseline", "bos",
                     "--checkpoint", str(ckpt), "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries.jsonl")]) == 2
        captured = capsys.readouterr()
        entity_id = min(ex.entity_id for ex in read_corpus(data / "corpus.jsonl"))
        assert f"entity {entity_id!r}: zero-norm sentence vector in row 0 " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("split, baseline, problem", [
        ("{not json", "toptags", " is not valid JSON"),
        ('{"protocol": "caf\udce9"}', "toptags", " is not valid JSON"),
        ("[" * 100_000, "toptags", " is not valid JSON"),
        ("[]", "toptags", " is not a JSON object"),
        ('{"protocol": "open", "held_tags": ["\\udc00"]}', "toptags",
         ": a string holds a lone surrogate escape"),
        ({"protocol": "open", "train_tags": []}, "toptags", ": 'held_tags' is missing"),
        ({"protocol": "closed", "train_entities": []}, "toptags",
         ": 'held_entities' is missing"),
        ({"protocol": "closed", "held_entities": ["e0000"]}, "toptags",
         ": 'train_entities' is missing"),
    ], ids=["not-json", "not-utf8", "deep-nesting", "not-object", "lone-surrogate",
            "no-held-tags", "no-held-entities", "no-train-entities"])
    def test_bad_split_is_data_error(self, workdir, tmp_path, capsys, split, baseline,
                                     problem):
        path = tmp_path / "split.json"
        path.write_text(split if isinstance(split, str) else json.dumps(split),
                        errors="surrogateescape")  # a surrogate writes one raw byte
        assert main(["evaluate", "--task", "tags", "--baseline", baseline,
                     "--votes", str(workdir / "data" / "votes.jsonl"),
                     "--split", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}{problem}" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, problem", [
        (lambda s, e, t: s, None),
        (lambda s, e, t: {**s, "protocol": "open", "held_tags": t[2:]}, None),
        (lambda s, e, t: {**s, "protocol": "open", "held_tags": [None]},
         "'held_tags' holds None, not str"),
        (lambda s, e, t: {**s, "protocol": "open", "held_tags": [t[0], "no-such-tag"]},
         "'held_tags' names 'no-such-tag', which has no votes"),
        (lambda s, e, t: {**s, "held_entities": [e[0], "e9999"]},
         "'held_entities' names 'e9999', which has no votes"),
        (lambda s, e, t: {**s, "held_entities": [e[0], e[1], e[0]]},
         "'held_entities' names 'e0000' twice"),
        (lambda s, e, t: {**s, "held_entities": []}, "'held_entities' is empty"),
        (lambda s, e, t: {**s, "protocol": "bogus"},
         "'protocol' is 'bogus', not one of ('closed', 'open')"),
        (lambda s, e, t: {**s, "protocol": "Open"}, "'protocol' is 'Open', not one of"),
        (lambda s, e, t: {k: v for k, v in s.items() if k != "protocol"},
         "'protocol' is missing"),
    ], ids=["closed", "open", "held-tag-null", "unknown-tag", "unknown-entity",
            "entity-twice", "no-held-entity", "bogus-protocol", "misspelt-protocol",
            "no-protocol"])
    @pytest.mark.parametrize("baseline", ["model", "tfidf", "toptags"])
    def test_split_names_what_the_votes_hold(self, workdir, tmp_path, capsys, edit,
                                             problem, baseline):
        """Every list a split hands to scoring holds distinct entities or tags
        with votes; the unedited splits score on every path."""
        data = workdir / "data"
        votes = read_votes(data / "votes.jsonl")
        entities, tags = votes.entity_ids(), votes.tags
        split = {"protocol": "closed", "train_entities": entities[2:],
                 "held_entities": entities[:2], "train_tags": tags, "held_tags": []}
        path = tmp_path / "split.json"
        path.write_text(json.dumps(edit(split, entities, tags)))
        run = {"model": ["--checkpoint", str(workdir / "ckpt")],
               "tfidf": ["--baseline", "tfidf", "--corpus", str(data / "corpus.jsonl"),
                         "--vocab", str(data / "vocab.tsv")],
               "toptags": ["--baseline", "toptags"]}[baseline]
        code = main(["evaluate", "--task", "tags", "--votes", str(data / "votes.jsonl"),
                     "--split", str(path), *run])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if problem is None:
            assert code == 0 and json.loads(captured.out.splitlines()[0])["n"] >= 1
        else:
            assert code == 2 and captured.out == ""
            assert f"textent evaluate: error: {path}: {problem}" in captured.err

    @pytest.mark.parametrize("train", [[5], ["e0000", "e0000"], ["e9999"], "e0000"])
    def test_toptags_reads_train_entities_checked(self, workdir, tmp_path, capsys, train):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"protocol": "closed", "held_entities": ["e0001"],
                                    "train_entities": train}))
        assert main(["evaluate", "--task", "tags", "--baseline", "toptags", "--split",
                     str(path), "--votes", str(workdir / "data" / "votes.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: 'train_entities' " in err and "Traceback" not in err

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

    @pytest.mark.parametrize("edit, problem", [
        (lambda row, words: {**row, "entity_id": "zz_unknown"},
         "'entity_id' names 'zz_unknown', which is not an entity"),
        (lambda row, words: {**row, "tokens": row["tokens"] + [words]},
         "outside the word vocabulary"),
    ], ids=["unknown-entity", "id-past-words"])
    def test_corpus_row_outside_the_vocabulary_is_data_error(self, workdir, tmp_path,
                                                             capsys, edit, problem):
        """Rejected when the corpus is read, whether or not a batch draws the row."""
        vocab = workdir / "data" / "vocab.tsv"
        lines = (workdir / "data" / "corpus.jsonl").read_text().splitlines()
        lines[4] = json.dumps(edit(json.loads(lines[4]), Vocabulary.load(vocab).word_size))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                     "--variant", "dual", "--seed", "11", "--steps", "2",
                     "--out-dir", str(out)] + TRAIN_ARGS)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{corpus}:5: " in err and problem in err and "Traceback" not in err
        assert not out.exists()


class TestRunSettings:
    """A bad seed or learning rate is a data error that names it, before any
    world is drawn or any step is taken."""

    @staticmethod
    def _args(command, workdir, out):
        data = workdir / "data"
        return {"generate": ["generate", "--out-dir", str(out)] + GEN_ARGS,
                "pretrain": ["pretrain", "--corpus", str(data / "corpus.jsonl"),
                             "--vocab", str(data / "vocab.tsv"), "--variant", "dual",
                             "--out-dir", str(out)] + TRAIN_ARGS,
                "finetune": ["finetune", "--checkpoint", str(workdir / "ckpt"),
                             "--votes", str(data / "votes.jsonl"),
                             "--out-dir", str(out)]}[command]

    @staticmethod
    def _no_work(monkeypatch):
        for owner, name in ((synthetic, "generate_synthetic"), (objectives, "build_batch"),
                            (finetune, "run_finetune")):
            monkeypatch.setattr(owner, name, None)  # a call would be a TypeError

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["generate", "pretrain", "finetune"])
    def test_negative_seed_is_data_error(self, workdir, tmp_path, capsys, monkeypatch,
                                         command, source):
        self._no_work(monkeypatch)
        args = self._args(command, workdir, tmp_path / "out")
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("seed = -1\n")
            args += ["--config", str(tmp_path / "run.cfg")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"textent {command}: error: --seed must be >= 0, got -1" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_bad_lr_is_data_error(self, workdir, tmp_path, capsys, monkeypatch, command,
                                  lr):
        monkeypatch.setattr(objectives, "build_batch", None)
        monkeypatch.setattr(finetune, "adam_step", None)
        args = self._args(command, workdir, tmp_path / "out") + ["--seed", "1",
                                                                  "--lr", lr]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"lr must be finite and > 0, got {float(lr)}" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


_KEYS = sorted({a.dest for p in _subcommands().values() for a in p._actions}
               - {"help", "config"})
# Values that parse as numbers are small, so a file that happens to make a
# valid world draws a small one; free text holds no decimal digits.
_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e400", "dual", "full", "hybrid", "open",
                     "tags", "retrieval", "tfidf", "bos", "toptags", "mean", ".", "..",
                     "a\0b"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12))


def _config_file(command: str):
    """A file of ``key = value`` lines, most often naming what ``command``
    requires, or any bytes at all."""
    required = _subcommands()[command].get_default("_required")
    pairs = st.tuples(
        st.fixed_dictionaries({}, optional=dict.fromkeys(required, _VALUES)),
        st.lists(st.tuples(st.one_of(st.sampled_from(_KEYS), st.text(max_size=8)),
                           _VALUES), max_size=6))
    lines = pairs.map(lambda p: "".join(f"{k} = {v}\n"
                                        for k, v in [*p[0].items(), *p[1]]).encode())
    return st.one_of(lines, st.binary(max_size=64))


# Every path a subcommand writes is set on the command line, under a regular
# file, so no run writes anything.
_WRITES = {"generate": ["--out-dir", "{blocked}/out"],
           "preprocess": ["--out-dir", "{blocked}/out"],
           "pretrain": ["--out-dir", "{blocked}/out"],
           "finetune": ["--out-dir", "{blocked}/out"],
           "evaluate": ["--out", "{blocked}/report.jsonl", "--dump-dir", "{blocked}/dump"],
           "retrieve": [],
           "export": ["--out", "{blocked}/emb.tsv"]}


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, usage errors included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestAnyConfigFile:
    """Whatever a ``--config`` file holds, every subcommand ends in a usage
    or data error with no traceback. The working directory is empty, so each
    input a file names is missing, and every output is blocked."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(case=("generate", b"seed = -1\n"))
    @example(case=("pretrain", b"seed = -1\nlr = nan\n"))
    @example(case=("finetune", b"seed = -1\n"))
    @example(case=("retrieve", b"checkpoint = a\0b\nquery = x\n"))
    @given(case=st.sampled_from(sorted(_WRITES)).flatmap(
        lambda command: st.tuples(st.just(command), _config_file(command))))
    def test_exits_1_or_2_without_a_traceback(self, tmp_path, monkeypatch, case):
        command, content = case
        (tmp_path / "blocked").touch()
        (tmp_path / "cwd").mkdir(exist_ok=True)
        monkeypatch.chdir(tmp_path / "cwd")
        config = tmp_path / "run.cfg"
        config.write_bytes(content)
        args = [a.format(blocked=tmp_path / "blocked") for a in _WRITES[command]]
        code, err = _run_quietly([command, "--config", str(config), *args])
        assert code in (1, 2), err
        assert "Traceback" not in err
        assert not any((tmp_path / "cwd").iterdir())


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_SPLIT_KEYS = ("protocol", "train_entities", "held_entities", "train_tags", "held_tags")


class TestAnySplitFile:
    """Whatever ``split.json`` holds, ``evaluate --task tags`` on the model,
    TF-IDF and top-tags paths exits 0 or 2 with no traceback."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exits_0_or_2_without_a_traceback(self, workdir, tmp_path, data):
        votes = read_votes(workdir / "data" / "votes.jsonl")
        names = st.sampled_from([*votes.entity_ids()[:3], *votes.tags[:3], "e9999", ""])
        value = (st.sampled_from(["closed", "open", "bogus"]) | _JSON
                 | st.lists(names, max_size=4))
        split = st.fixed_dictionaries({}, optional=dict.fromkeys(_SPLIT_KEYS, value))
        content = data.draw((split | _JSON).map(lambda v: json.dumps(v).encode())
                            | st.binary(max_size=24))
        (tmp_path / "split.json").write_bytes(content)
        run = data.draw(st.sampled_from([
            ["--checkpoint", str(workdir / "ckpt")],
            ["--baseline", "tfidf", "--corpus", str(workdir / "data" / "corpus.jsonl"),
             "--vocab", str(workdir / "data" / "vocab.tsv")],
            ["--baseline", "toptags"]]))
        code, err = _run_quietly(["evaluate", "--task", "tags", "--split",
                                  str(tmp_path / "split.json"), "--votes",
                                  str(workdir / "data" / "votes.jsonl"), *run])
        assert code in (0, 2), err
        assert "Traceback" not in err


_TENSORS = st.sampled_from(["entity_table", "layer0.ffn_w1", "seg_emb", "token_emb"])
_HEADER_EDIT = st.tuples(
    st.one_of(st.sampled_from(["__metadata__", "extra"]).map(lambda k: (k,)),
              st.sampled_from(["format", "version", "config", "extra"])
              .map(lambda k: ("__metadata__", k)),
              st.sampled_from([f.name for f in fields(ModelConfig)] + ["extra"])
              .map(lambda k: ("config", k)),
              _TENSORS.map(lambda t: (t,)),
              st.tuples(_TENSORS, st.sampled_from(["dtype", "shape", "data_offsets"]))),
    st.one_of(_JSON, st.just(_DELETE), st.integers(-2, 70),
              st.lists(st.integers(-1, 70), max_size=3),
              st.lists(st.integers(0, 9000), min_size=2, max_size=2),
              st.sampled_from(["F32", "F64", "I32", "<f4", "4", "3", "textent-checkpoint",
                               "dual", "full", "{}", "[]", ""])))


def _edit(parent, path, value):
    """Set (or drop) ``parent[path]``, where every key on the way is a dict."""
    for key in path[:-1]:
        parent = parent.get(key) if isinstance(parent, dict) else None
    if isinstance(parent, dict) and value is _DELETE:
        parent.pop(path[-1], None)
    elif isinstance(parent, dict):
        parent[path[-1]] = value


class TestAnyCheckpointFile:
    """Whatever edits a checkpoint's header takes, whatever JSON value
    replaces it, wherever the file is cut and whatever bytes replace it,
    ``retrieve`` and ``export`` exit 0 or 2 with no traceback."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(["retrieve", "export"]))
    def test_exits_0_or_2_without_a_traceback(self, workdir, tmp_path, data, command):
        ckpt = tmp_path / "ckpt"
        if not ckpt.exists():
            shutil.copytree(workdir / "ckpt", ckpt)
        header, tensors = read_checkpoint_file(workdir / "ckpt")
        for path, value in data.draw(st.lists(_HEADER_EDIT, max_size=3)):
            if path[0] != "config":
                _edit(header, path, value)
                continue
            with contextlib.suppress(KeyError, TypeError, ValueError):
                config = json.loads(header["__metadata__"]["config"])
                _edit(config, path[1:], value)
                header["__metadata__"]["config"] = json.dumps(config)
        kind = data.draw(st.sampled_from(["edited", "edited", "json", "cut", "bytes"]))
        head = json.dumps(data.draw(_JSON) if kind == "json" else header).encode()
        raw = len(head).to_bytes(8, "little") + head + tensors
        if kind == "cut":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "bytes":
            raw = data.draw(st.binary(max_size=48))
        (ckpt / "model.safetensors").write_bytes(raw)
        run = {"retrieve": ["retrieve", "--query", "x"],
               "export": ["export", "--out", str(tmp_path / "emb.tsv")]}[command]
        code, err = _run_quietly([*run, "--checkpoint", str(ckpt)])
        assert code in (0, 2), err
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

    @pytest.mark.parametrize("baseline", ["zero-shot", "tfidf", "bos"])
    def test_query_naming_no_entity_is_data_error(self, workdir, tmp_path, capsys,
                                                  baseline):
        data = workdir / "data"
        lines = (data / "queries.jsonl").read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "relevant_entity_ids": ["nope"]})
        path = tmp_path / "queries.jsonl"
        path.write_text("\n".join(lines) + "\n")
        run = {"zero-shot": ["--checkpoint", str(workdir / "ckpt")],
               "tfidf": ["--baseline", "tfidf", "--corpus", str(data / "corpus.jsonl"),
                         "--vocab", str(data / "vocab.tsv")],
               "bos": ["--baseline", "bos", "--checkpoint", str(workdir / "ckpt"),
                       "--corpus", str(data / "corpus.jsonl")]}[baseline]
        assert main(["evaluate", "--task", "retrieval", "--queries", str(path), *run]) == 2
        captured = capsys.readouterr()
        assert (f"error: {path}:2: 'relevant_entity_ids' names 'nope', which is not an "
                f"entity\n") in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["evaluate-model", "evaluate-tfidf", "finetune"])
    def test_vote_naming_no_entity_is_data_error(self, workdir, tmp_path, capsys, command):
        data = workdir / "data"
        lines = (data / "votes.jsonl").read_text().splitlines()
        lines.append(json.dumps({"entity_id": "e9999", "tag": json.loads(lines[0])["tag"],
                                 "votes": 3}))
        path = tmp_path / "votes.jsonl"
        path.write_text("\n".join(lines) + "\n")
        run = {"evaluate-model": ["evaluate", "--task", "tags",
                                  "--checkpoint", str(workdir / "ckpt")],
               "evaluate-tfidf": ["evaluate", "--task", "tags", "--baseline", "tfidf",
                                  "--corpus", str(data / "corpus.jsonl"),
                                  "--vocab", str(data / "vocab.tsv")],
               "finetune": ["finetune", "--checkpoint", str(workdir / "ckpt"), "--seed", "1",
                            "--out-dir", str(tmp_path / "out")]}[command]
        assert main([*run, "--votes", str(path)]) == 2
        captured = capsys.readouterr()
        assert (f"error: {path}:{len(lines)}: 'entity_id' names 'e9999', which is not an "
                f"entity\n") in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

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


class TestBlasThreads:
    """``main`` runs OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is set."""

    def _bos(self, workdir, dump):
        data = workdir / "data"
        assert main(["evaluate", "--task", "retrieval", "--baseline", "bos",
                     "--checkpoint", str(workdir / "ckpt"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--queries", str(data / "queries.jsonl"),
                     "--dump-dir", str(dump), "--top-k-dump", "5"]) == 0

    def test_thread_count_restored(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = evaluation._blas_threads()
        _generate(tmp_path)
        assert evaluation._blas_threads() == before
        assert main(["evaluate", "--task", "tags"]) == 2  # a data error restores it too
        assert evaluation._blas_threads() == before

    def test_bos_output_same_pinned_or_not(self, workdir, tmp_path, capsys, monkeypatch):
        seen = []  # BLAS's thread count when the BoS pool is sized
        workers = evaluation._bos_workers
        monkeypatch.setattr(evaluation, "_bos_workers",
                            lambda: seen.append(evaluation._blas_threads()) or workers())
        before = evaluation._blas_threads()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        self._bos(workdir, tmp_path / "unset")
        unset = capsys.readouterr().out
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        self._bos(workdir, tmp_path / "set")
        assert capsys.readouterr().out == unset
        assert ((tmp_path / "unset" / "rankings.tsv").read_bytes()
                == (tmp_path / "set" / "rankings.tsv").read_bytes())
        if before is not None:
            assert seen == [1, before]


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
        seen = []
        real = evaluation.evaluate_tag_scores

        def spy(scores, votes, config, *a, **kw):
            seen.append(config)
            return real(scores, votes, config, *a, **kw)

        monkeypatch.setattr(evaluation, "evaluate_tag_scores", spy)
        data = workdir / "data"
        assert main(["evaluate", "--task", "tags", "--checkpoint", str(workdir / "ckpt"),
                     "--votes", str(data / "votes.jsonl")]) == 0
        query = read_queries(data / "queries.jsonl")[0]
        capsys.readouterr()
        assert main(["retrieve", "--checkpoint", str(workdir / "ckpt"),
                     "--query", query.text]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 10  # header, k = 10
        assert [asdict(c) for c in seen] == [asdict(evaluation.EvalConfig())]

    @pytest.mark.parametrize("command, classes, io", [
        ("generate", [synthetic.SyntheticWorldSpec], {"out_dir"}),
        ("pretrain", [ModelConfig, objectives.TrainingConfig],
         {"corpus", "vocab", "out_dir"}),
        ("finetune", [finetune.FinetuneConfig], {"checkpoint", "votes", "vocab", "out_dir"}),
    ], ids=["generate", "pretrain", "finetune"])
    def test_every_training_flag_names_a_config_field(self, command, classes, io):
        """A flag whose name is no field of the configs its command builds
        would be dropped silently, so each one must name a field."""
        parser = next(a.choices for a in build_parser()._actions
                      if isinstance(a.choices, dict))[command]
        flags = {a.dest for a in parser._actions} - {"help", "config", "seed"} - io
        # entity_dim follows hidden; the vocabulary sizes the other two
        names = {f.name for cls in classes for f in fields(cls)} - {
            "seed", "entity_dim", "vocab_size", "entity_count"}
        assert flags == names


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
