"""Encoder forward-pass contracts, heads, and checkpoint round trips."""

import errno
import io
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from textent import autodiff, encoder, objectives
from textent.encoder import (ENTITY_POSITION, ModelConfig, ModelParams, encode, encode_rows,
                             encode_tensors, entity_matrix, entity_row,
                             expected_shapes, hybrid_head_tensors, init_params,
                             load_checkpoint, mlm_logits, save_checkpoint,
                             wrap_tensors)
from textent.errors import DataError
from textent.finetune import tag_loss
from textent.numerics import grad_check, value_and_grads
from textent.objectives import TrainingConfig, build_batch, pretrain_loss
from textent.text import tokenize

from conftest import (encode_tensors_composed, hybrid_head_composed,
                      hybrid_mlm_logits_ref, mixed_examples, mlm_head_composed,
                      mlm_logits_ref, read_checkpoint_file, softmax,
                      write_checkpoint_file)

# The tied masked-word head's own tensors: full's alone.
TIED_HEAD = ("mlm_dense_w", "mlm_dense_b", "mlm_ln_g", "mlm_ln_b", "mlm_out_b")

TOY = dict(layers=2, heads=2, hidden=16, ffn_hidden=32, max_seq_len=16,
           vocab_size=40, entity_count=4, entity_dim=16)


def toy_params(variant="dual", seed=123, dtype=np.float64, **overrides):
    cfg = ModelConfig(**{**TOY, **overrides}, variant=variant)
    return init_params(cfg, seed=seed, dtype=dtype)


def hybrid_logits(hidden_rows, entity_vec, params):
    """The hybrid head on constants, every hidden row read with ``entity_vec``
    (the one row of the entity table it is given)."""
    pt = {**wrap_tensors(params), "entity_table": autodiff.constant(entity_vec[None])}
    return hybrid_head_tensors(pt, autodiff.constant(hidden_rows),
                               np.zeros(len(hidden_rows), dtype=np.int64)).data


class TestEncode:
    def test_zero_layers_is_embedding_plus_norm(self):
        params = toy_params(layers=0)
        tokens, segs = [1, 7, 8, 2], [0, 0, 1, 1]
        out = encode(tokens, segs, params)
        t = params.tensors
        raw = (t["token_emb"][tokens] + t["pos_emb"][: len(tokens)]
               + t["seg_emb"][segs])
        mu = raw.mean(axis=-1, keepdims=True)
        var = raw.var(axis=-1, keepdims=True)
        expected = (raw - mu) / np.sqrt(var + 1e-12)
        np.testing.assert_allclose(out.hidden_states, expected, atol=1e-12)

    def test_permutation_equivariance_with_zeroed_positions(self):
        params = toy_params()
        params.tensors["pos_emb"][:] = 0.0
        tokens = [1, 9, 17, 25, 33, 2]
        segs = [0] * 6
        base = encode(tokens, segs, params).hidden_states
        swapped = list(tokens)
        swapped[2], swapped[4] = swapped[4], swapped[2]
        out = encode(swapped, segs, params).hidden_states
        np.testing.assert_allclose(out[2], base[4], atol=1e-9)
        np.testing.assert_allclose(out[4], base[2], atol=1e-9)
        np.testing.assert_allclose(out[1], base[1], atol=1e-9)

    def test_golden_values_from_verified_run(self):
        # frozen after the encoder passed its gradient checks
        params = toy_params()
        out = encode([1, 9, 17, 25, 33, 2], [0] * 6, params)
        h = out.hidden_states
        assert abs(np.abs(h).sum() - 81.0982772655) < 1e-6
        assert abs(h[0, 0] - 0.737992216724) < 1e-9
        assert abs(h[2, 3] - 0.346382087126) < 1e-9
        assert abs(h[5, 10] - 0.932997807888) < 1e-9

    def test_deterministic_bit_identical(self):
        params = toy_params()
        a = encode([1, 5, 6, 2], [0] * 4, params).hidden_states
        b = encode([1, 5, 6, 2], [0] * 4, params).hidden_states
        np.testing.assert_array_equal(a, b)

    def test_cls_vector_is_position_zero(self):
        params = toy_params()
        out = encode([1, 5, 2], [0] * 3, params)
        np.testing.assert_array_equal(out.cls_vector, out.hidden_states[0])

    def test_id_out_of_range_names_position(self):
        params = toy_params()
        with pytest.raises(DataError, match="position 2"):
            encode([1, 5, 99, 2], [0] * 4, params)

    def test_length_mismatch(self):
        params = toy_params()
        with pytest.raises(DataError):
            encode([1, 5], [0], params)

    def test_numpy_token_arrays(self):
        params = toy_params()
        want = encode([1, 5, 2], [0, 0, 0], params)
        got = encode(np.array([1, 5, 2]), np.zeros(3, dtype=int), params)
        assert got.hidden_states.tobytes() == want.hidden_states.tobytes()
        with pytest.raises(DataError, match="empty"):
            encode(np.array([], dtype=int), np.array([], dtype=int), params)

    def test_too_long_sequence(self):
        params = toy_params()
        with pytest.raises(DataError, match="max_seq_len"):
            encode([1] * 17, [0] * 17, params)

    def test_padding_does_not_leak_into_real_positions(self):
        params = toy_params()
        short = encode_rows([[1, 5, 6, 2]], [[0] * 4], params)[0][0, :4]
        padded, _ = encode_rows([[1, 5, 6, 2], [1, 5, 6, 7, 8, 9, 10, 2]],
                                [[0] * 4, [0] * 8], params)
        np.testing.assert_allclose(padded[0, :4], short, atol=1e-9)

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_equals_encode_rows_and_the_unmasked_forward(self, variant, dtype):
        """``encode`` is ``encode_rows`` of one row; its all-real pad mask adds
        0.0 to every attention score, so no bit moves against no mask."""
        params = toy_params(variant, dtype=dtype)
        tokens, segs = [1, 9, 17, 25, 33, 2], [0, 0, 0, 1, 1, 1]
        out = encode(tokens, segs, params)
        rows, mask = encode_rows([tokens], [segs], params)
        unmasked = encode_tensors(wrap_tensors(params), params.config,
                                  np.asarray([tokens]), np.asarray([segs]))
        assert out.hidden_states.dtype == dtype and mask.all()
        assert out.hidden_states.tobytes() == rows[0].tobytes()
        assert out.hidden_states.tobytes() == unmasked.data[0].tobytes()
        assert out.cls_vector.tobytes() == rows[0, 0].tobytes()


class TestReadPositions:
    """``encode_tensors(read=(rows, cols))`` returns what ``flat_gather`` of
    the full forward returns, with the last layer run on the read rows only."""

    # a padded batch read out of order, with a repeat and a padded position
    ROWS = np.array([2, 0, 1, 0, 2, 1, 2])
    COLS = np.array([4, 0, 6, 0, 1, 0, 7])

    @staticmethod
    def _batch(config):
        rng = np.random.default_rng(11)
        ids = rng.integers(5, config.vocab_size, size=(3, 8))
        segs = (np.arange(8) >= 4).astype(np.int64) * np.ones((3, 1), dtype=np.int64)
        mask = np.ones((3, 8), dtype=bool)
        mask[0, 5:] = False
        mask[2, 6:] = False
        return ids, segs, mask

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_equals_gather_of_the_full_forward(self, variant, dtype, tol, layers):
        params = toy_params(variant, dtype=dtype, layers=layers)
        pt, cfg = wrap_tensors(params), params.config
        args = (pt, cfg, *self._batch(cfg))
        full = encode_tensors(*args)
        read = encode_tensors(*args, read=(self.ROWS, self.COLS))
        assert read.shape == (len(self.ROWS), cfg.hidden)
        assert read.data.dtype == dtype
        np.testing.assert_allclose(read.data, full.data[self.ROWS, self.COLS],
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradient_matches_central_differences(self, layers):
        params = toy_params("full", layers=layers)
        cfg = params.config
        ids, segs, mask = self._batch(cfg)
        weights = np.random.default_rng(3).normal(size=(len(self.ROWS), cfg.hidden))

        def loss(pt):
            states = encode_tensors(pt, cfg, ids, segs, mask, read=(self.ROWS, self.COLS))
            return (states * autodiff.constant(weights)).sum()

        err = grad_check(loss, params.tensors, samples=300, h=1e-5,
                         rng=np.random.default_rng(5))
        assert err < 1e-4

    def test_unread_positions_get_gradient_through_keys_and_values(self):
        """With one layer, ``pos_emb`` rows of unread positions reach the read
        states only as the pruned layer's keys and values."""
        params = toy_params("dual", layers=1)
        cfg = params.config
        ids, segs, mask = self._batch(cfg)
        rows, cols = np.array([1, 0]), np.array([0, 2])
        unread = [3, 5]
        weights = np.random.default_rng(3).normal(size=(2, cfg.hidden))

        def loss(pt):
            states = encode_tensors(pt, cfg, ids, segs, mask, read=(rows, cols))
            return (states * autodiff.constant(weights)).sum()

        _, grads = value_and_grads(loss, params.tensors)
        numeric = np.zeros((len(unread), cfg.hidden))
        h = 1e-6
        for i, pos in enumerate(unread):
            for j in range(cfg.hidden):
                values = []
                for step in (h, -h):
                    work = {k: v.copy() for k, v in params.tensors.items()}
                    work["pos_emb"][pos, j] += step
                    values.append(float(loss(
                        {k: autodiff.constant(v) for k, v in work.items()}).data))
                numeric[i, j] = (values[0] - values[1]) / (2 * h)
        analytic = grads["pos_emb"][unread]
        assert np.abs(analytic).min() > 1e-6
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-9)


class TestEntityEmbeddings:
    def test_row_access(self):
        params = toy_params()
        np.testing.assert_array_equal(entity_matrix(params)[0],
                                      params.tensors["entity_table"][0])

    def test_distinct_rows_after_init(self):
        params = toy_params()
        table = entity_matrix(params)
        for i in range(len(table)):
            for j in range(i + 1, len(table)):
                assert not np.array_equal(table[i], table[j])

    def test_full_variant_rows_live_in_token_embedding(self):
        params = toy_params("full")
        cfg = params.config
        np.testing.assert_array_equal(
            entity_matrix(params)[1],
            params.tensors["token_emb"][cfg.word_vocab_size + 1])


class TestMlmHeads:
    def test_zero_positions_empty_logits(self):
        params = toy_params("full")
        out = encode([1, 5, 2], [0] * 3, params)
        logits = mlm_logits(out.hidden_states, [], params)
        assert logits.shape == (0, params.config.vocab_size)

    def test_logit_shape_contract(self):
        params = toy_params("full")
        out = encode([1, 5, 6, 7, 2], [0] * 5, params)
        logits = mlm_logits(out.hidden_states, [1, 3], params)
        assert logits.shape == (2, params.config.vocab_size)

    def test_softmax_rows_normalize(self):
        params = toy_params("full")
        out = encode([1, 5, 6, 2], [0] * 4, params)
        logits = mlm_logits(out.hidden_states, [1, 2], params)
        for row in logits:
            probs = softmax(autodiff.constant(row)).data
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_position_bounds(self):
        params = toy_params("full")
        out = encode([1, 5, 2], [0] * 3, params)
        with pytest.raises(DataError):
            mlm_logits(out.hidden_states, [3], params)

    @pytest.mark.parametrize("variant", ["dual", "hybrid"])
    def test_only_full_has_the_tied_head(self, variant):
        params = toy_params(variant)
        out = encode([1, 5, 2], [0] * 3, params)
        with pytest.raises(DataError, match=f"variant '{variant}' has no tied MLM head"):
            mlm_logits(out.hidden_states, [1], params)


class TestHybridHead:
    def test_transform_width_is_hidden_plus_entity_dim(self):
        params = toy_params("hybrid")
        cfg = params.config
        assert params.tensors["hyb_dense_w"].shape == (cfg.hidden + cfg.entity_dim,
                                                       cfg.hidden)
        assert params.tensors["hyb_out_w"].shape == (cfg.hidden, cfg.vocab_size)

    def test_zeroed_entity_half_is_a_plain_head_over_the_hidden_state(self):
        params, _ = TestHeadsAgainstNumpyReference._randomized("hybrid")
        cfg = params.config
        t = params.tensors
        t["hyb_dense_w"][cfg.hidden:] = 0.0
        out = encode([1, 5, 6, 7, 2], [0] * 5, params)
        hybrid = hybrid_logits(out.hidden_states[[1, 3]],
                               params.tensors["entity_table"][2], params)
        # the numpy head of dense, GELU, layer norm and projection, on the
        # hidden half of hybrid's weights alone
        plain = mlm_logits_ref(out.hidden_states[[1, 3]], {
            "mlm_dense_w": t["hyb_dense_w"][: cfg.hidden], "mlm_dense_b": t["hyb_dense_b"],
            "mlm_ln_g": t["hyb_ln_g"], "mlm_ln_b": t["hyb_ln_b"],
            "token_emb": t["hyb_out_w"].T, "mlm_out_b": t["hyb_out_b"]})
        np.testing.assert_allclose(hybrid, plain, rtol=1e-12)

    def test_entity_vector_gradient_matches_finite_difference(self):
        params = toy_params("hybrid")
        cfg = params.config
        out = encode([1, 5, 6, 2], [0] * 4, params)
        h_row = out.hidden_states[1]
        probe = np.random.default_rng(2).normal(size=cfg.vocab_size)

        def fn(pt):
            logits = hybrid_head_tensors({**wrap_tensors(params), "entity_table": pt["vec"]},
                                         autodiff.constant(h_row.reshape(1, -1)),
                                         np.zeros(1, dtype=np.int64))
            return (logits * autodiff.constant(probe)).sum()

        vec = {"vec": entity_matrix(params)[0].reshape(1, -1).astype(np.float64)}
        err = grad_check(fn, vec, samples=16, h=1e-6,
                         rng=np.random.default_rng(0))
        assert err < 1e-4
        # and the dependence is real: some direction moves the logits
        base = hybrid_logits(out.hidden_states[[1]], vec["vec"][0], params)
        moved = hybrid_logits(out.hidden_states[[1]], vec["vec"][0] + 1e-3, params)
        assert np.abs(moved - base).max() > 0


class TestHeadsAgainstNumpyReference:
    """The heads compute through the graph ops; the loss tests read them as
    oracles, so they are pinned here to the plain numpy formulas."""

    @staticmethod
    def _randomized(variant):
        params = toy_params(variant)
        rng = np.random.default_rng(5)
        for t in params.tensors.values():
            t += rng.normal(0.0, 0.3, size=t.shape)
        return params, rng.normal(size=(6, params.config.hidden))

    def test_mlm_logits(self):
        params, hidden = self._randomized("full")
        got = mlm_logits(hidden, [0, 2, 5], params)
        want = mlm_logits_ref(hidden[[0, 2, 5]], params.tensors)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_hybrid_mlm_logits(self):
        params, hidden = self._randomized("hybrid")
        ent = params.tensors["entity_table"][1]
        got = hybrid_logits(hidden[[1, 4]], ent, params)
        want = hybrid_mlm_logits_ref(hidden[[1, 4]], ent, params.tensors)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestConfig:
    def test_hidden_divisible_by_heads(self):
        with pytest.raises(DataError):
            ModelConfig(**{**TOY, "heads": 3}, variant="dual").validate()

    def test_full_requires_entity_dim_equal_hidden(self):
        with pytest.raises(DataError):
            ModelConfig(**{**TOY, "entity_dim": 8}, variant="full").validate()

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    def test_entity_dim_follows_hidden(self, small_world, variant):
        cfg = ModelConfig.for_vocab(small_world.vocab, variant, hidden=16, heads=2)
        assert cfg.entity_dim == cfg.hidden == 16
        with pytest.raises(DataError, match="entity_dim 8 must equal hidden 16"):
            ModelConfig.for_vocab(small_world.vocab, variant, hidden=16, heads=2,
                                  entity_dim=8)

    def test_entity_row_layout(self):
        cfg = ModelConfig(**TOY, variant="full")
        row, segs = entity_row(36, [5, 6, 7], cfg)
        assert row == [1, 36, 2, 5, 6, 7, 2]
        assert segs == [0, 0, 0, 1, 1, 1, 1]
        assert row[ENTITY_POSITION] == 36

    def test_variant_shapes(self):
        dual = set(expected_shapes(ModelConfig(**TOY, variant="dual")))
        full = set(expected_shapes(ModelConfig(**TOY, variant="full")))
        hybrid = set(expected_shapes(ModelConfig(**TOY, variant="hybrid")))
        assert "entity_table" in dual and "entity_table" not in full
        assert set(TIED_HEAD) <= full
        assert not {"cls_w", "cls_b"} & (dual | full | hybrid)
        # hybrid holds dual's tensors and its own head, and no tied head
        assert hybrid - dual == {"hyb_dense_w", "hyb_dense_b", "hyb_ln_g", "hyb_ln_b",
                                 "hyb_out_w", "hyb_out_b"}
        assert dual <= hybrid


class TestEveryTensorIsLive:
    """Every tensor ``expected_shapes`` gives a variant is read: one step of
    its pretraining loss, and one of its fine-tuning loss, gives each a
    gradient that is not all zero."""

    @staticmethod
    def _assert_live(grads, cfg):
        dead = [name for name in expected_shapes(cfg) if not np.any(grads[name])]
        assert dead == [], f"{cfg.variant} tensors with an all-zero gradient"

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    def test_pretrain_loss(self, small_world, tiny_configs, variant):
        cfg = tiny_configs[variant]
        batch = build_batch(mixed_examples(small_world, 8), small_world.vocab, cfg,
                            rng=np.random.default_rng(4), word_mask_rate=0.3,
                            entity_mask_rate=0.6)
        assert sum(map(len, batch.mask_positions)) > 0
        assert variant != "full" or batch.entity_masked.any()
        out = pretrain_loss(batch, init_params(cfg, seed=7), TrainingConfig())
        self._assert_live(out.grads, cfg)

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    def test_tag_loss(self, small_world, tiny_configs, variant):
        cfg = tiny_configs[variant]
        tokens = [tokenize(t, small_world.vocab) for t in small_world.votes.tags[:6]]
        _, grads = value_and_grads(
            lambda pt: tag_loss(pt, cfg, tokens, 1, 2, np.array([1.0, 0.5])),
            init_params(cfg, seed=7).tensors)
        self._assert_live(grads, cfg)


class TestCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        params = toy_params("hybrid", dtype=np.float32)
        save_checkpoint(params, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == params.config
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
        assert [p.name for p in (tmp_path / "ckpt").iterdir()] == ["model.safetensors"]

    def test_float64_round_trip(self, tmp_path):
        params = toy_params("dual", dtype=np.float64)
        save_checkpoint(params, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        _assert_bit_identical(loaded, params)
        assert {arr.dtype for arr in loaded.tensors.values()} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("dtype, code", [(np.float32, "F32"), (np.float64, "F64")])
    def test_file_is_safetensors_layout(self, tmp_path, dtype, code):
        """An 8-byte little-endian header length, a JSON header naming the
        config and each tensor in name order, then the packed data."""
        params = toy_params("full", dtype=dtype)
        save_checkpoint(params, tmp_path)
        header, data = read_checkpoint_file(tmp_path)
        meta = header.pop("__metadata__")
        assert meta.keys() == {"format", "version", "config"}
        assert (meta["format"], meta["version"]) == ("textent-checkpoint", "4")
        assert json.loads(meta["config"]) == asdict(params.config)
        assert list(header) == sorted(params.tensors)
        end = 0
        for name, entry in header.items():
            arr = params.tensors[name]
            assert entry == {"dtype": code, "shape": list(arr.shape),
                             "data_offsets": [end, end + arr.nbytes]}
            little = arr.astype(arr.dtype.newbyteorder("<"))
            assert data[end:end + arr.nbytes] == little.tobytes()
            end += arr.nbytes
        assert end == len(data)
        raw = (tmp_path / "model.safetensors").read_bytes()
        assert (len(raw) - len(data)) % 8 == 0  # the data starts 8-byte aligned

    def test_missing_tensor_rejected(self, tmp_path):
        save_checkpoint(toy_params("dual"), tmp_path)
        header, data = read_checkpoint_file(tmp_path)
        del header["entity_table"]
        write_checkpoint_file(tmp_path, header, data)
        with pytest.raises(DataError, match=r"missing \['entity_table'\]"):
            load_checkpoint(tmp_path)

    def test_shape_mismatch_rejected(self, tmp_path):
        save_checkpoint(toy_params("dual"), tmp_path)
        header, data = read_checkpoint_file(tmp_path)
        header["entity_table"]["shape"] = [2, 2]
        write_checkpoint_file(tmp_path, header, data)
        with pytest.raises(DataError, match="'entity_table' has shape"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("name", TIED_HEAD)
    def test_hybrid_checkpoint_with_tied_head_rejected(self, tmp_path, name):
        params = toy_params("hybrid", dtype=np.float32)
        extra = np.zeros(expected_shapes(ModelConfig(**TOY, variant="full"))[name],
                         dtype=np.float32)
        save_checkpoint(ModelParams(params.config, {**params.tensors, name: extra}), tmp_path)
        with pytest.raises(DataError, match=rf"unexpected \['{name}'\]"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("edit, problem", [
        (lambda h: h["seg_emb"].update(dtype="F64"), "'seg_emb' has dtype 'F64'"),
        (lambda h: [e.update(dtype="I32") for e in h.values()], "dtype 'I32'"),
        (lambda h: h["seg_emb"].update(data_offsets=h["token_emb"]["data_offsets"]),
         "'seg_emb' data_offsets"),
        (lambda h: h["seg_emb"].update(
            data_offsets=[h["seg_emb"]["data_offsets"][0] + 4,
                          h["seg_emb"]["data_offsets"][1] + 4]),
         "'seg_emb' data_offsets"),
        (lambda h: h["seg_emb"].update(data_offsets=h["seg_emb"]["data_offsets"][:1]),
         "'seg_emb' data_offsets"),
    ], ids=["mixed-dtype", "int-dtype", "overlap", "gap", "one-offset"])
    def test_header_that_does_not_tile_the_data_rejected(self, tmp_path, edit, problem):
        save_checkpoint(toy_params("dual", dtype=np.float32), tmp_path)
        header, data = read_checkpoint_file(tmp_path)
        edit(header)
        write_checkpoint_file(tmp_path, header, data)
        with pytest.raises(DataError, match=problem) as exc:
            load_checkpoint(tmp_path)
        assert "model.safetensors" in str(exc.value)

    @pytest.mark.parametrize("cut", [-4, -1, 4])
    def test_data_longer_or_shorter_than_header_rejected(self, tmp_path, cut):
        save_checkpoint(toy_params("dual", dtype=np.float32), tmp_path)
        header, data = read_checkpoint_file(tmp_path)
        write_checkpoint_file(tmp_path, header, data[:cut] if cut < 0 else data + bytes(cut))
        with pytest.raises(DataError, match="model.safetensors: "):
            load_checkpoint(tmp_path)

    def test_format_3_checkpoint_rejected(self, tmp_path):
        (tmp_path / "tensors").mkdir()
        (tmp_path / "manifest.json").write_text('{"format": "textent-checkpoint"}')
        with pytest.raises(DataError, match=f"{tmp_path} holds a format-3 checkpoint"):
            load_checkpoint(tmp_path)
        with pytest.raises(DataError, match="no checkpoint model.safetensors in"):
            load_checkpoint(tmp_path / "tensors")

    def test_save_fsyncs_file_then_renames_then_fsyncs_directory(self, tmp_path,
                                                                  monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        save_checkpoint(toy_params("dual"), tmp_path / "ckpt")
        assert calls == [("fsync", (tmp_path / "ckpt" / "model.safetensors").stat().st_ino),
                         ("replace", "model.safetensors.tmp", "model.safetensors"),
                         ("fsync", (tmp_path / "ckpt").stat().st_ino)]

    @pytest.mark.parametrize("fail", ["write:0", "write:100", "write:-1", "fsync",
                                      "replace"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, fail):
        """A save that raises part-way (the disk fills after some bytes, the
        fsync or the rename fails) leaves the checkpoint saved before
        loadable bit-identically, and what pretraining and the CLI keep
        beside it survives every save."""
        ckpt = tmp_path / "ckpt"
        old = toy_params("hybrid", seed=1, dtype=np.float32)
        new = toy_params("hybrid", seed=2, dtype=np.float32)
        save_checkpoint(old, ckpt)
        size = (ckpt / "model.safetensors").stat().st_size
        (ckpt / "step_000010").mkdir()
        (ckpt / "metrics.jsonl").write_text("{}\n")
        with monkeypatch.context() as patch:
            if fail.startswith("write:"):
                room = int(fail.split(":")[1]) % size
                patch.setattr(encoder, "open",
                              lambda path, mode: _FullDisk(path, mode, room), raising=False)
            else:
                patch.setattr(os, fail, _raise_disk_full)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(new, ckpt)
        _assert_bit_identical(load_checkpoint(ckpt), old)
        save_checkpoint(new, ckpt)
        _assert_bit_identical(load_checkpoint(ckpt), new)
        save_checkpoint(old, ckpt)
        _assert_bit_identical(load_checkpoint(ckpt), old)
        assert sorted(p.name for p in ckpt.iterdir()) == [
            "metrics.jsonl", "model.safetensors", "step_000010"]


class _FullDisk(io.FileIO):
    """A file that takes ``room`` bytes and then fails, as a full disk does."""

    def __init__(self, path, mode, room):
        super().__init__(path, mode)
        self.room = room

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) > self.room:
            super().write(data[:self.room])
            raise OSError(errno.ENOSPC, "disk full")
        self.room -= len(data)
        return super().write(data)


def _raise_disk_full(*args):
    raise OSError(errno.ENOSPC, "disk full")


def _assert_bit_identical(loaded, params):
    assert loaded.config == params.config and set(loaded.tensors) == set(params.tensors)
    for name, arr in params.tensors.items():
        assert loaded.tensors[name].tobytes() == arr.tobytes(), name


class TestFusedNodesMatchComposedChain:
    """``linear`` and ``attention`` change no bits: the forward pass, the
    loss and every parameter gradient equal the
    composed chain of elementary ops at float32, for every variant."""

    @staticmethod
    def _batch(world, config, rows):
        examples = mixed_examples(world, rows)
        return build_batch(examples, world.vocab, config, rng=np.random.default_rng(4),
                           word_mask_rate=0.3, entity_mask_rate=0.6)

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    @pytest.mark.parametrize("rows", [1, 8])
    def test_hidden_states(self, small_world, tiny_configs, variant, rows):
        cfg = tiny_configs[variant]
        params = init_params(cfg, seed=7)
        batch = self._batch(small_world, cfg, rows)
        args = (cfg, batch.input_ids, batch.segment_ids, batch.pad_mask)
        fused = encode_tensors(wrap_tensors(params), *args)
        chain = encode_tensors_composed(wrap_tensors(params), *args)
        assert fused.data.dtype == np.float32
        np.testing.assert_array_equal(fused.data, chain.data)

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    @pytest.mark.parametrize("rows", [1, 8])
    def test_loss_and_every_gradient(self, small_world, tiny_configs, monkeypatch,
                                     variant, rows):
        cfg = tiny_configs[variant]
        params = init_params(cfg, seed=7)
        batch = self._batch(small_world, cfg, rows)
        train = TrainingConfig(score_scale=16.0, loss_mix=0.7)
        fused = pretrain_loss(batch, params, train)
        monkeypatch.setattr(objectives, "encode_tensors", encode_tensors_composed)
        monkeypatch.setattr(objectives, "mlm_head_tensors", mlm_head_composed)
        monkeypatch.setattr(objectives, "hybrid_head_tensors", hybrid_head_composed)
        chain = pretrain_loss(batch, params, train)
        assert fused.value == chain.value
        assert set(fused.grads) == set(params.tensors)
        for name, grad in fused.grads.items():
            assert grad.dtype == np.float32, name
            np.testing.assert_array_equal(grad, chain.grads[name], err_msg=name)


class TestGradientOwnership:
    """Gradients are handed over without copies, yet no two share memory."""

    @staticmethod
    def _graph(variant, config, batch):
        graph = getattr(objectives, f"{variant}_graph")
        train = TrainingConfig(score_scale=16.0, loss_mix=0.7)
        return lambda pt: graph(pt, config, batch, train)[0]

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    def test_no_returned_gradient_shares_memory(self, small_world, tiny_configs, variant):
        cfg = tiny_configs[variant]
        params = init_params(cfg, seed=7)
        batch = TestFusedNodesMatchComposedChain._batch(small_world, cfg, 8)
        _, grads = value_and_grads(self._graph(variant, cfg, batch), params.tensors)
        names = sorted(grads)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.shares_memory(grads[a], grads[b]), (a, b)
            for p in names:
                assert not np.shares_memory(grads[a], params.tensors[p]), (a, p)

    @pytest.mark.parametrize("variant", ["dual", "full", "hybrid"])
    def test_no_two_nodes_share_a_gradient(self, small_world, tiny_configs, variant):
        cfg = tiny_configs[variant]
        batch = TestFusedNodesMatchComposedChain._batch(small_world, cfg, 8)
        params = init_params(cfg, seed=7)
        leaves = {k: autodiff.parameter(v) for k, v in params.tensors.items()}
        loss = self._graph(variant, cfg, batch)(leaves)
        loss.backward()
        nodes, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        grads = [n.grad for n in nodes if n.grad is not None]
        assert len(grads) > 50
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1:])
