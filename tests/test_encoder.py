"""Encoder forward-pass contracts, heads, and checkpoint round trips."""

import numpy as np
import pytest

from textent.encoder import (ENTITY_POSITION, ModelConfig,
                             compatibility, cosine, embed_entity, encode,
                             encode_rows, entity_matrix, entity_row,
                             expected_shapes, hybrid_mlm_logits, init_params,
                             load_checkpoint, mlm_logits, save_checkpoint,
                             sentence_row)
from textent.errors import DataError, NumericError
from textent.numerics import softmax

from conftest import hybrid_mlm_logits_ref, mlm_logits_ref

TOY = dict(layers=2, heads=2, hidden=16, ffn_hidden=32, max_seq_len=16,
           vocab_size=40, entity_count=4, entity_dim=16)


def toy_params(variant="dual", seed=123, dtype=np.float64, **overrides):
    cfg = ModelConfig(**{**TOY, **overrides}, variant=variant)
    return init_params(cfg, seed=seed, dtype=dtype)


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

    def test_attention_rows_stochastic(self):
        params = toy_params()
        out = encode([1, 5, 6, 7, 8, 2], [0] * 6, params, collect_attention=True)
        assert len(out.attention) == params.config.layers
        for layer in out.attention:
            assert layer.shape == (2, 6, 6)
            np.testing.assert_allclose(layer.sum(axis=-1), 1.0, atol=1e-6)

    def test_id_out_of_range_names_position(self):
        params = toy_params()
        with pytest.raises(DataError, match="position 2"):
            encode([1, 5, 99, 2], [0] * 4, params)

    def test_length_mismatch(self):
        params = toy_params()
        with pytest.raises(DataError):
            encode([1, 5], [0], params)

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


class TestEntityEmbeddings:
    def test_row_access(self):
        params = toy_params()
        np.testing.assert_array_equal(embed_entity(0, params),
                                      params.tensors["entity_table"][0])

    def test_distinct_rows_after_init(self):
        params = toy_params()
        table = entity_matrix(params)
        for i in range(len(table)):
            for j in range(i + 1, len(table)):
                assert not np.array_equal(table[i], table[j])

    def test_out_of_range(self):
        params = toy_params()
        with pytest.raises(DataError):
            embed_entity(11, params)

    def test_full_variant_rows_live_in_token_embedding(self):
        params = toy_params("full")
        cfg = params.config
        np.testing.assert_array_equal(
            embed_entity(1, params),
            params.tensors["token_emb"][cfg.word_vocab_size + 1])


class TestCompatibility:
    def test_identical_vectors_give_one(self):
        params = toy_params()
        tokens = [5, 6, 7]
        row, segs = sentence_row(tokens, params.config)
        cls = encode(row, segs, params).cls_vector
        params.tensors["entity_table"][0] = cls
        assert abs(compatibility(0, tokens, params) - 1.0) < 1e-12

    def test_opposite_vectors_give_minus_one(self):
        params = toy_params()
        tokens = [5, 6, 7]
        row, segs = sentence_row(tokens, params.config)
        cls = encode(row, segs, params).cls_vector
        params.tensors["entity_table"][0] = -cls
        assert abs(compatibility(0, tokens, params) + 1.0) < 1e-12

    def test_scale_invariance(self):
        params = toy_params()
        tokens = [5, 6, 7]
        before = compatibility(2, tokens, params)
        params.tensors["entity_table"][2] *= 7.0
        after = compatibility(2, tokens, params)
        assert abs(before - after) < 1e-12

    def test_zero_norm_guarded(self):
        with pytest.raises(NumericError, match="zero-norm"):
            cosine(np.zeros(4), np.ones(4))


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
            assert abs(softmax(row).sum() - 1.0) < 1e-6

    def test_position_bounds(self):
        params = toy_params("full")
        out = encode([1, 5, 2], [0] * 3, params)
        with pytest.raises(DataError):
            mlm_logits(out.hidden_states, [3], params)

    def test_dual_variant_has_no_tied_head(self):
        params = toy_params("dual")
        out = encode([1, 5, 2], [0] * 3, params)
        with pytest.raises(DataError):
            mlm_logits(out.hidden_states, [1], params)


class TestHybridHead:
    def test_transform_width_is_hidden_plus_entity_dim(self):
        params = toy_params("hybrid")
        cfg = params.config
        assert params.tensors["hyb_dense_w"].shape == (cfg.hidden + cfg.entity_dim,
                                                       cfg.hidden)
        assert params.tensors["hyb_out_w"].shape == (cfg.hidden, cfg.vocab_size)

    def test_zeroed_entity_half_matches_plain_head(self):
        params = toy_params("hybrid")
        cfg = params.config
        t = params.tensors
        # share remaining weights with the tied head, zero the entity half
        t["hyb_dense_w"][: cfg.hidden] = t["mlm_dense_w"]
        t["hyb_dense_w"][cfg.hidden:] = 0.0
        t["hyb_dense_b"][:] = t["mlm_dense_b"]
        t["hyb_ln_g"][:] = t["mlm_ln_g"]
        t["hyb_ln_b"][:] = t["mlm_ln_b"]
        t["hyb_out_w"][:] = t["token_emb"].T
        t["hyb_out_b"][:] = t["mlm_out_b"]
        out = encode([1, 5, 6, 7, 2], [0] * 5, params)
        plain = mlm_logits(out.hidden_states, [1, 3], params)
        hybrid = hybrid_mlm_logits(out.hidden_states, np.zeros(cfg.entity_dim),
                                   [1, 3], params)
        np.testing.assert_allclose(hybrid, plain, atol=1e-12)

    def test_entity_vector_gradient_matches_finite_difference(self):
        from textent.numerics import grad_check
        from textent import autodiff
        from textent.encoder import hybrid_head_tensors

        params = toy_params("hybrid")
        cfg = params.config
        out = encode([1, 5, 6, 2], [0] * 4, params)
        h_row = out.hidden_states[1]
        probe = np.random.default_rng(2).normal(size=cfg.vocab_size)

        def fn(pt):
            joined = autodiff.concat(
                [autodiff.constant(h_row.reshape(1, -1)), pt["vec"]], axis=-1)
            head_pt = {k: autodiff.constant(v) for k, v in params.tensors.items()}
            logits = hybrid_head_tensors(head_pt, joined)
            return (logits * autodiff.constant(probe)).sum()

        vec = {"vec": embed_entity(0, params).reshape(1, -1).astype(np.float64)}
        err = grad_check(fn, vec, samples=16, h=1e-6,
                         rng=np.random.default_rng(0))
        assert err < 1e-4
        # and the dependence is real: some direction moves the logits
        base = hybrid_mlm_logits(out.hidden_states, vec["vec"][0], [1], params)
        moved = hybrid_mlm_logits(out.hidden_states, vec["vec"][0] + 1e-3, [1],
                                  params)
        assert np.abs(moved - base).max() > 0

    def test_dim_mismatch(self):
        params = toy_params("hybrid")
        out = encode([1, 5, 2], [0] * 3, params)
        with pytest.raises(DataError, match="shape"):
            hybrid_mlm_logits(out.hidden_states, np.zeros(3), [1], params)


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
        got = hybrid_mlm_logits(hidden, ent, [1, 4], params)
        want = hybrid_mlm_logits_ref(hidden[[1, 4]], ent, params.tensors)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestConfig:
    def test_hidden_divisible_by_heads(self):
        with pytest.raises(DataError):
            ModelConfig(**{**TOY, "heads": 3}, variant="dual").validate()

    def test_full_requires_entity_dim_equal_hidden(self):
        with pytest.raises(DataError):
            ModelConfig(**{**TOY, "entity_dim": 8}, variant="full").validate()

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
        assert {"cls_w", "cls_b", "mlm_dense_w", "mlm_out_b"} <= full
        assert {"hyb_dense_w", "hyb_out_w", "mlm_out_b", "entity_table"} <= hybrid


class TestCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        params = toy_params("hybrid", dtype=np.float32)
        save_checkpoint(params, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == params.config
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])

    def test_float64_round_trip(self, tmp_path):
        params = toy_params("dual", dtype=np.float64)
        save_checkpoint(params, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])

    def test_missing_tensor_rejected(self, tmp_path):
        params = toy_params("dual")
        save_checkpoint(params, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "tensors" / "entity_table.bin").unlink()
        import json
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        del manifest["tensors"]["entity_table"]
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="entity_table"):
            load_checkpoint(tmp_path / "ckpt")

    def test_shape_mismatch_rejected(self, tmp_path):
        params = toy_params("dual")
        save_checkpoint(params, tmp_path / "ckpt")
        import json
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        manifest["tensors"]["entity_table"]["shape"] = [2, 2]
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="shape"):
            load_checkpoint(tmp_path / "ckpt")
