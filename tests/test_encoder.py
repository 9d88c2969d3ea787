"""Encoder forward-pass contracts, heads, and checkpoint round trips."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from textent import autodiff, objectives
from textent.encoder import (ENTITY_POSITION, ModelConfig, encode, encode_rows,
                             encode_tensors, entity_matrix, entity_row,
                             expected_shapes, hybrid_head_tensors, init_params,
                             load_checkpoint, mlm_logits, save_checkpoint,
                             wrap_tensors)
from textent.errors import DataError
from textent.numerics import grad_check, value_and_grads
from textent.objectives import TrainingConfig, build_batch, pretrain_loss

from conftest import (encode_tensors_composed, hybrid_head_composed,
                      hybrid_mlm_logits_ref, mixed_examples, mlm_head_composed,
                      mlm_logits_ref, softmax)

TOY = dict(layers=2, heads=2, hidden=16, ffn_hidden=32, max_seq_len=16,
           vocab_size=40, entity_count=4, entity_dim=16)


def toy_params(variant="dual", seed=123, dtype=np.float64, **overrides):
    cfg = ModelConfig(**{**TOY, **overrides}, variant=variant)
    return init_params(cfg, seed=seed, dtype=dtype)


def hybrid_logits(hidden_rows, entity_vec, params):
    """The hybrid head on constants: concat(hidden row, entity vector) per row."""
    joined = np.concatenate([hidden_rows, np.tile(entity_vec, (len(hidden_rows), 1))],
                            axis=1)
    pt = wrap_tensors(params)
    return hybrid_head_tensors(pt, autodiff.constant(joined)).data


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
        hybrid = hybrid_logits(out.hidden_states[[1, 3]], np.zeros(cfg.entity_dim),
                               params)
        np.testing.assert_allclose(hybrid, plain, atol=1e-12)

    def test_entity_vector_gradient_matches_finite_difference(self):
        params = toy_params("hybrid")
        cfg = params.config
        out = encode([1, 5, 6, 2], [0] * 4, params)
        h_row = out.hidden_states[1]
        probe = np.random.default_rng(2).normal(size=cfg.vocab_size)

        def fn(pt):
            joined = autodiff.concat(
                [autodiff.constant(h_row.reshape(1, -1)), pt["vec"]], axis=-1)
            logits = hybrid_head_tensors(wrap_tensors(params), joined)
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
        assert {"mlm_dense_w", "mlm_out_b"} <= full
        assert not {"cls_w", "cls_b"} & (dual | full | hybrid)
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
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        del manifest["tensors"]["entity_table"]
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="entity_table"):
            load_checkpoint(tmp_path / "ckpt")

    def test_shape_mismatch_rejected(self, tmp_path):
        params = toy_params("dual")
        save_checkpoint(params, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        manifest["tensors"]["entity_table"]["shape"] = [2, 2]
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="shape"):
            load_checkpoint(tmp_path / "ckpt")

    def test_version_1_full_checkpoint_loads_without_classifier_head(
            self, v1_full_checkpoint, tmp_path):
        directory, params = v1_full_checkpoint
        loaded = load_checkpoint(directory)
        assert loaded.config == params.config
        assert set(loaded.tensors) == set(params.tensors)
        for name, arr in params.tensors.items():
            assert loaded.tensors[name].tobytes() == arr.tobytes(), name
        save_checkpoint(loaded, tmp_path / "v2")
        manifest = json.loads((tmp_path / "v2" / "manifest.json").read_text())
        assert manifest["version"] == 2 and "cls_w" not in manifest["tensors"]

    def test_version_2_manifest_with_classifier_head_rejected(self, v1_full_checkpoint):
        directory, _ = v1_full_checkpoint
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["version"] = 2
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=r"unexpected \['cls_b', 'cls_w'\]"):
            load_checkpoint(directory)


@pytest.fixture
def v1_full_checkpoint(tmp_path):
    """A full checkpoint as format version 1 wrote it, classifier head included;
    returns its directory and the parameters it holds besides that head."""
    params = toy_params("full", dtype=np.float32)
    hidden = params.config.hidden
    tensors = {**params.tensors,
               "cls_w": np.full((hidden, 1), 0.25, dtype=np.float32),
               "cls_b": np.zeros(1, dtype=np.float32)}
    directory = tmp_path / "v1"
    (directory / "tensors").mkdir(parents=True)
    manifest = {"format": "textent-checkpoint", "version": 1,
                "config": asdict(params.config), "dtype": "<f4", "tensors": {}}
    for name, arr in sorted(tensors.items()):
        fname = f"tensors/{name}.bin"
        arr.astype("<f4").tofile(directory / fname)
        manifest["tensors"][name] = {"file": fname, "shape": list(arr.shape)}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return directory, params


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
