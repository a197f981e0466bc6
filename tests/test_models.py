import dataclasses

import numpy as np
import pytest

from partialfed.core import Batch, ParamBlock, check_gradients
from partialfed.errors import DataError, MetricUndefinedError
from partialfed.models import (
    EOS_ID,
    MatFacConfig,
    NUM_SPECIAL,
    NwpConfig,
    OOV_ID,
    TokenCodec,
    matfac_spec,
    oov_nwp_spec,
    rating_accuracy,
    rmse,
)
from oracles import fd_gradient


def mf_batch(items, ratings):
    items = np.asarray(items, dtype=np.int64)
    return Batch(items, np.asarray(ratings, dtype=float), np.ones(len(items)))


class TestRatingMetrics:
    def test_rmse_perfect(self):
        assert rmse([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_rmse_single_error(self):
        assert rmse([0.0], [2.0]) == 2.0

    def test_rmse_mean_of_squares(self):
        assert rmse([1.0, 3.0], [2.0, 2.0]) == pytest.approx(1.0)

    def test_rmse_empty_rejected(self):
        with pytest.raises(MetricUndefinedError):
            rmse([], [])

    def test_accuracy_rounds_to_target(self):
        assert rating_accuracy([2.4], [2]) == 1.0

    def test_accuracy_half_away_from_zero(self):
        assert rating_accuracy([2.5], [3]) == 1.0

    def test_accuracy_out_of_range_prediction(self):
        # Raw rounding: a wild prediction earns no credit unless clamped.
        assert rating_accuracy([7.0], [5]) == 0.0
        assert rating_accuracy([7.0], [5], clamp=True) == 1.0

    def test_untrained_predictions_near_zero_score_zero(self):
        preds = np.array([0.02, -0.1, 0.3])
        assert rating_accuracy(preds, [1, 1, 1]) == 0.0

    def test_accuracy_validates_targets(self):
        with pytest.raises(DataError):
            rating_accuracy([1.0], [0])
        with pytest.raises(DataError):
            rating_accuracy([1.0], [3.5])

    def test_accuracy_empty_rejected(self):
        with pytest.raises(MetricUndefinedError):
            rating_accuracy([], [])


class TestMatFacSpec:
    def test_exact_fit_example(self):
        spec = matfac_spec(MatFacConfig(num_items=2, embed_dim=2))
        g = [dataclasses.replace(spec.init_global(np.random.default_rng(0))[0])]
        g[0].values[:] = np.array([9.0, 9.0, 2.0, 3.0])  # row 1 = [2, 3]
        l = spec.init_local(np.random.default_rng(0))
        l[0].values[:] = np.array([1.0, 0.0])
        batch = mf_batch([1], [2.0])
        stats = spec.metrics(g, l, batch)
        assert stats["mse"].value == 0.0 and stats["accuracy"].value == 1.0
        assert spec.loss(g, l, batch) == 0.0

    def test_zero_embedding_predicts_zero(self):
        spec = matfac_spec(MatFacConfig(num_items=3, embed_dim=2))
        g = spec.init_global(np.random.default_rng(1))
        l = spec.init_local(np.random.default_rng(1))
        l[0].values[:] = 0.0
        batch = mf_batch([0, 1, 2], [1.0, 3.0, 5.0])
        stats = spec.metrics(g, l, batch)
        assert stats["mse"].value == pytest.approx(np.mean(batch.targets**2), rel=1e-15)
        assert stats["accuracy"].value == 0.0

    def test_owner_axis_metrics_are_each_owners_flat_metrics(self, mf_toy):
        # Two owners padded to width 4: masked entries (a copy of the owner's
        # first example, and an out-of-range rating) neither weigh nor score.
        spec, g, _, _ = mf_toy
        stacked = [ParamBlock("user_embedding", np.random.default_rng(3).normal(size=(2, 3)),
                              (2, 3))]
        rows = [([0, 2, 5, 1], [4.0, 1.0, 3.0, 2.0], [0.5, 1.5, 1.0, 2.0]),
                ([3, 4], [5.0, 2.0], [1.0, 0.0])]
        mask = np.array([[True] * 4, [True, True, False, False]])
        batch = Batch(
            features=np.array([rows[0][0], rows[1][0] + [3, 3]]),
            targets=np.array([rows[0][1], rows[1][1] + [4.0, 0.0]]),
            weights=np.array([rows[0][2], rows[1][2] + [0.0, 0.0]]),
            mask=mask,
        )
        got = spec.metrics(g, stacked, batch)
        for o, (items, targets, weights) in enumerate(rows):
            local = [ParamBlock("user_embedding", stacked[0].array[o], (3,))]
            flat = Batch(np.array(items), np.array(targets), np.array(weights))
            want = spec.metrics(g, local, flat)
            assert set(got[o]) == set(want)
            for k, m in want.items():
                assert got[o][k].value == pytest.approx(m.value, rel=1e-12)
                assert got[o][k].weight == m.weight
        assert got[1]["accuracy"].weight == 2.0

    def test_gradients_match_finite_differences(self, mf_toy):
        spec, g, l, clients = mf_toy
        # The last batch rates item 1 twice: its global-gradient rows add up.
        batches = [c.batch() for c in clients[:2]] + [mf_batch([1, 4, 1], [3.0, 2.0, 5.0])]
        for batch in batches:
            report = check_gradients(spec, g, l, batch, eps=1e-5)
            assert report.max_rel_err < 1e-4

    def test_item_id_out_of_range(self):
        spec = matfac_spec(MatFacConfig(num_items=2, embed_dim=2))
        g = spec.init_global(np.random.default_rng(0))
        l = spec.init_local(np.random.default_rng(0))
        with pytest.raises(DataError):
            spec.loss(g, l, mf_batch([2], [3.0]))

    def test_global_gradient_touches_only_rated_rows(self):
        spec = matfac_spec(MatFacConfig(num_items=5, embed_dim=2))
        g = spec.init_global(np.random.default_rng(2))
        l = spec.init_local(np.random.default_rng(2))
        grad = spec.grad_global(g, l, mf_batch([3], [4.0]))[0].reshape(5, 2)
        untouched = np.delete(np.arange(5), 3)
        assert np.all(grad[untouched] == 0.0)
        assert np.any(grad[3] != 0.0)

    def test_loss_scale_independent_of_batch_size(self):
        spec = matfac_spec(MatFacConfig(num_items=2, embed_dim=2))
        g = spec.init_global(np.random.default_rng(3))
        l = spec.init_local(np.random.default_rng(3))
        one = spec.loss(g, l, mf_batch([0], [4.0]))
        repeated = spec.loss(g, l, mf_batch([0, 0, 0], [4.0, 4.0, 4.0]))
        assert one == pytest.approx(repeated)

    def test_full_batch_descent_on_either_block(self):
        # Small full-batch steps on one factor alone never increase the loss.
        rng = np.random.default_rng(4)
        spec = matfac_spec(MatFacConfig(num_items=8, embed_dim=3))
        for trial in range(10):
            g = spec.init_global(rng)
            l = spec.init_local(rng)
            items = rng.choice(8, size=6, replace=False)
            batch = mf_batch(items, rng.integers(1, 6, size=6).astype(float))
            base = spec.loss(g, l, batch)
            from partialfed.core import axpy_blocks

            stepped_l = axpy_blocks(l, -1e-3, spec.grad_local(g, l, batch))
            stepped_g = axpy_blocks(g, -1e-3, spec.grad_global(g, l, batch))
            assert spec.loss(g, stepped_l, batch) <= base + 1e-12
            assert spec.loss(stepped_g, l, batch) <= base + 1e-12


class TestTokenCodec:
    def make(self, buckets):
        cfg = NwpConfig(vocab_size=3, num_oov_buckets=buckets, embed_dim=2, context_window=2)
        return cfg, TokenCodec(cfg, ["the", "cat", "sat"])

    def test_known_tokens_get_global_rows(self):
        _, codec = self.make(4)
        assert codec.context_id("the") == NUM_SPECIAL
        assert codec.context_id("sat") == NUM_SPECIAL + 2
        assert codec.target_id("cat") == NUM_SPECIAL + 1

    def test_oov_maps_to_bucket(self):
        _, codec = self.make(4)
        cid = codec.context_id("zebra")
        assert cid < 0 and -cid - 1 in range(4)
        assert codec.target_id("zebra") == OOV_ID

    def test_zero_buckets_fall_back_to_global_oov_row(self):
        _, codec = self.make(0)
        assert codec.context_id("zebra") == OOV_ID

    def test_single_bucket_collides_everything(self):
        _, codec = self.make(1)
        assert codec.context_id("zebra") == -1
        assert codec.context_id("yak") == -1

    def test_hashing_is_deterministic(self):
        _, a = self.make(500)
        _, b = self.make(500)
        for tok in ("zebra", "yak", "qux"):
            assert a.context_id(tok) == b.context_id(tok)


class TestNwpSpec:
    def test_uniform_logits_loss_is_log_num_classes(self):
        cfg = NwpConfig(vocab_size=4, num_oov_buckets=2, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(0)
        g = spec.init_global(rng)
        l = spec.init_local(rng)
        for b in g + l:
            b.values[:] = 0.0
        batch = Batch(np.array([[4, 5], [-1, 6]]), np.array([4.0, 5.0]), np.ones(2))
        assert spec.loss(g, l, batch) == pytest.approx(np.log(cfg.num_classes))

    def test_loss_nonnegative(self, nwp_toy):
        spec, cfg, g, l, batch = nwp_toy
        assert spec.loss(g, l, batch) >= 0.0

    def test_gradients_match_finite_differences(self, nwp_toy):
        spec, cfg, g, l, batch = nwp_toy
        report = check_gradients(spec, g, l, batch, eps=1e-5)
        assert report.max_rel_err < 1e-4

    def test_in_vocab_contexts_leave_local_grads_zero(self):
        cfg = NwpConfig(vocab_size=4, num_oov_buckets=2, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(1)
        g, l = spec.init_global(rng), spec.init_local(rng)
        batch = Batch(np.array([[4, 5], [6, 7]]), np.array([4.0, 5.0]), np.ones(2))
        assert np.all(spec.grad_local(g, l, batch)[0] == 0.0)

    def test_colliding_oov_tokens_share_a_row(self):
        cfg = NwpConfig(vocab_size=2, num_oov_buckets=1, embed_dim=3, context_window=2)
        codec = TokenCodec(cfg, ["a", "b"])
        assert codec.context_id("first-slang") == codec.context_id("other-slang") == -1

    def test_zero_buckets_mean_no_local_blocks(self):
        cfg = NwpConfig(vocab_size=4, num_oov_buckets=0, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        assert spec.init_local(np.random.default_rng(0)) == []
        g = spec.init_global(np.random.default_rng(0))
        batch = Batch(np.array([[4, 3]]), np.array([5.0]), np.ones(1))
        assert np.isfinite(spec.loss(g, [], batch))
        assert spec.grad_local(g, [], batch) == []

    def test_accuracy_ignores_special_targets(self):
        cfg = NwpConfig(vocab_size=4, num_oov_buckets=2, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(2)
        g, l = spec.init_global(rng), spec.init_local(rng)
        batch = Batch(
            np.array([[4, 5], [4, 5], [4, 5]]),
            np.array([float(EOS_ID), float(OOV_ID), 6.0]),
            np.ones(3),
        )
        stats = spec.metrics(g, l, batch)
        assert stats["accuracy"].weight == 1.0  # only the real-token target scores

    def test_oov_reconstruction_first_step_descends(self):
        # With the global side fixed, a small step on the bucket rows never
        # increases the loss on the same batch.
        cfg = NwpConfig(vocab_size=4, num_oov_buckets=3, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(3)
        from partialfed.core import axpy_blocks

        for trial in range(10):
            g, l = spec.init_global(rng), spec.init_local(rng)
            ctx = rng.integers(-cfg.num_oov_buckets, cfg.num_global_rows, size=(5, 2))
            ctx[0, 0] = -1  # ensure the local table participates
            batch = Batch(ctx, rng.integers(0, cfg.num_classes, 5).astype(float), np.ones(5))
            base = spec.loss(g, l, batch)
            stepped = axpy_blocks(l, -1e-2, spec.grad_local(g, l, batch))
            assert spec.loss(g, stepped, batch) <= base + 1e-12


class TestNwpOwnerAxes:
    """Two owners stacked: each owner's slice of an owner-axis call is what
    a flat call on its own examples, locals and output layer returns."""

    def make(self):
        cfg = NwpConfig(vocab_size=4, num_oov_buckets=3, embed_dim=2, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(5)
        g = spec.init_global(rng)
        locals_ = [spec.init_local(rng) for _ in range(2)]
        stacked = [ParamBlock("oov_embeddings", np.stack([l[0].array for l in locals_]),
                              (2, 3, 2))]
        # Owner 1's second example is padding: a masked copy of its first.
        ctx = np.array([[[4, -1], [-3, 6]], [[-2, -2], [-2, -2]]])
        targets = np.array([[5.0, 2.0], [7.0, 7.0]])
        weights = np.array([[0.5, 1.5], [2.0, 0.0]])
        mask = np.array([[True, True], [True, False]])
        return spec, g, locals_, stacked, Batch(ctx, targets, weights, mask)

    def test_metrics(self):
        spec, g, locals_, stacked, batch = self.make()
        got = spec.metrics(g, stacked, batch)
        for o, real in enumerate(batch.mask):
            flat = Batch(batch.features[o][real], batch.targets[o][real], batch.weights[o][real])
            want = spec.metrics(g, locals_[o], flat)
            assert set(got[o]) == set(want)
            for k, m in want.items():
                assert got[o][k].value == pytest.approx(m.value, rel=1e-12)
                assert got[o][k].weight == m.weight

    def test_grads(self):
        # Each owner steps its own copy of the dense output layer.
        spec, g, locals_, stacked, batch = self.make()
        per_owner = [g[0]] + [
            ParamBlock(b.name, np.stack([b.array, 2.0 * b.array]), (2,) + b.shape) for b in g[1:]
        ]
        norm = batch.weights.sum(axis=-1, keepdims=True)
        glob, local = spec.sparse_grads(per_owner, stacked, batch, norm, True, True)
        flat_grads = []
        for o in range(2):
            mine = [g[0]] + [ParamBlock(b.name, b.array[o], b.shape[1:]) for b in per_owner[1:]]
            flat = Batch(batch.features[o], batch.targets[o], batch.weights[o])
            flat_grads.append(spec.sparse_grads(mine, locals_[o], flat, norm[o, 0], True, True))
        (emb, w_out, bias), (oov,) = glob, local
        assert np.array_equal(emb.rows, np.concatenate([f[0][0].rows for f in flat_grads]))
        # Owner o's bucket b is row 3 o + b of the stacked table.
        assert np.array_equal(
            oov.rows, np.concatenate([3 * o + f[1][0].rows for o, f in enumerate(flat_grads)])
        )
        for got, want in ((emb.values, [f[0][0].values for f in flat_grads]),
                          (oov.values, [f[1][0].values for f in flat_grads]),
                          (w_out, [f[0][1] for f in flat_grads]),
                          (bias, [f[0][2] for f in flat_grads])):
            np.testing.assert_allclose(got.ravel(), np.concatenate(want).ravel(), rtol=1e-12)

    def test_bucket_outside_the_owner_rows_rejected(self):
        # Bucket 3 of a 3-bucket table would address the next owner's row 0.
        spec, g, _, stacked, batch = self.make()
        bad = Batch(np.where(batch.features == -3, -4, batch.features), batch.targets,
                    batch.weights)
        with pytest.raises(DataError, match="bucket outside"):
            spec.sparse_grads(g, stacked, bad, np.ones((2, 1)), False, True)

    def test_shared_output_layer_grads_sum_over_owners(self):
        # Passed without the owner axes, the output layer is one layer for
        # every owner: its grads are the sum of each owner's flat call.
        spec, g, locals_, stacked, batch = self.make()
        norm = batch.weights.sum()
        (_, w_out, bias), _ = spec.sparse_grads(g, stacked, batch, norm, True, True)
        flat_grads = [
            spec.sparse_grads(
                g, locals_[o],
                Batch(batch.features[o], batch.targets[o], batch.weights[o]), norm, True, False,
            )[0]
            for o in range(2)
        ]
        for got, k in ((w_out, 1), (bias, 2)):
            want = sum(f[k] for f in flat_grads)
            assert got.shape == want.shape == (g[k].values.size,)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_owner_tiled_output_layer_keeps_a_grad_per_owner(self):
        spec, g, _, stacked, batch = self.make()
        norm = batch.weights.sum(axis=-1, keepdims=True)
        tiled = [g[0]] + [
            ParamBlock(b.name, np.tile(b.values, 2), (2,) + b.shape) for b in g[1:]
        ]
        (_, w_out, bias), _ = spec.sparse_grads(tiled, stacked, batch, norm, True, True)
        assert (w_out.size, bias.size) == (2 * g[1].values.size, 2 * g[2].values.size)


class TestFdOracleAgreement:
    def test_mf_analytic_equals_fd_oracle(self, mf_toy):
        spec, g, l, clients = mf_toy
        batch = clients[0].batch()
        fd_g = fd_gradient(lambda probe: spec.loss(probe, l, batch), g)
        fd_l = fd_gradient(lambda probe: spec.loss(g, probe, batch), l)
        np.testing.assert_allclose(spec.grad_global(g, l, batch)[0], fd_g[0], atol=1e-6)
        np.testing.assert_allclose(spec.grad_local(g, l, batch)[0], fd_l[0], atol=1e-6)


def test_zero_total_weight_batch_rejected():
    from partialfed.errors import DataError

    spec = matfac_spec(MatFacConfig(num_items=2, embed_dim=2))
    g = spec.init_global(np.random.default_rng(0))
    l = spec.init_local(np.random.default_rng(0))
    batch = Batch(np.array([0]), np.array([3.0]), np.zeros(1))
    with pytest.raises(DataError):
        spec.loss(g, l, batch)
