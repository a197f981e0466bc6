import dataclasses

import numpy as np
import pytest

from partialfed.core import Batch, ParamBlock, check_gradients
from partialfed.errors import DataError
from partialfed.models import (
    EOS_ID,
    ModelConfig,
    NUM_SPECIAL,
    OOV_ID,
    SPECIAL_TOKENS,
    TokenCodec,
    _nwp_forward,
    _softmax_grad,
    matfac_spec,
    oov_nwp_spec,
)
from oracles import fd_gradient


def mf_batch(items, ratings):
    items = np.asarray(items, dtype=np.int64)
    return Batch(items, np.asarray(ratings, dtype=float), np.ones(len(items)))


def padded(rows, width):
    """Owners' ``(features, targets, weights)`` as one owner-axis batch
    ``width`` examples wide, each row padded with zero-weight copies of its
    owner's first example."""
    features, targets, weights = (
        np.stack([np.concatenate([c, np.repeat(c[:1], width - len(c), axis=0)]) for c in col])
        for col in zip(*rows)
    )
    weights[np.arange(width) >= np.array([[len(r[1])] for r in rows])] = 0.0
    return Batch(features, targets, weights)


class TestMatFacSpec:
    def test_exact_fit_example(self):
        spec = matfac_spec(ModelConfig(embed_dim=2), 2)
        g = [dataclasses.replace(spec.init_global(np.random.default_rng(0))[0])]
        g[0].values[:] = np.array([9.0, 9.0, 2.0, 3.0])  # row 1 = [2, 3]
        l = spec.init_local(np.random.default_rng(0))
        l[0].values[:] = np.array([1.0, 0.0])
        batch = mf_batch([1], [2.0])
        stats = spec.metrics(g, l, batch)
        assert stats["mse"].value == 0.0 and stats["accuracy"].value == 1.0
        assert spec.loss(g, l, batch) == 0.0

    def test_zero_embedding_predicts_zero(self):
        spec = matfac_spec(ModelConfig(embed_dim=2), 3)
        g = spec.init_global(np.random.default_rng(1))
        l = spec.init_local(np.random.default_rng(1))
        l[0].values[:] = 0.0
        batch = mf_batch([0, 1, 2], [1.0, 3.0, 5.0])
        stats = spec.metrics(g, l, batch)
        assert stats["mse"].value == pytest.approx(np.mean(batch.targets**2), rel=1e-15)
        assert stats["accuracy"].value == 0.0

    @staticmethod
    def predicting(values):
        """A model whose prediction for item ``i`` is ``values[i]``."""
        spec = matfac_spec(ModelConfig(embed_dim=2), len(values))
        g = [ParamBlock.of("item_embeddings", np.stack([values, np.zeros(len(values))], 1))]
        return spec, g, [ParamBlock.of("user_embedding", np.array([1.0, 0.0]))]

    @pytest.mark.parametrize(
        "prediction, target, hit",
        [
            (2.4, 2.0, 1.0),
            (2.5, 3.0, 1.0),  # half rounds away from zero
            (7.0, 5.0, 0.0),  # raw rounding: no credit outside the rating range
            (0.02, 1.0, 0.0),  # an untrained model's near-zero predictions score 0
            (-0.1, 1.0, 0.0),
            (0.3, 1.0, 0.0),
        ],
    )
    def test_accuracy_rounds_raw_predictions(self, prediction, target, hit):
        spec, g, l = self.predicting([prediction])
        assert spec.metrics(g, l, mf_batch([0], [target]))["accuracy"].value == hit

    @pytest.mark.parametrize("target", [0.0, 3.5])
    def test_targets_outside_the_rating_scale_are_data_errors(self, target):
        spec, g, l = self.predicting([1.0])
        with pytest.raises(DataError):
            spec.metrics(g, l, mf_batch([0], [target]))

    def test_owner_axis_metrics_are_each_owners_flat_metrics(self, mf_toy):
        # Owners of 11 and 3 examples padded to several widths: padding
        # (zero-weight copies of the owner's first example, one with an
        # out-of-range rating) neither weighs nor scores, and each owner's
        # entries are its flat call's bit for bit, whatever the width.
        spec, g, _, _ = mf_toy
        rng = np.random.default_rng(3)
        stacked = [ParamBlock("user_embedding", rng.normal(size=(2, 3)), (2, 3))]
        rows = [
            (rng.integers(0, 6, n), rng.integers(1, 6, n).astype(float), rng.uniform(0.25, 2, n))
            for n in (11, 3)
        ]
        for width in (11, 16, 29):
            batch = padded(rows, width)
            batch.targets[1, -1] = 0.0
            got = spec.metrics(g, stacked, batch)
            for o, (items, targets, weights) in enumerate(rows):
                local = [ParamBlock("user_embedding", stacked[0].array[o], (3,))]
                want = spec.metrics(g, local, Batch(items, targets, weights))
                assert set(got) == set(want)
                for k, m in want.items():
                    assert np.ndim(m.value) == np.ndim(m.weight) == 0
                    assert got[k].value.shape == got[k].weight.shape == (2,)
                    assert got[k].value[o] == m.value
                    assert got[k].weight[o] == m.weight
            assert got["accuracy"].weight[1] == 3.0

    def test_gradients_match_finite_differences(self, mf_toy):
        spec, g, l, clients = mf_toy
        # The last batch rates item 1 twice: its global-gradient rows add up.
        batches = [c.batch() for c in clients[:2]] + [mf_batch([1, 4, 1], [3.0, 2.0, 5.0])]
        for batch in batches:
            report = check_gradients(spec, g, l, batch, eps=1e-5)
            assert report.max_rel_err < 1e-4

    def test_item_id_out_of_range(self):
        spec = matfac_spec(ModelConfig(embed_dim=2), 2)
        g = spec.init_global(np.random.default_rng(0))
        l = spec.init_local(np.random.default_rng(0))
        with pytest.raises(DataError):
            spec.loss(g, l, mf_batch([2], [3.0]))

    def test_global_gradient_touches_only_rated_rows(self):
        spec = matfac_spec(ModelConfig(embed_dim=2), 5)
        g = spec.init_global(np.random.default_rng(2))
        l = spec.init_local(np.random.default_rng(2))
        grad = spec.grad_global(g, l, mf_batch([3], [4.0]))[0].reshape(5, 2)
        untouched = np.delete(np.arange(5), 3)
        assert np.all(grad[untouched] == 0.0)
        assert np.any(grad[3] != 0.0)

    def test_loss_scale_independent_of_batch_size(self):
        spec = matfac_spec(ModelConfig(embed_dim=2), 2)
        g = spec.init_global(np.random.default_rng(3))
        l = spec.init_local(np.random.default_rng(3))
        one = spec.loss(g, l, mf_batch([0], [4.0]))
        repeated = spec.loss(g, l, mf_batch([0, 0, 0], [4.0, 4.0, 4.0]))
        assert one == pytest.approx(repeated)

    def test_full_batch_descent_on_either_block(self):
        # Small full-batch steps on one factor alone never increase the loss.
        rng = np.random.default_rng(4)
        spec = matfac_spec(ModelConfig(embed_dim=3), 8)
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
        cfg = ModelConfig(vocab_size=3, num_oov_buckets=buckets, embed_dim=2, context_window=2)
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

    @pytest.mark.parametrize("buckets", [0, 4])
    def test_special_tokens_win_over_a_vocabulary_entry(self, buckets):
        cfg = ModelConfig(vocab_size=3, num_oov_buckets=buckets, embed_dim=2, context_window=2)
        codec = TokenCodec(cfg, ["<eos>", "cat", "<pad>"])
        for token, sid in zip(SPECIAL_TOKENS, range(NUM_SPECIAL)):
            assert codec.context_id(token) == codec.target_id(token) == sid
        assert codec.context_id("cat") == NUM_SPECIAL + 1

    def test_hashing_is_deterministic(self):
        _, a = self.make(500)
        _, b = self.make(500)
        for tok in ("zebra", "yak", "qux"):
            assert a.context_id(tok) == b.context_id(tok)


class TestNwpSpec:
    def test_uniform_logits_loss_is_log_num_classes(self):
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=2, embed_dim=3, context_window=2)
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
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=2, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(1)
        g, l = spec.init_global(rng), spec.init_local(rng)
        batch = Batch(np.array([[4, 5], [6, 7]]), np.array([4.0, 5.0]), np.ones(2))
        assert np.all(spec.grad_local(g, l, batch)[0] == 0.0)

    def test_colliding_oov_tokens_share_a_row(self):
        cfg = ModelConfig(vocab_size=2, num_oov_buckets=1, embed_dim=3, context_window=2)
        codec = TokenCodec(cfg, ["a", "b"])
        assert codec.context_id("first-slang") == codec.context_id("other-slang") == -1

    def test_zero_buckets_mean_no_local_blocks(self):
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=0, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        assert spec.init_local(np.random.default_rng(0)) == []
        g = spec.init_global(np.random.default_rng(0))
        batch = Batch(np.array([[4, 3]]), np.array([5.0]), np.ones(1))
        assert np.isfinite(spec.loss(g, [], batch))
        assert spec.grad_local(g, [], batch) == []

    def test_accuracy_ignores_special_targets(self):
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=2, embed_dim=3, context_window=2)
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
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=3, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(3)
        from partialfed.core import axpy_blocks

        for trial in range(10):
            g, l = spec.init_global(rng), spec.init_local(rng)
            ctx = rng.integers(-cfg.num_oov_buckets, cfg.num_classes, size=(5, 2))
            ctx[0, 0] = -1  # ensure the local table participates
            batch = Batch(ctx, rng.integers(0, cfg.num_classes, 5).astype(float), np.ones(5))
            base = spec.loss(g, l, batch)
            stepped = axpy_blocks(l, -1e-2, spec.grad_local(g, l, batch))
            assert spec.loss(g, stepped, batch) <= base + 1e-12


class TestNwpOwnerAxes:
    """Two owners stacked: each owner's slice of an owner-axis call is what
    a flat call on its own examples, locals and output layer returns."""

    def make(self):
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=3, embed_dim=2, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(5)
        g = spec.init_global(rng)
        locals_ = [spec.init_local(rng) for _ in range(2)]
        stacked = [ParamBlock("oov_embeddings", np.stack([l[0].array for l in locals_]),
                              (2, 3, 2))]
        # Owner 1's second example is padding: a zero-weight copy of its first.
        ctx = np.array([[[4, -1], [-3, 6]], [[-2, -2], [-2, -2]]])
        targets = np.array([[5.0, 2.0], [7.0, 7.0]])
        weights = np.array([[0.5, 1.5], [2.0, 0.0]])
        return spec, g, locals_, stacked, Batch(ctx, targets, weights)

    def test_metrics(self):
        # Owners of 10 and 4 examples padded to several widths: each owner's
        # entries are its flat call's bit for bit, whatever the width.
        spec, g, locals_, stacked, _ = self.make()
        rng = np.random.default_rng(6)
        rows = [
            (rng.integers(-3, 8, (n, 2)), rng.integers(0, 8, n).astype(float),
             rng.uniform(0.25, 2, n))
            for n in (10, 4)
        ]
        for width in (10, 16, 27):
            got = spec.metrics(g, stacked, padded(rows, width))
            for o, (ctx, targets, weights) in enumerate(rows):
                want = spec.metrics(g, locals_[o], Batch(ctx, targets, weights))
                assert set(got) == set(want)
                for k, m in want.items():
                    assert np.ndim(m.value) == np.ndim(m.weight) == 0
                    assert got[k].value.shape == got[k].weight.shape == (2,)
                    assert got[k].value[o] == m.value
                    assert got[k].weight[o] == m.weight

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


# The kernel's earlier formulas, kept as references for the forms it runs now.


def batched_times(x, w):
    """The output layer's product as it was: one product per owner."""
    return x @ w


def divide_then_scale(logits, targets, weights, norm):
    """The softmax gradient as it was: divide by the row sum, subtract 1 at
    the target, then scale by ``weights / norm``."""
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    p.reshape(-1, p.shape[-1])[np.arange(targets.size), targets.ravel()] -= 1.0
    return p * (weights / norm)[..., None]


class TestNwpKernelForms:
    """One matrix product for one-row owners under a shared output layer,
    the folded softmax gradient and the metrics' single scan, each against
    the formula it replaced."""

    CFG = ModelConfig(vocab_size=60, num_oov_buckets=20, embed_dim=16, context_window=3)

    def population(self, owners, rows, seed=0):
        cfg, C = self.CFG, self.CFG.num_classes
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(seed)
        g = spec.init_global(rng)
        g[2].values[:] = rng.normal(0.0, 0.3, C)
        l = spec.init_local(*(np.random.default_rng([seed, o]) for o in range(owners)))
        ctx = rng.integers(-cfg.num_oov_buckets, C, size=(owners, rows, cfg.context_window))
        targets = rng.integers(0, C, size=(owners, rows))
        batch = Batch(ctx, targets.astype(float), rng.uniform(0.5, 2.0, size=(owners, rows)))
        return spec, g, l, batch

    def mean_embedding(self, g, l, ctx):
        """Each example's mean slot embedding, read straight from the tables."""
        owner = np.arange(len(ctx))[:, None, None]
        slots = np.where(
            (ctx >= 0)[..., None],
            g[0].array[np.maximum(ctx, 0)],
            l[0].array[owner, np.maximum(-ctx - 1, 0)],
        )
        return slots.mean(axis=-2)

    def test_one_row_owners_agree_with_the_stacked_products(self):
        # Pooled centralized training: every example its own owner, one
        # shared output layer.  The kernel's one product and folded softmax
        # round differently from the per-owner products and divide-then-
        # scale; they agree to 1e-12 of each grad's largest entry.
        spec, g, l, batch = self.population(owners=300, rows=1)
        cfg, E, C = self.CFG, self.CFG.embed_dim, self.CFG.num_classes
        ctx, targets, norm = batch.features, batch.targets.astype(int), batch.weights.sum()
        h = self.mean_embedding(g, l, ctx)
        logits = batched_times(h, g[1].array) + g[2].array
        dz = divide_then_scale(logits, targets, batch.weights, norm)
        slot = np.broadcast_to(
            (batched_times(dz, g[1].array.T) / cfg.context_window)[..., None, :], ctx.shape + (E,)
        )
        want = {
            "embeddings": slot[ctx >= 0],
            "output_weights": (h.reshape(-1, E).T @ dz.reshape(-1, C)).ravel(),
            "output_bias": dz.reshape(-1, C).sum(axis=0),
            "buckets": slot[ctx < 0],
        }
        (emb, w_out, bias), (oov,) = spec.sparse_grads(g, l, batch, norm, True, True)
        got = dict(zip(want, (emb.values, w_out, bias, oov.values)))
        for name, w in want.items():
            assert np.abs(got[name] - w).max() <= 1e-12 * np.abs(w).max(), name
        np.testing.assert_allclose(
            _nwp_forward(cfg, g, l, batch)[-1], logits, rtol=0, atol=1e-12 * np.abs(logits).max()
        )

    @pytest.mark.parametrize("owners, rows", [(4, 16), (3, 2), (20, 5), (2, 300)])
    def test_owners_of_two_or_more_rows_keep_the_batched_product(self, owners, rows):
        # Bit for bit: a product over every owner at once may round
        # differently in BLAS, so these owners keep one product each.
        spec, g, l, batch = self.population(owners, rows, seed=rows)
        cfg, E = self.CFG, self.CFG.embed_dim
        ctx, targets, norm = batch.features, batch.targets.astype(int), batch.weights.sum()
        logits = _nwp_forward(cfg, g, l, batch)[-1]
        h = self.mean_embedding(g, l, ctx)
        assert np.array_equal(logits, batched_times(h, g[1].array) + g[2].array)
        dz = _softmax_grad(logits, targets, batch.weights, norm)
        slot = np.broadcast_to(
            (batched_times(dz, g[1].array.T) / cfg.context_window)[..., None, :], ctx.shape + (E,)
        )
        (emb, _, _), (oov,) = spec.sparse_grads(g, l, batch, norm, True, True)
        assert np.array_equal(emb.values, slot[ctx >= 0])
        assert np.array_equal(oov.values, slot[ctx < 0])

    def test_folded_softmax_grad_agrees_with_divide_then_scale(self):
        # One multiply by (weights / norm) / sum against a divide and a
        # scale: each entry within 4 machine epsilons of its row's scale;
        # zero-weight padding stays exactly zero either way.
        rng = np.random.default_rng(7)
        for spread in (0.1, 1.0, 10.0, 50.0):
            logits = rng.normal(0.0, spread, size=(5, 7, 52))
            targets = rng.integers(0, 52, size=(5, 7))
            weights = rng.uniform(0.1, 3.0, size=(5, 7))
            weights[:, -2:] = 0.0
            norm = weights.sum(axis=-1, keepdims=True)
            want = divide_then_scale(logits, targets, weights, norm)
            got = _softmax_grad(logits.copy(), targets, weights, norm)
            scale = (weights / norm)[..., None]
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
            assert np.all(got[:, -2:] == 0.0)
        with pytest.raises(DataError, match="zero total weight"):
            _softmax_grad(logits.copy(), targets, weights, np.zeros((5, 1)))

    @pytest.mark.parametrize("tied, target, hit", [
        ((), NUM_SPECIAL, 0.0),  # every logit tied: class 0, never a scored target
        ((NUM_SPECIAL + 1, NUM_SPECIAL + 2), NUM_SPECIAL + 1, 1.0),
        ((NUM_SPECIAL + 1, NUM_SPECIAL + 2), NUM_SPECIAL + 2, 0.0),
    ])
    def test_tied_logits_score_accuracy_at_the_first_maximum(self, tied, target, hit):
        # An all-zero output layer and bias, raised by 1 at the ``tied``
        # classes: the prediction is the first of the tied maxima.
        spec, g, l, batch = self.population(owners=3, rows=4)
        C = self.CFG.num_classes
        g[1].values[:] = 0.0
        g[2].values[:] = 0.0
        g[2].values[list(tied)] = 1.0
        batch = Batch(batch.features, np.full(batch.targets.shape, float(target)), batch.weights)
        ce = np.log(C - len(tied) + len(tied) * np.e) - (1.0 if tied else 0.0)
        m = spec.metrics(g, l, batch)
        assert m["accuracy"].value.tolist() == [hit] * 3
        assert m["cross_entropy"].value == pytest.approx(np.full(3, ce), rel=1e-12)


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

    spec = matfac_spec(ModelConfig(embed_dim=2), 2)
    g = spec.init_global(np.random.default_rng(0))
    l = spec.init_local(np.random.default_rng(0))
    batch = Batch(np.array([0]), np.array([3.0]), np.zeros(1))
    with pytest.raises(DataError):
        spec.loss(g, l, batch)
