import dataclasses

import numpy as np
import pytest

from partialfed.baselines import finetune_eval, train_centralized, train_fedavg
from partialfed.client import ClientHyper, SplitPolicy
from partialfed.core import ClientDataset, Example, RngStreams
from partialfed.data import SyntheticMFConfig, gen_synthetic_mf
from partialfed.errors import ConfigError, DataError
from partialfed.models import MatFacConfig, NwpConfig, matfac_spec, oov_nwp_spec
from partialfed.server import ServerOptimizer
from oracles import oracle_mf_centralized_step


def population(num_users=4, num_items=6, seed=3, ratings=5):
    clients, _, _ = gen_synthetic_mf(
        SyntheticMFConfig(
            num_users=num_users, num_items=num_items, true_rank=2,
            ratings_per_user=ratings, seed=seed,
        )
    )
    spec = matfac_spec(MatFacConfig(num_items=num_items, embed_dim=2))
    return spec, {c.client_id: c for c in clients}


class TestTrainCentralized:
    def test_single_example_single_epoch_is_one_sgd_step(self):
        spec, _ = population()
        clients = {
            0: ClientDataset.from_examples(0, [Example(features=2, target=4.0)])
        }
        streams = RngStreams(1)
        g, locs = train_centralized(
            spec, clients, epochs=1, batch_size=1, rate=0.3, streams=streams
        )
        g0 = spec.init_global(RngStreams(1).generator("global_init"))
        l0 = spec.init_local(RngStreams(1).generator(0, "centralized_local_init"))
        q_exp, p_exp = oracle_mf_centralized_step(
            g0[0].array, l0[0].values[None, :], [0], [2], [4.0], 0.3
        )
        np.testing.assert_allclose(g[0].array, q_exp, atol=1e-12)
        np.testing.assert_allclose(locs[0][0].values, p_exp[0], atol=1e-12)

    def test_zero_rate_leaves_parameters_unchanged(self):
        spec, clients = population()
        streams = RngStreams(2)
        g, locs = train_centralized(
            spec, clients, epochs=2, batch_size=3, rate=0.0, streams=streams
        )
        g0 = spec.init_global(RngStreams(2).generator("global_init"))
        assert np.array_equal(g[0].values, g0[0].values)

    def test_zero_epochs_is_initialization(self):
        spec, clients = population()
        g, locs = train_centralized(
            spec, clients, epochs=0, batch_size=3, rate=0.5, streams=RngStreams(3)
        )
        g0 = spec.init_global(RngStreams(3).generator("global_init"))
        assert np.array_equal(g[0].values, g0[0].values)

    def test_fast_kernel_matches_generic_path(self):
        spec, clients = population()
        generic = dataclasses.replace(spec, fast_centralized=None)
        g_fast, locs_fast = train_centralized(
            spec, clients, epochs=3, batch_size=4, rate=0.2, streams=RngStreams(4)
        )
        g_gen, locs_gen = train_centralized(
            generic, clients, epochs=3, batch_size=4, rate=0.2, streams=RngStreams(4)
        )
        np.testing.assert_allclose(g_fast[0].values, g_gen[0].values, atol=1e-12)
        for cid in clients:
            np.testing.assert_allclose(
                locs_fast[cid][0].values, locs_gen[cid][0].values, atol=1e-12
            )

    @pytest.mark.parametrize("fast", [True, False])
    def test_full_batch_with_shared_owner_and_item_is_one_sgd_step(self, fast):
        # Client 0 rates items 1 and 2, client 1 rates items 2 and 3: one
        # owner repeats and item 2 takes updates from two owners.
        spec, _ = population()
        if not fast:
            spec = dataclasses.replace(spec, fast_centralized=None)
        ratings = {0: [(1, 4.0), (2, 2.0)], 1: [(2, 5.0), (3, 1.0)]}
        clients = {
            cid: ClientDataset.from_examples(cid, [Example(features=i, target=r) for i, r in rs])
            for cid, rs in ratings.items()
        }
        g, locs = train_centralized(
            spec, clients, epochs=1, batch_size=4, rate=0.3, streams=RngStreams(7)
        )
        g0 = spec.init_global(RngStreams(7).generator("global_init"))
        p0 = np.stack([
            spec.init_local(RngStreams(7).generator(cid, "centralized_local_init"))[0].values
            for cid in (0, 1)
        ])
        q_exp, p_exp = oracle_mf_centralized_step(
            g0[0].array, p0, [0, 0, 1, 1], [1, 2, 2, 3], [4.0, 2.0, 5.0, 1.0], 0.3
        )
        np.testing.assert_allclose(g[0].array, q_exp, rtol=0, atol=1e-12)
        for row, cid in enumerate((0, 1)):
            np.testing.assert_allclose(locs[cid][0].values, p_exp[row], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fast", [True, False])
    def test_zero_weight_batch_is_a_data_error(self, fast):
        spec, clients = population()
        if not fast:
            spec = dataclasses.replace(spec, fast_centralized=None)
        clients = {
            cid: dataclasses.replace(ds, weights=np.zeros(ds.n)) for cid, ds in clients.items()
        }
        with pytest.raises(DataError, match="zero total weight"):
            train_centralized(spec, clients, epochs=1, batch_size=3, rate=0.2, streams=RngStreams(6))

    @pytest.mark.parametrize("fast", [True, False])
    def test_client_data_never_mutated(self, fast):
        spec, clients = population()
        if not fast:
            spec = dataclasses.replace(spec, fast_centralized=None)
        columns = ("features", "targets", "weights")
        snapshot = {cid: [getattr(ds, c).copy() for c in columns] for cid, ds in clients.items()}
        train_centralized(spec, clients, epochs=2, batch_size=3, rate=0.2, streams=RngStreams(6))
        for cid, ds in clients.items():
            for before, column in zip(snapshot[cid], columns):
                assert np.array_equal(before, getattr(ds, column))

    def test_nwp_two_owner_step_matches_share_weighted_grads(self):
        # The generic loop normalises each owner's sub-batch by the whole
        # minibatch weight; the reference scales each owner's dense
        # grad_global / grad_local by its weight share of the minibatch.
        cfg = NwpConfig(vocab_size=5, num_oov_buckets=3, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(0)
        clients = {
            cid: ClientDataset(
                cid,
                features=rng.integers(-cfg.num_oov_buckets, cfg.num_global_rows, size=(n, 2)),
                targets=rng.integers(0, cfg.num_classes, size=n).astype(float),
                weights=rng.uniform(0.5, 2.0, size=n),
                timestamps=np.arange(n),
            )
            for cid, n in ((0, 4), (1, 3))
        }
        g, locs = train_centralized(
            spec, clients, epochs=1, batch_size=7, rate=0.3, streams=RngStreams(8)
        )
        g_ref = spec.init_global(RngStreams(8).generator("global_init"))
        batch_w = sum(ds.weights.sum() for ds in clients.values())
        step = [np.zeros(b.values.size) for b in g_ref]
        for cid, ds in clients.items():
            share = ds.weights.sum() / batch_w
            l = spec.init_local(RngStreams(8).generator(cid, "centralized_local_init"))
            for acc, gg in zip(step, spec.grad_global(g_ref, l, ds.batch())):
                acc += share * gg
            (lg,) = spec.grad_local(g_ref, l, ds.batch())
            want = l[0].values - 0.3 * share * lg
            assert np.abs(locs[cid][0].values - want).max() <= 1e-12 * np.abs(want).max()
        for got, b, acc in zip(g, g_ref, step):
            want = b.values - 0.3 * acc
            assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_training_reduces_pooled_loss(self):
        spec, clients = population(num_users=8, ratings=6)
        g, locs = train_centralized(
            spec, clients, epochs=30, batch_size=8, rate=0.3, streams=RngStreams(5)
        )
        g0 = spec.init_global(RngStreams(5).generator("global_init"))
        before = after = 0.0
        for cid, ds in clients.items():
            l0 = spec.init_local(RngStreams(5).generator(cid, "centralized_local_init"))
            before += spec.loss(g0, l0, ds.batch())
            after += spec.loss(g, locs[cid], ds.batch())
        assert after < before * 0.5


class TestTrainFedavg:
    def test_unsampled_clients_keep_their_embedding(self):
        spec, clients = population(num_users=6)
        streams = RngStreams(6)
        out = train_fedavg(
            spec, clients, rounds=1, clients_per_round=2,
            hyper=ClientHyper(k_u=2, eta_u=0.1, batch_size=2),
            server_opt=ServerOptimizer(), streams=streams,
        )
        sampled = set(out.reports[0].sampled_clients)
        for cid in clients:
            init = spec.init_local(RngStreams(6).generator(cid, "server_local_init"))
            unchanged = np.array_equal(out.local_store[cid][0].values, init[0].values)
            assert unchanged == (cid not in sampled)

    def test_full_participation_single_step_matches_pooled_oracle(self):
        # Every client sampled, one full-batch joint step, unit server rate:
        # the global update equals one large-batch SGD step over the pooled
        # examples (each user holding its own embedding row), checked against
        # a straight-line loop oracle.
        spec, clients = population(num_users=3, ratings=4)
        streams = RngStreams(7)
        hyper = ClientHyper(k_r=0, k_u=1, eta_r=0.1, eta_u=0.2, batch_size=100)
        out = train_fedavg(
            spec, clients, rounds=1, clients_per_round=3, hyper=hyper,
            server_opt=ServerOptimizer(kind="sgd", eta_s=1.0), streams=streams,
        )
        g0 = spec.init_global(RngStreams(7).generator("global_init"))
        ids = sorted(clients)
        p0 = np.stack(
            [
                spec.init_local(RngStreams(7).generator(cid, "server_local_init"))[0].values
                for cid in ids
            ]
        )
        owners = np.concatenate([np.full(clients[cid].n, row) for row, cid in enumerate(ids)])
        items = np.concatenate([clients[cid].features for cid in ids])
        ratings = np.concatenate([clients[cid].targets for cid in ids])
        # The n_i-weighted mean of per-client global gradients telescopes to
        # the pooled-batch gradient ("up to weighting": per-client local
        # steps are not population-scaled, so only the global factor matches).
        q_exp, _ = oracle_mf_centralized_step(
            g0[0].array, p0, owners, items, ratings, rate=0.2
        )
        np.testing.assert_allclose(out.global_params[0].array, q_exp, atol=1e-12)

    def test_owner_update_applies_to_stored_local(self):
        spec, clients = population(num_users=3)
        out = train_fedavg(
            spec, clients, rounds=2, clients_per_round=3,
            hyper=ClientHyper(k_u=2, eta_u=0.1, batch_size=2),
            server_opt=ServerOptimizer(), streams=RngStreams(8),
        )
        for cid in clients:
            init = spec.init_local(RngStreams(8).generator(cid, "server_local_init"))
            assert not np.array_equal(out.local_store[cid][0].values, init[0].values)


class TestFinetuneEval:
    def setup_case(self, seed=9):
        spec, clients = population(num_users=3, ratings=6)
        streams = RngStreams(seed)
        g = spec.init_global(streams.generator("g"))
        l = spec.init_local(streams.generator("l"))
        ds = list(clients.values())[0]
        return spec, g, l, ds

    def test_zero_steps_is_plain_evaluation(self):
        spec, g, l, ds = self.setup_case()
        metrics = finetune_eval(
            "finetune_local_only", spec, g, l, ds, steps=0, rate=0.1,
            batch_size=2, policy=SplitPolicy(), streams=RngStreams(1),
        )
        from partialfed.client import split_dataset
        from partialfed.core import finalize_metrics

        dsx = split_dataset(ds, SplitPolicy(), RngStreams(1).generator(ds.client_id, "finetune:split"))
        expected = finalize_metrics(spec.metrics(g, l, dsx.query_batch()))
        assert metrics == expected

    def test_inputs_never_mutated(self):
        spec, g, l, ds = self.setup_case()
        g_snap = [b.values.copy() for b in g]
        l_snap = [b.values.copy() for b in l]
        for kind in ("finetune_local_only", "finetune_full", "fedrecon_plus_finetune"):
            finetune_eval(
                kind, spec, g, l, ds, steps=3, rate=0.1, batch_size=2,
                policy=SplitPolicy(), streams=RngStreams(2),
                recon_hyper=ClientHyper(k_r=2, eta_r=0.1, batch_size=2),
            )
        for snap, block in zip(g_snap, g):
            assert np.array_equal(snap, block.values)
        for snap, block in zip(l_snap, l):
            assert np.array_equal(snap, block.values)

    def test_full_finetuning_reduces_support_loss(self):
        rng_seeds = range(5)
        wins = 0
        for seed in rng_seeds:
            spec, g, l, ds = self.setup_case(seed=20 + seed)
            from partialfed.client import split_dataset

            policy = SplitPolicy(kind="no_split")
            streams = RngStreams(3 + seed)
            dsx = split_dataset(ds, policy, streams.generator(ds.client_id, "finetune:split"))
            before = spec.loss(g, l, dsx.support_batch())
            metrics = finetune_eval(
                "finetune_full", spec, g, l, ds, steps=40, rate=0.05,
                batch_size=100, policy=policy, streams=streams,
            )
            # support == query under no_split, so the reported mse is the
            # post-finetuning support loss
            wins += metrics["mse"] < before
        assert wins == len(list(rng_seeds))

    def test_local_only_finetuning_never_steps_global_params(self):
        # Reproduce the local-only variant by hand with the global blocks
        # pinned; matching metrics prove the variant left them alone.
        spec, g, l, ds = self.setup_case()
        from partialfed.client import batch_schedule, split_dataset
        from partialfed.core import axpy_blocks, finalize_metrics

        streams = RngStreams(4)
        metrics = finetune_eval(
            "finetune_local_only", spec, g, l, ds, steps=5, rate=0.1,
            batch_size=2, policy=SplitPolicy(), streams=streams,
        )
        replay = RngStreams(4)
        dsx = split_dataset(ds, SplitPolicy(), replay.generator(ds.client_id, "finetune:split"))
        l_manual = [b.copy() for b in l]
        for bidx in batch_schedule(
            dsx.support_idx, 2, 5, replay.generator(ds.client_id, "finetune:batches")
        ):
            l_manual = axpy_blocks(
                l_manual, -0.1, spec.grad_local(g, l_manual, dsx.batch(bidx))
            )
        expected = finalize_metrics(spec.metrics(g, l_manual, dsx.query_batch()))
        assert metrics == expected

    def test_unknown_kind_rejected(self):
        spec, g, l, ds = self.setup_case()
        with pytest.raises(ConfigError):
            finetune_eval(
                "bogus", spec, g, l, ds, steps=1, rate=0.1, batch_size=2,
                policy=SplitPolicy(), streams=RngStreams(0),
            )

    def test_recon_variant_requires_hyper(self):
        spec, g, l, ds = self.setup_case()
        with pytest.raises(ConfigError):
            finetune_eval(
                "fedrecon_plus_finetune", spec, g, l, ds, steps=1, rate=0.1,
                batch_size=2, policy=SplitPolicy(), streams=RngStreams(0),
            )
