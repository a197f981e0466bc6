import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfed.baselines import train_centralized, train_fedavg
from partialfed.client import ClientHyper
from partialfed.core import (
    Batch,
    ClientDataset,
    ParamBlock,
    RngStreams,
    _rows_at,
    _sgd_step,
    owner_rows,
)
from partialfed.data import SyntheticDataConfig, gen_synthetic_mf
from partialfed.errors import ConfigError, DataError
from partialfed.models import ModelConfig, matfac_spec, oov_nwp_spec
from partialfed.server import ServerOptimizer
from oracles import oracle_mf_centralized_step
from reference import client_blocks


def population(num_users=4, num_items=6, seed=3, ratings=5):
    clients, _, _ = gen_synthetic_mf(
        SyntheticDataConfig(num_users=num_users, num_items=num_items, true_rank=2,
                            ratings_per_user=ratings, noise_std=0.3, signal_std=0.8),
        seed,
    )
    spec = matfac_spec(ModelConfig(embed_dim=2), num_items)
    return spec, {c.client_id: c for c in clients}


class TestTrainCentralized:
    def test_single_example_single_epoch_is_one_sgd_step(self):
        spec, _ = population()
        clients = {0: ClientDataset(0, np.array([2]), np.array([4.0]), np.zeros(1))}
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
        np.testing.assert_allclose(client_blocks(locs, 0)[0].values, p_exp[0], atol=1e-12)

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

    @pytest.mark.parametrize("model", ["matfac", "oov_nwp"])
    def test_locals_start_from_each_clients_stream(self, model):
        # Every client's rows of the population tables, bit for bit.
        if model == "matfac":
            spec, clients = population()
        else:
            spec = oov_nwp_spec(ModelConfig(vocab_size=4, num_oov_buckets=3, embed_dim=2))
            clients = {
                cid: ClientDataset(cid, features=np.array([[4, -1, 5]]), targets=np.array([5.0]),
                                   timestamps=np.zeros(1))
                for cid in (3, 8, 20)
            }
        _, locs = train_centralized(
            spec, clients, epochs=0, batch_size=3, rate=0.5, streams=RngStreams(3)
        )
        assert locs.ids.tolist() == sorted(clients)
        for cid in clients:
            got = client_blocks(locs, cid)
            want = owner_rows(
                spec.init_local(RngStreams(3).generator(cid, "centralized_local_init")), 0
            )
            assert [(b.name, b.shape) for b in got] == [(b.name, b.shape) for b in want]
            assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want))

    def test_locals_are_one_table_per_block_in_id_order(self):
        spec = oov_nwp_spec(ModelConfig(vocab_size=4, num_oov_buckets=3, embed_dim=2))
        clients = {
            cid: ClientDataset(cid, features=np.array([[4, -1, 5]]), targets=np.array([5.0]),
                               timestamps=np.zeros(1))
            for cid in (20, 3, 8)
        }
        _, locs = train_centralized(
            spec, clients, epochs=1, batch_size=2, rate=0.5, streams=RngStreams(3)
        )
        assert locs.ids.tolist() == [3, 8, 20]
        want = [(b.name, (3,) + b.shape[1:]) for b in spec.init_local(np.random.default_rng(0))]
        assert [(t.name, t.shape) for t in locs.blocks] == want

    def test_no_client_is_a_data_error(self):
        spec, _ = population()
        with pytest.raises(DataError, match="at least one client"):
            train_centralized(spec, {}, epochs=1, batch_size=2, rate=0.1, streams=RngStreams(3))

    def test_full_batch_with_shared_owner_and_item_is_one_sgd_step(self):
        # Client 0 rates items 1 and 2, client 1 rates items 2 and 3: one
        # owner repeats and item 2 takes updates from two owners.
        spec, _ = population()
        ratings = {0: [(1, 4.0), (2, 2.0)], 1: [(2, 5.0), (3, 1.0)]}
        clients = {
            cid: ClientDataset(cid, np.array([i for i, _ in rs]), np.array([r for _, r in rs]),
                               np.zeros(len(rs), np.int64))
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
            np.testing.assert_allclose(locs.blocks[0].array[row], p_exp[row], rtol=0, atol=1e-12)

    def test_client_data_never_mutated(self):
        spec, clients = population()
        columns = ("features", "targets", "timestamps")
        snapshot = {cid: [getattr(ds, c).copy() for c in columns] for cid, ds in clients.items()}
        train_centralized(spec, clients, epochs=2, batch_size=3, rate=0.2, streams=RngStreams(6))
        for cid, ds in clients.items():
            for before, column in zip(snapshot[cid], columns):
                assert np.array_equal(before, getattr(ds, column))

    def test_nwp_two_owner_step_matches_share_weighted_grads(self):
        # The generic loop normalises each owner's sub-batch by the whole
        # minibatch's size; the reference scales each owner's dense
        # grad_global / grad_local by its share of the minibatch's examples.
        cfg = ModelConfig(vocab_size=5, num_oov_buckets=3, embed_dim=3, context_window=2)
        spec = oov_nwp_spec(cfg)
        rng = np.random.default_rng(0)
        clients = {
            cid: ClientDataset(
                cid,
                features=rng.integers(-cfg.num_oov_buckets, cfg.num_classes, size=(n, 2)),
                targets=rng.integers(0, cfg.num_classes, size=n).astype(float),
                timestamps=np.arange(n),
            )
            for cid, n in ((0, 4), (1, 3))
        }
        g, locs = train_centralized(
            spec, clients, epochs=1, batch_size=7, rate=0.3, streams=RngStreams(8)
        )
        g_ref = spec.init_global(RngStreams(8).generator("global_init"))
        batch_n = sum(ds.n for ds in clients.values())
        step = [np.zeros(b.values.size) for b in g_ref]
        for cid, ds in clients.items():
            share = ds.n / batch_n
            l = spec.init_local(RngStreams(8).generator(cid, "centralized_local_init"))
            for acc, gg in zip(step, spec.grad_global(g_ref, l, ds.batch())):
                acc += share * gg
            (lg,) = spec.grad_local(g_ref, l, ds.batch())
            want = l[0].values - 0.3 * share * lg
            got = client_blocks(locs, cid)[0].values
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
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
            after += spec.loss(g, client_blocks(locs, cid), ds.batch())
        assert after < before * 0.5

    def test_bucket_past_the_table_is_a_data_error(self):
        # Bucket 3 of a 3-bucket table.  Remapped to a slot id, the kernel
        # could no longer see it, and client 0 would read client 1's row 0.
        spec = oov_nwp_spec(ModelConfig(vocab_size=5, num_oov_buckets=3, embed_dim=2,
                                        context_window=2))
        clients = {
            cid: ClientDataset(cid, features=np.array([ctx]), targets=np.array([5.0]),
                               timestamps=np.zeros(1))
            for cid, ctx in ((0, [4, -4]), (1, [-1, 6]))
        }
        with pytest.raises(DataError, match="bucket outside"):
            train_centralized(spec, clients, epochs=1, batch_size=2, rate=0.1,
                              streams=RngStreams(9))


def merged(clients):
    """The ascending client ids and the pooled columns: each example's owner
    row (its client's position in the ids), features and targets."""
    ids = sorted(clients)
    return (
        ids,
        np.concatenate([np.full(clients[cid].n, row) for row, cid in enumerate(ids)]),
        np.concatenate([clients[cid].features for cid in ids]),
        np.concatenate([clients[cid].targets for cid in ids]),
    )


def per_owner_centralized(spec, clients, *, epochs, batch_size, rate, streams):
    """The reference: the minibatch grouped by owner, one ``sparse_grads``
    call per owner, each owner's sub-batch normalised by the whole
    minibatch's size.  An owner's local blocks step as soon as their grads
    are known; the owners' global grads are summed, then stepped."""
    ids, owners, feats, targets = merged(clients)
    g = spec.init_global(streams.generator("global_init"))
    locals_by_client = {
        cid: spec.init_local(streams.generator(cid, "centralized_local_init")) for cid in ids
    }
    shuffle_rng = streams.generator("centralized_shuffle")
    total = [ParamBlock(b.name, np.zeros_like(b.values), b.shape) for b in g]
    for _ in range(epochs):
        perm = shuffle_rng.permutation(len(targets))
        for start in range(0, len(targets), batch_size):
            idx = perm[start : start + batch_size]
            batch_w = float(len(idx))
            for b in total:
                b.values.fill(0.0)
            for row in np.unique(owners[idx]):
                sub = idx[owners[idx] == row]
                l = locals_by_client[ids[row]]
                batch = Batch(feats[sub], targets[sub], np.ones(len(sub)))
                grads, local_grads = spec.sparse_grads(g, l, batch, batch_w, True, True)
                _sgd_step(total, -1.0, grads)  # total += grads
                _sgd_step(l, rate, local_grads)
            _sgd_step(g, rate, total)
    return g, locals_by_client


def mf_example_loop(spec, clients, *, epochs, batch_size, rate, streams):
    """MF's kernel calls in the order centralized MF has always made them:
    each example its own owner, user vectors stepped by owner rows."""
    ids, owners, feats, targets = merged(clients)
    g = spec.init_global(streams.generator("global_init"))
    p = np.stack([
        spec.init_local(streams.generator(cid, "centralized_local_init"))[0].values
        for cid in ids
    ])
    shuffle_rng = streams.generator("centralized_shuffle")
    for _ in range(epochs):
        perm = shuffle_rng.permutation(len(targets))
        for start in range(0, len(targets), batch_size):
            idx = perm[start : start + batch_size]
            u, w = owners[idx], np.ones(len(idx))
            stacked = [ParamBlock("user_embedding", p[u], (len(u), p.shape[1]))]
            batch = Batch(feats[idx], targets[idx][:, None], w[:, None])
            grads, (local,) = spec.sparse_grads(g, stacked, batch, w.sum(), True, True)
            _sgd_step(g, rate, grads)
            _rows_at(np.subtract, p.reshape(-1), u, rate * local)
    return g, p


@st.composite
def centralized_cases(draw):
    """A small MF or NWP population: up to 5 clients of ragged sizes, so an
    owner, an item or a bucket repeats within a minibatch; in-vocabulary
    and bucket contexts under 0 to 3 buckets; a batch size that may leave
    a short last minibatch; 1 to 3 epochs."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        num_items = draw(st.integers(1, 6))
        spec = matfac_spec(ModelConfig(embed_dim=draw(st.integers(1, 4))), num_items)

        def columns(n):
            return rng.integers(0, num_items, size=n), rng.integers(1, 6, size=n) * 1.0
    else:
        cfg = ModelConfig(
            vocab_size=draw(st.integers(1, 4)),
            num_oov_buckets=draw(st.integers(0, 3)),
            embed_dim=draw(st.integers(1, 3)),
            context_window=draw(st.integers(1, 3)),
        )
        spec = oov_nwp_spec(cfg)

        def columns(n):
            ctx = rng.integers(-cfg.num_oov_buckets, cfg.num_classes,
                               size=(n, cfg.context_window))
            return ctx, rng.integers(0, cfg.num_classes, size=n) * 1.0

    clients = {
        cid: ClientDataset(cid, *columns(n), timestamps=np.arange(n))
        for cid, n in enumerate(sizes)
    }
    settings_ = dict(
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 12)),
        rate=draw(st.floats(0.0, 0.1)),
    )
    return spec, clients, settings_, draw(st.integers(0, 2**31))


def assert_blocks_close(got, want, what):
    for a, b in zip(got, want, strict=True):
        scale = max(float(np.abs(b.values).max()), 1e-300)
        assert np.abs(a.values - b.values).max() <= 1e-12 * scale, f"{what} {b.name}"


@settings(max_examples=60, deadline=None)
@given(centralized_cases())
def test_one_call_per_minibatch_is_the_per_owner_loop(case):
    # To 1e-12 of each block's scale: the owners' global grads are summed
    # in one product, and rows repeated in a minibatch step one slot at a
    # time.  MF keeps its kernel calls and their order, bit for bit.
    spec, clients, kw, seed = case
    calls = []

    def counted(*args):
        calls.append(args)
        return spec.sparse_grads(*args)

    g, locs = train_centralized(
        dataclasses.replace(spec, sparse_grads=counted), clients, streams=RngStreams(seed), **kw
    )
    n = sum(ds.n for ds in clients.values())
    assert len(calls) == kw["epochs"] * -(-n // kw["batch_size"])
    g_ref, locs_ref = per_owner_centralized(spec, clients, streams=RngStreams(seed), **kw)
    assert_blocks_close(g, g_ref, "global")
    for cid in clients:
        assert_blocks_close(client_blocks(locs, cid), locs_ref[cid], f"client {cid}")
    if spec.name == "matfac":
        g_mf, p_mf = mf_example_loop(spec, clients, streams=RngStreams(seed), **kw)
        assert np.array_equal(g[0].values, g_mf[0].values)
        assert np.array_equal(locs.blocks[0].array, p_mf)


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
            (stored,) = client_blocks(out.local_store, cid)
            unchanged = np.array_equal(stored.values, init[0].values)
            assert unchanged == (cid not in sampled)

    def test_store_is_one_table_per_block_and_rounds_write_sampled_rows(self):
        spec, clients = population(num_users=7)
        # Ids not from 0, inserted out of id order.
        clients = {3 * cid + 2: dataclasses.replace(ds, client_id=3 * cid + 2)
                   for cid, ds in reversed(clients.items())}
        ids = sorted(clients)
        seen = []

        def on_round(t, g, store):
            seen.append({cid: [b.values.copy() for b in client_blocks(store, cid)] for cid in ids})

        out = train_fedavg(
            spec, clients, rounds=3, clients_per_round=2,
            hyper=ClientHyper(k_u=2, eta_u=0.1, batch_size=2),
            server_opt=ServerOptimizer(), streams=RngStreams(9), eval_fn=on_round, eval_every=1,
        )
        assert out.local_store.ids.tolist() == ids
        assert [t.shape[0] for t in out.local_store.blocks] == [len(ids)]
        streams = RngStreams(9)
        before = {
            cid: [b.values for b in spec.init_local(streams.generator(cid, "server_local_init"))]
            for cid in ids
        }
        for report, after in zip(out.reports, seen, strict=True):
            for cid in ids:
                changed = [not np.array_equal(a, b) for a, b in zip(after[cid], before[cid])]
                assert all(changed) == (cid in report.sampled_clients)
                assert any(changed) == (cid in report.sampled_clients)
            before = after

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
            (stored,) = client_blocks(out.local_store, cid)
            assert not np.array_equal(stored.values, init[0].values)

    def test_empty_population_is_a_config_error(self):
        spec, _ = population()
        with pytest.raises(ConfigError, match="cannot sample 1 clients from 0"):
            train_fedavg(
                spec, {}, rounds=1, clients_per_round=1, hyper=ClientHyper(k_u=1, eta_u=0.1),
                server_opt=ServerOptimizer(), streams=RngStreams(8),
            )

