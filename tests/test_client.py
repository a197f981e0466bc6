import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfed.client import (
    SPLIT_KINDS,
    ClientHyper,
    Cohort,
    RowDelta,
    SplitPolicy,
    batch_schedule,
    client_update,
    reconstruct,
    run_client_round,
    split_cohort,
    split_dataset,
)
from partialfed.core import Batch, ClientDataset, ParamBlock, RngStreams, dense_grads
from partialfed.data import SyntheticDataConfig, gen_synthetic_mf
from partialfed.errors import ConfigError, DataError, NumericalError
from partialfed.models import ModelConfig, matfac_spec
from oracles import oracle_mf_two_step_update, oracle_sgd_trace
from reference import client_init


def nan_at_call(fn, call):
    """The kernel ``fn`` whose (global, local) grads on call number ``call``
    (from 0) are NaN-filled, each part it returns."""
    calls = []

    def poison(grads):
        return None if grads is None else [
            dataclasses.replace(gr, values=np.full_like(gr.values, np.nan))
            if isinstance(gr, RowDelta) else np.full_like(gr, np.nan)
            for gr in grads
        ]

    def wrapped(*args):
        out = fn(*args)
        calls.append(None)
        if len(calls) - 1 != call:
            return out
        return poison(out[0]), poison(out[1])

    return wrapped


def dense_kernel(spec):
    """``spec`` whose kernel returns the global grads as dense arrays
    (:func:`dense_grads`): over the update's compact copy of ``g[0]`` they
    step the same rows."""

    def sparse_grads(g, l, batch, norm, need_global, need_local):
        _, local = spec.sparse_grads(g, l, batch, norm, False, need_local)
        return (dense_grads(spec, g, l, batch)[0] if need_global else None), local

    return dataclasses.replace(spec, sparse_grads=sparse_grads)


def toy_client(n, client_id=0):
    i = np.arange(n)
    return ClientDataset(client_id, i % 3, 1.0 + i % 5, 100 - i)


class TestSplitPolicy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            SplitPolicy(kind="bogus")

    def test_fraction_range(self):
        with pytest.raises(ConfigError):
            SplitPolicy(support_fraction=0.0)

    def test_no_split_uses_everything(self, streams):
        cohort = split_dataset(toy_client(4), SplitPolicy(kind="no_split"), streams.generator(0))
        assert cohort.support.tolist() == [0, 1, 2, 3]
        assert cohort.query.tolist() == [0, 1, 2, 3]

    def test_by_timestamp_earlier_half_is_support(self, streams):
        ds = toy_client(4)  # timestamps 100, 99, 98, 97: later index = earlier time
        out = split_dataset(ds, SplitPolicy(kind="by_timestamp_half"), streams.generator(0))
        assert out.support.tolist() == [2, 3]
        assert out.query.tolist() == [0, 1]

    def test_single_example_falls_back_to_no_split(self, streams):
        out = split_dataset(toy_client(1), SplitPolicy(kind="half_disjoint"), streams.generator(0))
        assert out.support.tolist() == [0]
        assert out.query.tolist() == [0]

    def test_caller_dataset_left_unsplit(self, streams):
        ds = toy_client(6)
        before = dataclasses.astuple(ds)
        split = split_dataset(ds, SplitPolicy(), streams.generator("s"))
        assert all(np.array_equal(a, b) for a, b in zip(dataclasses.astuple(ds), before))
        assert len(split.support) + len(split.query) == 6

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("kind", SPLIT_KINDS)
    def test_split_dataset_is_a_cohort_of_one(self, kind, n):
        ds = toy_client(n, client_id=7)
        policy = SplitPolicy(kind=kind)
        got = split_dataset(ds, policy, np.random.default_rng(3))
        want = split_cohort([ds], policy, [np.random.default_rng(3)])
        assert isinstance(got, Cohort)
        for f in dataclasses.fields(Cohort):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name

    def test_empty_dataset_rejected(self, streams):
        ds = ClientDataset(0, np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int))
        with pytest.raises(DataError):
            split_dataset(ds, SplitPolicy(), streams.generator(0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.sampled_from(["half_disjoint", "by_timestamp_half"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_disjoint_cover_invariant(self, n, kind, seed):
        ds = toy_client(n)
        out = split_dataset(ds, SplitPolicy(kind=kind), np.random.default_rng(seed))
        support, query = set(out.support.tolist()), set(out.query.tolist())
        assert support | query == set(range(n))
        assert not (support & query)
        assert len(out.support) == int(np.ceil(n / 2))
        assert len(query) >= 1


class TestClientHyper:
    def test_zero_rates_allowed(self):
        ClientHyper(eta_r=0.0, eta_u=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            ClientHyper(eta_u=-0.1)

    def test_k_u_must_be_positive(self):
        with pytest.raises(ConfigError):
            ClientHyper(k_u=0)


class TestBatchSchedule:
    def test_cycles_through_shuffled_chunks(self):
        idx = np.arange(7)
        batches = batch_schedule(idx, 3, 6, np.random.default_rng(0))
        assert len(batches) == 6
        # one pass covers all indices before cycling repeats it
        first_pass = np.concatenate(batches[:3])
        assert sorted(first_pass.tolist()) == list(range(7))
        assert np.array_equal(batches[0], batches[3])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            batch_schedule(np.zeros(0, dtype=int), 2, 1, np.random.default_rng(0))


def zero_user_rows(*rngs):
    """An ``init_local`` of zero user embeddings (dim 2), one row per generator."""
    return [ParamBlock.of("user_embedding", np.zeros((len(rngs), 2)))]


class TestReconstruct:
    def make(self, streams, n=6):
        spec = matfac_spec(ModelConfig(embed_dim=2), 3)
        g = spec.init_global(streams.generator("g"))
        ds = split_dataset(toy_client(n), SplitPolicy(), streams.generator("s"))
        return spec, g, ds

    def test_zero_steps_returns_raw_init(self, streams):
        spec, g, ds = self.make(streams)
        hyper = ClientHyper(k_r=0, eta_r=0.5)
        l = reconstruct(spec, g, ds, hyper, streams.generator("init"), streams.generator("b"))
        expected = client_init(spec, streams.generator("init"))
        assert [(b.name, b.shape) for b in l] == [("user_embedding", (2,))]
        assert np.array_equal(l[0].values, expected[0].values)

    def test_single_full_batch_step_from_zero(self, streams):
        # One MSE step from l = 0 on a single rated item moves the local
        # vector to eta_r * 2 * rating * item_row.
        spec, g, _ = self.make(streams)
        spec = dataclasses.replace(spec, init_local=zero_user_rows)
        ds = ClientDataset(0, np.array([2]), np.array([4.0]), np.zeros(1, np.int64))
        ds = split_dataset(ds, SplitPolicy(kind="no_split"), streams.generator("s2"))
        hyper = ClientHyper(k_r=1, eta_r=0.3, batch_size=1)
        l = reconstruct(spec, g, ds, hyper, streams.generator("i2"), streams.generator("b2"))
        expected = 0.3 * 2.0 * 4.0 * g[0].array[2]
        np.testing.assert_allclose(l[0].values, expected, rtol=1e-12)

    def test_global_params_bitwise_unchanged(self, streams):
        spec, g, ds = self.make(streams)
        snapshot = [b.values.copy() for b in g]
        reconstruct(
            spec, g, ds, ClientHyper(k_r=5, eta_r=0.2, batch_size=2),
            streams.generator("i"), streams.generator("b"),
        )
        for before, block in zip(snapshot, g):
            assert np.array_equal(before, block.values)

    @pytest.mark.parametrize("bad_step, named_step", [(0, 1), (2, 3), (3, 3)])
    def test_nan_step_raises_naming_the_step(self, streams, bad_step, named_step):
        # No loss is evaluated per step: a NaN local gradient taken at any
        # step (first, middle or last of k_r = named_step + 1) is caught by
        # the one check of the result, which names the last step.
        spec, g, ds = self.make(streams)
        spec = dataclasses.replace(spec, sparse_grads=nan_at_call(spec.sparse_grads, bad_step))
        hyper = ClientHyper(k_r=named_step + 1, eta_r=0.2, batch_size=2)
        with pytest.raises(NumericalError, match=f"reconstruction step {named_step}$"):
            reconstruct(spec, g, ds, hyper, streams.generator("i"), streams.generator("b"))

    @pytest.mark.parametrize("steps", [1, 4, 10])
    def test_matches_fd_sgd_oracle(self, streams, steps):
        # The oracle re-derives every gradient from the loss by finite
        # differences; tolerance is loose because its error compounds.
        spec, g, ds = self.make(streams)
        hyper = ClientHyper(k_r=steps, eta_r=0.2, batch_size=2)
        zero_init = dataclasses.replace(spec, init_local=zero_user_rows)
        l = reconstruct(zero_init, g, ds, hyper, streams.generator("i"), streams.generator("b"))
        batches = [
            Batch(ds.features[b], ds.targets[b], np.ones(len(b)))
            for b in batch_schedule(ds.support, 2, steps, streams.generator("b"))
        ]
        trace = oracle_sgd_trace(
            spec, g, [ParamBlock.of("user_embedding", np.zeros(2))],
            batches, 0.2, steps, part="local",
        )
        np.testing.assert_allclose(l[0].values, trace[-1], rtol=1e-3, atol=1e-6)


class TestClientUpdate:
    def make(self, streams):
        spec = matfac_spec(ModelConfig(embed_dim=2), 4)
        g = spec.init_global(streams.generator("g"))
        l = client_init(spec, streams.generator("l"))
        clients, _, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=3, num_items=4, true_rank=2, ratings_per_user=4,
                                noise_std=0.3, signal_std=0.8),
            8,
        )
        ds = split_dataset(clients[0], SplitPolicy(), streams.generator("s"))
        return spec, g, l, ds

    def test_single_step_equals_negative_scaled_gradient(self, streams):
        spec, g, l, ds = self.make(streams)
        hyper = ClientHyper(k_u=1, eta_u=0.25, batch_size=len(ds.query))
        result, _ = client_update(spec, g, l, ds, hyper, streams.generator("u"))
        dense = result.delta(0, g)
        query = Batch(ds.features[ds.query], ds.targets[ds.query], np.ones(len(ds.query)))
        expected, _ = dense_grads(spec, g, l, query)
        np.testing.assert_allclose(dense[0], -0.25 * expected[0], rtol=1e-12)

    def test_zero_rate_gives_zero_delta(self, streams):
        spec, g, l, ds = self.make(streams)
        hyper = ClientHyper(k_u=3, eta_u=0.0, batch_size=2)
        result, _ = client_update(spec, g, l, ds, hyper, streams.generator("u"))
        for entry in result.delta(0, g):
            assert np.all(entry == 0.0)

    def test_two_step_full_batch_matches_hand_rolled_oracle(self, streams):
        spec, g, l, ds = self.make(streams)
        n_q = len(ds.query)
        hyper = ClientHyper(k_u=2, eta_u=0.2, batch_size=n_q)
        result, _ = client_update(spec, g, l, ds, hyper, streams.generator("u2"))
        batches = batch_schedule(ds.query, n_q, 2, streams.generator("u2"))
        q_after = oracle_mf_two_step_update(
            g[0].array, l[0].values, ds.features, ds.targets, 0.2, batches
        )
        dense = result.delta(0, g)[0].reshape(g[0].shape)
        np.testing.assert_array_equal(dense, q_after - g[0].array)

    def test_n_i_is_query_size(self, streams):
        spec, g, l, ds = self.make(streams)
        result, _ = client_update(spec, g, l, ds, ClientHyper(), streams.generator("u"))
        assert result.client_ids.tolist() == [ds.client_ids[0]]
        assert result.n.tolist() == [len(ds.query)] == ds.query_n.tolist()

    def test_local_params_untouched_without_joint_training(self, streams):
        spec, g, l, ds = self.make(streams)
        snapshot = l[0].values.copy()
        _, l_out = client_update(
            spec, g, l, ds, ClientHyper(k_u=4, eta_u=0.2, batch_size=2), streams.generator("u")
        )
        assert np.array_equal(l[0].values, snapshot)
        # A copy of the caller's locals comes back, unstepped.
        assert np.array_equal(l_out[0].values, snapshot)
        assert not np.shares_memory(l_out[0].values, l[0].values)

    @pytest.mark.parametrize("joint", [False, True])
    @pytest.mark.parametrize("kernel", ["sparse_grads", "grad_global"])
    def test_caller_blocks_never_mutated(self, streams, joint, kernel):
        spec, g, l, ds = self.make(streams)
        if kernel == "grad_global":
            spec = dense_kernel(spec)
        snapshot = [b.values.copy() for b in g + l]
        hyper = ClientHyper(k_u=4, eta_u=0.2, batch_size=2, joint_training=joint)
        result, l_out = client_update(spec, g, l, ds, hyper, streams.generator("u"))
        for before, block in zip(snapshot, g + l):
            assert np.array_equal(before, block.values)
        assert any(np.any(d != 0) for d in result.delta(0, g))
        assert np.array_equal(l_out[0].values, l[0].values) != joint

    @pytest.mark.parametrize("bad_step", [0, 3])
    @pytest.mark.parametrize("kernel", ["sparse_grads", "grad_global"])
    def test_nan_step_raises_naming_the_client(self, streams, bad_step, kernel):
        spec, g, l, ds = self.make(streams)
        if kernel == "grad_global":
            spec = dense_kernel(spec)
        spec = dataclasses.replace(spec, sparse_grads=nan_at_call(spec.sparse_grads, bad_step))
        hyper = ClientHyper(k_u=4, eta_u=0.2, batch_size=2)
        with pytest.raises(NumericalError, match=f"client {ds.client_ids[0]}"):
            client_update(spec, g, l, ds, hyper, streams.generator("u"))

    def test_delta_ignores_support_set(self, streams):
        # Once the local parameters are fixed, the update depends only on
        # the query half.
        spec, g, l, ds = self.make(streams)
        hyper = ClientHyper(k_u=3, eta_u=0.1, batch_size=2)
        a, _ = client_update(spec, g, l, ds, hyper, streams.generator("same"))
        scrambled = dataclasses.replace(ds, support=ds.support[::-1].copy())
        b, _ = client_update(spec, g, l, scrambled, hyper, streams.generator("same"))
        for da, db in zip(a.delta(0, g), b.delta(0, g)):
            assert np.array_equal(da, db)

    def test_sparse_and_dense_paths_agree(self, streams):
        # A dense gradient over the compact rows steps them as the
        # row-sparse one does.
        spec, g, l, ds = self.make(streams)
        dense_spec = dense_kernel(spec)
        for joint in (False, True):
            hyper = ClientHyper(k_u=4, eta_u=0.15, batch_size=2, joint_training=joint)
            a, _ = client_update(spec, g, l, ds, hyper, streams.generator("cmp"))
            b, _ = client_update(dense_spec, g, l, ds, hyper, streams.generator("cmp"))
            for da, db in zip(a.delta(0, g), b.delta(0, g)):
                np.testing.assert_allclose(da, db, atol=1e-12)

    def test_sparse_path_accumulates_duplicate_rows(self, streams):
        spec = matfac_spec(ModelConfig(embed_dim=2), 3)
        g = spec.init_global(streams.generator("g"))
        l = client_init(spec, streams.generator("l"))
        ds = ClientDataset(0, np.array([1, 1]), np.array([4.0, 2.0]), np.zeros(2))
        ds = split_dataset(ds, SplitPolicy(kind="no_split"), streams.generator("s"))
        hyper = ClientHyper(k_u=1, eta_u=0.5, batch_size=2)
        a, _ = client_update(spec, g, l, ds, hyper, streams.generator("d"))
        b, _ = client_update(dense_kernel(spec), g, l, ds, hyper, streams.generator("d"))
        np.testing.assert_allclose(
            a.delta(0, g)[0], b.delta(0, g)[0], atol=1e-12
        )

    def test_empty_query_rejected(self, streams):
        # split_cohort never leaves a half empty; one built by hand cannot
        # be batched.
        spec, g, l, ds = self.make(streams)
        bad = dataclasses.replace(ds, query=np.zeros(0, dtype=int), query_n=np.array([0]))
        with pytest.raises(DataError, match="empty index set"):
            client_update(spec, g, l, bad, ClientHyper(), streams.generator("u"))


class TestRunClientRound:
    def test_result_weighs_the_query_half(self, streams):
        spec = matfac_spec(ModelConfig(embed_dim=2), 6)
        g = spec.init_global(streams.generator("g"))
        clients, _, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=2, num_items=6, true_rank=2, ratings_per_user=6,
                                noise_std=0.3, signal_std=0.8),
            1,
        )
        hyper = ClientHyper(k_r=3, k_u=2, eta_r=0.2, eta_u=0.1, batch_size=2)
        result = run_client_round(spec, g, clients[0], SplitPolicy(), hyper, streams, 0)
        assert result.client_ids.tolist() == [clients[0].client_id]
        assert result.n.tolist() == [len(clients[0].targets) // 2]

    def test_identical_inputs_reproduce_bitwise(self, streams):
        spec = matfac_spec(ModelConfig(embed_dim=2), 6)
        g = spec.init_global(streams.generator("g"))
        clients, _, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=2, num_items=6, true_rank=2, ratings_per_user=6,
                                noise_std=0.3, signal_std=0.8),
            1,
        )
        hyper = ClientHyper(k_r=2, k_u=2, eta_r=0.2, eta_u=0.1, batch_size=2)
        a = run_client_round(spec, g, clients[0], SplitPolicy(), hyper, RngStreams(9), 3)
        b = run_client_round(spec, g, clients[0], SplitPolicy(), hyper, RngStreams(9), 3)
        for da, db in zip(a.delta(0, g), b.delta(0, g)):
            assert np.array_equal(da, db)

    def test_caller_blocks_never_mutated_by_joint_training(self, streams):
        # The stored local parameters the full-aggregation baseline passes
        # in are stepped as a copy, never in place.
        spec = matfac_spec(ModelConfig(embed_dim=2), 6)
        g = spec.init_global(streams.generator("g"))
        stored = client_init(spec, streams.generator("l"))
        clients, _, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=2, num_items=6, true_rank=2, ratings_per_user=6,
                                noise_std=0.3, signal_std=0.8),
            1,
        )
        snapshot = [b.values.copy() for b in g + stored]
        hyper = ClientHyper(k_u=3, eta_u=0.2, batch_size=2, joint_training=True)
        result = run_client_round(
            spec, g, clients[0], SplitPolicy(), hyper, streams, 1, initial_local=stored
        )
        for before, block in zip(snapshot, g + stored):
            assert np.array_equal(before, block.values)
        assert any(np.any(d != 0) for d in result.delta(0, g))
