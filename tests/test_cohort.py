"""A cohort computed as one batch must equal its clients computed one by one.

The reference in every test is the single-client API (``run_client_round``,
``reconstruct``) mapped over the clients, with the round loop and the
reconstruction evaluation re-written here client by client.  The batched
path sums in another order, so agreement is to 1e-12 relative.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfed.client import (
    ClientHyper,
    SplitPolicy,
    reconstruct,
    reconstruct_cohort,
    run_client_round,
    run_cohort,
    split_dataset,
)
from partialfed.core import ClientDataset, RngStreams, RowDelta, finalize_metrics, merge_metrics
from partialfed.data import SyntheticMFConfig, gen_synthetic_mf
from partialfed.errors import NumericalError
from partialfed.evaluation import EvalMode, _finalize_with_macro, recon_eval
from partialfed.models import MatFacConfig, NwpConfig, matfac_spec, oov_nwp_spec
from partialfed.server import ServerOptimizer, aggregate, run_training, sample_clients, server_step

TOL = 1e-12


def assert_close(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-300)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    assert err <= TOL * scale, f"{what}: max abs error {err:g} vs scale {scale:g}"


def assert_metrics_close(got, want, what):
    assert set(got) == set(want), what
    for k in want:
        assert got[k].weight == want[k].weight, f"{what} {k} weight"
        assert_close(got[k].value, want[k].value, f"{what} {k}")


def assert_results_match(cohort, reference):
    assert [r.client_id for r in cohort] == [r.client_id for r in reference]
    for got, want in zip(cohort, reference):
        cid = want.client_id
        assert got.n_i == want.n_i
        assert len(got.delta) == len(want.delta)
        for d_got, d_want in zip(got.delta, want.delta):
            if hasattr(d_want, "rows"):
                assert np.array_equal(d_got.rows, d_want.rows), f"client {cid} rows"
                assert_close(d_got.values, d_want.values, f"client {cid} delta")
            else:
                assert_close(d_got, d_want, f"client {cid} delta")
        assert_metrics_close(got.query_metrics, want.query_metrics, f"client {cid}")
        if want.updated_local is None:
            assert got.updated_local is None
        else:
            for b_got, b_want in zip(got.updated_local, want.updated_local):
                assert b_got.name == b_want.name and b_got.shape == b_want.shape
                assert_close(b_got.values, b_want.values, f"client {cid} local")


def mf_population(num_users=9, num_items=25, ratings_per_user=13, seed=4):
    clients, _, _ = gen_synthetic_mf(
        SyntheticMFConfig(
            num_users=num_users, num_items=num_items, true_rank=3,
            ratings_per_user=ratings_per_user, seed=seed,
        )
    )
    spec = matfac_spec(MatFacConfig(num_items=num_items, embed_dim=4))
    return spec, clients


def nwp_population(num_clients=9, seed=4):
    """Next-word clients: several global blocks, so cohorts run client by
    client."""
    cfg = NwpConfig(vocab_size=5, num_oov_buckets=3, embed_dim=3, context_window=2)
    rng = np.random.default_rng(seed)
    clients = [
        ClientDataset(
            cid,
            features=rng.integers(-cfg.num_oov_buckets, cfg.num_global_rows, size=(n, 2)),
            targets=rng.integers(0, cfg.num_classes, size=n).astype(float),
            weights=np.ones(n),
            timestamps=np.arange(n),
        )
        for cid, n in zip(range(num_clients), rng.integers(2, 14, size=num_clients))
    ]
    return oov_nwp_spec(cfg), clients


def compare_round(spec, g, datasets, policy, hyper, streams, round_idx=3, initial_locals=None):
    cohort = run_cohort(
        spec, g, datasets, policy, hyper, streams, round_idx, initial_locals=initial_locals
    )
    reference = [
        run_client_round(
            spec, g, ds, policy, hyper, streams, round_idx,
            initial_local=None if initial_locals is None else initial_locals[i],
        )
        for i, ds in enumerate(datasets)
    ]
    assert_results_match(cohort, reference)
    return cohort


HYPER = ClientHyper(k_r=7, k_u=9, eta_r=0.2, eta_u=0.15, batch_size=5)


class TestRunCohortMatchesClientRounds:
    def test_fedrecon(self, streams):
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        for kind in ("half_disjoint", "by_timestamp_half"):
            compare_round(spec, g, clients, SplitPolicy(kind=kind), HYPER, streams)

    def test_fedavg_joint_from_initial_locals(self, streams):
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        stored = [spec.init_local(streams.generator(ds.client_id, "stored")) for ds in clients]
        snapshot = [l[0].values.copy() for l in stored]
        hyper = dataclasses.replace(HYPER, joint_training=True)
        compare_round(spec, g, clients, SplitPolicy(kind="no_split"), hyper, streams, 0, stored)
        for before, l in zip(snapshot, stored):
            assert np.array_equal(before, l[0].values)

    def test_updated_locals_own_their_memory(self, streams):
        # The server stores each updated local; a view into the cohort's
        # stacked locals would keep the whole stack alive with it.
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        stored = [spec.init_local(streams.generator(ds.client_id, "stored")) for ds in clients]
        hyper = dataclasses.replace(HYPER, joint_training=True)
        results = run_cohort(
            spec, g, clients, SplitPolicy(kind="no_split"), hyper, streams, 0,
            initial_locals=stored,
        )
        values = [r.updated_local[0].values for r in results]
        for i, v in enumerate(values):
            held = v
            while held.base is not None:
                held = held.base
            assert held.nbytes == v.nbytes
            assert not any(np.shares_memory(v, w) for w in values[i + 1:])

    def test_ragged_minibatches(self, streams):
        spec, clients = mf_population(ratings_per_user=13)
        g = spec.init_global(streams.generator("g"))
        splits = [split_dataset(ds, SplitPolicy(), streams.generator(0)) for ds in clients]
        # 13 examples split 7 / 6: neither half is a multiple of the batch size.
        assert all(len(d.support_idx) % 5 and len(d.query_idx) % 5 for d in splits)
        compare_round(spec, g, clients, SplitPolicy(), HYPER, streams)

    def test_repeated_items_within_a_batch(self, streams):
        spec = matfac_spec(MatFacConfig(num_items=3, embed_dim=2))
        g = spec.init_global(streams.generator("g"))
        rng = np.random.default_rng(0)
        clients = [
            ClientDataset(
                cid,
                features=rng.integers(0, 2, size=11),
                targets=rng.integers(1, 6, size=11).astype(float),
                weights=np.ones(11),
                timestamps=np.arange(11),
            )
            for cid in (2, 5, 7)
        ]
        compare_round(spec, g, clients, SplitPolicy(), HYPER, streams)

    def test_single_example_client_uses_no_split(self, streams):
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        clients[3] = clients[3].subset(np.array([4]))
        results = compare_round(spec, g, clients, SplitPolicy(), HYPER, streams)
        assert results[3].n_i == 1

    def test_zero_reconstruction_steps(self, streams):
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        compare_round(spec, g, clients, SplitPolicy(), dataclasses.replace(HYPER, k_r=0), streams)

    def test_nwp_cohort_runs_client_by_client(self, streams, nwp_toy):
        spec, cfg, g, _, _ = nwp_toy
        rng = np.random.default_rng(1)
        clients = [
            ClientDataset(
                cid,
                features=rng.integers(-cfg.num_oov_buckets, cfg.num_global_rows, size=(n, 2)),
                targets=rng.integers(0, cfg.num_classes, size=n).astype(float),
                weights=np.ones(n),
                timestamps=np.arange(n),
            )
            for cid, n in ((0, 7), (3, 1), (4, 12))
        ]
        compare_round(spec, g, clients, SplitPolicy(), HYPER, streams)

    def test_empty_cohort(self, streams):
        spec, _ = mf_population()
        g = spec.init_global(streams.generator("g"))
        assert run_cohort(spec, g, [], SplitPolicy(), HYPER, streams, 0) == []


@st.composite
def mf_rounds(draw):
    """A small MF population (ragged sizes, repeated items, non-unit
    weights, sparse client ids; up to 20 clients, so some cohorts seed their
    streams as arrays) and one round's settings."""
    num_items = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(1, 14), min_size=1, max_size=20))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=len(sizes), max_size=len(sizes),
                        unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clients = [
        ClientDataset(
            cid,
            features=rng.integers(0, num_items, size=n),
            targets=rng.integers(1, 6, size=n).astype(float),
            weights=rng.uniform(0.25, 2.0, size=n),
            timestamps=rng.integers(0, 5, size=n),
        )
        for cid, n in zip(ids, sizes)
    ]
    spec = matfac_spec(MatFacConfig(num_items=num_items, embed_dim=draw(st.integers(1, 6))))
    hyper = ClientHyper(
        k_r=draw(st.integers(0, 4)),
        k_u=draw(st.integers(1, 4)),
        eta_r=draw(st.floats(0.0, 0.3)),
        eta_u=draw(st.floats(0.0, 0.3)),
        batch_size=draw(st.integers(1, 6)),
        joint_training=draw(st.booleans()),
    )
    policy = SplitPolicy(
        kind=draw(st.sampled_from(["half_disjoint", "by_timestamp_half", "no_split"])),
        support_fraction=draw(st.floats(0.05, 1.0)),
    )
    return spec, clients, hyper, policy, draw(st.booleans()), draw(st.integers(0, 2**31))


@settings(max_examples=60, deadline=None)
@given(mf_rounds())
def test_cohort_is_the_mapped_client_round(case):
    # Deltas, n_i and joint-trained locals bit for bit; query metrics to
    # 1e-12 (the padded owner-axis call sums in another order).
    spec, clients, hyper, policy, stored, seed = case
    streams = RngStreams(seed)
    g = spec.init_global(streams.generator("g"))
    initial = (
        [spec.init_local(streams.generator(ds.client_id, "stored")) for ds in clients]
        if stored
        else None
    )
    cohort = run_cohort(spec, g, clients, policy, hyper, streams, 2, initial_locals=initial)
    reference = [
        run_client_round(
            spec, g, ds, policy, hyper, streams, 2,
            initial_local=None if initial is None else initial[i],
        )
        for i, ds in enumerate(clients)
    ]
    assert [r.client_id for r in cohort] == [r.client_id for r in reference]
    for got, want in zip(cohort, reference):
        assert got.n_i == want.n_i
        assert np.array_equal(got.delta[0].rows, want.delta[0].rows)
        assert np.array_equal(got.delta[0].values, want.delta[0].values)
        assert set(got.query_metrics) == set(want.query_metrics)
        for k, m in want.query_metrics.items():
            assert_close(got.query_metrics[k].value, m.value, k)
            assert_close(got.query_metrics[k].weight, m.weight, k + " weight")
        if hyper.joint_training:
            assert np.array_equal(got.updated_local[0].values, want.updated_local[0].values)
        else:
            assert got.updated_local is None


def reference_training(spec, clients, *, rounds, clients_per_round, policy, hyper, streams,
                       aggregate_local):
    """run_training's loop, one run_client_round per sampled client."""
    population = sorted(clients)
    g = spec.init_global(streams.generator("global_init"))
    opt = ServerOptimizer().fresh()
    store = (
        {cid: spec.init_local(streams.generator(cid, "server_local_init")) for cid in population}
        if aggregate_local
        else None
    )
    if aggregate_local:
        policy = SplitPolicy(kind="no_split")
        hyper = dataclasses.replace(hyper, joint_training=True)
    train_metrics = []
    for t in range(rounds):
        results = [
            run_client_round(
                spec, g, clients[cid], policy, hyper, streams, t,
                initial_local=store[cid] if aggregate_local else None,
            )
            for cid in sample_clients(population, clients_per_round, streams, t)
        ]
        delta, _ = aggregate(results, g)
        g = server_step(opt, g, delta)
        if aggregate_local:
            for res in results:
                store[res.client_id] = res.updated_local
        train_metrics.append(finalize_metrics(merge_metrics(r.query_metrics for r in results)))
    return g, train_metrics, store


@pytest.mark.parametrize("aggregate_local", [False, True])
def test_two_rounds_of_training_match_the_client_loop(aggregate_local):
    spec, clients = mf_population(num_users=10)
    clients = {ds.client_id: ds for ds in clients}
    kwargs = dict(
        rounds=2, clients_per_round=6, policy=SplitPolicy(), hyper=HYPER,
        aggregate_local=aggregate_local,
    )
    got = run_training(spec, clients, server_opt=ServerOptimizer(), streams=RngStreams(31),
                       **kwargs)
    g, train_metrics, store = reference_training(spec, clients, streams=RngStreams(31), **kwargs)
    assert_close(got.global_params[0].values, g[0].values, "global parameters")
    for report, want in zip(got.reports, train_metrics):
        assert set(report.train_metrics) == set(want)
        for k in want:
            assert_close(report.train_metrics[k], want[k], f"round {report.round} {k}")
    if aggregate_local:
        for cid in store:
            assert_close(got.local_store[cid][0].values, store[cid][0].values, f"store {cid}")


def test_two_repeats_of_recon_eval_match_the_client_loop():
    spec, clients = mf_population(num_users=12)
    g = spec.init_global(RngStreams(2).generator("g"))
    hyper = ClientHyper(k_r=6, eta_r=0.2, batch_size=5)
    mode = EvalMode(kind="recon_eval", recon_hyper=hyper, repeats=2, clients_per_repeat=7)
    streams = RngStreams(5)
    got = recon_eval(spec, g, clients, SplitPolicy(), mode, streams, namespace="ev")
    for rep, per_repeat in enumerate(got.per_repeat):
        chosen = sorted(
            streams.generator(rep, "ev:sample").choice(len(clients), size=7, replace=False)
        )
        per_client = []
        for ci in chosen:
            cid = clients[ci].client_id
            split_rng = streams.generator(rep, cid, "ev:split")
            dsx = split_dataset(clients[ci], SplitPolicy(), split_rng)
            l = reconstruct(
                spec, g, dsx, hyper,
                streams.generator(rep, cid, "ev:local_init"),
                streams.generator(rep, cid, "ev:recon_batches"),
            )
            per_client.append(spec.metrics(g, l, dsx.query_batch()))
        want = _finalize_with_macro(per_client)
        assert set(per_repeat) == set(want)
        for k in want:
            assert_close(per_repeat[k], want[k], f"repeat {rep} {k}")


MARK = 2.0  # the example weight that flags a poisoned client's examples


def poison(ds: ClientDataset) -> ClientDataset:
    """The client's data with every example weighing MARK."""
    return dataclasses.replace(ds, weights=np.full(ds.n, MARK))


def nan_kernel(spec):
    """``spec`` whose kernel turns the grads of every MARK-weight example,
    and the local grads of its owner, into NaN.  A flat batch is one owner;
    a dense grad belongs to the whole batch."""

    def sparse_grads(g, l, batch, norm, need_global, need_local):
        glob, local = spec.sparse_grads(g, l, batch, norm, need_global, need_local)
        marked = np.asarray(batch.weights) == MARK
        owner = marked.any(axis=-1)
        for grad in glob or []:
            if isinstance(grad, RowDelta):
                grad.values.reshape(marked.shape + (-1,))[marked] = np.nan
            elif marked.any():
                grad[:] = np.nan
        for grad in local or []:
            grad.reshape(owner.shape + (-1,))[owner] = np.nan
        return glob, local

    return dataclasses.replace(spec, sparse_grads=sparse_grads)


@pytest.mark.parametrize("position", [4, -1])
@pytest.mark.parametrize("algorithm", ["fedrecon", "fedavg"])
@pytest.mark.parametrize("kernel", ["cohort", "client_by_client"])
def test_nan_in_training_names_round_and_client(algorithm, kernel, position):
    # Every client pads its short minibatches at the same steps; the NaNs of
    # the poisoned one, the last in the batched layout or not, must not
    # reach the others.
    spec, clients = mf_population() if kernel == "cohort" else nwp_population()
    clients = {ds.client_id: ds for ds in clients}
    bad = sorted(clients)[position]
    clients[bad] = poison(clients[bad])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match=rf"^round 0, client {bad}: "):
            run_training(
                nan_kernel(spec), clients, rounds=1, clients_per_round=len(clients), policy=SplitPolicy(),
                hyper=HYPER, server_opt=ServerOptimizer(), streams=RngStreams(3),
                aggregate_local=algorithm == "fedavg",
            )


@pytest.mark.parametrize("kernel", ["cohort", "client_by_client"])
def test_nan_in_recon_eval_names_repeat_and_client(kernel):
    spec, clients = mf_population() if kernel == "cohort" else nwp_population()
    bad = clients[2].client_id
    clients[2] = poison(clients[2])
    g = spec.init_global(RngStreams(2).generator("g"))
    mode = EvalMode(
        kind="recon_eval", recon_hyper=HYPER, repeats=1, clients_per_repeat=len(clients)
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match=rf"^repeat 0, client {bad}: "):
            recon_eval(nan_kernel(spec), g, clients, SplitPolicy(), mode, RngStreams(3))


def test_reconstruct_cohort_keeps_per_client_streams(streams):
    # A client's reconstruction does not depend on which cohort it is in.
    spec, clients = mf_population()
    g = spec.init_global(streams.generator("g"))
    _, alone = reconstruct_cohort(spec, g, clients[4:5], SplitPolicy(), HYPER, streams, 1)
    _, together = reconstruct_cohort(spec, g, clients, SplitPolicy(), HYPER, streams, 1)
    assert_close(together[0].array[4], alone[0].array[0], "client 4 local")
