"""A cohort computed as one batch must equal its clients computed one by one.

The reference in every test is ``reference.py``'s per-client code
(``run_client_round``, ``reconstruct``) mapped over the clients, with the
round loop and the reconstruction evaluation re-written here client by
client.  The batched path sums in another order, so agreement is to 1e-12
relative.  The package's single-client API runs a cohort of one: bit for
bit the reference for matrix factorization, to 1e-12 for next-word
prediction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from oracles import oracle_weighted_mean
from partialfed import client as client_module
from partialfed import core as core_module
from partialfed import runner as runner_module
from partialfed.client import (
    ClientHyper,
    SplitPolicy,
    _cohort_batches,
    _reconstructed,
    _split_and_seed,
    _update_cohort,
    batch_schedule,
    client_update,
    cohort_metrics,
    map_chunks,
    owner_chunks,
    reconstruct,
    run_client_round,
    run_cohort,
    split_cohort,
    split_dataset,
)
from partialfed.core import (
    Batch,
    ClientDataset,
    ParamBlock,
    RngStreams,
    RowDelta,
    _stack,
    blocks_size,
)
from partialfed.config import load_config
from partialfed.data import SyntheticDataConfig, gen_synthetic_mf
from partialfed.errors import EvaluationError, NumericalError
from partialfed.evaluation import EvalMode, recon_eval, standard_eval
from partialfed.models import ModelConfig, matfac_spec, oov_nwp_spec
from partialfed.server import (
    ServerOptimizer,
    aggregate,
    run_training,
    sample_clients,
    server_moments,
    server_step,
)

TOL = 1e-12


def assert_close(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-300)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    assert err <= TOL * scale, f"{what}: max abs error {err:g} vs scale {scale:g}"


def mapped_client_rounds(spec, g, datasets, policy, hyper, streams, round_idx, initial_locals):
    """The reference: ``reference.run_client_round`` mapped over the clients."""
    return [
        reference.run_client_round(
            spec, g, ds, policy, hyper, streams, round_idx,
            initial_local=None if initial_locals is None else initial_locals[i],
        )
        for i, ds in enumerate(datasets)
    ]


def agree(got, want, what, exact):
    """Bit for bit if ``exact``, else to 1e-12."""
    if exact:
        assert np.array_equal(got, want), what
    else:
        assert_close(got, want, what)


def stored_locals(spec, clients, streams):
    """Each client's local blocks, drawn from its ``(client id, "stored")``
    stream."""
    return [
        reference.client_init(spec, streams.generator(ds.client_id, "stored")) for ds in clients
    ]


def client_results(updates):
    """Each client's segment of the cohort updates ``updates``, in cohort
    order, as a ``reference.ClientResult``; a segment's rows ascend."""
    results = []
    for u in updates:
        for c, (cid, n_i) in enumerate(zip(u.client_ids.tolist(), u.n.tolist(), strict=True)):
            seg = slice(u.bounds[c], u.bounds[c + 1])
            assert np.all(np.diff(u.rows[seg]) > 0), f"client {cid} rows"
            delta = [RowDelta(u.rows[seg], u.values[seg])] + [d[c] for d in u.dense]
            results.append(reference.ClientResult(cid, delta, n_i))
    return results


def cohort_results(spec, g, datasets, policy, hyper, streams, round_idx, initial_locals=None):
    """``run_cohort``'s updates as :func:`client_results`, each carrying its
    query metrics as ``reference.per_owner`` cuts them from the cohort's
    arrays."""
    updates, metrics = run_cohort(
        spec, g, datasets, policy, hyper, streams, round_idx, initial_locals=initial_locals
    )
    results = client_results(updates)
    for res, m in zip(results, reference.per_owner(metrics) if results else [], strict=True):
        res.query_metrics = m
    return results


def stacked_run_cohort(spec, g, datasets, policy, hyper, streams, round_idx, initial_locals):
    """:func:`cohort_results` from a stacked copy of ``initial_locals`` (one
    per dataset, or None); returns the results and those stacked locals
    after the round, which joint training steps in place."""
    stacked = None if initial_locals is None else _stack(initial_locals)
    results = cohort_results(spec, g, datasets, policy, hyper, streams, round_idx, stacked)
    return results, stacked


def assert_locals_agree(stacked, want_results, initial_locals, *, exact):
    """Row ``c`` of the stacked locals a cohort started from holds client
    ``c``'s locals as the reference left them: its updated locals under
    joint training, else its initial blocks."""
    for c, (want, start) in enumerate(zip(want_results, initial_locals, strict=True)):
        expected = start if want.updated_local is None else want.updated_local
        for b_got, b_want in zip(stacked, expected, strict=True):
            assert b_got.name == b_want.name and b_got.shape[1:] == b_want.shape
            agree(b_got.array[c], b_want.array, f"client {want.client_id} local", exact)


def assert_deltas_agree(got_results, want_results, *, exact):
    """n_i and delta rows equal; delta values bit for bit if ``exact``,
    else to 1e-12."""
    assert [r.client_id for r in got_results] == [r.client_id for r in want_results]
    for got, want in zip(got_results, want_results):
        cid = want.client_id
        assert got.n_i == want.n_i
        assert len(got.delta) == len(want.delta)
        for d_got, d_want in zip(got.delta, want.delta):
            if isinstance(d_want, RowDelta):
                assert np.array_equal(d_got.rows, d_want.rows), f"client {cid} rows"
                agree(d_got.values, d_want.values, f"client {cid} delta", exact)
            else:
                agree(d_got, d_want, f"client {cid} delta", exact)


def assert_rounds_agree(got_results, want_results, *, exact):
    """:func:`assert_deltas_agree`, and query metrics bit for bit: a padded
    owner-axis call scores a client as a flat call on its examples does.
    Local blocks are compared apart: a cohort steps its stacked locals
    (:func:`assert_locals_agree`)."""
    assert_deltas_agree(got_results, want_results, exact=exact)
    for got, want in zip(got_results, want_results):
        cid = want.client_id
        assert set(got.query_metrics) == set(want.query_metrics), f"client {cid}"
        for k, m in want.query_metrics.items():
            agree(got.query_metrics[k].value, m.value, f"client {cid} {k}", True)
            agree(got.query_metrics[k].weight, m.weight, f"client {cid} {k} weight", True)


def mf_population(num_users=9, num_items=25, ratings_per_user=13, seed=4):
    clients, _, _ = gen_synthetic_mf(
        SyntheticDataConfig(num_users=num_users, num_items=num_items, true_rank=3,
                            ratings_per_user=ratings_per_user, noise_std=0.3, signal_std=0.8),
        seed,
    )
    spec = matfac_spec(ModelConfig(embed_dim=4), num_items)
    return spec, clients


def nwp_population(num_clients=9, seed=4, sizes=(2, 14), init_stddev=0.1):
    """Next-word clients of ``sizes[0]`` to ``sizes[1] - 1`` examples:
    in-vocabulary and bucket contexts, three global blocks, two of them
    dense."""
    cfg = ModelConfig(
        vocab_size=5, num_oov_buckets=3, embed_dim=3, context_window=2, init_stddev=init_stddev
    )
    rng = np.random.default_rng(seed)
    clients = [
        ClientDataset(
            cid,
            features=rng.integers(-cfg.num_oov_buckets, cfg.num_classes, size=(n, 2)),
            targets=rng.integers(0, cfg.num_classes, size=n).astype(float),
            timestamps=np.arange(n),
        )
        for cid, n in zip(range(num_clients), rng.integers(*sizes, size=num_clients))
    ]
    return oov_nwp_spec(cfg), clients


def compare_round(spec, g, datasets, policy, hyper, streams, round_idx=3, initial_locals=None):
    cohort, stacked = stacked_run_cohort(
        spec, g, datasets, policy, hyper, streams, round_idx, initial_locals
    )
    reference = mapped_client_rounds(
        spec, g, datasets, policy, hyper, streams, round_idx, initial_locals
    )
    assert_rounds_agree(cohort, reference, exact=False)
    if initial_locals is not None:
        assert_locals_agree(stacked, reference, initial_locals, exact=False)
    return cohort


HYPER = ClientHyper(k_r=7, k_u=9, eta_r=0.2, eta_u=0.15, batch_size=5)


class TestRunCohortMatchesClientRounds:
    def test_fedrecon(self, streams):
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        for kind in ("half_disjoint", "by_timestamp_half"):
            compare_round(spec, g, clients, SplitPolicy(kind=kind), HYPER, streams)

    def test_fedavg_joint_from_initial_locals(self, streams):
        # The stacked locals are stepped in place into the reference's
        # updated locals (compare_round checks them).
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        stored = stored_locals(spec, clients, streams)
        hyper = dataclasses.replace(HYPER, joint_training=True)
        compare_round(spec, g, clients, SplitPolicy(kind="no_split"), hyper, streams, 0, stored)

    def test_ragged_minibatches(self, streams):
        spec, clients = mf_population(ratings_per_user=13)
        g = spec.init_global(streams.generator("g"))
        splits = [
            reference.split_dataset(ds, SplitPolicy(), streams.generator(0)) for ds in clients
        ]
        # 13 examples split 7 / 6: neither half is a multiple of the batch size.
        assert all(len(d.support_idx) % 5 and len(d.query_idx) % 5 for d in splits)
        compare_round(spec, g, clients, SplitPolicy(), HYPER, streams)

    def test_repeated_items_within_a_batch(self, streams):
        spec = matfac_spec(ModelConfig(embed_dim=2), 3)
        g = spec.init_global(streams.generator("g"))
        rng = np.random.default_rng(0)
        clients = [
            ClientDataset(
                cid,
                features=rng.integers(0, 2, size=11),
                targets=rng.integers(1, 6, size=11).astype(float),
                timestamps=np.arange(11),
            )
            for cid in (2, 5, 7)
        ]
        compare_round(spec, g, clients, SplitPolicy(), HYPER, streams)

    def test_single_example_client_uses_no_split(self, streams):
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        clients[3] = reference.subset(clients[3], np.array([4]))
        results = compare_round(spec, g, clients, SplitPolicy(), HYPER, streams)
        assert results[3].n_i == 1

    def test_zero_reconstruction_steps(self, streams):
        spec, clients = mf_population()
        g = spec.init_global(streams.generator("g"))
        compare_round(spec, g, clients, SplitPolicy(), dataclasses.replace(HYPER, k_r=0), streams)

    def test_next_word_prediction(self, streams, nwp_toy):
        spec, cfg, g, _, _ = nwp_toy
        rng = np.random.default_rng(1)
        clients = [
            ClientDataset(
                cid,
                features=rng.integers(-cfg.num_oov_buckets, cfg.num_classes, size=(n, 2)),
                targets=rng.integers(0, cfg.num_classes, size=n).astype(float),
                timestamps=np.arange(n),
            )
            for cid, n in ((0, 7), (3, 1), (4, 12))
        ]
        compare_round(spec, g, clients, SplitPolicy(), HYPER, streams)

    def test_empty_cohort(self, streams):
        spec, _ = mf_population()
        g = spec.init_global(streams.generator("g"))
        assert run_cohort(spec, g, [], SplitPolicy(), HYPER, streams, 0) == ([], {})


@st.composite
def round_settings(draw):
    """One round's hyperparameters and split, whether clients start from
    stored locals (joint training from ``initial_locals``), and a seed."""
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
    return hyper, policy, draw(st.booleans()), draw(st.integers(0, 2**31))


@st.composite
def populations(draw, columns):
    """Up to 20 clients of ragged sizes and sparse ids,
    so some cohorts seed their streams as arrays; ``columns(rng, n)`` draws
    a client's features and targets."""
    sizes = draw(st.lists(st.integers(1, 14), min_size=1, max_size=20))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=len(sizes), max_size=len(sizes),
                        unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        ClientDataset(
            cid,
            *columns(rng, n),
            timestamps=rng.integers(0, 5, size=n),
        )
        for cid, n in zip(ids, sizes)
    ]


@st.composite
def mf_rounds(draw):
    """A small MF population (repeated items) and one round's settings."""
    num_items = draw(st.integers(1, 9))
    clients = draw(populations(
        lambda rng, n: (rng.integers(0, num_items, size=n), rng.integers(1, 6, size=n) * 1.0)
    ))
    spec = matfac_spec(ModelConfig(embed_dim=draw(st.integers(1, 6))), num_items)
    return (spec, clients, *draw(round_settings()))


@st.composite
def nwp_rounds(draw):
    """A small next-word population (in-vocabulary and bucket contexts; a
    client, or a whole cohort, may address no global row) under a model of
    0 to 3 buckets, and one round's settings."""
    cfg = ModelConfig(
        vocab_size=draw(st.integers(1, 5)),
        num_oov_buckets=draw(st.integers(0, 3)),
        embed_dim=draw(st.integers(1, 3)),
        context_window=draw(st.integers(1, 3)),
    )
    clients = draw(populations(lambda rng, n: (
        rng.integers(-cfg.num_oov_buckets, cfg.num_classes, size=(n, cfg.context_window)),
        rng.integers(0, cfg.num_classes, size=n) * 1.0,
    )))
    return (oov_nwp_spec(cfg), clients, *draw(round_settings()))


@settings(max_examples=60, deadline=None)
@given(mf_rounds())
def test_cohort_is_the_mapped_client_round(case):
    # Deltas, n_i and joint-trained locals bit for bit.
    spec, clients, hyper, policy, stored, seed = case
    streams = RngStreams(seed)
    g = spec.init_global(streams.generator("g"))
    initial = stored_locals(spec, clients, streams) if stored else None
    cohort, stacked = stacked_run_cohort(spec, g, clients, policy, hyper, streams, 2, initial)
    reference = mapped_client_rounds(spec, g, clients, policy, hyper, streams, 2, initial)
    assert_rounds_agree(cohort, reference, exact=True)
    if stored:
        assert_locals_agree(stacked, reference, initial, exact=True)


@settings(max_examples=60, deadline=None)
@given(nwp_rounds(), st.integers(1, 20))
def test_nwp_cohort_is_the_mapped_client_round(case, per_call):
    # To 1e-12: padded minibatches reach the output layer's matrix products
    # in other shapes.  Cut into owner chunks of ``per_call`` clients, the
    # cohort gives what one call gives, bit for bit but for the query
    # metrics, which pad to each chunk's widest client.
    spec, clients, hyper, policy, stored, seed = case
    streams = RngStreams(seed)
    g = spec.init_global(streams.generator("g"))
    initial = stored_locals(spec, clients, streams) if stored else None
    cohort, stacked = stacked_run_cohort(spec, g, clients, policy, hyper, streams, 2, initial)
    assert len(owner_chunks(spec, g, len(clients))) == 1
    reference = mapped_client_rounds(spec, g, clients, policy, hyper, streams, 2, initial)
    assert_rounds_agree(cohort, reference, exact=False)
    if stored:
        assert_locals_agree(stacked, reference, initial, exact=False)
    with owner_budget(spec, g, per_call):
        assert len(owner_chunks(spec, g, len(clients))) == -(-len(clients) // per_call)
        chunked, chunked_stacked = stacked_run_cohort(
            spec, g, clients, policy, hyper, streams, 2, initial
        )
    assert_rounds_agree(chunked, cohort, exact=True)
    if stored:
        for b_chunked, b in zip(chunked_stacked, stacked, strict=True):
            assert np.array_equal(b_chunked.values, b.values), b.name


@pytest.mark.parametrize("model", ["matfac", "oov_nwp"])
def test_a_batch_wider_than_every_half_is_the_widest_half(model, streams):
    # batch_size 10**6 over halves of a few examples, in chunks of one
    # client: every minibatch of the round and of the evaluation is as wide
    # as the cohort's widest half, a narrower chunk's too, and MF gives the
    # bits of a batch_size of that half.
    spec, population = mf_population() if model == "matfac" else nwp_population()
    clients = population[:3]
    g = spec.init_global(streams.generator("g"))
    sizes = split_cohort(clients, SplitPolicy(), [np.random.default_rng(0)] * len(clients))
    widest = int(max(sizes.support_n.max(), sizes.query_n.max()))
    widths = []

    def recording(*args):
        batches = _cohort_batches(*args)
        widths.append(batches[2].shape[-1])
        return batches

    def run(batch_size):
        hyper = ClientHyper(k_r=1, k_u=1, eta_r=0.2, eta_u=0.15, batch_size=batch_size)
        mode = EvalMode(recon_hyper=hyper, repeats=2, clients_per_repeat=len(clients))
        with owner_budget(spec, g, 1):
            return (
                cohort_results(spec, g, clients, SplitPolicy(), hyper, streams, 0),
                recon_eval(spec, g, clients, SplitPolicy(), mode, streams).metrics,
            )

    with mock.patch.object(client_module, "_cohort_batches", recording):
        wide = run(10**6)
    # Each client's support and query in the round, its support in each repeat.
    assert widths == [widest] * (4 * len(clients))
    if model == "matfac":
        narrow = run(widest)
        assert_rounds_agree(wide[0], narrow[0], exact=True)
        assert wide[1] == narrow[1]


@settings(max_examples=60, deadline=None)
@given(st.one_of(mf_rounds(), nwp_rounds()))
def test_the_single_client_api_is_the_reference(case):
    # Every client's split, reconstruction, update and whole round.  Splits
    # and MF bit for bit, query metrics included.  Next-word prediction to
    # 1e-12: a minibatch with one real example is a one-row matrix product
    # in the reference, which does not always round like the same row of
    # the cohort's padded product.
    spec, clients, hyper, policy, stored, seed = case
    exact = spec.name == "matfac"
    streams = RngStreams(seed)
    g = spec.init_global(streams.generator("g"))
    for ds in clients:
        def gen(purpose):
            return streams.generator(ds.client_id, purpose)

        got = split_dataset(ds, policy, gen("split"))
        want = reference.split_dataset(ds, policy, gen("split"))
        assert got.client_ids.tolist() == [ds.client_id]
        assert np.array_equal(got.support, want.support_idx)
        assert np.array_equal(got.query, want.query_idx)

        l_got = reconstruct(spec, g, got, hyper, gen("init"), gen("recon"))
        l_want = reference.reconstruct(spec, g, want, hyper, gen("init"), gen("recon"))
        assert [(b.name, b.shape) for b in l_got] == [(b.name, b.shape) for b in l_want]
        for b_got, b_want in zip(l_got, l_want):
            if exact:
                assert np.array_equal(b_got.values, b_want.values), b_want.name
            else:
                assert_close(b_got.values, b_want.values, b_want.name)

        l = reference.client_init(spec, gen("stored")) if stored else l_want
        update, l_stepped = client_update(spec, g, l, got, hyper, gen("update"))
        want_update = reference.client_update(spec, g, l, want, hyper, gen("update"))
        assert_deltas_agree(client_results([update]), [want_update], exact=exact)
        # The stepped copy of the caller's locals: stepped under joint training.
        expected = l if want_update.updated_local is None else want_update.updated_local
        for b_got, b_want in zip(l_stepped, expected, strict=True):
            assert b_got.name == b_want.name and b_got.shape == b_want.shape
            agree(b_got.values, b_want.values, f"client {ds.client_id} local", exact)

        initial = l if stored else None
        want_round = reference.run_client_round(
            spec, g, ds, policy, hyper, streams, 2, initial_local=initial
        )
        got_round = run_client_round(spec, g, ds, policy, hyper, streams, 2, initial_local=initial)
        assert_deltas_agree(client_results([got_round]), [want_round], exact=exact)
        # A cohort of one scores the client's query half as the reference does.
        (got_result,) = cohort_results(
            spec, g, [ds], policy, hyper, streams, 2,
            initial_locals=None if initial is None else _stack([initial]),
        )
        assert_rounds_agree([got_result], [want_round], exact=exact)
        if exact:
            assert got_result.query_metrics == want_round.query_metrics


@settings(max_examples=60, deadline=None)
@given(st.one_of(mf_rounds(), nwp_rounds()), st.integers(1, 20))
def test_a_round_aggregates_as_its_clients_one_by_one(case, per_call):
    # A round's clients in ascending id, as sampled.  Its cohort updates
    # aggregate as the reference's per-client sum over their segments and
    # as the same round cut into owner chunks of ``per_call`` clients, bit
    # for bit; as the oracle's weighted mean of the clients' dense deltas to
    # 1e-12 of the weighted mean of their magnitudes.
    spec, clients, hyper, policy, stored, seed = case
    clients = sorted(clients, key=lambda ds: ds.client_id)
    streams = RngStreams(seed)
    g = spec.init_global(streams.generator("g"))
    initial = stored_locals(spec, clients, streams) if stored else None

    def round_updates():
        stacked = None if initial is None else _stack(initial)
        return run_cohort(spec, g, clients, policy, hyper, streams, 2, initial_locals=stacked)[0]

    updates = round_updates()
    assert len(updates) == 1
    got, total = aggregate(updates, g)
    results = client_results(updates)
    want, want_total = reference.aggregate(results, g)
    assert total == want_total == sum(r.n_i for r in results)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)

    (update,) = updates
    dense = [np.concatenate(update.delta(c, g)) for c in range(len(clients))]
    n = [r.n_i for r in results]
    oracle = oracle_weighted_mean(dense, n)
    scale = oracle_weighted_mean([np.abs(d) for d in dense], n)
    assert np.all(np.abs(np.concatenate(got) - oracle) <= TOL * scale)

    with owner_budget(spec, g, per_call):
        chunked = round_updates()
    assert len(chunked) == -(-len(clients) // per_call)
    assert [r.client_id for r in client_results(chunked)] == [r.client_id for r in results]
    for a, b in zip(aggregate(chunked, g)[0], got, strict=True):
        assert np.array_equal(a, b)


def reference_training(spec, clients, *, rounds, clients_per_round, policy, hyper, streams,
                       algorithm):
    """run_training's loop, one ``reference.run_client_round`` per sampled
    client."""
    population = sorted(clients)
    g = spec.init_global(streams.generator("global_init"))
    opt = ServerOptimizer()
    moments = server_moments(opt, g)
    fedavg = algorithm == "fedavg"
    store = (
        {
            cid: reference.client_init(spec, streams.generator(cid, "server_local_init"))
            for cid in population
        }
        if fedavg
        else None
    )
    if fedavg:
        policy = SplitPolicy(kind="no_split")
        hyper = dataclasses.replace(hyper, joint_training=True)
    train_metrics = []
    for t in range(rounds):
        results = [
            reference.run_client_round(
                spec, g, clients[cid], policy, hyper, streams, t,
                initial_local=store[cid] if fedavg else None,
            )
            for cid in sample_clients(population, clients_per_round, streams, t)
        ]
        delta, _ = reference.aggregate(results, g)
        g = server_step(opt, g, delta, moments)
        if fedavg:
            for res in results:
                store[res.client_id] = res.updated_local
        train_metrics.append(
            reference.finalize_metrics(reference.merge_metrics(r.query_metrics for r in results))
        )
    return g, train_metrics, store


def owner_budget(spec, g, per_call):
    """``_OWNER_BUDGET`` patched so that batched calls take ``per_call``
    owners each."""
    per_owner = blocks_size(spec.init_local(np.random.default_rng(0))) + blocks_size(g[1:])
    return mock.patch.object(client_module, "_OWNER_BUDGET", per_call * per_owner)


def on_workers(n):
    """Owner chunks on ``n`` threads, every owner counted large and one
    owner enough for a thread, so that even a toy cohort's chunks are cut
    for them."""
    return mock.patch.multiple(client_module, _WORKERS=n, _LARGE_OWNER=1, _THREAD_CHUNK=1)


def assert_training_matches_the_client_loop(spec, clients, algorithm):
    """Two rounds of ``run_training`` against :func:`reference_training`;
    under ``fedavg`` also every stored local, and a standard evaluation of
    each client's own examples under the store.  Returns the run."""
    eval_sets = list(clients)
    clients = {ds.client_id: ds for ds in clients}
    kwargs = dict(
        rounds=2, clients_per_round=6, policy=SplitPolicy(), hyper=HYPER, algorithm=algorithm,
    )
    got = run_training(spec, clients, server_opt=ServerOptimizer(), streams=RngStreams(31),
                       **kwargs)
    g, train_metrics, store = reference_training(spec, clients, streams=RngStreams(31), **kwargs)
    for b_got, b_want in zip(got.global_params, g, strict=True):
        assert_close(b_got.values, b_want.values, f"global parameters {b_want.name}")
    for report, want in zip(got.reports, train_metrics):
        assert set(report.train_metrics) == set(want)
        for k in want:
            assert_close(report.train_metrics[k], want[k], f"round {report.round} {k}")
    if algorithm == "fedavg":
        assert got.local_store.ids.tolist() == sorted(store)
        for cid in store:
            got_blocks = reference.client_blocks(got.local_store, cid)
            for b_got, b_want in zip(got_blocks, store[cid], strict=True):
                assert_close(b_got.values, b_want.values, f"store {cid} {b_want.name}")
        scores = standard_eval(spec, got.global_params, got.local_store, eval_sets)
        want = reference.finalize_with_macro(
            [spec.metrics(g, store[ds.client_id], ds.batch()) for ds in eval_sets],
            [ds.client_id for ds in eval_sets],
        )
        assert set(scores) == set(want)
        for k in want:
            assert_close(scores[k], want[k], f"standard eval {k}")
    return got


def assert_recon_eval_matches_the_client_loop(spec, clients):
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
            dsx = reference.split_dataset(clients[ci], SplitPolicy(), split_rng)
            l = reference.reconstruct(
                spec, g, dsx, hyper,
                streams.generator(rep, cid, "ev:local_init"),
                streams.generator(rep, cid, "ev:recon_batches"),
            )
            per_client.append(spec.metrics(g, l, dsx.query_batch()))
        want = reference.finalize_with_macro(per_client, [clients[ci].client_id for ci in chosen])
        assert set(per_repeat) == set(want)
        for k in want:
            assert_close(per_repeat[k], want[k], f"repeat {rep} {k}")


@pytest.mark.parametrize("algorithm", ["fedrecon", "fedavg"])
def test_two_rounds_of_training_match_the_client_loop(algorithm):
    spec, clients = mf_population(num_users=10)
    assert_training_matches_the_client_loop(spec, clients, algorithm)


@pytest.mark.parametrize("algorithm", ["fedrecon", "fedavg"])
def test_two_rounds_of_nwp_training_in_owner_chunks_match_the_client_loop(algorithm):
    # Six clients a round in chunks of four: a full chunk and a short one.
    spec, clients = nwp_population(num_clients=10)
    with owner_budget(spec, spec.init_global(RngStreams(0).generator("g")), 4):
        assert_training_matches_the_client_loop(spec, clients, algorithm)


@pytest.mark.parametrize("model", ["matfac", "oov_nwp"])
def test_fedavg_rows_follow_client_ids(model):
    # Ids not contiguous and not from 0, one at 2**32 + 3, listed out of id
    # order: a store row found by position instead of by id gathers, steps
    # or writes back another client's locals.
    spec, clients = (
        mf_population(num_users=18) if model == "matfac" else nwp_population(num_clients=18)
    )
    ids = [5 + 7 * i for i in range(len(clients))]
    ids[11] = 2**32 + 3
    order = np.random.default_rng(0).permutation(len(clients))
    clients = [dataclasses.replace(clients[i], client_id=ids[i]) for i in order]
    assert [ds.client_id for ds in clients] != sorted(ds.client_id for ds in clients)
    got = assert_training_matches_the_client_loop(spec, clients, "fedavg")
    # An id below, between and above the stored ones is no client's row.
    for missing in (4, 6, 2**33):
        with pytest.raises(KeyError):
            got.local_store.rows([ids[0], missing])
        unseen = dataclasses.replace(clients[0], client_id=missing)
        with pytest.raises(EvaluationError, match=f"client {missing} has no stored"):
            standard_eval(spec, got.global_params, got.local_store, clients[:2] + [unseen])


def test_two_repeats_of_recon_eval_match_the_client_loop():
    spec, clients = mf_population(num_users=12)
    assert_recon_eval_matches_the_client_loop(spec, clients)


def test_two_repeats_of_nwp_recon_eval_in_owner_chunks_match_the_client_loop():
    # Seven clients a repeat in chunks of three.
    spec, clients = nwp_population(num_clients=12)
    with owner_budget(spec, spec.init_global(RngStreams(0).generator("g")), 3):
        assert_recon_eval_matches_the_client_loop(spec, clients)


def sampled(clients, rep, take, streams, namespace="eval"):
    """Positions in ``clients`` of repeat ``rep``'s sample, drawn as
    ``recon_eval`` draws it."""
    rng = streams.generator(rep, namespace + ":sample")
    return sorted(rng.choice(len(clients), size=take, replace=False).tolist())


def assert_pooled_recon_eval_is_the_repeat_loop(spec, clients, mode):
    """``recon_eval`` against ``reference.recon_eval_by_repeat``, bit for bit."""
    g = spec.init_global(RngStreams(2).generator("g"))
    args = (spec, g, clients, SplitPolicy(), mode, RngStreams(5))
    got = recon_eval(*args, namespace="ev")
    want = reference.recon_eval_by_repeat(*args, namespace="ev")
    assert got.per_repeat == want.per_repeat
    assert got.metrics == want.metrics


def varied_mf_population(num_users=16):
    """Matrix-factorization clients of 9 to 59 ratings: query halves of many
    widths, so a call scoring other owners pads to another width."""
    spec, clients = mf_population(num_users=num_users, num_items=60, ratings_per_user=59)
    sizes = np.random.default_rng(1).integers(9, 60, size=num_users)
    return spec, [reference.subset(ds, np.arange(m)) for ds, m in zip(clients, sizes)]


def recon_mode(k_r=6, repeats=3, clients_per_repeat=7):
    return EvalMode(
        recon_hyper=ClientHyper(k_r=k_r, eta_r=0.2, batch_size=5),
        repeats=repeats,
        clients_per_repeat=clients_per_repeat,
    )


@pytest.mark.parametrize("k_r", [6, 0])
@pytest.mark.parametrize("metrics_budget", [None, 200])
@pytest.mark.parametrize("per_chunk", [None, 4, 5])
def test_pooled_recon_eval_is_the_repeat_loop(k_r, metrics_budget, per_chunk):
    # Three repeats of 7 of 16 clients sample some client twice.  A small
    # metrics budget scores the owners in calls of one or two clients, and
    # owner chunks of 4 and 5 between them cut the repeats at every offset
    # from 1 to 6, so a client shares its calls with clients of other
    # repeats, padded to other widths.
    spec, clients = varied_mf_population()
    picks = [sampled(clients, rep, 7, RngStreams(5), "ev") for rep in range(3)]
    assert len(set().union(*picks)) < 21
    budget = client_module._METRICS_BUDGET if metrics_budget is None else metrics_budget
    g = spec.init_global(RngStreams(2).generator("g"))
    chunks = owner_budget(spec, g, per_chunk) if per_chunk else contextlib.nullcontext()
    with chunks, mock.patch.object(client_module, "_METRICS_BUDGET", budget):
        assert_pooled_recon_eval_is_the_repeat_loop(spec, clients, recon_mode(k_r))


@pytest.mark.parametrize("per_chunk", [3, 4, 5])
def test_pooled_nwp_recon_eval_in_chunks_across_repeats_is_the_repeat_loop(per_chunk):
    # Two repeats of 7 in chunks of 3, 4 or 5: a chunk holds the last
    # clients of repeat 0 and the first of repeat 1.  Query halves of 9 to
    # 19 examples pad to widths of 9 and more, where numpy's pairwise sum
    # groups a row otherwise than a loop does, and parameters drawn wide
    # spread the examples' log-likelihoods, so the grouping shows in the
    # rounding: summed pairwise, every case here fails.
    spec, clients = nwp_population(num_clients=12, sizes=(18, 40), init_stddev=2.0)
    with owner_budget(spec, spec.init_global(RngStreams(0).generator("g")), per_chunk):
        assert_pooled_recon_eval_is_the_repeat_loop(spec, clients, recon_mode(repeats=2))


def test_pooled_recon_eval_above_the_population_is_the_repeat_loop():
    # Every repeat samples all 9 clients, each client an owner per repeat.
    spec, clients = varied_mf_population(num_users=9)
    assert_pooled_recon_eval_is_the_repeat_loop(
        spec, clients, recon_mode(repeats=2, clients_per_repeat=50)
    )


@pytest.mark.parametrize("repeats", [1, 4])
def test_recon_eval_makes_k_r_kernel_calls_whatever_the_repeats(repeats):
    spec, clients = mf_population(num_users=12)
    kernel = mock.Mock(wraps=spec.sparse_grads)
    g = spec.init_global(RngStreams(2).generator("g"))
    counted = dataclasses.replace(spec, sparse_grads=kernel)
    recon_eval(counted, g, clients, SplitPolicy(), recon_mode(repeats=repeats), RngStreams(5))
    assert kernel.call_count == 6


MARK = 0.25  # the fractional part that flags a poisoned client's targets


def poison(ds: ClientDataset) -> ClientDataset:
    """The client's data with MARK added to every target, a whole rating or
    class id, which :func:`unmarked` takes off again."""
    return dataclasses.replace(ds, targets=ds.targets + MARK)


def unmarked(batch: Batch) -> Batch:
    return dataclasses.replace(batch, targets=np.floor(batch.targets))


def nan_kernel(spec):
    """``spec`` whose kernel turns the grads of every MARK-target example,
    and the dense grads of its owner, into NaN.  A flat batch is one owner;
    a RowDelta's values follow the feature slots that address its rows.
    The model's kernel and metrics read every target :func:`unmarked`."""

    def sparse_grads(g, l, batch, norm, need_global, need_local):
        glob, local = spec.sparse_grads(g, l, unmarked(batch), norm, need_global, need_local)
        marked = np.asarray(batch.targets) % 1 == MARK
        owner = marked.any(axis=-1)
        features = np.asarray(batch.features)
        slots = np.broadcast_to(
            marked.reshape(marked.shape + (1,) * (features.ndim - marked.ndim)), features.shape
        )
        for grads, addressed in ((glob, features >= 0), (local, features < 0)):
            for grad in grads or []:
                if isinstance(grad, RowDelta):
                    grad.values[slots[addressed]] = np.nan
                else:
                    grad.reshape(owner.shape + (-1,))[owner] = np.nan
        return glob, local

    def metrics(g, l, batch):
        return spec.metrics(g, l, unmarked(batch))

    return dataclasses.replace(spec, sparse_grads=sparse_grads, metrics=metrics)


def one_round(spec, clients, algorithm="fedrecon"):
    """One round of every client of ``clients``, a map by id."""
    return run_training(
        spec, clients, rounds=1, clients_per_round=len(clients), policy=SplitPolicy(),
        hyper=HYPER, server_opt=ServerOptimizer(), streams=RngStreams(3), algorithm=algorithm,
    )


@pytest.mark.parametrize("position", [4, -1])
@pytest.mark.parametrize("algorithm", ["fedrecon", "fedavg"])
@pytest.mark.parametrize("model", ["matfac", "oov_nwp"])
def test_nan_in_training_names_round_and_client(algorithm, model, position):
    # Every client pads its short minibatches at the same steps; the NaNs of
    # the poisoned one, the last in the batched layout or not, must not
    # reach the others.
    spec, clients = mf_population() if model == "matfac" else nwp_population()
    clients = {ds.client_id: ds for ds in clients}
    bad = sorted(clients)[position]
    clients[bad] = poison(clients[bad])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match=rf"^round 0, client {bad}: "):
            one_round(nan_kernel(spec), clients, algorithm)


@pytest.mark.parametrize("model", ["matfac", "oov_nwp"])
def test_nan_in_recon_eval_names_repeat_and_client(model):
    spec, population = mf_population() if model == "matfac" else nwp_population()
    clients = list(population)
    bad = clients[2].client_id
    clients[2] = poison(clients[2])
    g = spec.init_global(RngStreams(2).generator("g"))
    mode = EvalMode(
        kind="recon_eval", recon_hyper=HYPER, repeats=1, clients_per_repeat=len(clients)
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match=rf"^repeat 0, client {bad}: "):
            recon_eval(nan_kernel(spec), g, clients, SplitPolicy(), mode, RngStreams(3))

    # A client sampled in repeat 1 but not in repeat 0, at owner 4 or 5 of
    # two repeats of 4: for next-word prediction in chunks of 3, in the
    # chunk of owners 3 to 5, which starts in repeat 0.
    first, second = (sampled(population, rep, 4, RngStreams(3)) for rep in range(2))
    pick = next(ci for ci in second[:2] if ci not in first)
    clients = list(population)
    clients[pick] = poison(clients[pick])
    mode = dataclasses.replace(mode, repeats=2, clients_per_repeat=4)
    with owner_budget(spec, g, 3 if model == "oov_nwp" else 100), np.errstate(invalid="ignore"):
        with pytest.raises(
            NumericalError, match=rf"^repeat 1, client {clients[pick].client_id}: "
        ):
            recon_eval(nan_kernel(spec), g, clients, SplitPolicy(), mode, RngStreams(3))


def test_map_chunks_keeps_order_and_raises_the_first_failure_once_all_finish():
    # Nine MF owners on two workers: chunks 0:5 on the calling thread and
    # 5:10 on a helper.  Results come back in order.  When both fail, the
    # error is chunk 0's, whichever fails first, and it is raised once the
    # helper is done.
    spec, _ = mf_population()
    g = spec.init_global(np.random.default_rng(0))
    with on_workers(2):
        assert owner_chunks(spec, g, 9) == [slice(0, 5), slice(5, 10)]
        got = map_chunks(lambda c: (c.start, threading.get_ident()), spec, g, 9)
        assert [start for start, _ in got] == [0, 5]
        assert got[0][1] == threading.get_ident() != got[1][1]

        helper_failed, finished = threading.Event(), []

        def helper_fails_first(c):
            if c.start:
                helper_failed.set()
            else:
                assert helper_failed.wait(5)
            raise ValueError(f"chunk {c.start}")

        def helper_fails_last(c):
            if c.start:
                time.sleep(0.05)  # still running when chunk 0 raises
                finished.append(c.start)
            raise ValueError(f"chunk {c.start}")

        for run in (helper_fails_first, helper_fails_last):
            with pytest.raises(ValueError, match="^chunk 0$"):
                map_chunks(run, spec, g, 9)
        assert finished == [5]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_runs_chunks_on_helpers_of_its_own():
    # A child forked after a two-worker map_chunks has none of the parent's
    # threads.  Its map_chunks runs on helpers it starts itself rather than
    # wait forever on work that no thread of the child will take.
    spec, _ = mf_population()
    g = spec.init_global(np.random.default_rng(0))

    def starts():
        return map_chunks(lambda c: c.start, spec, g, 9)

    with on_workers(2):
        assert starts() == [0, 5]
        child = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(starts() != [0, 5])
        )
        child.start()
        child.join(20)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


def test_no_helper_thread_outlives_its_map_chunks_call():
    # Two workers: the helper that runs chunk 5:10 has ended by the time
    # map_chunks returns, and by the time it raises.
    spec, _ = mf_population()
    g = spec.init_global(np.random.default_rng(0))

    def helpers():
        return [t for t in threading.enumerate() if t.name.startswith("owner-chunk")]

    def fails(c):
        raise ValueError(f"chunk {c.start}")

    with on_workers(2):
        names = map_chunks(lambda c: threading.current_thread().name, spec, g, 9)
        assert names[1].startswith("owner-chunk")
        assert helpers() == []
        with pytest.raises(ValueError, match="^chunk 0$"):
            map_chunks(fails, spec, g, 9)
        assert helpers() == []


def test_joint_fedavg_on_more_threads_than_cpus_changes_no_bit():
    # Five workers, four of them helpers, switching every 10 us: each chunk
    # steps its rows of the round's stacked locals in place, and no chunk
    # may see another's rows or steps.
    spec, clients = nwp_population(num_clients=12)
    clients = {ds.client_id: ds for ds in clients}
    hyper = dataclasses.replace(HYPER, joint_training=True)

    def train():
        return run_training(
            spec, clients, rounds=2, clients_per_round=10, policy=SplitPolicy(), hyper=hyper,
            server_opt=ServerOptimizer(), streams=RngStreams(3), algorithm="fedavg",
        )

    with on_workers(1):
        want = train()
    interval = sys.getswitchinterval()
    with on_workers(5):
        sys.setswitchinterval(1e-5)
        try:
            assert len(owner_chunks(spec, want.global_params, 10)) == 5
            got = train()
        finally:
            sys.setswitchinterval(interval)
    pairs = list(zip(got.global_params, want.global_params, strict=True))
    pairs += zip(got.local_store.blocks, want.local_store.blocks, strict=True)
    for b_got, b_want in pairs:
        assert np.array_equal(b_got.values, b_want.values), b_want.name


@pytest.mark.parametrize("poisoned", [(1, 8), (8,)])
@pytest.mark.parametrize("model", ["matfac", "oov_nwp"])
def test_non_finite_clients_in_two_chunks_fail_as_the_loop_does(model, poisoned):
    # Clients 1 and 8 of 9: on two workers the calling thread's chunk holds
    # the first, the helper's the second, and the helper may fail first.
    # The error is the first failing chunk's, as one thread raises it.
    spec, population = mf_population() if model == "matfac" else nwp_population()
    clients = list(population)
    for c in poisoned:
        clients[c] = poison(clients[c])
    g = spec.init_global(RngStreams(2).generator("g"))
    mode = EvalMode(recon_hyper=HYPER, repeats=1, clients_per_repeat=len(clients))
    by_id = {ds.client_id: ds for ds in clients}
    assert sorted(by_id) == [ds.client_id for ds in clients]
    messages = {}
    for workers in (1, 2):
        with on_workers(workers), np.errstate(invalid="ignore"):
            assert len(owner_chunks(spec, g, len(clients))) == workers
            with pytest.raises(NumericalError) as round_error:
                one_round(nan_kernel(spec), by_id)
            with pytest.raises(NumericalError) as eval_error:
                recon_eval(nan_kernel(spec), g, clients, SplitPolicy(), mode, RngStreams(3))
        messages[workers] = (str(round_error.value), str(eval_error.value))
    assert messages[1] == messages[2]
    bad = clients[poisoned[0]].client_id
    assert messages[1][0].startswith(f"round 0, client {bad}: ")
    assert messages[1][1].startswith(f"repeat 0, client {bad}: ")


def test_overflowing_score_in_recon_eval_names_repeat_and_client():
    # A client sampled in repeat 1 but not in repeat 0, both repeats
    # reconstructed in one call, rates only an item whose row is 1e200: its
    # squared error overflows, and the overflow itself warns about nothing.
    _, population = mf_population()
    spec = matfac_spec(ModelConfig(embed_dim=4), 26)
    g = spec.init_global(RngStreams(2).generator("g"))
    g[0].array[25] = 1e200
    first, second = (sampled(population, rep, 4, RngStreams(3)) for rep in range(2))
    pick = next(ci for ci in second if ci not in first)
    clients = list(population)
    clients[pick] = dataclasses.replace(clients[pick], features=np.full(clients[pick].n, 25))
    mode = recon_mode(k_r=0, repeats=2, clients_per_repeat=4)
    match = rf"^repeat 1, client {clients[pick].client_id}: non-finite mse \(inf\)$"
    for evaluate in (recon_eval, reference.recon_eval_by_repeat):
        with pytest.raises(NumericalError, match=match):
            evaluate(spec, g, clients, SplitPolicy(), mode, RngStreams(3))


def nan_once_trained(spec):
    """``spec`` whose kernel is :func:`nan_kernel`'s once an update step
    has run: a marked client fails only after training has begun."""
    poisoned, trained = nan_kernel(spec), [False]

    def sparse_grads(g, l, batch, norm, need_global, need_local):
        trained[0] = trained[0] or need_global
        if trained[0]:
            return poisoned.sparse_grads(g, l, batch, norm, need_global, need_local)
        return spec.sparse_grads(g, l, unmarked(batch), norm, need_global, need_local)

    return dataclasses.replace(poisoned, sparse_grads=sparse_grads)


def test_nan_at_a_mid_run_validation_names_split_round_repeat_and_client(tmp_path):
    # Round 0's validation passes; the one after round 2 fails on the
    # marked validation client, every one of them sampled.
    cfg = load_config(None, {
        "task": "synthetic", "rounds": 4, "clients_per_round": 5, "client.k_r": 3,
        "eval.every": 2, "eval.clients_per_repeat": 50, "data.synthetic.num_users": 40,
        "output_dir": str(tmp_path / "run"),
    })
    bundle = runner_module.prepare_task(cfg)
    valid = list(bundle.val_clients)
    valid[1] = poison(valid[1])
    bundle = dataclasses.replace(bundle, spec=nan_once_trained(bundle.spec), val_clients=valid)
    match = rf"^valid evaluation at round 2, repeat 0, client {valid[1].client_id}: non-finite"
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=match):
        runner_module._execute(cfg, cfg.seed, bundle)


def test_cohort_reconstruction_keeps_per_client_streams(streams):
    # A client's reconstruction does not depend on which cohort it is in.
    spec, clients = mf_population()
    g = spec.init_global(streams.generator("g"))

    def reconstructed(datasets):
        cohort, init, batches = _split_and_seed(datasets, SplitPolicy(), streams, 1, "")
        return _reconstructed(spec, g, cohort, HYPER, init, batches)

    alone, together = reconstructed(clients[4:5]), reconstructed(clients)
    assert_close(together[0].array[4], alone[0].array[0], "client 4 local")


@pytest.mark.parametrize("workers", [1, 2])
def test_owner_chunks_bound_each_batched_call(workers):
    # MF's 50-value user vectors run a 100-client round in one call, on any
    # number of workers.  Next-word prediction with 500 x 32 buckets and 410
    # classes (29,530 values an owner) runs 22 clients a call on one worker,
    # so a 20-client round is one call.  Two workers share the budget, 11
    # clients a call, in as many calls each, as even as can be: a 20-client
    # round is two calls of 10.  A cohort too small to give each thread 10
    # clients runs as one thread's chunks.
    mf = matfac_spec(ModelConfig(embed_dim=50), 3706)
    nwp = oov_nwp_spec(ModelConfig(vocab_size=406, num_oov_buckets=500, embed_dim=32))
    g = nwp.init_global(np.random.default_rng(0))
    with mock.patch.object(client_module, "_WORKERS", workers):
        assert len(owner_chunks(mf, mf.init_global(np.random.default_rng(0)), 100)) == 1
        got = {owners: owner_chunks(nwp, g, owners) for owners in (0, 1, 15, 20, 50, 80)}
    sizes = {n: [len(range(n)[c]) for c in chunks] for n, chunks in got.items()}
    if workers == 1:
        assert got[20] == [slice(0, 22)]
        assert got[50] == [slice(0, 22), slice(22, 44), slice(44, 66)]
    else:
        assert sizes[20] == [10, 10] and sizes[80] == [10] * 8
        assert sizes[50] == [9, 9, 9, 9, 9, 5]
    assert got[0] == [] and len(got[1]) == 1 and sizes[15] == [15]
    for n, chunks in got.items():  # every owner once, in order
        assert [i for c in chunks for i in range(n)[c]] == list(range(n))
        # The chunks in flight at once hold at most 22 owners.
        at_once = client_module._chunk_workers(nwp, g, n) if workers > 1 else 1
        assert max(sizes[n], default=0) * at_once <= 22


# The benchmark's next-word workload: 20 clients a round, 10 repeats of 8
# clients in evaluation, and the task's k_r = k_u = 10 with minibatches of 16.
NWP_BENCH_SHAPE = {
    "task": "oov_nwp",
    "data.synthetic.num_clients": 200,
    "data.synthetic.common_words": 400,
    "data.synthetic.personal_tokens": 6,
    "model.vocab_size": 406,
    "model.embed_dim": 32,
    "model.num_oov_buckets": 500,
    "clients_per_round": 20,
    "eval.repeats": 10,
    "seed": 17,
}


@pytest.fixture(scope="module")
def nwp_bench_round():
    """The config, task and starting global parameters of the next-word
    benchmark shape, and the 20 clients of its first round."""
    cfg = load_config(overrides=NWP_BENCH_SHAPE)
    assert (cfg.client.k_r, cfg.client.k_u, cfg.client.batch_size) == (10, 10, 16)
    bundle = runner_module.prepare_task(cfg)
    streams = RngStreams(cfg.seed)
    g = bundle.spec.init_global(streams.generator("global_init"))
    ids = sample_clients(sorted(bundle.train_clients), cfg.clients_per_round, streams, 0)
    return cfg, bundle, g, [bundle.train_clients[cid] for cid in ids]


@pytest.mark.parametrize("workers, round_chunks, eval_chunks", [(1, 1, 4), (2, 2, 8)])
def test_nwp_bench_round_and_evaluation_make_one_kernel_call_a_step(
    nwp_bench_round, workers, round_chunks, eval_chunks
):
    # One worker: a 20-client round is one owner chunk, k_r + k_u kernel
    # calls, and an evaluation of 10 repeats of 8 clients is 80 owners in
    # chunks of 22, so 4 chunks of k_r steps.  Two workers: two chunks of
    # 10 a round, and 8 chunks of 10 an evaluation.  Every metrics call
    # holds at most its thread's share of the metrics budget.
    cfg, bundle, g, clients = nwp_bench_round
    calls, scored = [], []  # appended from every thread: list.append is atomic

    def sparse_grads(*args):
        calls.append(len(args[2].features))
        return bundle.spec.sparse_grads(*args)

    def metrics(g, l, batch):
        scored.append(batch.weights.size * max(b.shape[-1] for b in g))
        return bundle.spec.metrics(g, l, batch)

    counted = dataclasses.replace(bundle.spec, sparse_grads=sparse_grads, metrics=metrics)
    with mock.patch.object(client_module, "_WORKERS", workers):
        run_cohort(counted, g, clients, cfg.split, cfg.client, RngStreams(cfg.seed), 0)
        assert len(calls) == round_chunks * (cfg.client.k_r + cfg.client.k_u)
        assert sum(calls) == 20 * (cfg.client.k_r + cfg.client.k_u)
        calls.clear()
        mode = cfg.eval_mode()
        assert (mode.repeats, mode.clients_per_repeat, len(bundle.test_clients)) == (10, 8, 20)
        recon_eval(counted, g, bundle.test_clients, cfg.split, mode, RngStreams(cfg.seed))
    assert len(calls) == eval_chunks * cfg.client.k_r
    assert sum(calls) == 80 * cfg.client.k_r
    assert max(scored) <= client_module._METRICS_BUDGET // workers


@pytest.mark.parametrize("workers", [1, 2])
def test_nwp_bench_round_holds_one_set_of_grads_at_a_time(nwp_bench_round, workers):
    # The round's peak allocation, 9.0 MiB: 20 owners' copies of the
    # 13,530-value dense output layer are 2.1 MB, and so is one step's set
    # of their grads.  Keeping the previous step's grads alive while the
    # next call allocates reads 11.2 MiB; scoring all 20 clients' query
    # halves in one metrics call, 18.8 MiB.
    # Two workers run two chunks of 10 at once, each within half the
    # budgets.
    cfg, bundle, g, clients = nwp_bench_round
    tracemalloc.start()
    try:
        with mock.patch.object(client_module, "_WORKERS", workers):
            run_cohort(bundle.spec, g, clients, cfg.split, cfg.client, RngStreams(cfg.seed), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_owner_chunks_draw_no_locals_per_call():
    # The local size is learnt once per spec, not by a throwaway draw of
    # one owner's locals (16,000 normals here) on every call.
    nwp = oov_nwp_spec(ModelConfig(vocab_size=406, num_oov_buckets=500, embed_dim=32))
    draws = mock.Mock(wraps=nwp.init_local)
    counted = dataclasses.replace(nwp, init_local=draws)
    g = nwp.init_global(np.random.default_rng(0))
    for owners in (20, 7, 20):
        assert owner_chunks(counted, g, owners) == owner_chunks(nwp, g, owners)
    assert draws.call_count == 1


# ---------------------------------------------------------------------------
# Update steps over unique rows: one put instead of ufunc.at
# ---------------------------------------------------------------------------


def update_step_forms(spec, run):
    """``run(logged)`` for ``logged``, ``spec`` with its kernel calls and
    ``core._rows_at`` calls logged.  Returns the result and, for each update
    step (a kernel call asking for global grads), whether it stepped its
    rows without ``_rows_at``: the put form."""
    log = []

    def sparse_grads(g, l, batch, norm, need_global, need_local):
        log.append(need_global)
        return spec.sparse_grads(g, l, batch, norm, need_global, need_local)

    def rows_at(*args):
        log.append("rows_at")
        real_rows_at(*args)

    real_rows_at = core_module._rows_at
    with mock.patch.object(core_module, "_rows_at", rows_at):
        out = run(dataclasses.replace(spec, sparse_grads=sparse_grads))
    puts, updating = [], False
    for event in log:
        if event == "rows_at":
            if updating:
                puts[-1] = False
        else:
            updating = event
            if updating:
                puts.append(True)
    return out, puts


def unique_steps(datasets, policy, hyper, streams, round_idx):
    """For each update step: does every client's minibatch, padded to
    ``batch_size`` with its first scheduled example, name each item once?
    Read off the reference's split and schedule."""
    unique = [True] * hyper.k_u
    for ds in datasets:
        def gen(purpose):
            return streams.generator(round_idx, ds.client_id, purpose)

        query = reference.split_dataset(ds, policy, gen("split")).query_idx
        schedule = batch_schedule(query, hyper.batch_size, hyper.k_u, gen("update_batches"))
        for s, idx in enumerate(schedule):
            pad = [schedule[0][0]] * (hyper.batch_size - len(idx))
            items = ds.features[np.concatenate([idx, pad]).astype(np.int64)]
            unique[s] &= len(np.unique(items)) == len(items)
    return unique


def put_case(case):
    """A cohort and the update settings that exercise one kind of step.
    Without changes every query half is whole minibatches of distinct items:
    10 examples under the half split, 20 unsplit."""
    spec, clients = mf_population(num_users=6, num_items=25, ratings_per_user=20)
    hyper = HYPER
    if case == "repeated_item":  # item 3 three times: some minibatches name it twice
        items = [3, 7, 3, 9, 11, 12, 13, 14, 15, 16, 3, 17, 18, 19, 20, 21, 22, 23, 24, 0]
        clients[2] = dataclasses.replace(clients[2], features=np.array(items))
    elif case == "padded_last_chunk":
        clients[0] = reference.subset(clients[0], np.arange(19))  # one pad, a new item: a put
        clients[1] = reference.subset(clients[1], np.arange(17))  # two pads or more: not a put
    elif case == "single_example":  # one example a step: every step a put
        clients[4] = reference.subset(clients[4], np.array([6]))
        hyper = dataclasses.replace(HYPER, batch_size=1)
    elif case == "single_example_padded":  # four pads of one item: no step a put
        clients[4] = reference.subset(clients[4], np.array([6]))
    elif case == "one_step":
        hyper = dataclasses.replace(HYPER, k_u=1)
    return spec, clients, hyper


PUT_CASES = ["repeated_item", "padded_last_chunk", "single_example", "single_example_padded",
             "one_step"]


@pytest.mark.parametrize("joint", [False, True], ids=["fedrecon", "joint"])
@pytest.mark.parametrize("case", PUT_CASES)
def test_unique_row_steps_put_and_match_the_reference_bit_for_bit(streams, case, joint):
    spec, clients, hyper = put_case(case)
    g = spec.init_global(streams.generator("g"))
    policy, initial = SplitPolicy(), None
    if joint:  # the fedavg path: stored locals, stepped with the globals
        policy, hyper = SplitPolicy(kind="no_split"), dataclasses.replace(hyper, joint_training=True)
        initial = stored_locals(spec, clients, streams)
    (got, stacked), puts = update_step_forms(
        spec,
        lambda logged: stacked_run_cohort(logged, g, clients, policy, hyper, streams, 3, initial),
    )
    want = mapped_client_rounds(spec, g, clients, policy, hyper, streams, 3, initial)
    assert_rounds_agree(got, want, exact=True)
    if joint:
        assert_locals_agree(stacked, want, initial, exact=True)
    expected = unique_steps(clients, policy, hyper, streams, 3)
    assert puts == expected
    if case == "single_example_padded":
        assert not any(puts)
    else:
        assert any(puts)
    if case in ("repeated_item", "padded_last_chunk"):
        assert not all(puts)


@pytest.mark.parametrize("extra", [-1, 1], ids=["fewer", "more"])
def test_a_generator_per_client_or_refused(streams, extra):
    # zip would pair a cohort's clients with the first of too many streams.
    _, clients = mf_population()
    ids = np.array([ds.client_id for ds in clients])
    rngs = streams.generators(3, np.arange(len(clients) + extra), "x")
    refused = rf"^{len(clients) + extra} generators for a cohort of {len(clients)} clients$"
    with pytest.raises(ValueError, match=refused):
        split_cohort(clients, SplitPolicy(), rngs)
    cohort = split_cohort(clients, SplitPolicy(), streams.generators(3, ids, "split"))
    for part in ("support", "query"):
        with pytest.raises(ValueError, match=refused):
            _cohort_batches(cohort, part, 5, 3, rngs)


def test_a_half_disjoint_split_without_generators_is_refused():
    _, clients = mf_population()
    with pytest.raises(ValueError, match="^half_disjoint needs one generator per client$"):
        split_cohort(clients, SplitPolicy("half_disjoint"))
    for kind in ("by_timestamp_half", "no_split"):  # these kinds draw nothing
        assert split_cohort(clients, SplitPolicy(kind)).query_n.sum() > 0


@pytest.mark.parametrize("kind", ["half_disjoint", "by_timestamp_half", "no_split"])
def test_a_window_of_a_cohort_is_its_clients_split_alone(streams, kind):
    _, clients = varied_mf_population()
    ids = np.array([ds.client_id for ds in clients])
    policy = SplitPolicy(kind=kind)
    whole = split_cohort(clients, policy, streams.generators(3, ids, "split"))
    for sel in (slice(0, 4), slice(4, 9), slice(9, 20)):
        alone = split_cohort(clients[sel], policy, streams.generators(3, ids[sel], "split"))
        window = whole.window(sel)
        assert window.client_ids.tolist() == alone.client_ids.tolist()
        for part in ("support", "query"):
            assert np.array_equal(getattr(window, part + "_n"), getattr(alone, part + "_n"))
            got, want = (
                _cohort_batches(c, part, 5, 4, streams.generators(1, ids[sel], "b"))
                for c in (window, alone)
            )
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)
        got, want = window.query_batch(), alone.query_batch()
        for field in ("features", "targets", "weights"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_nwp_update_steps_stay_on_rows_at(streams):
    # Context slots repeat tokens, and the kernel hands back no base rows.
    spec, clients = nwp_population()
    g = spec.init_global(streams.generator("g"))
    got, puts = update_step_forms(
        spec, lambda logged: cohort_results(logged, g, clients, SplitPolicy(), HYPER, streams, 3)
    )
    assert puts == [False] * HYPER.k_u
    want = mapped_client_rounds(spec, g, clients, SplitPolicy(), HYPER, streams, 3, None)
    assert_rounds_agree(got, want, exact=False)


@pytest.mark.parametrize("joint", [False, True], ids=["fedrecon", "joint"])
@pytest.mark.parametrize("poisoned", ["user_embedding", "example_target"])
def test_a_non_finite_client_on_the_put_path_reaches_no_other(streams, poisoned, joint):
    spec, clients = mf_population()
    g = spec.init_global(streams.generator("g"))
    policy = SplitPolicy(kind="no_split") if joint else SplitPolicy()
    hyper = dataclasses.replace(HYPER, joint_training=joint)
    ids = np.array([ds.client_id for ds in clients])
    cohort = split_cohort(clients, policy, streams.generators(3, ids, "split"))
    locals_ = [
        reference.client_init(spec, streams.generator(cid, "local")) for cid in ids.tolist()
    ]
    bad = 4

    def update(spec, cohort, poison_local):
        stacked = _stack(locals_)
        if poison_local:
            stacked[0].array[bad] = np.nan
        update = _update_cohort(spec, g, cohort, stacked, hyper, streams.generators(3, ids, "up"))
        return client_results([update]), stacked

    clean, clean_locals = update(spec, cohort, False)
    bad_cohort, poison_local = cohort, poisoned == "user_embedding"
    if not poison_local:
        targets = cohort.targets.copy()
        targets[cohort.query[cohort.query_n[:bad].sum()]] = np.nan  # its first query example
        bad_cohort = dataclasses.replace(cohort, targets=targets)

    with pytest.raises(NumericalError, match=rf"^client {ids[bad]}: non-finite values in the update"):
        update(spec, bad_cohort, poison_local)

    # Past the check, which records instead of raising: every client's
    # result and its row of the stacked locals, which may hold NaN.
    flagged = []
    with mock.patch.object(client_module, "_require_finite_clients",
                           lambda ok, *_: flagged.append(ok.copy())):
        (got, got_locals), puts = update_step_forms(
            spec, lambda logged: update(logged, bad_cohort, poison_local)
        )
    assert any(puts)
    assert flagged[0].tolist() == [c != bad for c in range(len(clients))]
    assert not np.isfinite(got[bad].delta[0].values).all()
    for c, (g_res, want) in enumerate(zip(got, clean)):
        if c == bad:
            continue
        assert np.array_equal(g_res.delta[0].rows, want.delta[0].rows)
        assert np.array_equal(g_res.delta[0].values, want.delta[0].values), f"client {c}"
        assert np.isfinite(g_res.delta[0].values).all()
        if joint:
            assert np.array_equal(got_locals[0].array[c], clean_locals[0].array[c])


def test_nwp_metrics_calls_hold_at_most_the_budget_in_values(streams):
    # 410 classes a logit row: the widest query half fills just over half
    # the budget, so each call takes one client.  Counted in padded
    # examples, all four would have run as one call of twice the budget.
    cfg = ModelConfig(vocab_size=406, num_oov_buckets=3, embed_dim=3, context_window=2)
    spec = oov_nwp_spec(cfg)
    rng = np.random.default_rng(7)
    widest = client_module._METRICS_BUDGET // (2 * cfg.num_classes) + 1
    clients = [
        ClientDataset(cid, rng.integers(-3, cfg.num_classes, size=(n, 2)),
                      rng.integers(0, cfg.num_classes, size=n) * 1.0, np.arange(n))
        for cid, n in enumerate([10, 2 * widest, 7, 12])
    ]
    g = spec.init_global(streams.generator("g"))
    width = max(b.shape[-1] for b in g)
    assert width == 410
    cohort = split_cohort(clients, SplitPolicy(kind="by_timestamp_half"))
    stacked = spec.init_local(*(streams.generator(ds.client_id, "l") for ds in clients))
    calls = []

    def metrics(g, l, batch):
        calls.append(batch.weights.size * width)
        return spec.metrics(g, l, batch)

    got = cohort_metrics(dataclasses.replace(spec, metrics=metrics), g, stacked, cohort)
    assert len(calls) == len(clients)
    assert max(calls) <= client_module._METRICS_BUDGET
    start = 0
    for c, n in enumerate(cohort.query_n.tolist()):
        query = cohort.query[start : start + n]
        start += n
        l = [ParamBlock(b.name, b.array[c], b.shape[1:]) for b in stacked]
        want = spec.metrics(
            g, l, Batch(cohort.features[query], cohort.targets[query], np.ones(len(query)))
        )
        for k, m in want.items():
            assert_close(got[k].value[c], m.value, f"client {c} {k}")
