"""Metrics as arrays over owners, merged in array ops, against the loops
over one dict of floats per client that they replaced (``reference.py``).

A kernel's owner-axis call returns one array per key and per value or
weight; ``merge_metrics`` sums them owner after owner from 0.0, so every
merged float, macro and rmse is the reference's, compared with ``==``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from partialfed.client import ClientHyper, SplitPolicy, split_cohort
from partialfed.core import (
    ClientDataset,
    LocalTables,
    Metric,
    RngStreams,
    finalize_metrics,
    merge_metrics,
    owner_rows,
)
from partialfed.errors import NumericalError
from partialfed.evaluation import EvalMode, _finalize_with_macro, recon_eval, standard_eval
from partialfed.models import NUM_SPECIAL, ModelConfig, matfac_spec, oov_nwp_spec
from partialfed.server import ServerOptimizer, run_training


def assert_same_floats(got: dict, want: dict):
    """The same keys in the same order, each the same float (nan for nan)."""
    assert list(got) == list(want)
    for k, w in want.items():
        assert type(got[k]) is float, k
        assert got[k] == w or (math.isnan(got[k]) and math.isnan(w)), k


def assert_same_merge(got: dict[str, Metric], want: dict[str, Metric]):
    for field in ("value", "weight"):
        assert_same_floats(*({k: getattr(m, field) for k, m in d.items()} for d in (got, want)))


@st.composite
def scored_populations(draw):
    """A model, its parameters and up to 12 clients of ragged sizes and
    sparse ids.  Next-word clients may target only special tokens, so that
    nothing of theirs scores accuracy."""
    model = draw(st.sampled_from(["matfac", "oov_nwp"]))
    sizes = draw(st.lists(st.integers(1, 11), min_size=1, max_size=12))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=len(sizes), max_size=len(sizes),
                        unique=True))
    unscored = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if model == "matfac":
        num_items = draw(st.integers(1, 9))
        spec = matfac_spec(ModelConfig(embed_dim=draw(st.integers(1, 5))), num_items)

        def columns(n, _):
            return rng.integers(0, num_items, size=n), rng.integers(1, 6, size=n) * 1.0
    else:
        cfg = ModelConfig(vocab_size=draw(st.integers(1, 5)),
                          num_oov_buckets=draw(st.integers(0, 3)),
                          embed_dim=draw(st.integers(1, 3)),
                          context_window=draw(st.integers(1, 3)))
        spec = oov_nwp_spec(cfg)

        def columns(n, only_specials):
            top = NUM_SPECIAL if only_specials else cfg.num_classes
            return (
                rng.integers(-cfg.num_oov_buckets, cfg.num_classes, size=(n, cfg.context_window)),
                rng.integers(0, top, size=n) * 1.0,
            )
    clients = [
        ClientDataset(cid, *columns(n, skip), timestamps=rng.integers(0, 5, size=n))
        for cid, n, skip in zip(ids, sizes, unscored)
    ]
    g = spec.init_global(rng)
    stacked = spec.init_local(*(np.random.default_rng(i) for i in range(len(clients))))
    return spec, g, stacked, clients


@settings(max_examples=80, deadline=None)
@given(scored_populations(), st.none() | st.integers(0, 11), st.sampled_from([np.inf, np.nan]))
def test_an_owner_axis_call_merges_to_the_per_client_floats(case, poisoned, bad_value):
    # Each client's query half is a row of one padded batch.  Unless
    # ``poisoned`` is None, one value of client ``poisoned % clients`` turns
    # non-finite: both paths raise the same error.
    spec, g, stacked, clients = case
    cohort = split_cohort(clients, SplitPolicy(kind="no_split"))
    batch = cohort.query_batch()
    # Non-unit example weights, so that merged weights are not counts.
    batch.weights *= np.random.default_rng(len(clients)).uniform(0.25, 2.0, batch.weights.shape)
    stats = spec.metrics(g, stacked, batch)
    for m in stats.values():
        assert m.value.shape == m.weight.shape == (len(clients),)
    if spec.name == "oov_nwp":
        unscored = [c for c, ds in enumerate(clients) if (ds.targets < NUM_SPECIAL).all()]
        assert stats["accuracy"].weight[unscored].tolist() == [0.0] * len(unscored)
    if poisoned is not None:
        key = sorted(stats)[poisoned % len(stats)]
        poisoned %= len(clients)
        stats[key].value[poisoned] = bad_value
    per_client = reference.per_owner(stats)
    assert_same_merge(merge_metrics([stats]), reference.merge_metrics(per_client))
    assert_same_floats(
        finalize_metrics(merge_metrics([stats])),
        reference.finalize_metrics(reference.merge_metrics(per_client)),
    )
    ids = cohort.client_ids
    try:
        want = reference.finalize_with_macro(per_client, ids.tolist())
    except NumericalError as e:
        assert poisoned is not None
        with pytest.raises(NumericalError) as got:
            _finalize_with_macro(stats, ids)
        assert str(got.value) == str(e)
        assert str(e).startswith(f"client {clients[poisoned].client_id}: non-finite ")
    else:
        assert poisoned is None
        assert_same_floats(_finalize_with_macro(stats, ids), want)


@settings(max_examples=40, deadline=None)
@given(scored_populations())
def test_a_flat_call_scores_0_d_arrays_that_merge_like_floats(case):
    spec, g, stacked, clients = case
    stats = spec.metrics(g, owner_rows(stacked, 0), clients[0].batch())
    for m in stats.values():
        assert np.ndim(m.value) == np.ndim(m.weight) == 0
    floats = {k: Metric(float(m.value), float(m.weight)) for k, m in stats.items()}
    assert_same_merge(merge_metrics([stats, stats]), reference.merge_metrics([floats, floats]))


@settings(max_examples=40, deadline=None)
@given(scored_populations(), st.integers(1, 3), st.integers(1, 5), st.integers(0, 3))
def test_recon_eval_is_the_per_client_merge(case, repeats, take, k_r):
    # Every key of the result, ``_macro`` and ``_stddev`` ones included, and
    # every repeat's.
    spec, g, _, clients = case
    mode = EvalMode(recon_hyper=ClientHyper(k_r=k_r, eta_r=0.1, batch_size=3), repeats=repeats,
                    clients_per_repeat=take)
    args = (spec, g, clients, SplitPolicy(), mode, RngStreams(7))
    got, want = recon_eval(*args), reference.recon_eval_by_repeat(*args)
    assert any(k.endswith("_stddev") for k in want.metrics)
    assert_same_floats(got.metrics, want.metrics)
    for got_rep, want_rep in zip(got.per_repeat, want.per_repeat, strict=True):
        assert_same_floats(got_rep, want_rep)


def test_an_overflowing_query_score_names_the_round_and_client():
    # Under fedavg no reconstruction runs first: the client that rates only
    # an item whose row is 1e200 fails at its query metrics.
    spec = matfac_spec(ModelConfig(embed_dim=3), 6)
    rng = np.random.default_rng(3)
    clients = {
        cid: ClientDataset(cid, rng.integers(0, 5, size=8), rng.integers(1, 6, size=8) * 1.0,
                           np.arange(8))
        for cid in (4, 9, 13)
    }
    clients[9] = dataclasses.replace(clients[9], features=np.full(8, 5))
    g = spec.init_global(RngStreams(1).generator("global_init"))
    g[0].array[5] = 1e200
    tables = spec.init_local(*(np.random.default_rng(c) for c in range(3)))
    start = (g, LocalTables(np.array(sorted(clients)), tables))
    with pytest.raises(
        NumericalError, match=r"^round 0, client 9: non-finite values in the query metrics$"
    ):
        run_training(spec, clients, rounds=1, clients_per_round=3, policy=SplitPolicy(),
                     hyper=ClientHyper(), server_opt=ServerOptimizer(),
                     streams=RngStreams(1), algorithm="fedavg", start=start)


def count_metrics(monkeypatch) -> list[int]:
    """A one-item list counting every :class:`Metric` built from now on."""
    built, init = [0], Metric.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Metric, "__init__", counting)
    return built


def mf_clients(num):
    rng = np.random.default_rng(num)
    return [
        ClientDataset(cid, rng.integers(0, 7, size=n), rng.integers(1, 6, size=n) * 1.0,
                      np.arange(n))
        for cid, n in zip(range(num), rng.integers(2, 12, size=num))
    ]


MF = matfac_spec(ModelConfig(embed_dim=3), 7)


@pytest.mark.parametrize("evaluate", ["standard_eval", "recon_eval", "training_round"])
def test_scoring_builds_no_metric_per_client(monkeypatch, evaluate):
    # The same Metric count for 8 clients as for 32.
    g = MF.init_global(RngStreams(1).generator("g"))
    counts = []
    for num in (8, 32):
        clients = mf_clients(num)
        built = count_metrics(monkeypatch)
        if evaluate == "standard_eval":
            tables = MF.init_local(*(np.random.default_rng(c) for c in range(num)))
            stored = LocalTables(np.arange(num), tables)
            standard_eval(MF, g, stored, clients)
        elif evaluate == "recon_eval":
            mode = EvalMode(recon_hyper=ClientHyper(k_r=2), repeats=3, clients_per_repeat=num)
            recon_eval(MF, g, clients, SplitPolicy(), mode, RngStreams(2))
        else:
            run_training(MF, {ds.client_id: ds for ds in clients}, rounds=1,
                         clients_per_round=num, policy=SplitPolicy(), hyper=ClientHyper(),
                         server_opt=ServerOptimizer(), streams=RngStreams(2))
        monkeypatch.undo()
        counts.append(built[0])
    assert counts[0] == counts[1] > 0
