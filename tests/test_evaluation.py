import dataclasses

import numpy as np
import pytest

from partialfed.client import ClientHyper, SplitPolicy, reconstruct, split_dataset
from partialfed.core import ClientDataset, ParamBlock, RngStreams
from partialfed.data import (
    SyntheticDataConfig,
    gen_synthetic_mf,
    split_each_client_by_time,
    split_users,
)
from partialfed.errors import ConfigError, EvaluationError, NumericalError
from partialfed.evaluation import (
    EvalMode,
    comm_ledger_report,
    params_to_reach,
    recon_eval,
    standard_eval,
)
from partialfed.models import ModelConfig, matfac_spec
from partialfed.server import ServerOptimizer, run_training
from partialfed.baselines import train_fedavg
from reference import client_init, finalize_with_macro, subset, tables_of


def mf_setup(seed=1, num_users=6, num_items=6):
    clients, _, _ = gen_synthetic_mf(
        SyntheticDataConfig(num_users=num_users, num_items=num_items, true_rank=2,
                            ratings_per_user=5, noise_std=0.3, signal_std=0.8),
        seed,
    )
    spec = matfac_spec(ModelConfig(embed_dim=2), num_items)
    streams = RngStreams(seed)
    g = spec.init_global(streams.generator("g"))
    return spec, g, clients


class TestStandardEval:
    def test_perfect_predictions_zero_rmse(self):
        spec, g, _ = mf_setup()
        # Craft a local vector that reproduces the rating exactly.
        q_row = g[0].array[2]
        l = [ParamBlock.of("user_embedding", 4.0 * q_row / np.dot(q_row, q_row))]
        ds = ClientDataset(0, np.array([2]), np.array([4.0]), np.zeros(1, np.int64))
        metrics = standard_eval(spec, g, tables_of({0: l}), [ds])
        assert metrics["rmse"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["accuracy"] == 1.0

    def test_unseen_client_raises(self):
        spec, g, clients = mf_setup()
        stored = tables_of({clients[1].client_id: client_init(spec, RngStreams(5).generator(0))})
        with pytest.raises(
            EvaluationError,
            match=f"client {clients[0].client_id} has no stored local parameters; use recon_eval",
        ):
            standard_eval(spec, g, stored, [clients[0]])

    def test_run_without_stored_locals_raises(self):
        # A fedrecon run's local_store is None: it stores no local parameters.
        spec, g, clients = mf_setup()
        with pytest.raises(EvaluationError, match="the run stored no local parameters"):
            standard_eval(spec, g, None, clients)

    def test_emits_macro_averages(self):
        spec, g, clients = mf_setup()
        stored = {
            c.client_id: client_init(spec, RngStreams(5).generator(c.client_id))
            for c in clients
        }
        metrics = standard_eval(spec, g, tables_of(stored), clients)
        assert "rmse_macro" in metrics and "accuracy_macro" in metrics

    def test_overflowing_score_names_the_client(self):
        # The client rates only an item whose row is 1e200: its squared
        # error overflows, and the overflow itself warns about nothing.
        _, _, clients = mf_setup()
        spec = matfac_spec(ModelConfig(embed_dim=2), 7)
        g = spec.init_global(RngStreams(1).generator("g"))
        g[0].array[6] = 1e200
        clients[3] = dataclasses.replace(clients[3], features=np.full(clients[3].n, 6))
        stored = tables_of(
            {c.client_id: client_init(spec, RngStreams(5).generator(c.client_id)) for c in clients}
        )
        match = rf"^client {clients[3].client_id}: non-finite mse \(inf\)$"
        with pytest.raises(NumericalError, match=match):
            standard_eval(spec, g, stored, clients)

    @pytest.mark.parametrize("chunk", [5, 1 << 15])
    def test_owner_axis_calls_match_client_by_client(self, monkeypatch, chunk):
        # Ragged eval sets, one empty (skipped), scored in chunks of clients.
        # The ids do not start at 0, two are past 2**32, and the eval order
        # is not the tables' ascending one.
        from partialfed import client

        spec, g, clients = mf_setup(num_users=9, num_items=6)
        # ``chunk`` padded examples a call: the budget counts K values each.
        monkeypatch.setattr(client, "_METRICS_BUDGET", chunk * g[0].shape[-1])
        ids = [2**32 + 5, 40, 7, 12, 3, 90, 2**32 + 1, 55, 8]
        sets = [subset(c, np.arange(i % 5), cid) for i, (c, cid) in enumerate(zip(clients, ids))]
        stored = {cid: client_init(spec, RngStreams(5).generator(cid)) for cid in ids}
        got = standard_eval(spec, g, tables_of(stored), sets)
        want = finalize_with_macro(
            [spec.metrics(g, stored[c.client_id], c.batch()) for c in sets if c.n],
            [c.client_id for c in sets if c.n],
        )
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], rel=1e-12), k
        # A missing id, here with stored ids on both sides of it.
        unseen = dataclasses.replace(sets[1], client_id=41)
        with pytest.raises(EvaluationError, match="client 41 has no stored"):
            standard_eval(spec, g, tables_of(stored), sets + [unseen])

    def test_random_embeddings_score_near_zero(self):
        # The failure mode motivating reconstruction: handing an unseen user
        # a randomly initialized embedding predicts ~0 for every rating, so
        # accuracy collapses and rmse sits at the rating magnitude.
        from partialfed.baselines import train_centralized

        clients, _, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=40, num_items=20, true_rank=3, ratings_per_user=10,
                                noise_std=0.3, signal_std=0.8),
            9,
        )
        spec = matfac_spec(ModelConfig(embed_dim=4, init_stddev=0.3), 20)
        seen = {c.client_id: c for c in clients[:30]}
        unseen = clients[30:]
        g, _ = train_centralized(
            spec, seen, epochs=20, batch_size=30, rate=0.3, streams=RngStreams(10)
        )
        stored = {
            c.client_id: client_init(spec, RngStreams(11).generator(c.client_id, "random"))
            for c in unseen
        }
        metrics = standard_eval(spec, g, tables_of(stored), unseen)
        assert metrics["accuracy"] < 0.01
        assert 2.0 < metrics["rmse"] < 5.0


class TestReconEval:
    def make_mode(self, k_r=3):
        return EvalMode(
            kind="recon_eval",
            recon_hyper=ClientHyper(k_r=k_r, eta_r=0.2, batch_size=2),
            repeats=3,
            clients_per_repeat=4,
        )

    def test_pure_function_of_inputs(self):
        spec, g, clients = mf_setup()
        snapshot = [b.values.copy() for b in g]
        a = recon_eval(spec, g, clients, SplitPolicy(), self.make_mode(), RngStreams(3))
        b = recon_eval(spec, g, clients, SplitPolicy(), self.make_mode(), RngStreams(3))
        assert a.metrics == b.metrics
        for before, block in zip(snapshot, g):
            assert np.array_equal(before, block.values)

    def test_reports_mean_and_stddev(self):
        spec, g, clients = mf_setup()
        result = recon_eval(spec, g, clients, SplitPolicy(), self.make_mode(), RngStreams(4))
        assert "rmse" in result.metrics and "rmse_stddev" in result.metrics
        assert len(result.per_repeat) == 3
        vals = [rep["rmse"] for rep in result.per_repeat]
        assert result.metrics["rmse"] == pytest.approx(np.mean(vals))
        assert result.metrics["rmse_stddev"] == pytest.approx(np.std(vals))

    def test_matches_standard_eval_on_deterministic_reconstruction(self):
        # A stored local block equal to what reconstruction produces makes
        # the two regimes agree on the same query examples.
        spec, g, clients = mf_setup()
        policy = SplitPolicy(kind="no_split")
        mode = EvalMode(
            kind="recon_eval",
            recon_hyper=ClientHyper(k_r=2, eta_r=0.2, batch_size=2),
            repeats=1,
            clients_per_repeat=len(clients),
        )
        streams = RngStreams(6)
        result = recon_eval(spec, g, clients, policy, mode, streams, namespace="eval")
        stored, eval_sets = {}, []
        for rep_client in clients:
            cid = rep_client.client_id
            dsx = split_dataset(
                rep_client, policy, streams.generator(0, cid, "eval:split")
            )
            l = reconstruct(
                spec, g, dsx, mode.recon_hyper,
                streams.generator(0, cid, "eval:local_init"),
                streams.generator(0, cid, "eval:recon_batches"),
            )
            stored[cid] = l
            eval_sets.append(subset(rep_client, dsx.query, client_id=cid))
        expected = standard_eval(spec, g, tables_of(stored), eval_sets)
        assert result.metrics["rmse"] == pytest.approx(expected["rmse"])
        assert result.metrics["accuracy"] == pytest.approx(expected["accuracy"])

    def test_zero_step_reconstruction_scores_nothing(self):
        spec, g, clients = mf_setup()
        mode = self.make_mode(k_r=0)
        result = recon_eval(spec, g, clients, SplitPolicy(), mode, RngStreams(7))
        assert result.metrics["accuracy"] < 0.01


class TestCommLedger:
    def run_algo(self, algorithm, rounds=2, m=3):
        spec, _, clients = mf_setup(num_users=6)
        pop = {c.client_id: c for c in clients}
        hyper = ClientHyper(k_r=1, k_u=1, eta_r=0.1, eta_u=0.1, batch_size=2)
        if algorithm == "fedavg":
            return spec, train_fedavg(
                spec, pop, rounds=rounds, clients_per_round=m, hyper=hyper,
                server_opt=ServerOptimizer(), streams=RngStreams(1),
            )
        return spec, run_training(
            spec, pop, rounds=rounds, clients_per_round=m, policy=SplitPolicy(),
            hyper=hyper, server_opt=ServerOptimizer(), streams=RngStreams(1),
        )

    def test_partial_rounds_move_twice_global_size_per_client(self):
        spec, out = self.run_algo("fedrecon", rounds=2, m=3)
        g_size = out.global_params[0].values.size
        for rec in out.comm_records:
            assert rec.params_down == 3 * g_size
            assert rec.params_up == 3 * g_size
            assert rec.params_total == 3 * 2 * g_size

    def test_full_aggregation_adds_local_sizes(self):
        spec, out = self.run_algo("fedavg", rounds=2, m=3)
        g_size = out.global_params[0].values.size
        l_size = 2  # embed_dim
        for rec in out.comm_records:
            assert rec.params_total == 2 * (3 * g_size + 3 * l_size)

    def test_zero_rounds_zero_ledger(self):
        spec, out = self.run_algo("fedrecon", rounds=0)
        assert comm_ledger_report(out.comm_records) == {}

    def test_cumulative_is_rounds_times_per_round(self):
        spec, out = self.run_algo("fedrecon", rounds=4, m=2)
        report = comm_ledger_report(out.comm_records)["fedrecon"]
        per_round = report["per_round"][0]
        assert report["cumulative"] == [per_round * (i + 1) for i in range(4)]
        assert report["total"] == per_round * 4

    def test_params_to_reach(self):
        cum = [10, 20, 30]
        acc = [0.1, 0.5, 0.9]
        assert params_to_reach(cum, acc, 0.5) == 20
        assert params_to_reach(cum, acc, 0.95) is None
        assert params_to_reach(cum, [3.0, 2.0, 1.0], 2.5, higher_is_better=False) == 20


class TestSplits:
    def test_user_split_partitions(self):
        _, _, clients = mf_setup(num_users=20)
        train, val, test = split_users(clients, np.random.default_rng(0))
        ids = lambda group: {c.client_id for c in group}
        assert len(train) == 16 and len(val) == 2 and len(test) == 2
        assert ids(train) | ids(val) | ids(test) == ids(clients)
        assert not (ids(train) & ids(val)) and not (ids(val) & ids(test))

    def test_time_split_sizes_and_order(self):
        ts = np.array([5, 3, 9, 1, 7, 2, 8, 4, 6, 0])
        ds = ClientDataset(0, np.zeros(10, np.int64), np.ones(10), ts)
        train, val, test = split_each_client_by_time(ds)
        assert train.n == 8 and val.n == 1 and test.n == 1
        assert train.timestamps.max() < val.timestamps.min() < test.timestamps.min()

    def test_time_split_single_example(self):
        ds = ClientDataset(0, np.zeros(1, np.int64), np.ones(1), np.zeros(1, np.int64))
        train, val, test = split_each_client_by_time(ds)
        assert train.n == 1 and val.n == 0 and test.n == 0


def test_eval_mode_names_only_recon_eval():
    # standard_eval takes no mode, and recon_eval always reconstructs.
    with pytest.raises(ConfigError):
        EvalMode(kind="standard_eval", recon_hyper=ClientHyper(k_r=1, eta_r=0.1))


def test_recon_eval_rejects_empty_client_list():
    spec, g, _ = mf_setup()
    mode = EvalMode(kind="recon_eval", recon_hyper=ClientHyper(k_r=1, eta_r=0.1))
    with pytest.raises(EvaluationError):
        recon_eval(spec, g, [], SplitPolicy(), mode, RngStreams(1))


def test_recon_eval_caps_sample_at_population():
    spec, g, clients = mf_setup(num_users=3)
    mode = EvalMode(
        kind="recon_eval",
        recon_hyper=ClientHyper(k_r=1, eta_r=0.1, batch_size=2),
        repeats=2,
        clients_per_repeat=50,
    )
    result = recon_eval(spec, g, clients, SplitPolicy(), mode, RngStreams(1))
    assert np.isfinite(result.metrics["rmse"])
