import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfed.client import ClientHyper, CohortUpdate, SplitPolicy, run_client_round
from partialfed.core import ClientDataset, ParamBlock, RngStreams
from partialfed.data import SyntheticDataConfig, gen_synthetic_mf
from partialfed.errors import ConfigError, NumericalError, RoundError
from partialfed.models import ModelConfig, matfac_spec, oov_nwp_spec
from partialfed.server import (
    ServerOptimizer,
    aggregate,
    initial_state,
    run_training,
    sample_clients,
    server_moments,
    server_step,
)
from oracles import oracle_weighted_mean


def cohort_update(clients):
    """One chunk's :class:`CohortUpdate` of ``clients``, each a tuple of its
    id, weight n_i, ``g[0]`` rows (ascending, distinct), their deltas and
    its delta of each dense block."""
    ids, n, rows, values, dense = zip(*clients)
    return CohortUpdate(
        np.array(ids, dtype=np.int64),
        np.array(n, dtype=np.int64),
        np.concatenate(rows).astype(np.int64),
        np.concatenate(values),
        np.cumsum([0] + [len(r) for r in rows]),
        [np.array(d, dtype=np.float64) for d in zip(*dense)],
    )


def template(size=1):
    return [ParamBlock.of("g", np.zeros(size))]


class TestSampleClients:
    def test_forced_single(self):
        assert sample_clients([42], 1, RngStreams(0), 0) == [42]

    def test_deterministic_and_sorted(self):
        pop = list(range(600))
        a = sample_clients(pop, 100, RngStreams(3), 7)
        b = sample_clients(pop, 100, RngStreams(3), 7)
        assert a == b == sorted(a)
        assert len(set(a)) == 100

    def test_hundred_from_full_population_scale(self):
        picked = sample_clients(list(range(6040)), 100, RngStreams(9), 0)
        assert len(set(picked)) == 100
        assert all(0 <= cid < 6040 for cid in picked)

    def test_round_changes_sample(self):
        pop = list(range(50))
        assert sample_clients(pop, 10, RngStreams(3), 0) != sample_clients(
            pop, 10, RngStreams(3), 1
        )

    def test_oversampling_rejected(self):
        with pytest.raises(ConfigError):
            sample_clients([1, 2], 3, RngStreams(0), 0)


def chunks(clients, cuts):
    """``clients`` cut at the positions ``cuts`` into one update a chunk."""
    edges = [0, *cuts, len(clients)]
    return [cohort_update(clients[a:b]) for a, b in zip(edges, edges[1:])]


def client_delta(client, g):
    """One client's delta as flat arrays over the blocks of ``g``."""
    _, _, rows, values, dense = client
    head = np.zeros(g[0].shape)
    head[rows] = values
    return [head.ravel(), *dense]


class TestAggregate:
    def test_single_client_identity(self):
        g = [ParamBlock.of("g", np.zeros((3, 2))), ParamBlock.of("h", np.zeros(2))]
        client = (7, 4, np.array([0, 2]), np.array([[1.5, -2.0], [0.5, 3.0]]), [[0.25, -1.0]])
        delta, total = aggregate([cohort_update([client])], g)
        assert delta[0].tolist() == [1.5, -2.0, 0.0, 0.0, 0.5, 3.0]
        assert delta[1].tolist() == [0.25, -1.0]
        assert total == 4.0

    def test_weighted_mean_example(self):
        clients = [
            (0, 1, np.array([0]), np.array([[4.0]]), []),
            (1, 3, np.array([0]), np.array([[0.0]]), []),
        ]
        delta, total = aggregate([cohort_update(clients)], template())
        assert delta[0].tolist() == [1.0]
        assert total == 4.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        g = [ParamBlock.of("g", np.zeros((4, 2))), ParamBlock.of("h", np.zeros(3))]
        clients = []
        for cid in range(100):
            rows = np.flatnonzero(rng.random(4) < 0.5)
            clients.append((cid, int(rng.integers(1, 50)), rows,
                            rng.normal(size=(len(rows), 2)), [rng.normal(size=3)]))
        delta, _ = aggregate(chunks(clients, [30, 31, 80]), g)
        oracle = oracle_weighted_mean(
            [np.concatenate(client_delta(c, g)) for c in clients], [c[1] for c in clients]
        )
        np.testing.assert_allclose(np.concatenate(delta), oracle, atol=1e-12)

    def test_clients_add_one_after_another_in_cohort_order(self):
        # Near 3.3e15 a double holds halves only, so the sum of these terms
        # depends on their order: the cohort's (ids 9, 2, 5), not the ids'.
        values = {9: 1e16, 2: -1e16, 5: 1.0}
        clients = [(cid, 1, np.array([0]), np.array([[v]]), []) for cid, v in values.items()]
        term = {cid: (1 / 3.0) * v for cid, v in values.items()}
        in_cohort_order = ((0.0 + term[9]) + term[2]) + term[5]
        in_id_order = ((0.0 + term[2]) + term[5]) + term[9]
        assert in_cohort_order != in_id_order
        delta, _ = aggregate([cohort_update(clients)], template())
        assert delta[0].tolist() == [in_cohort_order]

    def test_empty_rejected(self):
        with pytest.raises(RoundError):
            aggregate([], template())


@st.composite
def cohort_clients(draw):
    """A few clients' deltas over a small (rows, cols) block, each over
    distinct ascending rows, and over a dense block of 0 to 4 values (none
    if 0), with their example counts; cut points of their chunks; and the
    template."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 3))
    size = draw(st.integers(0, 4))
    n = draw(st.lists(st.integers(1, 20), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clients = []
    for cid, n_i in enumerate(n):
        touched = np.flatnonzero(rng.random(rows) < 0.6)
        dense = [rng.normal(size=size)] if size else []
        clients.append((cid, n_i, touched, rng.normal(size=(len(touched), cols)), dense))
    cuts = sorted(draw(st.sets(st.integers(1, len(n) - 1)))) if len(n) > 1 else []
    g = [ParamBlock.of("g", np.zeros((rows, cols)))]
    g += [ParamBlock.of("h", np.zeros(size))] if size else []
    return clients, cuts, g


class TestAggregateProperties:
    @settings(max_examples=60, deadline=None)
    @given(cohort_clients())
    def test_clients_add_up_one_after_another_in_cohort_order(self, drawn):
        # Bit for bit: each client's weighted dense delta, client after client.
        clients, cuts, g = drawn
        total = float(sum(c[1] for c in clients))
        want = [np.zeros(b.values.size) for b in g]
        for c in clients:
            for acc, d in zip(want, client_delta(c, g), strict=True):
                acc += c[1] / total * d
        got, _ = aggregate(chunks(clients, cuts), g)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(cohort_clients())
    def test_owner_chunks_change_no_bit(self, drawn):
        clients, cuts, g = drawn
        a, total_a = aggregate(chunks(clients, cuts), g)
        b, total_b = aggregate(chunks(clients, []), g)
        assert total_a == total_b
        for x, y in zip(a, b, strict=True):
            assert np.array_equal(x, y)

    @settings(max_examples=60, deadline=None)
    @given(cohort_clients())
    def test_total_weight_is_sum_of_example_counts(self, drawn):
        clients, cuts, g = drawn
        _, total = aggregate(chunks(clients, cuts), g)
        assert total == sum(c[1] for c in clients)

    @settings(max_examples=60, deadline=None)
    @given(cohort_clients(), st.integers(0, 2**32 - 1))
    def test_unit_rate_sgd_adds_the_weighted_delta(self, drawn, seed):
        clients, cuts, g = drawn
        rng = np.random.default_rng(seed)
        g = [ParamBlock.of(b.name, rng.normal(size=b.shape)) for b in g]
        delta, _ = aggregate(chunks(clients, cuts), g)
        out = server_step(ServerOptimizer(kind="sgd", eta_s=1.0), g, delta, None)
        for b_out, b, d in zip(out, g, delta, strict=True):
            assert np.array_equal(b_out.values, b.values + d)


class TestServerStep:
    def test_sgd_applies_weighted_delta(self):
        g = template()
        out = server_step(ServerOptimizer(kind="sgd", eta_s=1.0), g, [np.array([2.0])], None)
        assert out[0].values.tolist() == [2.0]

    def test_sgd_zero_delta_is_identity(self):
        g = [ParamBlock.of("g", np.array([1.0, -1.0]))]
        out = server_step(ServerOptimizer(kind="sgd", eta_s=0.7), g, [np.zeros(2)], None)
        assert np.array_equal(out[0].values, g[0].values)

    def test_adagrad_first_step_closed_form(self):
        opt = ServerOptimizer(kind="adagrad", eta_s=1.0, beta1=0.0, tau=1e-3)
        g = template()
        out = server_step(opt, g, [np.array([3.0])], server_moments(opt, g))
        # weighted_delta = +3 means d = -3: the step ASCENDS by 3/(3+1e-3)
        assert out[0].values[0] == pytest.approx(3.0 / (3.0 + 1e-3))

    def test_adagrad_descends_on_negative_delta(self):
        opt = ServerOptimizer(kind="adagrad", eta_s=1.0, beta1=0.0, tau=1e-3)
        g = template()
        out = server_step(opt, g, [np.array([-3.0])], server_moments(opt, g))
        assert out[0].values[0] == pytest.approx(-3.0 / (3.0 + 1e-3))

    def test_yogi_second_moment_initialized_at_tau_squared(self):
        opt = ServerOptimizer(kind="yogi", eta_s=0.1, tau=1e-2)
        g = template()
        moments = server_moments(opt, g)
        assert moments[1][0][0] == pytest.approx(1e-4)
        server_step(opt, g, [np.array([1.0])], moments)
        # after one step: v = tau^2 - (1-beta2) d^2 sign(tau^2 - d^2)
        expected = 1e-4 - 0.01 * 1.0 * np.sign(1e-4 - 1.0)
        assert moments[1][0][0] == pytest.approx(expected)

    def test_adaptive_zero_delta_moves_at_most_stale_momentum(self):
        opt = ServerOptimizer(kind="adagrad", eta_s=0.5, beta1=0.9, tau=1e-3)
        g = template()
        moments = server_moments(opt, g)
        out = server_step(opt, g, [np.array([2.0])], moments)
        before = out[0].values.copy()
        out2 = server_step(opt, out, [np.zeros(1)], moments)
        move = abs(out2[0].values[0] - before[0])
        assert move <= 0.5 * abs(moments[0][0][0]) / 1e-3 + 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ServerOptimizer(kind="adam")

    @pytest.mark.parametrize("kind", ["sgd", "adagrad", "yogi"])
    def test_a_tau_whose_square_overflows_is_refused(self, kind):
        # Yogi's second moment starts at tau**2, which overflows past 1.3e154.
        ServerOptimizer(kind=kind, tau=1e154)
        with pytest.raises(ConfigError, match="^tau must be"):
            ServerOptimizer(kind=kind, tau=1e155)

    def test_five_settings_and_no_moments_for_sgd(self):
        assert [f.name for f in dataclasses.fields(ServerOptimizer)] == [
            "kind", "eta_s", "beta1", "beta2", "tau"
        ]
        assert server_moments(ServerOptimizer(kind="sgd"), template()) is None


@st.composite
def local_specs(draw):
    """A rating model, or a next-word model with 0 to 3 buckets (0: no
    local blocks)."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return matfac_spec(ModelConfig(embed_dim=dim), draw(st.integers(1, 4)))
    cfg = ModelConfig(vocab_size=3, embed_dim=dim, num_oov_buckets=draw(st.integers(0, 3)))
    return oov_nwp_spec(cfg)


def assert_rows_are_one_client_draws(got, wants):
    """Row ``c`` of the stacked blocks ``got`` is, bit for bit, the one row
    of ``wants[c]``, a one-generator ``init_local`` call."""
    for c, want in enumerate(wants):
        assert [(b.name, b.shape) for b in want] == [(b.name, (1,) + b.shape[1:]) for b in got]
        for b_got, b_want in zip(got, want):
            assert np.array_equal(b_got.array[c], b_want.array[0]), (c, b_got.name)


class TestInitialState:
    @settings(max_examples=60, deadline=None)
    @given(local_specs(), st.integers(0, 2**64 - 1),
           st.lists(st.integers(0, 2**40), min_size=1, max_size=40))
    def test_init_local_row_is_its_generators_one_client_draw(self, spec, seed, lanes):
        # 1 to 40 lanes: a cohort of one up to a stored table's clients.
        streams = RngStreams(seed)
        got = spec.init_local(*streams.generators(np.array(lanes), "local"))
        assert_rows_are_one_client_draws(
            got, [spec.init_local(streams.generator(k, "local")) for k in lanes]
        )
        assert all(b.shape[0] == len(lanes) for b in got)

    @settings(max_examples=40, deadline=None)
    @given(local_specs(), st.integers(0, 2**64 - 1),
           st.sets(st.integers(1, 2**34), max_size=39), st.integers(0, 2**20))
    def test_tables_hold_each_clients_stream_draw(self, spec, seed, ids, wide):
        # Ids that do not start at 0, one past 2**32, given out of order.
        ids = sorted(ids | {2**32 + wide}, reverse=True)
        streams = RngStreams(seed)
        want_g = spec.init_global(streams.generator("global_init"))
        for algorithm, purpose in (("fedavg", "server_local_init"),
                                   ("centralized", "centralized_local_init")):
            g, tables = initial_state(spec, ids, streams, algorithm)
            assert all(np.array_equal(a.values, b.values) for a, b in zip(g, want_g))
            assert tables.ids.tolist() == sorted(ids)
            assert_rows_are_one_client_draws(
                tables.blocks,
                [spec.init_local(streams.generator(cid, purpose)) for cid in sorted(ids)],
            )
        assert initial_state(spec, ids, streams, "fedrecon")[1] is None

    def test_each_table_is_validated_once(self, monkeypatch):
        # The population's rows are drawn straight into one table per local
        # block: no block per client, so the blocks built are the global
        # ones plus one per table.
        spec = matfac_spec(ModelConfig(embed_dim=4), 6)
        built = []
        post_init = ParamBlock.__post_init__

        def counted(block):
            built.append(block.name)
            post_init(block)

        monkeypatch.setattr(ParamBlock, "__post_init__", counted)
        g, tables = initial_state(spec, range(1000), RngStreams(3), "fedavg")
        assert tables.blocks[0].shape == (1000, 4)
        assert len(built) <= len(g) + len(tables.blocks)


def make_population(num_users=6, num_items=6, seed=2):
    clients, _, _ = gen_synthetic_mf(
        SyntheticDataConfig(num_users=num_users, num_items=num_items, true_rank=2,
                            ratings_per_user=4, noise_std=0.3, signal_std=0.8),
        seed,
    )
    spec = matfac_spec(ModelConfig(embed_dim=2), num_items)
    return spec, {c.client_id: c for c in clients}


class TestRunTraining:
    def test_zero_rounds_returns_initial_params(self):
        spec, clients = make_population()
        streams = RngStreams(4)
        out = run_training(
            spec, clients, rounds=0, clients_per_round=2, policy=SplitPolicy(),
            hyper=ClientHyper(), server_opt=ServerOptimizer(), streams=streams,
        )
        expected = spec.init_global(RngStreams(4).generator("global_init"))
        assert np.array_equal(out.global_params[0].values, expected[0].values)
        assert out.reports == [] and out.comm_records == []

    def test_single_client_single_step_composition(self):
        # One round, one client, one step, unit server rate: the new global
        # parameters move by exactly the aggregate of the client's round.
        spec, clients = make_population()
        hyper = ClientHyper(k_r=2, k_u=1, eta_r=0.2, eta_u=0.3, batch_size=100)
        out = run_training(
            spec, clients, rounds=1, clients_per_round=1, policy=SplitPolicy(),
            hyper=hyper, server_opt=ServerOptimizer(kind="sgd", eta_s=1.0),
            streams=RngStreams(5),
        )
        init = spec.init_global(RngStreams(5).generator("global_init"))
        results = [
            run_client_round(spec, init, clients[cid], SplitPolicy(), hyper, RngStreams(5), 0)
            for cid in out.reports[0].sampled_clients
        ]
        weighted_delta, _ = aggregate(results, init)
        moved = out.global_params[0].values - init[0].values
        np.testing.assert_allclose(moved, weighted_delta[0], atol=1e-15)

    def test_identical_clients_match_single_client_training(self):
        # Same data everywhere, shared local init, full batches: the
        # m-client weighted mean equals the single-client update.
        spec, clients = make_population(num_users=2)
        ds = clients[0]
        same = {i: dataclasses.replace(ds, client_id=i) for i in range(3)}
        fixed_init = dataclasses.replace(
            spec, init_local=lambda *rngs: [
                ParamBlock.of("user_embedding", np.full((len(rngs), 2), 0.05))
            ],
        )
        hyper = ClientHyper(k_r=2, k_u=2, eta_r=0.1, eta_u=0.1, batch_size=100)
        common = dict(
            rounds=3, policy=SplitPolicy(kind="no_split"), hyper=hyper,
            server_opt=ServerOptimizer(kind="sgd", eta_s=1.0),
        )
        multi = run_training(
            fixed_init, same, clients_per_round=3, streams=RngStreams(6), **common
        )
        single = run_training(
            fixed_init, {0: same[0]}, clients_per_round=1, streams=RngStreams(6), **common
        )
        np.testing.assert_allclose(
            multi.global_params[0].values, single.global_params[0].values, atol=1e-12
        )

    def test_round_weights_normalize(self):
        spec, clients = make_population()
        out = run_training(
            spec, clients, rounds=2, clients_per_round=4, policy=SplitPolicy(),
            hyper=ClientHyper(k_r=1, k_u=1, eta_r=0.1, eta_u=0.1, batch_size=2),
            server_opt=ServerOptimizer(), streams=RngStreams(7),
        )
        for report in out.reports:
            assert report.total_weight > 0
            assert len(report.sampled_clients) == 4

    def test_equal_seeds_give_bit_identical_trajectories(self):
        spec, clients = make_population()

        def trajectory():
            seen = []
            out = run_training(
                spec, clients, rounds=4, clients_per_round=3, policy=SplitPolicy(),
                hyper=ClientHyper(k_r=2, k_u=2, eta_r=0.2, eta_u=0.1, batch_size=2),
                server_opt=ServerOptimizer(), streams=RngStreams(21),
                eval_fn=lambda t, g, store: seen.append(g[0].values.copy()), eval_every=1,
            )
            return out, seen

        (a, seen_a), (b, seen_b) = trajectory(), trajectory()
        assert np.array_equal(a.global_params[0].values, b.global_params[0].values)
        assert len(seen_a) == len(seen_b) == 4
        for ra, rb, ga, gb in zip(a.reports, b.reports, seen_a, seen_b):
            assert ra.sampled_clients == rb.sampled_clients
            assert np.array_equal(ga, gb)

    @pytest.mark.parametrize("algorithm", ["centralized", "bogus"])
    def test_only_federated_algorithms_run(self, algorithm):
        spec, clients = make_population()
        with pytest.raises(ConfigError, match=algorithm):
            run_training(
                spec, clients, rounds=1, clients_per_round=2, policy=SplitPolicy(),
                hyper=ClientHyper(), server_opt=ServerOptimizer(), streams=RngStreams(4),
                algorithm=algorithm,
            )

    def test_numerical_error_carries_context(self):
        spec, clients = make_population()
        # An absurd rate forces the update to overflow.
        hyper = ClientHyper(k_r=0, k_u=30, eta_r=0.1, eta_u=1e200, batch_size=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Exception) as exc_info:
                run_training(
                    spec, clients, rounds=1, clients_per_round=2, policy=SplitPolicy(),
                    hyper=hyper, server_opt=ServerOptimizer(), streams=RngStreams(8),
                )
        assert "round 0" in str(exc_info.value)

    def test_overflowing_query_score_names_the_client(self):
        # Item 0's row is so large that client 5's squared errors overflow,
        # and no reconstruction step runs to overflow first.  The suite turns
        # a RuntimeWarning escaping the scoring into an error.
        spec = matfac_spec(ModelConfig(embed_dim=2), 4)
        clients = {
            cid: ClientDataset(cid, np.array(items), np.full(2, 3.0), np.arange(2))
            for cid, items in ((1, [1, 2]), (5, [0, 3]), (9, [2, 3]))
        }

        def init_global(rng):
            g = spec.init_global(rng)
            g[0].array[0] = 1e200
            return g

        with pytest.raises(NumericalError, match="^round 0, client 5: non-finite values in the "
                           "query metrics"):
            run_training(
                dataclasses.replace(spec, init_global=init_global), clients, rounds=1,
                clients_per_round=3, policy=SplitPolicy("no_split"),
                hyper=ClientHyper(k_r=0, k_u=1, eta_u=0.1, batch_size=2),
                server_opt=ServerOptimizer(), streams=RngStreams(3),
            )
