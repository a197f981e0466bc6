import json
import typing
import warnings
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfed.config import (
    ExperimentConfig,
    MATFAC_GRID,
    config_from_dict,
    config_to_dict,
    load_config,
)
from partialfed import baselines, runner, server
from partialfed.core import RngStreams, blocks_size
from partialfed.errors import ConfigError, DataError, NumericalError
from partialfed.runner import (
    apply_overrides,
    grid_search,
    prepare_task,
    read_params,
    rerun_manifest,
    run_experiment,
    sweep_steps,
    tradeoff_curves,
    write_params,
)

GOLDEN = Path(__file__).parent / "golden"


def synthetic_config(tmp_path, **overrides):
    base = {
        "task": "synthetic",
        "seed": 11,
        "rounds": 6,
        "clients_per_round": 5,
        "output_dir": str(tmp_path / "run"),
        "eval.repeats": 2,
        "eval.clients_per_repeat": 5,
        "data.synthetic.num_users": 40,
        "data.synthetic.num_items": 12,
        "data.synthetic.ratings_per_user": 8,
        "data.synthetic.true_rank": 3,
        "model.embed_dim": 3,
        "client.k_r": 3,
        "client.k_u": 3,
    }
    base.update(overrides)
    return load_config(None, base)


class TestConfig:
    def test_matfac_defaults_materialize(self):
        cfg = load_config(None, {"task": "matfac"})
        assert cfg.model.embed_dim == 50
        assert cfg.client.batch_size == 5
        assert cfg.rounds == 500
        assert cfg.clients_per_round == 100
        assert cfg.client.k_r == 50 and cfg.client.k_u == 50
        assert cfg.repeats == 3  # reported numbers average three reruns

    @pytest.mark.parametrize("task", ["matfac", "synthetic", "oov_nwp"])
    def test_task_defaults_match_the_recorded_resolution(self, task):
        # Every default of every section, in the order the manifest writes
        # them; re-recording the file is a deliberate act.
        golden = json.loads((GOLDEN / "resolved_configs.json").read_text())[task]
        resolved = config_to_dict(load_config(overrides={"task": task}))
        assert resolved == golden
        assert json.dumps(resolved) == json.dumps(golden)

    def test_rating_population_is_checked_where_ratings_are_generated(self):
        sizes = {"data.synthetic.ratings_per_user": 81}  # of 80 items
        with pytest.raises(ConfigError, match="ratings_per_user"):
            prepare_task(load_config(None, {"task": "synthetic", **sizes}))
        prepare_task(load_config(None, {"task": "oov_nwp", **sizes}))  # draws no ratings

    def test_standard_grid_values(self):
        assert MATFAC_GRID["server.eta_s"] == [0.1, 0.5, 1.0]
        assert MATFAC_GRID["client.eta_r"] == [0.1, 0.5]
        assert MATFAC_GRID["client.eta_u"] == [0.1, 0.5]

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"client.eta_r": -1.0})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("client.eta_u", float("nan")),
            ("server.eta_s", float("inf")),
            ("eval.eta_r", float("nan")),
            ("data.synthetic.noise_std", float("-inf")),
            ("rounds", True),
            ("client.k_r", 2.5),
            ("model.init_stddev", "0.1"),
        ],
    )
    def test_nonfinite_or_mistyped_number_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {"task": "synthetic", key: value})

    @pytest.mark.parametrize(
        "values, where",
        [
            # A truthy string would turn joint training on.
            ({"client": {"joint_training": "false"}}, "client.joint_training"),
            ({"client": {"joint_training": 0}}, "client.joint_training"),
            ({"data": {"path": 5}}, "data.path"),
            ({"output_dir": 7}, "output_dir"),
            ({"split": {"kind": ["half_disjoint"]}}, "split.kind"),
        ],
    )
    def test_mistyped_bool_or_string_in_a_file_rejected(self, tmp_path, values, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"task": "synthetic", **values}))
        with pytest.raises(ConfigError, match=rf"^{where} must be "):
            load_config(path)

    def test_bool_and_optional_string_values_load(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(
            {"task": "synthetic", "client": {"joint_training": True}, "data": {"path": None}}
        ))
        cfg = load_config(path)
        assert cfg.client.joint_training is True and cfg.data.path is None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"task": "matfac", "bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"client": {"bogus": 1}})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"task": "synthetic", "rounds": 9, "seed": 1}))
        cfg = load_config(path, {"rounds": 3})
        assert cfg.rounds == 3 and cfg.seed == 1

    @pytest.mark.parametrize("task", ["matfac", "oov_nwp", "synthetic"])
    def test_config_is_frozen_and_hashable(self, task):
        cfg = load_config(overrides={"task": task})
        assert hash(cfg) == hash(load_config(overrides={"task": task}))
        with pytest.raises(FrozenInstanceError):
            cfg.server.eta_s = 0.5

    def test_round_trip_through_dict(self):
        cfg = load_config(None, {"task": "oov_nwp", "seed": 42})
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_fedrecon_requires_recon_eval(self):
        with pytest.raises(ConfigError):
            load_config(None, {"algorithm": "fedrecon", "eval.regime": "standard"})

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"task": "mystery"})

    def test_seed_is_below_2_to_the_64(self):
        # The random streams keep 64 bits of the seed: 2**64 would replay seed 0.
        assert load_config(None, {"task": "synthetic", "seed": 2**64 - 1}).seed == 2**64 - 1
        with pytest.raises(ConfigError, match=r"^seed must be in \[0, 2\*\*64\)"):
            load_config(None, {"task": "synthetic", "seed": 2**64})

    @pytest.mark.parametrize("num_users, empty", [(5, "test"), (3, "validation")])
    def test_population_leaving_a_split_empty_rejected(self, num_users, empty):
        cfg = load_config(
            None,
            {"task": "synthetic", "data.synthetic.num_users": num_users,
             "data.synthetic.true_rank": 2},
        )
        with pytest.raises(ConfigError, match=f"{empty} split empty"):
            prepare_task(cfg)

    def test_matfac_without_data_path_fails_at_load(self):
        cfg = load_config(None, {"task": "matfac"})
        with pytest.raises(DataError):
            prepare_task(cfg)


class TestRunExperiment:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        result = run_experiment(cfg)
        assert result.csv_path.is_file()
        assert result.manifest_path.is_file()
        assert result.params_path.is_file()
        header = result.csv_path.read_text().splitlines()[0]
        assert header == "round,split,metric,value,cumulative_params_communicated"

    @pytest.mark.parametrize("algorithm, regime", [("fedrecon", "recon"), ("fedavg", "standard")])
    @pytest.mark.parametrize("server", ["sgd", "adagrad", "yogi"])
    def test_rerun_is_byte_identical(self, tmp_path, server, algorithm, regime):
        # Both runs share one config object, so optimizer moments left over
        # from the first run would change the second.  Twenty ratings a user
        # leave two test examples under the time split.  A kind other than
        # the task's sgd must name its rate; these runs keep sgd's 1.0.
        cfg = synthetic_config(tmp_path, algorithm=algorithm, **{
            "eval.regime": regime, "server.kind": server, "server.eta_s": 1.0,
            "data.synthetic.num_items": 24, "data.synthetic.ratings_per_user": 20,
        })
        first = run_experiment(cfg)
        csv, params = first.csv_path.read_bytes(), first.params_path.read_bytes()
        second = run_experiment(cfg)
        assert second.csv_path.read_bytes() == csv
        assert second.params_path.read_bytes() == params

    @pytest.mark.parametrize("algorithm, regime", [
        ("fedrecon", "recon"), ("fedavg", "recon"), ("fedavg", "standard"),
        ("centralized", "recon"), ("centralized", "standard"),
    ])
    def test_starting_state_is_built_once_per_repeat(
        self, tmp_path, monkeypatch, algorithm, regime
    ):
        # The runner evaluates round 0 from the state it hands the trainer.
        original, calls = server.initial_state, []

        def counted(*args):
            calls.append(args[3])
            return original(*args)

        for module in (server, baselines, runner):
            monkeypatch.setattr(module, "initial_state", counted)
        run_experiment(synthetic_config(tmp_path, algorithm=algorithm, repeats=2, **{
            "eval.regime": regime, "centralized.epochs": 2, "data.synthetic.ratings_per_user": 10,
        }))
        assert calls == [algorithm] * 2

    def test_manifest_rerun_reproduces_csv(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        first = run_experiment(cfg)
        again = rerun_manifest(first.manifest_path, tmp_path / "rerun")
        assert first.csv_path.read_bytes() == again.csv_path.read_bytes()

    def test_manifest_config_round_trips(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        result = run_experiment(cfg)
        manifest = json.loads(result.manifest_path.read_text())
        assert config_from_dict(manifest["config"]) == cfg
        assert manifest["seed"] == cfg.seed

    def test_zero_rounds_emits_only_final_eval_rows(self, tmp_path):
        cfg = synthetic_config(tmp_path, rounds=0)
        result = run_experiment(cfg)
        rounds = {row[0] for row in result.rows}
        splits = {row[1] for row in result.rows}
        assert rounds == {0}
        assert splits == {"valid", "test"}

    def test_params_file_round_trips(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        result = run_experiment(cfg)
        blocks = read_params(result.params_path)
        bundle = prepare_task(cfg)
        assert [b.name for b in blocks] == [b.name for b in bundle.spec.init_global(
            RngStreams(0).generator("x"))]

    def test_mid_training_validation_rows(self, tmp_path):
        cfg = synthetic_config(tmp_path, **{"eval.every": 2})
        result = run_experiment(cfg)
        valid_rounds = sorted({r[0] for r in result.rows if r[1] == "valid"})
        assert valid_rounds == [0, 2, 4, 6]

    def test_repeats_average_metrics(self, tmp_path):
        single = run_experiment(synthetic_config(tmp_path))
        tripled = run_experiment(
            synthetic_config(tmp_path, repeats=3, output_dir=str(tmp_path / "r3"))
        )
        # same schema, different values (seeds differ per repeat)
        keys = lambda rows: [(r[0], r[1], r[2]) for r in rows]
        assert keys(single.rows) == keys(tripled.rows)

    def test_training_improves_over_initial(self, tmp_path):
        cfg = synthetic_config(tmp_path, rounds=40)
        result = run_experiment(cfg)
        initial = [r for r in result.rows if r[1] == "valid" and r[0] == 0 and r[2] == "rmse"]
        final = result.final_metrics["test"]["rmse"]
        assert final < initial[0][3]


class TestCommunicationColumn:
    """Every row's cumulative_params_communicated against the ledger's
    closed form: each of the m clients sampled in a round receives and
    returns the global blocks, and under fedavg its local block too.  Ten
    ratings a user leave one test example under the time split."""

    @pytest.mark.parametrize(
        "algorithm, regime", [("fedrecon", "recon"), ("fedavg", "recon"), ("fedavg", "standard")]
    )
    def test_a_round_t_row_carries_t_rounds_of_traffic(self, tmp_path, algorithm, regime):
        cfg = synthetic_config(tmp_path, algorithm=algorithm, **{
            "eval.every": 2, "eval.regime": regime, "data.synthetic.ratings_per_user": 10,
        })
        bundle = prepare_task(cfg)
        m = min(cfg.clients_per_round, len(bundle.train_clients))
        rng = np.random.default_rng(0)
        per_client = blocks_size(bundle.spec.init_global(rng))
        if algorithm == "fedavg":
            per_client += blocks_size(bundle.spec.init_local(rng))
        rows = run_experiment(cfg, bundle).rows
        assert m < len(bundle.train_clients)
        assert {(t, split) for t, split, *_ in rows} == {
            (0, "valid"), *((t, "train") for t in range(1, 7)),
            (2, "valid"), (4, "valid"), (6, "valid"), (6, "test"),
        }
        for t, split, metric, _, cumulative in rows:
            assert cumulative == t * 2 * m * per_client, (t, split, metric)

    @pytest.mark.parametrize("regime", ["recon", "standard"])
    def test_pooled_training_communicates_nothing(self, tmp_path, regime):
        cfg = synthetic_config(tmp_path, algorithm="centralized", **{
            "eval.regime": regime, "centralized.epochs": 2, "data.synthetic.ratings_per_user": 10,
        })
        rows = run_experiment(cfg).rows
        assert {(t, split) for t, split, *_ in rows} == {(0, "valid"), (2, "valid"), (2, "test")}
        assert [cumulative for *_, cumulative in rows] == [0] * len(rows)


def test_matfac_task_runs_on_a_miniature_ratings_file(tmp_path):
    # The real-data task end to end, on a synthetic file in the same format.
    rng = np.random.default_rng(0)
    lines = []
    stamp = 0
    for user in range(1, 31):
        for item in rng.choice(np.arange(100, 120), size=8, replace=False):
            stamp += 1
            lines.append(f"{user}::{item}::{int(rng.integers(1, 6))}::{stamp}")
    path = tmp_path / "ratings.dat"
    path.write_text("\n".join(lines) + "\n", encoding="iso-8859-1")

    cfg = load_config(
        None,
        {
            "task": "matfac",
            "data.path": str(path),
            "seed": 5,
            "rounds": 3,
            "clients_per_round": 5,
            "model.embed_dim": 3,
            "client.k_r": 2,
            "client.k_u": 2,
            "eval.repeats": 2,
            "eval.clients_per_repeat": 3,
            "output_dir": str(tmp_path / "out"),
        },
    )
    bundle = prepare_task(cfg)
    assert len(bundle.train_clients) == 24  # ceil(.8 * 30)
    result = run_experiment(cfg)
    assert "rmse" in result.final_metrics["test"]
    assert result.params_path.is_file()


class TestWriteParams:
    def test_read_back_exact(self, tmp_path):
        from partialfed.core import ParamBlock

        blocks = [
            ParamBlock.of("a", np.arange(6.0).reshape(2, 3)),
            ParamBlock.of("b", np.array([1.5, -2.5])),
        ]
        path = tmp_path / "params.bin"
        write_params(path, blocks)
        back = read_params(path)
        assert [b.name for b in back] == ["a", "b"]
        assert back[0].shape == (2, 3)
        for orig, readback in zip(blocks, back):
            assert np.array_equal(orig.values, readback.values)

    def test_truncation_detected(self, tmp_path):
        from partialfed.core import ParamBlock

        path = tmp_path / "params.bin"
        write_params(path, [ParamBlock.of("a", np.arange(4.0))])
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            read_params(path)

    def test_trailing_bytes_detected(self, tmp_path):
        from partialfed.core import ParamBlock

        path = tmp_path / "params.bin"
        write_params(path, [ParamBlock.of("a", np.arange(4.0))])
        path.write_bytes(path.read_bytes() + np.arange(3.0).tobytes())
        with pytest.raises(DataError, match=r": 24 trailing bytes after block 'a'$"):
            read_params(path)


class TestGridSearch:
    def test_single_point_selected(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        result = grid_search(cfg, {"client.eta_u": [0.05]})
        assert result.best_overrides == {"client.eta_u": 0.05}
        assert result.best_config.client.eta_u == 0.05

    def test_dominant_point_wins(self, tmp_path):
        # A near-zero reconstruction rate cripples evaluation, so the sane
        # rate must win on validation rmse.
        cfg = synthetic_config(tmp_path, rounds=10)
        result = grid_search(cfg, {"client.eta_r": [1e-6, 0.5]})
        assert result.best_overrides == {"client.eta_r": 0.5}
        assert len(result.entries) == 2

    def test_first_point_wins_ties(self, tmp_path):
        cfg = synthetic_config(tmp_path, rounds=2)
        result = grid_search(cfg, {"split.support_fraction": [0.5, 0.5]})
        assert result.best_overrides == {"split.support_fraction": 0.5}
        assert result.entries[0][1] == result.entries[1][1]

    @pytest.mark.parametrize("axis, values", [
        ("model.embed_dim", [7, 3]),
        ("seed", [12, 11]),
        ("data.synthetic.num_users", [30, 40]),
        ("eval.regime", ["standard", "recon"]),
    ])
    def test_a_point_that_changes_the_task_runs_on_its_own_task(
        self, tmp_path, monkeypatch, axis, values
    ):
        # Each axis is read by prepare_task.  The point equal to the base
        # (the second) shares the base's task; the first prepares its own,
        # and each entry is the validation score of its own config's run.
        cfg = synthetic_config(tmp_path, rounds=2, algorithm="fedavg",
                               **{"data.synthetic.ratings_per_user": 10})
        prepared, prepare = [], runner.prepare_task
        monkeypatch.setattr(runner, "prepare_task", lambda c: prepared.append(c) or prepare(c))
        result = grid_search(cfg, {axis: values})
        own = apply_overrides(cfg, {axis: values[0]})
        assert prepared == [cfg, own]
        for overrides, metrics in result.entries:
            point = apply_overrides(cfg, overrides)
            _, final, out = runner._run_all_repeats(point)
            assert metrics == final["valid"]
            assert out.global_params[0].shape == (12, point.model.embed_dim)
        best = result.best_run[2].global_params[0]
        assert best.shape == (12, result.best_config.model.embed_dim)

    def test_the_best_point_keeps_its_run(self, tmp_path):
        cfg = synthetic_config(tmp_path, rounds=3, repeats=2)
        result = grid_search(cfg, {"client.eta_r": [1e-6, 0.5], "client.eta_u": [0.05, 0.1]})
        rows, final, first = result.best_run
        want_rows, want_final, want_first = runner._run_all_repeats(result.best_config)
        assert (rows, final) == (want_rows, want_final)
        assert final["valid"] == result.best_metrics
        for got, want in zip(first.global_params, want_first.global_params, strict=True):
            assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("key", ["bogus.x", "seed.x"])
    def test_key_naming_no_section_is_a_config_error(self, tmp_path, key):
        cfg = synthetic_config(tmp_path, rounds=1)
        with pytest.raises(ConfigError, match=key.split(".")[0]):
            apply_overrides(cfg, {key: 1})
        with pytest.raises(ConfigError, match=key.split(".")[0]):
            grid_search(cfg, {key: [1]})

    def test_axis_without_values_is_a_config_error(self, tmp_path, monkeypatch):
        # Refused before any task is prepared, let alone run.
        monkeypatch.setattr(runner, "prepare_task", None)
        cfg = synthetic_config(tmp_path, rounds=1)
        with pytest.raises(ConfigError, match="^grid axis 'server.eta_s' has no values$"):
            grid_search(cfg, {"client.eta_r": [0.1], "server.eta_s": []})

    def test_full_tuning_grid_at_desk_scale(self, tmp_path):
        # The standard 12-point grid, including the corner that diverges on
        # this geometry; the selected point must be sane and beat a level a
        # constant mid-scale predictor cannot.
        cfg = load_config(
            None,
            {
                "task": "synthetic", "seed": 17, "rounds": 100,
                "eval.repeats": 3, "output_dir": str(tmp_path),
            },
        )
        with np.errstate(over="ignore", invalid="ignore"):  # divergent corners
            result = grid_search(cfg)  # defaults to the standard grid
        assert len(result.entries) == 12
        assert any("diverged" in metrics for _, metrics in result.entries)
        assert result.best_metrics["rmse"] < 1.0


class TestSweepSteps:
    def test_base_value_has_relative_one(self, tmp_path):
        cfg = synthetic_config(tmp_path, rounds=8)
        result = sweep_steps(cfg, "k_u", [1, cfg.client.k_u])
        rel = dict((v, r) for v, _, r in result.rows)
        assert rel[cfg.client.k_u] == pytest.approx(1.0)

    def test_kr_zero_gives_zero_accuracy(self, tmp_path):
        cfg = synthetic_config(tmp_path, rounds=10)
        result = sweep_steps(cfg, "k_r", [0, 3])
        by_value = {v: acc for v, acc, _ in result.rows}
        assert by_value[0] < 0.01

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep_steps(synthetic_config(tmp_path), "k_x")


def test_tradeoff_curves_shape(tmp_path, monkeypatch):
    from partialfed import runner

    prepared = []
    monkeypatch.setattr(runner, "prepare_task", lambda c: prepared.append(c) or prepare_task(c))
    cfg = synthetic_config(tmp_path, rounds=6)
    curves = tradeoff_curves(cfg, eval_every=2)
    assert len(prepared) == 1  # both algorithms run on one prepared task
    assert set(curves) == {"fedrecon", "fedavg"}
    for rows in curves.values():
        assert len(rows) == 3
        rounds, params, accs = zip(*rows)
        assert list(rounds) == [2, 4, 6]
        assert all(p2 > p1 for p1, p2 in zip(params, params[1:]))


def test_multi_repeat_runs_are_also_byte_identical(tmp_path):
    cfg = synthetic_config(tmp_path, repeats=3)
    first = run_experiment(cfg)
    second = run_experiment(replace(cfg, output_dir=str(tmp_path / "again")))
    assert first.csv_path.read_bytes() == second.csv_path.read_bytes()


def test_byte_identical_with_mid_training_evals(tmp_path):
    cfg = synthetic_config(tmp_path, **{"eval.every": 2})
    first = run_experiment(cfg)
    second = run_experiment(replace(cfg, output_dir=str(tmp_path / "again")))
    assert first.csv_path.read_bytes() == second.csv_path.read_bytes()


# Every numeric configuration field and its valid range.  Ints: the smallest
# valid value.  Floats: (low, low included, high, high included).
INT_FIELDS = {
    "seed": 0, "rounds": 0, "clients_per_round": 1, "repeats": 1,
    "client.k_r": 0, "client.k_u": 1, "client.batch_size": 1,
    "eval.repeats": 1, "eval.clients_per_repeat": 1, "eval.every": 0,
    "eval.valid_repeats": 1, "eval.k_r": 0,
    "model.embed_dim": 1, "model.vocab_size": 1, "model.num_oov_buckets": 0,
    "model.context_window": 1, "model.max_sentence_len": 3,
    "data.max_sentences_per_client": 1,
    **{
        f"data.synthetic.{name}": 1
        for name in (
            "num_users", "num_items", "true_rank", "ratings_per_user", "num_clients",
            "sentences_per_client", "personal_tokens", "common_words", "pairs_per_sentence",
        )
    },
    "centralized.epochs": 0, "centralized.batch_size": 1,
}
INF = float("inf")
FLOAT_FIELDS = {
    "split.support_fraction": (0.0, False, 1.0, True),
    "client.eta_r": (0.0, True, INF, False),
    "client.eta_u": (0.0, True, INF, False),
    "server.eta_s": (0.0, False, INF, False),
    "server.beta1": (0.0, True, 1.0, False),
    "server.beta2": (0.0, True, 1.0, False),
    "server.tau": (0.0, False, INF, False),
    "eval.eta_r": (0.0, False, INF, False),
    "model.init_stddev": (0.0, False, INF, False),
    "data.synthetic.noise_std": (0.0, True, INF, False),
    "data.synthetic.signal_std": (0.0, True, INF, False),
    "data.synthetic.user_bias_std": (0.0, True, INF, False),
    "centralized.rate": (0.0, False, INF, False),
}
OPTIONAL = ("eval.k_r", "eval.eta_r")


def numeric_fields(cls=ExperimentConfig, path=""):
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        if is_dataclass(hints[f.name]):
            yield from numeric_fields(hints[f.name], where)
        elif int in kinds or float in kinds:
            yield where


def test_range_tables_cover_every_numeric_field():
    assert sorted(numeric_fields()) == sorted({**INT_FIELDS, **FLOAT_FIELDS})


def nest(flat: dict) -> dict:
    tree: dict = {}
    for dotted, value in flat.items():
        *sections, name = dotted.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    return tree


def valid_float(low, low_in, high, high_in):
    top = min(high, 1e6)
    return st.floats(low, top, exclude_min=not low_in, exclude_max=top == high and not high_in)


@st.composite
def valid_config_dicts(draw):
    flat = {path: draw(st.integers(lo, lo + 10**6)) for path, lo in INT_FIELDS.items()}
    flat.update({path: draw(valid_float(*r)) for path, r in FLOAT_FIELDS.items()})
    for path in OPTIONAL:
        if draw(st.booleans()):
            flat[path] = None
    algorithm = draw(st.sampled_from(["fedrecon", "fedavg", "centralized"]))
    flat.update(
        {
            "task": draw(st.sampled_from(["matfac", "oov_nwp", "synthetic"])),
            "algorithm": algorithm,
            "eval.regime": "recon" if algorithm == "fedrecon"
            else draw(st.sampled_from(["recon", "standard"])),
            "split.kind": draw(st.sampled_from(["half_disjoint", "by_timestamp_half", "no_split"])),
            "server.kind": draw(st.sampled_from(["sgd", "adagrad", "yogi"])),
            "client.joint_training": draw(st.booleans()),
            "output_dir": draw(st.text(min_size=1, max_size=8)),
            "data.path": draw(st.none() | st.text(min_size=1, max_size=8)),
        }
    )
    return flat


def out_of_range(path):
    """Values outside ``path``'s range: non-finite, bool, past each bound."""
    bad = [st.sampled_from([float("nan"), INF, -INF, True, False])]
    if path in INT_FIELDS:
        lo = INT_FIELDS[path]
        # A float is never an int, however integral its value.
        bad += [st.just(lo - 1), st.integers(lo - 10**6, lo - 1), st.floats(allow_nan=False)]
    else:
        low, low_in, high, high_in = FLOAT_FIELDS[path]
        edge = low if not low_in else np.nextafter(low, -INF)
        bad += [st.just(float(edge)), st.floats(max_value=edge, allow_nan=False)]
        if high < INF:
            edge = high if not high_in else np.nextafter(high, INF)
            bad += [st.just(float(edge)), st.floats(min_value=edge, allow_nan=False)]
    return st.one_of(bad)


class TestConfigProperties:
    @settings(max_examples=150)
    @given(valid_config_dicts())
    def test_dict_round_trip_is_identity(self, flat):
        cfg = config_from_dict(nest(flat))
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @pytest.mark.parametrize("path", sorted({**INT_FIELDS, **FLOAT_FIELDS}))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_every_out_of_range_value_is_a_config_error(self, path, data):
        flat = data.draw(valid_config_dicts())
        flat[path] = data.draw(out_of_range(path), label=path)
        with pytest.raises(ConfigError):
            config_from_dict(nest(flat))


def test_diverging_run_raises_without_numpy_warnings(tmp_path):
    # Finiteness is checked once per result, so the overflow on the way to
    # a non-finite result warns about nothing; the error names the round
    # and the client.
    cfg = load_config(None, {
        "task": "synthetic", "rounds": 5, "client.eta_u": 200.0, "client.eta_r": 200.0,
        "output_dir": str(tmp_path / "run"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^round \d+, client \d+: non-finite"):
            run_experiment(cfg)
