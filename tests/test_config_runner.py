import json
import typing
import warnings
from dataclasses import fields, is_dataclass, replace

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
from partialfed.core import RngStreams
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

    def test_round_trip_through_dict(self):
        cfg = load_config(None, {"task": "oov_nwp", "seed": 42})
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_fedrecon_requires_recon_eval(self):
        with pytest.raises(ConfigError):
            load_config(None, {"algorithm": "fedrecon", "eval.regime": "standard"})

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, {"task": "mystery"})

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

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        first = run_experiment(cfg)
        second = run_experiment(replace(cfg, output_dir=str(tmp_path / "again")))
        assert first.csv_path.read_bytes() == second.csv_path.read_bytes()
        assert first.params_path.read_bytes() == second.params_path.read_bytes()

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

    @pytest.mark.parametrize("key", ["bogus.x", "seed.x"])
    def test_key_naming_no_section_is_a_config_error(self, tmp_path, key):
        cfg = synthetic_config(tmp_path, rounds=1)
        with pytest.raises(ConfigError, match=key.split(".")[0]):
            apply_overrides(cfg, {key: 1})
        with pytest.raises(ConfigError, match=key.split(".")[0]):
            grid_search(cfg, {key: [1]})

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
        elif (int in kinds or float in kinds) and f.name not in (
            "first_moment", "second_moment"
        ):
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
