import json

import numpy as np
import pytest

from partialfed.cli import main
from partialfed.config import config_from_dict
from partialfed.runner import prepare_task


def synth_args(tmp_path, *extra):
    return [
        "--task", "synthetic",
        "--seed", "11",
        "--rounds", "4",
        "--clients-per-round", "5",
        "--eval-repeats", "2",
        "--eval-clients-per-repeat", "5",
        "--k-r", "3",
        "--k-u", "3",
        "--embed-dim", "3",
        "--output-dir", str(tmp_path / "out"),
        *extra,
    ]


def shrink_data_flags():
    return []


@pytest.fixture(autouse=True)
def small_synthetic(monkeypatch, tmp_path):
    # Keep CLI runs tiny by shrinking the synthetic dataset via config file.
    cfg = {
        "data": {
            "synthetic": {
                "num_users": 40,
                "num_items": 12,
                "ratings_per_user": 8,
                "true_rank": 3,
            }
        }
    }
    path = tmp_path / "base.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_verb_writes_artifacts(tmp_path, small_synthetic, capsys):
    code = main(["train", "--config", str(small_synthetic), *synth_args(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics.csv" in out
    assert (tmp_path / "out" / "metrics.csv").is_file()
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_evaluate_verb_reads_params(tmp_path, small_synthetic, capsys):
    assert main(["train", "--config", str(small_synthetic), *synth_args(tmp_path)]) == 0
    code = main(
        [
            "evaluate",
            "--config", str(small_synthetic),
            *synth_args(tmp_path),
            "--params", str(tmp_path / "out" / "params.bin"),
        ]
    )
    assert code == 0
    assert "rmse" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    assert main(["train", "--task", "bogus"]) == 1


@pytest.mark.parametrize("file_values, flags, message", [
    ({"task": ""}, [], "task must be one of"),
    ({"task": False}, [], "task must be one of"),
    ({"task": 0}, [], "task must be one of"),
    ({"task": None}, [], "task must be one of"),
    (None, ["--task", ""], "task must be one of"),
    (None, ["--task", "synthetic", "--seed", str(2**64)], "seed must be in"),
], ids=["file-empty", "file-false", "file-zero", "file-null", "flag-empty", "seed-2**64"])
def test_a_task_not_named_or_a_seed_past_64_bits_is_a_config_error(
    tmp_path, monkeypatch, capsys, file_values, flags, message
):
    # Neither may fall back to the default task nor alias a lower seed.
    monkeypatch.chdir(tmp_path)
    config = []
    if file_values is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(file_values))
        config = ["--config", str(path)]
    assert main(["train", *config, *flags]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_changing_the_server_kind_needs_its_rate(tmp_path, small_synthetic, capsys):
    # The synthetic task's eta_s 1.0 is sgd's: under Yogi the task's
    # default-sized fedavg run diverges at round 5 (a numerical error, exit 3).  A
    # changed kind without a rate is a config error, and nothing is written.
    args = ["train", "--config", str(small_synthetic), *synth_args(tmp_path),
            "--server-opt", "yogi"]
    assert main(args) == 1
    assert "server.eta_s must be given" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main([*args, "--eta-s", "0.05"]) == 0
    # The task's own kind needs no rate; nor does a file that names one.
    assert main([*args[:-1], "sgd"]) == 0
    base = json.loads(small_synthetic.read_text())
    for server, code in (({"kind": "adagrad", "eta_s": 0.1}, 0), ({"kind": "adagrad"}, 1)):
        small_synthetic.write_text(json.dumps({**base, "server": server}))
        assert main(args[:-2]) == code
    # Next-word prediction's 0.1 is Yogi's; a switch to sgd names a rate too.
    assert main(["train", "--task", "oov_nwp", "--server-opt", "sgd",
                 "--output-dir", str(tmp_path / "nwp")]) == 1
    assert "from the task's 'yogi' to 'sgd'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, where",
    [
        ({"client": {"joint_training": "false"}}, "client.joint_training"),
        ({"data": {"path": 5}}, "data.path"),
        ({"output_dir": 7}, "output_dir"),
    ],
)
def test_mistyped_bool_or_string_is_a_config_error(tmp_path, monkeypatch, capsys, values, where):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PARTIALFED_OUTPUT_DIR", raising=False)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(values))
    assert main(["train", "--task", "synthetic", "--config", str(path)]) == 1
    assert f"{where} must be " in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([path, tmp_path / "base.json"])


@pytest.mark.parametrize("field, value", [("noise_std", float("nan")), ("num_users", 10.5)])
def test_bad_synthetic_value_is_a_config_error(tmp_path, small_synthetic, capsys, field, value):
    base = json.loads(small_synthetic.read_text())
    base["data"]["synthetic"][field] = value
    small_synthetic.write_text(json.dumps(base))
    assert main(["train", "--config", str(small_synthetic), *synth_args(tmp_path)]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_data_error_exit_code(tmp_path):
    code = main(["train", "--task", "matfac", "--rounds", "1",
                 "--data-path", str(tmp_path / "missing.dat")])
    assert code == 2


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["zero_bytes", "blank_lines"])
def test_a_ratings_file_without_ratings_is_a_data_error(tmp_path, capsys, text):
    path = tmp_path / "ratings.dat"
    path.write_text(text)
    code = main(["train", "--task", "matfac", "--rounds", "1", "--data-path", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"data error: ratings file {path} holds no ratings" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "task, name, line",
    [
        ("matfac", "ratings.dat", "2::1::4::99999999999999999999"),
        ("matfac", "ratings.dat", "-9223372036854775809::1::4::5"),
        ("oov_nwp", "corpus.tsv", "1\t99999999999999999999\ta b c"),
        ("oov_nwp", "corpus.tsv", "-9223372036854775809\t5\ta b c"),
    ],
)
def test_an_integer_outside_int64_is_a_data_error(tmp_path, capsys, task, name, line):
    path = tmp_path / name
    path.write_text(line + "\n")
    code = main(["train", "--task", task, "--rounds", "1", "--data-path", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"data error: {path}:1: integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["zero_bytes", "blank_lines"])
def test_a_corpus_file_without_sentences_is_a_data_error(tmp_path, capsys, text):
    path = tmp_path / "corpus.tsv"
    path.write_text(text)
    code = main(["train", "--task", "oov_nwp", "--rounds", "1", "--data-path", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"data error: corpus file {path} holds no sentences" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_error_exit_code(monkeypatch):
    import argparse

    from partialfed import cli
    from partialfed.errors import NumericalError

    def boom(args):
        raise NumericalError("synthetic blow-up")

    class FakeParser:
        def parse_args(self, argv):
            return argparse.Namespace(func=boom)

    monkeypatch.setattr(cli, "build_parser", lambda: FakeParser())
    assert cli.main([]) == 3


def test_env_var_overrides_output_dir(tmp_path, small_synthetic, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("PARTIALFED_OUTPUT_DIR", str(env_dir))
    args = [a for a in synth_args(tmp_path) if not a.startswith(str(tmp_path / "out"))]
    args = ["train", "--config", str(small_synthetic)] + args[: args.index("--output-dir")]
    assert main(args) == 0
    assert (env_dir / "metrics.csv").is_file()


def test_sweep_verb(tmp_path, small_synthetic, capsys):
    code = main(
        ["sweep", "--config", str(small_synthetic), *synth_args(tmp_path),
         "--axis", "k-r", "--values", "0,2"]
    )
    assert code == 0
    assert (tmp_path / "out" / "sweep_k_r.csv").is_file()


def test_check_gradients_verb(capsys):
    assert main(["check-gradients", "--instances", "5", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "matfac" in out and "oov_nwp" in out and "ok" in out


def test_verify_meta_verb(capsys):
    assert main(["verify-meta", "--instances", "3", "--seed", "0"]) == 0
    assert "first-order" in capsys.readouterr().out


@pytest.mark.parametrize("verb, instances", [("check-gradients", "0"), ("verify-meta", "-3")])
def test_an_audit_of_no_instances_is_a_config_error(verb, instances, capsys):
    assert main([verb, "--instances", instances]) == 1
    captured = capsys.readouterr()
    assert "[ok]" not in captured.out
    assert "--instances must be positive" in captured.err


def test_reproduce_table2_mech(tmp_path, capsys):
    code = main(
        [
            "reproduce", "table2-mech",
            "--task", "oov_nwp",
            "--seed", "11",
            "--rounds", "6",
            "--clients-per-round", "4",
            "--eval-repeats", "2",
            "--eval-clients-per-repeat", "4",
            "--output-dir", str(tmp_path / "t2"),
        ]
    )
    assert code == 0
    table = (tmp_path / "t2" / "table2_mech.csv").read_text()
    assert "fedrecon 500 oov" in table
    assert "fedrecon 1 oov" in table


def test_table2_mech_rows_train_fedrecon_whatever_the_flag(tmp_path):
    out = tmp_path / "t2"
    code = main(
        [
            "reproduce", "table2-mech", "--algorithm", "fedavg",
            "--task", "oov_nwp", "--seed", "11", "--rounds", "2", "--clients-per-round", "4",
            "--eval-repeats", "1", "--eval-clients-per-repeat", "4",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    rows = {
        "fedrecon_500_oov": (500, "by_timestamp_half", False),
        "fedrecon_1_oov": (1, "by_timestamp_half", False),
        "fedrecon_500_oov_no_split": (500, "no_split", False),
        "fedrecon_500_oov_joint": (500, "by_timestamp_half", True),
    }
    for row, (buckets, split, joint) in rows.items():
        config = json.loads((out / row / "manifest.json").read_text())["config"]
        assert config["task"] == "oov_nwp" and config["algorithm"] == "fedrecon", row
        assert config["model"]["num_oov_buckets"] == buckets, row
        assert config["split"]["kind"] == split, row
        assert config["client"]["joint_training"] is joint, row


def test_table2_mech_rows_take_their_own_task_defaults(tmp_path):
    # Without --task the base config is matfac's, but every row sets task
    # oov_nwp and so must run with oov_nwp's defaults (Yogi, a by-timestamp
    # split, one repeat), exactly as under --task oov_nwp.  A toy table
    # scores 0.0 on every row, so each row's own mechanism setting is read
    # from its manifest and from the model that config builds.
    flags = ["--seed", "11", "--rounds", "2", "--clients-per-round", "4",
             "--eval-repeats", "1", "--eval-clients-per-repeat", "4"]
    for out, task in ((tmp_path / "bare", []), (tmp_path / "task", ["--task", "oov_nwp"])):
        assert main(["reproduce", "table2-mech", *flags, *task, "--output-dir", str(out)]) == 0
    rows = {
        "fedrecon_500_oov": (500, False),
        "fedrecon_1_oov": (1, False),
        "fedrecon_500_oov_no_split": (500, False),
        "fedrecon_500_oov_joint": (500, True),
    }
    for row, (buckets, joint) in rows.items():
        config = json.loads((tmp_path / "bare" / row / "manifest.json").read_text())["config"]
        split = "no_split" if row.endswith("no_split") else "by_timestamp_half"
        assert config["split"]["kind"] == split, row
        assert config["server"]["kind"] == "yogi", row
        assert (config["rounds"], config["repeats"]) == (2, 1), row
        assert config["model"]["num_oov_buckets"] == buckets, row
        assert config["client"]["joint_training"] is joint, row
        spec = prepare_task(config_from_dict(config)).spec
        assert [b.shape[1] for b in spec.init_local(np.random.default_rng(0))] == [buckets], row
        for name in ("params.bin", "metrics.csv"):
            bare, task = ((tmp_path / run / row / name).read_bytes() for run in ("bare", "task"))
            assert bare == task, f"{row} {name}"


def test_reproduce_fig4(tmp_path):
    code = main(
        [
            "reproduce", "fig4",
            "--task", "synthetic",
            "--seed", "11",
            "--rounds", "4",
            "--clients-per-round", "5",
            "--eval-repeats", "1",
            "--eval-clients-per-repeat", "5",
            "--eval-every", "2",
            "--k-r", "3", "--k-u", "3", "--embed-dim", "3",
            "--output-dir", str(tmp_path / "f4"),
        ]
    )
    assert code == 0
    body = (tmp_path / "f4" / "fig4.csv").read_text()
    assert body.startswith("algorithm,round,cumulative_params_communicated,accuracy")
    assert "fedrecon" in body and "fedavg" in body


def test_evaluate_rejects_standard_regime(tmp_path, small_synthetic):
    assert main(["train", "--config", str(small_synthetic), *synth_args(tmp_path)]) == 0
    code = main(
        [
            "evaluate",
            "--config", str(small_synthetic),
            *synth_args(tmp_path),
            "--algorithm", "centralized",
            "--eval-regime", "standard",
            "--params", str(tmp_path / "out" / "params.bin"),
        ]
    )
    assert code == 1


def test_reproduce_table1_requires_data(tmp_path):
    code = main(["reproduce", "table1", "--task", "matfac",
                 "--output-dir", str(tmp_path / "t1")])
    assert code == 2


def test_the_tuned_table1_row_writes_the_grids_run(tmp_path, monkeypatch):
    # The grid has run the tuned point, every repeat of it: the row writes
    # that run, whose files are those of running its manifest again.
    from partialfed import runner
    from partialfed.config import MATFAC_GRID

    data = {"num_users": 40, "num_items": 12, "ratings_per_user": 10, "true_rank": 3}
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"data": {"synthetic": data}, "centralized": {"epochs": 2}}))
    calls, execute = [], runner._execute
    monkeypatch.setattr(runner, "_execute", lambda *a: calls.append(a) or execute(*a))
    out = tmp_path / "t1"
    flags = ["--config", str(path), *synth_args(tmp_path)[:-2], "--repeats", "2", "--grid"]
    assert main(["reproduce", "table1", *flags, "--output-dir", str(out)]) == 0
    points = int(np.prod([len(v) for v in MATFAC_GRID.values()]))
    assert len(calls) == 2 * (points + 4)  # the grid and the four untuned rows
    tuned = out / "fedrecon_recon_eval"
    again = runner.rerun_manifest(tuned / "manifest.json", tmp_path / "again")
    for name in ("metrics.csv", "params.bin"):
        assert (tuned / name).read_bytes() == (again.output_dir / name).read_bytes()


def _mf_blocks(embed_dim):
    from partialfed.models import ModelConfig, matfac_spec

    return matfac_spec(ModelConfig(embed_dim=embed_dim), 12).init_global(
        np.random.default_rng(0)
    )


@pytest.mark.parametrize(
    "case",
    [
        "other_embed_dim", "other_task", "garbage_header", "missing_file", "non_finite",
        "wrapping_shape", "oversized_shape", "trailing_bytes",
    ],
)
def test_evaluate_bad_params_is_a_data_error(tmp_path, small_synthetic, capsys, case):
    from partialfed.runner import write_params

    path, task = tmp_path / "params.bin", []
    if case == "other_embed_dim":
        write_params(path, _mf_blocks(embed_dim=4))  # the config's model has 3
    elif case == "other_task":
        write_params(path, _mf_blocks(embed_dim=3))
        task = ["--task", "oov_nwp"]
    elif case == "garbage_header":
        path.write_bytes(b"not a header\n" + bytes(64))
    elif case in ("wrapping_shape", "oversized_shape"):
        # 2**64 values, which int64 arithmetic wraps to 0; 2**61 values, whose
        # 2**64 bytes no read can hold.  Both are refused before any read.
        shape = [2**32, 2**32] if case == "wrapping_shape" else [2**61]
        header = {"dtype": "<f8", "blocks": [{"name": "item_embeddings", "shape": shape}]}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(64))
    elif case == "non_finite":
        blocks = _mf_blocks(embed_dim=3)
        blocks[0].values[1] = np.inf
        write_params(path, blocks)
    elif case == "trailing_bytes":
        write_params(path, _mf_blocks(embed_dim=3))
        path.write_bytes(path.read_bytes() + np.arange(3.0).tobytes())
    code = main(
        ["evaluate", "--config", str(small_synthetic), *synth_args(tmp_path), *task,
         "--params", str(path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "data error:" in err
    if case == "non_finite":
        assert str(path) in err and "'item_embeddings'" in err
    if case == "trailing_bytes":
        assert "24 trailing bytes after block 'item_embeddings'" in err


@pytest.mark.parametrize("runtime_warnings", ["error", "ignore"])
def test_evaluate_overflowing_scores_is_a_numerical_error(
    tmp_path, small_synthetic, capsys, runtime_warnings
):
    # Item rows of 1e200 overflow every squared error; with no reconstruction
    # step the overflow first shows in the scores.
    import warnings

    from partialfed.runner import write_params

    path = tmp_path / "params.bin"
    blocks = _mf_blocks(embed_dim=3)
    blocks[0].values[:] = 1e200
    write_params(path, blocks)
    with warnings.catch_warnings():
        warnings.simplefilter(runtime_warnings, RuntimeWarning)
        code = main(
            ["evaluate", "--config", str(small_synthetic), *synth_args(tmp_path),
             "--eval-k-r", "0", "--params", str(path)]
        )
    assert code == 3
    assert "numerical error: repeat 0, client " in capsys.readouterr().err


def test_sweep_rejects_non_integer_values(tmp_path, small_synthetic, capsys):
    code = main(
        ["sweep", "--config", str(small_synthetic), *synth_args(tmp_path),
         "--axis", "k-r", "--values", "1,x"]
    )
    assert code == 1
    assert "config error" in capsys.readouterr().err


METRICS_HEADER = "round,split,metric,value,cumulative_params_communicated"
STEPS_HEADER = "{},accuracy,relative_accuracy"


@pytest.mark.parametrize(
    "recipe, args, files",
    [
        (
            ["reproduce", "table2-mech"],
            ["--task", "oov_nwp", "--seed", "11", "--rounds", "3", "--clients-per-round", "4",
             "--eval-repeats", "1", "--eval-clients-per-repeat", "4"],
            {"table2_mech.csv": "setting,accuracy",
             "fedrecon_1_oov/metrics.csv": METRICS_HEADER},
        ),
        (
            ["reproduce", "fig3"],
            None,
            {"fig3_k_r.csv": STEPS_HEADER.format("k_r"),
             "fig3_k_u.csv": STEPS_HEADER.format("k_u")},
        ),
        (
            ["reproduce", "fig4"],
            None,
            {"fig4.csv": "algorithm,round,cumulative_params_communicated,accuracy"},
        ),
        (
            ["sweep", "--axis", "k-u", "--values", "1,3,2"],
            None,
            {"sweep_k_u.csv": STEPS_HEADER.format("k_u")},
        ),
    ],
    ids=["table2-mech", "fig3", "fig4", "sweep"],
)
def test_recipe_files_share_one_csv_format(tmp_path, small_synthetic, recipe, args, files):
    """Every result file is comma-separated with CRLF line ends; an integer
    column holds plain integers and a float column the repr of each value."""
    if args is None:  # the rating recipes run on the shrunken synthetic task
        args = ["--config", str(small_synthetic), *synth_args(tmp_path)[:-2],
                "--eval-every", "2"]
    out = tmp_path / "rec"
    assert main([*recipe, *args, "--output-dir", str(out)]) == 0
    text_columns = {"setting", "algorithm", "split", "metric"}
    int_columns = {"round", "cumulative_params_communicated", "k_r", "k_u"}
    for name, header in files.items():
        raw = (out / name).read_bytes()
        assert raw.endswith(b"\r\n")
        assert raw.count(b"\n") == raw.count(b"\r\n"), f"{name}: a bare LF line end"
        lines = raw.decode("utf-8").split("\r\n")[:-1]
        assert lines[0] == header
        assert len(lines) > 1
        columns = header.split(",")
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(columns), line
            for column, f in zip(columns, fields):
                if column in int_columns:
                    assert f == str(int(f)), f"{name}: {column} {f!r}"
                elif column not in text_columns:
                    assert f == repr(float(f)), f"{name}: {column} {f!r} is not a float's repr"
