import json

import numpy as np
import pytest

from partialfed.cli import main


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


def test_data_error_exit_code(tmp_path):
    code = main(["train", "--task", "matfac", "--rounds", "1",
                 "--data-path", str(tmp_path / "missing.dat")])
    assert code == 2


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


def _mf_blocks(embed_dim):
    from partialfed.models import MatFacConfig, matfac_spec

    return matfac_spec(MatFacConfig(num_items=12, embed_dim=embed_dim)).init_global(
        np.random.default_rng(0)
    )


@pytest.mark.parametrize(
    "case", ["other_embed_dim", "other_task", "garbage_header", "missing_file", "non_finite"]
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
    elif case == "non_finite":
        blocks = _mf_blocks(embed_dim=3)
        blocks[0].values[1] = np.inf
        write_params(path, blocks)
    code = main(
        ["evaluate", "--config", str(small_synthetic), *synth_args(tmp_path), *task,
         "--params", str(path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err
    if case == "non_finite":
        assert str(path) in err and "'item_embeddings'" in err


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
