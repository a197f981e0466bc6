"""Self-tests of the benchmark's own arithmetic and instrumentation.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer, self_times, union_length  # noqa: E402

import partialfed  # noqa: E402
from partialfed import client, core, evaluation, server  # noqa: E402
from partialfed.config import load_config  # noqa: E402
from partialfed.runner import prepare_task  # noqa: E402


# --- self time ---------------------------------------------------------------


def test_union_merges_overlaps_and_clips_to_parent():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert union_length([(2, 3), (2, 3)], 0, 10) == pytest.approx(1.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_subtracts_union_of_direct_children_only():
    #   0 [0, 10]
    #   +-- 1 [1, 4]      +-- 3 [1, 2] (grandchild of 0)
    #   +-- 2 [3, 6]      overlaps 1
    #   +-- 4 [8, 12]     runs past its parent's end
    start = [0.0, 1.0, 3.0, 1.0, 8.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_records_nesting_and_self_time():
    tr = Tracer()

    def inner():
        return 1

    traced_inner = tr.wrap("m.inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    assert tr.wrap("m.outer", outer)() == 2
    table = tr.layer_table()
    assert table["m.outer"]["calls"] == 1 and table["m.inner"]["calls"] == 2
    assert list(tr.parent) == [-1, 0, 0]
    outer_row = table["m.outer"]
    assert outer_row["self_ms"] == pytest.approx(
        outer_row["total_ms"] - table["m.inner"]["total_ms"]
    )


# --- percentile rule and derived counts -----------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_reportable_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.reportable_percentile(n) == expected


def test_derived_counts():
    assert stats.ledger_params("fedrecon", 2, 3, 10, 4) == 2 * 10 * 3 * 2
    assert stats.ledger_params("fedavg", 2, 3, 10, 4) == 2 * 14 * 3 * 2
    with pytest.raises(ValueError):
        stats.per_second(1, 0.0)


def _fake_report(speed=1.0):
    probe = [run.PROBE_REF_S * speed] * 2

    def one_pass(train_s, eval_s, cent_s):
        return {
            "phases": ["train", "eval", "centralized"],
            "train": {
                "seconds": train_s, "round_s": [train_s / 2] * 2, "client_rounds": 20,
                "comm_params_total": 80, "comm_params_expected": 80,
                "digest": {"size": 2, "l1": 3.0, "l2": 2.5, "proj": [0.1, 0.2]},
                "probe_s": probe,
            },
            "eval": {"seconds": eval_s, "clients": 5, "metrics": {"rmse": 1.5},
                     "test_error": 1.5, "test_accuracy": 0.25, "probe_s": probe},
            "centralized": {"seconds": cent_s, "examples": 100,
                            "digest": {"size": 2, "l1": 1.0, "l2": 1.0, "proj": [0.0, 0.0]},
                            "probe_s": probe},
            "seconds": train_s + eval_s + cent_s,
        }

    return {
        "setup": {"seconds": [0.3, 0.1, 0.2], "probe_s": probe, "train_clients": 4,
                  "test_sizes": [3, 4]},
        "passes": [one_pass(2.0, 1.0, 0.5), one_pass(3.0, 1.5, 0.5), one_pass(2.0, 0.5, 1.0)],
        "peak_rss_mb": 42.0,
        "stamp": {"error_metric": "rmse"},
    }


def test_end_to_end_metrics_from_a_report():
    metrics, samples = run.end_to_end(_fake_report())
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["train_clients_per_s"] == pytest.approx(60 / 7.0)
    assert metrics["eval_clients_per_s"] == pytest.approx(15 / 3.0)
    assert metrics["centralized_examples_per_s"] == pytest.approx(300 / 2.0)
    assert metrics["round_ms_p50"] == pytest.approx(1000.0)
    assert metrics["total_s"] == pytest.approx(0.2 + 3.5)
    assert samples["rounds"] == 6 and samples["passes"] == 3
    assert set(metrics) == {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    assert samples["raw"] == metrics and samples["speed_factor"] == pytest.approx(1.0)


def test_each_phase_is_scaled_by_the_probes_around_it():
    report = _fake_report()
    report["passes"][1]["train"]["probe_s"] = [run.PROBE_REF_S * 1.5, run.PROBE_REF_S * 2.5]
    metrics, samples = run.end_to_end(report)
    assert metrics["train_clients_per_s"] == pytest.approx(60 / (2.0 + 3.0 / 2 + 2.0))
    assert metrics["round_ms_p50"] == pytest.approx(1000.0)  # rounds: 1000 x4, 750 x2
    assert metrics["eval_clients_per_s"] == samples["raw"]["eval_clients_per_s"]
    assert metrics["total_s"] == pytest.approx(0.2 + 3.5)

    slow, _ = run.end_to_end(_fake_report(speed=2.0))
    fast, _ = run.end_to_end(_fake_report(speed=1.0))
    for name in ("setup_s", "round_ms_p50", "total_s"):
        assert slow[name] == pytest.approx(fast[name] / 2.0)
    for name in ("train_clients_per_s", "eval_clients_per_s", "centralized_examples_per_s"):
        assert slow[name] == pytest.approx(fast[name] * 2.0)
    assert slow["peak_rss_mb"] == fast["peak_rss_mb"]
    assert slow["test_error"] == fast["test_error"]


# --- correctness checks -------------------------------------------------------


def test_checks_pass_on_consistent_report_and_count_operations():
    report = _fake_report()
    assert checks.check_report(report, None) == {}
    assert len(checks.attempted_ops(report)) == 1 + 3 * 3


def test_checks_flag_ledger_drift_nondeterminism_and_references():
    report = _fake_report()
    report["passes"][0]["train"]["comm_params_total"] += 1
    report["passes"][2]["eval"]["metrics"] = {"rmse": 1.6}
    refs = {
        "rtol": 1e-6,
        "train_digest": report["passes"][1]["train"]["digest"],
        "eval_metrics": {"rmse": 1.5 * (1 + 1e-7)},
        "centralized_digest": dict(report["passes"][0]["centralized"]["digest"], l2=1.1),
    }
    fails = checks.check_report(report, refs)
    assert set(fails) == {(0, "train"), (2, "eval"), (0, "centralized")}


def test_checks_count_a_raising_phase():
    report = _fake_report()
    report["passes"][1] = {"phases": ["train", "eval"], "error": "Traceback ..."}
    assert set(checks.check_report(report, None)) == {(1, "eval")}


def test_digest_tolerance_is_relative():
    ref = {"size": 2, "l1": 2.0, "l2": 1.0, "proj": [0.5, -0.5]}
    near = {"size": 2, "l1": 2.0 * (1 + 5e-7), "l2": 1.0, "proj": [0.5 + 5e-7, -0.5]}
    assert checks.digest_mismatch(near, ref, 1e-6) is None
    assert checks.digest_mismatch(dict(near, proj=[0.5 + 2e-6, -0.5]), ref, 1e-6)
    assert checks.digest_mismatch(dict(near, size=3), ref, 1e-6)


# --- the traced run wraps and restores ------------------------------------------


def _tiny():
    cfg = load_config(
        overrides={
            "task": "synthetic", "rounds": 2, "clients_per_round": 4,
            "client.k_r": 2, "client.k_u": 2, "eval.repeats": 2, "eval.clients_per_repeat": 3,
        }
    )
    return cfg, prepare_task(cfg)


def _train(cfg, bundle):
    return server.run_training(
        bundle.spec, bundle.train_clients, rounds=cfg.rounds,
        clients_per_round=cfg.clients_per_round, policy=cfg.split, hyper=cfg.client,
        server_opt=cfg.server, streams=core.RngStreams(cfg.seed),
    )


def test_traced_run_restores_every_wrapped_function():
    originals = {
        "client.reconstruct": client.reconstruct,
        "evaluation.reconstruct": evaluation.reconstruct,
        "server.run_client_round": server.run_client_round,
        "post_init": core.ParamBlock.__dict__["__post_init__"],
        "generator": core.RngStreams.__dict__["generator"],
    }
    cfg, bundle = _tiny()
    plain = _train(cfg, bundle)

    tr = Tracer()
    instrument.install(tr)
    try:
        assert evaluation.reconstruct is not originals["evaluation.reconstruct"]
        assert server.run_client_round is not originals["server.run_client_round"]
        assert partialfed.run_training is server.run_training
        assert instrument.leftover_wrappers()
        traced_bundle = dataclasses.replace(bundle, spec=instrument.traced_spec(tr, bundle.spec))
        traced = _train(cfg, traced_bundle)
    finally:
        tr.restore()

    assert instrument.leftover_wrappers() == []
    assert client.reconstruct is originals["client.reconstruct"]
    assert evaluation.reconstruct is originals["evaluation.reconstruct"]
    assert server.run_client_round is originals["server.run_client_round"]
    assert core.ParamBlock.__dict__["__post_init__"] is originals["post_init"]
    assert core.RngStreams.__dict__["generator"] is originals["generator"]
    # Wrapping changes timing only, never results.
    for a, b in zip(plain.global_params, traced.global_params):
        assert (a.values == b.values).all()

    table = tr.layer_table()
    assert table["client.run_client_round"]["calls"] == cfg.rounds * cfg.clients_per_round
    assert table["client.reconstruct"]["calls"] == cfg.rounds * cfg.clients_per_round
    rounds_seen = {tr.ctx[i] for i, n in enumerate(tr.span_names()) if n == "server.aggregate"}
    assert rounds_seen == {0, 1}

    comm = sum(r.params_total for r in traced.comm_records)
    g_size = core.blocks_size(traced.global_params)
    assert comm == stats.ledger_params("fedrecon", cfg.rounds, cfg.clients_per_round, g_size, 0)
    derived = instrument.layer_metrics(tr, table, comm)
    assert derived["client.reconstruct.steps"] == cfg.rounds * cfg.clients_per_round * 2
    assert derived["client.reconstruct.loss_evals_per_step"] == 1.0
    # Reconstruction: loss + grad_local per step; update: one sparse_grads per step.
    assert derived["models.calls_per_step"] == pytest.approx(1.5)
    assert 0 < derived["client.client_update.rows_touched_share"] < 1
    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert set(names) <= set(derived)
