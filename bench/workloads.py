"""The benchmark workloads and one pass of each.

Every workload is a closed loop with one caller: a round starts when the
previous one ends.  A pass is the workload's fixed recipe (train, evaluate,
pooled centralized training) from freshly initialised parameters, so every
pass of a run does identical work and reaches identical results.  The
simulator is called only through its public layer functions, looked up on
their modules so that a tracer can wrap them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from partialfed import baselines, evaluation, runner, server
from partialfed.config import ExperimentConfig, load_config
from partialfed.core import RngStreams, blocks_size
from partialfed.evaluation import EvalMode

import stats

# prepare_task calls per run; setup_s is their median.
SETUP_REPS = 7
# Paper shape of MovieLens 1M, generated locally.
ML1M_SHAPE = {
    "task": "synthetic",
    "data.synthetic.num_users": 6040,
    "data.synthetic.num_items": 3706,
    "data.synthetic.ratings_per_user": 165,
}
# The matfac task's published settings.
MATFAC_SETTINGS = {
    "model.embed_dim": 50,
    "model.init_stddev": 0.1,
    "client.k_r": 50,
    "client.k_u": 50,
    "client.eta_r": 0.1,
    "client.eta_u": 0.1,
    "client.batch_size": 5,
    "server.kind": "sgd",
    "server.eta_s": 1.0,
    "split.kind": "half_disjoint",
    "clients_per_round": 100,
    "eval.clients_per_repeat": 50,
}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    # Pooled centralized training runs on the first N training clients by
    # id (None: all of them).
    centralized_clients: int | None = None
    error_metric: str = "rmse"


WORKLOADS = {
    "mf_fedrecon": Workload(
        "mf_fedrecon",
        {
            **ML1M_SHAPE,
            **MATFAC_SETTINGS,
            "algorithm": "fedrecon",
            "eval.regime": "recon",
            "rounds": 4,
            "eval.repeats": 4,
            "centralized.epochs": 1,
        },
    ),
    "mf_baselines": Workload(
        "mf_baselines",
        {
            **ML1M_SHAPE,
            **MATFAC_SETTINGS,
            "algorithm": "fedavg",
            "eval.regime": "standard",
            "rounds": 4,
            "centralized.epochs": 1,
        },
    ),
    "nwp_fedrecon": Workload(
        "nwp_fedrecon",
        {
            "task": "oov_nwp",
            "algorithm": "fedrecon",
            "data.synthetic.num_clients": 200,
            "data.synthetic.common_words": 400,
            "data.synthetic.personal_tokens": 6,
            "model.vocab_size": 406,
            "model.embed_dim": 32,
            "model.num_oov_buckets": 500,
            "clients_per_round": 20,
            "rounds": 9,
            "eval.repeats": 10,
            "centralized.epochs": 1,
        },
        centralized_clients=40,
        error_metric="cross_entropy",
    ),
}


def make_config(workload: Workload, seed: int) -> ExperimentConfig:
    return load_config(overrides={**workload.overrides, "seed": seed})


def initial_globals(cfg: ExperimentConfig, spec):
    """The global parameters every training call starts from: both
    run_training and train_centralized draw them from the seed's
    "global_init" stream."""
    return spec.init_global(RngStreams(cfg.seed).generator("global_init"))


def digest(blocks, start) -> dict[str, object]:
    """Summary of what training changed (final minus starting parameters)
    that survives summation-order changes within a relative tolerance: the
    L1 and L2 norms and projections on four fixed random unit directions.
    Digesting the change rather than the parameters keeps the small
    training updates from vanishing next to the initialisation."""
    v = np.concatenate([b.values - s.values for b, s in zip(blocks, start)])
    directions = np.random.default_rng(20210205).standard_normal((4, v.size))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return {
        "size": int(v.size),
        "l1": float(np.abs(v).sum()),
        "l2": float(np.linalg.norm(v)),
        "proj": [float(x) for x in directions @ v],
    }


def _phase(out, tracer, name):
    out["phases"].append(name)
    if tracer is not None:
        tracer.set_phase(name)


def run_pass(
    workload: Workload, cfg: ExperimentConfig, bundle, start, out: dict, probe, tracer=None
) -> None:
    """Train, evaluate and train centrally once, filling ``out`` with the
    timings and outputs the correctness checks read; ``start`` is
    :func:`initial_globals`, for the digests.  ``out["phases"]``
    lists the phases started, so a caller can tell which one raised;
    ``out["seconds"]`` is the summed wall time of the three phases.
    ``probe()`` runs before and after each phase, outside the timed
    regions; each phase keeps the two durations in ``probe_s``."""
    spec = bundle.spec
    streams = RngStreams(cfg.seed)
    out["phases"] = []
    before = probe()

    # Training phase: one timestamp per round through eval_fn/eval_every=1.
    _phase(out, tracer, "train")
    stamps: list[float] = []

    def on_round(t, g, store):
        stamps.append(time.perf_counter())

    common = dict(
        rounds=cfg.rounds,
        clients_per_round=cfg.clients_per_round,
        hyper=cfg.client,
        server_opt=cfg.server,
        streams=streams,
        eval_fn=on_round,
        eval_every=1,
    )
    t0 = time.perf_counter()
    if cfg.algorithm == "fedavg":
        result = baselines.train_fedavg(spec, bundle.train_clients, **common)
    else:
        result = server.run_training(
            spec, bundle.train_clients, policy=cfg.split, algorithm=cfg.algorithm, **common
        )
    t1 = time.perf_counter()
    g = result.global_params
    local_size = blocks_size(spec.init_local(np.random.default_rng(0)))
    out["train"] = {
        "seconds": t1 - t0,
        "round_s": np.diff([t0] + stamps).tolist(),
        "client_rounds": len(result.reports) * cfg.clients_per_round,
        "comm_params_total": int(sum(r.params_total for r in result.comm_records)),
        "comm_params_expected": stats.ledger_params(
            cfg.algorithm, cfg.rounds, cfg.clients_per_round, blocks_size(g), local_size
        ),
        "digest": digest(g, start),
    }
    after = probe()
    out["train"]["probe_s"], before = [before, after], after

    # Evaluation phase.
    _phase(out, tracer, "eval")
    t0 = time.perf_counter()
    if bundle.regime == "recon":
        mode = EvalMode(
            kind="recon_eval",
            recon_hyper=cfg.eval_hyper(),
            repeats=cfg.eval.repeats,
            clients_per_repeat=cfg.eval.clients_per_repeat,
        )
        metrics = evaluation.recon_eval(
            spec, g, bundle.test_clients, cfg.split, mode, streams, namespace="eval:test"
        ).metrics
        # Each repeat scores min(clients_per_repeat, population) distinct clients.
        scored = cfg.eval.repeats * min(cfg.eval.clients_per_repeat, len(bundle.test_clients))
    else:
        metrics = evaluation.standard_eval(spec, g, result.local_store, bundle.test_clients)
        scored = sum(1 for ds in bundle.test_clients if ds.n > 0)
    t1 = time.perf_counter()
    out["eval"] = {
        "seconds": t1 - t0,
        "clients": scored,
        "metrics": metrics,
        "test_error": metrics[workload.error_metric],
        "test_accuracy": metrics["accuracy"],
    }
    after = probe()
    out["eval"]["probe_s"], before = [before, after], after

    # Pooled centralized training.
    _phase(out, tracer, "centralized")
    ids = sorted(bundle.train_clients)[: workload.centralized_clients]
    pooled = {cid: bundle.train_clients[cid] for cid in ids}
    t0 = time.perf_counter()
    g_c, _ = baselines.train_centralized(
        spec,
        pooled,
        epochs=cfg.centralized.epochs,
        batch_size=cfg.centralized.batch_size,
        rate=cfg.centralized.rate,
        streams=streams,
    )
    t1 = time.perf_counter()
    out["centralized"] = {
        "seconds": t1 - t0,
        "examples": cfg.centralized.epochs * sum(ds.n for ds in pooled.values()),
        "digest": digest(g_c, start),
    }
    out["centralized"]["probe_s"] = [before, probe()]
    out["seconds"] = sum(out[phase]["seconds"] for phase in out["phases"])


def timed_setup(cfg: ExperimentConfig, probe, tracer=None):
    """Call prepare_task ``SETUP_REPS`` times with ``probe()`` around each call;
    returns the last bundle, the wall time of every call and every probe
    duration."""
    if tracer is not None:
        tracer.set_phase("setup")
    times, probes, bundle = [], [probe()], None
    for _ in range(SETUP_REPS):
        bundle = None  # release the previous bundle before building the next
        t0 = time.perf_counter()
        bundle = runner.prepare_task(cfg)
        times.append(time.perf_counter() - t0)
        probes.append(probe())
    return bundle, times, probes
