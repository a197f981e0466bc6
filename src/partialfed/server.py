"""Round orchestration: client sampling, weighted aggregation, and pluggable
server optimizers driven by the aggregated update as an antigradient.

The same loop runs both the partially local algorithm (``fedrecon``: only
global blocks aggregated; local parameters rebuilt on clients every round)
and the full-aggregation baseline (``fedavg``: the server also stores every
client's local block, overwritten by its owner's update).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .client import ClientHyper, CohortUpdate, SplitPolicy, run_cohort
from .core import (
    Blocks,
    ClientDataset,
    LocalTables,
    ModelSpec,
    ParamBlock,
    RngStreams,
    blocks_size,
    finalize_metrics,
    merge_metrics,
)
from .errors import ConfigError, NumericalError, RoundError, ShapeMismatchError
from .evaluation import CommRecord

__all__ = [
    "ServerOptimizer",
    "RoundReport",
    "TrainResult",
    "initial_state",
    "sample_clients",
    "aggregate",
    "server_moments",
    "server_step",
    "run_training",
]

OPTIMIZER_KINDS = ("sgd", "adagrad", "yogi")
FEDERATED_ALGORITHMS = ("fedrecon", "fedavg")


@dataclass(frozen=True)
class ServerOptimizer:
    """Server optimizer settings; ``sgd`` applies the weighted update
    directly, the adaptive variants treat its negation as a gradient and keep
    per-block moments (:func:`server_moments`), which belong to one run.

    The second moment starts at tau**2 for Yogi and at 0 for Adagrad.  Reddi
    et al., *Adaptive Federated Optimization* (ICLR 2021, Algorithm 2), start
    it at or above tau**2; Yogi follows them, so that its sign-driven update,
    which can shrink the moment, starts from a positive value.  Adagrad's
    moment only accumulates squares, so it keeps the classic zero start: tau
    in the denominator already bounds the first step by eta_s."""

    kind: str = "sgd"
    eta_s: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.99
    tau: float = 1e-3

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown server optimizer {self.kind!r}")
        if not 0 < self.eta_s < math.inf:
            raise ConfigError("eta_s must be finite and positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1/beta2 must be in [0, 1)")
        if not 0 < self.tau < math.inf:
            raise ConfigError("tau must be finite and positive")


@dataclass
class RoundReport:
    round: int
    sampled_clients: list[int]
    total_weight: float
    train_metrics: dict[str, float]


@dataclass
class TrainResult:
    global_params: list[ParamBlock]
    reports: list[RoundReport]
    comm_records: list[CommRecord]
    local_store: LocalTables | None = None


# The trainers that keep every client's local blocks, and the purpose of the
# (client id, purpose) streams those blocks start from.
_LOCAL_INIT = {"fedavg": "server_local_init", "centralized": "centralized_local_init"}


Start = tuple[list[ParamBlock], LocalTables | None]


def initial_state(
    spec: ModelSpec, client_ids: Iterable[int], streams: RngStreams, algorithm: str
) -> Start:
    """A run's parameters before its first step: the global blocks from the
    ``global_init`` stream and, for ``fedavg`` and ``centralized`` over a
    nonempty population, every client's local blocks as :class:`LocalTables`,
    each drawn from its ``(client id, purpose)`` stream; None otherwise."""
    g = spec.init_global(streams.generator("global_init"))
    ids = np.array(sorted(client_ids), dtype=np.int64)
    if algorithm not in _LOCAL_INIT or not len(ids):
        return g, None
    rngs = streams.generators(ids, _LOCAL_INIT[algorithm])
    return g, LocalTables(ids, spec.init_local(*rngs))


def sample_clients(
    population: Sequence[int], m: int, streams: RngStreams, round_idx: int
) -> list[int]:
    """Uniform sample without replacement, deterministic in (seed, round),
    returned ascending."""
    if m > len(population):
        raise ConfigError(f"cannot sample {m} clients from {len(population)}")
    rng = streams.generator(round_idx, "client_sample")
    picks = rng.permutation(len(population))[:m]
    return sorted(population[i] for i in picks)


def aggregate(
    updates: Sequence[CohortUpdate], template: Blocks
) -> tuple[list[np.ndarray], float]:
    """Weighted mean of the clients' deltas, client ``i`` weighing n_i / n
    with n = sum(n_i), added client by client in cohort order: in a round,
    the ascending ids of :func:`sample_clients`.  Returns one flat array
    per global block of ``template`` plus n."""
    total = float(sum(int(u.n.sum()) for u in updates))
    if total <= 0:
        raise RoundError("aggregation over no client weight")
    acc = [np.zeros(b.values.size) for b in template]
    head = acc[0].reshape(len(template[0].array), -1)
    for u in updates:
        bounds = u.bounds.tolist()
        for c, n_i in enumerate(u.n.tolist()):
            w = n_i / total
            seg = slice(bounds[c], bounds[c + 1])
            head[u.rows[seg]] += w * u.values[seg]  # rows distinct: one put
            for a, d in zip(acc[1:], u.dense):
                a += w * d[c]
    return acc, total


Moments = tuple[list[np.ndarray], list[np.ndarray]]


def server_moments(opt: ServerOptimizer, g: Blocks) -> Moments | None:
    """An adaptive optimizer's first and second moments at their start, one
    flat array per global block; ``None`` for ``sgd``, which keeps none."""
    if opt.kind == "sgd":
        return None
    start = opt.tau**2 if opt.kind == "yogi" else 0.0
    return [np.zeros(b.values.size) for b in g], [np.full(b.values.size, start) for b in g]


def server_step(
    opt: ServerOptimizer,
    g: Blocks,
    weighted_delta: Sequence[np.ndarray],
    moments: Moments | None,
) -> list[ParamBlock]:
    """Apply one server update; an adaptive kind advances ``moments`` (from
    :func:`server_moments`) in place."""
    if len(weighted_delta) != len(g):
        raise ShapeMismatchError("weighted delta does not match global blocks")
    if opt.kind == "sgd":
        return [
            ParamBlock(b.name, b.values + opt.eta_s * np.asarray(d).ravel(), b.shape)
            for b, d in zip(g, weighted_delta)
        ]

    out = []
    for b, delta, m, v in zip(g, weighted_delta, *moments):
        d = -np.asarray(delta, dtype=np.float64).ravel()
        m[:] = opt.beta1 * m + (1.0 - opt.beta1) * d
        if opt.kind == "adagrad":
            v[:] = v + d * d
        else:  # yogi
            v[:] = v - (1.0 - opt.beta2) * d * d * np.sign(v - d * d)
        out.append(
            ParamBlock(b.name, b.values - opt.eta_s * m / (np.sqrt(v) + opt.tau), b.shape)
        )
    return out


def run_training(
    spec: ModelSpec,
    clients: dict[int, ClientDataset],
    *,
    rounds: int,
    clients_per_round: int,
    policy: SplitPolicy,
    hyper: ClientHyper,
    server_opt: ServerOptimizer,
    streams: RngStreams,
    algorithm: str = "fedrecon",
    eval_fn: Callable[[int, Blocks, LocalTables | None], None] | None = None,
    eval_every: int = 0,
    start: Start | None = None,
) -> TrainResult:
    """Run `rounds` rounds of sample -> split/reconstruct/update of the
    sampled cohort (:func:`run_cohort`) -> weighted aggregation -> server
    step.  The server optimizer's moments live for this call only.
    ``start``, if given, is this call's :func:`initial_state`, built by the
    caller.

    ``fedrecon`` aggregates the global blocks alone.  Under ``fedavg`` the
    server holds every client's local blocks in the tables of
    :func:`initial_state`, which ``local_store`` returns: a round gathers the
    sampled clients' rows, trains all parameters jointly on each client's
    full dataset (``policy`` is not used), and writes the stepped rows back
    (owner-overwrite aggregation).
    """
    if algorithm not in FEDERATED_ALGORITHMS:
        raise ConfigError(
            f"run_training runs one of {FEDERATED_ALGORITHMS}, got {algorithm!r}"
        )
    fedavg = algorithm == "fedavg"
    population = sorted(clients)
    g, tables = initial_state(spec, population, streams, algorithm) if start is None else start
    moments = server_moments(server_opt, g)
    if fedavg:
        # Full aggregation: no support/query split, all parameters stepped
        # together on the client's whole dataset.
        policy = SplitPolicy(kind="no_split")
        hyper = replace(hyper, joint_training=True)

    g_size = blocks_size(g)
    reports: list[RoundReport] = []
    comm_records: list[CommRecord] = []

    for t in range(rounds):
        sampled = sample_clients(population, clients_per_round, streams, t)
        stacked = None
        if fedavg:  # the sampled clients' rows, stepped by the cohort
            rows = tables.rows(sampled)
            stacked = tables.take(rows)
        try:
            updates, query_metrics = run_cohort(
                spec,
                g,
                [clients[cid] for cid in sampled],
                policy,
                hyper,
                streams,
                t,
                initial_locals=stacked,
            )
        except NumericalError as e:
            raise NumericalError(f"round {t}, {e}") from e
        weighted_delta, total = aggregate(updates, g)
        g = server_step(server_opt, g, weighted_delta, moments)
        if fedavg:  # owner overwrite: one put per block
            for b, s in zip(tables.blocks, stacked):
                b.array[rows] = s.array

        comm_records.append(
            CommRecord(
                algorithm=algorithm,
                round=t,
                num_clients=len(sampled),
                global_params=g_size,
                local_params_total=blocks_size(stacked) if fedavg else 0,
            )
        )
        reports.append(
            RoundReport(
                round=t,
                sampled_clients=sampled,
                total_weight=total,
                train_metrics=finalize_metrics(merge_metrics([query_metrics])),
            )
        )
        del updates  # this round's deltas must not live on through the next cohort
        if eval_fn is not None and eval_every > 0 and (t + 1) % eval_every == 0:
            eval_fn(t, g, tables)

    return TrainResult(
        global_params=g, reports=reports, comm_records=comm_records, local_store=tables
    )
