"""Comparison algorithms: centralized training over the pooled dataset and
full-parameter federated averaging."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .client import ClientHyper, SplitPolicy, _columns
from .core import (
    Batch,
    ClientDataset,
    LocalTables,
    ModelSpec,
    ParamBlock,
    RngStreams,
    RowDelta,
    _require_finite,
    _sgd_step,
)
from .errors import ConfigError, DataError
from .server import ServerOptimizer, Start, TrainResult, initial_state, run_training

__all__ = [
    "train_centralized",
    "train_fedavg",
]


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
def train_centralized(
    spec: ModelSpec,
    clients: Mapping[int, ClientDataset],
    *,
    epochs: int,
    batch_size: int,
    rate: float,
    streams: RngStreams,
    start: Start | None = None,
) -> tuple[list[ParamBlock], LocalTables]:
    """Plain minibatch SGD over the union of all clients' examples, stepping
    the global blocks and each owning client's local blocks jointly.  The
    pooled dataset is reshuffled every epoch with a seeded generator.
    ``start``, if given, is this call's :func:`initial_state`, built by the
    caller.

    Each minibatch is one ``sparse_grads`` call in which every example is
    its own owner, of weight 1, normalised by the minibatch's size; both
    parts step from their pre-step values, repeated rows one after another.  A
    local block is gathered per example from its population table (one row
    per client), which training steps in place and returns.  A row table, a
    2-D local block, is compacted instead: an example gets a copy of only
    the rows its context slots address, slot ``j`` remapped to ``-j - 1``,
    and its grad steps the table through those rows."""
    if epochs < 0 or batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    ids = sorted(clients)
    if not ids:
        raise DataError("centralized training needs at least one client")
    datasets = [clients[cid] for cid in ids]
    _, feats, targets = _columns(datasets)
    # Each example's owner row: its client's position in the ids.
    owners = np.repeat(np.arange(len(ids), dtype=np.int64), [ds.n for ds in datasets])
    g, stored = initial_state(spec, ids, streams, "centralized") if start is None else start
    tables = stored.blocks
    if epochs == 0 or len(targets) == 0:
        return g, stored

    per_client = next((t.shape[1] for t in tables if len(t.shape) == 3), None)
    if per_client is not None:
        # Checked before the remap: past it the kernel cannot see a bucket
        # id beyond the table, which would read the next client's rows.
        buckets = -feats[feats < 0] - 1
        if buckets.size and buckets.max() >= per_client:
            raise DataError(f"out-of-vocabulary bucket outside [0, {per_client})")
        slot_ids = -1 - np.arange(feats[0].size).reshape(feats.shape[1:])

    shuffle_rng = streams.generator("centralized_shuffle")
    n = len(targets)
    for _ in range(epochs):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            u, x, w = owners[idx], feats[idx], np.ones(len(idx))
            if per_client is not None:
                oov = x < 0
                keys = u[:, None] * per_client + np.where(oov, -x - 1, 0).reshape(len(u), -1)
                x = np.where(oov, slot_ids, x)
            l = [
                ParamBlock(t.name, t.array.reshape(-1, t.shape[2])[keys], keys.shape + t.shape[2:])
                if len(t.shape) == 3
                else ParamBlock(t.name, t.array[u], (len(u),) + t.shape[1:])
                for t in tables
            ]
            batch = Batch(x[:, None], targets[idx][:, None], w[:, None])
            grads, local_grads = spec.sparse_grads(g, l, batch, w.sum(), True, True)
            _sgd_step(g, rate, grads)
            _sgd_step(tables, rate, [
                RowDelta(keys.ravel()[grad.rows], grad.values) if len(t.shape) == 3
                else RowDelta(u, grad)
                for t, grad in zip(tables, local_grads)
            ])
    _require_finite([b.values for b in g + tables], "centralized parameters")
    return g, stored


def train_fedavg(
    spec: ModelSpec,
    clients: dict[int, ClientDataset],
    *,
    rounds: int,
    clients_per_round: int,
    hyper: ClientHyper,
    server_opt: ServerOptimizer,
    streams: RngStreams,
    eval_fn=None,
    eval_every: int = 0,
) -> TrainResult:
    """Full-parameter federated averaging: :func:`run_training` with
    ``algorithm="fedavg"``, which aggregates every block -- the server stores
    each client's local block and hands it back when that client is
    sampled."""
    return run_training(
        spec,
        clients,
        rounds=rounds,
        clients_per_round=clients_per_round,
        policy=SplitPolicy(kind="no_split"),
        hyper=hyper,
        server_opt=server_opt,
        streams=streams,
        algorithm="fedavg",
        eval_fn=eval_fn,
        eval_every=eval_every,
    )

