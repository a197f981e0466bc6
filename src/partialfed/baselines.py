"""Comparison algorithms: centralized training over the pooled dataset and
full-parameter federated averaging."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .client import ClientHyper, SplitPolicy
from .core import (
    Batch,
    ClientDataset,
    ModelSpec,
    ParamBlock,
    RngStreams,
    _require_finite,
    _rows_at,
    _sgd_step,
)
from .errors import ConfigError, DataError
from .server import ServerOptimizer, TrainResult, run_training

__all__ = [
    "train_centralized",
    "train_fedavg",
]


def _merge_clients(clients: Mapping[int, ClientDataset]):
    ids = sorted(clients)
    owners, feats, targets, weights = [], [], [], []
    for row, cid in enumerate(ids):
        ds = clients[cid]
        owners.append(np.full(ds.n, row, dtype=np.int64))
        feats.append(ds.features)
        targets.append(ds.targets)
        weights.append(ds.weights)
    if not ids:
        raise DataError("centralized training needs at least one client")
    return (
        ids,
        np.concatenate(owners),
        np.concatenate(feats),
        np.concatenate(targets),
        np.concatenate(weights),
    )


def _local_tables(
    spec: ModelSpec, ids: list[int], streams: RngStreams
) -> tuple[list[np.ndarray], dict[int, list[ParamBlock]]]:
    """Each local block stacked over the clients in ``ids`` order, filled one
    ``init_local`` at a time from the client's ``centralized_local_init``
    stream, and each client's blocks as row views of those tables."""
    rngs = streams.generators(np.array(ids, dtype=np.int64), "centralized_local_init")
    first = spec.init_local(rngs[0])
    tables = [np.empty((len(ids),) + b.shape) for b in first]
    for row, rng in enumerate(rngs):
        for table, b in zip(tables, first if row == 0 else spec.init_local(rng)):
            table[row] = b.array
    return tables, {
        cid: [ParamBlock(b.name, t[row], b.shape) for t, b in zip(tables, first)]
        for row, cid in enumerate(ids)
    }


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
def train_centralized(
    spec: ModelSpec,
    clients: Mapping[int, ClientDataset],
    *,
    epochs: int,
    batch_size: int,
    rate: float,
    streams: RngStreams,
) -> tuple[list[ParamBlock], dict[int, list[ParamBlock]]]:
    """Plain minibatch SGD over the union of all clients' examples, stepping
    the global blocks and each owning client's local blocks jointly.  The
    pooled dataset is reshuffled every epoch with a seeded generator.

    Each minibatch is one ``sparse_grads`` call in which every example is
    its own owner, normalised by the whole minibatch's weight; both parts
    step from their pre-step values, repeated rows one after another.  A
    local block is gathered per example from its population table (one row
    per client).  A row table, a 2-D local block, is compacted instead: an
    example gets a copy of only the rows its context slots address, slot
    ``j`` remapped to ``-j - 1``, and its grad steps the table through those
    rows."""
    if epochs < 0 or batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    ids, owners, feats, targets, weights = _merge_clients(clients)
    g = spec.init_global(streams.generator("global_init"))
    tables, locals_by_client = _local_tables(spec, ids, streams)
    if epochs == 0 or len(targets) == 0:
        return g, locals_by_client

    template = locals_by_client[ids[0]]
    per_client = next((b.shape[0] for b in template if len(b.shape) == 2), None)
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
            u, x, w = owners[idx], feats[idx], weights[idx]
            if per_client is not None:
                oov = x < 0
                keys = u[:, None] * per_client + np.where(oov, -x - 1, 0).reshape(len(u), -1)
                x = np.where(oov, slot_ids, x)
            l = [
                ParamBlock(b.name, t.reshape(-1, b.shape[1])[keys], keys.shape + b.shape[1:])
                if len(b.shape) == 2
                else ParamBlock(b.name, t[u], (len(u),) + b.shape)
                for t, b in zip(tables, template)
            ]
            batch = Batch(x[:, None], targets[idx][:, None], w[:, None])
            grads, local_grads = spec.sparse_grads(g, l, batch, w.sum(), True, True)
            _sgd_step(g, rate, grads)
            for t, b, grad in zip(tables, template, local_grads):
                rows = u
                if len(b.shape) == 2:
                    rows, grad = keys.ravel()[grad.rows], grad.values
                _rows_at(np.subtract, t.reshape(-1), rows, rate * grad)
    _require_finite([b.values for b in g] + tables, "centralized parameters")
    return g, locals_by_client


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

