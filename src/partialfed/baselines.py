"""Comparison algorithms: centralized training over the pooled dataset,
full-parameter federated averaging, and finetuning-style evaluation."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .client import (
    ClientHyper,
    SplitPolicy,
    batch_schedule,
    reconstruct,
    split_dataset,
)
from .core import (
    Batch,
    Blocks,
    ClientDataset,
    ModelSpec,
    ParamBlock,
    RngStreams,
    _require_finite,
    _rows_at,
    _sgd_step,
    copy_blocks,
    finalize_metrics,
)
from .errors import ConfigError, DataError
from .server import ServerOptimizer, TrainResult, run_training

__all__ = [
    "BASELINE_KINDS",
    "train_centralized",
    "train_fedavg",
    "finetune_eval",
]

BASELINE_KINDS = (
    "centralized",
    "fedavg",
    "finetune_local_only",
    "finetune_full",
    "fedrecon_plus_finetune",
)


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
    """Full-parameter federated averaging: the identical round loop, except
    every block is aggregated -- the server stores each client's local block
    and hands it back when that client is sampled."""
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
        aggregate_local=True,
        eval_fn=eval_fn,
        eval_every=eval_every,
    )


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
def finetune_eval(
    kind: str,
    spec: ModelSpec,
    g: Blocks,
    local_init: Blocks,
    client: ClientDataset,
    *,
    steps: int,
    rate: float,
    batch_size: int,
    policy: SplitPolicy,
    streams: RngStreams,
    recon_hyper: ClientHyper | None = None,
) -> dict[str, float]:
    """Personalize on the support half, then score the query half.

    * ``finetune_local_only``: step only the local blocks.
    * ``finetune_full``: step local and global blocks jointly.
    * ``fedrecon_plus_finetune``: reconstruct local blocks first, then step
      the global blocks.

    Works on copies; the passed-in trained parameters are never touched.
    """
    if kind not in ("finetune_local_only", "finetune_full", "fedrecon_plus_finetune"):
        raise ConfigError(f"unknown finetune kind {kind!r}")
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    cid = client.client_id
    dsx = split_dataset(client, policy, streams.generator(cid, "finetune:split"))
    g_c = copy_blocks(g)

    if kind == "fedrecon_plus_finetune":
        if recon_hyper is None:
            raise ConfigError("fedrecon_plus_finetune needs reconstruction hyperparameters")
        l = reconstruct(
            spec,
            g_c,
            dsx,
            recon_hyper,
            streams.generator(cid, "finetune:local_init"),
            streams.generator(cid, "finetune:recon_batches"),
        )
    else:
        l = copy_blocks(local_init)

    if steps > 0:
        batches = batch_schedule(
            dsx.support_idx, batch_size, steps, streams.generator(cid, "finetune:batches")
        )
        # fedrecon_plus_finetune holds l fixed; local_only holds g fixed.
        need_global = kind != "finetune_local_only"
        need_local = kind != "fedrecon_plus_finetune"
        for bidx in batches:
            batch = dsx.batch(bidx)
            grads, local_grads = spec.sparse_grads(
                g_c, l, batch, batch.total_weight, need_global, need_local
            )
            if need_global:
                _sgd_step(g_c, rate, grads)
            if need_local:
                _sgd_step(l, rate, local_grads)
        _require_finite([b.values for b in g_c + l], f"finetuned parameters of client {cid}")

    return finalize_metrics(spec.metrics(g_c, l, dsx.query_batch()))
