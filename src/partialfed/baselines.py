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
    _sgd_step,
    copy_blocks,
    finalize_metrics,
)
from .errors import ConfigError, DataError
from .server import ServerOptimizer, TrainResult, init_local_store, run_training

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
    pooled dataset is reshuffled every epoch with a seeded generator."""
    if epochs < 0 or batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    ids, owners, feats, targets, weights = _merge_clients(clients)
    g = spec.init_global(streams.generator("global_init"))
    locals_by_client = init_local_store(spec, ids, streams, "centralized_local_init")
    if epochs == 0 or len(targets) == 0:
        return g, locals_by_client

    shuffle_rng = streams.generator("centralized_shuffle")
    single_vector_locals = all(
        len(locals_by_client[cid]) == 1 and len(locals_by_client[cid][0].shape) == 1
        for cid in ids
    )
    if spec.fast_centralized is not None and single_vector_locals:
        local_matrix = np.stack([locals_by_client[cid][0].values for cid in ids])
        g, local_matrix = spec.fast_centralized(
            g, local_matrix, owners, feats, targets, weights,
            epochs, batch_size, rate, shuffle_rng,
        )
        template = {cid: locals_by_client[cid][0] for cid in ids}
        _require_finite([b.values for b in g], "centralized parameters")
        return g, {
            cid: [ParamBlock(template[cid].name, local_matrix[row], template[cid].shape)]
            for row, cid in enumerate(ids)
        }

    n = len(targets)
    # Group by owner: each owner's sub-batch is normalised by the whole
    # minibatch's weight, so the owners' global grads sum to the minibatch
    # gradient.  Each owner's local blocks appear once per batch, so they
    # are stepped as soon as their grads are known.
    total = [ParamBlock(b.name, np.zeros_like(b.values), b.shape) for b in g]
    for _ in range(epochs):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            batch_w = float(weights[idx].sum())
            for b in total:
                b.values.fill(0.0)
            for row in np.unique(owners[idx]):
                sub = idx[owners[idx] == row]
                l = locals_by_client[ids[row]]
                batch = Batch(feats[sub], targets[sub], weights[sub])
                grads, local_grads = spec.sparse_grads(g, l, batch, batch_w, True, True)
                _sgd_step(total, -1.0, grads)  # total += grads
                _sgd_step(l, rate, local_grads)
            _sgd_step(g, rate, total)
    _require_finite(
        [b.values for b in g] + [b.values for ls in locals_by_client.values() for b in ls],
        "centralized parameters",
    )
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
