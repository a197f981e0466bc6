"""Client-side computations: dataset split, local-parameter reconstruction,
global-parameter update, and the first-order meta-gradient verification.

All operations are pure given their inputs and the explicit generators, so
per-client work is replayable and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    Batch,
    Blocks,
    ClientDataset,
    Metric,
    ModelSpec,
    ParamBlock,
    RngStreams,
    RowDelta,
    _central_differences,
    _flat,
    _max_rel_err,
    _require_finite,
    _rows_at,
    _sgd_step,
    copy_blocks,
)
from .errors import ConfigError, DataError, NumericalError

__all__ = [
    "SplitPolicy",
    "ClientHyper",
    "RowDelta",
    "ClientUpdateResult",
    "split_dataset",
    "batch_schedule",
    "reconstruct",
    "client_update",
    "run_client_round",
    "reconstruct_cohort",
    "run_cohort",
    "delta_to_dense",
    "MetaGradientReport",
    "verify_first_order_meta_gradient",
]

SPLIT_KINDS = ("half_disjoint", "by_timestamp_half", "no_split")


@dataclass(frozen=True)
class SplitPolicy:
    kind: str = "half_disjoint"
    support_fraction: float = 0.5

    def __post_init__(self):
        if self.kind not in SPLIT_KINDS:
            raise ConfigError(f"unknown split kind {self.kind!r}")
        if not 0.0 < self.support_fraction <= 1.0:
            raise ConfigError("support_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ClientHyper:
    k_r: int = 1
    k_u: int = 1
    eta_r: float = 0.1
    eta_u: float = 0.1
    batch_size: int = 5
    joint_training: bool = False

    def __post_init__(self):
        if self.k_r < 0:
            raise ConfigError("k_r must be nonnegative")
        if self.k_u < 1:
            raise ConfigError("k_u must be positive")
        # Zero rates are legal no-op limits (a zero-rate update returns a
        # zero delta); negative rates are configuration mistakes.
        if not (0 <= self.eta_r < math.inf and 0 <= self.eta_u < math.inf):
            raise ConfigError("learning rates must be finite and nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")


def split_dataset(
    data: ClientDataset, policy: SplitPolicy, rng: np.random.Generator
) -> ClientDataset:
    """Populate support/query indices; single-example clients fall back to
    no_split so they can still contribute an update."""
    n = data.n
    if n == 0:
        raise DataError(f"client {data.client_id}: empty dataset")
    if policy.kind == "no_split" or n == 1:
        idx = np.arange(n)
        return replace(data, support_idx=idx, query_idx=idx.copy())

    # Support size: ceil(n * fraction), capped so the query set stays nonempty.
    k = min(max(1, math.ceil(n * policy.support_fraction)), n - 1)
    if policy.kind == "half_disjoint":
        order = rng.permutation(n)
    else:  # by_timestamp_half: earlier examples become support
        order = np.argsort(data.timestamps, kind="stable")
    support = np.sort(order[:k])
    query = np.sort(order[k:])
    return replace(data, support_idx=support, query_idx=query)


def batch_schedule(
    idx: np.ndarray, batch_size: int, steps: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffle once, chunk into minibatches, and cycle until `steps` batches."""
    if len(idx) == 0:
        raise DataError("cannot batch an empty index set")
    perm = rng.permutation(idx)
    chunks = [perm[i : i + batch_size] for i in range(0, len(perm), batch_size)]
    return [chunks[s % len(chunks)] for s in range(steps)]


def reconstruct(
    spec: ModelSpec,
    g: Blocks,
    data: ClientDataset,
    hyper: ClientHyper,
    init_rng: np.random.Generator,
    batch_rng: np.random.Generator,
) -> list[ParamBlock]:
    """Gradient-descend freshly initialized local parameters on the support
    set with the global parameters frozen; k_r=0 returns the raw init.
    Finiteness is checked once, on the result."""
    l = spec.init_local(init_rng)
    if hyper.k_r == 0 or not l:
        return l
    if data.support_idx is None:
        raise DataError("dataset has no support split")
    for bidx in batch_schedule(data.support_idx, hyper.batch_size, hyper.k_r, batch_rng):
        batch = data.batch(bidx)
        _, grads = spec.sparse_grads(g, l, batch, batch.total_weight, False, True)
        _sgd_step(l, hyper.eta_r, grads)
    _require_finite(
        (b.values for b in l), f"local parameters after reconstruction step {hyper.k_r - 1}"
    )
    return l


@dataclass
class ClientUpdateResult:
    """One client's contribution to a round: its global delta (a
    :class:`RowDelta` or a flat array per block), its weight ``n_i`` (the
    query size), its query metrics before the update, and under joint
    training its updated local blocks."""

    client_id: int
    delta: list
    n_i: int
    query_metrics: dict[str, Metric] = field(default_factory=dict)
    updated_local: list[ParamBlock] | None = None


def delta_to_dense(delta: list, template: Blocks) -> list[np.ndarray]:
    """Materialize a (possibly row-sparse) delta as flat arrays matching g."""
    out = []
    for entry, block in zip(delta, template):
        if isinstance(entry, RowDelta):
            dense = np.zeros(block.values.size)
            _rows_at(np.add, dense, entry.rows, entry.values)
            out.append(dense)
        else:
            out.append(np.asarray(entry, dtype=np.float64).ravel())
    return out


def client_update(
    spec: ModelSpec,
    g: Blocks,
    l: Blocks,
    data: ClientDataset,
    hyper: ClientHyper,
    batch_rng: np.random.Generator,
) -> ClientUpdateResult:
    """k_u gradient steps on the global parameters over the query set, with
    the reconstructed local parameters treated as constants (unless
    joint_training steps them concurrently).  Returns the update delta and
    its weight n_i = |query set|.

    Steps one working copy in place and never modifies the caller's blocks.
    A block stepped only by row-sparse gradients gets a :class:`RowDelta`
    over the rows touched; any other block gets a dense delta."""
    if data.query_idx is None or len(data.query_idx) == 0:
        raise DataError(f"client {data.client_id}: empty query set")
    batches = batch_schedule(data.query_idx, hyper.batch_size, hyper.k_u, batch_rng)
    joint = hyper.joint_training
    g_w = copy_blocks(g)
    l_w = copy_blocks(l) if joint else l
    # Rows stepped per block; None once the block takes a dense gradient.
    touched: list[list[np.ndarray] | None] = [[] for _ in g]
    for bidx in batches:
        batch = data.batch(bidx)
        grads, local_grads = spec.sparse_grads(g_w, l_w, batch, batch.total_weight, True, joint)
        _sgd_step(g_w, hyper.eta_u, grads)
        if joint:
            _sgd_step(l_w, hyper.eta_u, local_grads)
        for bi, grad in enumerate(grads):
            if not isinstance(grad, RowDelta):
                touched[bi] = None
            elif touched[bi] is not None:
                touched[bi].append(grad.rows)

    delta = []
    for rows, w, b in zip(touched, g_w, g):
        if rows is None:
            delta.append(w.values - b.values)
        else:
            rows = np.unique(np.concatenate(rows))
            delta.append(RowDelta(rows, w.array[rows] - b.array[rows]))
    _require_finite(
        [d.values if isinstance(d, RowDelta) else d for d in delta]
        + [b.values for b in l_w if joint],
        f"the update of client {data.client_id}",
    )
    return ClientUpdateResult(
        client_id=data.client_id,
        delta=delta,
        n_i=int(len(data.query_idx)),
        updated_local=l_w if joint else None,
    )


def run_client_round(
    spec: ModelSpec,
    g: Blocks,
    data: ClientDataset,
    policy: SplitPolicy,
    hyper: ClientHyper,
    streams: RngStreams,
    round_idx: int,
    *,
    initial_local: Blocks | None = None,
    namespace: str = "",
) -> ClientUpdateResult:
    """Split -> reconstruct -> update for one client in one round.

    ``initial_local`` skips reconstruction and starts from the given local
    parameters (the full-aggregation baseline path).  Stream names are
    derived from (round, client_id, purpose) so clients are independent.
    """
    cid = data.client_id

    def gen(purpose: str) -> np.random.Generator:
        return streams.generator(round_idx, cid, namespace + purpose)

    dsx = split_dataset(data, policy, gen("split"))
    if initial_local is not None:
        l = initial_local
    else:
        l = reconstruct(spec, g, dsx, hyper, gen("local_init"), gen("recon_batches"))
    query_metrics = spec.metrics(g, l, dsx.query_batch())
    result = client_update(spec, g, l, dsx, hyper, gen("update_batches"))
    result.query_metrics = query_metrics
    return result


# ---------------------------------------------------------------------------
# Cohorts: every sampled client of a round as one computation
# ---------------------------------------------------------------------------


def _cohort_batches(
    splits: Sequence[ClientDataset],
    part: str,
    batch_size: int,
    steps: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every client's :func:`batch_schedule` over its ``part`` ("support_idx"
    or "query_idx"), from the same draws, as ``(steps, clients,
    batch_size)`` features, targets and weights, plus each minibatch's real
    weight.  A short minibatch is padded with zero-weight copies of its
    client's first scheduled example, which step 0 always uses, so padding
    adds exactly nothing and addresses only rows its client touches."""
    perms = [rng.permutation(getattr(d, part)) for d, rng in zip(splits, rngs)]
    n = np.array([len(p) for p in perms])
    if n.min() == 0:
        raise DataError("cannot batch an empty index set")
    # Position of each scheduled example in the concatenated permutations.
    chunk = np.arange(steps)[:, None] % -(-n // batch_size)
    slot = chunk[:, :, None] * batch_size + np.arange(batch_size)
    real = slot < n[None, :, None]
    starts = np.cumsum(n) - n
    offsets = np.cumsum([0] + [d.n for d in splits[:-1]])
    rows = np.concatenate([p + off for p, off in zip(perms, offsets)])
    pos = rows[starts[None, :, None] + np.where(real, slot, 0)]
    weights = np.concatenate([d.weights for d in splits])[pos] * real
    return (
        np.concatenate([d.features for d in splits])[pos],
        np.concatenate([d.targets for d in splits])[pos],
        weights,
        weights.sum(axis=-1, keepdims=True),
    )


def _stack(locals_: Sequence[Blocks]) -> list[ParamBlock]:
    """Per-client local blocks stacked along a leading client axis."""
    return [
        ParamBlock(b.name, np.stack([l[bi].values for l in locals_]), (len(locals_),) + b.shape)
        for bi, b in enumerate(locals_[0])
    ]


def _finite_per_client(stacked: Sequence[ParamBlock]) -> np.ndarray:
    """For each client: is its slice of every stacked block finite?"""
    return np.all(
        [np.isfinite(b.array.reshape(b.shape[0], -1)).all(axis=1) for b in stacked], axis=0
    )


def _require_finite_clients(ok: np.ndarray, client_ids: Sequence[int], what: str) -> None:
    """Name the first client whose ``ok`` entry is False."""
    if not ok.all():
        bad = client_ids[int(np.argmin(ok))]
        raise NumericalError(f"client {bad}: non-finite values in {what}")


def _unstack(stacked: Sequence[ParamBlock], templates: Blocks, c: int) -> list[ParamBlock]:
    """Client ``c``'s blocks, copied: a view would keep the whole cohort's
    stacked array alive for as long as the server stores this one local."""
    return [ParamBlock(t.name, b.array[c].copy(), t.shape) for b, t in zip(stacked, templates)]


def _cohort_streams(streams: RngStreams, round_idx: int, client_ids, namespace: str):
    def gens(purpose: str) -> list[np.random.Generator]:
        return [streams.generator(round_idx, cid, namespace + purpose) for cid in client_ids]

    return gens


def reconstruct_cohort(
    spec: ModelSpec,
    g: Blocks,
    datasets: Sequence[ClientDataset],
    policy: SplitPolicy,
    hyper: ClientHyper,
    streams: RngStreams,
    round_idx: int,
    *,
    initial_locals: Sequence[Blocks] | None = None,
    namespace: str = "",
) -> tuple[list[ClientDataset], list[list[ParamBlock]]]:
    """Split every client of a cohort and rebuild its local parameters on
    its support half, drawing the streams :func:`run_client_round` draws;
    ``initial_locals`` skips reconstruction.  Returns the split datasets
    and local parameters in input order.

    With a single global block the cohort reconstructs as one stacked local
    matrix; with several it runs :func:`reconstruct` client by client.
    Either way finiteness is checked once per client at the end and a
    numerical failure names the client."""
    ids = [d.client_id for d in datasets]
    gens = _cohort_streams(streams, round_idx, ids, namespace)
    splits = [split_dataset(d, policy, rng) for d, rng in zip(datasets, gens("split"))]
    if initial_locals is not None:
        return splits, [list(l) for l in initial_locals]
    if len(g) > 1 or not splits:
        locals_ = []
        for dsx, init_rng, batch_rng in zip(splits, gens("local_init"), gens("recon_batches")):
            try:
                locals_.append(reconstruct(spec, g, dsx, hyper, init_rng, batch_rng))
            except NumericalError as e:
                raise NumericalError(f"client {dsx.client_id}: {e}") from e
        return splits, locals_

    inits = [spec.init_local(rng) for rng in gens("local_init")]
    if hyper.k_r == 0 or not inits[0]:
        return splits, inits
    stacked = _stack(inits)
    features, targets, weights, norm = _cohort_batches(
        splits, "support_idx", hyper.batch_size, hyper.k_r, gens("recon_batches")
    )
    for s in range(hyper.k_r):
        batch = Batch(features[s], targets[s], weights[s])
        _, grads = spec.sparse_grads(g, stacked, batch, norm[s], False, True)
        _sgd_step(stacked, hyper.eta_r, grads)
    _require_finite_clients(
        _finite_per_client(stacked),
        ids,
        f"local parameters after reconstruction step {hyper.k_r - 1}",
    )
    return splits, [_unstack(stacked, inits[0], c) for c in range(len(splits))]


def _update_cohort(
    spec: ModelSpec,
    g: Blocks,
    splits: Sequence[ClientDataset],
    locals_: Sequence[Blocks],
    hyper: ClientHyper,
    rngs: Sequence[np.random.Generator],
) -> list[ClientUpdateResult]:
    """:func:`client_update` for every client at once.  Each client steps its
    own compact copy of the global rows its schedule touches; the copies sit
    end to end in one block, so one kernel call serves the whole cohort."""
    ids = [d.client_id for d in splits]
    joint = hyper.joint_training
    features, targets, weights, norm = _cohort_batches(
        splits, "query_idx", hyper.batch_size, hyper.k_u, rngs
    )
    q = g[0].array
    items = features.astype(np.int64)
    if items.size and (items.min() < 0 or items.max() >= len(q)):
        raise DataError(f"item id outside [0, {len(q)})")
    # Compact row k holds global row keys[k] % len(q) for client keys[k] // len(q).
    keys, compact = np.unique(
        np.arange(len(splits))[None, :, None] * len(q) + items, return_inverse=True
    )
    compact = compact.reshape(items.shape)
    rows = keys % len(q)
    bounds = np.searchsorted(keys, np.arange(len(splits) + 1) * len(q))
    work = [ParamBlock(g[0].name, q[rows], (len(rows), q.shape[1]))]
    l_w = _stack(locals_)
    for s in range(hyper.k_u):
        batch = Batch(compact[s], targets[s], weights[s])
        grads, local_grads = spec.sparse_grads(work, l_w, batch, norm[s], True, joint)
        _sgd_step(work, hyper.eta_u, grads)
        if joint:
            _sgd_step(l_w, hyper.eta_u, local_grads)

    stepped = work[0].array
    segments = [slice(bounds[c], bounds[c + 1]) for c in range(len(splits))]
    for seg in segments:  # client by client, to gather no second copy of all rows
        stepped[seg] -= q[rows[seg]]
    ok = np.logical_and.reduceat(np.isfinite(stepped).all(axis=1), bounds[:-1])
    if joint:
        ok &= _finite_per_client(l_w)
    _require_finite_clients(ok, ids, "the update")
    return [
        ClientUpdateResult(
            client_id=dsx.client_id,
            delta=[RowDelta(rows[segments[c]], stepped[segments[c]])],
            n_i=int(len(dsx.query_idx)),
            updated_local=_unstack(l_w, locals_[c], c) if joint else None,
        )
        for c, dsx in enumerate(splits)
    ]


def run_cohort(
    spec: ModelSpec,
    g: Blocks,
    datasets: Sequence[ClientDataset],
    policy: SplitPolicy,
    hyper: ClientHyper,
    streams: RngStreams,
    round_idx: int,
    *,
    initial_locals: Sequence[Blocks] | None = None,
    namespace: str = "",
) -> list[ClientUpdateResult]:
    """``[run_client_round(...) for ds in datasets]`` as one computation:
    split -> reconstruct -> query metrics -> update for a whole cohort, from
    the same per-client streams.  ``initial_locals`` (one per dataset) skips
    reconstruction.  A single global block runs batched; several run client
    by client through :func:`run_client_round`.  A numerical failure names
    the client."""
    if len(g) > 1:
        results = []
        for i, ds in enumerate(datasets):
            try:
                results.append(
                    run_client_round(
                        spec, g, ds, policy, hyper, streams, round_idx,
                        initial_local=None if initial_locals is None else initial_locals[i],
                        namespace=namespace,
                    )
                )
            except NumericalError as e:
                raise NumericalError(f"client {ds.client_id}: {e}") from e
        return results
    if not datasets:
        return []
    splits, locals_ = reconstruct_cohort(
        spec, g, datasets, policy, hyper, streams, round_idx,
        initial_locals=initial_locals, namespace=namespace,
    )
    metrics = [spec.metrics(g, l, dsx.query_batch()) for dsx, l in zip(splits, locals_)]
    gens = _cohort_streams(streams, round_idx, [d.client_id for d in splits], namespace)
    results = _update_cohort(spec, g, splits, locals_, hyper, gens("update_batches"))
    for res, m in zip(results, metrics):
        res.query_metrics = m
    return results


# ---------------------------------------------------------------------------
# First-order meta-gradient verification
# ---------------------------------------------------------------------------


@dataclass
class MetaGradientReport:
    """Numerics behind the single-step update identity.

    With one full-batch update step, the returned delta equals
    -eta_u * (gradient of the query loss in g at the reconstructed local
    parameters held fixed).  `first_order_max_rel_err` compares that
    gradient against finite differences of the query loss with the local
    parameters frozen.  The composite gradient differentiates through
    reconstruction (rebuilding from the same init); its gap to the
    first-order gradient is the dropped second-order contribution and is
    reported, not asserted.
    """

    first_order_grad: np.ndarray
    fd_fixed_local: np.ndarray
    composite_grad: np.ndarray
    first_order_max_rel_err: float
    composite_max_abs_gap: float
    composite_max_rel_gap: float


def verify_first_order_meta_gradient(
    spec: ModelSpec,
    g: Blocks,
    data: ClientDataset,
    hyper: ClientHyper,
    streams: RngStreams,
    *,
    round_idx: int = 0,
    eps: float = 1e-5,
) -> MetaGradientReport:
    """Check the one-step client update against both gradient readings.

    Requires k_u = 1; the query set is consumed as a single full batch.
    """
    if hyper.k_u != 1:
        raise ConfigError("verification requires k_u = 1")
    if hyper.eta_u <= 0:
        raise ConfigError("verification requires a positive eta_u")
    if data.support_idx is None or data.query_idx is None:
        raise DataError("dataset must be split before verification")
    cid = data.client_id
    full_batch = replace(hyper, batch_size=len(data.query_idx), k_u=1)

    def rebuild_local(g_probe: Blocks) -> list[ParamBlock]:
        # Reconstruction keeps the caller's k_r / eta_r / batch size; only the
        # update step is forced to a single full-batch pass.
        return reconstruct(
            spec,
            g_probe,
            data,
            hyper,
            streams.generator(round_idx, cid, "local_init"),
            streams.generator(round_idx, cid, "recon_batches"),
        )

    l_fixed = rebuild_local(g)
    result = client_update(
        spec, g, l_fixed, data, full_batch, streams.generator(round_idx, cid, "update_batches")
    )
    first_order = _flat(delta_to_dense(result.delta, g)) / -full_batch.eta_u

    query = data.query_batch()
    fd_fixed = _central_differences(lambda gp: spec.loss(gp, l_fixed, query), g, eps)
    fd_composite = _central_differences(
        lambda gp: spec.loss(gp, rebuild_local(gp), query), g, eps
    )

    return MetaGradientReport(
        first_order_grad=first_order,
        fd_fixed_local=fd_fixed,
        composite_grad=fd_composite,
        first_order_max_rel_err=_max_rel_err(first_order, fd_fixed),
        composite_max_abs_gap=float(np.max(np.abs(fd_composite - first_order)))
        if first_order.size
        else 0.0,
        composite_max_rel_gap=_max_rel_err(first_order, fd_composite),
    )
