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
    blocks_size,
    copy_blocks,
    delta_to_dense,
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
    "Cohort",
    "split_cohort",
    "cohort_metrics",
    "owner_chunks",
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


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
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


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
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
) -> ClientUpdateResult:
    """Split -> reconstruct -> update for one client in one round.

    ``initial_local`` skips reconstruction and starts from the given local
    parameters (the full-aggregation baseline path).  Stream names are
    derived from (round, client_id, purpose) so clients are independent.
    """
    cid = data.client_id

    def gen(purpose: str) -> np.random.Generator:
        return streams.generator(round_idx, cid, purpose)

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


@dataclass
class Cohort:
    """A split cohort in one columnar layout: every client's columns end to
    end, and each half of the split as positions into them, client by
    client, ascending within a client -- the ``support_idx`` and
    ``query_idx`` :func:`split_dataset` gives each client.  ``support_n``
    and ``query_n`` count each client's positions."""

    client_ids: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    support: np.ndarray
    support_n: np.ndarray
    query: np.ndarray
    query_n: np.ndarray

    def query_batch(self, owners: slice = slice(None)) -> Batch:
        """The ``owners`` clients' query halves as one ``(clients, widest)``
        batch, one client per row; a short row is padded with masked,
        zero-weight copies of its client's first query example."""
        n = self.query_n[owners]
        starts = (np.cumsum(self.query_n) - self.query_n)[owners]
        slot = np.arange(n.max())
        mask = slot < n[:, None]
        pos = self.query[starts[:, None] + np.where(mask, slot, 0)]
        return Batch(self.features[pos], self.targets[pos], self.weights[pos] * mask, mask)


def split_cohort(
    datasets: Sequence[ClientDataset],
    policy: SplitPolicy,
    rngs: Sequence[np.random.Generator] | None = None,
) -> Cohort:
    """:func:`split_dataset` for every client, as one :class:`Cohort`, from
    the same draws: ``half_disjoint`` draws one permutation from each
    client's generator in ``rngs``; the other kinds draw nothing."""
    n = np.array([d.n for d in datasets], dtype=np.int64)
    if not np.all(n):
        raise DataError(f"client {datasets[int(np.argmin(n))].client_id}: empty dataset")
    starts = np.cumsum(n) - n
    owner = np.repeat(np.arange(len(n)), n)
    whole = (n == 1) | (policy.kind == "no_split")
    # Support size: ceil(n * fraction), capped so the query set stays nonempty.
    k = np.where(whole, n, np.minimum(np.maximum(1, np.ceil(n * policy.support_fraction)), n - 1))
    # order: every client's examples in its split order, client after client.
    if policy.kind == "half_disjoint":
        order = starts[owner] + np.concatenate(
            [rng.permutation(m) if m > 1 else np.zeros(1, np.int64)
             for rng, m in zip(rngs, n.tolist())]
        )
    elif policy.kind == "by_timestamp_half":  # earlier examples become support
        order = np.lexsort((np.concatenate([d.timestamps for d in datasets]), owner))
    else:
        order = np.arange(len(owner))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - starts[owner]
    support = rank < k[owner]
    query = ~support | whole[owner]
    return Cohort(
        client_ids=np.array([d.client_id for d in datasets], dtype=np.int64),
        features=np.concatenate([d.features for d in datasets]),
        targets=np.concatenate([d.targets for d in datasets]),
        weights=np.concatenate([d.weights for d in datasets]),
        support=np.flatnonzero(support),
        support_n=k.astype(np.int64),
        query=np.flatnonzero(query),
        query_n=np.where(whole, n, n - k).astype(np.int64),
    )


def _cohort_batches(
    cohort: Cohort,
    part: str,
    batch_size: int,
    steps: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every client's :func:`batch_schedule` over its ``part`` ("support"
    or "query"), from the same draws, as ``(steps, clients, batch_size)``
    features, targets and weights, plus each minibatch's real weight.  A
    short minibatch is padded with zero-weight copies of its client's first
    scheduled example, which step 0 always uses, so padding adds exactly
    nothing and addresses only rows its client touches."""
    idx, n = getattr(cohort, part), getattr(cohort, part + "_n")
    if n.min() == 0:
        raise DataError("cannot batch an empty index set")
    starts = np.cumsum(n) - n
    # A permutation of the positions is the permutation batch_schedule draws
    # over the client's own indices: both depend only on their length.
    perms = np.concatenate(
        [rng.permutation(idx[a : a + m]) for rng, a, m in zip(rngs, starts.tolist(), n.tolist())]
    )
    # Position of each scheduled example in the concatenated permutations.
    chunk = np.arange(steps)[:, None] % -(-n // batch_size)
    slot = chunk[:, :, None] * batch_size + np.arange(batch_size)
    real = slot < n[None, :, None]
    pos = perms[starts[None, :, None] + np.where(real, slot, 0)]
    weights = cohort.weights[pos] * real
    return (
        cohort.features[pos],
        cohort.targets[pos],
        weights,
        weights.sum(axis=-1, keepdims=True),
    )


def _stack(locals_: Sequence[Blocks]) -> list[ParamBlock]:
    """Per-client local blocks stacked along a leading client axis."""
    return [
        ParamBlock(b.name, np.stack([l[bi].values for l in locals_]), (len(locals_),) + b.shape)
        for bi, b in enumerate(locals_[0])
    ]


def _owner_rows(stacked: Blocks, owners: slice) -> list[ParamBlock]:
    """The ``owners`` rows of stacked blocks, as views."""
    out = []
    for b in stacked:
        rows = b.array[owners]
        out.append(ParamBlock(b.name, rows, rows.shape))
    return out


def _finite_per_client(stacked: Sequence[ParamBlock]) -> np.ndarray:
    """For each client: is its slice of every stacked block finite?"""
    return np.all(
        [np.isfinite(b.array.reshape(b.shape[0], -1)).all(axis=1) for b in stacked], axis=0
    )


def _require_finite_clients(ok: np.ndarray, client_ids: np.ndarray, what: str) -> None:
    """Name the first client whose ``ok`` entry is False."""
    if not ok.all():
        bad = int(client_ids[int(np.argmin(ok))])
        raise NumericalError(f"client {bad}: non-finite values in {what}")


def _unstack(stacked: Sequence[ParamBlock], c: int) -> list[ParamBlock]:
    """Client ``c``'s blocks, copied: a view would keep the whole cohort's
    stacked array alive for as long as the server stores this one local."""
    return [ParamBlock(b.name, b.array[c].copy(), b.shape[1:]) for b in stacked]


# Padded examples per owner-axis metrics call: at K = 50 one gather of item
# rows then takes at most 13 MB, however skewed the clients' sizes.
_METRICS_CHUNK = 1 << 15
# Values one batched cohort call may hold over all its owners: their stacked
# local blocks and their copies of the dense global blocks.  MF's 50 local
# values run a whole round in one call; next-word prediction at 500 x 32
# buckets and a 13,530-value output layer runs 4 owners a call, which also
# bounds its peak memory.
_OWNER_BUDGET = 1 << 17


def owner_chunks(spec: ModelSpec, g: Blocks, owners: int) -> list[slice]:
    """``owners`` owners cut into the slices that run as one batched call:
    each holds at most ``_OWNER_BUDGET`` local and per-owner dense global
    values, or a single owner."""
    per_owner = blocks_size(spec.init_local(np.random.default_rng(0))) + blocks_size(g[1:])
    step = max(1, _OWNER_BUDGET // max(1, per_owner))
    return [slice(lo, lo + step) for lo in range(0, owners, step)]


def cohort_metrics(
    spec: ModelSpec, g: Blocks, stacked: Blocks, cohort: Cohort
) -> list[dict[str, Metric]]:
    """Each client's ``spec.metrics`` on its query half under its row of the
    stacked local blocks, in owner-axis calls over chunks of clients."""
    per_call = max(1, _METRICS_CHUNK // int(cohort.query_n.max()))
    out: list[dict[str, Metric]] = []
    for lo in range(0, len(cohort.client_ids), per_call):
        owners = slice(lo, lo + per_call)
        out.extend(spec.metrics(g, _owner_rows(stacked, owners), cohort.query_batch(owners)))
    return out


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
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
) -> tuple[Cohort, list[ParamBlock]]:
    """Split every client of a nonempty cohort and rebuild its local
    parameters on its support half, drawing the streams
    :func:`run_client_round` draws; ``initial_locals`` skips
    reconstruction.  Returns the split :class:`Cohort` and the local blocks
    stacked along a leading client axis, row ``c`` holding client ``c``'s.

    Every step is one owner-axis kernel call (see :class:`ModelSpec`) over
    the cohort's minibatches.  Finiteness is checked once per client at the
    end, and a numerical failure names the client."""
    if not datasets:
        raise DataError("a cohort needs at least one client")
    ids = np.array([d.client_id for d in datasets], dtype=np.int64)

    def gens(purpose: str) -> list[np.random.Generator]:
        return streams.generators(round_idx, ids, namespace + purpose)

    cohort = split_cohort(
        datasets, policy, gens("split") if policy.kind == "half_disjoint" else None
    )
    if initial_locals is not None:
        return cohort, _stack(initial_locals)
    stacked = _stack([spec.init_local(rng) for rng in gens("local_init")])
    if hyper.k_r == 0 or not stacked:
        return cohort, stacked
    features, targets, weights, norm = _cohort_batches(
        cohort, "support", hyper.batch_size, hyper.k_r, gens("recon_batches")
    )
    for s in range(hyper.k_r):
        batch = Batch(features[s], targets[s], weights[s])
        _, grads = spec.sparse_grads(g, stacked, batch, norm[s], False, True)
        _sgd_step(stacked, hyper.eta_r, grads)
    _require_finite_clients(
        _finite_per_client(stacked),
        cohort.client_ids,
        f"local parameters after reconstruction step {hyper.k_r - 1}",
    )
    return cohort, stacked


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
def _update_cohort(
    spec: ModelSpec,
    g: Blocks,
    cohort: Cohort,
    l_w: list[ParamBlock],
    hyper: ClientHyper,
    rngs: Sequence[np.random.Generator],
) -> list[ClientUpdateResult]:
    """:func:`client_update` for every client at once; under joint training
    it steps the stacked locals ``l_w`` in place.  Each client steps its own
    copy of the global parameters: of ``g[0]`` the rows its schedule
    addresses, the clients' compact copies end to end in one block, and of
    every other block a full copy along an owner axis.  So one kernel call
    serves the whole cohort."""
    joint = hyper.joint_training
    clients = len(cohort.client_ids)
    features, targets, weights, norm = _cohort_batches(
        cohort, "query", hyper.batch_size, hyper.k_u, rngs
    )
    q = g[0].array
    features = features.astype(np.int64)
    if features.size and features.max() >= len(q):
        raise DataError(f"feature outside [0, {len(q)}) addresses no row of {g[0].name!r}")
    # Non-negative features address g[0]: compact row k holds global row
    # keys[k] % len(q) for client keys[k] // len(q).  Negative features
    # address the client's local rows and stay as they are.
    glob = features >= 0
    owner = np.arange(clients).reshape((1, clients) + (1,) * (features.ndim - 2))
    keys, compact = np.unique((owner * len(q) + features)[glob], return_inverse=True)
    features[glob] = compact
    rows = keys % len(q)
    bounds = np.searchsorted(keys, np.arange(clients + 1) * len(q))
    # A block needs a row even where no feature addresses one.
    compact_rows = q[rows] if len(rows) else q[:1]
    work = [ParamBlock(g[0].name, compact_rows, compact_rows.shape)]
    work += [ParamBlock(b.name, np.tile(b.values, clients), (clients,) + b.shape) for b in g[1:]]
    for s in range(hyper.k_u):
        batch = Batch(features[s], targets[s], weights[s])
        grads, local_grads = spec.sparse_grads(work, l_w, batch, norm[s], True, joint)
        _sgd_step(work, hyper.eta_u, grads)
        if joint:
            _sgd_step(l_w, hyper.eta_u, local_grads)

    stepped = work[0].array[: len(rows)]
    segments = [slice(bounds[c], bounds[c + 1]) for c in range(clients)]
    for seg in segments:  # client by client, to gather no second copy of all rows
        stepped[seg] -= q[rows[seg]]
    # Non-finite rows up to each segment bound: a client's segment may be empty.
    bad_rows = np.concatenate(([0], np.cumsum(~np.isfinite(stepped).all(axis=1))))
    ok = bad_rows[bounds[1:]] == bad_rows[bounds[:-1]]
    dense = [b.values.reshape(clients, -1) for b in work[1:]]
    for d, b in zip(dense, g[1:]):
        d -= b.values  # in place: row c becomes client c's delta
        ok &= np.isfinite(d).all(axis=1)
    if joint:
        ok &= _finite_per_client(l_w)
    _require_finite_clients(ok, cohort.client_ids, "the update")
    return [
        ClientUpdateResult(
            client_id=cid,
            delta=[RowDelta(rows[segments[c]], stepped[segments[c]])] + [d[c] for d in dense],
            n_i=n_i,
            updated_local=_unstack(l_w, c) if joint else None,
        )
        for c, (cid, n_i) in enumerate(zip(cohort.client_ids.tolist(), cohort.query_n.tolist()))
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
) -> list[ClientUpdateResult]:
    """``[run_client_round(...) for ds in datasets]`` as one computation:
    split -> reconstruct -> query metrics -> update for a whole cohort, from
    the same per-client streams, in batched calls over the slices of
    :func:`owner_chunks`.  ``initial_locals`` (one per dataset) skips
    reconstruction.  A numerical failure names the client."""
    results: list[ClientUpdateResult] = []
    for owners in owner_chunks(spec, g, len(datasets)):
        cohort, stacked = reconstruct_cohort(
            spec, g, datasets[owners], policy, hyper, streams, round_idx,
            initial_locals=None if initial_locals is None else initial_locals[owners],
        )
        metrics = cohort_metrics(spec, g, stacked, cohort)
        rngs = streams.generators(round_idx, cohort.client_ids, "update_batches")
        chunk = _update_cohort(spec, g, cohort, stacked, hyper, rngs)
        for res, m in zip(chunk, metrics):
            res.query_metrics = m
        results += chunk
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
