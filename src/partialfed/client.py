"""Client-side computations: dataset split, local-parameter reconstruction,
global-parameter update, and the first-order meta-gradient verification.

All operations are pure given their inputs and the explicit generators, so
per-client work is replayable and order-independent.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

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
    _join_metrics,
    _max_rel_err,
    _sgd_step,
    _stack,
    blocks_size,
    owner_rows,
)
from .errors import ConfigError, DataError, NumericalError

__all__ = [
    "SplitPolicy",
    "ClientHyper",
    "RowDelta",
    "CohortUpdate",
    "split_dataset",
    "batch_schedule",
    "reconstruct",
    "client_update",
    "run_client_round",
    "Cohort",
    "split_cohort",
    "cohort_metrics",
    "owner_chunks",
    "map_chunks",
    "run_cohort",
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


def split_dataset(data: ClientDataset, policy: SplitPolicy, rng: np.random.Generator) -> Cohort:
    """One client split into its support and query halves, as a cohort of
    one: :func:`split_cohort` with ``rng`` as its generator.  A
    single-example client uses its example for both."""
    return split_cohort([data], policy, [rng])


def batch_schedule(
    idx: np.ndarray, batch_size: int, steps: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffle once, chunk into minibatches, and cycle until `steps` batches.
    The schedule :func:`_cohort_batches` draws for each client, as a list."""
    if len(idx) == 0:
        raise DataError("cannot batch an empty index set")
    perm = rng.permutation(idx)
    chunks = [perm[i : i + batch_size] for i in range(0, len(perm), batch_size)]
    return [chunks[s % len(chunks)] for s in range(steps)]


def reconstruct(
    spec: ModelSpec,
    g: Blocks,
    cohort: Cohort,
    hyper: ClientHyper,
    init_rng: np.random.Generator,
    batch_rng: np.random.Generator,
) -> list[ParamBlock]:
    """Gradient-descend freshly initialized local parameters on the support
    half of a cohort of one (see :func:`split_dataset`) with the global
    parameters frozen: :func:`_reconstructed`, returning the client's
    blocks; k_r=0 returns the raw init."""
    return owner_rows(_reconstructed(spec, g, cohort, hyper, [init_rng], [batch_rng]), 0)


@dataclass
class CohortUpdate:
    """One owner chunk's global deltas, client by client in cohort order.
    Client ``c`` has id ``client_ids[c]`` and weight ``n[c]``, its query
    size.  It moved rows ``rows[bounds[c]:bounds[c + 1]]`` of ``g[0]``,
    ascending and distinct, by the same rows of ``values``, and every other
    global block by row ``c`` of that block's array in ``dense``."""

    client_ids: np.ndarray
    n: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    dense: list[np.ndarray]

    def delta(self, c: int, g: Blocks) -> list[np.ndarray]:
        """Client ``c``'s delta as one flat array per block of ``g``."""
        seg = slice(self.bounds[c], self.bounds[c + 1])
        head = np.zeros(g[0].values.size)
        head.reshape(len(g[0].array), -1)[self.rows[seg]] += self.values[seg]
        return [head] + [d[c] for d in self.dense]


def client_update(
    spec: ModelSpec,
    g: Blocks,
    l: Blocks,
    cohort: Cohort,
    hyper: ClientHyper,
    batch_rng: np.random.Generator,
) -> tuple[CohortUpdate, list[ParamBlock]]:
    """k_u gradient steps on the global parameters over the query half of a
    cohort of one (see :func:`split_dataset`), with the reconstructed local
    parameters treated as constants (unless joint_training steps them
    concurrently): :func:`_update_cohort`, stepping a stacked copy of
    ``l``.  Returns the update, weighted by n_i = |query half|, and that
    copy; never modifies the caller's blocks."""
    stacked = _stack([l])
    update = _update_cohort(spec, g, cohort, stacked, hyper, [batch_rng])
    return update, owner_rows(stacked, 0)


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
) -> CohortUpdate:
    """Split -> reconstruct -> update for one client in one round:
    :func:`run_cohort` for a cohort of one, returning its update.

    ``initial_local`` skips reconstruction and starts from a stacked copy of
    the given local parameters (the full-aggregation baseline path).  Stream
    names are derived from (round, client_id, purpose) so clients are
    independent.
    """
    initial = None if initial_local is None else _stack([initial_local])
    (update,), _ = run_cohort(
        spec, g, [data], policy, hyper, streams, round_idx, initial_locals=initial
    )
    return update


# ---------------------------------------------------------------------------
# Cohorts: every sampled client of a round as one computation
# ---------------------------------------------------------------------------


@dataclass
class Cohort:
    """A split cohort in one columnar layout: every client's columns end to
    end, and each half of the split as positions into them, client by
    client, ascending within a client; for a cohort of one (see
    :func:`split_dataset`) they index the client's own columns.
    ``support_n`` and ``query_n`` count each client's positions.  A
    :meth:`window` keeps the columns of the cohort it was cut from."""

    client_ids: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    support: np.ndarray
    support_n: np.ndarray
    query: np.ndarray
    query_n: np.ndarray

    def query_batch(self, owners: slice = slice(None)) -> Batch:
        """The ``owners`` clients' query halves as one ``(clients, widest)``
        batch, one client per row; a short row is padded with zero-weight
        copies of its client's first query example."""
        n = self.query_n[owners]
        starts = (np.cumsum(self.query_n) - self.query_n)[owners]
        slot = np.arange(n.max())
        real = slot < n[:, None]
        pos = self.query[starts[:, None] + np.where(real, slot, 0)]
        return Batch(self.features[pos], self.targets[pos], real.astype(np.float64))

    def window(self, sel: slice) -> "Cohort":
        """The ``sel`` clients, consecutive ones, as a cohort over the same
        columns: their batches are those of splitting them alone."""

        def span(n: np.ndarray) -> slice:
            lo, hi, _ = sel.indices(len(n))
            return slice(int(n[:lo].sum()), int(n[:hi].sum()))

        return replace(
            self,
            client_ids=self.client_ids[sel],
            support=self.support[span(self.support_n)],
            support_n=self.support_n[sel],
            query=self.query[span(self.query_n)],
            query_n=self.query_n[sel],
        )


def _require_one_generator_each(rngs: Sequence, clients: int) -> None:
    if len(rngs) != clients:
        raise ValueError(f"{len(rngs)} generators for a cohort of {clients} clients")


def split_cohort(
    datasets: Sequence[ClientDataset],
    policy: SplitPolicy,
    rngs: Sequence[np.random.Generator] | None = None,
) -> Cohort:
    """Split every client into a support and a query half, as one
    :class:`Cohort`; a single-example client uses its example for both.
    ``half_disjoint`` draws one permutation from each client's generator
    in ``rngs``; the other kinds draw nothing."""
    n = np.array([d.n for d in datasets], dtype=np.int64)
    if not np.all(n):
        raise DataError(f"client {datasets[int(np.argmin(n))].client_id}: empty dataset")
    if rngs is not None:
        _require_one_generator_each(rngs, len(n))
    elif policy.kind == "half_disjoint":
        raise ValueError("half_disjoint needs one generator per client")
    if policy.kind == "no_split":
        return _unsplit_cohort(datasets, n)
    starts = np.cumsum(n) - n
    owner = np.repeat(np.arange(len(n)), n)
    whole = n == 1
    # Support size: ceil(n * fraction), capped so the query set stays nonempty.
    k = np.where(whole, n, np.minimum(np.maximum(1, np.ceil(n * policy.support_fraction)), n - 1))
    # order: every client's examples in its split order, client after client.
    if policy.kind == "half_disjoint":
        order = starts[owner] + np.concatenate(
            [rng.permutation(m) if m > 1 else np.zeros(1, np.int64)
             for rng, m in zip(rngs, n.tolist())]
        )
    else:  # by_timestamp_half: earlier examples become support
        order = np.lexsort((np.concatenate([d.timestamps for d in datasets]), owner))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - starts[owner]
    support = rank < k[owner]
    query = ~support | whole[owner]
    return Cohort(
        *_columns(datasets),
        support=np.flatnonzero(support),
        support_n=k.astype(np.int64),
        query=np.flatnonzero(query),
        query_n=np.where(whole, n, n - k).astype(np.int64),
    )


def _columns(datasets: Sequence[ClientDataset]) -> tuple[np.ndarray, ...]:
    """A cohort's client ids, features and targets, end to end."""
    return (
        np.array([d.client_id for d in datasets], dtype=np.int64),
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.targets for d in datasets]),
    )


def _unsplit_cohort(datasets: Sequence[ClientDataset], n: np.ndarray) -> Cohort:
    """Clients of the given nonzero sizes ``n`` unsplit, every example in
    both halves: :func:`split_cohort` under ``no_split``, for a caller that
    has read the sizes."""
    every = np.arange(int(n.sum()))
    return Cohort(*_columns(datasets), every, n, every.copy(), n.copy())


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
    _require_one_generator_each(rngs, len(n))
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
    weights = real.astype(np.float64)
    return (
        cohort.features[pos],
        cohort.targets[pos],
        weights,
        weights.sum(axis=-1, keepdims=True),
    )


def _finite_per_client(stacked: Sequence[ParamBlock]) -> np.ndarray:
    """For each client: is its slice of every stacked block finite?"""
    return np.all(
        [np.isfinite(b.array.reshape(b.shape[0], -1)).all(axis=1) for b in stacked], axis=0
    )


def _require_finite_clients(ok: np.ndarray, client_ids: np.ndarray, what: str) -> None:
    """Name the first client whose ``ok`` entry is False; the error's
    ``owner`` is its position in ``client_ids``."""
    if not ok.all():
        owner = int(np.argmin(ok))
        err = NumericalError(f"client {int(client_ids[owner])}: non-finite values in {what}")
        err.owner = owner
        raise err


# Values per owner-axis metrics call: padded examples times the widest row
# of a global block, an item row (K) or a row of logits (classes), which is
# the largest array a call holds.  Matrix factorization at K = 50 runs 5,242
# padded examples a call, one gather of 2 MB; next-word prediction's 410
# logits an example allow 639, so an owner chunk's query metrics take
# several calls rather than one holding every client's logits.  Threads
# that score at once share it (see _threads).
_METRICS_BUDGET = 1 << 18
# Values one batched cohort call may hold over all its owners: their stacked
# local blocks and their copies of the dense global blocks (one step's
# grads of those copies are as large again).  MF's 50 local values run a
# whole round in one call; next-word prediction at 500 x 32 buckets (16,000
# local values) and a 13,530-value output layer runs 22 owners a call, so a
# 20-client round is one call.  Threads that run chunks at once share it.
_OWNER_BUDGET = 5 << 17
# An owner of at least this many values is large: its chunks may run on
# helper threads.  Next-word owners hold 29,530 values, and their rounds run
# faster on two threads; MF owners hold 50, a whole round is one cheap call,
# and cut for threads its rounds ran slower.
_LARGE_OWNER = 1 << 10
# Owners a threaded chunk holds at least.  On two threads, next-word chunks
# of 10 owners ran 1.35x faster than one thread, of 5 1.1x, and of 3 1.5x
# slower: a smaller cohort runs as one thread's chunks.
_THREAD_CHUNK = 10
# Threads that run owner chunks, the calling one included: the CPUs the
# process may use, at most two, the count the gain was measured at (more
# threads, or threads that each run BLAS threads of their own, are
# unmeasured).  Under ``taskset -c 0`` it is 1, and no helper thread starts.
_WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_helpers = None  # the concurrent.futures.ThreadPoolExecutor, once started


def _forget_helpers() -> None:
    """A forked child has none of its parent's threads: it starts a pool of
    its own when it needs one."""
    global _helpers
    _helpers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _helper_pool():
    """The ``_WORKERS - 1`` helper threads, started on first use, so a run
    that needs none imports no executor.  Before the first starts, glibc is
    told to keep one malloc arena for the process: a helper's own arena
    kept the chunk arrays it had freed, and next-word runs peaked about 5%
    higher.  A process that never runs chunks on threads keeps glibc's
    default, and a libc without ``mallopt`` is left as it is."""
    global _helpers
    if _helpers is None:
        from concurrent.futures import ThreadPoolExecutor

        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError):  # not glibc
            pass
        else:
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(-8, 1)  # M_ARENA_MAX
        _helpers = ThreadPoolExecutor(max(1, _WORKERS - 1), "owner-chunk")
    return _helpers


@functools.lru_cache(maxsize=8)
def _local_size(spec: ModelSpec) -> int:
    """Values in one owner's local blocks: a spec's local shapes are fixed,
    so one throwaway draw per spec learns them, not one per call."""
    return blocks_size(spec.init_local(np.random.default_rng(0)))


def _owner_size(spec: ModelSpec, g: Blocks) -> int:
    """Values one owner holds in a batched call: its locals and its copies
    of the dense global blocks."""
    return _local_size(spec) + blocks_size(g[1:])


def _threads(spec: ModelSpec, g: Blocks) -> int:
    """The most threads that run a spec's owner chunks at once, and so
    share the budgets: ``_WORKERS`` for large owners, one for small ones."""
    return _WORKERS if _owner_size(spec, g) >= _LARGE_OWNER else 1


def _chunk_workers(spec: ModelSpec, g: Blocks, owners: int) -> int:
    """Threads that run the chunks of ``owners`` owners: :func:`_threads`,
    as long as each thread gets ``_THREAD_CHUNK`` owners."""
    return max(1, min(_threads(spec, g), owners // _THREAD_CHUNK))


def owner_chunks(spec: ModelSpec, g: Blocks, owners: int) -> list[slice]:
    """``owners`` owners cut into the slices that run as one batched call:
    each holds at most ``_OWNER_BUDGET`` local and per-owner dense global
    values over the threads that run them (:func:`_chunk_workers`), or a
    single owner.  With several threads the slices are as many for each
    thread and as even as the owners allow."""
    per_owner = _owner_size(spec, g)
    workers = _chunk_workers(spec, g, owners)
    step = max(1, _OWNER_BUDGET // workers // max(1, per_owner))
    if workers > 1:
        calls = workers * max(1, -(-owners // (workers * step)))
        step = max(1, -(-owners // calls))
    return [slice(lo, lo + step) for lo in range(0, owners, step)]


def map_chunks(run: Callable[[slice], object], spec: ModelSpec, g: Blocks, owners: int) -> list:
    """``run(c)`` for every slice ``c`` of :func:`owner_chunks`, in order,
    the slices shared out in contiguous runs among :func:`_chunk_workers`
    threads: the calling thread runs the first, helpers the others, each in
    a copy of the caller's context variables.  ``run`` must not depend on
    another chunk's result, and sets numpy's error state itself where it
    needs one: before numpy 2.0 that state is per thread, not a context
    variable.  If chunks fail, the error raised is the first failing
    chunk's in order, once every submitted chunk has finished: the error
    of a loop over the chunks."""
    chunks = owner_chunks(spec, g, owners)
    shares = min(_chunk_workers(spec, g, owners), len(chunks))
    if shares <= 1:
        return [run(c) for c in chunks]
    cuts = [-(-k * len(chunks) // shares) for k in range(shares + 1)]

    def share(k: int) -> list:
        return [run(c) for c in chunks[cuts[k] : cuts[k + 1]]]

    pool = _helper_pool()
    futures = [pool.submit(contextvars.copy_context().run, share, k) for k in range(1, shares)]
    try:
        first = share(0)
    finally:
        for f in futures:
            f.exception()  # waits for it, raising nothing
    return first + [out for f in futures for out in f.result()]


@np.errstate(over="ignore", invalid="ignore")  # callers check the scores' finiteness
def cohort_metrics(
    spec: ModelSpec, g: Blocks, stacked: Blocks, cohort: Cohort
) -> dict[str, Metric]:
    """``spec.metrics`` of every client's query half under its row of the
    stacked local blocks, as arrays over the clients: owner-axis calls over
    chunks of clients that hold at most ``_METRICS_BUDGET`` values, or a
    single client, joined end to end; a client's entries are those of
    scoring it alone.  A score that overflows comes back non-finite, with
    no warning."""
    per_example = max(b.shape[-1] for b in g)
    budget = _METRICS_BUDGET // _threads(spec, g)
    per_call = max(1, budget // (int(cohort.query_n.max()) * per_example))
    calls = []
    for lo in range(0, len(cohort.client_ids), per_call):
        owners = slice(lo, lo + per_call)
        calls.append(spec.metrics(g, owner_rows(stacked, owners), cohort.query_batch(owners)))
    return _join_metrics(calls)


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
def _reconstructed(
    spec: ModelSpec,
    g: Blocks,
    cohort: Cohort,
    hyper: ClientHyper,
    init_rngs: Sequence[np.random.Generator],
    batch_rngs: Sequence[np.random.Generator],
) -> list[ParamBlock]:
    """Every client's fresh local blocks, drawn from its generator in
    ``init_rngs`` and stacked along a leading client axis, after
    ``hyper.k_r`` steps over minibatches of its support half drawn from its
    generator in ``batch_rngs``.  Each step is one owner-axis kernel call
    (see :class:`ModelSpec`).  Finiteness is checked once per client at the
    end, and a numerical failure names the client."""
    stacked = spec.init_local(*init_rngs)
    if not (hyper.k_r and stacked):
        return stacked
    features, targets, weights, norm = _cohort_batches(
        cohort, "support", hyper.batch_size, hyper.k_r, batch_rngs
    )
    for s in range(hyper.k_r):
        batch = Batch(features[s], targets[s], weights[s])
        _, grads = spec.sparse_grads(g, stacked, batch, norm[s], False, True)
        _sgd_step(stacked, hyper.eta_r, grads)
        del grads  # freed before the next call allocates its own
    _require_finite_clients(
        _finite_per_client(stacked),
        cohort.client_ids,
        f"local parameters after reconstruction step {hyper.k_r - 1}",
    )
    return stacked


def _split_and_seed(
    datasets: Sequence[ClientDataset],
    policy: SplitPolicy,
    streams: RngStreams,
    key: int | np.ndarray,
    namespace: str,
    reconstructs: bool = True,
) -> tuple[Cohort, list[np.random.Generator] | None, list[np.random.Generator] | None]:
    """Split a nonempty cohort, seeding each purpose once for all its
    clients: the :class:`Cohort` and every client's ``local_init`` and
    ``recon_batches`` generators, or None for both unless ``reconstructs``.
    Client ``c`` draws from ``(key, client id, namespace + purpose)``, taking
    ``key[c]`` if ``key`` is an array."""
    if not datasets:
        raise DataError("a cohort needs at least one client")
    ids = np.array([d.client_id for d in datasets], dtype=np.int64)

    def gens(purpose: str, needed: bool) -> list[np.random.Generator] | None:
        return streams.generators(key, ids, namespace + purpose) if needed else None

    cohort = split_cohort(datasets, policy, gens("split", policy.kind == "half_disjoint"))
    return cohort, gens("local_init", reconstructs), gens("recon_batches", reconstructs)


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
def _update_cohort(
    spec: ModelSpec,
    g: Blocks,
    cohort: Cohort,
    l_w: list[ParamBlock],
    hyper: ClientHyper,
    rngs: Sequence[np.random.Generator],
) -> CohortUpdate:
    """``k_u`` update steps for every client at once; under joint training
    it steps the stacked locals ``l_w`` in place.  Each client steps its own
    copy of the global parameters: of ``g[0]`` the rows its schedule
    addresses, the clients' compact copies end to end in one block, and of
    every other block a full copy along an owner axis.  So one kernel call
    serves the whole cohort, and the stepped copies, less ``g``, are its
    :class:`CohortUpdate`."""
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
    # A step whose compact rows are all distinct may step them as one put
    # (see _sgd_step); one sort of the (step, compact row) keys finds the
    # steps that repeat a row: padding, or a minibatch naming a row twice.
    step_of = np.arange(hyper.k_u).reshape((-1,) + (1,) * (features.ndim - 1))
    span = max(1, len(rows))
    addressed = np.sort((step_of * span + features)[glob])
    unique = np.ones(hyper.k_u, bool)
    unique[addressed[1:][addressed[1:] == addressed[:-1]] // span] = False
    for s in range(hyper.k_u):
        batch = Batch(features[s], targets[s], weights[s])
        grads, local_grads = spec.sparse_grads(work, l_w, batch, norm[s], True, joint)
        _sgd_step(work, hyper.eta_u, grads, unique[s])
        if joint:
            _sgd_step(l_w, hyper.eta_u, local_grads)
        # Freed before the next call allocates its own: with a dense block
        # copied per owner, one set of grads is as large as those copies.
        del grads, local_grads

    stepped = work[0].array[: len(rows)]
    for c in range(clients):  # client by client, to gather no second copy of all rows
        seg = slice(bounds[c], bounds[c + 1])
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
    return CohortUpdate(cohort.client_ids, cohort.query_n, rows, stepped, bounds, dense)


def run_cohort(
    spec: ModelSpec,
    g: Blocks,
    datasets: Sequence[ClientDataset],
    policy: SplitPolicy,
    hyper: ClientHyper,
    streams: RngStreams,
    round_idx: int,
    *,
    initial_locals: Sequence[ParamBlock] | None = None,
) -> tuple[list[CohortUpdate], dict[str, Metric]]:
    """Split -> reconstruct -> query metrics -> update for every client of
    a round, each from its own streams, in batched calls over the slices of
    :func:`owner_chunks` (:func:`map_chunks`).  Returns one
    :class:`CohortUpdate` per chunk and the clients' query metrics before
    the update, as arrays over the clients, both in dataset order.  The
    round is split, and each stream purpose seeded, once for all its
    clients.  ``initial_locals``, local blocks stacked along a leading
    client axis (row ``c`` for dataset ``c``), skips reconstruction; joint
    training steps them in place.  A numerical failure names the client."""
    if not datasets:
        return [], {}
    cohort, init, batches = _split_and_seed(
        datasets, policy, streams, round_idx, "", initial_locals is None
    )
    update_batches = streams.generators(round_idx, cohort.client_ids, "update_batches")

    def run(owners: slice) -> tuple[CohortUpdate, dict[str, Metric]]:
        chunk = cohort.window(owners)
        if initial_locals is None:
            stacked = _reconstructed(spec, g, chunk, hyper, init[owners], batches[owners])
        else:
            stacked = owner_rows(initial_locals, owners)
        metrics = cohort_metrics(spec, g, stacked, chunk)
        finite = np.logical_and.reduce([np.isfinite(m.value) for m in metrics.values()])
        _require_finite_clients(finite, chunk.client_ids, "the query metrics")
        return _update_cohort(spec, g, chunk, stacked, hyper, update_batches[owners]), metrics

    done = map_chunks(run, spec, g, len(datasets))
    return [update for update, _ in done], _join_metrics([metrics for _, metrics in done])


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
    cohort: Cohort,
    hyper: ClientHyper,
    streams: RngStreams,
    *,
    round_idx: int = 0,
    eps: float = 1e-5,
) -> MetaGradientReport:
    """Check the one-step update of a cohort of one (see
    :func:`split_dataset`) against both gradient readings: the client is
    reconstructed (:func:`_reconstructed`) and updated (:func:`_update_cohort`)
    from its ``(round_idx, client id, purpose)`` streams, and the finite
    differences take the loss of its query half.  Requires k_u = 1; the
    query half is consumed as a single full batch."""
    if hyper.k_u != 1:
        raise ConfigError("verification requires k_u = 1")
    if hyper.eta_u <= 0:
        raise ConfigError("verification requires a positive eta_u")
    cid = int(cohort.client_ids[0])
    full_batch = replace(hyper, batch_size=int(cohort.query_n[0]), k_u=1)

    def rebuild_local(g_probe: Blocks) -> list[ParamBlock]:
        # Reconstruction keeps the caller's k_r / eta_r / batch size; only the
        # update step is forced to a single full-batch pass.
        init = streams.generator(round_idx, cid, "local_init")
        batches = streams.generator(round_idx, cid, "recon_batches")
        return owner_rows(_reconstructed(spec, g_probe, cohort, hyper, [init], [batches]), 0)

    l_fixed = rebuild_local(g)
    # A stacked copy: joint training steps it, not the point differentiated at.
    update = _update_cohort(
        spec, g, cohort, _stack([l_fixed]), full_batch,
        [streams.generator(round_idx, cid, "update_batches")],
    )
    first_order = np.concatenate(update.delta(0, g)) / -full_batch.eta_u

    padded = cohort.query_batch()
    query = Batch(padded.features[0], padded.targets[0], padded.weights[0])
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
