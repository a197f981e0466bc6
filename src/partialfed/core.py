"""Parameter partitioning, the model abstraction, and deterministic randomness.

Every model in this package is a flat vector of 64-bit floats organised into
named blocks, partitioned into a *global* part (aggregated across clients)
and a *local* part (rebuilt on-device and never communicated).  All
randomness flows through :class:`RngStreams`, which derives an independent
generator from ``(seed, *parts)`` so that any computation can be replayed
bit-for-bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DataError, NumericalError, ShapeMismatchError

__all__ = [
    "fnv1a64",
    "round_half_away",
    "RngStreams",
    "ParamBlock",
    "LocalTables",
    "owner_rows",
    "Batch",
    "ClientDataset",
    "Metric",
    "sum_in_order",
    "merge_metrics",
    "finalize_metrics",
    "RowDelta",
    "ModelSpec",
    "dense_grads",
    "axpy_blocks",
    "blocks_size",
    "GradCheckReport",
    "check_gradients",
]

_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash; stable across platforms and Python versions."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & _U64
    return h


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer with .5 ties going away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


# numpy's SeedSequence hash (NEP 19): constants of its entropy mixing and of
# ``generate_state``.  Kept as np.uint64 so that no promotion rule can change
# the arithmetic; every product is masked back to 32 bits.
_M32 = np.uint64(0xFFFFFFFF)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_SHIFT16, _SHIFT32 = np.uint64(16), np.uint64(32)
_POOL = 4


@functools.lru_cache(maxsize=1024)  # purpose strings: few, reused every round
def _str_word(part: str) -> int:
    return fnv1a64(part.encode("utf-8"))


def _key_word(part: int | str) -> int:
    return _str_word(part) if isinstance(part, str) else int(part) & _U64


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words SeedSequence reads from a nonnegative int, low first."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    nxt = (const * _MULT_A) & 0xFFFFFFFF
    value = ((value ^ np.uint64(const)) * np.uint64(nxt)) & _M32
    return value ^ (value >> _SHIFT16), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> _SHIFT16)


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for each row of
    ``words``, a ``(lanes, L)`` array of the rows' 32-bit entropy words."""
    lanes, length = words.shape
    const, pool = _INIT_A, []
    for i in range(_POOL):
        word = words[:, i] if i < length else np.zeros(lanes, np.uint64)
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for src in range(_POOL, length):
        for dst in range(_POOL):
            hashed, const = _hashmix(words[:, src], const)
            pool[dst] = _mix(pool[dst], hashed)
    const, state = _INIT_B, []
    for i in range(2 * _POOL):
        word = pool[i % _POOL] ^ np.uint64(const)
        const = (const * _MULT_B) & 0xFFFFFFFF
        word = (word * np.uint64(const)) & _M32
        state.append(word ^ (word >> _SHIFT16))
    return np.stack([state[2 * j] | (state[2 * j + 1] << _SHIFT32) for j in range(4)], axis=1)


class _SeedState(ISeedSequence):
    """A seed sequence whose PCG64 state is already computed."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed state serves PCG64 only")
        return self.state


class RngStreams:
    """Named, independent random streams derived from a single 64-bit seed.

    ``generator(*parts)`` accepts ints and strings; identical parts always
    yield an identical `numpy` generator, so two runs with equal seeds
    produce identical number sequences regardless of call ordering
    elsewhere.  The generator is ``default_rng(SeedSequence(key))`` for
    ``key = [seed, *words]``, a string part's word being its FNV-1a-64 hash
    and an int part's word the int modulo 2**64.

    ``generators(*parts)``, one or more parts equal-length int arrays,
    returns one generator per lane, lane ``k`` taking entry ``k`` of each
    array and reproducing the bits of ``SeedSequence(key)`` for its key; the
    whole batch's seeding runs as array arithmetic.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64

    def generator(self, *parts: int | str) -> np.random.Generator:
        key = [self.seed] + [_key_word(p) for p in parts]
        return np.random.default_rng(np.random.SeedSequence(key))

    def generators(self, *parts) -> list[np.random.Generator]:
        """``[self.generator(*lane) for lane in lanes]``, lane ``k`` taking
        entry ``k`` of every part that is a 1-D integer array, all of one
        length, and every other part as it is: ``generators(reps, ids,
        "split")`` seeds ``(reps[k], ids[k], "split")``.  Bit for bit the
        same draws.  A generator seeded as an array lane cannot ``spawn``."""
        arrays = [p for p in parts if isinstance(p, np.ndarray)]
        if not arrays or any(a.ndim != 1 or a.dtype.kind not in "iu" for a in arrays):
            raise ValueError("generators() takes one or more 1-D integer array parts")
        if len({len(a) for a in arrays}) > 1:
            raise ValueError(
                f"generators() array parts differ in length: {[len(a) for a in arrays]}"
            )
        n = len(arrays[0])
        # Negative ints wrap modulo 2**64.  SeedSequence reads an entry below
        # 2**32 as one word, others as two: lanes are grouped by which of
        # their entries take two, bit j of ``wide`` for array part j.
        parts = [p.astype(np.uint64) if isinstance(p, np.ndarray) else p for p in parts]
        lanes = [p for p in parts if isinstance(p, np.ndarray)]
        wide = sum((a > _M32).astype(np.int64) << j for j, a in enumerate(lanes))
        out: list[np.random.Generator | None] = [None] * n
        for code in np.unique(wide).tolist():
            idx = np.flatnonzero(wide == code)
            columns, j = _uint32_words(self.seed), 0
            for p in parts:
                if isinstance(p, np.ndarray):
                    columns.append(p[idx] & _M32)
                    if code >> j & 1:
                        columns.append(p[idx] >> _SHIFT32)
                    j += 1
                else:
                    columns += _uint32_words(_key_word(p))
            words = np.empty((len(idx), len(columns)), np.uint64)
            for c, column in enumerate(columns):
                words[:, c] = column
            for i, state in zip(idx.tolist(), _pcg64_seeds(words)):
                out[i] = np.random.Generator(np.random.PCG64(_SeedState(state)))
        return out

    def derive_seed(self, *parts: int | str) -> int:
        """A fresh 63-bit seed derived from this one; used for run repeats."""
        return int(self.generator(*parts).integers(0, 2**63))


@dataclass
class ParamBlock:
    """One named, flat slice of the model parameter vector."""

    name: str
    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        self.shape = tuple(int(s) for s in self.shape)
        if any(s <= 0 for s in self.shape):
            raise ShapeMismatchError(f"block {self.name!r}: non-positive dim in {self.shape}")
        if math.prod(self.shape) != self.values.size:
            raise ShapeMismatchError(
                f"block {self.name!r}: shape {self.shape} incompatible with "
                f"{self.values.size} values"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericalError(f"block {self.name!r} contains non-finite values")

    @classmethod
    def of(cls, name: str, array: np.ndarray) -> "ParamBlock":
        array = np.asarray(array, dtype=np.float64)
        return cls(name, array.ravel().copy(), array.shape)

    @property
    def array(self) -> np.ndarray:
        """The values viewed in their declared shape (shares memory)."""
        return self.values.reshape(self.shape)

    def copy(self) -> "ParamBlock":
        return ParamBlock(self.name, self.values.copy(), self.shape)


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, ParamBlock) else np.asarray(x, dtype=np.float64).ravel()


def axpy_blocks(dst: Sequence[ParamBlock], scale: float, src: Sequence) -> list[ParamBlock]:
    """dst + scale * src, block by block; src items may be blocks or arrays."""
    if len(dst) != len(src):
        raise ShapeMismatchError(f"{len(dst)} blocks vs {len(src)}")
    out = []
    for d, s in zip(dst, src):
        sv = _values(s)
        if sv.size != d.values.size:
            raise ShapeMismatchError(
                f"block {d.name!r}: {d.values.size} values vs src {sv.size}"
            )
        out.append(ParamBlock(d.name, d.values + scale * sv, d.shape))
    return out


def _rows_at(ufunc: np.ufunc, flat: np.ndarray, rows: np.ndarray, values) -> None:
    """``ufunc.at`` of ``values[k]`` into row ``rows[k]`` of the row-major
    1-D buffer ``flat``, repeated rows one after another.  It serves rows
    that may repeat; over rows known to be unique, one gather and one put
    give the same values faster.  It indexes single elements, not rows:
    numpy's ``ufunc.at`` fast path takes only 1-D indices and values."""
    if len(rows):
        values = np.asarray(values).reshape(len(rows), -1)
        width = values.shape[1]
        ufunc.at(flat, (rows[:, None] * width + np.arange(width)).ravel(), values.ravel())


def _sgd_step(
    blocks: Sequence[ParamBlock], rate: float, grads: Sequence, unique: bool = False
) -> None:
    """blocks -= rate * grads, in place.  A :class:`RowDelta` grad steps only
    its rows, repeated rows one after another; other grads are dense.  If
    the caller knows no grad repeats a row (``unique``), a grad carrying
    its rows' ``base`` steps them as one put, ``base - rate * values``: the
    same values as the subtraction row by row.  A dense ndarray grad is
    consumed: it is scaled by ``rate`` in place, the same bits as a scaled
    copy without the copy.  A :class:`ParamBlock` or :class:`RowDelta` grad
    is never modified."""
    if len(blocks) != len(grads):
        raise ShapeMismatchError(f"{len(blocks)} blocks vs {len(grads)} grads")
    for b, grad in zip(blocks, grads):
        if isinstance(grad, RowDelta) and unique and grad.base is not None:
            width = grad.base.shape[-1]
            b.values.reshape(-1, width)[grad.rows] = grad.base - rate * grad.values
        elif isinstance(grad, RowDelta):
            _rows_at(np.subtract, b.values, grad.rows, rate * grad.values)
        else:
            gv = _values(grad)
            if gv.size != b.values.size:
                raise ShapeMismatchError(
                    f"block {b.name!r}: {b.values.size} values vs grad {gv.size}"
                )
            if isinstance(grad, ParamBlock):
                b.values -= rate * gv
            else:
                gv *= rate
                b.values -= gv


def _require_finite(arrays: Iterable[np.ndarray], what: str) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericalError(f"non-finite values in {what}")


def blocks_size(blocks: Sequence[ParamBlock]) -> int:
    return sum(b.values.size for b in blocks)


def _stack(locals_: Sequence[Blocks]) -> list[ParamBlock]:
    """Per-client local blocks stacked along a leading client axis."""
    return [
        ParamBlock(b.name, np.stack([l[bi].values for l in locals_]), (len(locals_),) + b.shape)
        for bi, b in enumerate(locals_[0])
    ]


def owner_rows(stacked: Blocks, owners: slice | int) -> list[ParamBlock]:
    """The ``owners`` rows of blocks stacked along a leading client axis, as
    views: a slice keeps the axis, a row number drops it and gives that
    client's blocks."""
    out = []
    for b in stacked:
        rows = b.array[owners]
        out.append(ParamBlock(b.name, rows, rows.shape))
    return out


@dataclass
class LocalTables:
    """Stored local parameters, one table per local block: row ``r`` of
    every table (its leading axis) holds client ``ids[r]``, ids ascending."""

    ids: np.ndarray
    blocks: list[ParamBlock]

    def rows(self, client_ids: Sequence[int]) -> np.ndarray:
        """Each client's row; a KeyError names the first id not stored."""
        want = np.asarray(client_ids, dtype=np.int64)
        rows = np.minimum(np.searchsorted(self.ids, want), len(self.ids) - 1)
        missing = want[self.ids[rows] != want]
        if missing.size:
            raise KeyError(int(missing[0]))
        return rows

    def take(self, rows: np.ndarray) -> list[ParamBlock]:
        """The ``rows`` of every table, stacked in that order (a copy)."""
        return [ParamBlock(b.name, b.array[rows], (len(rows),) + b.shape[1:]) for b in self.blocks]


@dataclass
class Batch:
    """Column-packed examples handed to ModelSpec procedures.  An example's
    weight is 1 if it is real and 0 if it pads a batch, and padding is not
    scored."""

    features: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.targets)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass
class ClientDataset:
    """One client's examples, stored columnar for speed.  Its support/query
    split is a ``client.Cohort`` (see ``client.split_cohort``)."""

    client_id: int
    features: np.ndarray
    targets: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        n = len(self.targets)
        if len(self.features) != n or len(self.timestamps) != n:
            raise ShapeMismatchError(f"client {self.client_id}: ragged columns")

    @property
    def n(self) -> int:
        return len(self.targets)

    def batch(self, idx: np.ndarray | None = None) -> Batch:
        """The ``idx`` examples, every one if None, each of weight 1."""
        idx = slice(None) if idx is None else idx
        targets = self.targets[idx]
        return Batch(self.features[idx], targets, np.ones(len(targets)))


@dataclass
class Metric:
    """A mergeable metric: the weighted mean of ``value`` under ``weight``.
    Both are floats or arrays of one shape, an entry per owner (see
    :class:`ModelSpec`)."""

    value: np.ndarray | float
    weight: np.ndarray | float


def sum_in_order(x) -> np.ndarray:
    """Each owner's entries of ``x`` added along the last (example) axis
    left to right: what a loop over them sums, never numpy's pairwise sum,
    whose grouping changes with the axis length.  So entries of 0.0 after
    an owner's own change no bit of its sum.  An empty axis sums to 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.add.accumulate(x, axis=-1)[..., -1] if x.shape[-1] else np.zeros(x.shape[:-1])


@np.errstate(over="ignore", invalid="ignore")  # as float arithmetic: inf * 0 is a quiet nan
def merge_metrics(parts: Iterable[Mapping[str, Metric]]) -> dict[str, Metric]:
    """Weighted-mean merge, key by key, over every owner of every part, in
    order; empty input yields an empty map.  A key's ``value * weight`` and
    ``weight`` are summed owner after owner from 0.0 (:func:`sum_in_order`),
    so a merge of arrays gives the floats of a merge of their owners one by
    one."""
    acc: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for part in parts:
        for k, m in part.items():
            products, weights = acc.setdefault(k, ([], []))
            products.append(np.ravel(m.value * m.weight))
            weights.append(np.ravel(m.weight))
    out = {}
    for k, terms in acc.items():
        v, w = (float(sum_in_order(np.concatenate([np.zeros(1)] + t))) for t in terms)
        out[k] = Metric(v / w if w > 0 else float("nan"), w)
    return out


def _join_metrics(parts: Sequence[Mapping[str, Metric]]) -> dict[str, Metric]:
    """Per-owner metrics of consecutive owner-axis calls as one map, each
    key's arrays end to end."""
    return {
        k: Metric(
            np.concatenate([p[k].value for p in parts]),
            np.concatenate([p[k].weight for p in parts]),
        )
        for k in parts[0]
    }


def finalize_metrics(stats: Mapping[str, Metric]) -> dict:
    """Each key's value, deriving rmse from a mergeable mse when present:
    floats from merged metrics, arrays over owners from per-owner ones."""
    out = {k: m.value for k, m in stats.items()}
    if "mse" in out:
        mse = out["mse"]
        out["rmse"] = np.sqrt(mse) if isinstance(mse, np.ndarray) else math.sqrt(mse)
    return out


@dataclass
class RowDelta:
    """A row-sparse gradient for one block: ``values[k]`` belongs to row
    ``rows[k]``; repeated rows add up.  It may carry ``base``, shaped like
    ``values``: the rows as the kernel read them, ``base[k]`` being row
    ``rows[k]``, so that a step over unique rows needs no second gather
    (see :func:`_sgd_step`).  A client's delta is not one: a cohort returns
    its clients' deltas as one ``client.CohortUpdate``."""

    rows: np.ndarray
    values: np.ndarray
    base: np.ndarray | None = None


Blocks = Sequence[ParamBlock]


@dataclass(frozen=True)
class ModelSpec:
    """A task: parameter initialisers, loss, metrics and one gradient kernel.

    ``init_local(*rngs)`` returns every local block stacked along a leading
    client axis, one row per generator, row ``c`` drawn from ``rngs[c]``
    alone; a one-generator call is a one-client stack.  A model with no
    local blocks returns ``[]``.

    ``sparse_grads(g, l, batch, norm, need_global, need_local)`` is the one
    gradient kernel that every training step calls.  From one forward pass
    it returns ``(global_grads, local_grads)``, each None unless its
    ``need_*`` flag is set.  It differentiates the weighted loss sum divided
    by ``norm``: ``batch.total_weight`` gives ``loss``, a larger ``norm``
    makes the batch one part of a bigger minibatch.  Batch weights are 1
    for a real example and 0 for padding.

    Kernel contract.  ``sparse_grads`` and ``metrics`` take batch columns
    with leading owner axes, ``(owners..., B, ...)``, matched by the same
    leading axes on the local blocks: owner ``o`` scores its examples with
    its own local rows, and a flat batch with flat locals is one owner.
    ``norm`` broadcasts against the weights as each owner's count of real
    examples, so zero-weight padding adds exactly nothing.

    * A non-negative integer feature addresses a row of ``g[0]``, which may
      be a compact copy of some rows.  The grad for ``g[0]`` is a
      :class:`RowDelta` over the addressed rows, which may carry the rows
      as the kernel read them.
    * A negative feature ``-row - 1`` addresses a row of its owner's row
      table, a 2-D local block: row ``owner * rows_per_owner + row`` of the
      stacked block ``l[0].values.reshape(-1, width)``.  Its grad is a
      :class:`RowDelta` over those rows.  Any other local block gets a
      dense grad, one value per value of the block.
    * Every other global block is dense, and so is its grad.  In a cohort
      update it carries the owner axes, so each owner steps its own copy;
      passed without them it is shared, and its grad sums over the owners.

    ``metrics`` returns one dict of :class:`Metric` whose ``value`` and
    ``weight`` are arrays with the batch's owner axes, 0-d for a flat
    batch.  It scores only the examples of nonzero weight and sums each
    owner's examples in order (:func:`sum_in_order`), so each owner's
    entries are bit for bit what a flat call on its real examples returns,
    whoever shares the call.  Callers join consecutive calls' arrays end to end
    and merge them with :func:`merge_metrics`, which sums over the owners
    one after another in owner order: the floats of merging the owners one
    by one, never numpy's pairwise sum.

    ``loss`` is a weighted mean over a flat batch.  The kernel's grads,
    densified by :func:`dense_grads`, must agree with central differences
    of ``loss`` to 1e-4 relative (see :func:`check_gradients`).

    A model sets six fields: ``name``, ``init_global``, ``init_local``,
    ``loss``, ``metrics`` and ``sparse_grads``.  ``grad_global``,
    ``grad_local`` and ``fast_centralized`` stay unset: nothing reads them,
    and they remain only as names the benchmark's tracer looks up.
    """

    name: str
    init_global: Callable[[np.random.Generator], list[ParamBlock]]
    init_local: Callable[..., list[ParamBlock]]
    loss: Callable[[Blocks, Blocks, Batch], float]
    metrics: Callable[[Blocks, Blocks, Batch], dict[str, Metric]]
    sparse_grads: Callable
    grad_global: Callable | None = None
    grad_local: Callable | None = None
    fast_centralized: Callable | None = None


def dense_grads(spec: ModelSpec, g: Blocks, l: Blocks, batch: Batch):
    """``(global_grads, local_grads)`` of one ``sparse_grads`` call over a
    flat batch, as flat arrays matching the blocks of ``g`` and ``l``; a
    :class:`RowDelta`'s repeated rows add up."""
    parts = spec.sparse_grads(g, l, batch, batch.total_weight, True, True)
    out = ([], [])
    for grads, blocks, dense in zip(parts, (g, l), out):
        for entry, block in zip(grads, blocks):
            if isinstance(entry, RowDelta):
                flat = np.zeros(block.values.size)
                _rows_at(np.add, flat, entry.rows, entry.values)
                entry = flat
            dense.append(_values(entry))
    return out


@dataclass
class GradCheckReport:
    max_rel_err_global: float
    max_rel_err_local: float

    @property
    def max_rel_err(self) -> float:
        return max(self.max_rel_err_global, self.max_rel_err_local)


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Worst coordinate of |a - b| / max(1e-8, |a|, |b|); 0 when empty."""
    denom = np.maximum(1e-8, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _central_differences(
    value_fn: Callable[[list[ParamBlock]], float], blocks: Blocks, eps: float
) -> np.ndarray:
    """(f(x + eps e_j) - f(x - eps e_j)) / 2 eps for every coordinate j of
    ``blocks``, flattened in block order."""
    out = []
    for bi, block in enumerate(blocks):
        for j in range(block.values.size):
            plus = block.values.copy()
            plus[j] += eps
            minus = block.values.copy()
            minus[j] -= eps
            b_plus, b_minus = list(blocks), list(blocks)
            b_plus[bi] = ParamBlock(block.name, plus, block.shape)
            b_minus[bi] = ParamBlock(block.name, minus, block.shape)
            lp, lm = value_fn(b_plus), value_fn(b_minus)
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise NumericalError("non-finite loss during finite-difference probe")
            out.append((lp - lm) / (2.0 * eps))
    return np.asarray(out)


def _flat(arrays: Sequence) -> np.ndarray:
    return np.concatenate([np.asarray(a).ravel() for a in arrays]) if arrays else np.zeros(0)


def check_gradients(
    spec: ModelSpec,
    g: Blocks,
    l: Blocks,
    batch: Batch,
    eps: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Relative error per coordinate is |a - fd| / max(1e-8, |a|, |fd|); the
    report carries the worst coordinate for each parameter part.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if batch.size == 0:
        raise DataError("gradient check needs a nonempty batch")

    base = spec.loss(g, l, batch)
    if not math.isfinite(base):
        raise NumericalError("loss is non-finite at the checkpoint")

    fd_g = _central_differences(lambda gp: spec.loss(gp, l, batch), g, eps)
    fd_l = _central_differences(lambda lp: spec.loss(g, lp, batch), l, eps)
    grad_g, grad_l = dense_grads(spec, g, l, batch)
    return GradCheckReport(
        max_rel_err_global=_max_rel_err(_flat(grad_g), fd_g),
        max_rel_err_local=_max_rel_err(_flat(grad_l), fd_l),
    )
