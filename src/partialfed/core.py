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
    "Example",
    "Batch",
    "ClientDataset",
    "Metric",
    "merge_metrics",
    "finalize_metrics",
    "RowDelta",
    "delta_to_dense",
    "ModelSpec",
    "axpy_blocks",
    "copy_blocks",
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
# The array seeding costs about 300 us whatever the lane count, against
# about 20 us per generator() call: fewer lanes than this run the loop.
_MIN_BATCH_LANES = 16


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

    ``generators(*parts)``, one part an int array, returns one generator per
    array entry, each reproducing the bits of ``SeedSequence(key)`` for its
    entry; the whole batch's seeding runs as array arithmetic.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64

    def generator(self, *parts: int | str) -> np.random.Generator:
        key = [self.seed] + [_key_word(p) for p in parts]
        return np.random.default_rng(np.random.SeedSequence(key))

    def generators(self, *parts) -> list[np.random.Generator]:
        """``[self.generator(..., k, ...) for k in array]``, the array being
        the one part that is an integer array; bit for bit the same draws.
        A generator seeded as an array lane cannot ``spawn``."""
        at = [i for i, p in enumerate(parts) if isinstance(p, np.ndarray)]
        if len(at) != 1 or parts[at[0]].ndim != 1 or parts[at[0]].dtype.kind not in "iu":
            raise ValueError("generators() takes exactly one 1-D integer array part")
        head, array, tail = parts[: at[0]], parts[at[0]], parts[at[0] + 1 :]
        if len(array) < _MIN_BATCH_LANES:
            return [self.generator(*head, k, *tail) for k in array.tolist()]
        lanes = array.astype(np.uint64)  # negative ints wrap modulo 2**64
        prefix = [w for p in (self.seed, *head) for w in _uint32_words(_key_word(p))]
        suffix = [w for p in tail for w in _uint32_words(_key_word(p))]
        out: list[np.random.Generator | None] = [None] * len(lanes)
        # SeedSequence reads an entry below 2**32 as one word, others as two.
        wide = lanes > _M32
        for sel, middle in ((~wide, (lanes & _M32,)), (wide, (lanes & _M32, lanes >> _SHIFT32))):
            idx = np.flatnonzero(sel)
            if not len(idx):
                continue
            words = np.empty((len(idx), len(prefix) + len(middle) + len(suffix)), np.uint64)
            words[:, : len(prefix)] = prefix
            for j, column in enumerate(middle):
                words[:, len(prefix) + j] = column[idx]
            words[:, len(prefix) + len(middle) :] = suffix
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
    1-D buffer ``flat``, repeated rows one after another.  It indexes single
    elements, not rows: numpy's ``ufunc.at`` fast path takes only 1-D indices
    and values, and runs 2-3x faster than row indexing, to the same values."""
    if len(rows):
        values = np.asarray(values).reshape(len(rows), -1)
        width = values.shape[1]
        ufunc.at(flat, (rows[:, None] * width + np.arange(width)).ravel(), values.ravel())


def _sgd_step(blocks: Sequence[ParamBlock], rate: float, grads: Sequence) -> None:
    """blocks -= rate * grads, in place.  A :class:`RowDelta` grad steps only
    its rows, repeated rows one after another; other grads are dense."""
    if len(blocks) != len(grads):
        raise ShapeMismatchError(f"{len(blocks)} blocks vs {len(grads)} grads")
    for b, grad in zip(blocks, grads):
        if isinstance(grad, RowDelta):
            _rows_at(np.subtract, b.values, grad.rows, rate * grad.values)
        else:
            gv = _values(grad)
            if gv.size != b.values.size:
                raise ShapeMismatchError(
                    f"block {b.name!r}: {b.values.size} values vs grad {gv.size}"
                )
            b.values -= rate * gv


def _require_finite(arrays: Iterable[np.ndarray], what: str) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericalError(f"non-finite values in {what}")


def copy_blocks(blocks: Sequence[ParamBlock]) -> list[ParamBlock]:
    return [b.copy() for b in blocks]


def blocks_size(blocks: Sequence[ParamBlock]) -> int:
    return sum(b.values.size for b in blocks)


@dataclass
class Example:
    """A single training example; ``features`` is a task-specific encoding."""

    features: object
    target: float
    weight: float = 1.0
    timestamp: int = 0

    def __post_init__(self):
        if not 0 <= self.weight < math.inf:
            raise DataError(f"example weight {self.weight} is not finite and nonnegative")


@dataclass
class Batch:
    """Column-packed examples handed to ModelSpec procedures.  ``mask``
    marks the real examples of a padded batch; padding weighs 0 and is not
    scored.  None: every example is real."""

    features: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    mask: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.targets)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass
class ClientDataset:
    """One client's examples plus its support/query partition.

    Stored columnar for speed; :meth:`example` materialises the row view.
    ``support_idx``/``query_idx`` are populated by the split step.
    """

    client_id: int
    features: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    timestamps: np.ndarray
    support_idx: np.ndarray | None = None
    query_idx: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.targets)
        if len(self.features) != n or len(self.weights) != n or len(self.timestamps) != n:
            raise ShapeMismatchError(f"client {self.client_id}: ragged columns")
        w = self.weights
        if n and not (w.min() >= 0 and w.max() < np.inf):  # NaN fails both
            raise DataError(
                f"client {self.client_id}: example weights must be finite and nonnegative"
            )

    @classmethod
    def from_examples(cls, client_id: int, examples: Sequence[Example]) -> "ClientDataset":
        return cls(
            client_id=client_id,
            features=np.asarray([e.features for e in examples]),
            targets=np.asarray([e.target for e in examples], dtype=np.float64),
            weights=np.asarray([e.weight for e in examples], dtype=np.float64),
            timestamps=np.asarray([e.timestamp for e in examples], dtype=np.int64),
        )

    @property
    def n(self) -> int:
        return len(self.targets)

    def example(self, i: int) -> Example:
        return Example(
            features=self.features[i],
            target=self.targets[i],
            weight=float(self.weights[i]),
            timestamp=int(self.timestamps[i]),
        )

    def batch(self, idx: np.ndarray | None = None) -> Batch:
        if idx is None:
            return Batch(self.features, self.targets, self.weights)
        return Batch(self.features[idx], self.targets[idx], self.weights[idx])

    def subset(self, idx: np.ndarray, client_id: int | None = None) -> "ClientDataset":
        return ClientDataset(
            client_id=self.client_id if client_id is None else client_id,
            features=self.features[idx],
            targets=self.targets[idx],
            weights=self.weights[idx],
            timestamps=self.timestamps[idx],
        )

    def support_batch(self) -> Batch:
        return self.batch(self.support_idx)

    def query_batch(self) -> Batch:
        return self.batch(self.query_idx)


@dataclass
class Metric:
    """A mergeable metric: weighted mean of ``value`` under ``weight``."""

    value: float
    weight: float


def merge_metrics(parts: Iterable[Mapping[str, Metric]]) -> dict[str, Metric]:
    """Weighted-mean merge, key by key; empty input yields an empty map."""
    acc: dict[str, list[float]] = {}
    for part in parts:
        for k, m in part.items():
            s = acc.setdefault(k, [0.0, 0.0])
            s[0] += m.value * m.weight
            s[1] += m.weight
    return {
        k: Metric(v / w if w > 0 else float("nan"), w) for k, (v, w) in acc.items()
    }


def finalize_metrics(stats: Mapping[str, Metric]) -> dict[str, float]:
    """Plain floats, deriving rmse from a mergeable mse when present."""
    out = {k: m.value for k, m in stats.items()}
    if "mse" in out:
        out["rmse"] = math.sqrt(out["mse"])
    return out


@dataclass
class RowDelta:
    """Row-sparse values for one block: ``values[k]`` belongs to row
    ``rows[k]``; repeated rows add up.  Serves as a gradient and as a client
    delta."""

    rows: np.ndarray
    values: np.ndarray


Blocks = Sequence[ParamBlock]
GradFn = Callable[[Blocks, Blocks, Batch], list[np.ndarray]]


def delta_to_dense(delta: Sequence, template: Blocks) -> list[np.ndarray]:
    """Grads or deltas, row-sparse or dense, as flat arrays matching the
    blocks of ``template``; repeated rows add up."""
    out = []
    for entry, block in zip(delta, template):
        if isinstance(entry, RowDelta):
            dense = np.zeros(block.values.size)
            _rows_at(np.add, dense, entry.rows, entry.values)
            out.append(dense)
        else:
            out.append(np.asarray(entry, dtype=np.float64).ravel())
    return out


@dataclass(frozen=True)
class ModelSpec:
    """A task: parameter initialisers, loss, metrics and one gradient kernel.

    ``sparse_grads(g, l, batch, norm, need_global, need_local)`` is the one
    gradient kernel that every training step calls.  From one forward pass
    it returns ``(global_grads, local_grads)``, each None unless its
    ``need_*`` flag is set.  It differentiates the weighted loss sum divided
    by ``norm``: ``batch.total_weight`` gives ``loss``, a larger ``norm``
    makes the batch one part of a bigger minibatch.

    Kernel contract.  ``sparse_grads`` and ``metrics`` take batch columns
    with leading owner axes, ``(owners..., B, ...)``, matched by the same
    leading axes on the local blocks: owner ``o`` scores its examples with
    its own local rows, and a flat batch with flat locals is one owner.
    ``norm`` broadcasts against the weights as each owner's real batch
    weight, so zero-weight padding adds exactly nothing.

    * A non-negative integer feature addresses a row of ``g[0]``, which may
      be a compact copy of some rows.  The grad for ``g[0]`` is a
      :class:`RowDelta` over the addressed rows.
    * A negative feature ``-row - 1`` addresses a row of its owner's row
      table, a 2-D local block: row ``owner * rows_per_owner + row`` of the
      stacked block ``l[0].values.reshape(-1, width)``.  Its grad is a
      :class:`RowDelta` over those rows.  Any other local block gets a
      dense grad, one value per value of the block.
    * Every other global block is dense, and so is its grad.  In a cohort
      update it carries the owner axes, so each owner steps its own copy;
      passed without them it is shared, and its grad sums over the owners.

    ``metrics`` returns one dict per owner, or one dict for a flat batch,
    scoring only the entries ``batch.mask`` marks real, so each owner's
    dict is what a flat call on its real examples returns (to summation
    order).

    ``loss`` is a weighted mean over a flat batch.  ``grad_global`` and
    ``grad_local`` are the kernel's dense views (:func:`delta_to_dense`),
    one flat array per block, for the audit: they must agree with central
    differences of ``loss`` to 1e-4 relative (see :func:`check_gradients`).
    ``fast_centralized`` is read by nothing; it stays only so the
    benchmark's tracer can look it up by name.
    """

    name: str
    init_global: Callable[[np.random.Generator], list[ParamBlock]]
    init_local: Callable[[np.random.Generator], list[ParamBlock]]
    loss: Callable[[Blocks, Blocks, Batch], float]
    grad_global: GradFn
    grad_local: GradFn
    metrics: Callable[[Blocks, Blocks, Batch], dict[str, Metric] | list[dict[str, Metric]]]
    sparse_grads: Callable
    fast_centralized: Callable | None = None


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
    return GradCheckReport(
        max_rel_err_global=_max_rel_err(_flat(spec.grad_global(g, l, batch)), fd_g),
        max_rel_err_local=_max_rel_err(_flat(spec.grad_local(g, l, batch)), fd_l),
    )
