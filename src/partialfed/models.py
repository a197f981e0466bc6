"""The two shipped model specifications.

* Matrix factorization for explicit ratings: a global item-embedding matrix
  and one local user-embedding vector per client.
* A log-linear next-word model: global core-vocabulary embeddings and output
  layer, local hashed out-of-vocabulary embedding buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Batch,
    Metric,
    ModelSpec,
    ParamBlock,
    RowDelta,
    delta_to_dense,
    fnv1a64,
    round_half_away,
    sum_in_order,
)
from .errors import ConfigError, DataError

__all__ = [
    "ModelConfig",
    "matfac_spec",
    "TokenCodec",
    "oov_nwp_spec",
    "PAD_ID",
    "BOS_ID",
    "EOS_ID",
    "OOV_ID",
    "NUM_SPECIAL",
]


PAD_ID, BOS_ID, EOS_ID, OOV_ID = 0, 1, 2, 3
NUM_SPECIAL = 4
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<oov>")


@dataclass(frozen=True)
class ModelConfig:
    """Model hyperparameters; the rating model reads ``embed_dim`` and
    ``init_stddev``, the next-word model reads the remaining fields too."""

    embed_dim: int = 50
    init_stddev: float = 0.1
    vocab_size: int = 1000
    num_oov_buckets: int = 500
    context_window: int = 3
    max_sentence_len: int = 20

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ConfigError("model.embed_dim must be positive")
        if not 0 < self.init_stddev < math.inf:
            raise ConfigError("model.init_stddev must be finite and positive")
        if self.vocab_size < 1:
            raise ConfigError("model.vocab_size must be positive")
        if self.num_oov_buckets < 0:
            raise ConfigError("model.num_oov_buckets must be nonnegative")
        if self.context_window < 1:
            raise ConfigError("model.context_window must be positive")
        if self.max_sentence_len < 3:
            raise ConfigError("model.max_sentence_len must fit bos + token + eos (3)")

    @property
    def num_classes(self) -> int:
        """Next-word classes, which are also the rows of the global token
        embedding table: the special tokens, then the core vocabulary."""
        return NUM_SPECIAL + self.vocab_size


def _drawn_table(
    name: str, rngs: Sequence[np.random.Generator], shape: tuple[int, ...], stddev: float
) -> ParamBlock:
    """A local block stacked along a leading client axis, row ``c`` being
    ``rngs[c].normal(0, stddev, shape)``; validated once, as one block."""
    table = np.empty((len(rngs),) + shape)
    for row, rng in zip(table, rngs):
        row[...] = rng.normal(0.0, stddev, shape)
    return ParamBlock(name, table, table.shape)


# ---------------------------------------------------------------------------
# Matrix factorization
# ---------------------------------------------------------------------------


def _mf_items(batch: Batch, num_items: int) -> np.ndarray:
    items = np.asarray(batch.features, dtype=np.int64).ravel()
    if items.size and (items.min() < 0 or items.max() >= num_items):
        raise DataError(f"item id outside [0, {num_items})")
    return items


def _positive(total):
    """``total``, a batch's weight or one per owner, if no entry is <= 0."""
    if np.any(np.asarray(total) <= 0):
        raise DataError("batch has zero total weight")
    return total


def _dense_views(sparse_grads):
    """The kernel's ``grad_global`` and ``grad_local`` views for the
    gradient audit: one flat array per block, over a flat batch."""

    def grad_global(g, l, batch: Batch) -> list[np.ndarray]:
        return delta_to_dense(sparse_grads(g, l, batch, batch.total_weight, True, False)[0], g)

    def grad_local(g, l, batch: Batch) -> list[np.ndarray]:
        return delta_to_dense(sparse_grads(g, l, batch, batch.total_weight, False, True)[1], l)

    return grad_global, grad_local


def matfac_spec(cfg: ModelConfig, num_items: int) -> ModelSpec:
    """Rating prediction is dot(user_embedding, item_row); loss is mean MSE."""

    if num_items < 1:
        raise ConfigError("num_items must be positive")
    I, K = num_items, cfg.embed_dim

    def init_global(rng: np.random.Generator) -> list[ParamBlock]:
        return [ParamBlock.of("item_embeddings", rng.normal(0.0, cfg.init_stddev, (I, K)))]

    def init_local(*rngs: np.random.Generator) -> list[ParamBlock]:
        return [_drawn_table("user_embedding", rngs, (K,), cfg.init_stddev)]

    def loss(g, l, batch: Batch) -> float:
        preds = g[0].array[_mf_items(batch, I)] @ l[0].values
        err = preds - batch.targets
        return float(np.sum(batch.weights * err * err) / _positive(batch.total_weight))

    def sparse_grads(g, l, batch: Batch, norm, need_global: bool, need_local: bool):
        # Leading owner axes of the batch index the rows of a stacked local
        # block; features address rows of g[0], which may be a compact copy.
        q, p = g[0].array, l[0].array
        items = _mf_items(batch, len(q)).reshape(batch.weights.shape)
        _positive(norm)
        qb = q[items]
        preds = np.einsum("...bk,...k->...b", qb, p)
        coef = 2.0 * batch.weights * (preds - batch.targets) / norm
        glob = None
        if need_global:  # with the rows it read, for a step over unique rows
            outer = np.einsum("...b,...k->...bk", coef, p)
            glob = [RowDelta(items.ravel(), outer.reshape(-1, K), base=qb.reshape(-1, K))]
        local = [np.einsum("...b,...bk->...k", coef, qb).ravel()] if need_local else None
        return glob, local

    grad_global, grad_local = _dense_views(sparse_grads)

    def metrics(g, l, batch: Batch):
        # Owner axes as in sparse_grads: arrays with the batch's owner axes.
        # Zero-weight padding is not scored (see ModelSpec).
        q, p = g[0].array, l[0].array
        items = _mf_items(batch, len(q)).reshape(batch.weights.shape)
        t = batch.targets
        real = batch.weights > 0
        if np.any(real & ((t < 1) | (t > 5) | (t != np.round(t)))):
            raise DataError("rating targets must be integers in 1..5")
        preds = np.einsum("...bk,...k->...b", q[items], p)
        err = preds - t
        # A one-owner stack of locals scores a flat batch as a row of one.
        sq = np.where(real, batch.weights * err * err, 0.0)
        total, sq = sum_in_order(np.broadcast_arrays(batch.weights, sq))
        mse = sq / _positive(total)
        hits = (real & (round_half_away(preds) == t)).sum(axis=-1)
        count = real.sum(axis=-1)  # >= 1: the real examples carry the weight
        return {"mse": Metric(mse, total), "accuracy": Metric(hits / count, count.astype(float))}

    return ModelSpec(
        name="matfac",
        init_global=init_global,
        init_local=init_local,
        loss=loss,
        grad_global=grad_global,
        grad_local=grad_local,
        metrics=metrics,
        sparse_grads=sparse_grads,
    )


# ---------------------------------------------------------------------------
# Log-linear next-word model with hashed local OOV embeddings
# ---------------------------------------------------------------------------


class TokenCodec:
    """Maps token strings onto embedding-row / class ids.

    Context slots use a signed encoding: ``id >= 0`` addresses the global
    embedding table (specials first, then core vocabulary); ``id < 0``
    addresses local out-of-vocabulary bucket ``-id - 1``, chosen as
    FNV-1a-64(token) mod num_oov_buckets.  With zero buckets an
    out-of-vocabulary token falls back to the single global oov row.
    Targets are always class ids, with out-of-vocabulary words mapped to
    the oov class.  The special-token strings map to their own ids, ahead
    of any vocabulary entry spelled the same.
    """

    def __init__(self, cfg: ModelConfig, vocab: Sequence[str]):
        if len(vocab) > cfg.vocab_size:
            raise ConfigError(f"vocabulary of {len(vocab)} exceeds vocab_size {cfg.vocab_size}")
        self.cfg = cfg
        self.vocab = list(vocab)
        self._ids = {w: NUM_SPECIAL + i for i, w in enumerate(self.vocab)}
        self._ids.update(zip(SPECIAL_TOKENS, range(NUM_SPECIAL)))

    def context_id(self, token: str) -> int:
        gid = self._ids.get(token)
        if gid is not None:
            return gid
        if self.cfg.num_oov_buckets == 0:
            return OOV_ID
        return -(fnv1a64(token.encode("utf-8")) % self.cfg.num_oov_buckets) - 1

    def target_id(self, token: str) -> int:
        return self._ids.get(token, OOV_ID)


def _times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` over the leading owner axes of ``x``.  Under a shared 2-D
    ``w`` a stack of one-row owners is one matrix, so it makes one matrix
    product where the batched form makes a vector product per owner.
    Owners of two or more rows keep the batched product, a matrix product
    each: one product over all of them is no faster, and BLAS may round it
    differently."""
    if w.ndim == 2 and x.shape[-2] == 1:
        return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[-1:])
    return x @ w


def _nwp_forward(cfg: ModelConfig, g, l, batch: Batch):
    """Contexts with leading owner axes (see :class:`ModelSpec`), which of
    their slots address ``g[0]``, the local rows the other slots address,
    the mean slot embedding and the logits.  One-row owners under a shared
    output layer take their logits from one matrix product (:func:`_times`):
    pooled centralized training, where every example is its own owner."""
    ctx = np.asarray(batch.features, dtype=np.int64)
    if ctx.ndim < 2 or ctx.shape[-1] != cfg.context_window:
        raise DataError(f"context must be (..., batch, {cfg.context_window}) token ids")
    E, emb = cfg.embed_dim, g[0].array
    pos = ctx >= 0
    rows = ctx[pos]
    if rows.size and rows.max() >= len(emb):
        raise DataError(f"context id outside [0, {len(emb)})")
    h_slots = np.empty(ctx.shape + (E,))
    h_slots[pos] = emb[rows]
    neg = ~pos
    local_rows = np.zeros(0, np.int64)
    if neg.any():
        if not l:
            raise DataError("out-of-vocabulary bucket id with no local embeddings")
        per_owner = l[0].shape[-2]
        bucket = -ctx[neg] - 1
        if bucket.max() >= per_owner:
            raise DataError(f"out-of-vocabulary bucket outside [0, {per_owner})")
        owner = np.arange(math.prod(ctx.shape[:-2])).reshape(ctx.shape[:-2] + (1, 1))
        local_rows = np.broadcast_to(owner, ctx.shape)[neg] * per_owner + bucket
        h_slots[neg] = l[0].values.reshape(-1, E)[local_rows]
    h = h_slots.mean(axis=-2)
    logits = _times(h, g[1].array)
    logits += g[2].array[..., None, :]
    return ctx, pos, local_rows, h, logits


# The consumers of the logits turn them into their result in place: a
# cohort's logits are its largest array.


def _log_likelihood(logits: np.ndarray, targets: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Each example's log-probability of its target, given each row's
    maximum ``top`` (with a trailing axis of 1); overwrites ``logits``."""
    logits -= top
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return picked - np.log(np.exp(logits, out=logits).sum(axis=-1))


def _softmax_grad(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray, norm):
    """d(weighted cross-entropy sum / norm)/d(logits), owner axes leading;
    overwrites ``logits``.  With ``s = weights / norm`` each row is
    ``softmax * s`` less ``s`` at the target: the divide by the row sum and
    the scale by ``s`` are one multiply by ``s / sum``, a single pass over
    the logits where divide-then-scale takes two (the same to rounding)."""
    scale = weights / _positive(norm)
    logits -= logits.max(axis=-1, keepdims=True)
    dz = np.exp(logits, out=logits)
    dz *= (scale / dz.sum(axis=-1))[..., None]
    dz.reshape(-1, dz.shape[-1])[np.arange(targets.size), targets.ravel()] -= scale.ravel()
    return dz


def oov_nwp_spec(cfg: ModelConfig) -> ModelSpec:
    """Mean of the last ``context_window`` token embeddings, affine map to
    logits over core vocabulary plus special tokens, cross-entropy loss.
    Core embeddings and the output layer are global; bucket rows are local.
    """

    E, C = cfg.embed_dim, cfg.num_classes

    def init_global(rng: np.random.Generator) -> list[ParamBlock]:
        return [
            ParamBlock.of("token_embeddings", rng.normal(0.0, cfg.init_stddev, (C, E))),
            ParamBlock.of("output_weights", rng.normal(0.0, cfg.init_stddev, (E, C))),
            ParamBlock.of("output_bias", np.zeros(C)),
        ]

    def init_local(*rngs: np.random.Generator) -> list[ParamBlock]:
        if cfg.num_oov_buckets == 0:
            return []
        return [
            _drawn_table("oov_embeddings", rngs, (cfg.num_oov_buckets, E), cfg.init_stddev)
        ]

    def _targets(batch: Batch) -> np.ndarray:
        t = np.asarray(batch.targets, dtype=np.int64)
        if t.size and (t.min() < 0 or t.max() >= C):
            raise DataError(f"target class outside [0, {C})")
        return t

    def loss(g, l, batch: Batch) -> float:
        logits = _nwp_forward(cfg, g, l, batch)[-1]
        ll = _log_likelihood(logits, _targets(batch), logits.max(axis=-1, keepdims=True))
        return float(-np.sum(batch.weights * ll) / _positive(batch.total_weight))

    def sparse_grads(g, l, batch: Batch, norm, need_global: bool, need_local: bool):
        # One forward and one backward pass; embedding and bucket grads are
        # RowDeltas over the slots' rows, the output layer's dense with the
        # leading axes of g[1] and g[2] (see ModelSpec).
        ctx, pos, local_rows, h, logits = _nwp_forward(cfg, g, l, batch)
        dz = _softmax_grad(logits, _targets(batch), batch.weights, norm)
        gh = _times(dz, np.swapaxes(g[1].array, -1, -2))
        slot_contrib = np.broadcast_to(
            (gh / cfg.context_window)[..., None, :], ctx.shape + (E,)
        )
        glob = local = None
        if need_global:
            if g[1].array.ndim == 2:  # one shared output layer: sum over owners too
                h, dz = h.reshape(-1, E), dz.reshape(-1, C)
            glob = [
                RowDelta(ctx[pos], slot_contrib[pos]),
                (np.swapaxes(h, -1, -2) @ dz).ravel(),
                dz.sum(axis=-2).ravel(),
            ]
        if need_local:
            local = [RowDelta(local_rows, slot_contrib[~pos]) for _ in l]  # [] without buckets
        return glob, local

    grad_global, grad_local = _dense_views(sparse_grads)

    def metrics(g, l, batch: Batch):
        """Owner axes as in sparse_grads: arrays with the batch's owner
        axes.  Zero-weight padding is not scored (see ModelSpec).  The
        prediction is each row's first maximum, and the value there is the
        row maximum that the log-likelihood shifts by, so the logits are
        scanned for it once."""
        logits, y = _nwp_forward(cfg, g, l, batch)[-1], _targets(batch)
        best = logits.argmax(axis=-1)[..., None]
        right = best[..., 0] == y
        ll = _log_likelihood(logits, y, np.take_along_axis(logits, best, axis=-1))
        real = batch.weights > 0
        total, ll_sum = sum_in_order([batch.weights, np.where(real, batch.weights * ll, 0.0)])
        ce = -ll_sum / _positive(total)
        scored = real & (y >= NUM_SPECIAL)
        count = scored.sum(axis=-1)
        hits = (scored & right).sum(axis=-1)
        acc = hits / np.maximum(count, 1)  # 0 when nothing scores
        return {"cross_entropy": Metric(ce, total), "accuracy": Metric(acc, count.astype(float))}

    return ModelSpec(
        name="oov_nwp",
        init_global=init_global,
        init_local=init_local,
        loss=loss,
        grad_global=grad_global,
        grad_local=grad_local,
        metrics=metrics,
        sparse_grads=sparse_grads,
    )
