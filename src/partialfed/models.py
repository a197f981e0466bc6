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
)
from .errors import ConfigError, DataError, MetricUndefinedError

__all__ = [
    "MatFacConfig",
    "matfac_spec",
    "rmse",
    "rating_accuracy",
    "NwpConfig",
    "TokenCodec",
    "oov_nwp_spec",
    "PAD_ID",
    "BOS_ID",
    "EOS_ID",
    "OOV_ID",
    "NUM_SPECIAL",
]


# ---------------------------------------------------------------------------
# Shared metric helpers
# ---------------------------------------------------------------------------


def rmse(predictions, targets) -> float:
    """Root-mean-square error on raw (unclamped, unrounded) predictions."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.size == 0 or p.size != t.size:
        raise MetricUndefinedError("rmse needs equally sized, nonempty inputs")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def rating_accuracy(
    predictions,
    targets,
    *,
    clamp: bool = False,
    rating_min: float = 1.0,
    rating_max: float = 5.0,
) -> float:
    """Fraction of predictions that round (half away from zero) to the target.

    Predictions are rounded raw by default, so an untrained model whose
    predictions sit near zero scores ~0 rather than picking up credit for
    the lowest rating; pass ``clamp=True`` to clip into the rating range
    first.
    """
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.size == 0 or p.size != t.size:
        raise MetricUndefinedError("accuracy needs equally sized, nonempty inputs")
    if np.any((t < 1) | (t > 5) | (t != np.round(t))):
        raise DataError("rating targets must be integers in 1..5")
    if clamp:
        p = np.clip(p, rating_min, rating_max)
    return float(np.mean(round_half_away(p) == t))


# ---------------------------------------------------------------------------
# Matrix factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatFacConfig:
    num_items: int
    embed_dim: int = 50
    init_stddev: float = 0.1

    def __post_init__(self):
        if self.num_items < 1:
            raise ConfigError("num_items must be positive")
        if self.embed_dim < 1:
            raise ConfigError("embed_dim must be positive")


def _mf_items(batch: Batch, num_items: int) -> np.ndarray:
    items = np.asarray(batch.features, dtype=np.int64).ravel()
    if items.size and (items.min() < 0 or items.max() >= num_items):
        raise DataError(f"item id outside [0, {num_items})")
    return items


def _batch_weight(batch: Batch) -> float:
    total = batch.total_weight
    if total <= 0:
        raise DataError("batch has zero total weight")
    return total


def _dense_views(sparse_grads):
    """The kernel's ``grad_global`` and ``grad_local`` views for the
    gradient audit: one flat array per block, over a flat batch."""

    def grad_global(g, l, batch: Batch) -> list[np.ndarray]:
        return delta_to_dense(sparse_grads(g, l, batch, _batch_weight(batch), True, False)[0], g)

    def grad_local(g, l, batch: Batch) -> list[np.ndarray]:
        return delta_to_dense(sparse_grads(g, l, batch, _batch_weight(batch), False, True)[1], l)

    return grad_global, grad_local


def matfac_spec(cfg: MatFacConfig) -> ModelSpec:
    """Rating prediction is dot(user_embedding, item_row); loss is mean MSE."""

    I, K = cfg.num_items, cfg.embed_dim

    def init_global(rng: np.random.Generator) -> list[ParamBlock]:
        return [ParamBlock.of("item_embeddings", rng.normal(0.0, cfg.init_stddev, (I, K)))]

    def init_local(rng: np.random.Generator) -> list[ParamBlock]:
        return [ParamBlock.of("user_embedding", rng.normal(0.0, cfg.init_stddev, (K,)))]

    def loss(g, l, batch: Batch) -> float:
        preds = g[0].array[_mf_items(batch, I)] @ l[0].values
        err = preds - batch.targets
        return float(np.sum(batch.weights * err * err) / _batch_weight(batch))

    def sparse_grads(g, l, batch: Batch, norm, need_global: bool, need_local: bool):
        # Leading owner axes of the batch index the rows of a stacked local
        # block; features address rows of g[0], which may be a compact copy.
        q, p = g[0].array, l[0].array
        items = _mf_items(batch, len(q)).reshape(batch.weights.shape)
        if np.any(np.asarray(norm) <= 0):
            raise DataError("batch has zero total weight")
        qb = q[items]
        preds = np.einsum("...bk,...k->...b", qb, p)
        coef = 2.0 * batch.weights * (preds - batch.targets) / norm
        glob = (
            [RowDelta(items.ravel(), (coef[..., None] * p[..., None, :]).reshape(-1, K))]
            if need_global
            else None
        )
        local = [np.einsum("...b,...bk->...k", coef, qb).ravel()] if need_local else None
        return glob, local

    grad_global, grad_local = _dense_views(sparse_grads)

    def metrics(g, l, batch: Batch):
        # Owner axes as in sparse_grads: one dict per owner (row of the
        # batch), or one dict for a flat batch.  Masked padding weighs 0
        # and is not scored.
        q, p = g[0].array, l[0].array
        items = _mf_items(batch, len(q)).reshape(batch.weights.shape)
        t = batch.targets
        real = np.ones(items.shape, bool) if batch.mask is None else batch.mask
        total = batch.weights.sum(axis=-1)
        if np.any(total <= 0):
            raise DataError("batch has zero total weight")
        if np.any(real & ((t < 1) | (t > 5) | (t != np.round(t)))):
            raise DataError("rating targets must be integers in 1..5")
        preds = np.einsum("...bk,...k->...b", q[items], p)
        err = preds - t
        mse = np.where(real, batch.weights * err * err, 0.0).sum(axis=-1) / total
        hits = (real & (round_half_away(preds) == t)).sum(axis=-1)
        count = real.sum(axis=-1)  # >= 1: the real examples carry the weight
        out = [
            {"mse": Metric(m, w), "accuracy": Metric(h / c, float(c))}
            for m, w, h, c in zip(
                *(np.atleast_1d(a).tolist() for a in (mse, total, hits, count))
            )
        ]
        return out if items.ndim > 1 else out[0]

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

PAD_ID, BOS_ID, EOS_ID, OOV_ID = 0, 1, 2, 3
NUM_SPECIAL = 4
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<oov>")


@dataclass(frozen=True)
class NwpConfig:
    vocab_size: int
    num_oov_buckets: int = 500
    embed_dim: int = 16
    context_window: int = 3
    max_sentence_len: int = 20
    init_stddev: float = 0.1

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be positive")
        if self.num_oov_buckets < 0:
            raise ConfigError("num_oov_buckets must be nonnegative")
        if self.embed_dim < 1 or self.context_window < 1:
            raise ConfigError("embed_dim and context_window must be positive")
        if self.max_sentence_len < 3:
            raise ConfigError("max_sentence_len must fit bos + token + eos")

    @property
    def num_classes(self) -> int:
        return NUM_SPECIAL + self.vocab_size

    @property
    def num_global_rows(self) -> int:
        return NUM_SPECIAL + self.vocab_size


class TokenCodec:
    """Maps token strings onto embedding-row / class ids.

    Context slots use a signed encoding: ``id >= 0`` addresses the global
    embedding table (specials first, then core vocabulary); ``id < 0``
    addresses local out-of-vocabulary bucket ``-id - 1``, chosen as
    FNV-1a-64(token) mod num_oov_buckets.  With zero buckets an
    out-of-vocabulary token falls back to the single global oov row.
    Targets are always class ids, with out-of-vocabulary words mapped to
    the oov class.
    """

    def __init__(self, cfg: NwpConfig, vocab: Sequence[str]):
        if len(vocab) > cfg.vocab_size:
            raise ConfigError(f"vocabulary of {len(vocab)} exceeds vocab_size {cfg.vocab_size}")
        self.cfg = cfg
        self.vocab = list(vocab)
        self._ids = {w: NUM_SPECIAL + i for i, w in enumerate(self.vocab)}

    def context_id(self, token: str) -> int:
        gid = self._ids.get(token)
        if gid is not None:
            return gid
        if self.cfg.num_oov_buckets == 0:
            return OOV_ID
        return -(fnv1a64(token.encode("utf-8")) % self.cfg.num_oov_buckets) - 1

    def target_id(self, token: str) -> int:
        return self._ids.get(token, OOV_ID)

    def is_oov(self, token: str) -> bool:
        return token not in self._ids


def _nwp_forward(cfg: NwpConfig, g, l, batch: Batch):
    """Contexts with leading owner axes (see :class:`ModelSpec`), which of
    their slots address ``g[0]``, the local rows the other slots address,
    the mean slot embedding and the logits."""
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
    logits = h @ g[1].array
    logits += g[2].array[..., None, :]
    return ctx, pos, local_rows, h, logits


# The consumers of the logits turn them into their result in place: a
# cohort's logits are its largest array.


def _log_likelihood(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each example's log-probability of its target; overwrites ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return picked - np.log(np.exp(logits, out=logits).sum(axis=-1))


def _softmax_grad(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray, norm):
    """d(weighted cross-entropy sum / norm)/d(logits), owner axes leading;
    overwrites ``logits``."""
    if np.any(np.asarray(norm) <= 0):
        raise DataError("batch has zero total weight")
    logits -= logits.max(axis=-1, keepdims=True)
    dz = np.exp(logits, out=logits)
    dz /= dz.sum(axis=-1, keepdims=True)
    dz.reshape(-1, dz.shape[-1])[np.arange(targets.size), targets.ravel()] -= 1.0
    dz *= (weights / norm)[..., None]
    return dz


def oov_nwp_spec(cfg: NwpConfig) -> ModelSpec:
    """Mean of the last ``context_window`` token embeddings, affine map to
    logits over core vocabulary plus special tokens, cross-entropy loss.
    Core embeddings and the output layer are global; bucket rows are local.
    """

    E, C, R = cfg.embed_dim, cfg.num_classes, cfg.num_global_rows

    def init_global(rng: np.random.Generator) -> list[ParamBlock]:
        return [
            ParamBlock.of("token_embeddings", rng.normal(0.0, cfg.init_stddev, (R, E))),
            ParamBlock.of("output_weights", rng.normal(0.0, cfg.init_stddev, (E, C))),
            ParamBlock.of("output_bias", np.zeros(C)),
        ]

    def init_local(rng: np.random.Generator) -> list[ParamBlock]:
        if cfg.num_oov_buckets == 0:
            return []
        return [
            ParamBlock.of(
                "oov_embeddings",
                rng.normal(0.0, cfg.init_stddev, (cfg.num_oov_buckets, E)),
            )
        ]

    def _targets(batch: Batch) -> np.ndarray:
        t = np.asarray(batch.targets, dtype=np.int64)
        if t.size and (t.min() < 0 or t.max() >= C):
            raise DataError(f"target class outside [0, {C})")
        return t

    def loss(g, l, batch: Batch) -> float:
        ll = _log_likelihood(_nwp_forward(cfg, g, l, batch)[-1], _targets(batch))
        return float(-np.sum(batch.weights * ll) / _batch_weight(batch))

    def sparse_grads(g, l, batch: Batch, norm, need_global: bool, need_local: bool):
        # One forward and one backward pass; embedding and bucket grads are
        # RowDeltas over the slots' rows, the output layer's dense with the
        # leading axes of g[1] and g[2] (see ModelSpec).
        ctx, pos, local_rows, h, logits = _nwp_forward(cfg, g, l, batch)
        dz = _softmax_grad(logits, _targets(batch), batch.weights, norm)
        gh = dz @ np.swapaxes(g[1].array, -1, -2)
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
        # Owner axes as in sparse_grads: one dict per owner (row of the
        # batch), or one dict for a flat batch.  Masked padding weighs 0
        # and is not scored.
        logits, y = _nwp_forward(cfg, g, l, batch)[-1], _targets(batch)
        right = logits.argmax(axis=-1) == y
        ll = _log_likelihood(logits, y)
        real = np.ones(y.shape, bool) if batch.mask is None else batch.mask
        total = batch.weights.sum(axis=-1)
        if np.any(total <= 0):
            raise DataError("batch has zero total weight")
        ce = -np.where(real, batch.weights * ll, 0.0).sum(axis=-1) / total
        scored = real & (y >= NUM_SPECIAL)
        count = scored.sum(axis=-1)
        hits = (scored & right).sum(axis=-1)
        acc = hits / np.maximum(count, 1)  # 0 when nothing scores
        out = [
            {"cross_entropy": Metric(c, w), "accuracy": Metric(a, float(n))}
            for c, w, a, n in zip(*(np.atleast_1d(x).tolist() for x in (ce, total, acc, count)))
        ]
        return out if y.ndim > 1 else out[0]

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
