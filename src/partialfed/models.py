"""The two shipped model specifications.

* Matrix factorization for explicit ratings: a global item-embedding matrix
  and one local user-embedding vector per client.
* A log-linear next-word model: global core-vocabulary embeddings and output
  layer, local hashed out-of-vocabulary embedding buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Batch,
    Metric,
    ModelSpec,
    ParamBlock,
    RowDelta,
    _rows_at,
    _sgd_step,
    copy_blocks,
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


def matfac_spec(cfg: MatFacConfig) -> ModelSpec:
    """Rating prediction is dot(user_embedding, item_row); loss is mean MSE."""

    I, K = cfg.num_items, cfg.embed_dim

    def init_global(rng: np.random.Generator) -> list[ParamBlock]:
        return [ParamBlock.of("item_embeddings", rng.normal(0.0, cfg.init_stddev, (I, K)))]

    def init_local(rng: np.random.Generator) -> list[ParamBlock]:
        return [ParamBlock.of("user_embedding", rng.normal(0.0, cfg.init_stddev, (K,)))]

    def predict(g, l, batch: Batch) -> np.ndarray:
        items = _mf_items(batch, I)
        return g[0].array[items] @ l[0].values

    def loss(g, l, batch: Batch) -> float:
        preds = predict(g, l, batch)
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

    def grad_local(g, l, batch: Batch) -> list[np.ndarray]:
        return sparse_grads(g, l, batch, _batch_weight(batch), False, True)[1]

    def grad_global(g, l, batch: Batch) -> list[np.ndarray]:
        (delta,), _ = sparse_grads(g, l, batch, _batch_weight(batch), True, False)
        gq = np.zeros(I * K)
        _rows_at(np.add, gq, delta.rows, delta.values)
        return [gq]

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

    def fast_centralized(g, local_matrix, owner_rows, features, targets, weights,
                         epochs, batch_size, rate, rng):
        # Joint SGD over a mixed-owner example stream, each example its own
        # owner in one sparse_grads call per minibatch; both factors step
        # from their pre-step values, a repeated owner's rows one after
        # another.
        g = copy_blocks(g)
        p = np.array(local_matrix, dtype=np.float64)
        n = len(targets)
        for _ in range(int(epochs)):
            perm = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = perm[start : start + batch_size]
                u, w = owner_rows[idx], weights[idx]
                stacked = [ParamBlock("user_embedding", p[u], (len(u), K))]
                batch = Batch(features[idx], targets[idx][:, None], w[:, None])
                grads, (local,) = sparse_grads(g, stacked, batch, w.sum(), True, True)
                _sgd_step(g, rate, grads)
                _rows_at(np.subtract, p.reshape(-1), u, rate * local)
        return g, p

    return ModelSpec(
        name="matfac",
        init_global=init_global,
        init_local=init_local,
        loss=loss,
        predict=predict,
        grad_global=grad_global,
        grad_local=grad_local,
        metrics=metrics,
        sparse_grads=sparse_grads,
        fast_centralized=fast_centralized,
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
    ctx = np.asarray(batch.features, dtype=np.int64)
    if ctx.ndim != 2 or ctx.shape[1] != cfg.context_window:
        raise DataError(f"context must be (batch, {cfg.context_window}) token ids")
    emb, w_out, bias = g[0].array, g[1].array, g[2].array
    pos = ctx >= 0
    h_slots = np.empty(ctx.shape + (cfg.embed_dim,))
    h_slots[pos] = emb[ctx[pos]]
    neg = ~pos
    if neg.any():
        if not l:
            raise DataError("out-of-vocabulary bucket id with no local embeddings")
        h_slots[neg] = l[0].array[-ctx[neg] - 1]
    h = h_slots.mean(axis=1)
    logits = h @ w_out + bias
    return ctx, pos, h, logits


def _softmax_grad(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray, norm):
    """d(weighted cross-entropy sum / norm)/d(logits)."""
    if norm <= 0:
        raise DataError("batch has zero total weight")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    dz = expz / expz.sum(axis=1, keepdims=True)
    dz[np.arange(len(targets)), targets] -= 1.0
    dz *= (weights / norm)[:, None]
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

    def _cross_entropy(g, l, batch: Batch):
        _, _, _, logits = _nwp_forward(cfg, g, l, batch)
        y = _targets(batch)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        ll = shifted[np.arange(len(y)), y] - lse
        return float(-np.sum(batch.weights * ll) / _batch_weight(batch)), logits, y

    def loss(g, l, batch: Batch) -> float:
        return _cross_entropy(g, l, batch)[0]

    def sparse_grads(g, l, batch: Batch, norm, need_global: bool, need_local: bool):
        # One forward and one backward pass over a flat single-owner batch;
        # one dense array per block.
        ctx, pos, h, logits = _nwp_forward(cfg, g, l, batch)
        dz = _softmax_grad(logits, _targets(batch), batch.weights, norm)
        gh = dz @ g[1].array.T
        slot_contrib = np.broadcast_to(
            (gh / cfg.context_window)[:, None, :], ctx.shape + (E,)
        )
        glob = local = None
        if need_global:
            g_emb = np.zeros((R, E))
            np.add.at(g_emb, ctx[pos], slot_contrib[pos])
            glob = [g_emb.ravel(), (h.T @ dz).ravel(), dz.sum(axis=0)]
        if need_local:
            neg = ~pos
            local = [np.zeros((cfg.num_oov_buckets, E)) for _ in l]  # [] without buckets
            for g_oov in local:
                np.add.at(g_oov, -ctx[neg] - 1, slot_contrib[neg])
            local = [g_oov.ravel() for g_oov in local]
        return glob, local

    def grad_global(g, l, batch: Batch) -> list[np.ndarray]:
        return sparse_grads(g, l, batch, _batch_weight(batch), True, False)[0]

    def grad_local(g, l, batch: Batch) -> list[np.ndarray]:
        return sparse_grads(g, l, batch, _batch_weight(batch), False, True)[1]

    def predict(g, l, batch: Batch) -> np.ndarray:
        _, _, _, logits = _nwp_forward(cfg, g, l, batch)
        return logits.argmax(axis=1)

    def metrics(g, l, batch: Batch) -> dict[str, Metric]:
        ce, logits, y = _cross_entropy(g, l, batch)
        scored = y >= NUM_SPECIAL
        n_scored = int(scored.sum())
        if n_scored:
            acc = float(np.mean(logits[scored].argmax(axis=1) == y[scored]))
        else:
            acc = 0.0
        return {
            "cross_entropy": Metric(ce, batch.total_weight),
            "accuracy": Metric(acc, float(n_scored)),
        }

    return ModelSpec(
        name="oov_nwp",
        init_global=init_global,
        init_local=init_local,
        loss=loss,
        predict=predict,
        grad_global=grad_global,
        grad_local=grad_local,
        metrics=metrics,
        sparse_grads=sparse_grads,
    )
