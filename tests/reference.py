"""Per-item references for code that now runs in array ops.

The single-client reference: one client at a time, one flat minibatch
and one ``sparse_grads`` call per step, no padding and no owner axes.
``partialfed.client`` runs every client through its cohort code, a single
client being a cohort of one.  These are the per-client bodies that code
replaced, kept so that the cohort path is compared with something other
than itself.  Unlike ``oracles.py`` they call the model kernels.  A split
client is a :class:`SplitDataset`, its halves as index arrays into its own
columns, where ``partialfed`` splits a client into a ``client.Cohort``.

The next-word data reference: every sentence windowed slot by slot, every
token looked up through ``TokenCodec`` where it occurs, each client's
examples built on their own, and the slang corpus drawn one scalar
``integers`` call at a time.  ``partialfed.data`` codes each distinct token
once, windows every client's sentences in one call into pooled columns and
draws a client's corpus in one call; these are the bodies it replaced.

Reconstruction evaluation one repeat at a time: ``partialfed.evaluation``
runs every repeat's sample as one cohort, each reconstruction call
covering whole scoring calls, several repeats where they fit one owner
chunk; :func:`recon_eval_by_repeat` is the per-repeat body it replaced,
each repeat split, seeded, reconstructed and scored as its own cohorts.

Metrics one client at a time: ``ModelSpec.metrics`` returns arrays over
its owners, and ``partialfed`` merges them owner by owner in array ops;
:func:`merge_metrics` and :func:`finalize_with_macro` are the loops over
one dict of floats per client that they replaced, and :func:`per_owner`
cuts arrays into those dicts.

Rating populations one user and one client at a time: ``partialfed.data``
pools every client's columns and builds ratings, parsed MovieLens users and
seen-user splits in array ops over the pool; :func:`gen_synthetic_mf`,
:func:`parse_movielens` (each user's ratings sorted on their own) and
:func:`split_clients_by_time` (each client split on its own, as
``prepare_task`` once did) are the per-user bodies they replaced, and
:func:`subset` the per-client gather they used.

Client updates one client at a time: a cohort returns its clients' deltas
as one ``client.CohortUpdate`` per owner chunk, and ``server.aggregate``
adds them in cohort order; :class:`ClientResult` is the per-client result
the reference's :func:`client_update` returns, and :func:`aggregate` the
per-client sum, in ascending client id, that it replaced.

Stored local parameters as one block list per client: the server keeps them
as one table per block (``LocalTables``); :func:`tables_of` and
:func:`client_blocks` convert between the two, and :func:`client_init`
draws one client's blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from partialfed.client import (
    ClientHyper,
    SplitPolicy,
    _reconstructed,
    _split_and_seed,
    batch_schedule,
    cohort_metrics,
    owner_chunks,
)
from partialfed.core import (
    Batch,
    Blocks,
    ClientDataset,
    LocalTables,
    Metric,
    ModelSpec,
    ParamBlock,
    RngStreams,
    RowDelta,
    _require_finite,
    _sgd_step,
    _stack,
    owner_rows,
    round_half_away,
)
from partialfed.data import MovieLensData, SentenceRecord, SyntheticDataConfig, build_vocabulary
from partialfed.errors import ConfigError, DataError, NumericalError
from partialfed.evaluation import EvalMode, EvalResult
from partialfed.models import SPECIAL_TOKENS, ModelConfig, TokenCodec


@dataclass
class ClientResult:
    """One client's contribution to a round: its global delta (a
    :class:`RowDelta` over the rows it stepped, or a flat array, per block)
    and its weight ``n_i`` (the query size).  :func:`run_client_round` adds
    the client's query metrics before the update; under joint training the
    client's updated local blocks come back too."""

    client_id: int
    delta: list
    n_i: int
    query_metrics: dict[str, Metric] = field(default_factory=dict)
    updated_local: list[ParamBlock] | None = None


def aggregate(results, template: Blocks) -> tuple[list[np.ndarray], float]:
    """Weighted mean of the clients' deltas, summed in ascending client-id
    order, one client at a time; a :class:`RowDelta` over distinct rows adds
    in as one put."""
    ordered = sorted(results, key=lambda r: r.client_id)
    total = float(sum(r.n_i for r in ordered))
    acc = [np.zeros(b.values.size) for b in template]
    for res in ordered:
        w = res.n_i / total
        for a, b, entry in zip(acc, template, res.delta, strict=True):
            if isinstance(entry, RowDelta):
                assert len(np.unique(entry.rows)) == len(entry.rows)
                a.reshape(len(b.array), -1)[entry.rows] += w * entry.values
            else:
                a += w * np.ravel(entry)
    return acc, total


def copy_blocks(blocks: Blocks) -> list[ParamBlock]:
    return [b.copy() for b in blocks]


def tables_of(store: dict[int, Blocks]) -> LocalTables:
    """The tables holding each client's blocks of ``store``."""
    ids = sorted(store)
    return LocalTables(np.array(ids, dtype=np.int64), _stack([store[cid] for cid in ids]))


def client_blocks(stored: LocalTables, client_id: int) -> list[ParamBlock]:
    """One client's stored local blocks, views of its rows of the tables."""
    (row,) = stored.rows([client_id])
    return owner_rows(stored.blocks, row)


def client_init(spec: ModelSpec, rng: np.random.Generator) -> list[ParamBlock]:
    """One client's freshly drawn local blocks: row 0 of a one-generator
    ``init_local``."""
    return owner_rows(spec.init_local(rng), 0)


def per_owner(stats: dict[str, Metric]) -> list[dict[str, Metric]]:
    """Arrays over owners as one dict of floats per owner."""
    owners = np.size(next(iter(stats.values())).value)
    return [
        {k: Metric(float(np.ravel(m.value)[o]), float(np.ravel(m.weight)[o]))
         for k, m in stats.items()}
        for o in range(owners)
    ]


def merge_metrics(parts) -> dict[str, Metric]:
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


def finalize_metrics(stats) -> dict[str, float]:
    """Plain floats, deriving rmse from a mergeable mse when present."""
    out = {k: m.value for k, m in stats.items()}
    if "mse" in out:
        out["rmse"] = math.sqrt(out["mse"])
    return out


def finalize_with_macro(per_client: list[dict[str, Metric]], client_ids) -> dict[str, float]:
    """The clients' metrics merged, each key with its mean over the clients
    as ``key + "_macro"``.  A client's non-finite value raises
    :class:`NumericalError` naming it (``client_ids[c]`` for
    ``per_client[c]``); a merged key of zero weight is a legitimate nan."""
    out = finalize_metrics(merge_metrics(per_client))
    finals = [finalize_metrics(stats) for stats in per_client]
    for key in list(out):
        vals = np.array([f[key] for f in finals if key in f])
        if not np.isfinite(vals).all():
            cid, bad = next(
                (c, f[key]) for c, f in zip(client_ids, finals) if not math.isfinite(f.get(key, 0))
            )
            raise NumericalError(f"client {int(cid)}: non-finite {key} ({bad})")
        out[key + "_macro"] = float(np.mean(vals))
    return out


@dataclass
class SplitDataset(ClientDataset):
    """A client's examples and its split: the support and query halves as
    ascending indices into its columns, passed by keyword only."""

    support_idx: np.ndarray = field(kw_only=True)
    query_idx: np.ndarray = field(kw_only=True)

    def query_batch(self) -> Batch:
        return self.batch(self.query_idx)


def split_dataset(
    data: ClientDataset, policy: SplitPolicy, rng: np.random.Generator
) -> SplitDataset:
    """The client with its support/query indices; single-example clients
    fall back to no_split so they can still contribute an update."""
    n = data.n
    if n == 0:
        raise DataError(f"client {data.client_id}: empty dataset")
    columns = (data.client_id, data.features, data.targets, data.timestamps)
    if policy.kind == "no_split" or n == 1:
        idx = np.arange(n)
        return SplitDataset(*columns, support_idx=idx, query_idx=idx.copy())

    # Support size: ceil(n * fraction), capped so the query set stays nonempty.
    k = min(max(1, math.ceil(n * policy.support_fraction)), n - 1)
    if policy.kind == "half_disjoint":
        order = rng.permutation(n)
    else:  # by_timestamp_half: earlier examples become support
        order = np.argsort(data.timestamps, kind="stable")
    support = np.sort(order[:k])
    query = np.sort(order[k:])
    return SplitDataset(*columns, support_idx=support, query_idx=query)


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
def reconstruct(
    spec: ModelSpec,
    g: Blocks,
    data: SplitDataset,
    hyper: ClientHyper,
    init_rng: np.random.Generator,
    batch_rng: np.random.Generator,
) -> list[ParamBlock]:
    """Gradient-descend freshly initialized local parameters on the support
    set with the global parameters frozen; k_r=0 returns the raw init.
    Finiteness is checked once, on the result."""
    l = client_init(spec, init_rng)
    if hyper.k_r == 0 or not l:
        return l
    for bidx in batch_schedule(data.support_idx, hyper.batch_size, hyper.k_r, batch_rng):
        batch = data.batch(bidx)
        _, grads = spec.sparse_grads(g, l, batch, batch.total_weight, False, True)
        _sgd_step(l, hyper.eta_r, grads)
    _require_finite(
        (b.values for b in l), f"local parameters after reconstruction step {hyper.k_r - 1}"
    )
    return l


@np.errstate(over="ignore", invalid="ignore")  # finiteness is checked once, on the result
def client_update(
    spec: ModelSpec,
    g: Blocks,
    l: Blocks,
    data: SplitDataset,
    hyper: ClientHyper,
    batch_rng: np.random.Generator,
) -> ClientResult:
    """k_u gradient steps on the global parameters over the query set, with
    the reconstructed local parameters treated as constants (unless
    joint_training steps them concurrently).  Returns the update delta and
    its weight n_i = |query set|.

    Steps one working copy in place and never modifies the caller's blocks.
    A block stepped only by row-sparse gradients gets a :class:`RowDelta`
    over the rows touched; any other block gets a dense delta."""
    if len(data.query_idx) == 0:
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
    return ClientResult(
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
) -> ClientResult:
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


def recon_eval_by_repeat(
    spec: ModelSpec,
    g: Blocks,
    clients,
    policy: SplitPolicy,
    mode: EvalMode,
    streams: RngStreams,
    *,
    namespace: str = "eval",
) -> EvalResult:
    """Reconstruction evaluation repeat by repeat: each repeat's sample
    split and seeded on its own (``_split_and_seed``), reconstructed as
    cohorts (``_reconstructed``) over the slices of ``owner_chunks`` and
    scored chunk by chunk, the scores merged client by client."""
    hyper = mode.recon_hyper
    per_repeat: list[dict[str, float]] = []
    take = min(mode.clients_per_repeat, len(clients))
    for rep in range(mode.repeats):
        sample_rng = streams.generator(rep, namespace + ":sample")
        chosen = sorted(sample_rng.choice(len(clients), size=take, replace=False).tolist())
        sample = [clients[ci] for ci in chosen]
        per_client = []
        for owners in owner_chunks(spec, g, take):
            try:
                cohort, init, batches = _split_and_seed(
                    sample[owners], policy, streams, rep, namespace + ":"
                )
                stacked = _reconstructed(spec, g, cohort, hyper, init, batches)
            except NumericalError as e:
                raise NumericalError(f"repeat {rep}, {e}") from e
            per_client += per_owner(cohort_metrics(spec, g, stacked, cohort))
        try:
            per_repeat.append(finalize_with_macro(per_client, [ds.client_id for ds in sample]))
        except NumericalError as e:
            raise NumericalError(f"repeat {rep}, {e}") from e

    keys = sorted({k for rep in per_repeat for k in rep})
    metrics: dict[str, float] = {}
    for k in keys:
        vals = np.array([rep[k] for rep in per_repeat if k in rep])
        metrics[k] = float(vals.mean())
        metrics[k + "_stddev"] = float(vals.std())
    return EvalResult(metrics=metrics, per_repeat=per_repeat)


# ---------------------------------------------------------------------------
# Next-word data
# ---------------------------------------------------------------------------


def _sentence_slots(tokens, max_len: int) -> list[str]:
    # bos + tokens (truncated) + eos, right-padded to exactly max_len slots
    body = list(tokens[: max_len - 2])
    slots = ["<bos>"] + body + ["<eos>"]
    slots.extend(["<pad>"] * (max_len - len(slots)))
    return slots


def sentence_examples(
    codec: TokenCodec, tokens, timestamp: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window one sentence into (context, next-token) examples.

    Sentences occupy exactly ``max_sentence_len`` slots (bos, body, eos,
    padding); every position whose target is a real slot (not padding)
    yields one example whose context is the preceding ``context_window``
    slots, left-padded as needed.
    """
    cfg = codec.cfg
    slots = _sentence_slots(tokens, cfg.max_sentence_len)
    ctx_rows, targets = [], []
    for t in range(1, cfg.max_sentence_len):
        if slots[t] == "<pad>":
            break
        lo = max(0, t - cfg.context_window)
        window = ["<pad>"] * (cfg.context_window - (t - lo)) + slots[lo:t]
        ctx_rows.append([codec.context_id(w) for w in window])
        targets.append(codec.target_id(slots[t]))
    n = len(targets)
    return (
        np.asarray(ctx_rows, dtype=np.int64).reshape(n, cfg.context_window),
        np.asarray(targets, dtype=np.int64),
        np.full(n, timestamp, dtype=np.int64),
    )


def corpus_to_clients(
    records, cfg: ModelConfig, *, max_sentences_per_client: int = 1000
) -> tuple[list[ClientDataset], list[str], TokenCodec]:
    """Build the frequency-ranked vocabulary, then window every sentence
    into next-word examples; clients keep at most
    ``max_sentences_per_client`` sentences, earliest by timestamp."""
    for tok in SPECIAL_TOKENS:
        for rec in records:
            if tok in rec.tokens:
                raise DataError(f"reserved token {tok!r} appears in the corpus")
    vocab = build_vocabulary(records, cfg.vocab_size)
    codec = TokenCodec(cfg, vocab)

    by_client: dict[int, list[SentenceRecord]] = {}
    for rec in records:
        by_client.setdefault(rec.client_id, []).append(rec)

    clients = []
    for cid in sorted(by_client):
        sentences = sorted(by_client[cid], key=lambda r: r.timestamp)
        sentences = sentences[:max_sentences_per_client]
        ctxs, tgts, stamps = [], [], []
        for rec in sentences:
            c, t, s = sentence_examples(codec, rec.tokens, rec.timestamp)
            ctxs.append(c)
            tgts.append(t)
            stamps.append(s)
        features = np.concatenate(ctxs)
        targets = np.concatenate(tgts)
        clients.append(
            ClientDataset(
                client_id=cid,
                features=features,
                targets=targets.astype(np.float64),
                timestamps=np.concatenate(stamps),
            )
        )
    return clients, vocab, codec


def gen_synthetic_corpus(cfg: SyntheticDataConfig, seed: int) -> list[SentenceRecord]:
    """The slang corpus with one scalar draw per common word and per
    personal token."""
    rng = RngStreams(seed).generator("synthetic_corpus")
    commons = [f"w{k}" for k in range(cfg.common_words)]
    markers = [f"sig{j}" for j in range(cfg.personal_tokens)]
    records = []
    for cid in range(cfg.num_clients):
        personal = [f"p{cid}q{j}" for j in range(cfg.personal_tokens)]
        for snum in range(cfg.sentences_per_client):
            tokens: list[str] = []
            for _ in range(cfg.pairs_per_sentence):
                tokens.append(commons[rng.integers(len(commons))])
                j = int(rng.integers(cfg.personal_tokens))
                tokens.append(personal[j])
                tokens.append(markers[j])
            records.append(SentenceRecord(client_id=cid, tokens=tokens, timestamp=snum))
    return records


# ---------------------------------------------------------------------------
# Rating populations
# ---------------------------------------------------------------------------


def gen_synthetic_mf(
    cfg: SyntheticDataConfig, seed: int
) -> tuple[list[ClientDataset], np.ndarray, np.ndarray]:
    """Ground-truth-rank ratings, one user at a time, each with fresh
    arrays."""
    if cfg.true_rank > min(cfg.num_users, cfg.num_items):
        raise ConfigError("true_rank must be in [1, min(users, items)]")
    if cfg.ratings_per_user > cfg.num_items:
        raise ConfigError("ratings_per_user must be in [1, num_items]")
    if cfg.true_rank > 1 and cfg.signal_std == 0:
        raise ConfigError("true_rank > 1 needs a positive signal_std")
    rng = RngStreams(seed).generator("synthetic_mf")
    s = cfg.true_rank - 1
    bias = rng.normal(1.0, cfg.user_bias_std, size=(cfg.num_users, 1))
    if s > 0:
        alpha = (cfg.signal_std**2 / s) ** 0.25
        p_true = np.hstack([alpha * rng.normal(size=(cfg.num_users, s)), bias])
        q_true = np.hstack([alpha * rng.normal(size=(cfg.num_items, s)),
                            3.0 * np.ones((cfg.num_items, 1))])
    else:
        p_true = bias
        q_true = 3.0 * np.ones((cfg.num_items, 1))

    clients = []
    for u in range(cfg.num_users):
        items = rng.choice(cfg.num_items, size=cfg.ratings_per_user, replace=False)
        clean = q_true[items] @ p_true[u]
        noisy = clean + cfg.noise_std * rng.normal(size=len(items))
        ratings = np.clip(round_half_away(noisy), 1.0, 5.0)
        clients.append(
            ClientDataset(
                client_id=u,
                features=items.astype(np.int64),
                targets=ratings,
                timestamps=np.arange(len(items), dtype=np.int64),
            )
        )
    return clients, p_true, q_true


def parse_movielens(path) -> MovieLensData:
    """A ``ratings.dat`` file parsed line by line into per-user lists, each
    user's ratings then sorted by timestamp on their own, ties in file
    order."""
    user_ids: dict[int, int] = {}
    item_ids: dict[int, int] = {}
    per_user: dict[int, list[tuple[int, float, int]]] = {}
    n_ratings = 0
    with open(path, encoding="iso-8859-1") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            raw_user, raw_item, rating, ts = (int(p) for p in line.split("::"))
            u = user_ids.setdefault(raw_user, len(user_ids))
            i = item_ids.setdefault(raw_item, len(item_ids))
            per_user.setdefault(u, []).append((i, float(rating), ts))
            n_ratings += 1
    clients = []
    for u in sorted(per_user):
        rows = per_user[u]
        items = np.array([r[0] for r in rows], dtype=np.int64)
        ratings = np.array([r[1] for r in rows])
        stamps = np.array([r[2] for r in rows], dtype=np.int64)
        order = np.argsort(stamps, kind="stable")
        clients.append(ClientDataset(u, items[order], ratings[order], stamps[order]))
    return MovieLensData(clients, len(user_ids), len(item_ids), n_ratings)


def subset(ds: ClientDataset, idx, client_id: int | None = None) -> ClientDataset:
    """The examples of ``ds`` at ``idx``, gathered, under ``client_id`` if
    given."""
    return ClientDataset(
        ds.client_id if client_id is None else client_id,
        ds.features[idx],
        ds.targets[idx],
        ds.timestamps[idx],
    )


def split_each_client_by_time(ds: ClientDataset, fractions=(0.8, 0.1, 0.1)):
    """One client's earliest ceil(.8 n) examples by timestamp, the next
    ceil(.1 n) and the rest, each a gathered subset."""
    order = np.argsort(ds.timestamps, kind="stable")
    n_train = min(math.ceil(fractions[0] * ds.n), ds.n)
    n_val = min(math.ceil(fractions[1] * ds.n), ds.n - n_train)
    return (
        subset(ds, order[:n_train]),
        subset(ds, order[n_train : n_train + n_val]),
        subset(ds, order[n_train + n_val :]),
    )


def split_clients_by_time(clients, fractions=(0.8, 0.1, 0.1)):
    """Each client split on its own; empty parts are dropped."""
    parts = [split_each_client_by_time(ds, fractions) for ds in clients]
    return tuple([p[i] for p in parts if p[i].n] for i in range(3))
