"""Dataset ingestion and generation: the MovieLens 1M ratings parser, a
tokenized-corpus loader for the next-word task, synthetic low-rank rating
generators, and the user/example split helpers shared by both evaluation
regimes."""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import ClientDataset, RngStreams, round_half_away
from .errors import ConfigError, DataError, ParseError
from .models import BOS_ID, EOS_ID, PAD_ID, SPECIAL_TOKENS, ModelConfig, TokenCodec

__all__ = [
    "MovieLensData",
    "parse_movielens",
    "SyntheticDataConfig",
    "gen_synthetic_mf",
    "SentenceRecord",
    "load_token_corpus",
    "corpus_to_clients",
    "write_token_corpus",
    "gen_synthetic_corpus",
    "build_vocabulary",
    "vocabulary_coverage",
    "split_users",
    "split_clients_by_time",
    "split_each_client_by_time",
]


def _int64_fields(parts: Sequence[str], path: Path, line_no: int) -> list[int]:
    """Line ``line_no``'s integer fields, each one an int64 holds; any
    other field is a :class:`ParseError` naming the file and line."""
    try:
        values = [int(p) for p in parts]
    except ValueError as e:
        raise ParseError(str(path), line_no, f"non-integer field: {e}") from e
    for v in values:
        if not -(2**63) <= v < 2**63:
            raise ParseError(str(path), line_no, f"integer {v} outside the 64-bit range")
    return values


# ---------------------------------------------------------------------------
# MovieLens 1M
# ---------------------------------------------------------------------------


@dataclass
class MovieLensData:
    clients: list[ClientDataset]
    num_users: int
    num_items: int
    num_ratings: int


def parse_movielens(path: str | Path) -> MovieLensData:
    """Parse a `ratings.dat` file (``UserID::MovieID::Rating::Timestamp``,
    ISO-8859-1).  User and item ids are remapped densely in first-seen
    order; each user's ratings are sorted by timestamp with ties keeping
    file order."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"ratings file not found: {path}")
    user_ids: dict[int, int] = {}
    item_ids: dict[int, int] = {}
    rows: list[tuple[int, int, int, int]] = []
    with open(path, encoding="iso-8859-1") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ParseError(str(path), line_no, f"expected 4 '::' fields, got {len(parts)}")
            raw_user, raw_item, rating, ts = _int64_fields(parts, path, line_no)
            if not 1 <= rating <= 5:
                raise DataError(f"{path}:{line_no}: rating {rating} outside 1..5")
            u = user_ids.setdefault(raw_user, len(user_ids))
            rows.append((u, item_ids.setdefault(raw_item, len(item_ids)), rating, ts))
    if not rows:
        raise DataError(f"ratings file {path} holds no ratings")

    users, items, ratings, stamps = np.array(rows, dtype=np.int64).T
    # User-major, timestamp order within a user, ties in file order.
    order = np.lexsort((stamps, users))
    bounds = np.concatenate(([0], np.cumsum(np.bincount(users))))
    columns = (items[order], ratings[order].astype(np.float64), stamps[order])
    return MovieLensData(
        clients=_row_views(range(len(user_ids)), bounds[:-1], bounds[1:], columns),
        num_users=len(user_ids),
        num_items=len(item_ids),
        num_ratings=len(rows),
    )


# ---------------------------------------------------------------------------
# Synthetic low-rank ratings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticDataConfig:
    """Sizes and spreads of the generated data, read by
    :func:`gen_synthetic_mf` and :func:`gen_synthetic_corpus`."""

    # low-rank ratings (tasks: synthetic)
    num_users: int = 300
    num_items: int = 80
    true_rank: int = 6
    noise_std: float = 0.5
    ratings_per_user: int = 40
    signal_std: float = 0.7
    user_bias_std: float = 0.15
    # slang corpus (task: oov_nwp without a data path)
    num_clients: int = 32
    sentences_per_client: int = 40
    personal_tokens: int = 6
    common_words: int = 42
    pairs_per_sentence: int = 3

    def __post_init__(self):
        # Spreads are finite and may be 0; counts are positive integers.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_std"):
                ok = isinstance(value, numbers.Real) and 0 <= value < math.inf
                need = "finite and nonnegative"
            else:
                ok = isinstance(value, numbers.Integral) and value >= 1
                need = "a positive integer"
            if isinstance(value, bool) or not ok:
                raise ConfigError(f"data.synthetic.{f.name} must be {need}, got {value!r}")


# Item-factor values one block of users' clean ratings gathers at once.
_BLOCK_VALUES = 1 << 17
_COLUMNS = ("features", "targets", "timestamps")


def _row_views(client_ids, starts, stops, columns) -> list[ClientDataset]:
    """Client ``client_ids[k]`` holding rows ``starts[k]:stops[k]`` of each
    pooled column (features, targets, timestamps), as views."""
    features, targets, timestamps = columns
    return [
        ClientDataset(
            client_id=cid,
            features=features[lo:hi],
            targets=targets[lo:hi],
            timestamps=timestamps[lo:hi],
        )
        for cid, lo, hi in zip(client_ids, starts.tolist(), stops.tolist())
    ]


def gen_synthetic_mf(
    cfg: SyntheticDataConfig, seed: int
) -> tuple[list[ClientDataset], np.ndarray, np.ndarray]:
    """Ground-truth-rank rating data: clean ratings are dot products of
    Gaussian factors (one factor dimension reserved for a per-user offset
    around 3 so the clean matrix is exactly rank `true_rank`, centered in
    the rating range, and spread like real explicit-rating data), then
    noised, rounded half-away-from-zero, and clipped onto 1..5.

    Reproducibility contract: the ``synthetic_mf`` stream of ``seed`` is
    read in one order.  First the factors: the user offsets, then (for
    ``true_rank`` > 1) the user factors and the item factors.  Then user by
    user, in id order, exactly two draws: ``rng.choice(num_items,
    ratings_per_user, replace=False)``, the user's items in arrival order,
    then ``rng.normal(size=ratings_per_user)``, its noise.  Everything else
    is computed from those draws.

    The clients' columns are pooled: each is one 1-D array over every
    rating, user after user, and a client holds views of its rows.  The
    ratings are computed over blocks of users, never gathering the whole
    population's item factors at once.
    """
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
        # Var(alpha^2 * G.H) = alpha^4 * s = signal_std^2
        alpha = (cfg.signal_std**2 / s) ** 0.25
        p_true = np.hstack([alpha * rng.normal(size=(cfg.num_users, s)), bias])
        q_true = np.hstack([alpha * rng.normal(size=(cfg.num_items, s)),
                            3.0 * np.ones((cfg.num_items, 1))])
    else:
        p_true = bias
        q_true = 3.0 * np.ones((cfg.num_items, 1))

    users, per_user = cfg.num_users, cfg.ratings_per_user
    bounds = np.arange(users + 1) * per_user
    features = np.empty(bounds[-1], dtype=np.int64)
    targets = np.empty(bounds[-1])  # the noise draws, until the ratings replace them
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        # arrival order stays random: timestamps must not correlate with item id
        features[lo:hi] = rng.choice(cfg.num_items, size=per_user, replace=False)
        targets[lo:hi] = rng.normal(size=per_user)
    step = max(1, _BLOCK_VALUES // (per_user * cfg.true_rank))
    for u in range(0, users, step):
        rows = slice(bounds[u], bounds[min(u + step, users)])
        # One matrix-vector product per user, as q_true[items] @ p_true[u].
        items = q_true[features[rows]].reshape(-1, per_user, cfg.true_rank)
        clean = np.matmul(items, p_true[u : u + step, :, None]).reshape(-1)
        noisy = clean + cfg.noise_std * targets[rows]
        targets[rows] = np.clip(round_half_away(noisy), 1.0, 5.0)
    timestamps = np.tile(np.arange(per_user, dtype=np.int64), users)
    columns = (features, targets, timestamps)
    return _row_views(range(users), bounds[:-1], bounds[1:], columns), p_true, q_true


# ---------------------------------------------------------------------------
# Token corpus for the next-word task
# ---------------------------------------------------------------------------


@dataclass
class SentenceRecord:
    client_id: int
    tokens: list[str]
    timestamp: int


def write_token_corpus(path: str | Path, records: Sequence[SentenceRecord]) -> None:
    """TSV, UTF-8: ``client_id <TAB> timestamp <TAB> space-joined tokens``."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.client_id}\t{rec.timestamp}\t{' '.join(rec.tokens)}\n")


def _parse_corpus(path: str | Path) -> list[SentenceRecord]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"corpus file not found: {path}")
    records = []
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(str(path), line_no, f"expected 3 tab fields, got {len(parts)}")
            cid, ts = _int64_fields(parts[:2], path, line_no)
            tokens = parts[2].split()
            if not tokens:
                raise ParseError(str(path), line_no, "sentence with no tokens")
            records.append(SentenceRecord(client_id=cid, tokens=tokens, timestamp=ts))
    if not records:
        raise DataError(f"corpus file {path} holds no sentences")
    return records


def build_vocabulary(records: Sequence[SentenceRecord], vocab_size: int) -> list[str]:
    """Top `vocab_size` tokens by frequency, ties broken lexicographically."""
    counts = Counter(chain.from_iterable(rec.tokens for rec in records))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [w for w, _ in ranked[:vocab_size]]


def vocabulary_coverage(records: Sequence[SentenceRecord], vocab: Sequence[str]) -> float:
    known = set(vocab)
    total = hits = 0
    for rec in records:
        total += len(rec.tokens)
        hits += sum(1 for t in rec.tokens if t in known)
    return hits / total if total else 0.0


def _token_codes(sentences: Iterable[Sequence[str]]) -> dict[str, int]:
    """Code each distinct token once, the special tokens first, so that a
    special token's code is its id."""
    seen = dict.fromkeys(chain.from_iterable(sentences))
    for tok in SPECIAL_TOKENS:
        if tok in seen:
            raise DataError(f"reserved token {tok!r} appears in the corpus")
    return {tok: c for c, tok in enumerate(chain(SPECIAL_TOKENS, seen))}


def _lookups(codec: TokenCodec, codes: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each token code's context id and target id."""
    return tuple(np.fromiter(map(f, codes), np.int64, len(codes))
                 for f in (codec.context_id, codec.target_id))


def _window(
    cfg: ModelConfig,
    codes: dict[str, int],
    sentences: Sequence[Sequence[str]],
    lookups: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window sentences into (context, next-token) examples in array ops.

    Row s of the slot matrix holds ``context_window`` left pads, then the
    sentence's ``max_sentence_len`` slots: bos, the body truncated to
    ``max_sentence_len - 2`` tokens, eos, pads.  Every slot from the first
    body token through eos is the target of one example whose context is
    the ``context_window`` slots before it.  Returns the contexts and the
    targets, sentence by sentence, and each sentence's number of examples.
    """
    C, L = cfg.context_window, cfg.max_sentence_len
    S = len(sentences)
    # Each body is cut as it is read, so no corpus-long list of cut copies.
    body = np.fromiter((min(len(tokens), L - 2) for tokens in sentences), np.int64, S)
    slots = np.full((S, C + L), PAD_ID)
    slots[:, C] = BOS_ID
    # Boolean indexing reads row-major: sentence by sentence, slot by slot.
    slots[:, C + 1 : C + L - 1][np.arange(L - 2) < body[:, None]] = np.fromiter(
        map(codes.__getitem__, chain.from_iterable(t[: L - 2] for t in sentences)),
        np.int64, int(body.sum()),
    )
    slots[np.arange(S), C + 1 + body] = EOS_ID
    examples = np.arange(1, L) <= body[:, None] + 1
    ctx_id, target_id = lookups
    targets = target_id[slots[:, C + 1 :][examples]]
    slots = ctx_id[slots]  # rebinding frees the codes before the windows are cut
    windows = np.lib.stride_tricks.sliding_window_view(slots, C, axis=1)
    return windows[:, 1:L][examples], targets, body + 1


def load_token_corpus(
    path: str | Path,
    cfg: ModelConfig,
    *,
    max_sentences_per_client: int = 1000,
) -> tuple[list[ClientDataset], list[str], TokenCodec]:
    """Parse a TSV corpus and window it into next-word examples."""
    return corpus_to_clients(
        _parse_corpus(path), cfg, max_sentences_per_client=max_sentences_per_client
    )


def corpus_to_clients(
    records: Sequence[SentenceRecord],
    cfg: ModelConfig,
    *,
    max_sentences_per_client: int = 1000,
) -> tuple[list[ClientDataset], list[str], TokenCodec]:
    """Build the frequency-ranked vocabulary, then window every sentence
    into next-word examples; clients keep at most
    ``max_sentences_per_client`` sentences, earliest by timestamp.

    Each distinct token is coded and looked up once, and every client's
    kept sentences, client by client, are windowed in one call (see
    :func:`_window`) into pooled columns that the clients view.
    """
    codes = _token_codes(rec.tokens for rec in records)
    vocab = build_vocabulary(records, cfg.vocab_size)
    codec = TokenCodec(cfg, vocab)

    by_client: dict[int, list[SentenceRecord]] = {}
    for rec in records:
        by_client.setdefault(rec.client_id, []).append(rec)
    ids = sorted(by_client)
    kept = [sorted(by_client[cid], key=lambda r: r.timestamp)[:max_sentences_per_client]
            for cid in ids]
    sentences = list(chain.from_iterable(kept))

    ctx, targets, counts = _window(
        cfg, codes, [rec.tokens for rec in sentences], _lookups(codec, codes)
    )
    stamps = np.fromiter((rec.timestamp for rec in sentences), np.int64, len(sentences))
    # A client's examples are those of its kept sentences.
    bounds = np.concatenate(([0], np.cumsum(counts)))[np.cumsum([0] + list(map(len, kept)))]
    columns = (ctx, targets.astype(np.float64), np.repeat(stamps, counts))
    return _row_views(ids, bounds[:-1], bounds[1:], columns), vocab, codec


def gen_synthetic_corpus(cfg: SyntheticDataConfig, seed: int) -> list[SentenceRecord]:
    """A corpus where each client uses its own out-of-vocabulary slang.

    Every client has `personal_tokens` private tokens; personal token j is
    always followed by the shared marker word ``sig<j>``, so predicting the
    word after a personal token is exactly as hard as telling the client's
    personal tokens apart.  Common words and markers are frequent enough to
    occupy the core vocabulary while personal tokens stay out of it.
    """
    rng = RngStreams(seed).generator("synthetic_corpus")
    commons = [f"w{k}" for k in range(cfg.common_words)]
    markers = [f"sig{j}" for j in range(cfg.personal_tokens)]
    # Every (common word, personal token) pair of a client in one draw: an
    # array of bounds consumes the stream as one scalar draw per bound would.
    bounds = np.tile([cfg.common_words, cfg.personal_tokens],
                     cfg.sentences_per_client * cfg.pairs_per_sentence)
    records = []
    for cid in range(cfg.num_clients):
        personal = [f"p{cid}q{j}" for j in range(cfg.personal_tokens)]
        draws = rng.integers(0, bounds).reshape(cfg.sentences_per_client, -1).tolist()
        for snum, row in enumerate(draws):
            tokens: list[str] = []
            for w, j in zip(row[::2], row[1::2]):
                tokens += (commons[w], personal[j], markers[j])
            records.append(SentenceRecord(client_id=cid, tokens=tokens, timestamp=snum))
    return records


# ---------------------------------------------------------------------------
# Train / validation / test splits
# ---------------------------------------------------------------------------


def _three_way_sizes(n, fractions: tuple[float, float, float]):
    """Train, validation and test sizes of ``n`` examples, elementwise for
    an array of counts: ceil(.8 n) train, ceil(.1 n) validate, the rest
    test, each capped by what is left."""
    n_train = np.minimum(np.ceil(fractions[0] * n), n).astype(np.int64)
    n_val = np.minimum(np.ceil(fractions[1] * n), n - n_train).astype(np.int64)
    return n_train, n_val, n - n_train - n_val


def split_users(
    clients: Sequence[ClientDataset],
    rng: np.random.Generator,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> tuple[list[ClientDataset], list[ClientDataset], list[ClientDataset]]:
    """Random user-level partition (the unseen-user evaluation regime)."""
    order = rng.permutation(len(clients))
    n_train, n_val, _ = _three_way_sizes(len(clients), fractions)
    pick = lambda idx: [clients[i] for i in sorted(idx.tolist())]
    return (
        pick(order[:n_train]),
        pick(order[n_train : n_train + n_val]),
        pick(order[n_train + n_val :]),
    )


def _split_by_time(
    clients: Sequence[ClientDataset],
    fractions: tuple[float, float, float],
    drop_empty: bool,
) -> tuple[list[ClientDataset], list[ClientDataset], list[ClientDataset]]:
    if not clients:
        return [], [], []
    n = np.fromiter((c.n for c in clients), np.int64, len(clients))
    # Client-major, timestamp order within a client, ties in example order.
    order = np.lexsort((
        np.concatenate([c.timestamps for c in clients]),
        np.repeat(np.arange(len(clients)), n),
    ))
    columns = [np.concatenate([getattr(c, col) for c in clients])[order] for col in _COLUMNS]
    # Client c's train, validation and test rows are runs 3c, 3c+1, 3c+2.
    sizes = np.column_stack(_three_way_sizes(n, fractions))
    stops = np.cumsum(sizes).reshape(sizes.shape)
    starts = stops - sizes
    ids = [c.client_id for c in clients]
    parts = []
    for lo, hi in zip(starts.T, stops.T):
        keep = np.flatnonzero(hi > lo) if drop_empty else np.arange(len(ids))
        parts.append(_row_views([ids[k] for k in keep.tolist()], lo[keep], hi[keep], columns))
    return tuple(parts)


def split_clients_by_time(
    clients: Sequence[ClientDataset], fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
) -> tuple[list[ClientDataset], list[ClientDataset], list[ClientDataset]]:
    """Timestamp-ordered per-client partition (the seen-user regime) of a
    whole population: each client's earliest ceil(.8 n) examples train, the
    next ceil(.1 n) validate, the rest test, ties kept in example order.
    One stable sort of (client, timestamp) reorders pooled copies of the
    columns, and every part holds views of a run of them.  Returns the
    training, validation and test parts, clients in input order, with
    empty parts dropped."""
    return _split_by_time(clients, fractions, drop_empty=True)


def split_each_client_by_time(
    ds: ClientDataset, fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
) -> tuple[ClientDataset, ClientDataset, ClientDataset]:
    """:func:`split_clients_by_time` of one client, empty parts kept."""
    (train,), (val,), (test,) = _split_by_time([ds], fractions, drop_empty=False)
    return train, val, test
