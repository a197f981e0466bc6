import itertools
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from partialfed import data
from partialfed.core import ClientDataset, RngStreams
from partialfed.data import (
    SentenceRecord,
    SyntheticDataConfig,
    build_vocabulary,
    corpus_to_clients,
    gen_synthetic_corpus,
    gen_synthetic_mf,
    load_token_corpus,
    parse_movielens,
    split_clients_by_time,
    split_each_client_by_time,
    vocabulary_coverage,
    write_token_corpus,
)
from partialfed.errors import ConfigError, DataError, ParseError
from partialfed.models import EOS_ID, NUM_SPECIAL, OOV_ID, PAD_ID, ModelConfig


class TestParseMovielens:
    def write(self, tmp_path, lines):
        path = tmp_path / "ratings.dat"
        path.write_text("\n".join(lines) + "\n", encoding="iso-8859-1")
        return path

    def test_first_line_maps_to_dense_ids(self, tmp_path):
        path = self.write(tmp_path, ["1::1193::5::978300760"])
        ml = parse_movielens(path)
        assert ml.num_users == 1 and ml.num_items == 1 and ml.num_ratings == 1
        ds = ml.clients[0]
        assert ds.client_id == 0
        assert ds.features.tolist() == [0]
        assert ds.targets.tolist() == [5.0]

    def test_grouping_and_time_sort(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                "7::30::4::200",
                "7::10::3::100",
                "9::30::5::50",
                "7::20::2::100",  # same stamp as line 2: file order preserved
            ],
        )
        ml = parse_movielens(path)
        assert ml.num_users == 2 and ml.num_items == 3
        user7 = ml.clients[0]
        assert user7.timestamps.tolist() == [100, 100, 200]
        assert user7.features.tolist() == [1, 2, 0]  # items 10, 20, 30 densified in file order

    def test_malformed_line_reports_number(self, tmp_path):
        path = self.write(tmp_path, ["1::2::3::4", "not-a-line"])
        with pytest.raises(ParseError) as exc_info:
            parse_movielens(path)
        assert exc_info.value.line_no == 2

    def test_the_int64_bounds_parse(self, tmp_path):
        lo, hi = -(2**63), 2**63 - 1
        ml = parse_movielens(self.write(tmp_path, [f"{lo}::{hi}::4::{hi}", f"{hi}::{lo}::3::{lo}"]))
        assert [ds.timestamps.tolist() for ds in ml.clients] == [[hi], [lo]]

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", [-(2**63) - 1, 2**63, 10**20])
    def test_an_integer_outside_int64_is_a_parse_error(self, tmp_path, field, value):
        parts = ["7", "8", "3", "9"]
        parts[field] = str(value)
        path = self.write(tmp_path, ["1::2::4::5", "::".join(parts)])
        with pytest.raises(ParseError, match="outside the 64-bit range") as exc_info:
            parse_movielens(path)
        assert exc_info.value.line_no == 2 and str(path) in str(exc_info.value)

    def test_rating_out_of_range(self, tmp_path):
        path = self.write(tmp_path, ["1::2::6::4"])
        with pytest.raises(DataError):
            parse_movielens(path)

    @pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["zero_bytes", "blank_lines"])
    def test_a_file_without_ratings_is_a_data_error_naming_it(self, tmp_path, text):
        path = tmp_path / "ratings.dat"
        path.write_text(text, encoding="iso-8859-1")
        with pytest.raises(DataError, match=f"ratings file {path} holds no ratings"):
            parse_movielens(path)

    def test_byte_stable_id_assignment(self, tmp_path):
        lines = ["3::5::1::10", "1::5::2::20", "3::7::3::30"]
        a = parse_movielens(self.write(tmp_path, lines))
        b = parse_movielens(self.write(tmp_path, lines))
        for ca, cb in zip(a.clients, b.clients):
            assert np.array_equal(ca.features, cb.features)
            assert np.array_equal(ca.targets, cb.targets)

    def test_published_dataset_totals(self):
        from conftest import movielens_path

        path = movielens_path()
        if path is None:
            pytest.skip("MovieLens 1M not available")
        ml = parse_movielens(path)
        assert ml.num_users == 6040
        assert ml.num_items == 3706
        assert ml.num_ratings == 1_000_209
        assert len(ml.clients) == 6040


class TestSyntheticMF:
    def test_deterministic(self):
        cfg = SyntheticDataConfig(num_users=5, num_items=8, true_rank=3, ratings_per_user=4,
                                  noise_std=0.3, signal_std=0.8)
        a, pa, qa = gen_synthetic_mf(cfg, 7)
        b, pb, qb = gen_synthetic_mf(cfg, 7)
        assert np.array_equal(pa, pb) and np.array_equal(qa, qb)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.features, cb.features)
            assert np.array_equal(ca.targets, cb.targets)

    def test_clean_matrix_rank(self):
        for rank in (1, 2, 4):
            cfg = SyntheticDataConfig(
                num_users=20, num_items=10, true_rank=rank, ratings_per_user=5,
                noise_std=0.3, signal_std=0.8,
            )
            _, p, q = gen_synthetic_mf(cfg, 1)
            assert np.linalg.matrix_rank(p @ q.T) == rank

    def test_ratings_in_range(self):
        clients, _, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=10, num_items=10, true_rank=3, ratings_per_user=6,
                                noise_std=0.3, signal_std=0.8),
            2,
        )
        for c in clients:
            assert np.all((c.targets >= 1) & (c.targets <= 5))
            assert np.all(c.targets == np.round(c.targets))

    def test_single_rating_per_user(self):
        clients, _, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=4, num_items=5, true_rank=2, ratings_per_user=1,
                                noise_std=0.3, signal_std=0.8),
            3,
        )
        assert all(c.n == 1 for c in clients)

    @pytest.mark.parametrize(
        "sizes, complaint",
        [
            ({"num_users": 2, "true_rank": 3}, "true_rank"),
            ({"num_users": 9, "true_rank": 6}, "true_rank"),
            ({"num_users": 5, "ratings_per_user": 6}, "ratings_per_user"),
            ({"num_users": 5, "true_rank": 3, "signal_std": 0.0}, "signal_std"),
        ],
        ids=["rank_over_users", "rank_over_items", "ratings_over_items", "rank_without_signal"],
    )
    def test_cross_field_checks(self, sizes, complaint):
        # Each field is in range; together they describe no population.
        cfg = SyntheticDataConfig(**{"num_items": 5, "true_rank": 2, "ratings_per_user": 5,
                                     **sizes})
        with pytest.raises(ConfigError, match=complaint):
            gen_synthetic_mf(cfg, 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_std", math.nan),
            ("signal_std", math.inf),
            ("user_bias_std", -math.inf),
            ("num_users", 10.5),
            ("ratings_per_user", "40"),
            ("num_items", True),
        ],
    )
    def test_rejects_non_finite_spreads_and_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SyntheticDataConfig(**{field: value})

    def test_one_factor_needs_no_signal(self):
        clients, p, _ = gen_synthetic_mf(
            SyntheticDataConfig(num_users=3, num_items=5, true_rank=1, ratings_per_user=5,
                                signal_std=0.0),
            0,
        )
        assert p.shape == (3, 1) and len(clients) == 3

    def test_noiseless_data_is_recoverable(self):
        # With zero noise and matched rank, centralized training fits the
        # ratings down to the rounding floor.
        from partialfed.baselines import train_centralized
        from partialfed.models import matfac_spec

        cfg = SyntheticDataConfig(
            num_users=30, num_items=12, true_rank=3, noise_std=0.0,
            ratings_per_user=8, signal_std=0.8,
        )
        clients, _, _ = gen_synthetic_mf(cfg, 4)
        spec = matfac_spec(ModelConfig(embed_dim=4, init_stddev=0.3), 12)
        pop = {c.client_id: c for c in clients}
        g, locs = train_centralized(
            spec, pop, epochs=300, batch_size=30, rate=0.3, streams=RngStreams(5)
        )
        sq_sum, n = 0.0, 0.0
        for cid, ds in pop.items():  # unit weights
            mse = spec.metrics(g, reference.client_blocks(locs, cid), ds.batch())["mse"]
            sq_sum += mse.value * mse.weight
            n += mse.weight
        assert np.sqrt(sq_sum / n) < 0.5


class TestTokenCorpus:
    def test_round_trip_through_tsv(self, tmp_path):
        records = [
            SentenceRecord(client_id=1, tokens=["a", "b"], timestamp=5),
            SentenceRecord(client_id=2, tokens=["c"], timestamp=9),
        ]
        path = tmp_path / "corpus.tsv"
        write_token_corpus(path, records)
        cfg = ModelConfig(vocab_size=3, num_oov_buckets=2, embed_dim=2, context_window=2)
        clients, vocab, codec = load_token_corpus(path, cfg)
        assert [c.client_id for c in clients] == [1, 2]
        assert set(vocab) == {"a", "b", "c"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("1\t2\ta b\nbadline\n", encoding="utf-8")
        cfg = ModelConfig(vocab_size=2, num_oov_buckets=2, embed_dim=2, context_window=2)
        with pytest.raises(ParseError) as exc_info:
            load_token_corpus(path, cfg)
        assert exc_info.value.line_no == 2

    def test_the_int64_bounds_parse(self, tmp_path):
        lo, hi = -(2**63), 2**63 - 1
        path = tmp_path / "corpus.tsv"
        path.write_text(f"{lo}\t{hi}\ta b\n{hi}\t{lo}\ta\n", encoding="utf-8")
        cfg = ModelConfig(vocab_size=2, num_oov_buckets=2, embed_dim=2, context_window=2)
        clients, _, _ = load_token_corpus(path, cfg)
        assert [ds.client_id for ds in clients] == [lo, hi]
        assert [ds.timestamps[0] for ds in clients] == [hi, lo]

    @pytest.mark.parametrize("field", range(2))
    @pytest.mark.parametrize("value", [-(2**63) - 1, 2**63, 10**20])
    def test_an_integer_outside_int64_is_a_parse_error(self, tmp_path, field, value):
        parts = ["7", "9", "a b"]
        parts[field] = str(value)
        path = tmp_path / "corpus.tsv"
        path.write_text("1\t2\ta b\n" + "\t".join(parts) + "\n", encoding="utf-8")
        cfg = ModelConfig(vocab_size=2, num_oov_buckets=2, embed_dim=2, context_window=2)
        with pytest.raises(ParseError, match="outside the 64-bit range") as exc_info:
            load_token_corpus(path, cfg)
        assert exc_info.value.line_no == 2 and str(path) in str(exc_info.value)

    def test_single_token_corpus(self):
        records = [SentenceRecord(0, ["a", "a", "a"], 0)]
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=2, embed_dim=2, context_window=2)
        clients, vocab, codec = corpus_to_clients(records, cfg)
        assert vocab == ["a"]
        targets = clients[0].targets.astype(int)
        # every non-eos target is the in-vocabulary token
        assert set(targets.tolist()) == {NUM_SPECIAL, EOS_ID}

    def test_vocabulary_ranking_pushes_rare_tokens_out(self):
        records = [SentenceRecord(0, ["common", "common", "rare"], 0)]
        cfg = ModelConfig(vocab_size=1, num_oov_buckets=2, embed_dim=2, context_window=2)
        _, vocab, codec = corpus_to_clients(records, cfg)
        assert vocab == ["common"]
        assert codec.target_id("rare") == OOV_ID

    def test_frequency_ties_break_lexicographically(self):
        records = [SentenceRecord(0, ["zeta", "alpha"], 0)]
        assert build_vocabulary(records, 1) == ["alpha"]

    def test_coverage_matches_hand_count(self):
        records = [
            SentenceRecord(0, ["a", "b", "x"], 0),
            SentenceRecord(1, ["a", "y"], 0),
        ]
        # vocabulary of the 2 most frequent: a (2), then lexicographic b (1)
        vocab = build_vocabulary(records, 2)
        assert vocab == ["a", "b"]
        assert vocabulary_coverage(records, vocab) == pytest.approx(3 / 5)

    def test_sentence_cap_keeps_earliest(self):
        records = [SentenceRecord(0, ["a"], t) for t in (5, 1, 3)]
        cfg = ModelConfig(vocab_size=2, num_oov_buckets=1, embed_dim=2, context_window=2)
        clients, _, _ = corpus_to_clients(records, cfg, max_sentences_per_client=2)
        assert set(clients[0].timestamps.tolist()) == {1, 3}

    def test_windowing_layout(self):
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=2, embed_dim=2, context_window=3,
                          max_sentence_len=6)
        ds, codec = one_sentence_client(cfg, ["a", "b"], timestamp=4)
        assert codec.vocab == ["a", "b"]
        # slots: bos a b eos pad pad -> targets a, b, eos
        assert ds.targets.tolist() == [NUM_SPECIAL, NUM_SPECIAL + 1, EOS_ID]
        assert ds.features.shape == (3, 3)
        assert ds.features[0].tolist() == [PAD_ID, PAD_ID, 1]  # bos preceded by padding
        assert np.all(ds.timestamps == 4)
        assert_one_sentence_reference(ds, codec, ["a", "b"], 4)

    def test_long_sentence_truncated_to_fixed_slots(self):
        cfg = ModelConfig(vocab_size=30, num_oov_buckets=2, embed_dim=2, context_window=2,
                          max_sentence_len=8)
        tokens = [f"w{i}" for i in range(20)]
        ds, codec = one_sentence_client(cfg, tokens, timestamp=0)
        assert ds.n == 7  # bos + 6 body tokens + eos fill all 8 slots
        assert_one_sentence_reference(ds, codec, tokens, 0)

    def test_reserved_tokens_rejected(self):
        records = [SentenceRecord(0, ["<pad>", "a"], 0)]
        cfg = ModelConfig(vocab_size=2, num_oov_buckets=1, embed_dim=2, context_window=2)
        with pytest.raises(DataError):
            corpus_to_clients(records, cfg)

    def test_reserved_token_named_in_special_token_order(self):
        # The error names the first special token in SPECIAL_TOKENS order
        # that appears anywhere, not the first one met in the corpus.
        records = [SentenceRecord(0, ["a", "<oov>"], 0), SentenceRecord(1, ["<bos>"], 0)]
        cfg = ModelConfig(vocab_size=2, num_oov_buckets=1, embed_dim=2, context_window=2)
        with pytest.raises(DataError, match="reserved token '<bos>' appears in the corpus"):
            corpus_to_clients(records, cfg)

    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path):
        records = [
            SentenceRecord(client_id=1, tokens=["a", "b"], timestamp=5),
            SentenceRecord(client_id=2, tokens=["c", "a"], timestamp=9),
        ]
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        write_token_corpus(plain, records)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        cfg = ModelConfig(vocab_size=3, num_oov_buckets=2, embed_dim=2, context_window=2)
        (want, want_vocab, _), (got, got_vocab, _) = (
            load_token_corpus(path, cfg) for path in (plain, marked)
        )
        assert got_vocab == want_vocab == ["a", "b", "c"]
        assert_same_clients(got, want)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["zero_bytes", "blank_lines"])
    def test_a_file_without_sentences_is_a_data_error_naming_it(self, tmp_path, text):
        path = tmp_path / "corpus.tsv"
        path.write_text(text, encoding="utf-8")
        cfg = ModelConfig(vocab_size=2, num_oov_buckets=1, embed_dim=2, context_window=2)
        with pytest.raises(DataError, match=f"corpus file {path} holds no sentences"):
            load_token_corpus(path, cfg)


def one_sentence_client(cfg, tokens, timestamp):
    """The one client of a one-sentence corpus, and the corpus's codec."""
    (ds,), _, codec = corpus_to_clients([SentenceRecord(0, tokens, timestamp)], cfg)
    return ds, codec


def assert_one_sentence_reference(ds, codec, tokens, timestamp):
    """``ds`` holds the examples ``reference.sentence_examples`` windows
    from the sentence."""
    ctx, targets, stamps = reference.sentence_examples(codec, tokens, timestamp)
    for got, want in ((ds.features, ctx), (ds.targets, targets.astype(np.float64)),
                      (ds.timestamps, stamps)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


COLUMNS = ("features", "targets", "timestamps")


def assert_same_clients(got, want):
    """Exactly equal client lists: order, ids, and every column's dtype,
    shape and bytes."""
    assert [c.client_id for c in got] == [c.client_id for c in want]
    for g, w in zip(got, want):
        assert type(g.client_id) is type(w.client_id)
        for name in COLUMNS:
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)
            assert a.tobytes() == b.tobytes(), name


# Few words, so a small vocab_size leaves some out; a sentence may be empty
# or longer than max_sentence_len, and context_window may exceed it.
_words = st.sampled_from(["a", "b", "c", "dd", "e", "f", "g", "h", "é", "日本"])
_records = st.lists(
    st.builds(
        SentenceRecord,
        client_id=st.integers(-2, 3),
        tokens=st.lists(_words, max_size=14),
        timestamp=st.integers(0, 3),
    ),
    max_size=12,
)
_model_configs = st.builds(
    ModelConfig,
    embed_dim=st.just(2),
    vocab_size=st.integers(1, 12),
    num_oov_buckets=st.integers(0, 5),
    context_window=st.integers(1, 12),
    max_sentence_len=st.integers(3, 10),
)


class TestWindowingMatchesTheReference:
    """``corpus_to_clients`` against the per-token bodies it replaced
    (``tests/reference.py``), over many sentences and over one."""

    @settings(max_examples=150, deadline=None)
    @given(
        records=_records,
        cfg=_model_configs,
        cap=st.one_of(st.integers(1, 4), st.just(1000)),
    )
    def test_corpus_to_clients(self, records, cfg, cap):
        got, got_vocab, _ = corpus_to_clients(records, cfg, max_sentences_per_client=cap)
        want, want_vocab, _ = reference.corpus_to_clients(
            records, cfg, max_sentences_per_client=cap
        )
        assert got_vocab == want_vocab
        assert_same_clients(got, want)

    @settings(max_examples=100, deadline=None)
    @given(tokens=st.lists(_words, max_size=14), cfg=_model_configs)
    def test_one_sentence_corpus(self, tokens, cfg):
        ds, codec = one_sentence_client(cfg, tokens, timestamp=7)
        assert_one_sentence_reference(ds, codec, tokens, 7)


class TestSyntheticCorpus:
    def test_oov_rate_at_least_one_third(self):
        records = gen_synthetic_corpus(SyntheticDataConfig(), 0)
        cfg = ModelConfig(vocab_size=48, num_oov_buckets=500, embed_dim=4, context_window=3)
        vocab = build_vocabulary(records, cfg.vocab_size)
        assert 1.0 - vocabulary_coverage(records, vocab) >= 0.30

    def test_personal_tokens_are_client_specific(self):
        records = gen_synthetic_corpus(SyntheticDataConfig(num_clients=3), 1)
        per_client = {}
        for rec in records:
            per_client.setdefault(rec.client_id, set()).update(
                t for t in rec.tokens if t.startswith("p")
            )
        assert not (per_client[0] & per_client[1])

    def test_marker_follows_personal_token(self):
        records = gen_synthetic_corpus(
            SyntheticDataConfig(num_clients=2, sentences_per_client=5),
            2,
        )
        for rec in records:
            for i, tok in enumerate(rec.tokens):
                if tok.startswith("p"):
                    j = int(tok.split("q")[1])
                    assert rec.tokens[i + 1] == f"sig{j}"

    @pytest.mark.parametrize(
        "overrides, seed",
        [
            ({}, 0),
            ({"num_clients": 20, "common_words": 400, "personal_tokens": 6}, 17),
            ({"num_clients": 3, "common_words": 3, "personal_tokens": 7,
              "sentences_per_client": 5, "pairs_per_sentence": 4}, 12345),
            ({"num_clients": 4, "common_words": 70000, "personal_tokens": 5}, 17),
            ({"num_clients": 4, "common_words": 1000, "personal_tokens": 1,
              "pairs_per_sentence": 1}, 0),
        ],
        ids=["default", "bench_shape", "few_commons", "many_commons", "one_personal"],
    )
    def test_matches_scalar_draws(self, overrides, seed):
        # The generator draws a client's pairs in one call with an array of
        # bounds; a numpy release that consumes the stream differently from
        # one scalar draw per bound must fail here, not change the data.
        cfg = SyntheticDataConfig(**overrides)
        got = gen_synthetic_corpus(cfg, seed)
        want = reference.gen_synthetic_corpus(cfg, seed)
        assert [(r.client_id, r.tokens, r.timestamp) for r in got] == [
            (r.client_id, r.tokens, r.timestamp) for r in want
        ]

    @pytest.mark.parametrize("seed", [0, 17, 12345])
    @pytest.mark.parametrize("bounds", [(42, 6), (3, 7), (2**31, 5), (1000, 1)])
    def test_array_bounds_draw_as_scalar_draws(self, bounds, seed):
        # What the generator relies on, at bounds too wide to list as words:
        # the same values, and the stream left in the same state.
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [int(scalar.integers(b)) for _ in range(50) for b in bounds]
        got = batched.integers(0, np.tile(bounds, 50)).tolist()
        assert got == want
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_deterministic(self):
        a = gen_synthetic_corpus(SyntheticDataConfig(), 5)
        b = gen_synthetic_corpus(SyntheticDataConfig(), 5)
        assert [(r.client_id, r.tokens, r.timestamp) for r in a] == [
            (r.client_id, r.tokens, r.timestamp) for r in b
        ]


@st.composite
def _mf_configs(draw):
    num_items = draw(st.integers(1, 12))
    num_users = draw(st.integers(1, 10))
    true_rank = draw(st.integers(1, min(num_users, num_items)))
    return SyntheticDataConfig(
        num_users=num_users,
        num_items=num_items,
        true_rank=true_rank,
        ratings_per_user=draw(st.integers(1, num_items)),
        noise_std=draw(st.sampled_from([0.0, 0.5, 3.0])),
        signal_std=draw(st.sampled_from([0.7, 2.0])),
        user_bias_std=draw(st.sampled_from([0.0, 0.15])),
    )


def _movielens_style(stamps: list[list[int]]) -> list[ClientDataset]:
    """One client per timestamp list, taken as its arrival order; every
    row's item id is distinct, so a misplaced row shows."""
    rng = np.random.default_rng(len(stamps))
    clients, row = [], 0
    for cid, ts in enumerate(stamps):
        n = len(ts)
        clients.append(
            ClientDataset(
                client_id=cid,
                features=np.arange(row, row + n, dtype=np.int64),
                targets=rng.integers(1, 6, n).astype(np.float64),
                timestamps=np.array(ts, dtype=np.int64),
            )
        )
        row += n
    return clients


_fractions = st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.3, 0.2), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5)])


def assert_same_split(clients, fractions):
    got = split_clients_by_time(clients, fractions)
    want = reference.split_clients_by_time(clients, fractions)
    assert len(got) == 3
    for got_part, want_part in zip(got, want):
        assert_same_clients(got_part, want_part)


class TestRatingPopulationsMatchTheReference:
    """``gen_synthetic_mf`` and the seen-user split against the per-user
    bodies they replaced (``tests/reference.py``), part by part and column
    by column, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=_mf_configs(), seed=st.integers(0, 2**16), budget=st.integers(1, 300))
    @example(  # every item rated
        cfg=SyntheticDataConfig(num_users=5, num_items=7, true_rank=3, ratings_per_user=7),
        seed=0, budget=30,
    )
    @example(  # one rating a user: empty validation and test parts
        cfg=SyntheticDataConfig(num_users=6, num_items=9, true_rank=2, ratings_per_user=1),
        seed=1, budget=4,
    )
    @example(  # one factor and no noise
        cfg=SyntheticDataConfig(num_users=4, num_items=5, true_rank=1, ratings_per_user=3,
                                noise_std=0.0, signal_std=0.0),
        seed=2, budget=1,
    )
    @example(  # a population of one
        cfg=SyntheticDataConfig(num_users=1, num_items=4, true_rank=1, ratings_per_user=4),
        seed=3, budget=1000,
    )
    @example(  # an empty test part
        cfg=SyntheticDataConfig(num_users=3, num_items=8, true_rank=2, ratings_per_user=5),
        seed=4, budget=10,
    )
    def test_generated_population_and_its_split(self, cfg, seed, budget):
        # budget sets how many users one block of the ratings covers.
        with mock.patch.object(data, "_BLOCK_VALUES", budget):
            got, p, q = gen_synthetic_mf(cfg, seed)
        want, want_p, want_q = reference.gen_synthetic_mf(cfg, seed)
        assert p.tobytes() == want_p.tobytes() and q.tobytes() == want_q.tobytes()
        assert_same_clients(got, want)
        assert_same_split(got, (0.8, 0.1, 0.1))

    @settings(max_examples=150, deadline=None)
    @given(
        stamps=st.lists(st.lists(st.integers(0, 3), max_size=12), max_size=8),
        fractions=_fractions,
    )
    @example(stamps=[[3, 1, 1, 0, 2, 2, 0, 3, 1, 0]], fractions=(0.8, 0.1, 0.1))
    @example(stamps=[[], [5], [2, 2]], fractions=(0.8, 0.1, 0.1))
    def test_movielens_style_split(self, stamps, fractions):
        # Unsorted timestamps with ties; empty clients and empty parts.
        clients = _movielens_style(stamps)
        assert_same_split(clients, fractions)
        for ds in clients:
            for got, want in zip(split_each_client_by_time(ds, fractions),
                                 reference.split_each_client_by_time(ds, fractions)):
                assert_same_clients([got], [want])


def write_ratings(path, rows):
    """A ``ratings.dat`` file of ``(user, item, rating, timestamp)`` rows."""
    path.write_text("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in rows),
                    encoding="iso-8859-1")
    return path


def assert_same_parse(path):
    got, want = parse_movielens(path), reference.parse_movielens(path)
    assert (got.num_users, got.num_items, got.num_ratings) == (
        want.num_users, want.num_items, want.num_ratings
    )
    assert_same_clients(got.clients, want.clients)
    return got


def shuffled_ratings_file(path, num_users=12, seed=0):
    """``gen_synthetic_mf``'s ratings as a ratings file: raw ids off the
    dense ones, timestamps tied in fours within a user, users interleaved."""
    cfg = SyntheticDataConfig(num_users=num_users, num_items=10, true_rank=3,
                              ratings_per_user=10)
    clients, _, _ = gen_synthetic_mf(cfg, seed)
    rows = [
        (7 + 3 * c.client_id, 100 + int(item), int(rating), 978300000 + int(ts) // 4)
        for c in clients
        for item, rating, ts in zip(c.features, c.targets, c.timestamps)
    ]
    order = np.random.default_rng(seed).permutation(len(rows))
    return write_ratings(path, [rows[k] for k in order])


_rating_rows = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(1, 5),
              st.sampled_from([0, 1, 2, 978300760, 2**40])),
    min_size=1, max_size=40,
)


class TestParsingMatchesTheReference:
    """``parse_movielens`` against the per-user build it replaced
    (``tests/reference.py``): users interleaved in the file, timestamps tied
    within a user and out of order, column by column, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(rows=_rating_rows)
    @example(rows=[(3, 1, 5, 2), (1, 1, 4, 2), (3, 2, 1, 0), (1, 3, 2, 2), (3, 4, 3, 2)])
    def test_interleaved_users_with_tied_timestamps(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            assert_same_parse(write_ratings(Path(tmp) / "ratings.dat", rows))

    def test_a_generated_population(self, tmp_path):
        ml = assert_same_parse(shuffled_ratings_file(tmp_path / "ratings.dat"))
        assert (ml.num_users, ml.num_ratings) == (12, 120)


def assert_no_shared_memory(clients):
    arrays = [getattr(c, col) for c in clients for col in COLUMNS]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


def pooled_sources(tmp_path):
    """Each source's clients: generated ratings, a parsed ratings file and a
    windowed corpus."""
    cfg = SyntheticDataConfig(num_users=12, num_items=10, true_rank=3, ratings_per_user=10)
    corpus = gen_synthetic_corpus(SyntheticDataConfig(num_clients=6, sentences_per_client=5), 2)
    return {
        "generated": gen_synthetic_mf(cfg, 0)[0],
        "movielens": parse_movielens(shuffled_ratings_file(tmp_path / "ratings.dat")).clients,
        "corpus": corpus_to_clients(corpus, ModelConfig(vocab_size=20, num_oov_buckets=3,
                                                        embed_dim=2, context_window=2))[0],
    }


class TestPooledColumns:
    @pytest.mark.parametrize("source", ["generated", "movielens", "corpus"])
    def test_every_source_cuts_its_clients_from_one_pool(self, tmp_path, source):
        # Each column is one array, client after client, and a client holds
        # views of its rows; no view overlaps another, split or not.
        clients = pooled_sources(tmp_path)[source]
        for col in COLUMNS:
            views = [getattr(c, col) for c in clients]
            pool = views[0].base
            assert pool is not None and all(v.base is pool for v in views), col
            assert sum(v.nbytes for v in views) == pool.nbytes, col
            starts = [v.__array_interface__["data"][0] for v in views]
            assert starts == [starts[0] + sum(v.nbytes for v in views[:k])
                              for k in range(len(views))], col
        assert_no_shared_memory(clients)
        train, val, test = split_clients_by_time(clients)
        assert val and test
        assert_no_shared_memory(train + val + test)

    def test_generation_holds_no_population_temporary(self):
        # At MovieLens 1M shape the columns are 32 MB; a whole-population
        # temporary, such as every rating's item factors, would double that.
        cfg = SyntheticDataConfig(num_users=6040, num_items=3706, ratings_per_user=165)
        tracemalloc.start()
        try:
            clients, _, _ = gen_synthetic_mf(cfg, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(c, col).nbytes for c in clients for col in COLUMNS)
        assert peak <= 1.5 * columns
