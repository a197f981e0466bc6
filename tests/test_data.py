import numpy as np
import pytest

from partialfed.core import RngStreams
from partialfed.data import (
    SentenceRecord,
    SyntheticMFConfig,
    build_vocabulary,
    corpus_to_clients,
    gen_synthetic_corpus,
    gen_synthetic_mf,
    load_token_corpus,
    parse_movielens,
    sentence_examples,
    vocabulary_coverage,
    write_token_corpus,
)
from partialfed.errors import ConfigError, DataError, ParseError
from partialfed.models import EOS_ID, NUM_SPECIAL, NwpConfig, OOV_ID, PAD_ID, TokenCodec


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

    def test_rating_out_of_range(self, tmp_path):
        path = self.write(tmp_path, ["1::2::6::4"])
        with pytest.raises(DataError):
            parse_movielens(path)

    def test_empty_file_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("", encoding="iso-8859-1")
        ml = parse_movielens(path)
        assert ml.clients == [] and ml.num_ratings == 0

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
        cfg = SyntheticMFConfig(num_users=5, num_items=8, true_rank=3, ratings_per_user=4, seed=7)
        a, pa, qa = gen_synthetic_mf(cfg)
        b, pb, qb = gen_synthetic_mf(cfg)
        assert np.array_equal(pa, pb) and np.array_equal(qa, qb)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.features, cb.features)
            assert np.array_equal(ca.targets, cb.targets)

    def test_clean_matrix_rank(self):
        for rank in (1, 2, 4):
            cfg = SyntheticMFConfig(
                num_users=20, num_items=10, true_rank=rank, ratings_per_user=5, seed=1
            )
            _, p, q = gen_synthetic_mf(cfg)
            assert np.linalg.matrix_rank(p @ q.T) == rank

    def test_ratings_in_range(self):
        clients, _, _ = gen_synthetic_mf(
            SyntheticMFConfig(num_users=10, num_items=10, true_rank=3, ratings_per_user=6, seed=2)
        )
        for c in clients:
            assert np.all((c.targets >= 1) & (c.targets <= 5))
            assert np.all(c.targets == np.round(c.targets))

    def test_single_rating_per_user(self):
        clients, _, _ = gen_synthetic_mf(
            SyntheticMFConfig(num_users=4, num_items=5, true_rank=2, ratings_per_user=1, seed=3)
        )
        assert all(c.n == 1 for c in clients)

    def test_rank_bounds_validated(self):
        with pytest.raises(ConfigError):
            SyntheticMFConfig(num_users=2, num_items=5, true_rank=3)

    def test_noiseless_data_is_recoverable(self):
        # With zero noise and matched rank, centralized training fits the
        # ratings down to the rounding floor.
        from partialfed.baselines import train_centralized
        from partialfed.models import MatFacConfig, matfac_spec

        cfg = SyntheticMFConfig(
            num_users=30, num_items=12, true_rank=3, noise_std=0.0,
            ratings_per_user=8, seed=4,
        )
        clients, _, _ = gen_synthetic_mf(cfg)
        spec = matfac_spec(MatFacConfig(num_items=12, embed_dim=4, init_stddev=0.3))
        pop = {c.client_id: c for c in clients}
        g, locs = train_centralized(
            spec, pop, epochs=300, batch_size=30, rate=0.3, streams=RngStreams(5)
        )
        sq_sum, n = 0.0, 0.0
        for cid, ds in pop.items():
            mse = spec.metrics(g, locs[cid], ds.batch())["mse"]  # unit weights
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
        cfg = NwpConfig(vocab_size=3, num_oov_buckets=2, embed_dim=2, context_window=2)
        clients, vocab, codec = load_token_corpus(path, cfg)
        assert [c.client_id for c in clients] == [1, 2]
        assert set(vocab) == {"a", "b", "c"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("1\t2\ta b\nbadline\n", encoding="utf-8")
        cfg = NwpConfig(vocab_size=2, num_oov_buckets=2, embed_dim=2, context_window=2)
        with pytest.raises(ParseError) as exc_info:
            load_token_corpus(path, cfg)
        assert exc_info.value.line_no == 2

    def test_single_token_corpus(self):
        records = [SentenceRecord(0, ["a", "a", "a"], 0)]
        cfg = NwpConfig(vocab_size=4, num_oov_buckets=2, embed_dim=2, context_window=2)
        clients, vocab, codec = corpus_to_clients(records, cfg)
        assert vocab == ["a"]
        targets = clients[0].targets.astype(int)
        # every non-eos target is the in-vocabulary token
        assert set(targets.tolist()) == {NUM_SPECIAL, EOS_ID}

    def test_vocabulary_ranking_pushes_rare_tokens_out(self):
        records = [SentenceRecord(0, ["common", "common", "rare"], 0)]
        cfg = NwpConfig(vocab_size=1, num_oov_buckets=2, embed_dim=2, context_window=2)
        _, vocab, codec = corpus_to_clients(records, cfg)
        assert vocab == ["common"]
        assert codec.is_oov("rare")
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
        cfg = NwpConfig(vocab_size=2, num_oov_buckets=1, embed_dim=2, context_window=2)
        clients, _, _ = corpus_to_clients(records, cfg, max_sentences_per_client=2)
        assert set(clients[0].timestamps.tolist()) == {1, 3}

    def test_windowing_layout(self):
        cfg = NwpConfig(vocab_size=4, num_oov_buckets=2, embed_dim=2, context_window=3,
                        max_sentence_len=6)
        codec = TokenCodec(cfg, ["a", "b"])
        ctx, targets, stamps = sentence_examples(codec, ["a", "b"], timestamp=4)
        # slots: bos a b eos pad pad -> targets a, b, eos
        assert targets.tolist() == [NUM_SPECIAL, NUM_SPECIAL + 1, EOS_ID]
        assert ctx.shape == (3, 3)
        assert ctx[0].tolist() == [PAD_ID, PAD_ID, 1]  # bos preceded by padding
        assert np.all(stamps == 4)

    def test_long_sentence_truncated_to_fixed_slots(self):
        cfg = NwpConfig(vocab_size=30, num_oov_buckets=2, embed_dim=2, context_window=2,
                        max_sentence_len=8)
        codec = TokenCodec(cfg, [f"w{i}" for i in range(20)])
        ctx, targets, _ = sentence_examples(codec, [f"w{i}" for i in range(20)], 0)
        assert len(targets) == 7  # bos + 6 body tokens + eos fill all 8 slots

    def test_reserved_tokens_rejected(self):
        records = [SentenceRecord(0, ["<pad>", "a"], 0)]
        cfg = NwpConfig(vocab_size=2, num_oov_buckets=1, embed_dim=2, context_window=2)
        with pytest.raises(DataError):
            corpus_to_clients(records, cfg)


class TestSyntheticCorpus:
    def test_oov_rate_at_least_one_third(self):
        records = gen_synthetic_corpus(seed=0)
        cfg = NwpConfig(vocab_size=48, num_oov_buckets=500, embed_dim=4, context_window=3)
        vocab = build_vocabulary(records, cfg.vocab_size)
        assert 1.0 - vocabulary_coverage(records, vocab) >= 0.30

    def test_personal_tokens_are_client_specific(self):
        records = gen_synthetic_corpus(num_clients=3, seed=1)
        per_client = {}
        for rec in records:
            per_client.setdefault(rec.client_id, set()).update(
                t for t in rec.tokens if t.startswith("p")
            )
        assert not (per_client[0] & per_client[1])

    def test_marker_follows_personal_token(self):
        records = gen_synthetic_corpus(num_clients=2, sentences_per_client=5, seed=2)
        for rec in records:
            for i, tok in enumerate(rec.tokens):
                if tok.startswith("p"):
                    j = int(tok.split("q")[1])
                    assert rec.tokens[i + 1] == f"sig{j}"

    def test_deterministic(self):
        a = gen_synthetic_corpus(seed=5)
        b = gen_synthetic_corpus(seed=5)
        assert [(r.client_id, r.tokens, r.timestamp) for r in a] == [
            (r.client_id, r.tokens, r.timestamp) for r in b
        ]


def test_degenerate_signal_with_rank_rejected():
    with pytest.raises(ConfigError):
        SyntheticMFConfig(num_users=5, num_items=5, true_rank=3, signal_std=0.0)
