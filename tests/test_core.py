import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialfed.core import (
    Batch,
    ClientDataset,
    Metric,
    ParamBlock,
    RngStreams,
    RowDelta,
    _sgd_step,
    axpy_blocks,
    check_gradients,
    fnv1a64,
    merge_metrics,
    round_half_away,
)
from partialfed.errors import DataError, NumericalError, ShapeMismatchError


def test_fnv1a64_known_vectors():
    # Published FNV-1a 64-bit test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_round_half_away():
    vals = np.array([2.4, 2.5, -2.5, 0.5, -0.4, 3.0])
    assert round_half_away(vals).tolist() == [2.0, 3.0, -3.0, 1.0, -0.0, 3.0]


class TestRngStreams:
    def test_same_parts_same_sequence(self):
        a = RngStreams(7).generator(3, 12, "purpose").normal(size=5)
        b = RngStreams(7).generator(3, 12, "purpose").normal(size=5)
        assert np.array_equal(a, b)

    def test_different_parts_differ(self):
        a = RngStreams(7).generator(3, 12, "x").normal(size=5)
        b = RngStreams(7).generator(3, 13, "x").normal(size=5)
        c = RngStreams(7).generator(3, 12, "y").normal(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_different_seeds_differ(self):
        a = RngStreams(7).generator("x").normal(size=5)
        b = RngStreams(8).generator("x").normal(size=5)
        assert not np.array_equal(a, b)


U64 = 2**64 - 1
# Word-length boundaries of SeedSequence's entropy, and ints it must see masked.
EDGE_INTS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, U64, -1, -(2**32), -(2**63)]
int_parts = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**64), 2**65))
key_parts = st.one_of(int_parts, st.text(max_size=6))


# From a cohort of one to a 40-client table: every count takes the one array path.
LANE_COUNTS = [1, 5, 15, 16, 17, 40]


@st.composite
def lane_arrays(draw, size=None):
    """A 1-D int64 or uint64 array, edges of both included."""
    if draw(st.booleans()):
        dtype, lo, hi = np.int64, -(2**63), 2**63 - 1
    else:
        dtype, lo, hi = np.uint64, 0, U64
    entry = st.one_of(st.sampled_from([v for v in EDGE_INTS if lo <= v <= hi]), st.integers(lo, hi))
    if size is None:
        size = draw(st.sampled_from(LANE_COUNTS))
    return np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=dtype)


def reference_generator(seed, parts):
    """numpy's own SeedSequence of the documented key."""
    key = [seed & U64] + [
        fnv1a64(p.encode("utf-8")) if isinstance(p, str) else p & U64 for p in parts
    ]
    return np.random.default_rng(np.random.SeedSequence(key))


class TestBatchedStreams:
    @settings(max_examples=400)
    @given(
        seed=int_parts,
        parts=st.lists(key_parts, max_size=4),
        size=st.sampled_from(LANE_COUNTS),
        arrays=st.integers(1, 3),
        data=st.data(),
    )
    def test_each_lane_is_the_seed_sequence_generator(self, seed, parts, size, arrays, data):
        # One to three arrays, int64 or uint64 each, among the other parts:
        # lane k takes entry k of every array.
        lanes = [data.draw(lane_arrays(size), label=f"array {j}") for j in range(arrays)]
        spots = sorted(data.draw(st.integers(0, len(parts)), label="position") for _ in lanes)
        key, at = [], 0
        for array, spot in zip(lanes, spots):
            key += parts[at:spot] + [array]
            at = spot
        key += parts[at:]
        gens = RngStreams(seed).generators(*key)
        assert len(gens) == size
        for k, got in enumerate(gens):
            want = reference_generator(
                seed, [p[k].item() if isinstance(p, np.ndarray) else p for p in key]
            )
            assert np.array_equal(got.permutation(7), want.permutation(7))
            assert np.array_equal(got.normal(size=3), want.normal(size=3))
            assert np.array_equal(got.integers(0, 2**40, size=3), want.integers(0, 2**40, size=3))

    def test_matches_generator_calls(self):
        streams = RngStreams(12345)
        ids = np.append(np.arange(19), 2**40)  # one lane's id takes two words
        for got, cid in zip(streams.generators(4, ids, "split"), ids.tolist()):
            assert np.array_equal(
                got.normal(size=4), streams.generator(4, cid, "split").normal(size=4)
            )

    def test_empty_array_gives_no_generators(self):
        assert RngStreams(1).generators(np.array([], dtype=np.int64), "x") == []

    @pytest.mark.parametrize(
        "parts",
        [
            (3, "x"),
            (np.array([1]), np.array([2, 3])),
            (np.array([1, 2]), 5, np.array([3]), "x"),
            (np.array([1]), np.array([2.0])),
            (np.array([1.0]), "x"),
            (np.array([[1]]), "x"),
        ],
    )
    def test_needs_integer_arrays_of_one_length(self, parts):
        with pytest.raises(ValueError):
            RngStreams(1).generators(*parts)


class TestParamBlock:
    def test_shape_product_must_match(self):
        with pytest.raises(ShapeMismatchError):
            ParamBlock("b", np.zeros(5), (2, 3))

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ParamBlock("b", np.zeros(0), (0,))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            ParamBlock("b", np.array([1.0, np.nan]), (2,))

    def test_array_view_shares_memory(self):
        b = ParamBlock.of("b", np.arange(6.0).reshape(2, 3))
        assert b.array.shape == (2, 3)
        assert b.array.base is b.values or b.array.base is b.values.base


class TestAxpyBlocks:
    def test_basic(self):
        dst = [ParamBlock.of("d", np.array([1.0, 1.0]))]
        src = [ParamBlock.of("d", np.array([2.0, 4.0]))]
        assert axpy_blocks(dst, 0.5, src)[0].values.tolist() == [2.0, 3.0]

    def test_zero_scale_identity(self):
        dst = [ParamBlock.of("d", np.array([1.5, -2.0]))]
        out = axpy_blocks(dst, 0.0, [np.array([9.0, 9.0])])
        assert np.array_equal(out[0].values, dst[0].values)

    def test_negation(self):
        dst = [ParamBlock.of("d", np.array([0.0]))]
        assert axpy_blocks(dst, -1.0, [np.array([7.0])])[0].values.tolist() == [-7.0]

    def test_shape_mismatch(self):
        dst = [ParamBlock.of("d", np.zeros(2))]
        with pytest.raises(ShapeMismatchError):
            axpy_blocks(dst, 1.0, [np.zeros(3)])

    def test_accepts_raw_arrays(self):
        dst = [ParamBlock.of("d", np.array([1.0]))]
        assert axpy_blocks(dst, 2.0, [np.array([3.0])])[0].values.tolist() == [7.0]


class TestSgdStep:
    RATE = 0.37

    def test_dense_ndarray_grad_scaled_in_place_gives_the_same_bits(self):
        # The grad is consumed (scaled by the rate where it lies), and the
        # step is bit for bit the subtraction of a scaled copy.
        rng = np.random.default_rng(3)
        values, grad = rng.standard_normal((2, 1000)) * [[1.0], [1e-3]]
        want = values - self.RATE * grad
        block = ParamBlock.of("w", values.reshape(40, 25))
        consumed = grad.copy()
        _sgd_step([block], self.RATE, [consumed])
        assert block.values.tobytes() == want.tobytes()
        assert consumed.tobytes() == (self.RATE * grad).tobytes()

    @pytest.mark.parametrize("unique", [False, True])
    def test_block_and_row_grads_come_back_unmodified(self, unique):
        rng = np.random.default_rng(4)
        blocks = [ParamBlock.of("q", rng.standard_normal((6, 3))), ParamBlock.of("b", np.zeros(4))]
        rows = np.array([4, 1, 5])
        row_grad = RowDelta(rows, rng.standard_normal((3, 3)), base=blocks[0].array[rows])
        block_grad = ParamBlock.of("b", rng.standard_normal(4))
        kept = [row_grad.rows.copy(), row_grad.values.copy(), row_grad.base.copy(),
                block_grad.values.copy()]
        want_q = blocks[0].array.copy()
        want_q[rows] -= self.RATE * row_grad.values
        want_b = np.zeros(4) - self.RATE * block_grad.values
        _sgd_step(blocks, self.RATE, [row_grad, block_grad], unique)
        for got, was in zip([row_grad.rows, row_grad.values, row_grad.base, block_grad.values],
                            kept):
            assert got.tobytes() == was.tobytes()
        assert blocks[0].array.tobytes() == want_q.tobytes()
        assert blocks[1].values.tobytes() == want_b.tobytes()


class TestClientDataset:
    def test_batch_selects_rows(self):
        ds = ClientDataset(0, np.arange(5), np.arange(5.0), np.zeros(5, np.int64))
        b = ds.batch(np.array([1, 3]))
        assert b.targets.tolist() == [1.0, 3.0]
        assert b.weights.tolist() == [1.0, 1.0]
        assert b.size == 2
        assert ds.batch().weights.tolist() == [1.0] * 5

    def test_fields_are_the_examples_only(self):
        # A split is a client.Cohort, never a field of the dataset.
        names = [f.name for f in dataclasses.fields(ClientDataset)]
        assert names == ["client_id", "features", "targets", "timestamps"]

    def test_ragged_columns_name_the_client(self):
        with pytest.raises(ShapeMismatchError, match="client 5: ragged columns"):
            ClientDataset(5, np.arange(3), np.ones(3), np.arange(2))


class TestGradCheck:
    def test_constant_loss_has_zero_error(self, mf_toy):
        spec, g, l, clients = mf_toy
        import dataclasses

        const = dataclasses.replace(
            spec,
            loss=lambda g, l, b: 1.0,
            sparse_grads=lambda g, l, b, norm, need_global, need_local: (
                [np.zeros(g[0].values.size)], [np.zeros(l[0].values.size)]
            ),
        )
        batch = clients[0].batch()
        report = check_gradients(const, g, l, batch)
        assert report.max_rel_err == 0.0

    def test_requires_positive_eps(self, mf_toy):
        spec, g, l, clients = mf_toy
        with pytest.raises(ValueError):
            check_gradients(spec, g, l, clients[0].batch(), eps=0.0)

    def test_empty_batch_rejected(self, mf_toy):
        spec, g, l, clients = mf_toy
        empty = Batch(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))
        with pytest.raises(DataError):
            check_gradients(spec, g, l, empty)


def test_merge_metrics_weighted_mean():
    merged = merge_metrics(
        [
            {"acc": Metric(1.0, 1.0), "mse": Metric(4.0, 2.0)},
            {"acc": Metric(0.0, 3.0), "mse": Metric(1.0, 2.0)},
        ]
    )
    assert merged["acc"].value == pytest.approx(0.25)
    assert merged["acc"].weight == 4.0
    assert merged["mse"].value == pytest.approx(2.5)
