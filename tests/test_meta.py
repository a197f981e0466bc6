"""The single-step update identity and its relation to the full gradient of
the reconstruct-then-evaluate composite."""

import dataclasses

import numpy as np
import pytest

from partialfed.client import (
    ClientHyper,
    SplitPolicy,
    reconstruct,
    split_dataset,
    verify_first_order_meta_gradient,
)
from partialfed.core import RngStreams
from partialfed.data import (
    SyntheticDataConfig,
    corpus_to_clients,
    gen_synthetic_corpus,
    gen_synthetic_mf,
)
from partialfed.errors import ConfigError
from partialfed.models import ModelConfig, matfac_spec, oov_nwp_spec
from oracles import oracle_meta_gradient
import reference


def mf_client(seed):
    clients, _, _ = gen_synthetic_mf(
        SyntheticDataConfig(num_users=3, num_items=5, true_rank=2, ratings_per_user=5,
                            noise_std=0.3, signal_std=0.8),
        seed,
    )
    return clients[0]


def mf_instance(seed, k_r, eta_r=0.1):
    spec = matfac_spec(ModelConfig(embed_dim=2), 5)
    streams = RngStreams(seed)
    cohort = split_dataset(mf_client(seed), SplitPolicy(), streams.generator("split"))
    g = spec.init_global(streams.generator("g"))
    hyper = ClientHyper(k_r=k_r, k_u=1, eta_r=eta_r, eta_u=0.1, batch_size=3)
    return spec, g, cohort, hyper


class TestFirstOrderCheck:
    @pytest.mark.parametrize("k_r", [0, 1, 2])
    def test_single_step_matches_frozen_local_gradient(self, k_r):
        spec, g, ds, hyper = mf_instance(seed=k_r + 10, k_r=k_r)
        report = verify_first_order_meta_gradient(spec, g, ds, hyper, RngStreams(77))
        assert report.first_order_max_rel_err < 1e-4

    def test_requires_single_update_step(self):
        spec, g, ds, hyper = mf_instance(seed=1, k_r=1)
        with pytest.raises(ConfigError):
            verify_first_order_meta_gradient(
                spec, g, ds, dataclasses.replace(hyper, k_u=2), RngStreams(0)
            )

    def test_nwp_instance_passes(self):
        cfg = ModelConfig(vocab_size=4, num_oov_buckets=2, embed_dim=2,
                          context_window=2, max_sentence_len=8)
        records = gen_synthetic_corpus(
            SyntheticDataConfig(num_clients=2, sentences_per_client=3, personal_tokens=2,
                                common_words=3, pairs_per_sentence=2),
            4,
        )
        clients, _, _ = corpus_to_clients(records, cfg)
        spec = oov_nwp_spec(cfg)
        streams = RngStreams(5)
        ds = split_dataset(clients[0], SplitPolicy(), streams.generator("s"))
        g = spec.init_global(streams.generator("g"))
        hyper = ClientHyper(k_r=2, k_u=1, eta_r=0.1, eta_u=0.1, batch_size=4)
        report = verify_first_order_meta_gradient(spec, g, ds, hyper, RngStreams(6))
        assert report.first_order_max_rel_err < 1e-4
        assert np.isfinite(report.composite_max_abs_gap)


class TestCompositeGradient:
    def test_no_reconstruction_means_no_second_order_terms(self):
        # k_r = 0: the rebuilt local parameters do not depend on g, so the
        # composite and frozen-local gradients coincide.
        spec, g, ds, hyper = mf_instance(seed=3, k_r=0)
        report = verify_first_order_meta_gradient(spec, g, ds, hyper, RngStreams(8))
        np.testing.assert_allclose(
            report.composite_grad, report.first_order_grad, atol=1e-6
        )

    def test_zero_reconstruction_rate_equivalent_to_zero_steps(self):
        spec, g, ds, hyper = mf_instance(seed=3, k_r=3, eta_r=0.0)
        report = verify_first_order_meta_gradient(spec, g, ds, hyper, RngStreams(8))
        np.testing.assert_allclose(
            report.composite_grad, report.first_order_grad, atol=1e-6
        )

    def test_reconstruction_introduces_gap(self):
        spec, g, ds, hyper = mf_instance(seed=5, k_r=2, eta_r=0.2)
        report = verify_first_order_meta_gradient(spec, g, ds, hyper, RngStreams(9))
        assert report.composite_max_abs_gap > 1e-6  # dropped terms are real

    def test_composite_matches_independent_oracle(self):
        spec, g, cohort, hyper = mf_instance(seed=6, k_r=2, eta_r=0.2)
        streams = RngStreams(11)
        report = verify_first_order_meta_gradient(
            spec, g, cohort, hyper, streams, round_idx=0
        )
        # The same client split by the reference, from the same draws.
        ds = reference.split_dataset(mf_client(6), SplitPolicy(), RngStreams(6).generator("split"))
        assert np.array_equal(ds.query_idx, cohort.query)

        def rebuild(probe):
            return reconstruct(
                spec, probe, cohort, hyper,
                streams.generator(0, ds.client_id, "local_init"),
                streams.generator(0, ds.client_id, "recon_batches"),
            )

        oracle = oracle_meta_gradient(spec, g, ds, hyper, rebuild)
        np.testing.assert_allclose(report.composite_grad, oracle, atol=1e-8)
