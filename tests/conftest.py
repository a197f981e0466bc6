from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from partialfed.core import Batch, RngStreams, owner_rows
from partialfed.data import SyntheticDataConfig, gen_synthetic_mf
from partialfed.models import ModelConfig, matfac_spec, oov_nwp_spec

# CI selects the "ci" profile (HYPOTHESIS_PROFILE=ci): the same examples on
# every run, so a failure replays exactly; no per-example deadline on a
# shared runner.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def movielens_path() -> Path | None:
    """The MovieLens 1M ratings file, if the user has provided it."""
    env = os.environ.get("ML1M_PATH")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "ml-1m" / "ratings.dat")
    for path in candidates:
        if path.is_file():
            return path
    return None


requires_movielens = pytest.mark.skipif(
    movielens_path() is None,
    reason=(
        "MovieLens 1M not available (license requires a manual download; "
        "set ML1M_PATH or place data/ml-1m/ratings.dat)"
    ),
)


@pytest.fixture
def streams() -> RngStreams:
    return RngStreams(12345)


@pytest.fixture
def mf_toy(streams):
    """A small rating-model instance: spec, params, and one client."""
    spec = matfac_spec(ModelConfig(embed_dim=3), 6)
    clients, _, _ = gen_synthetic_mf(
        SyntheticDataConfig(num_users=4, num_items=6, true_rank=2, ratings_per_user=6,
                            noise_std=0.3, signal_std=0.8),
        3,
    )
    g = spec.init_global(streams.generator("mf_g"))
    l = owner_rows(spec.init_local(streams.generator("mf_l")), 0)
    return spec, g, l, clients


@pytest.fixture
def nwp_toy(streams):
    spec_cfg = ModelConfig(vocab_size=5, num_oov_buckets=3, embed_dim=3, context_window=2)
    spec = oov_nwp_spec(spec_cfg)
    g = spec.init_global(streams.generator("nwp_g"))
    l = owner_rows(spec.init_local(streams.generator("nwp_l")), 0)
    rng = streams.generator("nwp_batch")
    n = 6
    batch = Batch(
        features=rng.integers(-spec_cfg.num_oov_buckets, spec_cfg.num_classes, size=(n, 2)),
        targets=rng.integers(0, spec_cfg.num_classes, size=n).astype(float),
        weights=np.ones(n),
    )
    return spec, spec_cfg, g, l, batch
