"""The names the benchmark's traced run (``bench/run.py --trace 1``) looks up
in the package must keep resolving, so a refactor cannot silently break it."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def instrument():
    sys.path.insert(0, str(BENCH))
    try:
        import instrument

        yield instrument
    finally:
        sys.path.remove(str(BENCH))


def test_wrapped_functions_resolve(instrument):
    for module, attr in instrument.MODULE_FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_row_delta_importable_from_client():
    from partialfed.client import RowDelta

    assert RowDelta.__name__ == "RowDelta"


@pytest.mark.parametrize("model", ["matfac", "oov_nwp"])
def test_traced_spec_runs_a_client_round(instrument, streams, mf_toy, nwp_toy, model):
    from tracer import Tracer

    from partialfed.client import ClientHyper, SplitPolicy, run_client_round
    from partialfed.core import ClientDataset

    if model == "matfac":
        spec, g, _, clients = mf_toy
        data = clients[0]
    else:
        spec, _, g, _, batch = nwp_toy
        data = ClientDataset(0, batch.features, batch.targets, np.arange(batch.size))
    tracer = Tracer()
    traced = instrument.traced_spec(tracer, spec)
    hyper = ClientHyper(k_r=2, k_u=2, eta_r=0.1, eta_u=0.1, batch_size=2)
    run_client_round(traced, g, data, SplitPolicy(), hyper, streams, 0)
    # layer_table() lists every wrapped kernel, called or not; the kernels
    # a model leaves unset are not wrapped.
    calls = {name: row["calls"] for name, row in tracer.layer_table().items()}
    for kernel in ("grad_global", "grad_local", "fast_centralized"):
        assert getattr(spec, kernel) is None and f"models.{kernel}" not in calls, kernel
    assert calls["models.sparse_grads"] == hyper.k_r + hyper.k_u
    assert calls["models.loss"] == 0
    assert calls["models.metrics"] == 1


@pytest.mark.parametrize("algorithm", ["fedrecon", "fedavg"])
def test_a_traced_round_records_one_aggregate_call(instrument, streams, mf_toy, algorithm):
    # The traced run wraps ``server.aggregate`` wherever the package holds
    # it; a round that aggregated elsewhere would leave its row at 0 calls.
    from tracer import Tracer

    from partialfed import server
    from partialfed.client import ClientHyper, SplitPolicy

    spec, _, _, clients = mf_toy
    tracer = Tracer()
    tracer.patch_function(server, "aggregate", "server.aggregate")
    try:
        server.run_training(
            spec, {ds.client_id: ds for ds in clients}, rounds=1, clients_per_round=3,
            policy=SplitPolicy(), hyper=ClientHyper(k_r=2, k_u=2),
            server_opt=server.ServerOptimizer(), streams=streams, algorithm=algorithm,
        )
    finally:
        tracer.restore()
    assert tracer.layer_table()["server.aggregate"]["calls"] == 1
