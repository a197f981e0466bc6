"""Golden outputs of six toy runs, and of the data one paper-shape run
prepares.

Each ``golden/runs/<name>.json`` holds what one run wrote:

* every ``metrics.csv`` row's (round, split, metric, cumulative params),
  compared exactly;
* every value as its ``repr``, compared to 1e-12 relative;
* each ``params.bin`` block's sha256 and L2 norm; the norm is compared to
  1e-12 relative, the digest only where numpy and the platform match the
  recorded stamp.

A change that moves these numbers must re-record the files it moves, on
purpose and by name, and state the agreement with the old values::

    PYTHONPATH=src python tests/test_golden_runs.py synthetic_fedrecon ...

No test calls :func:`record`.

``golden/prepare_task_ml1m.json`` holds the SHA-256 digest, dtype and shape
of every column ``prepare_task`` builds for synthetic ratings at MovieLens
1M shape, seed 17, under both evaluation regimes: each part's client ids and
sizes and its clients' columns laid end to end.  The ratings are rounded
onto 1..5, so the digests are compared on every platform.  Re-record them
with ``python tests/test_golden_runs.py prepare_task_ml1m``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from partialfed.config import load_config
from partialfed.runner import prepare_task, read_params, run_experiment

RUNS_DIR = Path(__file__).parent / "golden" / "runs"
DATA_FILE = Path(__file__).parent / "golden" / "prepare_task_ml1m.json"

_TOY = {
    "seed": 11,
    "rounds": 6,
    "clients_per_round": 6,
    "eval.every": 2,
    "eval.repeats": 2,
    "eval.clients_per_repeat": 5,
    "client.k_r": 3,
    "client.k_u": 3,
}
_SYNTHETIC = {
    **_TOY,
    "task": "synthetic",
    "data.synthetic.num_users": 40,
    "data.synthetic.num_items": 12,
    "data.synthetic.ratings_per_user": 10,
    "data.synthetic.true_rank": 3,
    "model.embed_dim": 3,
}
_NWP = {
    **_TOY,
    "task": "oov_nwp",
    "data.synthetic.num_clients": 16,
    "data.synthetic.sentences_per_client": 8,
    "model.embed_dim": 4,
    "model.num_oov_buckets": 20,
}
_STANDARD = {"eval.regime": "standard"}
_ML1M = {
    "task": "synthetic",
    "seed": 17,
    "data.synthetic.num_users": 6040,
    "data.synthetic.num_items": 3706,
    "data.synthetic.ratings_per_user": 165,
}
_COLUMNS = ("features", "targets", "timestamps")

RUNS = {
    "synthetic_fedrecon": _SYNTHETIC,
    "synthetic_fedavg_standard": {**_SYNTHETIC, **_STANDARD, "algorithm": "fedavg"},
    "synthetic_centralized_standard": {
        **_SYNTHETIC, **_STANDARD, "algorithm": "centralized", "centralized.epochs": 2,
    },
    "synthetic_adagrad": {**_SYNTHETIC, "server.kind": "adagrad", "server.eta_s": 0.1},
    "oov_nwp_fedrecon": _NWP,
    "oov_nwp_fedavg_standard": {**_NWP, **_STANDARD, "algorithm": "fedavg"},
}


def _stamp() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def _outputs(name: str, out_dir: Path) -> dict:
    """Run ``name`` into ``out_dir`` and return the record a golden file holds."""
    result = run_experiment(load_config(None, {**RUNS[name], "output_dir": str(out_dir)}))
    blocks = read_params(result.params_path)
    return {
        "rows": [[r, split, metric, cum] for r, split, metric, _, cum in result.rows],
        "values": [repr(value) for _, _, _, value, _ in result.rows],
        "params": [
            {
                "name": b.name,
                "shape": list(b.shape),
                "sha256": hashlib.sha256(
                    np.ascontiguousarray(b.values, dtype="<f8").tobytes()
                ).hexdigest(),
                "l2": repr(float(np.linalg.norm(b.values))),
            }
            for b in blocks
        ],
    }


def record(names) -> None:
    """Re-run each named toy run and overwrite its golden file."""
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            golden = {"stamp": _stamp(), "overrides": RUNS[name], **_outputs(name, Path(tmp))}
        # One list entry a line, so a re-recording diffs row by row.
        entries = (
            f" {json.dumps(key)}: "
            + (
                "[\n" + ",\n".join(f"  {json.dumps(v)}" for v in value) + "\n ]"
                if isinstance(value, list)
                else json.dumps(value)
            )
            for key, value in golden.items()
        )
        (RUNS_DIR / f"{name}.json").write_text("{\n" + ",\n".join(entries) + "\n}\n")


def _column(values: np.ndarray) -> dict:
    little_endian = values.astype(values.dtype.newbyteorder("<"))
    return {
        "dtype": values.dtype.str,
        "shape": list(values.shape),
        "sha256": hashlib.sha256(little_endian.tobytes()).hexdigest(),
    }


def _prepared_columns(regime: str) -> dict:
    """Every column of the ``prepare_task`` parts at MovieLens 1M shape."""
    algorithm = "fedrecon" if regime == "recon" else "fedavg"
    bundle = prepare_task(
        load_config(None, {**_ML1M, "algorithm": algorithm, "eval.regime": regime})
    )
    parts = {
        "train": list(bundle.train_clients.values()),
        "val": bundle.val_clients,
        "test": bundle.test_clients,
    }
    return {
        name: {
            "client_id": _column(np.array([c.client_id for c in clients], dtype=np.int64)),
            "n": _column(np.array([c.n for c in clients], dtype=np.int64)),
            **{
                col: _column(np.concatenate([getattr(c, col) for c in clients]))
                for col in _COLUMNS
            },
        }
        for name, clients in parts.items()
    }


def record_prepared_columns() -> None:
    golden = {"overrides": _ML1M}
    for regime in ("recon", "standard"):
        golden[regime] = _prepared_columns(regime)
    DATA_FILE.write_text(json.dumps(golden, indent=1) + "\n")


@pytest.mark.parametrize("regime", ["recon", "standard"])
def test_prepared_columns_match_their_golden_digests(regime):
    golden = json.loads(DATA_FILE.read_text())
    assert golden["overrides"] == _ML1M, "the data settings changed; re-record them"
    assert _prepared_columns(regime) == golden[regime]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_toy_run_matches_its_golden_outputs(name, tmp_path):
    golden = json.loads((RUNS_DIR / f"{name}.json").read_text())
    assert golden["overrides"] == RUNS[name], "the run's settings changed; re-record it"
    got = _outputs(name, tmp_path)

    assert got["rows"] == golden["rows"]
    np.testing.assert_allclose(
        [float(v) for v in got["values"]], [float(v) for v in golden["values"]],
        rtol=1e-12, atol=0,
    )
    same_platform = golden["stamp"] == _stamp()
    assert len(got["params"]) == len(golden["params"])
    for block, want in zip(got["params"], golden["params"]):
        assert (block["name"], block["shape"]) == (want["name"], want["shape"])
        np.testing.assert_allclose(float(block["l2"]), float(want["l2"]), rtol=1e-12, atol=0)
        if same_platform:
            assert block["sha256"] == want["sha256"], block["name"]


if __name__ == "__main__":
    names = set(sys.argv[1:])
    unknown = sorted(names - set(RUNS) - {"prepare_task_ml1m"})
    if not names or unknown:
        sys.exit(
            f"usage: {sys.argv[0]} NAME... "
            f"(one or more of {', '.join(sorted(RUNS))}, prepare_task_ml1m)"
        )
    if "prepare_task_ml1m" in names:
        record_prepared_columns()
    record(sorted(names & set(RUNS)))
