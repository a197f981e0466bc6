"""Golden outputs of six toy runs.

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
from partialfed.runner import read_params, run_experiment

RUNS_DIR = Path(__file__).parent / "golden" / "runs"

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
    unknown = sorted(set(sys.argv[1:]) - set(RUNS))
    if len(sys.argv) < 2 or unknown:
        sys.exit(f"usage: {sys.argv[0]} NAME... (one or more of {', '.join(sorted(RUNS))})")
    record(sys.argv[1:])
