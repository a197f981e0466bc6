"""Evaluation regimes and the communication ledger.

Standard evaluation scores seen clients with their stored local parameters;
reconstruction evaluation scores (typically unseen) clients by first
rebuilding local parameters from their support half, exactly as clients do
during training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# reconstruct is looked up here by bench/instrument.py's tracer.
from .client import (  # noqa: F401
    ClientHyper,
    SplitPolicy,
    _stack,
    cohort_metrics,
    owner_chunks,
    reconstruct,
    reconstruct_cohort,
    split_cohort,
)
from .core import (
    Blocks,
    ClientDataset,
    Metric,
    ModelSpec,
    RngStreams,
    finalize_metrics,
    merge_metrics,
)
from .errors import ConfigError, EvaluationError, NumericalError

__all__ = [
    "EvalMode",
    "EvalResult",
    "standard_eval",
    "recon_eval",
    "CommRecord",
    "comm_ledger_report",
    "params_to_reach",
]


@dataclass(frozen=True)
class EvalMode:
    kind: str = "recon_eval"
    recon_hyper: ClientHyper | None = None
    repeats: int = 1
    clients_per_repeat: int = 50

    def __post_init__(self):
        if self.kind not in ("standard_eval", "recon_eval"):
            raise ConfigError(f"unknown eval kind {self.kind!r}")
        if self.repeats < 1 or self.clients_per_repeat < 1:
            raise ConfigError("repeats and clients_per_repeat must be positive")
        if self.kind == "recon_eval" and self.recon_hyper is None:
            raise ConfigError("recon_eval needs reconstruction hyperparameters")


@dataclass
class EvalResult:
    metrics: dict[str, float]
    per_repeat: list[dict[str, float]] = field(default_factory=list)


def _finalize_with_macro(per_client: list[dict[str, Metric]]) -> dict[str, float]:
    out = finalize_metrics(merge_metrics(per_client))
    finals = [finalize_metrics(stats) for stats in per_client]
    for key in list(out):
        vals = [f[key] for f in finals if key in f]
        if vals:
            out[key + "_macro"] = float(np.mean(vals))
    return out


def standard_eval(
    spec: ModelSpec,
    g: Blocks,
    stored_locals: Mapping[int, Blocks],
    eval_sets: Sequence[ClientDataset],
) -> dict[str, float]:
    """Score each client's held-out examples with its stored local
    parameters; metrics weight every example equally, with per-client
    macro-averages emitted alongside.  The clients are scored in owner-axis
    calls (:func:`cohort_metrics`) over the slices of :func:`owner_chunks`."""
    sets = [ds for ds in eval_sets if ds.n > 0]
    for ds in sets:
        if ds.client_id not in stored_locals:
            raise EvaluationError(
                f"client {ds.client_id} has no stored local parameters; "
                "use recon_eval for unseen clients"
            )
    if not sets:
        raise EvaluationError("no clients with evaluation examples")
    stored = [stored_locals[ds.client_id] for ds in sets]
    per_client: list[dict[str, Metric]] = []
    for owners in owner_chunks(spec, g, len(sets)):
        cohort = split_cohort(sets[owners], SplitPolicy(kind="no_split"))
        per_client += cohort_metrics(spec, g, _stack(stored[owners]), cohort)
    return _finalize_with_macro(per_client)


def recon_eval(
    spec: ModelSpec,
    g: Blocks,
    clients: Sequence[ClientDataset],
    policy: SplitPolicy,
    mode: EvalMode,
    streams: RngStreams,
    *,
    namespace: str = "eval",
) -> EvalResult:
    """Reconstruct-then-score: per client, split, rebuild local parameters
    from the support half, and score the query half.  Each repeat's clients
    reconstruct as cohorts (:func:`reconstruct_cohort`) over the slices of
    :func:`owner_chunks` and are scored in owner-axis calls.  Repeats over
    fresh client samples; the result carries the across-repeat mean and
    stddev.  Never reads or writes any training state."""
    if mode.recon_hyper is None:
        raise ConfigError("recon_eval needs reconstruction hyperparameters")
    if not clients:
        raise EvaluationError("no clients to evaluate")
    hyper = mode.recon_hyper
    per_repeat: list[dict[str, float]] = []
    take = min(mode.clients_per_repeat, len(clients))
    for rep in range(mode.repeats):
        sample_rng = streams.generator(rep, namespace + ":sample")
        chosen = sorted(sample_rng.choice(len(clients), size=take, replace=False).tolist())
        sample = [clients[ci] for ci in chosen]
        per_client: list[dict[str, Metric]] = []
        for owners in owner_chunks(spec, g, take):
            try:
                cohort, stacked = reconstruct_cohort(
                    spec, g, sample[owners], policy, hyper, streams, rep, namespace=namespace + ":"
                )
            except NumericalError as e:
                raise NumericalError(f"repeat {rep}, {e}") from e
            per_client += cohort_metrics(spec, g, stacked, cohort)
        per_repeat.append(_finalize_with_macro(per_client))

    keys = sorted({k for rep in per_repeat for k in rep})
    metrics: dict[str, float] = {}
    for k in keys:
        vals = np.array([rep[k] for rep in per_repeat if k in rep])
        metrics[k] = float(vals.mean())
        metrics[k + "_stddev"] = float(vals.std())
    return EvalResult(metrics=metrics, per_repeat=per_repeat)


# ---------------------------------------------------------------------------
# Communication accounting (parameters, not bytes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommRecord:
    """Per-round ledger entry: parameters sent to and from all clients.

    Partially local rounds move 2|g| per client; full-aggregation rounds
    move 2(|g| + |l_i|) per client i.
    """

    algorithm: str
    round: int
    num_clients: int
    global_params: int
    local_params_total: int

    @property
    def params_down(self) -> int:
        return self.num_clients * self.global_params + self.local_params_total

    @property
    def params_up(self) -> int:
        return self.num_clients * self.global_params + self.local_params_total

    @property
    def params_total(self) -> int:
        return self.params_down + self.params_up


def comm_ledger_report(records: Sequence[CommRecord]) -> dict[str, dict]:
    """Cumulative parameters communicated per algorithm, in round order."""
    report: dict[str, dict] = {}
    for rec in records:
        entry = report.setdefault(rec.algorithm, {"rounds": [], "per_round": []})
        entry["rounds"].append(rec.round)
        entry["per_round"].append(rec.params_total)
    for entry in report.values():
        entry["cumulative"] = np.cumsum(entry["per_round"]).tolist()
        entry["total"] = int(entry["cumulative"][-1]) if entry["cumulative"] else 0
    return report


def params_to_reach(
    cumulative_params: Sequence[int],
    metric_values: Sequence[float],
    level: float,
    *,
    higher_is_better: bool = True,
) -> int | None:
    """Cumulative parameter count at which the metric first reaches `level`."""
    for params, value in zip(cumulative_params, metric_values):
        if (value >= level) if higher_is_better else (value <= level):
            return int(params)
    return None
