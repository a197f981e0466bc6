"""Evaluation regimes and the communication ledger.

Standard evaluation scores seen clients with their stored local parameters;
reconstruction evaluation scores (typically unseen) clients by first
rebuilding local parameters from their support half, exactly as clients do
during training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .client import (
    ClientHyper,
    SplitPolicy,
    _reconstructed,
    _split_and_seed,
    cohort_metrics,
    owner_chunks,
    split_cohort,
)
from .core import (
    Blocks,
    ClientDataset,
    LocalTables,
    Metric,
    ModelSpec,
    ParamBlock,
    RngStreams,
    finalize_metrics,
    merge_metrics,
    owner_rows,
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
    """The settings of :func:`recon_eval`; ``kind`` names it and takes no
    other value (:func:`standard_eval` takes no mode)."""

    kind: str = "recon_eval"
    recon_hyper: ClientHyper | None = None
    repeats: int = 1
    clients_per_repeat: int = 50

    def __post_init__(self):
        if self.kind != "recon_eval":
            raise ConfigError(f"eval kind must be recon_eval, got {self.kind!r}")
        if self.repeats < 1 or self.clients_per_repeat < 1:
            raise ConfigError("repeats and clients_per_repeat must be positive")
        if self.recon_hyper is None:
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
    stored: LocalTables | None,
    eval_sets: Sequence[ClientDataset],
) -> dict[str, float]:
    """Score each client's held-out examples with its stored local
    parameters; metrics weight every example equally, with per-client
    macro-averages emitted alongside.  The clients are scored in owner-axis
    calls (:func:`cohort_metrics`) over the slices of :func:`owner_chunks`,
    each gathering its clients' rows of the tables at once."""
    if stored is None:
        raise EvaluationError("the run stored no local parameters; use recon_eval")
    sets = [ds for ds in eval_sets if ds.n > 0]
    try:
        rows = stored.rows([ds.client_id for ds in sets])
    except KeyError as e:
        raise EvaluationError(
            f"client {e.args[0]} has no stored local parameters; "
            "use recon_eval for unseen clients"
        ) from None
    if not sets:
        raise EvaluationError("no clients with evaluation examples")
    per_client: list[dict[str, Metric]] = []
    for owners in owner_chunks(spec, g, len(sets)):
        cohort = split_cohort(sets[owners], SplitPolicy(kind="no_split"))
        per_client += cohort_metrics(spec, g, stored.take(rows[owners]), cohort)
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
    from the support half, and score the query half.  Repeats over fresh
    client samples, each drawn from its ``(repeat, namespace + ":sample")``
    stream; the result carries the across-repeat mean and stddev.

    All repeats run as one cohort, repeat after repeat, a client sampled
    in two repeats being two owners.  The cohort is split, and each stream
    purpose seeded, once, client ``c`` of repeat ``r`` drawing from ``(r,
    client id, namespace + ":" + purpose)``; it reconstructs over the
    slices of :func:`owner_chunks`, which may straddle repeats.  Each
    repeat is scored in the calls a cohort of its own sample makes, one
    per owner chunk of it, so its metrics do not depend on the other
    repeats.  Never reads or writes any training state."""
    if not clients:
        raise EvaluationError("no clients to evaluate")
    take = min(mode.clients_per_repeat, len(clients))
    sample = [
        clients[ci]
        for rep in range(mode.repeats)
        for ci in sorted(
            streams.generator(rep, namespace + ":sample")
            .choice(len(clients), size=take, replace=False)
            .tolist()
        )
    ]
    reps = np.repeat(np.arange(mode.repeats), take)
    cohort, init, batches = _split_and_seed(sample, policy, streams, reps, namespace + ":")
    scoring = [
        slice(rep * take + s.start, rep * take + min(s.stop, take))
        for rep in range(mode.repeats)
        for s in owner_chunks(spec, g, take)
    ]
    per_client: list[dict[str, Metric]] = []
    lo, held = 0, []  # reconstructed locals of owners lo, lo + 1, ... not yet scored
    for owners in owner_chunks(spec, g, len(sample)):
        try:
            stacked = _reconstructed(
                spec, g, cohort.window(owners), mode.recon_hyper, init[owners], batches[owners]
            )
        except NumericalError as e:
            raise NumericalError(f"repeat {reps[owners.start + (e.owner or 0)]}, {e}") from e
        if lo < owners.start:  # a scoring call's first owners came from the last chunk
            joined = [np.concatenate([h.array, b.array]) for h, b in zip(held, stacked)]
            stacked = [ParamBlock(b.name, a, a.shape) for b, a in zip(stacked, joined)]
        held, hi = stacked, min(owners.stop, len(sample))
        while scoring and scoring[0].stop <= hi:
            s = scoring.pop(0)
            rows = owner_rows(held, slice(s.start - lo, s.stop - lo))
            per_client += cohort_metrics(spec, g, rows, cohort.window(s))
        if scoring and scoring[0].start < hi:
            held, lo = owner_rows(held, slice(scoring[0].start - lo, None)), scoring[0].start
        else:
            lo = hi
    per_repeat = [
        _finalize_with_macro(per_client[start : start + take])
        for start in range(0, len(sample), take)
    ]

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
