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
    _unsplit_cohort,
    cohort_metrics,
    owner_chunks,
)
from .core import (
    Blocks,
    ClientDataset,
    LocalTables,
    Metric,
    ModelSpec,
    RngStreams,
    _join_metrics,
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


def _finalize_with_macro(stats: dict[str, Metric], client_ids: Sequence[int]) -> dict[str, float]:
    """The clients' metrics, arrays over the clients, merged, each key with
    its mean over the clients as ``key + "_macro"``.  A client's non-finite
    value raises :class:`NumericalError` naming it (``client_ids[c]`` for
    entry ``c``); a merged key of zero weight is a legitimate nan."""
    out = finalize_metrics(merge_metrics([stats]))
    per_client = finalize_metrics(stats)
    for key in list(out):
        vals = per_client[key]
        bad = ~np.isfinite(vals)
        if bad.any():
            c = int(np.argmax(bad))
            raise NumericalError(f"client {int(client_ids[c])}: non-finite {key} ({vals[c]})")
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
    sizes = np.array([ds.n for ds in eval_sets], dtype=np.int64)
    sets = [eval_sets[c] for c in np.flatnonzero(sizes).tolist()]
    try:
        rows = stored.rows([ds.client_id for ds in sets])
    except KeyError as e:
        raise EvaluationError(
            f"client {e.args[0]} has no stored local parameters; "
            "use recon_eval for unseen clients"
        ) from None
    if not sets:
        raise EvaluationError("no clients with evaluation examples")
    cohort = _unsplit_cohort(sets, sizes[sizes > 0])
    stats = _join_metrics([
        cohort_metrics(spec, g, stored.take(rows[owners]), cohort.window(owners))
        for owners in owner_chunks(spec, g, len(sets))
    ])
    return _finalize_with_macro(stats, cohort.client_ids)


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
    client id, namespace + ":" + purpose)``.  It is reconstructed and
    scored as a round is, one batched call per slice of
    :func:`owner_chunks`, which may straddle repeats: a client's scores do
    not depend on who shares its call.  A non-finite score names the
    repeat and the client.  Never reads or writes any training state."""
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
    scored: list[dict[str, Metric]] = []
    for owners in owner_chunks(spec, g, len(sample)):
        chunk = cohort.window(owners)
        try:
            stacked = _reconstructed(
                spec, g, chunk, mode.recon_hyper, init[owners], batches[owners]
            )
        except NumericalError as e:
            raise NumericalError(f"repeat {reps[owners.start + (e.owner or 0)]}, {e}") from e
        scored.append(cohort_metrics(spec, g, stacked, chunk))
    stats = _join_metrics(scored)
    per_repeat = []
    for rep in range(mode.repeats):
        owners = slice(rep * take, (rep + 1) * take)
        sample_stats = {k: Metric(m.value[owners], m.weight[owners]) for k, m in stats.items()}
        try:
            per_repeat.append(_finalize_with_macro(sample_stats, cohort.client_ids[owners]))
        except NumericalError as e:
            raise NumericalError(f"repeat {rep}, {e}") from e

    metrics: dict[str, float] = {}
    for k in sorted(per_repeat[0]):  # every repeat scores the same keys
        vals = np.array([rep[k] for rep in per_repeat])
        metrics[k], metrics[k + "_stddev"] = float(vals.mean()), float(vals.std())
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
