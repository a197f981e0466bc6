"""The benchmark's own arithmetic: percentiles, throughputs and the
communication-ledger formula.  Kept free of simulator imports so the
self-tests can check it in isolation."""

from __future__ import annotations

import statistics
from typing import Sequence

PERCENTILE_GRID = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def reportable_percentile(n: int) -> float | None:
    """Highest percentile of ``PERCENTILE_GRID`` with at least ten samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_GRID:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def speed_factor(probe_samples: Sequence[float], reference_s: float) -> float:
    """How much slower than the reference the machine ran: the mean probe
    duration over the reference duration."""
    return statistics.fmean(probe_samples) / reference_s


def per_second(count: float, seconds: float) -> float:
    if seconds <= 0:
        raise ValueError("a phase took no measurable time")
    return count / seconds


def ledger_params(
    algorithm: str,
    rounds: int,
    clients_per_round: int,
    global_size: int,
    local_size: int,
) -> int:
    """Parameters moved over a training phase: 2|g| per client per round
    for partially local training, 2(|g| + |l|) for full aggregation."""
    per_client = global_size + (local_size if algorithm == "fedavg" else 0)
    return 2 * per_client * clients_per_round * rounds
