"""Which simulator functions the traced run wraps, and the per-layer
metrics derived from their spans."""

from __future__ import annotations

import dataclasses
import sys

from partialfed import baselines, client, core, data, evaluation, runner, server
from partialfed.client import RowDelta

from tracer import TRACED_MARK, Tracer

MODULE_FUNCTIONS = (
    (runner, "prepare_task"),
    (data, "gen_synthetic_mf"),
    (data, "gen_synthetic_corpus"),
    (data, "corpus_to_clients"),
    (data, "split_users"),
    (data, "split_each_client_by_time"),
    (core, "axpy_blocks"),
    (client, "split_dataset"),
    (client, "batch_schedule"),
    (client, "reconstruct"),
    (client, "client_update"),
    (client, "run_client_round"),
    (server, "sample_clients"),
    (server, "aggregate"),
    (server, "server_step"),
    (server, "run_training"),
    (evaluation, "recon_eval"),
    (evaluation, "standard_eval"),
    (baselines, "train_fedavg"),
    (baselines, "train_centralized"),
)
MODEL_KERNELS = ("loss", "grad_local", "grad_global", "sparse_grads", "metrics", "fast_centralized")
STEP_KERNELS = ("models.loss", "models.grad_local", "models.grad_global", "models.sparse_grads")
CLIENT_STEPPERS = ("client.reconstruct", "client.client_update")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


SPAN_NAMES = (
    [f"{_short(m)}.{a}" for m, a in MODULE_FUNCTIONS]
    + ["core.ParamBlock.built", "core.RngStreams.generator"]
    + [f"models.{k}" for k in MODEL_KERNELS]
)


def _set_round(tracer: Tracer):
    def before(args, kwargs):
        tracer.ctx_id = int(kwargs["round_idx"] if "round_idx" in kwargs else args[3])

    return before


def _set_eval_repeat(tracer: Tracer):
    # recon_eval draws each repeat's client sample from the stream
    # (repeat, "<namespace>:sample"); that call marks the repeat boundary.
    def before(args, kwargs):
        parts = args[1:]
        if len(parts) == 2 and isinstance(parts[1], str) and parts[1].endswith(":sample"):
            tracer.ctx_id = int(parts[0])

    return before


def _steps(args, kwargs, result) -> float:
    return float(len(result))


def _rows_touched_share(args, kwargs, result) -> float:
    """Rows the client delta carries over rows of the global blocks; a
    dense delta carries every row."""
    g = args[1] if len(args) > 1 else kwargs["g"]
    touched = total = 0
    for entry, block in zip(result.delta, g):
        rows = block.shape[0]
        total += rows
        touched += len(entry.rows) if isinstance(entry, RowDelta) else rows
    return touched / total


def install(tracer: Tracer) -> None:
    """Wrap every layer function where its callers look it up."""
    hooks = {
        "sample_clients": {"before": _set_round(tracer)},
        "batch_schedule": {"measure": _steps},
        "client_update": {"measure": _rows_touched_share},
    }
    for module, attr in MODULE_FUNCTIONS:
        tracer.patch_function(module, attr, f"{_short(module)}.{attr}", **hooks.get(attr, {}))
    tracer.patch(
        core.ParamBlock,
        "__post_init__",
        tracer.wrap("core.ParamBlock.built", core.ParamBlock.__post_init__),
    )
    tracer.patch(
        core.RngStreams,
        "generator",
        tracer.wrap(
            "core.RngStreams.generator",
            core.RngStreams.generator,
            before=_set_eval_repeat(tracer),
        ),
    )


def traced_spec(tracer: Tracer, spec):
    """A copy of the model spec whose kernels record spans."""
    kernels = {
        name: tracer.wrap(f"models.{name}", getattr(spec, name))
        for name in MODEL_KERNELS
        if getattr(spec, name) is not None
    }
    return dataclasses.replace(spec, **kernels)


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a tracing wrapper; empty after
    :meth:`Tracer.restore`, so an untraced pass measures the plain code."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "partialfed"]
    owners += [core.ParamBlock, core.RngStreams]
    return [
        f"{getattr(o, '__name__', o)}.{k}"
        for o in owners
        for k, v in vars(o).items()
        if getattr(v, TRACED_MARK, False)
    ]


def layer_metrics(tracer: Tracer, table: dict, comm_params_total: int) -> dict[str, float]:
    """Every ``<layer>.<function>.<stat>`` of ``tracer.layer_table()``, plus
    the derived ratios and the ledger count."""
    flat = {
        f"{name}.{stat}": value for name, row in table.items() for stat, value in row.items()
    }
    for name in SPAN_NAMES:
        for stat in ("calls", "total_ms", "self_ms", "us_per_call"):
            flat.setdefault(f"{name}.{stat}", 0)

    def values(name, parents):
        return [tracer.value[i] for i in tracer.by_parent(name, parents)]

    recon_steps = sum(values("client.batch_schedule", ["client.reconstruct"]))
    client_steps = recon_steps + sum(values("client.batch_schedule", ["client.client_update"]))
    step_calls = sum(len(tracer.by_parent(k, CLIENT_STEPPERS)) for k in STEP_KERNELS)
    recon_losses = len(tracer.by_parent("models.loss", ["client.reconstruct"]))
    names = tracer.span_names()
    shares = [tracer.value[i] for i, n in enumerate(names) if n == "client.client_update"]
    flat["models.calls_per_step"] = step_calls / client_steps if client_steps else 0.0
    flat["client.reconstruct.steps"] = int(recon_steps)
    flat["client.reconstruct.loss_evals_per_step"] = (
        recon_losses / recon_steps if recon_steps else 0.0
    )
    flat["client.client_update.rows_touched_share"] = sum(shares) / len(shares) if shares else 0.0
    flat["evaluation.comm_params_total"] = int(comm_params_total)
    return flat
