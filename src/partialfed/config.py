"""Declarative experiment configuration.

A configuration is a JSON document (or the equivalent command-line flags;
flags win).  Unknown keys are rejected outright, every field is
range-checked, and the fully resolved configuration is embedded in the run
manifest so any run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .client import ClientHyper, SplitPolicy
from .data import SyntheticDataConfig
from .errors import ConfigError
from .evaluation import EvalMode
from .models import ModelConfig
from .server import ServerOptimizer

__all__ = [
    "EvalConfig",
    "DataConfig",
    "CentralizedConfig",
    "ExperimentConfig",
    "MATFAC_GRID",
    "load_config",
    "config_from_dict",
    "config_to_dict",
]

TASKS = ("matfac", "oov_nwp", "synthetic")
ALGORITHMS = ("fedrecon", "fedavg", "centralized")

# Standard tuning grid for the rating task: server rate x reconstruction
# rate x client-update rate, selected by final validation RMSE.
MATFAC_GRID = {
    "server.eta_s": [0.1, 0.5, 1.0],
    "client.eta_r": [0.1, 0.5],
    "client.eta_u": [0.1, 0.5],
}


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation schedule.  ``every`` > 0 adds a validation eval each N
    rounds (``valid_repeats`` samples); the final validation/test evals use
    ``repeats`` samples of ``clients_per_repeat`` clients (reconstruction
    regime)."""

    regime: str = "recon"
    repeats: int = 50
    clients_per_repeat: int = 50
    every: int = 0
    valid_repeats: int = 1
    k_r: int | None = None
    eta_r: float | None = None

    def __post_init__(self):
        if self.regime not in ("recon", "standard"):
            raise ConfigError(f"eval.regime must be recon or standard, got {self.regime!r}")
        if self.repeats < 1 or self.clients_per_repeat < 1:
            raise ConfigError("eval.repeats and eval.clients_per_repeat must be positive")
        if self.every < 0:
            raise ConfigError("eval.every must be nonnegative")
        if self.valid_repeats < 1:
            raise ConfigError("eval.valid_repeats must be positive")
        if self.k_r is not None and self.k_r < 0:
            raise ConfigError("eval.k_r must be nonnegative")
        if self.eta_r is not None and not 0 < self.eta_r < math.inf:
            raise ConfigError("eval.eta_r must be finite and positive")


@dataclass(frozen=True)
class DataConfig:
    path: str | None = None
    max_sentences_per_client: int = 1000
    synthetic: SyntheticDataConfig = field(default_factory=SyntheticDataConfig)

    def __post_init__(self):
        if self.max_sentences_per_client < 1:
            raise ConfigError("data.max_sentences_per_client must be positive")


@dataclass(frozen=True)
class CentralizedConfig:
    epochs: int = 20
    batch_size: int = 300
    rate: float = 0.5

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("centralized.epochs must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("centralized.batch_size must be positive")
        if not 0 < self.rate < math.inf:
            raise ConfigError("centralized.rate must be finite and positive")


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "matfac"
    algorithm: str = "fedrecon"
    seed: int = 17
    rounds: int = 500
    clients_per_round: int = 100
    repeats: int = 1
    split: SplitPolicy = field(default_factory=SplitPolicy)
    client: ClientHyper = field(default_factory=ClientHyper)
    server: ServerOptimizer = field(default_factory=ServerOptimizer)
    eval: EvalConfig = field(default_factory=EvalConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    centralized: CentralizedConfig = field(default_factory=CentralizedConfig)
    output_dir: str = "runs"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.rounds < 0:
            raise ConfigError("rounds must be nonnegative")
        if self.clients_per_round < 1:
            raise ConfigError("clients_per_round must be positive")
        if self.repeats < 1:
            raise ConfigError("repeats must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.algorithm == "fedrecon" and self.eval.regime != "recon":
            raise ConfigError(
                "fedrecon stores no local parameters, so standard evaluation "
                "is undefined; use eval.regime recon"
            )

    def eval_hyper(self) -> ClientHyper:
        """Reconstruction hyperparameters used at evaluation time."""
        k_r = self.client.k_r if self.eval.k_r is None else self.eval.k_r
        eta_r = self.client.eta_r if self.eval.eta_r is None else self.eval.eta_r
        return dataclasses.replace(self.client, k_r=k_r, eta_r=eta_r, joint_training=False)

    def eval_mode(self, repeats: int | None = None) -> EvalMode:
        """Reconstruction evaluation under :meth:`eval_hyper`, ``repeats``
        samples (``eval.repeats`` by default) of ``eval.clients_per_repeat``."""
        return EvalMode(
            kind="recon_eval",
            recon_hyper=self.eval_hyper(),
            repeats=self.eval.repeats if repeats is None else repeats,
            clients_per_repeat=self.eval.clients_per_repeat,
        )


# Per-task defaults applied beneath file values and flags.  The rating task
# carries the standard settings (dim 50, batch 5, 500 rounds of 100
# clients, up to 50 reconstruction/update steps); the desk-scale tasks are
# sized to finish in seconds.
_TASK_DEFAULTS: dict[str, dict] = {
    "matfac": {
        # Reported numbers for this task average 3 reruns with derived seeds;
        # pass --repeats 1 for a single training run.
        "repeats": 3,
        "client": {"k_r": 50, "k_u": 50, "eta_r": 0.1, "eta_u": 0.1, "batch_size": 5},
        "server": {"kind": "sgd", "eta_s": 1.0},
        "eval": {"repeats": 50, "clients_per_repeat": 50},
    },
    "synthetic": {
        "rounds": 150,
        "clients_per_round": 30,
        "model": {"embed_dim": 8, "init_stddev": 0.35},
        "client": {"k_r": 20, "k_u": 20, "eta_r": 0.5, "eta_u": 0.05},
        "server": {"eta_s": 1.0},
        "eval": {"repeats": 10, "clients_per_repeat": 30},
    },
    "oov_nwp": {
        "rounds": 60,
        "clients_per_round": 8,
        "model": {"embed_dim": 16, "vocab_size": 48, "num_oov_buckets": 500},
        "client": {
            "k_r": 10,
            "k_u": 10,
            "eta_r": 0.5,
            "eta_u": 0.5,
            "batch_size": 16,
        },
        "server": {"kind": "yogi", "eta_s": 0.1},
        "split": {"kind": "by_timestamp_half"},
        "eval": {"repeats": 5, "clients_per_repeat": 8},
    },
}

def _check_scalar(hint, value, where: str) -> None:
    """Reject a value of the wrong kind for a field typed bool, str, int or
    float (optionally None): a bool must be a bool, a string a string, and
    a number a finite one, never a bool."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return
    if bool in kinds:
        ok, need = isinstance(value, bool), "true or false"
    elif str in kinds:
        ok, need = isinstance(value, str), "a string"
    elif float in kinds:
        ok, need = isinstance(value, numbers.Real) and math.isfinite(value), "a finite number"
    elif int in kinds:
        ok, need = isinstance(value, numbers.Integral), "an integer"
    else:
        return
    if not ok or (isinstance(value, bool) and bool not in kinds):
        raise ConfigError(f"{where} must be {need}, got {value!r}")


def _dataclass_from_dict(cls, values: Mapping[str, Any], path: str):
    unknown = set(values) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path or 'config'}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name not in values:
            continue
        v = values[f.name]
        where = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(hints[f.name]):
            if not isinstance(v, Mapping):
                raise ConfigError(f"section {where!r} must be a mapping")
            kwargs[f.name] = _dataclass_from_dict(hints[f.name], v, where)
        else:
            _check_scalar(hints[f.name], v, where)
            kwargs[f.name] = v
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"bad value in {path or 'config'}: {e}") from e


def _deep_merge(base: dict, extra: Mapping) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, Mapping) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _set_dotted(tree: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = tree
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {dotted}: {p} is not a section")
    node[parts[-1]] = value


def config_from_dict(values: Mapping[str, Any]) -> ExperimentConfig:
    """Build and validate a configuration; unknown keys and values of the
    wrong type fail fast."""
    return _dataclass_from_dict(ExperimentConfig, values, "")


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON-ready inverse of :func:`config_from_dict`."""
    return dataclasses.asdict(config)


def load_config(
    path: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentConfig:
    """Resolve task defaults, then the config file, then flag overrides
    (dotted keys such as ``client.eta_r``), strongest last."""
    file_values: dict = {}
    if path is not None:
        try:
            file_values = json.loads(Path(path).read_text())
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {path}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")

    override_tree: dict = {}
    for dotted, value in (overrides or {}).items():
        if value is not None:
            _set_dotted(override_tree, dotted, value)

    task = override_tree.get("task") or file_values.get("task") or "matfac"
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    merged = _deep_merge(_TASK_DEFAULTS[task], file_values)
    merged = _deep_merge(merged, override_tree)
    merged["task"] = task
    config = config_from_dict(merged)
    # A task's default server.eta_s suits its default optimizer kind only:
    # sgd's 1.0 makes an adaptive step that diverges.
    default = ServerOptimizer(**_TASK_DEFAULTS[task].get("server", {}))
    rate_given = any(
        isinstance(v.get("server"), Mapping) and "eta_s" in v["server"]
        for v in (file_values, override_tree)
    )
    if config.server.kind != default.kind and not rate_given:
        raise ConfigError(
            f"server.eta_s must be given when server.kind changes from the task's "
            f"{default.kind!r} to {config.server.kind!r}: its default {default.eta_s} "
            f"is {default.kind}'s"
        )
    return config
