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
from .errors import ConfigError
from .evaluation import EvalMode
from .server import ServerOptimizer

__all__ = [
    "EvalConfig",
    "SyntheticDataConfig",
    "DataConfig",
    "ModelConfig",
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
class SyntheticDataConfig:
    # low-rank ratings (tasks: synthetic)
    num_users: int = 300
    num_items: int = 80
    true_rank: int = 6
    noise_std: float = 0.5
    ratings_per_user: int = 40
    signal_std: float = 0.7
    user_bias_std: float = 0.15
    # slang corpus (task: oov_nwp without a data path)
    num_clients: int = 32
    sentences_per_client: int = 40
    personal_tokens: int = 6
    common_words: int = 42
    pairs_per_sentence: int = 3

    def __post_init__(self):
        # Spreads may be 0; every count must be positive.
        for f in fields(self):
            spread = f.name.endswith("_std")
            if getattr(self, f.name) < (0 if spread else 1):
                need = "nonnegative" if spread else "positive"
                raise ConfigError(f"data.synthetic.{f.name} must be {need}")


@dataclass(frozen=True)
class DataConfig:
    path: str | None = None
    max_sentences_per_client: int = 1000
    synthetic: SyntheticDataConfig = field(default_factory=SyntheticDataConfig)

    def __post_init__(self):
        if self.max_sentences_per_client < 1:
            raise ConfigError("data.max_sentences_per_client must be positive")


@dataclass(frozen=True)
class ModelConfig:
    """Model hyperparameters; the rating tasks read ``embed_dim`` and
    ``init_stddev``, the next-word task reads the remaining fields too."""

    embed_dim: int = 50
    init_stddev: float = 0.1
    vocab_size: int = 1000
    num_oov_buckets: int = 500
    context_window: int = 3
    max_sentence_len: int = 20

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ConfigError("model.embed_dim must be positive")
        if not 0 < self.init_stddev < math.inf:
            raise ConfigError("model.init_stddev must be finite and positive")
        if self.vocab_size < 1:
            raise ConfigError("model.vocab_size must be positive")
        if self.num_oov_buckets < 0:
            raise ConfigError("model.num_oov_buckets must be nonnegative")
        if self.context_window < 1:
            raise ConfigError("model.context_window must be positive")
        if self.max_sentence_len < 3:
            raise ConfigError("model.max_sentence_len must fit bos + token + eos (3)")


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

# Optimizer state never belongs in a configuration document.
_EXCLUDED_FIELDS = {"server": ("first_moment", "second_moment")}


def _check_number(hint, value, where: str) -> None:
    """Reject a bool, a non-number or a non-finite value for a field typed
    int or float (optionally None)."""
    kinds = typing.get_args(hint) or (hint,)
    if (int not in kinds and float not in kinds) or (value is None and type(None) in kinds):
        return
    if float in kinds:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
        need = "a finite number"
    else:
        ok = isinstance(value, numbers.Integral)
        need = "an integer"
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{where} must be {need}, got {value!r}")


def _dataclass_from_dict(cls, values: Mapping[str, Any], path: str):
    allowed = {f.name for f in fields(cls)} - set(_EXCLUDED_FIELDS.get(path, ()))
    unknown = set(values) - allowed
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
            _check_number(hints[f.name], v, where)
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

    def encode(obj, path: str):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            excluded = _EXCLUDED_FIELDS.get(path, ())
            return {
                f.name: encode(getattr(obj, f.name), f"{path}.{f.name}" if path else f.name)
                for f in fields(obj)
                if f.name not in excluded
            }
        if isinstance(obj, tuple):
            return list(obj)
        return obj

    out = {}
    for f in fields(ExperimentConfig):
        out[f.name] = encode(getattr(config, f.name), f.name)
    return out


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
    merged = _deep_merge(_TASK_DEFAULTS.get(task, {}), file_values)
    merged = _deep_merge(merged, override_tree)
    merged["task"] = task
    return config_from_dict(merged)
