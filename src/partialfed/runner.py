"""Config-driven experiment execution.

A run writes three artifacts into its output directory:

* ``metrics.csv`` -- one row per (round, split, metric), with a running
  count of parameters communicated, written by :func:`write_csv` like every
  result table;
* ``manifest.json`` -- the fully resolved config, seed, and code version;
  re-running a manifest reproduces the CSV byte-for-byte;
* ``params.bin`` -- final global parameters: a JSON header line naming the
  blocks and shapes, followed by the concatenated row-major values as
  little-endian 64-bit floats.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .baselines import train_centralized, train_fedavg
from .config import (
    ExperimentConfig,
    MATFAC_GRID,
    _set_dotted,
    config_from_dict,
    config_to_dict,
)
from .core import ClientDataset, ModelSpec, ParamBlock, RngStreams
from .data import (
    MovieLensData,
    SyntheticMFConfig,
    corpus_to_clients,
    gen_synthetic_corpus,
    gen_synthetic_mf,
    load_token_corpus,
    parse_movielens,
    split_each_client_by_time,
    split_users,
)
from .errors import ConfigError, DataError, NumericalError
from .evaluation import recon_eval, standard_eval
from .models import MatFacConfig, NwpConfig, matfac_spec, oov_nwp_spec
from .server import init_local_store, run_training

__all__ = [
    "NWP_GRID",
    "TaskBundle",
    "prepare_task",
    "RunOutput",
    "ExperimentResult",
    "run_experiment",
    "rerun_manifest",
    "apply_overrides",
    "GridSearchResult",
    "grid_search",
    "SweepResult",
    "sweep_steps",
    "tradeoff_curves",
    "write_params",
    "read_params",
    "write_csv",
]

NWP_GRID = {
    "server.eta_s": [0.01, 0.1, 0.3],
    "client.eta_r": [0.1, 0.3],
    "client.eta_u": [0.1, 0.3],
}

CSV_COLUMNS = ["round", "split", "metric", "value", "cumulative_params_communicated"]

_SPLIT_ORDER = {"train": 0, "valid": 1, "test": 2}


# ---------------------------------------------------------------------------
# Task preparation
# ---------------------------------------------------------------------------


@dataclass
class TaskBundle:
    spec: ModelSpec
    train_clients: dict[int, ClientDataset]
    val_clients: list[ClientDataset]
    test_clients: list[ClientDataset]
    regime: str


def _load_rating_clients(config: ExperimentConfig) -> tuple[list[ClientDataset], int]:
    if config.task == "matfac":
        if config.data.path is None:
            raise DataError(
                "task 'matfac' needs data.path pointing at a MovieLens 1M "
                "ratings.dat file (downloaded separately)"
            )
        ml: MovieLensData = parse_movielens(config.data.path)
        return ml.clients, ml.num_items
    syn = config.data.synthetic
    clients, _, _ = gen_synthetic_mf(
        SyntheticMFConfig(
            num_users=syn.num_users,
            num_items=syn.num_items,
            true_rank=syn.true_rank,
            noise_std=syn.noise_std,
            ratings_per_user=syn.ratings_per_user,
            seed=config.seed,
            signal_std=syn.signal_std,
            user_bias_std=syn.user_bias_std,
        )
    )
    return clients, syn.num_items


def prepare_task(config: ExperimentConfig) -> TaskBundle:
    """Load data and build the model for one experiment.

    Dataset construction and the train/validation/test partition derive
    from the base config seed, so repeated runs and matched-seed algorithm
    comparisons see identical data.
    """
    if config.task in ("matfac", "synthetic"):
        clients, num_items = _load_rating_clients(config)
        spec = matfac_spec(
            MatFacConfig(
                num_items=num_items,
                embed_dim=config.model.embed_dim,
                init_stddev=config.model.init_stddev,
            )
        )
    else:
        nwp_cfg = NwpConfig(
            vocab_size=config.model.vocab_size,
            num_oov_buckets=config.model.num_oov_buckets,
            embed_dim=config.model.embed_dim,
            context_window=config.model.context_window,
            max_sentence_len=config.model.max_sentence_len,
            init_stddev=config.model.init_stddev,
        )
        if config.data.path is not None:
            clients, _, _ = load_token_corpus(
                config.data.path,
                nwp_cfg,
                max_sentences_per_client=config.data.max_sentences_per_client,
            )
        else:
            syn = config.data.synthetic
            records = gen_synthetic_corpus(
                num_clients=syn.num_clients,
                sentences_per_client=syn.sentences_per_client,
                personal_tokens=syn.personal_tokens,
                common_words=syn.common_words,
                pairs_per_sentence=syn.pairs_per_sentence,
                seed=config.seed,
            )
            clients, _, _ = corpus_to_clients(
                records, nwp_cfg, max_sentences_per_client=config.data.max_sentences_per_client
            )
        spec = oov_nwp_spec(nwp_cfg)

    base_streams = RngStreams(config.seed)
    if config.eval.regime == "recon":
        train, val, test = split_users(clients, base_streams.generator("user_split"))
        bundle = TaskBundle(
            spec=spec,
            train_clients={c.client_id: c for c in train},
            val_clients=val,
            test_clients=test,
            regime="recon",
        )
    else:
        train_clients, val_sets, test_sets = {}, [], []
        for ds in clients:
            tr, va, te = split_each_client_by_time(ds)
            if tr.n:
                train_clients[ds.client_id] = tr
            if va.n:
                val_sets.append(va)
            if te.n:
                test_sets.append(te)
        bundle = TaskBundle(
            spec=spec,
            train_clients=train_clients,
            val_clients=val_sets,
            test_clients=test_sets,
            regime="standard",
        )
    for name, part in (
        ("training", bundle.train_clients),
        ("validation", bundle.val_clients),
        ("test", bundle.test_clients),
    ):
        if not part:
            raise ConfigError(
                f"{len(clients)} clients leave the {name} split empty under "
                f"eval.regime {config.eval.regime}; use a larger population"
            )
    return bundle


# ---------------------------------------------------------------------------
# Single run
# ---------------------------------------------------------------------------


@dataclass
class RunOutput:
    rows: list[tuple]
    final_metrics: dict[str, dict[str, float]]
    global_params: list[ParamBlock]
    local_store: dict[int, list[ParamBlock]] | None
    cumulative_params: int


def _metric_rows(round_idx, split, metrics, cumulative):
    return [
        (int(round_idx), split, key, float(value), int(cumulative))
        for key, value in sorted(metrics.items())
    ]


def _execute(config: ExperimentConfig, run_seed: int, bundle: TaskBundle) -> RunOutput:
    spec = bundle.spec
    streams = RngStreams(run_seed)
    rows: list[tuple] = []

    def eval_metrics(g, clients_or_sets, *, repeats, namespace, local_store=None):
        if bundle.regime == "recon":
            return recon_eval(
                spec, g, clients_or_sets, config.split, config.eval_mode(repeats), streams,
                namespace=namespace,
            ).metrics
        return standard_eval(spec, g, local_store or {}, clients_or_sets)

    g0 = spec.init_global(streams.generator("global_init"))
    init_locals: dict[int, list[ParamBlock]] | None = None
    if bundle.regime == "standard":
        purpose = (
            "server_local_init" if config.algorithm == "fedavg" else "centralized_local_init"
        )
        init_locals = init_local_store(spec, list(bundle.train_clients), streams, purpose)

    if config.algorithm == "centralized":
        training_runs = config.centralized.epochs > 0
    else:
        training_runs = config.rounds > 0
    if training_runs:
        rows.extend(
            _metric_rows(
                0,
                "valid",
                eval_metrics(
                    g0, bundle.val_clients, repeats=config.eval.valid_repeats,
                    namespace="eval:valid",
                    local_store=init_locals,
                ),
                0,
            )
        )

    mid_valid: list[tuple[int, dict[str, float]]] = []
    cumulative = 0

    if config.algorithm == "centralized":
        g_final, local_store = train_centralized(
            spec,
            bundle.train_clients,
            epochs=config.centralized.epochs,
            batch_size=config.centralized.batch_size,
            rate=config.centralized.rate,
            streams=streams,
        )
        final_round = config.centralized.epochs
    else:

        def on_eval(t, g, store):
            if t + 1 == config.rounds:
                return  # the final evaluation below covers the last round
            mid_valid.append(
                (
                    t + 1,
                    eval_metrics(
                        g, bundle.val_clients, repeats=config.eval.valid_repeats,
                        namespace="eval:valid",
                        local_store=store,
                    ),
                )
            )

        common = dict(
            rounds=config.rounds,
            clients_per_round=min(config.clients_per_round, len(bundle.train_clients)),
            hyper=config.client,
            server_opt=config.server,
            streams=streams,
            eval_fn=on_eval,
            eval_every=config.eval.every,
        )
        if config.algorithm == "fedrecon":
            result = run_training(
                spec, bundle.train_clients, policy=config.split, algorithm="fedrecon", **common
            )
        else:
            result = train_fedavg(spec, bundle.train_clients, **common)
        g_final, local_store = result.global_params, result.local_store

        cum_per_round = np.cumsum([r.params_total for r in result.comm_records]).tolist()
        for report in result.reports:
            rows.extend(
                _metric_rows(
                    report.round + 1,
                    "train",
                    report.train_metrics,
                    cum_per_round[report.round],
                )
            )
        for round_idx, metrics in mid_valid:
            rows.extend(_metric_rows(round_idx, "valid", metrics, cum_per_round[round_idx - 1]))
        cumulative = int(cum_per_round[-1]) if cum_per_round else 0
        final_round = config.rounds

    final_valid = eval_metrics(
        g_final, bundle.val_clients, repeats=config.eval.repeats,
        namespace="eval:valid", local_store=local_store,
    )
    final_test = eval_metrics(
        g_final, bundle.test_clients, repeats=config.eval.repeats,
        namespace="eval:test", local_store=local_store,
    )
    rows.extend(_metric_rows(final_round, "valid", final_valid, cumulative))
    rows.extend(_metric_rows(final_round, "test", final_test, cumulative))
    rows.sort(key=lambda r: (r[0], _SPLIT_ORDER[r[1]], r[2]))

    return RunOutput(
        rows=rows,
        final_metrics={"valid": final_valid, "test": final_test},
        global_params=g_final,
        local_store=local_store,
        cumulative_params=cumulative,
    )


def _average_runs(outputs: Sequence[RunOutput]) -> tuple[list[tuple], dict]:
    """Mean metric values across repeats; rows keep repeat-0 comm counts."""
    first = outputs[0]
    if len(outputs) == 1:
        return first.rows, first.final_metrics
    acc: dict[tuple, list[float]] = {}
    for out in outputs:
        for round_idx, split, metric, value, _ in out.rows:
            acc.setdefault((round_idx, split, metric), []).append(value)
    rows = [
        (round_idx, split, metric, float(np.mean(acc[(round_idx, split, metric)])), cum)
        for round_idx, split, metric, _, cum in first.rows
    ]
    final: dict[str, dict[str, float]] = {}
    for split in first.final_metrics:
        keys = first.final_metrics[split].keys()
        final[split] = {
            k: float(np.mean([out.final_metrics[split][k] for out in outputs])) for k in keys
        }
    return rows, final


def _run_all_repeats(
    config: ExperimentConfig, bundle: TaskBundle | None = None
) -> tuple[list[tuple], dict, RunOutput]:
    bundle = bundle if bundle is not None else prepare_task(config)
    base = RngStreams(config.seed)
    outputs = []
    for rep in range(config.repeats):
        run_seed = config.seed if rep == 0 else base.derive_seed("repeat", rep)
        outputs.append(_execute(config, run_seed, bundle))
    rows, final = _average_runs(outputs)
    return rows, final, outputs[0]


# ---------------------------------------------------------------------------
# Artifact files
# ---------------------------------------------------------------------------


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one result table: comma-separated, CRLF line ends, a float as
    its ``repr`` (so it parses back exactly).  Creates the directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_params(path: str | Path, blocks: Sequence[ParamBlock]) -> None:
    header = json.dumps(
        {
            "dtype": "<f8",
            "layout": "concatenated row-major",
            "blocks": [{"name": b.name, "shape": list(b.shape)} for b in blocks],
        },
        sort_keys=True,
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for b in blocks:
            fh.write(np.ascontiguousarray(b.values, dtype="<f8").tobytes())


def read_params(path: str | Path) -> list[ParamBlock]:
    """The blocks :func:`write_params` wrote; a missing, malformed or
    truncated file is a :class:`DataError`."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot read parameter file {path}: {e.strerror}") from e
    with fh:
        try:
            header = json.loads(fh.readline())
            dtype = header["dtype"]
            entries = [(str(e["name"]), tuple(e["shape"])) for e in header["blocks"]]
        except (ValueError, KeyError, TypeError) as e:
            raise DataError(f"malformed header in parameter file {path}: {e}") from e
        if dtype != "<f8":
            raise DataError(f"unsupported parameter dtype {dtype!r}")
        blocks = []
        for name, shape in entries:
            if any(type(d) is not int or d < 1 for d in shape):
                raise DataError(f"block {name!r}: shape {shape} is not positive integers")
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise DataError(f"truncated parameter file: block {name!r}")
            values = np.frombuffer(raw, dtype="<f8").copy()
            if not np.isfinite(values).all():
                raise DataError(f"parameter file {path}: block {name!r} holds NaN or inf")
            blocks.append(ParamBlock(name, values, shape))
    return blocks


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[tuple]
    final_metrics: dict[str, dict[str, float]]
    output_dir: Path
    csv_path: Path
    manifest_path: Path
    params_path: Path


def run_experiment(
    config: ExperimentConfig, bundle: TaskBundle | None = None
) -> ExperimentResult:
    """Run (with repeats), then write metrics.csv, params.bin, and the
    manifest.  All randomness derives from the manifest seed."""
    rows, final, first = _run_all_repeats(config, bundle)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"
    manifest_path = out_dir / "manifest.json"
    params_path = out_dir / "params.bin"
    write_csv(csv_path, CSV_COLUMNS, rows)
    write_params(params_path, first.global_params)
    manifest = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "version": __version__,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(
        config=config,
        rows=rows,
        final_metrics=final,
        output_dir=out_dir,
        csv_path=csv_path,
        manifest_path=manifest_path,
        params_path=params_path,
    )


def rerun_manifest(manifest_path: str | Path, output_dir: str | Path) -> ExperimentResult:
    """Reproduce a recorded run into a fresh directory."""
    manifest = json.loads(Path(manifest_path).read_text())
    config = config_from_dict(manifest["config"])
    config = replace(config, output_dir=str(output_dir))
    return run_experiment(config)


# ---------------------------------------------------------------------------
# Grid search and step sweeps
# ---------------------------------------------------------------------------


def apply_overrides(config: ExperimentConfig, overrides: Mapping[str, object]) -> ExperimentConfig:
    tree = config_to_dict(config)
    for dotted, value in overrides.items():
        _set_dotted(tree, dotted, value)
    return config_from_dict(tree)


def _selection_metric(config: ExperimentConfig) -> tuple[str, bool]:
    # (metric key, higher_is_better) judged on the validation split
    if config.task in ("matfac", "synthetic"):
        return "rmse", False
    return "accuracy", True


@dataclass
class GridSearchResult:
    best_config: ExperimentConfig
    best_overrides: dict
    best_metrics: dict[str, float]
    entries: list[tuple[dict, dict[str, float]]]


def grid_search(
    config: ExperimentConfig, grid: Mapping[str, Sequence] | None = None
) -> GridSearchResult:
    """Run every grid point and keep the best final validation metric;
    ties go to the earlier point in grid order."""
    if grid is None:
        grid = MATFAC_GRID if config.task in ("matfac", "synthetic") else NWP_GRID
    if not grid:
        raise ConfigError("grid must not be empty")
    bundle = prepare_task(config)
    metric_key, higher = _selection_metric(config)
    keys = list(grid)
    best = None
    entries = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        cfg = apply_overrides(config, overrides)
        try:
            _, final, _ = _run_all_repeats(cfg, bundle)
            value = final["valid"][metric_key]
            valid_metrics = final["valid"]
        except NumericalError:
            # A diverged grid point loses to every finite one.
            value = -np.inf if higher else np.inf
            valid_metrics = {metric_key: value, "diverged": 1.0}
        entries.append((overrides, valid_metrics))
        better = best is None or (value > best[0] if higher else value < best[0])
        if better:
            best = (value, overrides, cfg, valid_metrics)
    if not np.isfinite(best[0]):
        raise NumericalError("every grid point diverged")
    return GridSearchResult(
        best_config=best[2], best_overrides=best[1], best_metrics=best[3], entries=entries
    )


@dataclass
class SweepResult:
    axis: str
    base_value: int
    base_accuracy: float
    rows: list[tuple[int, float, float]]  # (value, accuracy, relative)


def sweep_steps(
    config: ExperimentConfig,
    axis: str,
    values: Sequence[int] | None = None,
    *,
    repeats: int = 1,
) -> SweepResult:
    """Vary reconstruction steps (evaluation-only, reusing the base-trained
    model) or client update steps (retraining per value at the same round
    budget); report accuracy relative to the base configuration.  Each
    training run uses `repeats` averaged reruns (one by default: a sweep
    multiplies training cost by the number of axis values already)."""
    if axis == "k_r":
        values = list(values) if values is not None else [0, 1, 2, 5, 10]
    elif axis == "k_u":
        values = list(values) if values is not None else [1, 2, 5, 10]
    else:
        raise ConfigError(f"sweep axis must be k_r or k_u, got {axis!r}")

    bundle = prepare_task(config)
    cfg = replace(config, repeats=max(1, repeats))

    if axis == "k_r":
        base_value = config.client.k_r
        _, _, out = _run_all_repeats(cfg, bundle)

        def accuracy_at(k_r: int) -> float:
            probe = apply_overrides(cfg, {"eval.k_r": int(k_r)})
            return recon_eval(
                bundle.spec, out.global_params, bundle.test_clients, probe.split,
                probe.eval_mode(), RngStreams(cfg.seed), namespace=f"sweep:k_r:{k_r}",
            ).metrics["accuracy"]
    else:
        base_value = config.client.k_u

        def accuracy_at(k_u: int) -> float:
            _, final, _ = _run_all_repeats(apply_overrides(cfg, {"client.k_u": int(k_u)}), bundle)
            return final["test"]["accuracy"]

    base_accuracy = accuracy_at(base_value)
    rows = []
    for v in values:
        acc = base_accuracy if v == base_value else accuracy_at(v)
        rows.append((int(v), acc, acc / base_accuracy if base_accuracy else float("nan")))

    return SweepResult(axis=axis, base_value=base_value, base_accuracy=base_accuracy, rows=rows)


def tradeoff_curves(
    config: ExperimentConfig, *, eval_every: int | None = None
) -> dict[str, list[tuple[int, int, float]]]:
    """Accuracy as a function of cumulative parameters communicated, for the
    partially local algorithm and the full-aggregation baseline on matched
    seeds and data.  Both are scored with reconstruction evaluation on the
    held-out clients, so the curves compare the quality of the global
    parameters each algorithm ships.
    Returns per algorithm: (round, cumulative params, accuracy) rows.
    """
    every = eval_every or config.eval.every or max(1, config.rounds // 10)
    base = apply_overrides(
        replace(config, repeats=1),
        {
            "eval.regime": "recon",
            "eval.every": int(every),
            "eval.valid_repeats": max(config.eval.valid_repeats, 5),
        },
    )
    bundle = prepare_task(base)
    curves: dict[str, list[tuple[int, int, float]]] = {}
    for algorithm in ("fedrecon", "fedavg"):
        rows, _, _ = _run_all_repeats(replace(base, algorithm=algorithm), bundle)
        curve = [
            (round_idx, cum, value)
            for round_idx, split, metric, value, cum in rows
            if split == "valid" and metric == "accuracy" and round_idx > 0
        ]
        curves[algorithm] = sorted(curve)
    return curves
