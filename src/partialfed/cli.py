"""Command-line experiment runner.

Verbs: ``train``, ``evaluate``, ``sweep``, ``reproduce``, ``check-gradients``
and ``verify-meta``.  Flags mirror the configuration fields in kebab-case
and override config-file values; ``PARTIALFED_OUTPUT_DIR`` overrides the
output directory when no flag is given.  Exit codes: 0 success, 1 config
error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .client import ClientHyper, SplitPolicy, split_dataset, verify_first_order_meta_gradient
from .config import ExperimentConfig, load_config
from .core import Batch, RngStreams, check_gradients
from .data import SyntheticMFConfig, gen_synthetic_mf
from .errors import ConfigError, DataError, NumericalError
from .evaluation import recon_eval
from .models import MatFacConfig, NwpConfig, matfac_spec, oov_nwp_spec
from .runner import (
    apply_overrides,
    grid_search,
    prepare_task,
    read_params,
    run_experiment,
    sweep_steps,
    tradeoff_curves,
    write_csv,
)

# flag name -> (dotted config key, type)
_FLAG_MAP = {
    "task": ("task", str),
    "algorithm": ("algorithm", str),
    "seed": ("seed", int),
    "rounds": ("rounds", int),
    "clients_per_round": ("clients_per_round", int),
    "repeats": ("repeats", int),
    "output_dir": ("output_dir", str),
    "split_kind": ("split.kind", str),
    "support_fraction": ("split.support_fraction", float),
    "k_r": ("client.k_r", int),
    "k_u": ("client.k_u", int),
    "eta_r": ("client.eta_r", float),
    "eta_u": ("client.eta_u", float),
    "batch_size": ("client.batch_size", int),
    "joint_training": ("client.joint_training", bool),
    "server_opt": ("server.kind", str),
    "eta_s": ("server.eta_s", float),
    "beta1": ("server.beta1", float),
    "beta2": ("server.beta2", float),
    "tau": ("server.tau", float),
    "eval_regime": ("eval.regime", str),
    "eval_repeats": ("eval.repeats", int),
    "eval_clients_per_repeat": ("eval.clients_per_repeat", int),
    "eval_every": ("eval.every", int),
    "eval_k_r": ("eval.k_r", int),
    "eval_eta_r": ("eval.eta_r", float),
    "embed_dim": ("model.embed_dim", int),
    "vocab_size": ("model.vocab_size", int),
    "num_oov_buckets": ("model.num_oov_buckets", int),
    "context_window": ("model.context_window", int),
    "data_path": ("data.path", str),
    "epochs": ("centralized.epochs", int),
    "centralized_batch_size": ("centralized.batch_size", int),
    "centralized_rate": ("centralized.rate", float),
}

_TABLE2_MECH = {"task": "oov_nwp", "model.num_oov_buckets": 500}

# Table recipes: output file, the test metrics each row reports, and rows of
# (setting, config overrides).  A row runs in its own directory, named by its
# setting with spaces as underscores.
_TABLES = {
    # The rating task: centralized and full-aggregation baselines under both
    # evaluation regimes, plus partially local training.
    "table1": ("table1.csv", ("rmse", "accuracy"), [
        ("centralized standard_eval", {"algorithm": "centralized", "eval.regime": "standard"}),
        ("centralized recon_eval", {"algorithm": "centralized", "eval.regime": "recon"}),
        ("fedavg standard_eval", {"algorithm": "fedavg", "eval.regime": "standard"}),
        ("fedavg recon_eval", {"algorithm": "fedavg", "eval.regime": "recon"}),
        ("fedrecon recon_eval", {"algorithm": "fedrecon", "eval.regime": "recon"}),
    ]),
    # Out-of-vocabulary mechanism on the slang corpus: many buckets vs one,
    # plus the no-split and joint-training ablations.
    "table2-mech": ("table2_mech.csv", ("accuracy",), [
        ("fedrecon 500 oov", _TABLE2_MECH),
        ("fedrecon 1 oov", {**_TABLE2_MECH, "model.num_oov_buckets": 1}),
        ("fedrecon 500 oov no_split", {**_TABLE2_MECH, "split.kind": "no_split"}),
        ("fedrecon 500 oov joint", {**_TABLE2_MECH, "client.joint_training": True}),
    ]),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for dest, (_, typ) in _FLAG_MAP.items():
        flag = "--" + dest.replace("_", "-")
        if typ is bool:
            parser.add_argument(flag, dest=dest, action=argparse.BooleanOptionalAction,
                                default=None)
        else:
            parser.add_argument(flag, dest=dest, type=typ, default=None)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {}
    for dest, (dotted, _) in _FLAG_MAP.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[dotted] = value
    if "output_dir" not in {k.split(".")[0] for k in overrides}:
        env_dir = os.environ.get("PARTIALFED_OUTPUT_DIR")
        if env_dir:
            overrides["output_dir"] = env_dir
    return load_config(args.config, overrides)


def _print_metrics(title: str, metrics: dict[str, float]) -> None:
    print(title)
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g}")


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    print(f"wrote {result.csv_path}, {result.params_path}, {result.manifest_path}")
    for split in ("valid", "test"):
        _print_metrics(f"[{split}]", result.final_metrics[split])
    return 0


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    bundle = prepare_task(config)
    if bundle.regime != "recon":
        raise ConfigError("the evaluate verb reconstructs local parameters; use eval.regime recon")
    g = read_params(args.params)
    found = [(b.name, b.shape) for b in g]
    wanted = [(b.name, b.shape) for b in bundle.spec.init_global(np.random.default_rng(0))]
    if found != wanted:
        raise DataError(f"{args.params} holds blocks {found}; this config needs {wanted}")
    result = recon_eval(
        bundle.spec, g, bundle.test_clients, config.split, config.eval_mode(),
        RngStreams(config.seed), namespace="eval:test",
    )
    _print_metrics("[test]", result.metrics)
    return 0


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    axis = args.axis.replace("-", "_")
    try:
        values = [int(v) for v in args.values.split(",")] if args.values else None
    except ValueError:
        raise ConfigError(
            f"--values must be comma-separated integers, not {args.values!r}"
        ) from None
    result = sweep_steps(config, axis, values)
    print(f"base {axis}={result.base_value}: accuracy {result.base_accuracy:.6g}")
    for value, acc, rel in result.rows:
        print(f"  {axis}={value}: accuracy {acc:.6g} ({rel:.3f} of base)")
    _write_table(Path(config.output_dir) / f"sweep_{axis}.csv",
                 [axis, "accuracy", "relative_accuracy"], result.rows)
    return 0


def _cmd_check_gradients(args) -> int:
    tol, eps = 1e-4, 1e-5
    streams = RngStreams(args.seed if args.seed is not None else 0)
    worst = {"matfac": 0.0, "oov_nwp": 0.0}
    for i in range(args.instances):
        rng = streams.generator("gradcheck", i)
        mf = matfac_spec(MatFacConfig(num_items=int(rng.integers(3, 8)),
                                      embed_dim=int(rng.integers(2, 5))))
        g = mf.init_global(rng)
        l = mf.init_local(rng)
        n = int(rng.integers(1, 6))
        batch = Batch(
            features=rng.integers(0, g[0].shape[0], size=n),
            targets=rng.integers(1, 6, size=n).astype(float),
            weights=np.ones(n),
        )
        report = check_gradients(mf, g, l, batch, eps=eps)
        worst["matfac"] = max(worst["matfac"], report.max_rel_err)

        cfg = NwpConfig(vocab_size=int(rng.integers(3, 8)), num_oov_buckets=3,
                        embed_dim=3, context_window=2)
        nwp = oov_nwp_spec(cfg)
        g = nwp.init_global(rng)
        l = nwp.init_local(rng)
        ctx = rng.integers(-cfg.num_oov_buckets, cfg.num_global_rows, size=(n, 2))
        batch = Batch(
            features=ctx,
            targets=rng.integers(0, cfg.num_classes, size=n).astype(float),
            weights=np.ones(n),
        )
        report = check_gradients(nwp, g, l, batch, eps=eps)
        worst["oov_nwp"] = max(worst["oov_nwp"], report.max_rel_err)
    ok = True
    for name, err in worst.items():
        status = "ok" if err < tol else "FAIL"
        ok = ok and err < tol
        print(f"{name}: max relative gradient error {err:.3e} over "
              f"{args.instances} instances [{status}]")
    if not ok:
        raise NumericalError("analytic gradients disagree with finite differences")
    return 0


def _cmd_verify_meta(args) -> int:
    tol = 1e-4
    streams = RngStreams(args.seed if args.seed is not None else 0)
    worst_a = 0.0
    for i in range(args.instances):
        rng = streams.generator("meta", i)
        clients, _, _ = gen_synthetic_mf(
            SyntheticMFConfig(num_users=3, num_items=5, true_rank=2,
                              noise_std=0.2, ratings_per_user=5, seed=int(rng.integers(2**31)))
        )
        spec = matfac_spec(MatFacConfig(num_items=5, embed_dim=2))
        hyper = ClientHyper(k_r=int(rng.integers(0, 3)), k_u=1, eta_r=0.1, eta_u=0.1,
                            batch_size=5)
        ds = split_dataset(clients[0], SplitPolicy(), streams.generator("meta_split", i))
        g = spec.init_global(streams.generator("meta_g", i))
        report = verify_first_order_meta_gradient(
            spec, g, ds, hyper, RngStreams(streams.derive_seed("meta_run", i))
        )
        worst_a = max(worst_a, report.first_order_max_rel_err)
        print(
            f"instance {i}: k_r={hyper.k_r} first-order rel err "
            f"{report.first_order_max_rel_err:.3e}, dropped-term gap "
            f"{report.composite_max_abs_gap:.3e}"
        )
    status = "ok" if worst_a < tol else "FAIL"
    print(f"worst first-order check: {worst_a:.3e} [{status}]")
    if worst_a >= tol:
        raise NumericalError("single-step update does not match the frozen-local gradient")
    return 0


def _write_table(path: Path, header: list[str], rows) -> None:
    write_csv(path, header, rows)
    print(f"wrote {path}")


def _cmd_reproduce(args) -> int:
    config = _config_from_args(args)
    out_dir = Path(config.output_dir)
    if args.recipe == "fig3":
        for axis in ("k_r", "k_u"):
            _write_table(out_dir / f"fig3_{axis}.csv", [axis, "accuracy", "relative_accuracy"],
                         sweep_steps(config, axis).rows)
        return 0
    if args.recipe == "fig4":
        curves = tradeoff_curves(config)
        _write_table(
            out_dir / "fig4.csv",
            ["algorithm", "round", "cumulative_params_communicated", "accuracy"],
            [(algorithm, *row) for algorithm, rows in sorted(curves.items()) for row in rows],
        )
        return 0
    name, columns, settings = _TABLES[args.recipe]
    table = []
    for tag, overrides in settings:
        cfg = apply_overrides(
            config, {**overrides, "output_dir": str(out_dir / tag.replace(" ", "_"))}
        )
        if args.grid and cfg.algorithm == "fedrecon":
            cfg = grid_search(cfg).best_config
        metrics = run_experiment(cfg).final_metrics["test"]
        _print_metrics(f"[{tag}]", metrics)
        table.append([tag, *(metrics.get(c, float("nan")) for c in columns)])
    _write_table(out_dir / name, ["setting", *columns], table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialfed",
        description="Partially local federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment end to end")
    _add_config_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="reconstruction-evaluate saved parameters")
    _add_config_flags(p_eval)
    p_eval.add_argument("--params", required=True, help="params.bin from a training run")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="vary reconstruction or update steps")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=["k-r", "k-u", "k_r", "k_u"])
    p_sweep.add_argument("--values", help="comma-separated step counts")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run a canned experiment recipe")
    _add_config_flags(p_rep)
    p_rep.add_argument("recipe", choices=["table1", "table2-mech", "fig3", "fig4"])
    p_rep.add_argument("--grid", action="store_true",
                       help="tune learning rates on the validation split first")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_check = sub.add_parser("check-gradients", help="finite-difference gradient audit")
    p_check.add_argument("--instances", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=_cmd_check_gradients)

    p_meta = sub.add_parser("verify-meta", help="single-step meta-gradient identity check")
    p_meta.add_argument("--instances", type=int, default=20)
    p_meta.add_argument("--seed", type=int, default=None)
    p_meta.set_defaults(func=_cmd_verify_meta)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
