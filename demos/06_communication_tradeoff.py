#!/usr/bin/env python3
"""Accuracy per parameter communicated.

Partially local rounds move 2|g| parameters per client (global parameters
down, delta up); full-aggregation rounds move 2(|g| + |l_i|).  The ledger
counts parameters exactly, and plotting accuracy against the cumulative
count shows the partially local algorithm reaching every accuracy level
with less communication.
"""

import numpy as np

from partialfed.config import load_config
from partialfed.core import RngStreams
from partialfed.evaluation import comm_ledger_report, params_to_reach
from partialfed.runner import tradeoff_curves, prepare_task
from partialfed.server import run_training

config = load_config(None, {"task": "synthetic", "seed": 17, "rounds": 100})

# Exact ledger arithmetic for a short partially local run.
bundle = prepare_task(config)
m = config.clients_per_round
out = run_training(
    bundle.spec, bundle.train_clients, rounds=3, clients_per_round=m,
    policy=config.split, hyper=config.client, server_opt=config.server,
    streams=RngStreams(config.seed),
)
report = comm_ledger_report(out.comm_records)["fedrecon"]
g_size = out.global_params[0].values.size
print(f"|g| = {g_size} parameters, {m} clients/round")
print(f"partially local per round: {report['per_round'][0]} = {m} * 2 * {g_size}")
assert report["per_round"][0] == m * 2 * g_size

# The tradeoff curves proper: both algorithms evaluated the same way
# (reconstruction on held-out users) at matched rounds and seed.
curves = tradeoff_curves(config, eval_every=20)
print(f"\n{'round':>6s} {'fedrecon params':>16s} {'acc':>6s} {'fedavg params':>15s} {'acc':>6s}")
for (r1, c1, a1), (r2, c2, a2) in zip(curves["fedrecon"], curves["fedavg"]):
    print(f"{r1:6d} {c1:16,d} {a1:6.3f} {c2:15,d} {a2:6.3f}")

fr_params = [c for _, c, _ in curves["fedrecon"]]
fr_acc = [a for _, _, a in curves["fedrecon"]]
fa_params = [c for _, c, _ in curves["fedavg"]]
fa_acc = [a for _, _, a in curves["fedavg"]]
print("\nparameters needed to first reach an accuracy level:")
for level in (0.20, 0.30, 0.35):
    ours = params_to_reach(fr_params, fr_acc, level)
    theirs = params_to_reach(fa_params, fa_acc, level)
    print(f"  {level:.2f}: partially local {ours:,} vs full aggregation "
          f"{theirs if theirs is None else format(theirs, ',')}")
