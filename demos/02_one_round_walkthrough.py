#!/usr/bin/env python3
"""One federated round, step by step.

For each sampled client: split its data into support and query halves,
rebuild the local parameters from the support half (global parameters
frozen), take gradient steps on the global parameters over the query half
(local parameters frozen), and send back only the global delta weighted by
the query size.  The server applies the weighted mean as its update.
"""

import numpy as np

from partialfed import (
    ClientHyper,
    ModelConfig,
    RngStreams,
    ServerOptimizer,
    SplitPolicy,
    SyntheticDataConfig,
    aggregate,
    client_update,
    gen_synthetic_mf,
    matfac_spec,
    owner_rows,
    reconstruct,
    server_moments,
    server_step,
    split_dataset,
)
from partialfed.client import run_client_round, run_cohort

clients, _, _ = gen_synthetic_mf(
    SyntheticDataConfig(num_users=8, num_items=10, true_rank=3, ratings_per_user=8, noise_std=0.3,
                        signal_std=0.8),
    1,
)
spec = matfac_spec(ModelConfig(embed_dim=3), 10)
streams = RngStreams(seed=42)
g = spec.init_global(streams.generator("global_init"))

policy = SplitPolicy(kind="half_disjoint")
hyper = ClientHyper(k_r=5, k_u=5, eta_r=0.3, eta_u=0.1, batch_size=2)

g_before = [b.values.copy() for b in g]
updates = []
for client in clients[:4]:
    # Each step draws its own stream, named by (round, client, purpose).
    def gen(purpose):
        return streams.generator(0, client.client_id, purpose)

    # A split client is a cohort of one: its support and query halves are
    # positions into its own columns.
    cohort = split_dataset(client, policy, gen("split"))
    l_init = owner_rows(spec.init_local(gen("local_init")), 0)  # where reconstruction starts
    l = reconstruct(spec, g, cohort, hyper, gen("local_init"), gen("recon_batches"))
    # The update of a cohort of one: the client's query size n_i and its
    # delta, the rows of the item block it moved and one array per other block.
    update, _ = client_update(spec, g, l, cohort, hyper, gen("update_batches"))
    updates.append(update)
    support, query = client.batch(cohort.support), client.batch(cohort.query)
    # ``metrics`` gives each key's value and weight as arrays over the
    # batch's owner axes; a flat batch is one owner, so they are 0-d.
    print(
        f"client {client.client_id}: n_i={update.n[0]}, moved {len(update.rows)} item rows, "
        f"support loss {spec.loss(g, l_init, support):.3f} -> "
        f"{spec.loss(g, l, support):.3f}, "
        f"query mse {spec.metrics(g, l, query)['mse'].value:.3f}"
    )

# Reconstruction and the client update never touch the server's copy.
assert all(np.array_equal(a, b.values) for a, b in zip(g_before, g))

# Weighted aggregation: sum of (n_i / n) * delta_i, added client by client in
# cohort order, which in a round is the ascending client ids it samples.  A
# round runs its clients as one cohort, whose single update aggregates to the
# same bits as the four cohorts of one above.
weighted_delta, total_weight = aggregate(updates, g)
(round_update,), _ = run_cohort(spec, g, clients[:4], policy, hyper, streams, 0)
together, _ = aggregate([round_update], g)
assert all(np.array_equal(a, b) for a, b in zip(weighted_delta, together))
print(f"\naggregated {len(updates)} clients, total weight {total_weight:.0f}; "
      f"as one cohort of ids {round_update.client_ids.tolist()}, the same")

# The server treats the aggregate as an antigradient; plain SGD with a unit
# rate applies it directly, and the adaptive variants rescale it by moments
# that the round loop starts once per run and the step advances in place.
for kind in ("sgd", "adagrad", "yogi"):
    opt = ServerOptimizer(kind=kind, eta_s=1.0)
    moments = server_moments(opt, g)  # None for sgd
    stepped = server_step(opt, g, weighted_delta, moments)
    move = np.linalg.norm(stepped[0].values - g[0].values)
    state = "" if moments is None else f", |v| = {np.linalg.norm(moments[1][0]):.4f}"
    print(f"server step ({kind:7s}): |g' - g| = {move:.4f}{state}")

# run_client_round runs exactly these steps: from the same seed it
# reproduces the client delta bit for bit.
replay = run_client_round(spec, g, clients[0], policy, hyper, RngStreams(42), 0)
original = updates[0].delta(0, g)
again = replay.delta(0, g)
assert all(np.array_equal(a, b) for a, b in zip(original, again))
print("\nrun_client_round with the same seed reproduces the client delta exactly")
