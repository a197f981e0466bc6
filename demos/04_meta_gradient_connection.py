#!/usr/bin/env python3
"""Why one update step is first-order meta-learning.

With a single full-batch update step, the client's returned delta equals
-eta_u times the gradient of the query loss in the global parameters, taken
at the reconstructed local parameters held fixed.  Differentiating through
the reconstruction itself (rebuilding it from the same initialization for
every probe) adds second-order terms; the gap between the two gradients is
exactly what the single-step scheme drops, and it vanishes when there is no
reconstruction to differentiate through.
"""

from partialfed import ClientHyper, ModelConfig, RngStreams, SplitPolicy, matfac_spec
from partialfed.client import split_dataset, verify_first_order_meta_gradient
from partialfed.data import SyntheticDataConfig, gen_synthetic_mf

clients, _, _ = gen_synthetic_mf(
    SyntheticDataConfig(num_users=4, num_items=5, true_rank=2, ratings_per_user=5, noise_std=0.3,
                        signal_std=0.8),
    2,
)
spec = matfac_spec(ModelConfig(embed_dim=2), 5)
streams = RngStreams(31)
cohort = split_dataset(clients[0], SplitPolicy(), streams.generator("split"))  # a cohort of one
g = spec.init_global(streams.generator("g"))

print(f"{'k_r':>4s} {'frozen-local check':>20s} {'dropped-term gap':>18s}")
for k_r in (0, 1, 2, 5):
    hyper = ClientHyper(k_r=k_r, k_u=1, eta_r=0.2, eta_u=0.1, batch_size=3)
    report = verify_first_order_meta_gradient(spec, g, cohort, hyper, RngStreams(77))
    print(
        f"{k_r:4d} {report.first_order_max_rel_err:20.2e} "
        f"{report.composite_max_abs_gap:18.2e}"
    )

print(
    "\nThe frozen-local check stays at finite-difference noise for every k_r:\n"
    "the single-step update IS the first-order gradient.  The dropped-term\n"
    "gap is zero only at k_r=0 and grows with reconstruction length, which\n"
    "is the second-order information the algorithm deliberately ignores."
)
