#!/usr/bin/env python3
"""Parameter partitioning and gradient auditing.

A model here is a list of named blocks split into a global part (aggregated
across clients) and a local part (rebuilt on each client, never sent
anywhere).  This script builds the rating model, pokes at the partition, and
runs the finite-difference audit that every shipped model must pass.
"""

import numpy as np

from partialfed import MatFacConfig, RngStreams, check_gradients, matfac_spec
from partialfed.core import Batch

# Three movies, user embeddings of dimension 2.
spec = matfac_spec(MatFacConfig(num_items=3, embed_dim=2))
streams = RngStreams(seed=7)

g = spec.init_global(streams.generator("global_init"))
l = spec.init_local(streams.generator(0, "local_init"))

print("global blocks:", [(b.name, b.shape) for b in g])
print("local blocks: ", [(b.name, b.shape) for b in l])

# The partition is two plain block lists: only the global list is ever
# communicated, and the local one never leaves the client.
n_global = sum(b.values.size for b in g)
n_local = sum(b.values.size for b in l)
print("global values:", n_global, "= 3*2 item params;", "local values:", n_local, "user params")

# Every model ships analytic gradients; central finite differences keep them
# honest to 1e-4 relative error.
batch = Batch(
    features=np.array([0, 2, 1]),
    targets=np.array([4.0, 3.0, 5.0]),
    weights=np.ones(3),
)
print("loss at init:", round(spec.loss(g, l, batch), 4))
audit = check_gradients(spec, g, l, batch, eps=1e-5)
print(f"gradient audit: global {audit.max_rel_err_global:.2e}, "
      f"local {audit.max_rel_err_local:.2e} (tolerance 1e-4)")

# Rating predictions are plain dot products between the user vector and the
# rated item rows.
preds = g[0].array[batch.features] @ l[0].values
print("predictions:", np.round(preds, 3), "for ratings", batch.targets)
