"""From scattered observation sites to a lattice problem and back.

Homogeneously scattered sites are matched one-to-one to nodes of a
slightly denser regular lattice (each within the measured fill distance),
the observations are padded with independent unit noise on the unmatched
nodes, and the lattice estimator runs on the padded problem.  The site
block of its output, permuted back, estimates the original precision.

Run:  python3 demos/scattered_sites_reduction.py
"""

import numpy as np

from gpprec import (
    EstimatorConfig,
    build_embedding,
    build_green_restriction,
    embed_and_estimate,
    measure_cloud,
    sample,
    spectral_norm,
)

rng = np.random.Generator(np.random.Philox(key=7))
m = 30
fine_m = 123
jittered = np.arange(1, m + 1) / (m + 1) + rng.uniform(-0.2, 0.2, m) / (m + 1)
sites = np.rint(jittered * (fine_m + 1)) / (fine_m + 1)

cloud = measure_cloud(sites, d=1)
print(f"cloud: {cloud.m} sites, fill distance h = {cloud.h:.4f}, homogeneity delta = {cloud.delta:.3f}")

embedding, attempts = build_embedding(cloud)
print(
    f"matched to a lattice of side {embedding.shape.p} in {attempts} attempt(s); "
    f"largest site-to-node displacement {embedding.displacement:.4f} <= h"
)

truth = build_green_restriction(fine_m, d=1, s=2, cloud=cloud)
print(f"\ntruth: Green's matrix restriction, condition number {truth.kappa:.2e}")

for n in (1000, 4000):
    z = sample(truth, n, seed=1)
    est = embed_and_estimate(z, cloud, EstimatorConfig(kappa_hint=truth.kappa), seed=1)
    err = spectral_norm(est.matrix - truth.omega) / truth.omega_norm
    print(f"N={n:>5}: relative spectral error {err:.4f} (padded lattice route: {est.path})")

print("\nThe padding is drawn from a recorded seed, so reruns are bit-identical.")
