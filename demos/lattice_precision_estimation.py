"""Estimate an ill-conditioned lattice precision from a handful of samples.

The precision of a discretized second-order operator on a 1-d lattice has
a condition number that grows like the squared lattice size, yet its rows
decay fast away from the diagonal.  The blockwise estimator inverts small
windowed sample covariances instead of the full one, so it keeps working
when the sample size is far below the variable count.

Run:  python3 demos/lattice_precision_estimation.py
"""

import numpy as np

from gpprec import (
    EstimatorConfig,
    build_lattice_precision,
    estimate_precision,
    sample,
    spectral_norm,
)

truth = build_lattice_precision(p=40, d=1, s=1)
print(f"lattice truth: {truth.dim} variables, condition number {truth.kappa:.0f}")

config = EstimatorConfig(kappa_hint=truth.kappa, b_override=4)

print("\nrelative spectral error of the blockwise estimate, 5 seeds each:")
print(f"{'N':>6}  {'median error':>12}")
for n in (250, 1000, 4000):
    errs = []
    for seed in range(5):
        z = sample(truth, n, seed=seed)
        est = estimate_precision(z, truth.geometry, config)
        errs.append(spectral_norm(est.matrix - truth.omega) / truth.omega_norm)
    print(f"{n:>6}  {np.median(errs):>12.4f}")

print("\nQuadrupling N roughly halves the error, the square-root rate.")

n_small = 30
z = sample(truth, n_small, seed=0)
est = estimate_precision(
    z, truth.geometry, EstimatorConfig(kappa_hint=truth.kappa, b_override=3)
)
err = spectral_norm(est.matrix - truth.omega) / truth.omega_norm
print(
    f"\nWith N={n_small} samples for {truth.dim} variables the full sample"
    f" covariance is singular\nand cannot be inverted at all; the blockwise"
    f" route still returns a finite, banded\nestimate (relative error {err:.2f}"
    f" at this extreme undersampling)."
)
