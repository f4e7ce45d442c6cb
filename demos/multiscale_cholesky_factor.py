"""Upper-triangular factors of the precision under the maximin ordering.

Ordering sites from coarse to fine and grouping them into dyadic levels
turns the precision's Cholesky factorization into independent, well
conditioned per-scale pieces.  Each scale's stiffness block is estimated
from the same samples observed at its coarser resolution, and the factor
is assembled scale by scale into one dense array.  A square-root variant swaps the triangular
per-scale factors for symmetric roots.

Run:  python3 demos/multiscale_cholesky_factor.py
"""

import dataclasses

import numpy as np

from gpprec import (
    assemble_U,
    assemble_U_star,
    assign_levels,
    build_lattice_precision,
    estimate_scales,
    exact_scales,
    lattice_points,
    maximin_order,
    measure_cloud,
    sample,
    symmetrize,
)

q = 4
truth = build_lattice_precision(p=2**q - 1, d=1, s=2)
cloud = measure_cloud(lattice_points(truth.geometry), d=1)
ordering = maximin_order(cloud)
levels = assign_levels(ordering)
print(f"maximin levels of a {truth.dim}-point dyadic grid: sizes {levels.sizes()}")

perm = ordering.perm
omega = symmetrize(truth.omega[np.ix_(perm, perm)])
scales = exact_scales(omega, levels, d=1)
kappas = [float(np.linalg.cond(b)) for b in scales.b_blocks]
print("per-scale stiffness-block condition numbers:", [f"{k:.2f}" for k in kappas])
print("(the full precision's condition number is %.0f)" % truth.kappa)

exact_u = assemble_U(scales)
rec_err = np.linalg.norm(exact_u @ exact_u.T - omega, 2) / np.linalg.norm(omega, 2)
print(f"\nexact factor reconstructs the precision to {rec_err:.2e}")

ordered_truth = dataclasses.replace(truth, omega=omega, geometry=cloud)
exact_star = assemble_U_star(scales)

print("\nestimated factors from N samples (seed 0):")
for n in (2000, 8000):
    z = sample(ordered_truth, n, seed=0)
    est = estimate_scales(z, levels, d=1)
    u_hat = assemble_U(est)
    star_hat = assemble_U_star(est)
    err_u = np.linalg.norm(u_hat - exact_u, 2) / np.linalg.norm(exact_u, 2)
    err_star = np.linalg.norm(star_hat - exact_star, 2) / np.linalg.norm(exact_star, 2)
    print(f"  N={n:>5}: triangular {err_u:.4f}, square-root variant {err_star:.4f}")
