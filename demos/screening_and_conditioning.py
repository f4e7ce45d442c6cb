"""Why the estimators work: decay, ill-conditioning, and perturbation limits.

Run:  python3 demos/screening_and_conditioning.py
"""

import math

import numpy as np

from gpprec import (
    build_lattice_precision,
    cholesky_lower,
    l1_tail_profile,
    lattice_points,
    log_linear_fit,
    screening_profile,
    spd_inverse,
    spectral_norm,
)
from gpprec.verify import perturbation_corpus

print("1. Conditioning grows polynomially with the lattice size")
print(f"{'p':>4}  {'kappa':>12}  {'lambda_max':>12}")
for p in (8, 16, 32, 64):
    truth = build_lattice_precision(p, d=1, s=2)
    top = float(np.linalg.eigvalsh(truth.omega)[-1])
    print(f"{p:>4}  {truth.kappa:>12.3e}  {top:>12.3e}")

print("\n2. Screening: normalized precision entries fall off exponentially")
truth = build_lattice_precision(32, d=1, s=2)
prof = screening_profile(truth.omega, lattice_points(truth.geometry), h=1.0 / 33)
print(f"   fitted log-slope {prof.slope:.2f} per mesh step, fit quality r2 = {prof.r2:.3f}")

ks, tails = l1_tail_profile(truth.omega, truth.geometry, truth.omega_norm)
keep = tails > 0
slope, _, r2 = log_linear_fit(ks[keep], tails[keep])
print(f"   worst-row l1 tails decay with slope {slope:.2f} (r2 = {r2:.3f})")

print("\n3. Perturbation bounds that make factor estimation possible")
corpus = perturbation_corpus(n_cases=50, dim=20)
worst_inv, worst_chol, worst_root = 0.0, 0.0, 0.0
from gpprec import spd_sqrt

for b, b_hat, eps_b, _ in corpus:
    kappa_eps = np.linalg.cond(b) * eps_b
    inv_err = spectral_norm(spd_inverse(b_hat) - spd_inverse(b)) / spectral_norm(spd_inverse(b))
    worst_inv = max(worst_inv, inv_err / (kappa_eps / (1 - kappa_eps)))
    l, l_hat = cholesky_lower(b), cholesky_lower(b_hat)
    chol_err = np.linalg.norm(l_hat - l, 2) / np.linalg.norm(l, 2)
    worst_chol = max(worst_chol, chol_err / ((2 * math.log2(20) + 4) * kappa_eps))
    root_err = spectral_norm(spd_sqrt(b_hat) - spd_sqrt(b)) / spectral_norm(spd_sqrt(b))
    worst_root = max(worst_root, root_err / (math.sqrt(np.linalg.cond(b)) * eps_b))

print("   worst measured error over its bound, 50 perturbed SPD matrices:")
print(f"   inverse {worst_inv:.3f}, triangular factor {worst_chol:.3f}, square root {worst_root:.3f}")
print("   (all below 1: the bounds hold with room to spare)")
