"""Why the estimators work: decay, ill-conditioning, and perturbation limits.

Run:  python3 demos/screening_and_conditioning.py
"""

import numpy as np

from gpprec import (
    build_lattice_precision,
    l1_tail_profile,
    lattice_points,
    log_linear_fit,
    screening_profile,
)
from gpprec.verify import suite_perturbation

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
result = suite_perturbation()
print("   worst measured error over its bound, 100 perturbed SPD matrices:")
print(f"   {result.detail}")
print(f"   ({'all below 1: the bounds hold' if result.passed else 'a bound is exceeded'})")
