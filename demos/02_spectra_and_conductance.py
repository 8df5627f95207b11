"""Quadratic forms, spectral constants, conductance and the gap sandwich.

Run:  python3 demos/02_spectra_and_conductance.py
"""

import numpy as np

from mixbounds import (
    conductance,
    dirichlet_form,
    eigendecompose,
    f_form,
    lambda_constants,
    random_reversible,
    reconstruct_power,
    two_state,
    variance,
)

chain = two_state(0.25)

# The difference form penalises functions that vary across heavy edges; the
# sum form detects near-periodicity instead.
phi = np.array([0.0, 1.0])
print("difference form:", dirichlet_form(chain, phi))
print("sum form:       ", f_form(chain, phi))
print("variance:       ", variance(chain.pi, phi))

# Their optimal ratios against the variance are the two spectral gaps.
lam1, lam_bot = lambda_constants(chain)
print(f"\ngap from the top: {lam1}  gap from the bottom: {lam_bot}")

summary = eigendecompose(chain)
print("eigenvalues:", summary.betas, " beta_max:", summary.beta_max)

# The spectral data reconstructs every power of the transition matrix.
P5 = np.linalg.matrix_power(chain.P, 5)
rebuilt = reconstruct_power(summary, chain.pi, 5)
print("5-step reconstruction error:", np.abs(P5 - rebuilt).max())

# Conductance: the worst normalised stationary flow across a cut, found by
# exact enumeration of every cut. The spectral gap is sandwiched between
# Phi^2/8 and Phi.
metro = random_reversible(8, seed=5)
phi_value, phi_asym, cut = conductance(metro)
lam1, _ = lambda_constants(metro)
print(f"\nrandom reversible chain on 8 states")
print(f"conductance {phi_value:.4f} at cut {cut} (asymmetric {phi_asym:.4f})")
print(f"gap sandwich: {phi_value**2 / 8:.4f} <= {lam1:.4f} <= {phi_value:.4f}")
