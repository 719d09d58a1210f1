"""
Concentrating network entanglement with homodyne measurements
=============================================================

Measuring the momentum quadrature of every mode except a chosen pair
collapses the N-mode resource onto a two-mode state. The demo checks
that the entanglement left in that pair matches eta_N exactly, so the
multiuser fidelity formula has an operational two-mode reading.
"""

import numpy as np

import cvteleport as cv

N, n1, n2, rbar = 4, 1.0, 1.0, 0.75
spec = cv.ResourceSpec(N, n1, n2, rbar, cv.d_N_opt(N, n1, n2, rbar))
sigma = cv.build_resource(spec)

# Condition mode by mode and watch the state shrink.
state = sigma
for mode in (3, 2):
    res = cv.homodyne_condition(state, mode, "p")
    state = res.cm
    print(f"measured p on mode {mode}: {state.n_modes} modes left,",
          "physical" if np.all(cv.symplectic_eigenvalues(state) >= 1 - 1e-9)
          else "UNPHYSICAL")

# The one-call version keeps modes (0, 1) by default and measures the other
# N - 2 momenta at once: one Schur complement against their p block.
loc = cv.localize(sigma)
print("\nlocalized two-mode CM:")
print(np.round(loc.cm.entries, 6))

eta_pair = cv.eta_two_mode(loc.cm)
eta_n = cv.eta_generalized(spec)
print("\neta of the kept pair:", eta_pair)
print("eta_N of the network:", eta_n)
print("deviation:", abs(eta_pair - eta_n))

# Which pair is kept does not matter for the symmetric resource.
for pair in [(0, 1), (0, 3), (2, 3)]:
    e = cv.eta_two_mode(cv.localize(sigma, keep=pair).cm)
    print(f"keep {pair}: eta = {e:.15f}")

# Localizable entanglement of formation, straight from the resource numbers.
print("\nE_F_loc:", cv.eof_symmetric(cv.localizable_eta(spec)))
