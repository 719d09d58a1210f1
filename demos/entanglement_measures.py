"""
Entanglement measures of the shared resource
============================================

Computes the partial-transpose eigenvalue eta, the entanglement of
formation of the two-mode reduction, the N-user teleportation
entanglement E_T, its localizable counterpart, and the residual
three-party contangle.
"""

import math

import cvteleport as cv

# Two-mode case first. For a pure twin-beam state eta = e^{-2 rbar}.
spec2 = cv.ResourceSpec(2, 1.0, 1.0, rbar=0.5, d=0.0)
sigma2 = cv.build_resource(spec2)
eta = cv.eta_two_mode(sigma2)
print("eta (pipeline):   ", eta)
print("eta (closed form):", cv.eta_closed_form(1.0, 1.0, 1.0, 0.0))
print("entangled:", cv.is_entangled(eta))
print("E_F (base 2):", cv.eof_symmetric(eta))

# The generalized eta governs the N-user protocol through F = 1/(1+eta_N).
for N in (2, 3, 4, 8):
    spec = cv.ResourceSpec(N, 1.0, 1.0, rbar=0.5)
    print(f"N={N:2d}  eta_N = {cv.eta_generalized(spec):.12f}")

# E_T is a monotone repackaging of eta_N into [0, 1).
spec3 = cv.ResourceSpec(3, 1.0, 1.0, rbar=0.5)
E_T = cv.entanglement_of_teleportation(cv.eta_generalized(spec3))
print("\nE_T:", E_T)
print("E_F_loc:", cv.eof_localizable(E_T))

# The contangle measures genuine three-party entanglement of the pure
# symmetric three-mode resource. It diverges as E_T approaches 1, and stays
# finite for every E_T < 1.
print("E_tau:", cv.contangle_from_ET(E_T))
for E in (0.5, 0.9, 0.99, 0.999999, 1 - 1e-15):
    print(f"  E_T = {E}  ->  E_tau = {cv.contangle_from_ET(E):.6f}")

# One call assembles everything that applies to a given resource. Its E_tau
# comes from eta_N, so it holds where E_T itself has rounded to 1.
rep = cv.entanglement_report(spec3)
print("\nfull report:", rep)
strong = cv.entanglement_report(cv.ResourceSpec(3, 1.0, 1.0, rbar=20))
print("at rbar = 20: E_T =", strong.E_T, " E_tau =", strong.E_tau)
