"""
Building multiuser Gaussian resource states
===========================================

Walks through the construction pipeline: single-mode squeezed thermal
states, the N-splitter that distributes them, and sanity checks on the
resulting covariance matrix.
"""

import numpy as np

import cvteleport as cv

# A squeezed thermal mode with noise n = 1.2 and squeezing r = 0.5.
# Vacuum-normalized units throughout: the vacuum has variance 1.
single = cv.squeezed_thermal_cm(1.2, 0.5)
print("single-mode CM:")
print(single.entries)

# Stack one momentum-squeezed mode against two position-squeezed modes
# and send them through a 3-splitter.
spec = cv.ResourceSpec(N=3, n1=1.0, n2=1.0, rbar=0.5, d=cv.d_N_opt(3, 1, 1, 0.5))
sigma = cv.build_resource(spec)
print("\n3-mode resource CM:")
print(np.round(sigma.entries, 6))

# Every symplectic eigenvalue of a physical state is at least 1.
nu = cv.symplectic_eigenvalues(sigma)
print("\nsymplectic eigenvalues:", np.round(nu, 12))
print("physical:", bool(np.all(nu >= 1 - 1e-9)))

# With n1 = n2 = 1 the inputs are pure, so the network output is pure too.
print("purity:", cv.purity(sigma))

# The N-splitter sends mode 0 along 1/sqrt(N): each user receives an equal
# share of the momentum-squeezed mode's x variance v1x, on top of v2x.
v1x, v2x, v1p, v2p = spec.variances
print("\nx variance of each user:", np.round(np.diag(sigma.entries[0::2, 0::2]), 6))
print("expected v2x + (v1x - v2x)/3:", round(v2x + (v1x - v2x) / 3, 6))
