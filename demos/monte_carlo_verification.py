"""
Monte Carlo check of the analytic fidelity
==========================================

Estimates the teleportation fidelity from sampled quadrature variances.
The estimate is reproducible bit for bit at a fixed seed and agrees with
the closed form within the reported standard error.
"""

import cvteleport as cv

N, n1, n2, rbar = 3, 1.0, 1.0, 0.5
spec = cv.ResourceSpec(N, n1, n2, rbar, cv.d_N_opt(N, n1, n2, rbar))
analytic = cv.optimal_fidelity(N, n1, n2, rbar).fidelity_opt
print("analytic fidelity:", analytic)

est = cv.simulate(cv.McConfig(samples=1_000_000, seed=42, spec=spec))
print("monte carlo:      ", est.fidelity_mean, "+/-", est.std_error)
print("pull (sigmas):    ", abs(est.fidelity_mean - analytic) / est.std_error)

# Same seed, same answer, down to the last bit.  x_rel and p_tot are linear in
# Gaussian inputs, so each of 16 shards of n samples enters only through its
# sum, N(0, n sigma^2), and centred sum of squares, sigma^2 chi^2(n - 1): one
# SFC64 generator seeded with the seed draws exactly those, 64 variates at any
# n.  Their distribution is fixed by sigma_x^2 and sigma_p^2, which verify
# also checks exactly against the closed form.  The standard error is the
# exact Gaussian one, 2 v^2 / (n - 1) per variance carried through F, so a
# 3-sigma check fails 0.27% of correct points; verify's three points share
# one draw, and about 0.3% of its requests fail.
again = cv.simulate(cv.McConfig(samples=1_000_000, seed=42, spec=spec))
print("reproducible:", est == again)

# The standard error shrinks like 1/sqrt(samples).
for samples in (10_000, 100_000, 1_000_000):
    e = cv.simulate(cv.McConfig(samples=samples, seed=7, spec=spec))
    print(f"{samples:>9d} samples: F = {e.fidelity_mean:.6f} "
          f"+/- {e.std_error:.6f}")

# variance_of_form estimates the variance of any linear quadrature
# combination, which is how the fidelity estimator is built internally.
import numpy as np

c = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
v = cv.variance_of_form(c, spec, samples=400_000, seed=3)
sigma = cv.build_resource(spec).entries
print("\nvar(x1 - x2) sampled:", v.var_x_rel_hat)
print("var(x1 - x2) exact:  ", float(c @ sigma @ c))
