"""
Monte Carlo check of the analytic fidelity
==========================================

Samples the input quadratures directly and estimates the teleportation
fidelity from the empirical variances. The estimate is reproducible bit
for bit at a fixed seed and agrees with the closed form within the
reported standard error.
"""

import cvteleport as cv

N, n1, n2, rbar = 3, 1.0, 1.0, 0.5
spec = cv.ResourceSpec(N, n1, n2, rbar, cv.d_N_opt(N, n1, n2, rbar))
analytic = cv.optimal_fidelity(N, n1, n2, rbar).fidelity_opt
print("analytic fidelity:", analytic)

est = cv.simulate(cv.McConfig(samples=1_000_000, seed=42, spec=spec))
print("monte carlo:      ", est.fidelity_mean, "+/-", est.std_error)
print("pull (sigmas):    ", abs(est.fidelity_mean - analytic) / est.std_error)

# Same seed, same answer, down to the last bit: the samples are split over
# 16 shards, each drawing from its own SFC64 generator seeded with
# (seed, shard), and only the input modes that x_rel and p_tot weight are
# drawn.  The standard error is the exact Gaussian one, 2 v^2 / (n - 1) per
# variance carried through F, so a 3-sigma check fails 0.27% of correct runs.
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
