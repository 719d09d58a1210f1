"""
Teleportation fidelity and the optimal squeezing bias
=====================================================

Compares the covariance-matrix teleportation pipeline against the
closed-form fidelity, then finds the bias d and gain g that maximize the
fidelity, both analytically and with a derivative-free search.
"""

import math

import cvteleport as cv

# Two users sharing a twin-beam state: the closed form is F = 1/(1 + eta).
spec2 = cv.ResourceSpec(2, 1.0, 1.0, rbar=0.5, d=0.0)
var_x, var_p = cv.teleported_variances(cv.build_resource(spec2), 0, 1, 1.0)
print("two-mode pipeline fidelity:", cv.fidelity_from_variances(var_x, var_p))
print("closed form 1/(1+e^-1):   ", 1 / (1 + math.exp(-1)))

# Three users. The bias between the two squeezer types matters now: the
# optimum trades squeezing from the copies toward the distributed mode.
N, n1, n2, rbar = 3, 1.0, 1.0, 0.5
res = cv.optimal_fidelity(N, n1, n2, rbar)
print("\noptimal bias d: ", res.d_opt)
print("optimal gain g: ", res.g_opt)
print("optimal fidelity:", res.fidelity_opt)
print("check 1/(1+eta_N):", 1 / (1 + res.eta_N))

# The numerical optimizer reproduces the closed forms without using them.
num = cv.numerical_optimum(N, n1, n2, rbar)
print("\nnumerical d:", num.d_opt, " (delta", abs(num.d_opt - res.d_opt), ")")
print("numerical g:", num.g_opt, " (delta", abs(num.g_opt - res.g_opt), ")")

# Putting all the squeezing in one type of squeezer is the worst choice.
w = cv.worst_case(N, n1, n2, rbar)
print("\nworst-case fidelity at |d| = rbar:", w.fidelity_worst)
print("which squeezer was switched off:  ", w.zeroed_squeezer)

# Unbiased operation point: both squeezer types work equally hard.
d_ub = cv.d_unbiased(N, n1, n2, rbar)
print("\nequal-effort bias:", d_ub)
