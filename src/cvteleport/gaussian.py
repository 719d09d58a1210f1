"""Covariance-matrix representation of Gaussian states.

Conventions used throughout the package:

* quadrature ordering is interleaved, ``(x1, p1, x2, p2, ..., xN, pN)``
* vacuum-normalized units: the vacuum covariance matrix is the identity,
  so a state is physical iff every symplectic eigenvalue is >= 1
* the N-splitter is one N x N Helmert matrix on x and p alike, applied per
  quadrature by ``build_resource``

This is the package's numpy layer: it is imported only by routes that build
or read a covariance matrix.  ``ResourceSpec`` is defined in the pure-Python
``structured`` module and re-exported here.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .structured import ResourceSpec, input_variances

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form: block diagonal with per-mode blocks [[0, 1], [-1, 0]]."""
    D = np.diag(np.tile([1.0, 0.0], n_modes)[:-1], 1)
    return D - D.T


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _shifted_omega(dim: int) -> np.ndarray:
    return _freeze(1j * (1.0 - PHYSICALITY_TOL) * omega(dim // 2), complex)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2N x 2N matrix of quadrature second moments.

    Validated on construction: finite entries, symmetry to 1e-12, physicality.
    One complex Cholesky of sigma + i(1 - 1e-9) Omega accepts it: that holds exactly
    when every symplectic eigenvalue exceeds 1 - 1e-9.  Only if it fails does
    ``symplectic_eigenvalues`` run, which rejects a matrix that is not positive
    definite and otherwise gives the nu_min that decides and words the rejection.
    """

    entries: np.ndarray
    n_modes: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise ValueError(f"covariance matrix must be 2N x 2N, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("covariance matrix has non-finite entries")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric to 1e-12")
        m = 0.5 * (m + m.T)
        object.__setattr__(self, "entries", _freeze(m))
        object.__setattr__(self, "n_modes", m.shape[0] // 2)
        with suppress(np.linalg.LinAlgError):  # if it fails, the spectrum decides and words it
            np.linalg.cholesky(m + _shifted_omega(m.shape[0]))
            return  # sigma + i(1 - tol) Omega > 0: every nu > 1 - tol, so sigma > 0 too
        nu_min = symplectic_eigenvalues(self)[0]
        # norm-scaled slack for entries >> 1e6, where the spectrum cannot resolve nu
        # to 1e-9; it only widens the bound, so its SVD runs only when 1e-9 rejects
        if nu_min < 1.0 - PHYSICALITY_TOL and (
                nu_min < 1.0 - 64 * np.finfo(float).eps * np.linalg.norm(m, 2)):
            raise ValueError(
                f"unphysical covariance matrix: min symplectic eigenvalue {nu_min:.12g}"
            )

    def mode_block(self, i: int, j: int) -> np.ndarray:
        """2x2 block coupling modes i and j (i == j gives a single-mode CM)."""
        return self.entries[2 * i:2 * i + 2, 2 * j:2 * j + 2]


def vacuum_cm(n_modes: int) -> CovarianceMatrix:
    """Vacuum state of n_modes modes: the 2N x 2N identity."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    return CovarianceMatrix(np.eye(2 * n_modes))


def squeezed_thermal_cm(n: float, r: float, axis: str = "momentum") -> CovarianceMatrix:
    """Single-mode squeezed thermal state.

    axis="momentum": diag(n e^{2r}, n e^{-2r}) (reduced p variance);
    axis="position": diag(n e^{-2r}, n e^{2r}).  Negative r is accepted and
    simply swaps the squeezed quadrature.
    """
    if n < 1.0:
        raise ValueError(f"thermal noise factor must be >= 1, got {n}")
    if axis not in ("momentum", "position"):
        raise ValueError(f"axis must be 'momentum' or 'position', got {axis!r}")
    v1x, v2x, v1p, v2p = _input_variances(n, n, r, r)  # the resource's inputs, bit for bit
    return CovarianceMatrix(np.diag([v1x, v1p] if axis == "momentum" else [v2x, v2p]))


def _input_variances(n1: float, n2: float, r1: float, r2: float) -> tuple[float, ...]:
    """``structured.input_variances``; an e^{2r} past the float range is reported as
    the non-finite entries it stands for."""
    try:
        return input_variances(n1, n2, r1, r2)
    except ArithmeticError:
        raise ValueError("covariance matrix has non-finite entries") from None


@lru_cache(maxsize=None)
def _helmert(N: int) -> np.ndarray:
    """Read-only N x N Helmert matrix O, the N-splitter's action on x and on p alike:
    column 0 is 1/sqrt(N); column j >= 1 is sqrt(m/(m+1)) in row j - 1 and
    -1/sqrt(m(m+1)) in rows j..N-1, with m = N - j.  It equals the beam-splitter
    cascade B_{N-1,N}(pi/4) ... B_{1,2}(arccos 1/sqrt(N)) (1-based labels, rightmost
    first) on either quadrature; ``tests/oracles.py::cascade_splitter`` multiplies it out."""
    j = np.arange(1, N)
    m = N - j
    column = np.r_[1.0 / math.sqrt(N), -1.0 / np.sqrt(m * (m + 1.0))]
    O = np.tril(np.broadcast_to(column, (N, N)))  # column value on and below the diagonal
    O[j - 1, j] = np.sqrt(m / (m + 1.0))
    O.setflags(write=False)  # frozen in place: np.tril's result is already a fresh array
    return O


def block_diag_cm(*cms: CovarianceMatrix) -> CovarianceMatrix:
    """Product (uncorrelated) state of the given single- or multi-mode states."""
    total = sum(c.n_modes for c in cms)
    out = np.zeros((2 * total, 2 * total))
    at = 0
    for c in cms:
        k = 2 * c.n_modes
        out[at:at + k, at:at + k] = c.entries
        at += k
    return CovarianceMatrix(out)


def build_resource(spec: ResourceSpec) -> CovarianceMatrix:
    """N-mode symmetric resource: N-splitter on one momentum-squeezed mode (n1, r1)
    and N-1 position-squeezed modes (n2, r2).  Each quadrature block is O diag(v) O^T
    (O from ``_helmert``, v from ``spec.variances``), the x-p blocks are 0; validated once."""
    v1x, v2x, v1p, v2p = _input_variances(spec.n1, spec.n2, spec.r1, spec.r2)
    m = np.zeros((2 * spec.N, 2 * spec.N))
    for q, (v1, v2) in enumerate(((v1x, v2x), (v1p, v2p))):
        v = np.array([v1] + [v2] * (spec.N - 1))
        m[q::2, q::2] = (_helmert(spec.N) * v) @ _helmert(spec.N).T
    return CovarianceMatrix(0.5 * (m + m.T))


def symplectic_eigenvalues(sigma) -> np.ndarray:
    """Symplectic spectrum of a positive-definite CM-shaped matrix, sorted ascending.

    With sigma = L L^T (Cholesky), Omega sigma is similar to the real
    skew-symmetric L^T Omega L, whose singular values are the N symplectic
    eigenvalues, each twice; the pairs are collapsed to one value.  Accepts a
    CovarianceMatrix or a raw symmetric matrix: a partial transpose Lambda
    sigma Lambda is congruent to sigma, so it is positive definite too.
    Raises ValueError if the matrix is not positive definite.
    """
    m = sigma.entries if isinstance(sigma, CovarianceMatrix) else np.asarray(sigma, float)
    try:
        L = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("covariance matrix is not positive definite") from None
    nu = np.linalg.svd(L.T @ omega(m.shape[0] // 2) @ L, compute_uv=False)[::-1]
    return 0.5 * (nu[0::2] + nu[1::2])  # collapse the degenerate pairs


def partial_transpose(sigma: CovarianceMatrix, modes) -> np.ndarray:
    """Time reversal (p -> -p) on the selected modes: returns Lambda sigma Lambda.

    The result is a plain matrix because it is generally not a physical state;
    its symplectic spectrum dropping below 1 is exactly the entanglement
    witness.
    """
    modes = sorted(set(modes))
    if not modes or len(modes) >= sigma.n_modes:
        raise ValueError("modes must be a non-empty proper subset of the state's modes")
    if modes[0] < 0 or modes[-1] >= sigma.n_modes:
        raise ValueError(f"mode indices {modes} out of range")
    lam = np.ones(2 * sigma.n_modes)
    for m in modes:
        lam[2 * m + 1] = -1.0
    return sigma.entries * np.outer(lam, lam)


def purity(sigma: CovarianceMatrix) -> float:
    """Purity of the Gaussian state, 1/sqrt(det sigma)."""
    sign, logdet = np.linalg.slogdet(sigma.entries)
    return float(np.exp(-0.5 * logdet))
