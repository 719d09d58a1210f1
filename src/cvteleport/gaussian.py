"""Covariance-matrix representation of Gaussian states.

Conventions used throughout the package:

* quadrature ordering is interleaved, ``(x1, p1, x2, p2, ..., xN, pN)``
* vacuum-normalized units: the vacuum covariance matrix is the identity,
  so a state is physical iff every symplectic eigenvalue is >= 1
* the N-splitter is one N x N Helmert matrix on x and p alike, applied per
  quadrature by ``resource_entries``
* every function here takes a (..., 2N, 2N) stack: ``resource_entries`` builds
  and ``validated`` checks one, and the spectrum and partial transpose act per
  slice; ``build_resource``, ``CovarianceMatrix`` and a single matrix are the
  one-matrix case

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
_CHOLESKY_SLICE = 8  # matrices per complex Cholesky in ``validated``: bounds its transient


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


def validated(m) -> np.ndarray:
    """Validate each matrix of a (..., 2N, 2N) stack; return the stack symmetrized.

    Checks, in order: finite entries, symmetry to 1e-12, physicality.  A complex
    Cholesky of sigma + i(1 - 1e-9) Omega, over slices of the stack, accepts every
    matrix whose symplectic eigenvalues all exceed 1 - 1e-9.  In a slice where it
    fails, each matrix gets its own; only where that fails does the spectrum decide
    and word the rejection, the ValueError the matrix raises alone."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2 != 0:
        raise ValueError(f"covariance matrix must be 2N x 2N, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("covariance matrix has non-finite entries")
    mT = np.swapaxes(m, -1, -2)
    gap = m - mT
    if np.abs(gap, out=gap).max() > SYMMETRY_TOL:
        raise ValueError("covariance matrix is not symmetric to 1e-12")
    m = np.add(m, mT, out=gap)  # 0.5 (m + m^T), in the buffer of the gap
    m *= 0.5
    stack, shifted = m.reshape(-1, *m.shape[-2:]), _shifted_omega(m.shape[-1])
    for at in range(0, len(stack), _CHOLESKY_SLICE):
        part = stack[at:at + _CHOLESKY_SLICE]
        with suppress(np.linalg.LinAlgError):  # sigma + i(1 - tol) Omega > 0: every nu
            np.linalg.cholesky(part + shifted)  # > 1 - tol, so sigma > 0 too
            continue
        for sigma in part:
            with suppress(np.linalg.LinAlgError):
                np.linalg.cholesky(sigma + shifted)
                continue
            nu_min = symplectic_eigenvalues(sigma)[0]  # rejects sigma unless sigma > 0
            # norm-scaled slack for entries >> 1e6, where the spectrum cannot resolve nu
            # to 1e-9; it only widens the bound, so its SVD runs only when 1e-9 rejects
            if nu_min < 1.0 - PHYSICALITY_TOL and (
                    nu_min < 1.0 - 64 * np.finfo(float).eps * np.linalg.norm(sigma, 2)):
                raise ValueError(
                    f"unphysical covariance matrix: min symplectic eigenvalue {nu_min:.12g}")
    return m


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2N x 2N matrix of quadrature second moments; see ``validated``."""

    entries: np.ndarray
    n_modes: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"covariance matrix must be 2N x 2N, got shape {m.shape}")
        m = validated(m)
        object.__setattr__(self, "entries", _freeze(m))
        object.__setattr__(self, "n_modes", m.shape[0] // 2)

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


def resource_entries(N: int, variances) -> np.ndarray:
    """Unvalidated (k, 2N, 2N) entries of the N-mode resources whose input variances
    (v1x, v2x, v1p, v2p) have shape (4,) or (4, k).  Each quadrature block is the
    symmetrized O diag(v) O^T, with O from ``_helmert`` and v = (v1, v2, ..., v2);
    the x-p blocks are 0."""
    v = np.reshape(variances, (2, 2, -1))  # [quadrature][v1, v2][resource]
    diag = np.repeat(v, (1, N - 1), axis=1).transpose(0, 2, 1)  # [quadrature][resource][mode]
    blocks = (_helmert(N) * diag[:, :, None]) @ _helmert(N).T
    m = np.zeros((v.shape[2], 2 * N, 2 * N))
    m[:, 0::2, 0::2], m[:, 1::2, 1::2] = blocks + np.swapaxes(blocks, 2, 3)
    m *= 0.5
    return m


def build_resource(spec: ResourceSpec) -> CovarianceMatrix:
    """N-mode symmetric resource: N-splitter on one momentum-squeezed mode (n1, r1)
    and N-1 position-squeezed modes (n2, r2); ``resource_entries`` for k = 1."""
    v = _input_variances(spec.n1, spec.n2, spec.r1, spec.r2)
    return CovarianceMatrix(resource_entries(spec.N, v)[0])


def symplectic_eigenvalues(sigma) -> np.ndarray:
    """Symplectic spectrum of each positive-definite CM-shaped matrix of a
    (..., 2N, 2N) stack, sorted ascending along the last axis.

    With sigma = L L^T (Cholesky), Omega sigma is similar to the real
    skew-symmetric L^T Omega L, whose singular values are the N symplectic
    eigenvalues, each twice; the pairs are collapsed to one value.  Accepts a
    CovarianceMatrix or raw symmetric matrices: a partial transpose Lambda
    sigma Lambda is congruent to sigma, so it is positive definite too.
    Raises ValueError if a matrix is not positive definite.
    """
    m = sigma.entries if isinstance(sigma, CovarianceMatrix) else np.asarray(sigma, float)
    try:
        L = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("covariance matrix is not positive definite") from None
    skew = np.swapaxes(L, -1, -2) @ omega(m.shape[-1] // 2) @ L
    nu = np.linalg.svd(skew, compute_uv=False)[..., ::-1]
    return 0.5 * (nu[..., 0::2] + nu[..., 1::2])  # collapse the degenerate pairs


def partial_transpose(sigma, modes) -> np.ndarray:
    """Time reversal (p -> -p) on the selected modes of a CovarianceMatrix or of
    each matrix of a (..., 2N, 2N) stack: returns Lambda sigma Lambda.

    The result is plain matrices because it is generally not a physical state;
    its symplectic spectrum dropping below 1 is exactly the entanglement
    witness.
    """
    m = np.asarray(getattr(sigma, "entries", sigma), float)
    n_modes = m.shape[-1] // 2
    modes = sorted(set(modes))
    if not modes or len(modes) >= n_modes:
        raise ValueError("modes must be a non-empty proper subset of the state's modes")
    if modes[0] < 0 or modes[-1] >= n_modes:
        raise ValueError(f"mode indices {modes} out of range")
    lam = np.ones(2 * n_modes)
    for j in modes:
        lam[2 * j + 1] = -1.0
    return m * np.outer(lam, lam)


def purity(sigma: CovarianceMatrix) -> float:
    """Purity of the Gaussian state, 1/sqrt(det sigma)."""
    sign, logdet = np.linalg.slogdet(sigma.entries)
    return float(np.exp(-0.5 * logdet))
