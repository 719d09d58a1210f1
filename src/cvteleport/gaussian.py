"""Covariance-matrix representation of Gaussian states.

Conventions used throughout the package:

* quadrature ordering is interleaved, ``(x1, p1, x2, p2, ..., xN, pN)``
* vacuum-normalized units: the vacuum covariance matrix is the identity,
  so a state is physical iff every symplectic eigenvalue is >= 1
* the N-splitter is one N x N Helmert matrix on x and p alike, applied per
  quadrature by ``resource_blocks``
* every state the package builds or derives -- the resource, its partial
  transposes, its homodyne-conditioned states -- has no x-p correlations, so it
  is its two N x N blocks sigma_x and sigma_p: an ``XPBlocks`` of (..., N, N)
  stacks, or interleaved entries whose x-p entries are exactly zero.
  ``validated``, ``symplectic_eigenvalues``, ``partial_transpose`` and
  ``localize``'s conditioning take either, and run one N x N kernel per
  operation on the blocks; only a stack with x-p correlations takes the general
  2N x 2N route.  Every function takes a stack; ``build_resource``,
  ``CovarianceMatrix`` and a single matrix are the one-matrix case

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


@dataclass(frozen=True)
class XPBlocks:
    """sigma_x and sigma_p of states without x-p correlations, held as one
    (2, ..., N, N) array ``xp``: ``xp[0]`` stacks the sigma_x, ``xp[1]`` the sigma_p,
    so an operation on both blocks is one numpy call.  A type of its own because the
    bare array would read as a stack of N/2-mode covariance matrices."""

    xp: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.xp[0]

    @property
    def p(self) -> np.ndarray:
        return self.xp[1]

    @property
    def n_modes(self) -> int:
        return self.xp.shape[-1]


def quadrature_blocks(sigma) -> XPBlocks:
    """An XPBlocks itself; for a CovarianceMatrix or a (..., 2N, 2N) stack, a contiguous
    copy of its x-x and p-p blocks, any x-p correlations dropped."""
    if isinstance(sigma, XPBlocks):
        return sigma
    m = np.asarray(getattr(sigma, "entries", sigma), dtype=float)
    return XPBlocks(np.stack((m[..., 0::2, 0::2], m[..., 1::2, 1::2])))


def xp_free(sigma) -> bool:
    """True for an XPBlocks, and for a CovarianceMatrix or symmetric (..., 2N, 2N)
    stack whose x-p entries are all exactly zero: the input of the block kernels."""
    if isinstance(sigma, XPBlocks):
        return True
    return not np.asarray(getattr(sigma, "entries", sigma))[..., 0::2, 1::2].any()


def interleaved(blocks: XPBlocks) -> np.ndarray:
    """The (..., 2N, 2N) entries of the blocks; the x-p entries are 0."""
    x, p = blocks.x, blocks.p
    m = np.zeros((*x.shape[:-2], 2 * x.shape[-1], 2 * x.shape[-1]))
    m[..., 0::2, 0::2], m[..., 1::2, 1::2] = x, p
    return m


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """The stack checked (finite entries, then symmetry to 1e-12) and symmetrized;
    the stack itself where it is exactly symmetric."""
    if not np.isfinite(m).all():
        raise ValueError("covariance matrix has non-finite entries")
    mT = np.swapaxes(m, -1, -2)
    if (m == mT).all():
        return m
    gap = m - mT
    if np.abs(gap, out=gap).max() > SYMMETRY_TOL:
        raise ValueError("covariance matrix is not symmetric to 1e-12")
    m = np.add(m, mT, out=gap)  # 0.5 (m + m^T), in the buffer of the gap
    m *= 0.5
    return m


def _check_blocks(xp: np.ndarray) -> None:
    """sigma + i(1 - tol) Omega > 0 for each (sigma_x, sigma_p) pair of the (2, ..., N, N)
    stack xp: sigma_x > 0, and the Schur complement sigma_p - (1 - tol)^2 sigma_x^-1 > 0.
    With sigma_q = L_q L_q^T, the latter is congruent through L_x to K K^T - (1 - tol)^2 I
    for K = L_x^T L_p, whose singular values are the symplectic spectrum: a Cholesky of
    each block and one of that Gram form, which keeps the rounding of nu^2 at
    eps ||K||^2 where L_x^T sigma_p L_x carries eps ||sigma_x|| ||sigma_p||.  Raises
    LinAlgError where any factorization fails."""
    Lx, Lp = np.linalg.cholesky(xp)
    K = np.swapaxes(Lx, -1, -2) @ Lp
    gram = K @ np.swapaxes(K, -1, -2)
    N = xp.shape[-1]
    gram.reshape(-1, N * N)[:, ::N + 1] -= (1.0 - PHYSICALITY_TOL) ** 2  # the diagonals
    np.linalg.cholesky(gram)


def _check_alone(sigma: np.ndarray) -> None:
    """The general route for one symmetric 2N x 2N matrix: a complex Cholesky of
    sigma + i(1 - tol) Omega accepts it; where that fails, the spectrum decides, with
    a norm-scaled slack for entries >> 1e6, and words the rejection."""
    with suppress(np.linalg.LinAlgError):
        np.linalg.cholesky(sigma + _shifted_omega(sigma.shape[-1]))
        return
    nu_min = _dense_spectrum(sigma)[0]  # rejects sigma unless sigma > 0
    # the slack widens the bound where the spectrum cannot resolve nu to 1e-9; its
    # SVD runs only when 1e-9 rejects
    if nu_min < 1.0 - PHYSICALITY_TOL and (
            nu_min < 1.0 - 64 * np.finfo(float).eps * np.linalg.norm(sigma, 2)):
        raise ValueError(f"unphysical covariance matrix: min symplectic eigenvalue {nu_min:.12g}")


def _check_physical(xp: np.ndarray) -> None:
    """One ``_check_blocks`` over the whole (2, ..., N, N) stack accepts it; where it
    fails, each pair gets its own, and a pair that fails alone goes through
    ``_check_alone``."""
    xp = xp.reshape(2, -1, *xp.shape[-2:])
    with suppress(np.linalg.LinAlgError):
        _check_blocks(xp)
        return
    for one in np.swapaxes(xp, 0, 1):
        with suppress(np.linalg.LinAlgError):
            _check_blocks(one)
            continue
        _check_alone(interleaved(XPBlocks(one)))


def validated(m):
    """Validate each matrix of an XPBlocks or of a (..., 2N, 2N) stack; return the
    input symmetrized, of the same type (the input itself if it is exactly symmetric).

    Checks, in order: finite entries, symmetry to 1e-12, physicality.  Without x-p
    correlations, ``_check_blocks`` accepts every matrix whose symplectic eigenvalues
    all exceed 1 - 1e-9, over the whole stack.  With them, a complex Cholesky of
    sigma + i(1 - 1e-9) Omega does, over slices of the stack.  A matrix that neither
    accepts gets ``_check_alone``, which decides and words the rejection, the
    ValueError the matrix raises alone."""
    if isinstance(m, XPBlocks):
        xp = np.asarray(m.xp, dtype=float)
        if xp.ndim < 3 or len(xp) != 2 or xp.shape[-1] != xp.shape[-2]:
            raise ValueError(f"x and p blocks must be (2, ..., N, N), got shape {xp.shape}")
        xp = _symmetrized(xp)
        _check_physical(xp)
        return XPBlocks(xp)
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2 != 0:
        raise ValueError(f"covariance matrix must be 2N x 2N, got shape {m.shape}")
    m = _symmetrized(m)
    if xp_free(m):
        _check_physical(quadrature_blocks(m).xp)
        return m
    stack, shifted = m.reshape(-1, *m.shape[-2:]), _shifted_omega(m.shape[-1])
    for at in range(0, len(stack), _CHOLESKY_SLICE):
        part = stack[at:at + _CHOLESKY_SLICE]
        with suppress(np.linalg.LinAlgError):  # sigma + i(1 - tol) Omega > 0: every nu
            np.linalg.cholesky(part + shifted)  # > 1 - tol, so sigma > 0 too
            continue
        for sigma in part:
            _check_alone(sigma)
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


def resource_blocks(N: int, variances) -> XPBlocks:
    """Unvalidated blocks, each (k, N, N), of the N-mode resources whose input
    variances (v1x, v2x, v1p, v2p) have shape (4,) or (4, k): each quadrature's block
    is the symmetrized O diag(v) O^T, with O from ``_helmert`` and v = (v1, v2, ..., v2)."""
    v = np.reshape(variances, (2, 2, -1))  # [quadrature][v1, v2][resource]
    diag = np.repeat(v, (1, N - 1), axis=1).transpose(0, 2, 1)  # [quadrature][resource][mode]
    scaled = np.multiply(_helmert(N), diag[:, :, None], order="C")  # O diag(v), contiguous
    blocks = scaled @ _helmert(N).T
    blocks = np.add(blocks, np.swapaxes(blocks, 2, 3), out=scaled)  # in the buffer of O diag(v)
    blocks *= 0.5
    return XPBlocks(blocks)


def resource_entries(N: int, variances) -> np.ndarray:
    """The (k, 2N, 2N) interleaved entries of ``resource_blocks``."""
    return interleaved(resource_blocks(N, variances))


def build_resource(spec: ResourceSpec) -> CovarianceMatrix:
    """N-mode symmetric resource: N-splitter on one momentum-squeezed mode (n1, r1)
    and N-1 position-squeezed modes (n2, r2); ``resource_entries`` for k = 1."""
    v = _input_variances(spec.n1, spec.n2, spec.r1, spec.r2)
    return CovarianceMatrix(resource_entries(spec.N, v)[0])


def _dense_spectrum(m: np.ndarray) -> np.ndarray:
    """With sigma = L L^T (Cholesky), Omega sigma is similar to the real skew-symmetric
    L^T Omega L, whose singular values are the N symplectic eigenvalues, each twice;
    the pairs are collapsed to one value."""
    try:
        L = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("covariance matrix is not positive definite") from None
    skew = np.swapaxes(L, -1, -2) @ omega(m.shape[-1] // 2) @ L
    nu = np.linalg.svd(skew, compute_uv=False)[..., ::-1]
    return 0.5 * (nu[..., 0::2] + nu[..., 1::2])


def symplectic_eigenvalues(sigma) -> np.ndarray:
    """Symplectic spectrum of each positive-definite CM-shaped matrix of an XPBlocks or
    a (..., 2N, 2N) stack, sorted ascending along the last axis.

    Without x-p correlations, with sigma_x = L_x L_x^T and sigma_p = L_p L_p^T, the
    spectrum is the singular values of L_x^T L_p: their squares are the eigenvalues
    of sigma_x sigma_p.  With them, ``_dense_spectrum`` takes the 2N x 2N route.
    Accepts a CovarianceMatrix or raw symmetric matrices: a partial transpose
    Lambda sigma Lambda is congruent to sigma, so it is positive definite too.
    Raises ValueError if a matrix is not positive definite.
    """
    if not xp_free(sigma):
        return _dense_spectrum(np.asarray(getattr(sigma, "entries", sigma), dtype=float))
    try:
        Lx, Lp = np.linalg.cholesky(quadrature_blocks(sigma).xp)
    except np.linalg.LinAlgError:
        raise ValueError("covariance matrix is not positive definite") from None
    return np.linalg.svd(np.swapaxes(Lx, -1, -2) @ Lp, compute_uv=False)[..., ::-1]


def partial_transpose(sigma, modes):
    """Time reversal (p -> -p) on the selected modes of a CovarianceMatrix, of each
    matrix of a (..., 2N, 2N) stack, or of an XPBlocks: returns Lambda sigma Lambda,
    as plain matrices or as an XPBlocks whose p block has those rows and columns
    negated.

    The result is not a CovarianceMatrix because it is generally not a physical
    state; its symplectic spectrum dropping below 1 is exactly the entanglement
    witness.
    """
    blocks = isinstance(sigma, XPBlocks)
    m = sigma if blocks else np.asarray(getattr(sigma, "entries", sigma), float)
    n_modes = m.n_modes if blocks else m.shape[-1] // 2
    modes = sorted(set(modes))
    if not modes or len(modes) >= n_modes:
        raise ValueError("modes must be a non-empty proper subset of the state's modes")
    if modes[0] < 0 or modes[-1] >= n_modes:
        raise ValueError(f"mode indices {modes} out of range")
    lam = np.ones(n_modes if blocks else 2 * n_modes)
    lam[modes if blocks else [2 * j + 1 for j in modes]] = -1.0
    if not blocks:
        return m * np.outer(lam, lam)
    xp = m.xp.copy()
    xp[1] *= np.outer(lam, lam)
    return XPBlocks(xp)


def purity(sigma: CovarianceMatrix) -> float:
    """Purity of the Gaussian state, 1/sqrt(det sigma)."""
    sign, logdet = np.linalg.slogdet(sigma.entries)
    return float(np.exp(-0.5 * logdet))
