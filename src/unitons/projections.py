"""Pointwise subspace linear algebra: spans, projection pairs, the C and S
operator calculus, and subspace comparison by the projector gap."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BadShape

RANK_TOL = 1e-9     # relative singular-value cutoff for numerical rank
ORTHONORMAL_TOL = 1e-12  # largest entry of B* B - I for orthonormal columns (and U U* - I for unitary U)


class Span:
    """Subspace of C^n held as an n x k matrix with orthonormal columns (k may be 0)."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, basis: np.ndarray, ambient_dim: int | None = None, validate: bool = True):
        basis = np.asarray(basis, dtype=np.complex128)
        if basis.ndim == 1:
            basis = basis[:, None]
        n = ambient_dim if ambient_dim is not None else basis.shape[0]
        if basis.shape[0] != n:
            raise BadShape("basis rows must match ambient dimension")
        if validate and basis.shape[1] > 0:
            gram = basis.conj().T @ basis
            if np.abs(gram - np.eye(basis.shape[1])).max() > ORTHONORMAL_TOL:
                raise BadShape("basis columns are not orthonormal")
        self.ambient_dim = n
        self.basis = basis

    @classmethod
    def zero(cls, n: int) -> "Span":
        return cls(np.zeros((n, 0), np.complex128), n, validate=False)

    @classmethod
    def full(cls, n: int) -> "Span":
        return cls(np.eye(n, dtype=np.complex128), n, validate=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def numerical_rank(sv: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Count singular values (descending, last axis) above
    RANK_TOL * max(sigma_max, scale); broadcasts over leading axes."""
    return np.count_nonzero(sv > RANK_TOL * np.maximum(sv[..., :1], scale), axis=-1)


def masked_basis(mat: np.ndarray, scale: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, sv, rank) of the SVD of each matrix of a stack (..., n, m), with the
    columns of u past the numerical rank zeroed, so u u* is the projector onto
    the column span even where the ranks within the stack differ."""
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    rank = numerical_rank(sv, scale)
    return u * (np.arange(sv.shape[-1]) < rank[..., None])[..., None, :], sv, rank


def _column_span(mat: np.ndarray, scale: float) -> Span:
    if mat.ndim == 1:
        mat = mat[:, None]
    u, _, rank = masked_basis(mat, scale)
    return Span(u[:, :rank], mat.shape[0], validate=False)


def orthonormal_basis(matrix: np.ndarray) -> Span:
    """Orthonormal basis of the column span of a matrix, or of one vector (SVD rank decision)."""
    return _column_span(np.asarray(matrix, dtype=np.complex128), 0.0)


def image_span(matrix: np.ndarray) -> Span:
    """Column span of a matrix whose natural scale is 1 (a product of projections).

    Unlike orthonormal_basis, the cutoff is RANK_TOL * max(sigma_max, 1), so a
    noise-only matrix (e.g. the complement of a full projection, entries
    ~1e-16) collapses to the zero span instead of inflating to full rank.
    """
    return _column_span(np.asarray(matrix, dtype=np.complex128), 1.0)


def projection_pair(s: Span) -> tuple[np.ndarray, np.ndarray]:
    """(pi, pi_perp) for the span: pi = B B*, pi_perp = I - pi."""
    pi = s.basis @ s.basis.conj().T
    return pi, np.eye(s.ambient_dim, dtype=np.complex128) - pi


def pascal_step(C: np.ndarray, perp: np.ndarray, top: int) -> None:
    """In place, C^{i+1}_s = perp C^i_{s-1} + C^i_s for s = 1..top, all s at
    once; the s axis of C is third from last, any leading axes broadcast."""
    C[..., 1 : top + 1, :, :] += perp[..., None, :, :] @ C[..., :top, :, :]


def c_rows(perps: Sequence[np.ndarray], n: int, smax: int) -> np.ndarray:
    """All C^i_s for the chain with the given perps, s = 0..smax on axis -3.
    The steps run along axis -3 of perps; leading axes (a stack of chains) broadcast.

    Pascal recursion: C^i_s = perp_i C^{i-1}_{s-1} + C^{i-1}_s.
    """
    perps = np.asarray(perps, np.complex128)
    if perps.ndim < 3:  # an empty sequence
        perps = perps.reshape(0, n, n)
    C = np.zeros(perps.shape[:-3] + (smax + 1, n, n), np.complex128)
    C[..., 0, :, :] = np.eye(n)
    for ell in range(1, perps.shape[-3] + 1):
        pascal_step(C, perps[..., ell - 1, :, :], min(smax, ell))
    return C


def s_rows(pis: Sequence[np.ndarray], perps: Sequence[np.ndarray], n: int) -> np.ndarray:
    """All S^i_s for s = 0..i on axis -3, via S^i_s = perp_i S^{i-1}_{s-1} + pi_i S^{i-1}_s.
    The steps run along axis -3 of pis and perps; leading axes broadcast, as in c_rows."""
    pis, perps = (np.asarray(a, np.complex128) for a in (pis, perps))
    pis, perps = (a if a.ndim >= 3 else a.reshape(0, n, n) for a in (pis, perps))  # an empty sequence
    S = np.zeros(pis.shape[:-3] + (pis.shape[-3] + 1, n, n), np.complex128)
    S[..., 0, :, :] = np.eye(n)
    for ell in range(1, pis.shape[-3] + 1):
        pi, perp = pis[..., ell - 1, None, :, :], perps[..., ell - 1, None, :, :]
        S[..., 1 : ell + 1, :, :] = perp @ S[..., :ell, :, :] + pi @ S[..., 1 : ell + 1, :, :]
        S[..., 0, :, :] = pis[..., ell - 1, :, :] @ S[..., 0, :, :]
    return S


def principal_angles(a: Span, b: Span) -> np.ndarray:
    """Principal angles between two spans, ascending, in radians.

    Cosine singular values lose precision near zero angle, so small angles
    are recomputed from the sine route (residual of b against a).
    """
    if a.ambient_dim != b.ambient_dim:
        raise BadShape("principal angles need a common ambient space")
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    m = min(a.dim, b.dim)
    cross = a.basis.conj().T @ b.basis
    cosv = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)  # descending
    resid = b.basis - a.basis @ cross
    sinv = np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0)
    sinv = sinv[-m:][::-1]  # ascending, aligned with ascending angles
    angles = np.empty(m)
    for k in range(m):
        if cosv[k] ** 2 <= 0.5:
            angles[k] = np.arccos(cosv[k])
        else:
            angles[k] = np.arcsin(sinv[k])
    return angles


def projector_gap(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Largest principal angle between the images of orthogonal projectors p
    and q (..., n, n): arcsin ||p - q||_2 where their rounded traces (ranks)
    agree, pi/2 where they do not.  Leading axes broadcast."""
    sin = np.minimum(1.0, np.linalg.svd(p - q, compute_uv=False).max(axis=-1, initial=0.0))
    ranks = [np.rint(np.trace(m, axis1=-2, axis2=-1).real) for m in (p, q)]
    return np.where(ranks[0] == ranks[1], np.arcsin(sin), np.pi / 2)
