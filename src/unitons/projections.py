"""Pointwise subspace linear algebra: spans, projection pairs, the coefficients
of products of linear loop factors (the C and S operators among them), and
subspace comparison by the projector gap."""

from __future__ import annotations

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


def certified_basis(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis, rank, ambiguous) of each matrix of a stack (..., n, m) under the SVD
    rule at scale 0: ``masked_basis``'s u and rank, ambiguous where a singular value
    lies within a decade of the cutoff RANK_TOL sigma_max.

    Where m <= n, one reduced QR bounds each point's singular values: lo = 1/|R^-1|_F
    <= sigma_min and hi = |R|_F >= sigma_max.  Where lo > 100 RANK_TOL hi, a decade
    above the ambiguity band that absorbs rounding, the SVD would give rank m and no
    flag, and Q spans the same space as its u, so the point takes Q.  Every other
    point (a near-degenerate, zero or non-finite matrix) and every stack with m > n
    takes ``masked_basis`` and the band rule, bit for bit as without the QR."""

    def svd_rule(stack):
        u, sv, rank = masked_basis(stack)
        thr = RANK_TOL * sv[..., :1]
        return u, rank, ((thr / 10.0 < sv) & (sv < thr * 10.0)).any(axis=-1)

    m = mat.shape[-1]
    if m > mat.shape[-2]:
        return svd_rule(mat)
    q, R = np.linalg.qr(mat)
    inv = np.zeros_like(R)  # R^-1, upper triangular, row by row from the last
    with np.errstate(all="ignore"):  # a zero pivot leaves lo = 0 or nan: not certified
        for k in range(m - 1, -1, -1):
            inv[..., k, k] = 1.0
            inv[..., k, k:] -= (R[..., k : k + 1, k + 1 :] @ inv[..., k + 1 :, k:])[..., 0, :]
            inv[..., k, k:] /= R[..., k, k, None]
        lo = 1.0 / np.linalg.norm(inv, axis=(-2, -1))
        bad = ~(lo > 100.0 * RANK_TOL * np.linalg.norm(R, axis=(-2, -1)))
    rank, ambiguous = np.full(bad.shape, m), np.zeros(bad.shape, bool)
    if bad.any():
        q[bad], rank[bad], ambiguous[bad] = svd_rule(mat[bad])
    return q, rank, ambiguous


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


def factor_step(T: np.ndarray, a: np.ndarray | None, b: np.ndarray, top: int, left: bool) -> None:
    """In place, multiply T_0..T_top (axis -3) of a polynomial in lambda by a + lambda b:
    T_t <- a T_t + b T_{t-1} (left) or T_t a + T_{t-1} b, all t at once, with T_{-1} = 0
    and a = None for I; a, b (..., n, n) broadcast over T's leading axes.  A factor
    a + lambda^{-1} b is the same step on the reversed coefficient axis."""
    n, lead = T.shape[-1], T.shape[:-3]

    def times(m, rows):  # m times each of T_0..T_{rows-1}; on the right, as one (rows n, n) matrix
        if left:
            return m[..., None, :, :] @ T[..., :rows, :, :]
        return (T[..., :rows, :, :].reshape(lead + (rows * n, n)) @ m).reshape(lead + (rows, n, n))

    if a is None:  # one temporary, added in place
        T[..., 1 : top + 1, :, :] += times(b, top)
    else:
        new = times(a, top + 1)
        new[..., 1:, :, :] += times(b, top)
        T[..., : top + 1, :, :] = new


def factor_products(a, b, n: int, left: bool = True, top: int | None = None) -> np.ndarray:
    """T_0..T_top (top = r unless given) on axis -3 of the product of a_i + lambda b_i, i = 1..r on
    axis -3 of a and b, each applied to T_0 = I by ``factor_step``; leading axes broadcast, bit for bit
    as each chain's own call.  On the left, I + lambda perp_i gives the C^i_s, pi_i + lambda perp_i the S^i_s."""
    a, b = (m if m is None else np.asarray(m, np.complex128) for m in (a, b))
    if b.ndim < 3:  # an empty sequence
        a, b = (m if m is None else m.reshape(0, n, n) for m in (a, b))
    top = b.shape[-3] if top is None else top
    T = np.zeros(b.shape[:-3] + (top + 1, n, n), np.complex128)
    T[..., 0, :, :] = np.eye(n)
    for i in range(b.shape[-3]):
        factor_step(T, None if a is None else a[..., i, :, :], b[..., i, :, :], min(i + 1, top), left)
    return T


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
