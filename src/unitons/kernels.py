"""Hot numeric kernels in vectorized numpy: table evaluation and chain building.

Both kernels take a leading point axis: each point's chain depends on that
point alone, so one call serves a whole grid row or finite-difference stencil.
"""

from __future__ import annotations

import numpy as np

from .projections import RANK_TOL, masked_basis, pascal_step

BACKEND = "numpy"


def eval_table(coeffs, zs):
    """Evaluate every polynomial of a padded table (..., L), degree-ascending,
    at every point of zs (P,) at once by Horner's rule, giving (P, ...)."""
    zb = zs.reshape((-1,) + (1,) * (coeffs.ndim - 1))
    out = np.zeros(zs.shape + coeffs.shape[:-1], np.complex128)
    for t in range(coeffs.shape[-1] - 1, -1, -1):
        out *= zb
        out += coeffs[..., t]
    return out


def build_chain(hvals):
    """Build the projection chain at every point from its derivative table.

    hvals: (P, r, r, J, n); hvals[p, k, m, j] = k'th derivative of the row-m
    entry of column j at point p.  At step i the vectors
    K^(k)_{i,j} = sum_s C^i_s hvals[k, s-k, j] span the next subspace, whose
    projector feeds the Pascal update of C.  Ranks may differ between points,
    so each point's SVD basis is masked to its own rank; it is not returned,
    the projector pi_i holds the step.  ``status`` (P,) is 1 where a singular
    value lies within a decade of the rank threshold (ambiguous rank).
    """
    P, r, _, J, n = hvals.shape
    pis = np.zeros((P, r, n, n), np.complex128)
    perps = np.zeros_like(pis)
    kvecs = np.zeros((P, r, r, J, n), np.complex128)
    ranks = np.zeros((P, r), np.int64)
    status = np.zeros(P, np.int64)
    eye = np.eye(n, dtype=np.complex128)
    C = np.zeros((P, r, n, n), np.complex128)  # C^i_s for s < r: the last step's C is never read
    C[:, :1] = eye
    for i in range(r):
        for k in range(i + 1):
            kvecs[:, i, k] = np.einsum("psab,psjb->pja", C[:, k : i + 1], hvals[:, k, : i + 1 - k])
        # column k J + j is K^(k)_{i,j}; (i+1) J, not -1, which an empty point axis leaves undetermined
        basis, sv, rank = masked_basis(kvecs[:, i, : i + 1].reshape(P, (i + 1) * J, n).swapaxes(1, 2))
        thr = RANK_TOL * sv[:, :1]
        status |= ((thr / 10.0 < sv) & (sv < thr * 10.0)).any(axis=1)
        pis[:, i] = basis @ basis.conj().swapaxes(1, 2)
        perps[:, i] = eye - pis[:, i]
        ranks[:, i] = rank
        if i + 1 < r:
            pascal_step(C, perps[:, i], i + 1)
    return pis, perps, ranks, kvecs, status
