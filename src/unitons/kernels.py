"""Hot numeric kernels in vectorized numpy: table evaluation and chain building.

Both kernels take a leading point axis: each point's chain depends on that
point alone, so one call serves a whole grid row or finite-difference stencil.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _horner(coeffs, zs):
    # coeffs: (..., L) degree-ascending; evaluates every polynomial at every
    # point of zs (P,) at once, giving (P, ...)
    zb = zs.reshape((-1,) + (1,) * (coeffs.ndim - 1))
    out = np.zeros(zs.shape + coeffs.shape[:-1], np.complex128)
    for t in range(coeffs.shape[-1] - 1, -1, -1):
        out *= zb
        out += coeffs[..., t]
    return out


def eval_table(nums, dens, dnorms, zs, pole_tol):
    """Evaluate the padded rational table at every point of zs (P,).

    nums/dens: (K, M, J, N, L) coefficient tables, degree-ascending.  Returns
    the evaluated tables (P, K, M, J, N) and ``ok`` (P,), False at a point
    where any entry's denominator falls below ``pole_tol * max(dnorm, 1)``
    (a pole hit; that entry is 0).
    """
    nv = _horner(nums, zs)
    dv = _horner(dens, zs)
    hit = np.abs(dv) < pole_tol * np.maximum(dnorms, 1.0)
    vals = np.zeros_like(nv)
    np.divide(nv, dv, out=vals, where=~hit)
    return vals, ~hit.any(axis=tuple(range(1, hit.ndim)))


def _ranks(sv, tol):
    # numerical ranks: singular values (descending, last axis) above tol * largest
    return np.count_nonzero(sv > tol * sv[..., :1], axis=-1)


def build_chain(hvals, rank_tol):
    """Build the projection chain at every point from its derivative table.

    hvals: (P, r, r, J, n); hvals[p, k, m, j] = k'th derivative of the row-m
    entry of column j at point p.  At step i the vectors
    K^(k)_{i,j} = sum_s C^i_s hvals[k, s-k, j] span the next subspace, whose
    projector feeds the Pascal update of C.  Ranks may differ between points,
    so each point's SVD basis is masked to its own rank.  ``status`` (P,) is 1
    where a singular value lies within a decade of the rank threshold
    (ambiguous rank).
    """
    P, r, _, J, n = hvals.shape
    pis = np.zeros((P, r, n, n), np.complex128)
    perps = np.zeros_like(pis)
    bases = np.zeros_like(pis)
    kvecs = np.zeros((P, r, r, J, n), np.complex128)
    ranks = np.zeros((P, r), np.int64)
    status = np.zeros(P, np.int64)
    eye = np.eye(n, dtype=np.complex128)
    C = np.zeros((P, r + 1, n, n), np.complex128)
    C[:, 0] = eye
    for i in range(r):
        for k in range(i + 1):
            kvecs[:, i, k] = np.einsum("psab,psjb->pja", C[:, k : i + 1], hvals[:, k, : i + 1 - k])
        # columns ordered k-major: column k * J + j is K^(k)_{i,j}
        cols = kvecs[:, i, : i + 1].reshape(P, (i + 1) * J, n).swapaxes(1, 2)
        u, sv, _ = np.linalg.svd(cols, full_matrices=False)
        rank = _ranks(sv, rank_tol)
        thr = rank_tol * sv[:, :1]
        status |= ((thr / 10.0 < sv) & (sv < thr * 10.0)).any(axis=1)
        basis = u * (np.arange(sv.shape[1]) < rank[:, None])[:, None, :]
        pis[:, i] = basis @ basis.conj().swapaxes(1, 2)
        perps[:, i] = eye - pis[:, i]
        bases[:, i, :, : sv.shape[1]] = basis
        ranks[:, i] = rank
        # Pascal update: C^{i+1}_s = perp @ C^i_{s-1} + C^i_s, all s at once
        top = min(i + 1, r)
        C[:, 1 : top + 1] += perps[:, i, None] @ C[:, :top]
    # ranks of the k = 0 layers (the generating subspaces), all steps at once
    gen_ranks = _ranks(np.linalg.svd(kvecs[:, :, 0].swapaxes(-1, -2), compute_uv=False), rank_tol)
    return pis, perps, bases, ranks, gen_ranks, kvecs, status
