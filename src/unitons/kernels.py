"""Hot numeric kernels in vectorized numpy: table evaluation and chain building.

Both kernels take a leading point axis: each point's chain depends on that
point alone, so one call on the calling thread serves a whole grid row or
finite-difference stencil.  Each uniton step's basis is the Q of a two-pass
Gram-Schmidt sweep wherever its R proves the SVD would give full rank and no
ambiguity, and the rank-masked SVD basis everywhere else.
"""

from __future__ import annotations

import numpy as np

from .projections import certified_basis

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
    entry of column j at point p.  At step i the vectors K^(k)_{i,j} =
    sum_s C^i_s hvals[k, s-k, j] span the next subspace.  C^i is never formed:
    kvecs rows x > i hold these sums on the table shifted x - i rows, stepped in
    place by I + lambda perp_i.  Each step's basis comes from
    ``projections.certified_basis``: where the step has no more K-vectors than n,
    a two-pass Gram-Schmidt sweep whose R proves the SVD would give full rank and
    no ambiguity gives Q, and every other point, and every step with more K-vectors than n,
    takes the SVD basis masked to its own rank (ranks may differ between points).
    The projector pi_i holds the step.  ``status`` (P,) is 1 where a singular
    value is within a decade of the rank threshold (ambiguous).
    """
    P, r, _, J, n = hvals.shape
    out = (
        np.zeros((P, r, n, n), np.complex128),  # pis
        np.zeros((P, r, n, n), np.complex128),  # perps
        np.zeros((P, r), np.int64),  # ranks
        np.zeros((P, r, r, J, n), np.complex128),  # kvecs
        np.zeros(P, np.int64),  # status
    )
    _build_chunk(hvals, *out)
    return out


def _build_chunk(hvals, pis, perps, ranks, kvecs, status):
    """``build_chain``'s body: builds the whole batch's chains into its zeroed outputs."""
    P, r, _, J, n = hvals.shape
    eye = np.eye(n, dtype=np.complex128)
    # at step i, row x >= i of block k holds sum_s C^i_s H^(k)_{s-k+x-i}: the table row x - k from C^0 = I
    for k in range(r):
        kvecs[:, k:, k] = hvals[:, k, : r - k]
    for i in range(r):
        # row i is the K-vectors; column k J + j is K^(k)_{i,j}; (i+1) J, not -1, which P = 0 leaves undetermined
        basis, rank, ambiguous = certified_basis(kvecs[:, i, : i + 1].reshape(P, (i + 1) * J, n).swapaxes(1, 2))
        status |= ambiguous
        pis[:, i] = basis @ basis.conj().swapaxes(1, 2)
        perps[:, i] = eye - pis[:, i]
        ranks[:, i] = rank
        for x in range(r - 1, i, -1):  # C^{i+1} = (I + lambda perp_i) C^i: row x <- row x-1 + perp_i row x
            row = kvecs[:, x, : x + 1].reshape(P, (x + 1) * J, n)  # blocks k > x stay zero
            new = row @ perps[:, i].swapaxes(1, 2)  # vectors are rows, v^T perp^T
            new += kvecs[:, x - 1, : x + 1].reshape(P, (x + 1) * J, n)
            row[...] = new
