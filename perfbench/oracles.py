"""Correctness oracles that share no code path with the package.

Everything here works on decoded JSON or plain numpy arrays with numpy's own
linear algebra: the benchmark's own polynomial evaluation, rank decision,
projectors and subspace gaps.  None of it calls into ``unitons``.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9

# Acceptance tolerances of the 14 verification checks (tests/test_acceptance.py
# and the documented defaults); a report passes only if each residual is within.
VERIFY_TOLERANCES = {
    "harmonicity": 1e-5,
    "extended_solution": 1e-5,
    "extended_unitarity": 1e-10,
    "phi_one": 1e-12,
    "reality": 1e-10,
    "map_unitarity": 1e-10,
    "covering": 1e-7,
    "perp_surjectivity": 1e-7,
    "alpha1_image": 1e-7,
    "section_holomorphic": 1e-5,
    "section_ladder": 1e-5,
    "dzbar_lemma": 1e-5,
    "antibasic": 1e-5,
    "top_coefficient": 1e-10,
}

EIGHTH_ROOTS = np.exp(2j * np.pi * np.arange(8) / 8)


def decode_matrix(obj) -> np.ndarray:
    rows, cols = (int(x) for x in obj["shape"])
    flat = np.array([complex(a, b) for a, b in obj["data"]], dtype=np.complex128)
    if flat.size != rows * cols:
        raise ValueError("matrix data does not match its shape")
    return flat.reshape(rows, cols)


def poly_at(pairs, z: complex) -> complex:
    """Degree-ascending [re, im] coefficient list evaluated at z (Horner)."""
    acc = 0j
    for re, im in reversed(pairs):
        acc = acc * z + complex(re, im)
    return acc


def vector_at(vec_json, z: complex) -> np.ndarray:
    """A JSON vector of rational functions evaluated at z."""
    return np.array([poly_at(f["num"], z) / poly_at(f["den"], z) for f in vec_json], np.complex128)


def span_basis(mat: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column span, relative singular-value cutoff."""
    mat = np.atleast_2d(np.asarray(mat, np.complex128))
    if mat.shape[1] == 0:
        return mat
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :rank]


def projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def span_gap(a: np.ndarray, b: np.ndarray) -> float:
    """sin of the largest principal angle between two orthonormal bases
    (spectral norm of the projector difference); inf when the dimensions differ."""
    if a.shape[1] != b.shape[1]:
        return float("inf")
    return float(np.linalg.svd(projector(a) - projector(b), compute_uv=False)[0])


def projection_gap(p1: np.ndarray, p2: np.ndarray) -> float:
    """Gap between the images of two projection matrices."""
    return span_gap(span_basis(p1), span_basis(p2))


def hermitian_idempotent_defect(p: np.ndarray) -> float:
    return float(max(np.abs(p @ p - p).max(), np.abs(p - p.conj().T).max()))


def loop_at(coeffs: np.ndarray, lam: complex) -> np.ndarray:
    """sum_k lam^k T_k for an (r+1, n, n) coefficient stack."""
    return sum(lam**k * t for k, t in enumerate(coeffs))


def chain_product(pis, lam: complex, n: int) -> np.ndarray:
    """prod_i (pi_i + lam (I - pi_i)), left to right."""
    eye = np.eye(n, dtype=np.complex128)
    out = eye.copy()
    for pi in pis:
        out = out @ (pi + lam * (eye - pi))
    return out


def unitarity_defect(m: np.ndarray) -> float:
    return float(np.abs(m @ m.conj().T - np.eye(m.shape[0])).max())


def nu_identity(r: int, n: int) -> np.ndarray:
    """nu_I on C^{rn}: block k scaled by (-1)^k."""
    return np.diag(np.repeat((-1.0) ** np.arange(r), n)).astype(np.complex128)
