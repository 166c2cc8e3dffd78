"""The finite Grassmannian model: lambda-invariant subspaces of C^{rn}.

Block k of a C^{rn} vector holds the lambda^k coefficient of a polynomial
truncated at degree r.  Loops act on these blocks; the shift map is
multiplication by lambda.  This module converts between data arrays, loop
fibers and W subspaces, and factorizes loops back into projection chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .builder import _tables, extended_coefficients, reality_defect
from .errors import (
    BadShape,
    DegreeNoDrop,
    NonProperUniton,
    NoTermination,
    NotLambdaInvariant,
)
from .projections import (
    Span,
    factor_step,
    masked_basis,
    numerical_rank,
    orthonormal_basis,
    projection_pair,
    projector_gap,
)

LAMBDA_TOL = 1e-8     # allowed shift-invariance defect of a W subspace
BOUNDARY_TOL = 1e-9   # boundary coefficients must vanish below this when dividing
TRIM_TOL = 1e-9       # a loop coefficient below this is treated as zero
REALITY_TOL = 1e-10   # a loop fiber must have T_0 T_r^* and T_r^* T_0 below this
Q_ADAPTED_TOL = 1e-7  # W is nu_Q-invariant when its projector gap to nu_Q W is at most this
IDENTITY_TOL = 1e-8   # the kernel descent's residual constant term must be within this of I
NORM_FLOOR = 1e-12    # a shifted W column below this norm counts as zero in the shift defect


def loop_at(coeffs: np.ndarray, lam) -> np.ndarray:
    """sum_t lam^t coeffs[..., t, :, :] for coefficients (..., T, n, n); an array
    lam broadcasts against the leading axes, giving the loop at each of its values."""
    out = np.zeros(np.broadcast_shapes(np.shape(lam), coeffs.shape[:-3] + coeffs.shape[-2:]), np.complex128)
    for t in range(coeffs.shape[-3]):
        out += lam**t * coeffs[..., t, :, :]
    return out


class LoopPoly:
    """Polynomial loop T_0 + lambda T_1 + ... + lambda^r T_r at one fiber, or at
    a stack of fibers of one degree: coeffs (r+1, n, n) or (P, r+1, n, n)."""

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim not in (3, 4) or coeffs.shape[-2] != coeffs.shape[-1]:
            raise BadShape("coeffs must be (r+1, n, n) or (P, r+1, n, n)")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-3] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    def at(self, lam) -> np.ndarray:
        return loop_at(self.coeffs, lam)

    def trimmed(self) -> "LoopPoly":
        deg = self.degree
        while deg > 0 and np.abs(self.coeffs[..., deg, :, :]).max() <= TRIM_TOL:
            deg -= 1
        return LoopPoly(self.coeffs[..., : deg + 1, :, :])


class WSubspace:
    """Subspace of H_+/lambda^r H_+ ~ C^{rn} closed under the lambda shift, basis (rn, k), or a
    stack of them, (P, rn, k) with each fiber's columns past its dimension zeroed.  One subspace
    that is not shift-invariant raises NotLambdaInvariant; a stack records each fiber's in ``errors``."""

    def __init__(self, r: int, n: int, basis: np.ndarray):
        basis = np.asarray(basis, dtype=np.complex128)
        if basis.shape[-2] != r * n:
            raise BadShape("basis rows must equal r*n")
        self.r = r
        self.n = n
        self.basis = basis
        self.errors = [
            NotLambdaInvariant(f"shift-invariance defect {d:.2e} exceeds {LAMBDA_TOL:.0e}") if d > LAMBDA_TOL else None
            for d in np.ravel(self.lambda_defect())
        ]
        if basis.ndim == 2 and self.errors[0]:
            raise self.errors[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    def lambda_defect(self) -> np.ndarray:
        """max over shifted basis columns of the relative distance to the span,
        per fiber of a stack; a zero column (and its shift) is skipped."""
        b = self.basis
        shifted = np.zeros_like(b)  # multiplication by lambda: block k moves to block k + 1
        shifted[..., self.n :, :] = b[..., : b.shape[-2] - self.n, :]
        resid = shifted - b @ (b.conj().swapaxes(-1, -2) @ shifted)
        norms = np.linalg.norm(shifted, axis=-2)
        ratio = np.divide(np.linalg.norm(resid, axis=-2), norms, out=np.zeros_like(norms), where=norms > NORM_FLOOR)
        return ratio.max(axis=-1, initial=0.0)


def binomial_transform(table: np.ndarray) -> np.ndarray:
    """L_i = sum_l C(i,l) H_l on a derivative table (r, r, J, n, L) of the
    rows H_l (``builder._tables``): one Pascal contraction along the row axis,
    which commutes with d/dz, giving the table of the L_i in the same layout,
    zeros at k + i > r-1 included.  On Gaussian-integer data the sums are exact."""
    r = table.shape[0]
    pascal = np.array([[math.comb(i, ell) for ell in range(r)] for i in range(r)], np.float64).reshape(r, r)
    out = np.einsum("il,kl...->ki...", pascal, table)
    out[np.add.outer(np.arange(r), np.arange(r)) >= r] = 0.0
    return out


def x_columns_from_data(data) -> np.ndarray:
    """The X spanning set of the model: the binomial transform of the data's
    cached derivative table, a new array (r, r, J_slots, n, L)."""
    return binomial_transform(_tables(data.n, data.r, data.columns))


def w_from_x(x_table: np.ndarray, z: complex) -> WSubspace:
    """W = X + lambda X_(1) + ... + lambda^{r-1} X_(r-1) + lambda^r H_+ at z,
    from X's derivative table (r, r, J, n, L), laid out as ``builder._tables``.

    The table holds block i of X^(m) for m <= r-1-i, exactly the blocks that
    lambda^k X^(m) (m <= k) keeps below lambda^r.  A table of no block
    (r = 0) gives W = H_+, the zero subspace of C^0, as ``w_from_loop`` does.
    """
    x_table = np.asarray(x_table)
    if x_table.ndim != 5 or x_table.shape[0] != x_table.shape[1]:
        raise BadShape(f"X must be a derivative table (r, r, J, n, L), got shape {x_table.shape}")
    r, _, slots, n, _ = x_table.shape
    if r == 0:
        return WSubspace(0, n, np.zeros((0, 0), np.complex128))
    vals = kernels.eval_table(x_table, np.array([z], np.complex128))
    # the table's rows, then one zero row
    rows = np.concatenate([vals[0].reshape(-1, n), np.zeros((1, n), np.complex128)])
    blocks = rows[_w_gather(r, slots)]  # (r, vectors, n)
    basis = orthonormal_basis(blocks.transpose(0, 2, 1).reshape(r * n, -1))
    return WSubspace(r, n, basis.basis)


@lru_cache(maxsize=16)
def _w_gather(r: int, slots: int) -> np.ndarray:
    """Row indices (r, slots * r(r+1)/2) into a table (r, r, slots, n) flattened to
    rows, with the zero row r * r * slots appended: entry [b, v] is block b of
    vector v = lambda^k X_j^(m), ordered by j, then k, then m <= k, which is row
    b - k of X_j^(m) for b >= k and zero below."""
    b, j, k, m = np.indices((r, slots, r, r))
    idx = np.where(b >= k, (m * r + b - k) * slots + j, r * r * slots)
    tri_k, tri_m = np.tril_indices(r)
    return idx[:, :, tri_k, tri_m].reshape(r, -1)


def w_from_loop(loop: LoopPoly) -> WSubspace:
    """W = Phi(H_+) mod lambda^r H_+ of one loop or of a stack (one SVD), from the coefficient
    vectors of Phi lambda^k e_j; a degree-0 loop gives W = H_+, the zero subspace of C^0."""
    r, n, lead = loop.degree, loop.n, loop.coeffs.shape[:-3]
    # column k n + j is Phi lambda^k e_j: block m holds column j of T_{m-k}
    vecs = np.zeros(lead + (r * n, r * n), np.complex128)
    for k in range(r):
        vecs[..., k * n :, k * n : (k + 1) * n] = loop.coeffs[..., : r - k, :, :].reshape(lead + ((r - k) * n, n))
    basis, _, rank = masked_basis(vecs)
    return WSubspace(r, n, basis[..., : rank.max(initial=0)])


def iwasawa_factorize(w: WSubspace) -> tuple[np.ndarray, np.ndarray]:
    """Left-to-right geometric Iwasawa factorization: alpha_i = (sum_s S^{i-1}_s P_s) W.

    Returns the chain (pis, perps), each (..., r, n, n) for W or a stack of W,
    one SVD per step for every fiber.  Non-proper steps (alpha_i zero or full)
    yield +-I factors and show in the ranks rather than raise.
    """
    r, n, lead = w.r, w.n, w.basis.shape[:-2]
    blocks = w.basis.reshape(lead + (r, n, w.dim))  # P_s W for s = 0..r-1 on axis -3
    pis = np.zeros(lead + (r, n, n), np.complex128)
    S = np.zeros(lead + (r, n, n), np.complex128)  # S^i_s for s <= i: the last step's S is never read
    S[..., :1, :, :] = np.eye(n)
    for i in range(r):
        M = (S[..., : i + 1, :, :] @ blocks[..., : i + 1, :, :]).sum(axis=-3)
        # rank against the unit operator scale: degenerate steps collapse to 0 or C^n
        basis, _, _ = masked_basis(M, 1.0)
        pis[..., i, :, :] = basis @ basis.conj().swapaxes(-1, -2)
        if i + 1 < r:
            factor_step(S, pis[..., i, :, :], np.eye(n) - pis[..., i, :, :], i + 1, True)
    return pis, np.eye(n) - pis


def kernel_factorize_fiber(loop: LoopPoly):
    """Top-down factorization alpha_i = ker T_i^{Phi_i}, dividing out one factor at a
    time, one SVD per step for all fibers; returns the chain (pis, perps), each (..., r, n, n).
    One loop raises its error; a stack also returns, per fiber, the error its own call
    raises (None where it factorizes), and a failing fiber leaves every other one unchanged."""
    r, n = loop.degree, loop.n
    T = loop.coeffs.reshape((-1,) + loop.coeffs.shape[-3:]).copy()
    errors = [None] * len(T)

    def fail(bad, error):
        for p in np.flatnonzero(bad):
            errors[p] = errors[p] or error(p)

    fail((np.abs(T[:, [0, r]]).max(axis=(-2, -1)) <= TRIM_TOL).any(axis=-1),
         lambda p: DegreeNoDrop("loop must have non-zero constant and top coefficients"))
    if r > 0:
        fail(reality_defect(T) > REALITY_TOL,
             lambda p: DegreeNoDrop("reality condition T_0 T_r^* = 0 fails; not an extended-solution fiber"))
    pis = np.zeros((len(T), r, n, n), np.complex128)
    for i in range(r, 0, -1):
        _, sv, vh = np.linalg.svd(T[:, i])
        rank = numerical_rank(sv)
        fail((rank == 0) | (rank == n), lambda p: NonProperUniton(f"ker T_{i} has dimension {n - rank[p]}"))
        # each fiber's right singular vectors past its rank span ker T_i
        ker = vh.conj().swapaxes(-1, -2) * (np.arange(n) >= rank[:, None])[:, None, :]
        pi = ker @ ker.conj().swapaxes(-1, -2)
        perp = np.eye(n) - pi
        lam_minus = np.abs(T[:, 0] @ perp).max(axis=(-2, -1))
        lam_top = np.abs(T[:, i] @ pi).max(axis=(-2, -1))
        fail(np.maximum(lam_minus, lam_top) > BOUNDARY_TOL, lambda p: DegreeNoDrop(
            f"boundary coefficients at step {i} do not vanish ({lam_minus[p]:.2e}, {lam_top[p]:.2e})"))
        factor_step(T[:, i::-1], pi, perp, i, False)  # T_t <- T_t pi + T_{t+1} perp, t < i
        pis[:, i - 1] = pi
    fail(np.abs(T[:, 0] - np.eye(n)).max(axis=(-2, -1)) > IDENTITY_TOL,
         lambda p: DegreeNoDrop("residual constant term is not the identity"))
    if loop.coeffs.ndim == 4:
        return pis, np.eye(n) - pis, errors
    if errors[0]:
        raise errors[0]
    return pis[0], np.eye(n) - pis[0]


@dataclass(frozen=True)
class ConstantLoop:
    """Product of factors (pi_A + lambda^{-1} pi_A_perp): coeffs[t] multiplies lambda^{-t}."""

    factors: tuple[Span, ...]
    coeffs: np.ndarray

    def at(self, lam: complex) -> np.ndarray:
        return loop_at(self.coeffs, 1 / lam)


def _constant_step(coeffs: np.ndarray, pi: np.ndarray, perp: np.ndarray, degree: int) -> np.ndarray:
    """Left-multiply loop coefficients (..., d+1, n, n) by pi + lambda^{-1} perp, T_t <- pi T_t
    + perp T_{t+1}, keeping T_0..T_degree: the left step on the reversed axis of a copy."""
    out = coeffs.copy()
    factor_step(out[..., ::-1, :, :], pi, perp, out.shape[-3] - 1, True)
    return out[..., : degree + 1, :, :]


def normalize_type_one(
    loop_sampler: Callable[[complex], LoopPoly],
    sample_points: Sequence[complex],
) -> tuple[ConstantLoop, Callable[[complex], LoopPoly]]:
    """Left-multiply by constant loops until im T_0 is full (type one).

    The sampler is called once per point; each step acts on the stack of
    sampled loops.  Returns the accumulated constant pre-factor and the
    normalized sampler.
    """
    points = [complex(z) for z in sample_points]
    if not points:
        raise BadShape("need at least one sample point")
    stack = np.array([loop_sampler(z).coeffs for z in points])  # (P, d+1, n, n)
    n, r0 = stack.shape[-1], stack.shape[-3] - 1
    steps: list[Span] = []
    pairs: list[tuple[np.ndarray, np.ndarray, int]] = []  # (pi, perp, degree after the step)
    # the image of the constant terms T_0 at every point, until it is full
    while (a_span := orthonormal_basis(np.hstack(stack[:, 0]))).dim != n:
        if len(steps) == max(r0, 1):
            raise NoTermination(f"not type one after {max(r0, 1)} constant-loop steps")
        if a_span.dim == 0:
            raise NoTermination("constant term vanishes identically")
        pi, perp = projection_pair(a_span)
        stack = LoopPoly(_constant_step(stack, pi, perp, stack.shape[-3] - 1)).trimmed().coeffs
        steps.append(a_span)
        pairs.append((pi, perp, stack.shape[-3] - 1))

    def sample(z: complex) -> LoopPoly:
        coeffs = loop_sampler(z).coeffs
        for pi, perp, degree in pairs:
            coeffs = _constant_step(coeffs, pi, perp, degree)
        return LoopPoly(coeffs)

    # the last step multiplies leftmost: expand the product over the reversed steps
    factors = np.array([pair[:2] for pair in reversed(pairs)]).reshape(-1, 2, n, n)
    return ConstantLoop(tuple(steps), extended_coefficients(factors[:, 0], factors[:, 1], n)), sample


class QInvolution:
    """Q = pi_A - pi_A_perp and the induced involution L(lambda) -> Q L(-lambda)."""

    def __init__(self, a_span: Span):
        self.a_span = a_span
        pi, perp = projection_pair(a_span)
        self.matrix = pi - perp

    @classmethod
    def identity(cls, n: int) -> "QInvolution":
        return cls(Span.full(n))

    def nu_matrix(self, r: int) -> np.ndarray:
        return np.kron(np.diag((-1.0) ** np.arange(r)), self.matrix)


@dataclass(frozen=True)
class QAdaptedResult:
    """Outcome of the nu_Q-invariance test, for one W or per fiber of a stack."""

    defect: np.ndarray

    @property
    def adapted(self) -> np.ndarray:
        return self.defect <= Q_ADAPTED_TOL


def q_adapted_check(w: WSubspace, q: QInvolution) -> QAdaptedResult:
    """Defect of nu_Q-invariance of W, the projector gap between W and nu_Q W,
    for one W or per fiber of a stack.  An invariant W is spanned by its nu_Q
    eigenvectors, the spans of basis + nu_Q basis and basis - nu_Q basis."""
    moved = q.nu_matrix(w.r) @ w.basis
    return QAdaptedResult(projector_gap(*(b @ b.conj().swapaxes(-1, -2) for b in (w.basis, moved))))
