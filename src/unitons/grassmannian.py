"""The finite Grassmannian model: lambda-invariant subspaces of C^{rn}.

Block k of a C^{rn} vector holds the lambda^k coefficient of a polynomial
truncated at degree r.  Loops act on these blocks; the shift map is
multiplication by lambda.  This module converts between data arrays, loop
fibers and W subspaces, and factorizes loops back into projection chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .builder import derivative_values, extended_coefficients
from .errors import (
    BadShape,
    DegreeNoDrop,
    NonProperUniton,
    NoTermination,
    NotLambdaInvariant,
    PoleError,
    SingularLoop,
)
from .meromorphic import MeroVector
from .projections import (
    Span,
    image_span,
    max_principal_angle,
    numerical_rank,
    orthonormal_basis,
    projection_pair,
    s_rows,
)

LAMBDA_TOL = 1e-8     # allowed shift-invariance defect of a W subspace
BOUNDARY_TOL = 1e-9   # boundary coefficients must vanish below this when dividing
TRIM_TOL = 1e-9       # a loop coefficient below this is treated as zero
REALITY_TOL = 1e-10   # a loop fiber must have T_0 T_r^* and T_r^* T_0 below this
Q_ADAPTED_TOL = 1e-7  # W is nu_Q-invariant when its largest angle to nu_Q W is below this
IDENTITY_TOL = 1e-8   # the kernel descent's residual constant term must be within this of I
NORM_FLOOR = 1e-12    # a shifted W column below this norm counts as zero in the shift defect


def loop_at(coeffs: np.ndarray, lam) -> np.ndarray:
    """sum_t lam^t coeffs[t] for (T, n, n) coefficients; an array lam
    (..., 1, 1) gives the loop at each of its values."""
    out = np.zeros(np.shape(lam)[:-2] + coeffs.shape[1:], np.complex128)
    for t in range(coeffs.shape[0]):
        out += lam**t * coeffs[t]
    return out


def reality_defect(coeffs: np.ndarray) -> np.ndarray:
    """max entry of T_0 T_r^* and T_r^* T_0 (both vanish for a real loop) of coefficients
    (..., r+1, n, n); leading axes broadcast, bit-identical to each loop's own call."""
    t0, tr_h = coeffs[..., 0, :, :], coeffs[..., -1, :, :].conj().swapaxes(-1, -2)
    return np.maximum(np.abs(t0 @ tr_h).max(axis=(-2, -1)), np.abs(tr_h @ t0).max(axis=(-2, -1)))


class LoopPoly:
    """Polynomial loop T_0 + lambda T_1 + ... + lambda^r T_r at one fiber."""

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise BadShape("coeffs must be (r+1, n, n)")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def at(self, lam: complex) -> np.ndarray:
        return loop_at(self.coeffs, lam)

    def trimmed(self) -> "LoopPoly":
        deg = self.degree
        while deg > 0 and np.abs(self.coeffs[deg]).max() <= TRIM_TOL:
            deg -= 1
        return LoopPoly(self.coeffs[: deg + 1])


def shift_matrix(r: int, n: int) -> np.ndarray:
    """Multiplication by lambda on C^{rn}: (L_0..L_{r-1}) -> (0, L_0..L_{r-2})."""
    return np.kron(np.eye(r, k=-1, dtype=np.complex128), np.eye(n))


class WSubspace:
    """Subspace of H_+/lambda^r H_+ ~ C^{rn}, closed under the lambda shift:
    construction raises NotLambdaInvariant otherwise."""

    def __init__(self, r: int, n: int, basis: np.ndarray):
        basis = np.asarray(basis, dtype=np.complex128)
        if basis.shape[0] != r * n:
            raise BadShape("basis rows must equal r*n")
        self.r = r
        self.n = n
        self.basis = basis
        if self.lambda_defect() > LAMBDA_TOL:
            raise NotLambdaInvariant(
                f"shift-invariance defect {self.lambda_defect():.2e} exceeds {LAMBDA_TOL:.0e}"
            )

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def span(self) -> Span:
        return Span(self.basis, self.r * self.n, validate=False)

    def lambda_defect(self) -> float:
        """max over shifted basis columns of the relative distance to the span."""
        if self.dim == 0:
            return 0.0
        shifted = shift_matrix(self.r, self.n) @ self.basis
        resid = shifted - self.basis @ (self.basis.conj().T @ shifted)
        norms = np.linalg.norm(shifted, axis=0)
        keep = norms > NORM_FLOOR
        return float(np.max(np.linalg.norm(resid, axis=0)[keep] / norms[keep], initial=0.0))

    def block(self, s: int) -> np.ndarray:
        return self.basis[s * self.n : (s + 1) * self.n, :]


def binomial_transform(column: Sequence[MeroVector]) -> list[MeroVector]:
    """L_i = sum_l C(i,l) H_l (exact)."""
    col = list(column)
    out = []
    for i in range(len(col)):
        acc = col[0].scale(math.comb(i, 0))
        for ell in range(1, i + 1):
            acc = acc + col[ell].scale(math.comb(i, ell))
        out.append(acc)
    return out


def x_columns_from_data(data) -> list[list[MeroVector]]:
    """Binomial transform of every column: the X spanning set of the model."""
    return [binomial_transform(col) for col in data.columns]


def w_from_x(x_columns: Sequence[Sequence[MeroVector]], z: complex) -> WSubspace:
    """W = X + lambda X_(1) + ... + lambda^{r-1} X_(r-1) + lambda^r H_+ at z.

    The derivative table holds block i of X^(m) for m <= r-1-i, exactly the
    blocks that lambda^k X^(m) (m <= k) keeps below lambda^r.
    """
    cols = [tuple(c) for c in x_columns]
    if not cols:
        raise BadShape("need at least one spanning section")
    r, n = len(cols[0]), cols[0][0].n
    if any(len(col) != r for col in cols):
        raise BadShape("all sections must have r blocks")
    vals, ok = derivative_values(n, r, cols, np.array([z], np.complex128))
    if not ok[0]:
        raise PoleError(f"an X entry has a pole too close to z={complex(z)}")
    vecs = []
    for j in range(len(cols)):
        for k in range(r):
            for m in range(k + 1):
                w = np.zeros(r * n, np.complex128)
                w[k * n :] = vals[0, m, : r - k, j].ravel()
                vecs.append(w)
    basis = orthonormal_basis(np.column_stack(vecs))
    return WSubspace(r, n, basis.basis)


def w_from_loop(loop: LoopPoly) -> WSubspace:
    """W = Phi(H_+) mod lambda^r H_+, from the coefficient vectors of Phi lambda^k e_j;
    a degree-0 loop gives W = H_+, the zero subspace of C^0."""
    r, n = loop.degree, loop.n
    # column k n + j is Phi lambda^k e_j: block m holds column j of T_{m-k}
    vecs = np.zeros((r * n, r * n), np.complex128)
    for k in range(r):
        vecs[k * n :, k * n : (k + 1) * n] = loop.coeffs[: r - k].reshape((r - k) * n, n)
    basis = orthonormal_basis(vecs)
    try:
        return WSubspace(r, n, basis.basis)
    except NotLambdaInvariant as exc:
        raise SingularLoop(str(exc)) from exc


def iwasawa_factorize(w: WSubspace) -> tuple[np.ndarray, np.ndarray]:
    """Left-to-right geometric Iwasawa factorization: alpha_i = (sum_s S^{i-1}_s P_s) W.

    Returns the chain (pis, perps), each (r, n, n).  Non-proper steps (alpha_i
    zero or full) yield +-I factors and show in the ranks rather than raise.
    """
    r, n = w.r, w.n
    pis = np.zeros((r, n, n), np.complex128)
    perps = np.zeros_like(pis)
    for i in range(1, r + 1):
        S = s_rows(pis[: i - 1], perps[: i - 1], n)  # S^{i-1}_s for s = 0..i-1
        M = np.zeros((n, w.dim), np.complex128)
        for s in range(i):
            M += S[s] @ w.block(s)
        # rank against the unit operator scale: degenerate steps collapse to 0 or C^n
        pis[i - 1], perps[i - 1] = projection_pair(image_span(M))
    return pis, perps


def kernel_factorize_fiber(loop: LoopPoly) -> tuple[np.ndarray, np.ndarray]:
    """Top-down factorization alpha_i = ker T_i^{Phi_i}, dividing out one factor
    at a time; returns the chain (pis, perps), each (r, n, n)."""
    r, n = loop.degree, loop.n
    T = [loop.coeffs[i].copy() for i in range(r + 1)]
    if np.abs(T[0]).max() <= TRIM_TOL or np.abs(T[r]).max() <= TRIM_TOL:
        raise DegreeNoDrop("loop must have non-zero constant and top coefficients")
    if r > 0 and reality_defect(loop.coeffs) > REALITY_TOL:
        raise DegreeNoDrop("reality condition T_0 T_r^* = 0 fails; not an extended-solution fiber")
    pis = np.zeros((r, n, n), np.complex128)
    perps = np.zeros_like(pis)
    eye = np.eye(n, dtype=np.complex128)
    for i in range(r, 0, -1):
        _, sv, vh = np.linalg.svd(T[i])
        rank = int(numerical_rank(sv))
        ker_dim = n - rank
        if ker_dim == 0 or ker_dim == n:
            raise NonProperUniton(f"ker T_{i} has dimension {ker_dim}")
        pi, perp = projection_pair(Span(vh[rank:].conj().T, n, validate=False))
        lam_minus = np.abs(T[0] @ perp).max()
        lam_top = np.abs(T[i] @ pi).max()
        if max(lam_minus, lam_top) > BOUNDARY_TOL:
            raise DegreeNoDrop(
                f"boundary coefficients at step {i} do not vanish "
                f"({lam_minus:.2e}, {lam_top:.2e})"
            )
        T = [T[ell] @ pi + T[ell + 1] @ perp for ell in range(i)]
        pis[i - 1], perps[i - 1] = pi, perp
    if np.abs(T[0] - eye).max() > IDENTITY_TOL:
        raise DegreeNoDrop("residual constant term is not the identity")
    return pis, perps


@dataclass(frozen=True)
class ConstantLoop:
    """Product of factors (pi_A + lambda^{-1} pi_A_perp): coeffs[t] multiplies lambda^{-t}."""

    factors: tuple[Span, ...]
    coeffs: np.ndarray

    def at(self, lam: complex) -> np.ndarray:
        return loop_at(self.coeffs, 1 / lam)


def normalize_type_one(
    loop_sampler: Callable[[complex], LoopPoly],
    sample_points: Sequence[complex],
) -> tuple[ConstantLoop, Callable[[complex], LoopPoly]]:
    """Left-multiply by constant loops until im T_0 is full (type one).

    Returns the accumulated constant pre-factor and the normalized sampler.
    """
    points = [complex(z) for z in sample_points]
    if not points:
        raise BadShape("need at least one sample point")
    first = loop_sampler(points[0])
    n = first.n
    r0 = first.degree
    steps: list[Span] = []
    degrees: list[int] = []  # degree after each step, decided from the sample points

    def sample(z: complex) -> LoopPoly:
        loop = loop_sampler(z)
        for span, deg in zip(steps, degrees):
            pi, perp = projection_pair(span)
            c = loop.coeffs
            padded = np.concatenate([c, np.zeros((1, n, n), np.complex128)])
            new = np.array([pi @ padded[t] + perp @ padded[t + 1] for t in range(len(c))])
            loop = LoopPoly(new[: deg + 1])
        return loop

    def constant_image() -> Span:
        return orthonormal_basis(np.hstack([sample(z).coeffs[0] for z in points]))

    for _ in range(max(r0, 1)):
        a_span = constant_image()
        if a_span.dim == n:
            break
        if a_span.dim == 0:
            raise NoTermination("constant term vanishes identically")
        prev_degree = degrees[-1] if degrees else r0
        steps.append(a_span)
        degrees.append(prev_degree)  # provisional: trim below once sampled
        deg = 0
        for z in points:
            deg = max(deg, sample(z).trimmed().degree)
        degrees[-1] = deg
    else:
        if constant_image().dim != n:
            raise NoTermination(f"not type one after {max(r0, 1)} constant-loop steps")

    # the last step multiplies leftmost: expand the product over the reversed steps
    pairs = np.array([projection_pair(span) for span in reversed(steps)]).reshape(-1, 2, n, n)
    return ConstantLoop(tuple(steps), extended_coefficients(pairs[:, 0], pairs[:, 1], n)), sample


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
    """Outcome of the nu_Q-invariance test.

    plus/minus hold an adapted basis split by eigenvalue of nu_Q; they are
    None when the defect exceeds the tolerance.
    """

    defect: float
    plus: Optional[np.ndarray]
    minus: Optional[np.ndarray]

    @property
    def adapted(self) -> bool:
        return self.plus is not None


def q_adapted_check(w: WSubspace, q: QInvolution) -> QAdaptedResult:
    """Defect of nu_Q-invariance of W; on success, a Q-adapted spanning basis."""
    nu = q.nu_matrix(w.r)
    moved = nu @ w.basis
    defect = max_principal_angle(w.span, Span(moved, w.r * w.n, validate=False))
    if defect > Q_ADAPTED_TOL:
        return QAdaptedResult(float(defect), None, None)
    plus_vecs = w.basis + moved
    minus_vecs = w.basis - moved
    plus = orthonormal_basis(plus_vecs)
    minus = orthonormal_basis(minus_vecs)
    return QAdaptedResult(float(defect), plus.basis, minus.basis)
