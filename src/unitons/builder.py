"""Fiberwise construction of uniton chains, harmonic maps and extended solutions.

Each sample point is treated independently: the chain of subspaces
alpha_1, ..., alpha_r is rebuilt from the data at every z, and the map is the
product of Cartan factors (pi_1 - pi_1_perp) ... (pi_r - pi_r_perp).  The
constant left factor phi_0 is I: left translation by a constant unitary
leaves A = (1/2) phi^{-1} d phi, and so every identity, unchanged.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import BadShape, DegeneratePoint
from .meromorphic import (
    DISC_RADIUS,
    MAX_SAMPLE_TRIES,
    DataArray,
    MeroVector,
    _polynomial_vectors,
    _random_coefficients,
    polynomial_column,
)
from .projections import factor_products, masked_basis

ESCAPE_RTOL, ESCAPE_ATOL = 1e-9, 1e-12  # K^(k)_{i,j} escapes alpha_{i+1} when |perp v| > RTOL |v| + ATOL
STENCIL_OFFSETS = np.array([0, 2, 1, -1, -2, 2j, 1j, -1j, -2j])  # FD stencil in steps: the centre, then x and y


class _Tables(NamedTuple):
    coeffs: np.ndarray  # (K, K, J_slots, n, L): coefficient row (k, m, slot, c), degree-ascending
    live: tuple[int, ...]  # the columns holding a non-zero entry


@lru_cache(maxsize=64)
def _tables(n: int, r: int, columns: tuple[tuple[MeroVector, ...], ...]) -> _Tables:
    """Coefficient table of the derivative chains of the live columns' normal forms.

    Each live column enters as its ``polynomial_column``, which has the
    column's map.  A column is dead when every entry is zero: it gets no slot
    (one padding slot when no column is live).  Row (k, m, slot, c) holds the
    k'th derivative of row m of the column in that slot for k <= r-1-m, and
    zeros above.
    """
    live = tuple(j for j, col in enumerate(columns) if not all(f.is_zero for vec in col for f in vec.entries))
    forms = [polynomial_column(columns[j]) for j in live]
    width = max((form.shape[-1] for form in forms), default=1)
    table = np.zeros((max(r, 1), max(r, 1), max(len(live), 1), n, width), np.complex128)
    for slot, form in enumerate(forms):
        table[0, :, slot, :, : form.shape[-1]] = form
    for k in range(1, r):
        # shift and multiply by the index: a chained polyder's products, so its bits
        table[k, : r - k, ..., :-1] = table[k - 1, : r - k, ..., 1:] * np.arange(1, width)
    return _Tables(table, live)


def _live_values(n: int, r: int, columns: tuple[tuple[MeroVector, ...], ...],
                 zs: np.ndarray) -> tuple[_Tables, np.ndarray]:
    """The cached table of r-row columns, and its slots' derivative values at
    every point of zs (P,): (P, r, r, J_slots, n), slot s holding live column
    ``t.live[s]``."""
    t = _tables(n, r, columns)
    return t, kernels.eval_table(t.coeffs, zs)


class ChainBatch(NamedTuple):
    """Kernel output for a batch of P fibers, with per-point flags.

    The leading point axis is optional: ``at(p)`` and ``take(p)`` give one
    point's chain with every field's P axis dropped.
    """

    zs: np.ndarray         # (P,)
    pis: np.ndarray        # (P, r, n, n)
    perps: np.ndarray      # (P, r, n, n)
    ranks: np.ndarray      # (P, r)
    kvecs: np.ndarray      # (P, r, r, J_slots, n): K^(k)_{i,j} of the normal forms on the table's slots
    ambiguous: np.ndarray  # (P,) bool: a rank decision is ambiguous, or the data's values are not finite

    def at(self, p: int) -> "ChainBatch":
        """Point p's chain (no point axis), raising as a single-point build does."""
        if self.ambiguous[p]:
            raise DegeneratePoint(f"ambiguous rank decision or data values not finite at z={complex(self.zs[p])}")
        return self.take(p)

    def take(self, index: np.ndarray) -> "ChainBatch":
        """The batch laid out on an index array's axes, in place of the point axis."""
        return ChainBatch(*(field[index] for field in self))


# the last _draw's data columns, {point: index} of its accepted points, and their
# chains (a view of the draw's batch); r >= 1 data owns its columns tuple
_last_draw: tuple = (None, {}, None)


def chain_arrays(data: DataArray, zs: Sequence[complex]) -> ChainBatch:
    """Evaluate the data at every point of zs and build the chains (hot path).

    Evaluation and the kernel run on the normal forms of the data's live
    columns only (see ``_tables``), and ``kvecs`` stays on the table's slots:
    a dead column spans nothing and has no K-vectors.  A point where the
    table's values overflow (far from the origin) is flagged ``ambiguous``
    and gets the chain of zero values, with no warning.  A one-point call at
    a point the last draw accepted on this data object gets a fresh copy of
    the chain the draw built there, bit for bit the one-point build's chain.
    """
    n, r, P = data.n, data.r, len(zs)
    zs = np.asarray(zs, np.complex128).reshape(P)
    if r == 0:
        empty = np.zeros((P, 0, n, n), np.complex128)
        none = np.zeros((P, 0), np.int64)
        return ChainBatch(zs, empty, empty, none, np.zeros((P, 0, 0, 0, n), np.complex128), np.zeros(P, bool))
    if P == 1 and data.columns is _last_draw[0] and (p := _last_draw[1].get(complex(zs[0]))) is not None:
        return _last_draw[2].take([p])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _live_values(n, r, data.columns, zs)[1]
    unfit = np.zeros(P, bool)
    if not np.isfinite(vals).all():
        # the table overflowed at a point far out: flag it, and give the SVD zeros, not inf
        unfit = ~np.isfinite(vals).reshape(P, -1).all(axis=1)
        vals[unfit] = 0.0
    pis, perps, ranks, kvecs, status = kernels.build_chain(vals)
    return ChainBatch(zs, pis, perps, ranks, kvecs, (status != 0) | unfit)


@dataclass(frozen=True)
class UnitonFiber:
    """The chain at one sample point: alpha_{i+1} is the image of ``chain.pis[i]``."""

    z: complex
    chain: ChainBatch  # the point's view: no point axis

    @property
    def proper(self) -> bool:
        ranks, n = self.chain.ranks, self.chain.pis.shape[-1]
        return bool(((0 < ranks) & (ranks < n)).all())


def build_fiber(data: DataArray, z: complex) -> UnitonFiber:
    """Build alpha_1..alpha_r at z per the K-vector construction."""
    cd = chain_arrays(data, [z]).at(0)
    # |perp_i K^(k)_{i,j}| against |K^(k)_{i,j}| for every (i, k, j) at once; the
    # table holds zeros above k = i, which never escape
    escaped = (np.linalg.norm(np.einsum("iab,ikjb->ikja", cd.perps, cd.kvecs), axis=-1)
               > ESCAPE_RTOL * np.linalg.norm(cd.kvecs, axis=-1) + ESCAPE_ATOL)
    if escaped.any():
        i, k, j = np.argwhere(escaped)[0]
        raise DegeneratePoint(f"K^({k})_{i},{j} escapes alpha_{i + 1} at z={z}")
    return UnitonFiber(complex(z), cd)


class HarmonicMapSampler:
    """Pointwise evaluator for the map phi = (pi_1 - pi_1_perp) ... (pi_r - pi_r_perp)
    and its extended solution Phi_lambda = (pi_1 + lambda pi_1_perp) ...  ."""

    def __init__(self, data: DataArray):
        self.data = data

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def r(self) -> int:
        return self.data.r

    def chain_at(self, z: complex) -> ChainBatch:
        return chain_arrays(self.data, [z]).at(0)

    def map_at(self, z: complex) -> np.ndarray:
        return evaluate_map(self, z)

    __call__ = map_at

    def prefix_map_at(self, z: complex, ell: int) -> np.ndarray:
        """phi_ell = (pi_1 - pi_1_perp) ... (pi_ell - pi_ell_perp), 0 <= ell <= r (phi_0 = I)."""
        ell = _integer(ell, "ell")
        if not 0 <= ell <= self.r:
            raise BadShape(f"need 0 <= ell <= r = {self.r}, got ell={ell}")
        cd = self.chain_at(z)
        return extended_product(cd.pis[:ell], cd.perps[:ell], -1, np.eye(self.n, dtype=np.complex128))

    def extended_coeffs_at(self, z: complex) -> np.ndarray:
        cd = self.chain_at(z)
        return extended_coefficients(cd.pis, cd.perps, self.n)


def evaluate_map(sampler: HarmonicMapSampler, z: complex) -> np.ndarray:
    cd = sampler.chain_at(z)
    return extended_product(cd.pis, cd.perps, -1, np.eye(sampler.n, dtype=np.complex128))


def prefix_products(pis: np.ndarray, perps: np.ndarray, lam, left: np.ndarray) -> Iterator[np.ndarray]:
    """left, left F_1, ..., left F_1 ... F_r with F_i = pi_i + lam pi_i_perp (phi_0..phi_r at
    lam = -1), the first a read-only broadcast view of left.  The steps run along axis -3;
    leading axes and an array lam broadcast, each product bit-identical to its single call."""
    factors, out = pis + lam * perps, left
    yield np.broadcast_to(left, factors.shape[:-3] + left.shape)
    for i in range(factors.shape[-3]):
        out = out @ factors[..., i, :, :]
        yield out


def extended_product(pis: np.ndarray, perps: np.ndarray, lam, left: np.ndarray) -> np.ndarray:
    """left (pi_1 + lam pi_1_perp) ... (pi_r + lam pi_r_perp), a new array: the
    last of ``prefix_products``."""
    for out in prefix_products(pis, perps, lam, left):  # each product is freed as the next is formed
        pass
    return out if pis.shape[-3] else out.copy()


def extended_coefficients(pis: np.ndarray, perps: np.ndarray, n: int) -> np.ndarray:
    """Coefficients T_0..T_r, (r+1, n, n), of (pi_1 + lambda pi_1_perp) ... (pi_r + lambda pi_r_perp):
    ``factor_products`` multiplying on the right, the steps on axis -3, leading axes broadcast."""
    return factor_products(pis, perps, n, left=False)


def reality_defect(coeffs: np.ndarray) -> np.ndarray:
    """max entry of T_0 T_r^* and T_r^* T_0 (both vanish for a real loop) of coefficients
    (..., r+1, n, n); leading axes broadcast, bit-identical to each loop's own call."""
    t0, tr_h = coeffs[..., 0, :, :], coeffs[..., -1, :, :].conj().swapaxes(-1, -2)
    return np.maximum(np.abs(t0 @ tr_h).max(axis=(-2, -1)), np.abs(tr_h @ t0).max(axis=(-2, -1)))


def s1_invariant_data(
    n: int, rank_steps: Sequence[int], max_degree: int, seed: int = 0
) -> DataArray:
    """Diagonal-form data: block i holds d_{i+1} - d_i fresh polynomial vectors.

    The resulting unitons are nested and the map is S^1-invariant.
    """
    d = tuple(int(x) for x in rank_steps)
    r = len(d)
    if r < 1 or d[0] < 1 or any(a > b for a, b in zip(d, d[1:])):
        raise BadShape("rank_steps must be ascending with d_1 >= 1")
    if d[-1] > n or r > n - 1:
        raise BadShape("need d_r <= n and r <= n-1")
    coeffs = _random_coefficients(np.random.default_rng(seed), d[-1], n, max_degree)
    zero = MeroVector.zero(n)
    # column j is live in the first row i with j < d_{i+1}
    rows = [next(i for i in range(r) if j < d[i]) for j in range(d[-1])]
    return DataArray(n, r, tuple(tuple(vec if i == row else zero for i in range(r))
                                 for row, vec in zip(rows, _polynomial_vectors(coeffs))))


def _integer(value, name: str) -> int:
    """An integer argument (np.int64 too); a bool or a float is malformed."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise BadShape(f"{name} must be an integer, got {value!r}")


def draw_sample_points(data: DataArray, count: int, seed: int = 0, stencil_h: Optional[float] = None) -> list[complex]:
    """Generic points in |z| <= 2: points with unambiguous ranks.

    When stencil_h is given, in (0, DISC_RADIUS], all 9 points of each
    candidate's stencil (``STENCIL_OFFSETS`` times stencil_h) must be so too,
    with the candidate's rank profile, so differencing stays on one smooth
    branch.  Candidates are drawn in blocks and built with their stencils in
    one kernel call; the first ``count`` accepted in stream order are returned.
    """
    return _draw(data, count, seed, stencil_h)[0]


def _draw(data: DataArray, count: int, seed: int, stencil_h: Optional[float]) -> tuple[list[complex], ChainBatch]:
    """draw_sample_points' points, and the chains its kernel calls built on
    their stencils: (9, count), or (1, count) without stencil_h; row 0 holds the points."""
    global _last_draw
    count = _integer(count, "count")
    if count < 0:
        raise BadShape("count must be >= 0")
    if stencil_h is not None and not 0 < stencil_h <= DISC_RADIUS:  # nan fails the comparison too
        raise BadShape(f"stencil_h must be in (0, {DISC_RADIUS}], got {stencil_h!r}")
    rng = np.random.default_rng(seed)
    offsets = STENCIL_OFFSETS * stencil_h if stencil_h is not None else STENCIL_OFFSETS[:1]
    points: list[complex] = []
    accepted: list[ChainBatch] = []
    misses = 0
    while True:
        cands = []
        for u, v in rng.random((count - len(points), 2)).tolist():
            zr = DISC_RADIUS * math.sqrt(u)
            th = 2.0 * math.pi * v
            cands.append(complex(zr * math.cos(th), zr * math.sin(th)))
        batch = chain_arrays(data, (offsets[:, None] + np.array(cands, np.complex128)).ravel())
        batch = batch.take(np.arange(batch.zs.size).reshape(len(offsets), -1))  # (offsets, candidates)
        good = ~batch.ambiguous.any(axis=0) & (batch.ranks == batch.ranks[:1]).all(axis=(0, 2))
        taken = []
        for col, ok in enumerate(good.tolist()):
            if ok:
                points.append(cands[col])
                taken.append(col)
                misses = 0
                if len(points) == count:
                    break
            else:
                misses += 1
                if misses == MAX_SAMPLE_TRIES:
                    raise DegeneratePoint(
                        f"could not find a generic sample point in {MAX_SAMPLE_TRIES} tries"
                    )
        accepted.append(batch.take((slice(None), taken)))
        if len(points) == count:
            batch = ChainBatch(*(np.concatenate(fields, axis=1) for fields in zip(*accepted)))
            _last_draw = (data.columns, dict(zip(points, range(count))), batch.take(0))
            return points, batch


def alpha1_is_full(data: DataArray, seed: int = 1234) -> bool:
    """Fullness of alpha_1, tested by spanning fibers over 2n generic points."""
    if data.r == 0:
        return False
    pis = _draw(data, 2 * data.n, seed, None)[1].pis[0, :, 0]  # the 2n points' alpha_1 projectors
    return int(masked_basis(np.hstack(pis))[2]) == data.n
