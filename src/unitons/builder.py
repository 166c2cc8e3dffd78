"""Fiberwise construction of uniton chains, harmonic maps and extended solutions.

Each sample point is treated independently: the chain of subspaces
alpha_1, ..., alpha_r is rebuilt from the data at every z, and the map is the
product of Cartan factors phi_0 (pi_1 - pi_1_perp) ... (pi_r - pi_r_perp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import BadShape, DegeneratePoint, PoleError
from .meromorphic import (
    DISC_RADIUS,
    MAX_SAMPLE_TRIES,
    POLE_CLEARANCE,
    POLE_TOL,
    DataArray,
    MeroVector,
    data_poles,
    differentiate,
    random_polynomial_vector,
)
from .projections import RANK_TOL, ProjChain, Span, orthonormal_basis, projection_pair


class _Tables(NamedTuple):
    nums: np.ndarray
    dens: np.ndarray
    dnorms: np.ndarray
    poles: tuple[complex, ...]


class ChainData(NamedTuple):
    """Raw kernel output for one fiber."""

    pis: np.ndarray        # (r, n, n)
    perps: np.ndarray      # (r, n, n)
    bases: np.ndarray      # (r, n, n), column-padded orthonormal bases
    ranks: tuple[int, ...]
    gen_ranks: tuple[int, ...]
    kvecs: np.ndarray      # (r, r, J, n); kvecs[i, k, j] = K^(k)_{i,j}


@lru_cache(maxsize=64)
def _tables(data: DataArray) -> _Tables:
    r, n, J = data.r, data.n, data.ncols
    # derivative chains: row m is differentiated up to order r-1-m
    fns: dict[tuple[int, int, int, int], object] = {}
    max_len = 1
    for j, col in enumerate(data.columns):
        for m, vec in enumerate(col):
            for c, f in enumerate(vec.entries):
                cur = f
                fns[(0, m, j, c)] = cur
                max_len = max(max_len, len(cur.num), len(cur.den))
                for k in range(1, r - m):
                    cur = differentiate(cur)
                    fns[(k, m, j, c)] = cur
                    max_len = max(max_len, len(cur.num), len(cur.den))
    K = max(r, 1)
    nums = np.zeros((K, K, max(J, 1), n, max_len), np.complex128)
    dens = np.zeros_like(nums)
    dens[..., 0] = 1.0  # padding entries evaluate to 0/1
    for (k, m, j, c), f in fns.items():
        nums[k, m, j, c, : len(f.num)] = f.num
        dens[k, m, j, c, 0] = 0.0
        dens[k, m, j, c, : len(f.den)] = f.den
    dnorms = np.linalg.norm(dens, axis=-1)
    return _Tables(nums, dens, dnorms, tuple(data_poles(data)))


class ChainBatch(NamedTuple):
    """Kernel output for a batch of P fibers, with per-point flags."""

    zs: np.ndarray         # (P,)
    pis: np.ndarray        # (P, r, n, n)
    perps: np.ndarray      # (P, r, n, n)
    bases: np.ndarray      # (P, r, n, n)
    ranks: np.ndarray      # (P, r)
    gen_ranks: np.ndarray  # (P, r)
    kvecs: np.ndarray      # (P, r, r, J, n)
    pole: np.ndarray       # (P,) bool: a pole of the data is too close
    ambiguous: np.ndarray  # (P,) bool: a rank decision is ambiguous

    def at(self, p: int) -> ChainData:
        """Point p's chain, raising as a single-point build does."""
        if self.pole[p]:
            raise PoleError(f"data array has a pole too close to z={complex(self.zs[p])}")
        if self.ambiguous[p]:
            raise DegeneratePoint(f"ambiguous rank decision at z={complex(self.zs[p])}")
        return ChainData(self.pis[p], self.perps[p], self.bases[p], tuple(self.ranks[p].tolist()),
                         tuple(self.gen_ranks[p].tolist()), self.kvecs[p])


def chain_arrays(data: DataArray, zs: Sequence[complex]) -> ChainBatch:
    """Evaluate the data at every point of zs and build the chains (hot path)."""
    n, r, P = data.n, data.r, len(zs)
    zs = np.asarray(zs, np.complex128).reshape(P)
    flags = np.zeros(P, bool)
    if r == 0:
        empty = np.zeros((P, 0, n, n), np.complex128)
        none = np.zeros((P, 0), np.int64)
        return ChainBatch(zs, empty, empty, empty, none, none, np.zeros((P, 0, 0, 0, n), np.complex128), flags, flags)
    t = _tables(data)
    vals, ok = kernels.eval_table(t.nums, t.dens, t.dnorms, zs, POLE_TOL)
    pis, perps, bases, ranks, gen_ranks, kvecs, status = kernels.build_chain(vals, RANK_TOL)
    return ChainBatch(zs, pis, perps, bases, ranks, gen_ranks, kvecs, ~ok, status != 0)


@dataclass(frozen=True)
class UnitonFiber:
    """The chain at one sample point, with the generating vectors."""

    z: complex
    chain: ProjChain
    alphas: tuple[Span, ...]
    k_vectors: np.ndarray          # k_vectors[i, k, j] = K^(k)_{i,j}, zero when k > i
    generating_ranks: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def proper(self) -> bool:
        n = self.alphas[0].ambient_dim if self.alphas else 0
        return all(0 < d < n for d in self.ranks)


def build_fiber(data: DataArray, z: complex, validate: bool = True) -> UnitonFiber:
    """Build alpha_1..alpha_r at z per the K-vector construction."""
    cd = chain_arrays(data, [z]).at(0)
    n = data.n
    alphas = tuple(
        Span(cd.bases[i][:, : cd.ranks[i]], n, validate=False) for i in range(data.r)
    )
    chain = ProjChain.from_arrays(cd.pis, cd.perps, validate=False)
    if validate:
        for i in range(data.r):
            perp = cd.perps[i]
            for k in range(i + 1):
                for j in range(data.ncols):
                    v = cd.kvecs[i, k, j]
                    nv = np.linalg.norm(v)
                    if np.linalg.norm(perp @ v) > 1e-9 * nv + 1e-12:
                        raise DegeneratePoint(
                            f"K^({k})_{i},{j} escapes alpha_{i + 1} at z={z}"
                        )
    return UnitonFiber(complex(z), chain, alphas, cd.kvecs, cd.gen_ranks, cd.ranks)


class HarmonicMapSampler:
    """Pointwise evaluator for the map phi = phi_0 (pi_1 - pi_1_perp) ... and
    its extended solution Phi_lambda = (pi_1 + lambda pi_1_perp) ...  ."""

    def __init__(self, data: DataArray, phi0: Optional[np.ndarray] = None):
        self.data = data
        n = data.n
        if phi0 is None:
            phi0 = np.eye(n, dtype=np.complex128)
        phi0 = np.asarray(phi0, dtype=np.complex128)
        if phi0.shape != (n, n):
            raise BadShape("phi0 must be n x n")
        if np.abs(phi0 @ phi0.conj().T - np.eye(n)).max() > 1e-12:
            raise BadShape("phi0 must be unitary")
        self.phi0 = phi0
        self._batch: Optional[ChainBatch] = None
        self._memo: dict[complex, int] = {}  # point -> its index in _batch

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def r(self) -> int:
        return self.data.r

    def prefetch(self, zs: Sequence[complex]) -> None:
        """Build the chains at all of zs in one kernel call; they replace the
        memo that chain_at reads.  Nothing is built when all are memoized."""
        if all(z in self._memo for z in zs):
            return
        self._batch = chain_arrays(self.data, zs)
        self._memo = {z: p for p, z in enumerate(zs)}

    def chain_at(self, z: complex) -> ChainData:
        p = self._memo.get(z)
        if p is None:
            return chain_arrays(self.data, [z]).at(0)
        return self._batch.at(p)

    def fiber_at(self, z: complex) -> UnitonFiber:
        return build_fiber(self.data, z)

    def map_at(self, z: complex) -> np.ndarray:
        return evaluate_map(self, z)

    __call__ = map_at

    def extended_at(self, z: complex, lam: complex) -> np.ndarray:
        return evaluate_extended(self, z, lam)

    def prefix_map_at(self, z: complex, ell: int, chain: Optional[ChainData] = None) -> np.ndarray:
        """phi_ell = phi_0 (pi_1 - pi_1_perp) ... (pi_ell - pi_ell_perp)."""
        cd = chain if chain is not None else self.chain_at(z)
        out = self.phi0.copy()
        for i in range(ell):
            out = out @ (cd.pis[i] - cd.perps[i])
        return out

    def extended_coeffs_at(self, z: complex, chain: Optional[ChainData] = None) -> np.ndarray:
        cd = chain if chain is not None else self.chain_at(z)
        return extended_coefficients(cd.pis, cd.perps, self.n)


def evaluate_map(sampler: HarmonicMapSampler, z: complex) -> np.ndarray:
    cd = sampler.chain_at(z)
    out = sampler.phi0.copy()
    for i in range(sampler.r):
        out = out @ (cd.pis[i] - cd.perps[i])
    return out


def evaluate_extended(sampler: HarmonicMapSampler, z: complex, lam: complex) -> np.ndarray:
    cd = sampler.chain_at(z)
    return extended_product(cd.pis, cd.perps, lam, sampler.n)


def extended_product(pis: np.ndarray, perps: np.ndarray, lam: complex, n: int) -> np.ndarray:
    out = np.eye(n, dtype=np.complex128)
    for i in range(pis.shape[0]):
        out = out @ (pis[i] + lam * perps[i])
    return out


def extended_coefficients(pis: np.ndarray, perps: np.ndarray, n: int) -> np.ndarray:
    """Coefficients T_0..T_r of (pi_1 + lambda pi_1_perp) ... as an (r+1, n, n) array."""
    r = pis.shape[0]
    T = np.zeros((r + 1, n, n), np.complex128)
    T[0] = np.eye(n)
    for i in range(r):
        new = np.zeros_like(T)
        for ell in range(i + 2):
            new[ell] = T[ell] @ pis[i]
            if ell > 0:
                new[ell] += T[ell - 1] @ perps[i]
        T = new
    return T


def cartan_embed(s: Span) -> np.ndarray:
    """pi_s - pi_s_perp: the totally geodesic embedding of a subspace into U(n)."""
    pi, perp = projection_pair(s)
    return pi - perp


def associated_and_gauss(
    h_column: Sequence[MeroVector], i: int, z: complex, rank_tol: float = RANK_TOL
) -> tuple[Span, Span]:
    """The i'th associated curve h_(i) and Gauss bundle fiber G^(i)(h) at z."""
    if i < 0:
        raise BadShape("i must be >= 0")
    h_column = tuple(h_column)
    if not h_column:
        raise BadShape("need at least one spanning section")
    n = h_column[0].n
    lower: list[np.ndarray] = []
    upper: list[np.ndarray] = []
    for vec in h_column:
        cur = vec
        for m in range(i + 1):
            v = cur.eval(z)
            upper.append(v)
            if m <= i - 1:
                lower.append(v)
            if m < i:
                cur = cur.derivative()
    h_i = orthonormal_basis(np.column_stack(upper) if upper else np.zeros((n, 0)), rank_tol)
    if i == 0:
        return h_i, h_i
    h_im1 = orthonormal_basis(np.column_stack(lower), rank_tol)
    _, perp = projection_pair(h_im1)
    gauss = orthonormal_basis(perp @ h_i.basis, rank_tol)
    return h_i, gauss


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
    rng = np.random.default_rng(seed)
    columns = []
    for j in range(d[-1]):
        row_of_j = next(i for i in range(r) if j < d[i])
        col = [
            random_polynomial_vector(rng, n, max_degree) if i == row_of_j else MeroVector.zero(n)
            for i in range(r)
        ]
        columns.append(tuple(col))
    return DataArray(n, r, tuple(columns))


def _stencil_offsets(h: float) -> list[complex]:
    # extreme points reached by one nested 4th-order Wirtinger stencil
    return [4 * h, -4 * h, 4j * h, -4j * h, (2 + 2j) * h, (2 - 2j) * h, (-2 + 2j) * h, (-2 - 2j) * h]


def draw_sample_points(
    data: DataArray,
    count: int,
    seed: int = 0,
    stencil_h: Optional[float] = None,
) -> list[complex]:
    """Generic points in |z| <= 2: away from poles, with unambiguous ranks.

    When stencil_h is given, the rank profile must also be constant over the
    extreme finite-difference stencil offsets, so nested differencing stays on
    one smooth branch.  Candidates are drawn in blocks and built with their
    offsets in one kernel call; the first ``count`` accepted in stream order
    are returned.
    """
    if count < 0:
        raise BadShape("count must be >= 0")
    rng = np.random.default_rng(seed)
    poles = _tables(data).poles if data.r > 0 else ()
    offsets = _stencil_offsets(stencil_h) if stencil_h is not None else []
    points: list[complex] = []
    misses = 0
    while len(points) < count:
        cands = []
        for u, v in rng.random((count - len(points), 2)).tolist():
            zr = DISC_RADIUS * math.sqrt(u)
            th = 2.0 * math.pi * v
            z = complex(zr * math.cos(th), zr * math.sin(th))
            cands.append(None if any(abs(z - p) < POLE_CLEARANCE for p in poles) else z)
        clear = [z for z in cands if z is not None]
        batch = chain_arrays(data, [w for z in clear for w in [z] + [z + off for off in offsets]])
        shape = (len(clear), 1 + len(offsets))
        ranks = batch.ranks.reshape(shape + (data.r,))
        good = iter(~(batch.pole | batch.ambiguous).reshape(shape).any(axis=1)
                    & (ranks == ranks[:, :1]).all(axis=(1, 2)))
        for z in cands:
            if z is not None and next(good):
                points.append(z)
                misses = 0
                if len(points) == count:
                    break
            else:
                misses += 1
                if misses == MAX_SAMPLE_TRIES:
                    raise DegeneratePoint(
                        f"could not find a generic sample point in {MAX_SAMPLE_TRIES} tries"
                    )
    return points


def alpha1_is_full(data: DataArray, seed: int = 1234) -> bool:
    """Fullness of alpha_1, tested by spanning fibers over 2n generic points."""
    if data.r == 0:
        return False
    batch = chain_arrays(data, draw_sample_points(data, 2 * data.n, seed=seed))
    span = orthonormal_basis(np.hstack([b[0, :, :k] for b, k in zip(batch.bases, batch.ranks[:, 0])]))
    return span.dim == data.n
