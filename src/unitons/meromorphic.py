"""Rational functions of one complex variable and vector/array bundles of them.

On the sphere every meromorphic function is rational, so a data entry is a
pair of degree-ascending coefficient tuples, complex doubles throughout.  A
column enters the numerics only through its polynomial normal form
(``polynomial_column``), the one place in the numerics that computes with
rational functions: the map sees the spans of the column and its
derivatives, which no scalar multiplier moves.  The quotient-rule
``differentiate`` and the pointwise ``eval_rational`` are references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BadShape

# Sample points are drawn from the disc |z| <= DISC_RADIUS.
DISC_RADIUS = 2.0
# Rejection sampling gives up after this many draws per point.
MAX_SAMPLE_TRIES = 100
# Decoded coefficients above this magnitude are rejected: their values on the
# sample disc, and the squared norms the SVD forms from them, would overflow.
MAX_COEFFICIENT = 1e150
# A root rho is common to a column's entries when each entry p has |p(rho)| <=
# COMMON_ROOT_TOL * sum_k |p_k| max(1, |rho|)^k: a split m-fold root does too.
COMMON_ROOT_TOL = 1e-9
# A column's normal form has its largest coefficient magnitude in
# [SCALE_FLOOR, 2 SCALE_FLOOR), where generated Gaussian-integer data sits; a
# power of two, so the scaling is exact.
SCALE_FLOOR = 4.0

_COEFF_RANGE = 4  # random coefficients are Gaussian integers in [-4, 4]^2


def _as_coeffs(coeffs) -> tuple[complex, ...]:
    out = tuple(map(complex, coeffs))
    return out if out else (0j,)


def _trim(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    # exact trailing-zero trim; keeps at least one coefficient
    k = len(coeffs)
    while k > 1 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


def _conv(a: tuple[complex, ...], b: tuple[complex, ...]) -> tuple[complex, ...]:
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _padded_add(a: tuple[complex, ...], b: tuple[complex, ...]) -> tuple[complex, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] += bi
    return tuple(out)


def _polyder(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    if len(coeffs) == 1:
        return (0j,)
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class RationalFn:
    """Quotient of two polynomials, coefficients stored degree-ascending."""

    num: tuple[complex, ...]
    den: tuple[complex, ...] = (1 + 0j,)

    def __post_init__(self):
        num = _trim(_as_coeffs(self.num))
        den = _trim(_as_coeffs(self.den))
        if den == (0j,):
            raise BadShape("denominator is identically zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        # frozen: hash once, not at every lookup of a table cache keyed on the data
        object.__setattr__(self, "_hash", hash((num, den)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def polynomial(cls, coeffs: Iterable[complex]) -> "RationalFn":
        return cls(_as_coeffs(coeffs))

    @property
    def is_polynomial(self) -> bool:
        return self.den == (1 + 0j,)

    @property
    def is_zero(self) -> bool:
        return self.num == (0j,)

    def __call__(self, z: complex) -> complex:
        return eval_rational(self, z)


def eval_rational(f: RationalFn, z: complex) -> complex:
    """f(z) as the quotient of its numerator and denominator values."""
    z = complex(z)
    return _horner(f.num, z) / _horner(f.den, z)


def differentiate(f: RationalFn) -> RationalFn:
    """Exact quotient-rule derivative (no simplification)."""
    dnum = _polyder(f.num)
    if f.is_polynomial:
        return RationalFn(dnum)
    dden = _polyder(f.den)
    num = _padded_add(_conv(dnum, f.den), tuple(-c for c in _conv(f.num, dden)))
    return RationalFn(num, _conv(f.den, f.den))


@dataclass(frozen=True)
class MeroVector:
    """C^n-valued rational function: a fixed-length tuple of RationalFn."""

    entries: tuple[RationalFn, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise BadShape("MeroVector needs at least one entry")
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "_hash", hash(self.entries))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def zero(cls, n: int) -> "MeroVector":
        return cls(tuple(RationalFn((0j,)) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def eval(self, z: complex) -> np.ndarray:
        return np.array([eval_rational(f, z) for f in self.entries], dtype=np.complex128)

    def derivative(self) -> "MeroVector":
        return MeroVector(tuple(differentiate(f) for f in self.entries))


Column = tuple[MeroVector, ...]


def polynomial_column(column: Sequence[MeroVector]) -> np.ndarray:
    """A column's normal form: coefficients (rows, n, L), degree-ascending, of
    the column times the product of its distinct denominators, divided by
    every root its entries share, then times the power of two that puts its
    largest coefficient magnitude in [SCALE_FLOOR, 2 SCALE_FLOOR).

    No scalar multiplier moves a span of the column or of its derivatives, so
    the normal form has the column's map, with no pole and no common zero.  A
    zero entry's denominator adds no factor; a polynomial column adds none.
    """
    fns = [f for vec in column for f in vec.entries]
    dens = dict.fromkeys(f.den for f in fns if not (f.is_polynomial or f.is_zero))
    polys = [f.num if f.is_zero or not dens else reduce(np.convolve, [d for d in dens if d != f.den], f.num) for f in fns]
    width = max(len(p) for p in polys)
    coeffs = np.zeros((len(fns), width), np.complex128)
    for row, p in zip(coeffs, polys):
        row[: len(p)] = p
    top = np.abs(coeffs).max()
    if not 0 < top < math.inf:
        raise BadShape(f"a column's normal form has largest coefficient magnitude {top:g}")
    if (roots := _common_roots(coeffs)).size:
        coeffs = np.array([np.polydiv(row[::-1], np.poly(roots))[0][::-1] for row in coeffs])
    flat = coeffs.view(np.float64)  # ldexp scales by 2^k exactly, signed zeros included
    np.ldexp(flat, math.frexp(SCALE_FLOOR)[1] - math.frexp(np.abs(coeffs).max())[1], out=flat)
    return coeffs.reshape(len(column), -1, coeffs.shape[1])


def _common_roots(coeffs: np.ndarray) -> np.ndarray:
    """The roots, with multiplicity, that all rows of coeffs (finite, degree-ascending) share: the
    roots of a generic combination of the rows at which every row vanishes to within COMMON_ROOT_TOL."""
    comb = (np.exp(1j * np.arange(len(coeffs))) @ coeffs)[::-1]
    k = np.arange(coeffs.shape[1])[:, None]
    with np.errstate(all="ignore"):
        while not np.isfinite(top_row := -comb[1:] / comb[0]).all():  # so small a lead has roots whose powers overflow
            comb = comb[1:]
        companion = np.eye(len(comb) - 1, k=-1, dtype=np.complex128)  # np.roots' matrix, at half np.roots' cost
        companion[:1] = top_row
        rho = np.linalg.eigvals(companion)
        bound = COMMON_ROOT_TOL * (np.abs(coeffs) @ np.maximum(1, np.abs(rho)) ** k)
        rho = rho[np.isfinite(bound).all(axis=0) & (np.abs(coeffs @ rho**k) <= bound).all(axis=0)]
    if rho.size:  # one Newton step polishes a simple root: its step is tiny beside the other roots
        step = np.polyval(comb, rho) / np.polyval(np.polyder(comb), rho)
        gap = np.abs(rho[:, None] - rho) + np.diag(np.full(rho.size, math.inf))
        rho = np.where(np.abs(step) <= COMMON_ROOT_TOL * gap.min(axis=1), rho - step, rho)
    return rho


@dataclass(frozen=True)
class DataArray:
    """The r x n array (H_{i,j}): one column = (H_{0,j}, ..., H_{r-1,j})."""

    n: int
    r: int
    columns: tuple[Column, ...]

    def __post_init__(self):
        if self.n < 1:
            raise BadShape("n must be >= 1")
        if not 0 <= self.r <= self.n - 1:
            raise BadShape(f"need 0 <= r <= n-1, got r={self.r}, n={self.n}")
        cols = tuple(tuple(col) for col in self.columns)
        if self.r >= 1 and not cols:
            raise BadShape("need at least one column when r >= 1")
        for col in cols:
            if len(col) != self.r:
                raise BadShape("every column must have r rows")
            for vec in col:
                if vec.n != self.n:
                    raise BadShape("every entry must be a C^n vector")
        object.__setattr__(self, "columns", cols)


def _random_coefficients(rng: np.random.Generator, count: int, n: int, max_degree: int) -> np.ndarray:
    """Coefficients (count, n, max_degree + 1), degree-ascending, of count
    random polynomial C^n vectors: Gaussian integers from one draw, which
    gives the stream of one draw per polynomial."""
    if max_degree < 0:
        raise BadShape("max_degree must be >= 0")
    pairs = rng.integers(-_COEFF_RANGE, _COEFF_RANGE + 1, size=(count, n, max_degree + 1, 2))
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


def _polynomial_vectors(coeffs: np.ndarray) -> list[MeroVector]:
    """A MeroVector per leading row of a coefficient array (count, n, L)."""
    return [MeroVector(tuple(map(RationalFn, vec))) for vec in coeffs.tolist()]


def random_data(
    n: int,
    r: int,
    max_degree: int,
    sparsity_pattern: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> DataArray:
    """Random polynomial data array, deterministic in the seed.

    Coefficients are small Gaussian integers, so the binomial transform's
    Pascal sums of a column's normal form are exact.  When
    sparsity_pattern = (d_1 <= ... <= d_r) is given, row i is non-zero only
    in the first d_{i+1} columns (echelon shape).  The live entries, column
    by column, take their coefficients from one draw.
    """
    if not 0 <= r <= n - 1:
        raise BadShape(f"need 0 <= r <= n-1, got r={r}, n={n}")
    if sparsity_pattern is not None:
        d = tuple(int(x) for x in sparsity_pattern)
        if len(d) != r or any(x < 0 for x in d) or any(a > b for a, b in zip(d, d[1:])):
            raise BadShape("sparsity pattern must be r ascending non-negative ranks")
        if d and d[-1] > n:
            raise BadShape("echelon ranks cannot exceed n")
    else:
        d = (n,) * r
    ncols = n if r > 0 else 0
    live = [(j, i) for j in range(ncols) for i in range(r) if j < d[i]]
    coeffs = _random_coefficients(np.random.default_rng(seed), len(live), n, max_degree)
    vectors, zero = dict(zip(live, _polynomial_vectors(coeffs))), MeroVector.zero(n)
    return DataArray(n, r, tuple(tuple(vectors.get((j, i), zero) for i in range(r)) for j in range(ncols)))
