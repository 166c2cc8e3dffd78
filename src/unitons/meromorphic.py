"""Rational functions of one complex variable and vector/array bundles of them.

On the sphere every meromorphic function is rational, so a data entry is a
pair of degree-ascending coefficient tuples.  Differentiation is the
structural quotient rule on those tuples; only point evaluation rounds.
Coefficients are complex doubles throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BadShape, PoleError

# |den(z)| below POLE_TOL * max(1, ||den||) counts as a pole.
POLE_TOL = 1e-10
# Root matching tolerance for the optional common-root cleanup pass.
CLEANUP_TOL = 1e-9
# Sample points are drawn from the disc |z| <= DISC_RADIUS ...
DISC_RADIUS = 2.0
# ... and must keep this distance from every pole of the data.
POLE_CLEARANCE = 1e-2
# Rejection sampling gives up after this many draws per point.
MAX_SAMPLE_TRIES = 100
# Decoded coefficients above this magnitude are rejected: their values on the
# sample disc, and the squared norms the SVD forms from them, would overflow.
MAX_COEFFICIENT = 1e150

_COEFF_RANGE = 4  # random coefficients are Gaussian integers in [-4, 4]^2


def _as_coeffs(coeffs) -> tuple[complex, ...]:
    out = tuple(complex(c) for c in coeffs)
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

    @classmethod
    def polynomial(cls, coeffs: Iterable[complex]) -> "RationalFn":
        return cls(_as_coeffs(coeffs))

    @classmethod
    def constant(cls, value: complex) -> "RationalFn":
        return cls((complex(value),))

    @property
    def is_polynomial(self) -> bool:
        return self.den == (1 + 0j,)

    @property
    def is_zero(self) -> bool:
        return self.num == (0j,)

    def __call__(self, z: complex) -> complex:
        return eval_rational(self, z)

    def scale(self, c: complex) -> "RationalFn":
        c = complex(c)
        if c == 0:
            return RationalFn((0j,))
        return RationalFn(tuple(c * a for a in self.num), self.den)

    def __neg__(self) -> "RationalFn":
        return self.scale(-1)

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if not isinstance(other, RationalFn):
            return NotImplemented
        if self.den == other.den:
            # shared denominator: coefficient-exact path
            return RationalFn(_padded_add(self.num, other.num), self.den)
        num = _padded_add(_conv(self.num, other.den), _conv(other.num, self.den))
        return RationalFn(num, _conv(self.den, other.den))

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __mul__(self, other) -> "RationalFn":
        if isinstance(other, RationalFn):
            return RationalFn(_conv(self.num, other.num), _conv(self.den, other.den))
        return self.scale(other)

    __rmul__ = __mul__


def eval_rational(f: RationalFn, z: complex) -> complex:
    """Evaluate f at z, raising PoleError when the denominator is too small."""
    z = complex(z)
    dv = _horner(f.den, z)
    scale = math.sqrt(sum(abs(c) ** 2 for c in f.den))
    if abs(dv) < POLE_TOL * max(1.0, scale):
        raise PoleError(f"evaluation at z={z} hits a pole")
    return _horner(f.num, z) / dv


def differentiate(f: RationalFn) -> RationalFn:
    """Exact quotient-rule derivative (no simplification)."""
    dnum = _polyder(f.num)
    if f.is_polynomial:
        return RationalFn(dnum)
    dden = _polyder(f.den)
    num = _padded_add(_conv(dnum, f.den), tuple(-c for c in _conv(f.num, dden)))
    return RationalFn(num, _conv(f.den, f.den))


def poles_of(f: RationalFn) -> list[complex]:
    """All roots of the denominator, multiplicity collapsed."""
    den = f.den
    if len(den) == 1:
        return []
    roots = np.roots(list(reversed(den)))
    out: list[complex] = []
    for root in roots:
        r = complex(root)
        # multiple roots split by ~eps^(1/m) under the companion method;
        # 1e-5 collapses up to triple roots at desk scale
        if not any(abs(r - p) <= 1e-5 * max(1.0, abs(r)) for p in out):
            out.append(r)
    return out


def cancel_common_roots(f: RationalFn, tol: float = CLEANUP_TOL) -> RationalFn:
    """Optional cleanup: cancel numerator/denominator roots matching within tol."""
    if f.is_polynomial or f.is_zero:
        return f
    nroots = list(np.roots(list(reversed(f.num)))) if len(f.num) > 1 else []
    droots = list(np.roots(list(reversed(f.den))))
    kept_d = []
    for d in droots:
        hit = None
        for i, nr in enumerate(nroots):
            if abs(nr - d) <= tol * max(1.0, abs(d)):
                hit = i
                break
        if hit is None:
            kept_d.append(d)
        else:
            nroots.pop(hit)
    if len(kept_d) == len(droots):
        return f
    lead_n = f.num[-1]
    lead_d = f.den[-1]
    num = _as_coeffs(reversed(np.poly(nroots) * lead_n)) if nroots else (lead_n,)
    den = _as_coeffs(reversed(np.poly(kept_d) * lead_d)) if kept_d else (lead_d,)
    return RationalFn(num, den)


@dataclass(frozen=True)
class MeroVector:
    """C^n-valued rational function: a fixed-length tuple of RationalFn."""

    entries: tuple[RationalFn, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise BadShape("MeroVector needs at least one entry")
        object.__setattr__(self, "entries", tuple(self.entries))

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

    def scale(self, c: complex) -> "MeroVector":
        return MeroVector(tuple(f.scale(c) for f in self.entries))

    def __add__(self, other: "MeroVector") -> "MeroVector":
        if self.n != other.n:
            raise BadShape("vector length mismatch")
        return MeroVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MeroVector") -> "MeroVector":
        return self + other.scale(-1)


Column = tuple[MeroVector, ...]


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
        for col in cols:
            if len(col) != self.r:
                raise BadShape("every column must have r rows")
            for vec in col:
                if vec.n != self.n:
                    raise BadShape("every entry must be a C^n vector")
        object.__setattr__(self, "columns", cols)

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def row(self, i: int) -> tuple[MeroVector, ...]:
        return tuple(col[i] for col in self.columns)

    def restrict_rows(self, i: int) -> "DataArray":
        """Keep only the first i rows (the first i unitons depend on nothing else)."""
        if not 0 <= i <= self.r:
            raise BadShape("row restriction out of range")
        return DataArray(self.n, i, tuple(col[:i] for col in self.columns))

    def with_extra_column(self, column: Sequence[MeroVector]) -> "DataArray":
        return DataArray(self.n, self.r, self.columns + (tuple(column),))


def shifted_column(column: Sequence[MeroVector], n: int) -> Column:
    """(H_0, ..., H_{r-1}) -> (0, H_0, ..., H_{r-2})."""
    col = tuple(column)
    return (MeroVector.zero(n),) + col[:-1]


def _random_poly(rng: np.random.Generator, max_degree: int) -> RationalFn:
    c = rng.integers(-_COEFF_RANGE, _COEFF_RANGE + 1, size=(max_degree + 1, 2))
    return RationalFn(tuple(complex(a, b) for a, b in c))


def random_polynomial_vector(rng: np.random.Generator, n: int, max_degree: int) -> MeroVector:
    return MeroVector(tuple(_random_poly(rng, max_degree) for _ in range(n)))


def random_data(
    n: int,
    r: int,
    max_degree: int,
    sparsity_pattern: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> DataArray:
    """Random polynomial data array, deterministic in the seed.

    Coefficients are small Gaussian integers, which keeps later
    binomial-transform round trips coefficient-exact.  When
    sparsity_pattern = (d_1 <= ... <= d_r) is given, row i is non-zero only
    in the first d_{i+1} columns (echelon shape).
    """
    if not 0 <= r <= n - 1:
        raise BadShape(f"need 0 <= r <= n-1, got r={r}, n={n}")
    if max_degree < 0:
        raise BadShape("max_degree must be >= 0")
    if sparsity_pattern is not None:
        d = tuple(int(x) for x in sparsity_pattern)
        if len(d) != r or any(x < 0 for x in d) or any(a > b for a, b in zip(d, d[1:])):
            raise BadShape("sparsity pattern must be r ascending non-negative ranks")
        if d and d[-1] > n:
            raise BadShape("echelon ranks cannot exceed n")
    else:
        d = None
    rng = np.random.default_rng(seed)
    ncols = n if r > 0 else 0
    columns = []
    for j in range(ncols):
        col = []
        for i in range(r):
            if d is not None and j >= d[i]:
                col.append(MeroVector.zero(n))
            else:
                col.append(random_polynomial_vector(rng, n, max_degree))
        columns.append(tuple(col))
    return DataArray(n, r, tuple(columns))


def data_poles(data: DataArray) -> list[complex]:
    """Union of the poles of every entry of the array."""
    out: list[complex] = []
    for col in data.columns:
        for vec in col:
            for f in vec.entries:
                for p in poles_of(f):
                    if not any(abs(p - q) <= 1e-8 for q in out):
                        out.append(p)
    return out
