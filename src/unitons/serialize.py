"""JSON encode/decode for every externally visible object.

Complex numbers are always [re, im] pairs; matrices are row-major lists of
pairs with an explicit shape, so golden files diff cleanly and round-trip
byte-exactly through the canonical writer.  orjson reads and writes the text:
floats as shortest round-trip decimals, a non-finite float as null.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Sequence

import numpy as np
import orjson

from .errors import BadShape
from .meromorphic import MAX_COEFFICIENT, DataArray, MeroVector, RationalFn, _integer

if TYPE_CHECKING:
    from .grassmannian import LoopPoly

PROJECTOR_TOL = 1e-11  # a decoded projection must be Hermitian and idempotent to this
_FLAGS = np.zeros(3, bool)  # the operands of dumps' state-restoring ufunc


def _decoder(decode):
    """JSON of the wrong type (null, a number, an array where an object
    belongs) fails inside a decoder as a TypeError, ValueError or
    OverflowError, and a missing key as a KeyError: malformed input, so BadShape."""

    @functools.wraps(decode)
    def checked(*args):
        try:
            return decode(*args)
        except KeyError as exc:
            raise BadShape(f"malformed JSON: missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadShape(f"malformed JSON: {exc}") from exc

    return checked


# null is orjson's non-finite float, left to the finiteness check; np.float64
# is a matrices_to_json row entry, decoded in process
_NUMBER_TYPES = frozenset({int, float, type(None), np.float64})


def _complex(nested, shape: tuple, what: str) -> np.ndarray:
    """Lists of [re, im] pairs of JSON numbers nested to ``shape`` as one
    complex128 array of that shape; ``what`` is the message for another shape.
    numpy would read true as 1 and "1" as 1, so a bool or a string in a
    number's place is malformed, and so is a non-finite value."""
    leaves = nested
    for _ in shape:
        leaves = itertools.chain.from_iterable(leaves)
    if not _NUMBER_TYPES.issuperset(map(type, leaves)):
        raise BadShape("complex values must be [re, im] pairs of JSON numbers")
    pairs = np.array(nested, np.float64)
    if pairs.shape == shape and not pairs.size:  # no pair at all reads as shape (..., 0)
        pairs = pairs.reshape(shape + (2,))
    if pairs.shape != shape + (2,):
        raise BadShape(what)
    if not np.isfinite(pairs).all():
        raise BadShape("complex values must be finite")
    return pairs.view(np.complex128)[..., 0]


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


@_decoder
def decode_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise BadShape("complex values must be [re, im] pairs")
    return complex(_complex(pair, (), "complex values must be [re, im] pairs"))


def rational_to_json(f: RationalFn) -> dict:
    return {"num": [encode_complex(c) for c in f.num], "den": [encode_complex(c) for c in f.den]}


def vector_to_json(v: MeroVector) -> list:
    return [rational_to_json(f) for f in v.entries]


def data_to_json(data: DataArray) -> dict:
    return {
        "n": data.n,
        "r": data.r,
        "columns": [[vector_to_json(v) for v in col] for col in data.columns],
    }


@_decoder
def data_from_json(obj) -> DataArray:
    """Every [re, im] pair of the file decoded by one numpy conversion and
    checked once, then sliced back into each entry's numerator and denominator."""
    columns = obj["columns"]
    coeffs = [part for col in columns for vec in col for f in vec for part in (f["num"], f["den"])]
    flat = [pair for part in coeffs for pair in part]
    values = _complex(flat, (len(flat),), "complex values must be [re, im] pairs")
    if (np.abs(values) > MAX_COEFFICIENT).any():
        raise BadShape(f"coefficient magnitude above {MAX_COEFFICIENT:g}")
    values, raw, bounds = values.tolist(), values.tobytes(), [0, *itertools.accumulate(map(len, coeffs))]
    shared, entries = {}, []
    # the parts come in file order, each entry's numerator [a, b) before its denominator [b, c)
    for a, b, c in zip(bounds[::2], bounds[1::2], bounds[2::2]):
        # entries with byte-identical parts (16 bytes a pair) share one RationalFn; -0.0 stays distinct
        key = (b - a, raw[16 * a : 16 * c])
        if (f := shared.get(key)) is None:
            f = shared[key] = RationalFn(tuple(values[a:b]), tuple(values[b:c]))
        entries.append(f)
    fns = iter(entries)
    return DataArray(_integer(obj["n"], "n"), _integer(obj["r"], "r"), tuple(
        tuple(MeroVector(tuple(next(fns) for _ in vec)) for vec in col) for col in columns))


def matrices_to_json(ms: np.ndarray) -> list[dict]:
    """A stack (P, rows, cols) as P matrix objects, each matrix's "data" a
    (rows*cols, 2) float64 row view of one C-contiguous copy of the stack.

    orjson writes the rows as the numbers they hold, so ``dumps`` gives the
    text of the [re, im] lists; stdlib ``json`` cannot write them: the objects
    are for ``dumps`` and ``write_json`` only."""
    ms = np.array(ms, np.complex128, order="C")  # a copy: no object aliases the caller's array
    if ms.ndim != 3:
        raise BadShape("a stack of matrices must be 3-d")
    count, rows, cols = ms.shape
    # each complex128 entry read as its (re, im) float64 pair, row-major
    data = ms.view(np.float64).reshape(count, rows * cols, 2)
    return [{"shape": [rows, cols], "data": entries} for entries in data]


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise BadShape("only 2-d matrices serialize")
    return matrices_to_json(m[None])[0]


def _matrices_from_json(objs) -> np.ndarray:
    """Matrix objects of one shape decoded at once into a (len(objs), rows, cols) array."""
    shapes = {tuple(_integer(x, "shape") for x in m["shape"]) for m in objs}
    if len(shapes) != 1:
        raise BadShape("a stack needs matrices of one shape")
    (rows, cols), = shapes
    data = _complex([m["data"] for m in objs], (len(objs), rows * cols),
                    "matrix data must be one [re, im] pair per entry of its shape")
    return data.reshape(len(objs), rows, cols)  # row-major


@_decoder
def matrix_from_json(obj) -> np.ndarray:
    return _matrices_from_json([obj])[0]


@_decoder
def vectors_from_json(obj, n: int) -> np.ndarray:
    """A non-empty list of C^n vectors, each n [re, im] pairs, decoded at once
    into the columns of an (n, k) matrix."""
    if not isinstance(obj, list) or not obj:
        raise BadShape("expected a non-empty list of vectors")
    return _complex(obj, (len(obj), n), f"each vector must be {n} [re, im] pairs").T


def _ranks(pis: np.ndarray) -> list[int]:
    return np.rint(np.trace(pis, axis1=-2, axis2=-1).real).astype(int).tolist()


def chain_to_json(pis: np.ndarray) -> dict:
    """The chain's projections pi_1..pi_r, (r, n, n), with their ranks."""
    return {
        "n": pis.shape[-1],
        "r": len(pis),
        "ranks": _ranks(pis),
        "projections": matrices_to_json(pis),
    }


@_decoder
def chain_from_json(obj) -> tuple[np.ndarray, np.ndarray]:
    """The chain (pis, perps), each (r, n, n), with perp = I - pi; the header's
    r must count the projections and its ranks must be their traces."""
    n, r = _integer(obj["n"], "n"), _integer(obj["r"], "r")
    ranks = [_integer(k, "rank") for k in obj["ranks"]]
    mats = obj["projections"]
    pis = _matrices_from_json(mats) if mats else np.zeros((0, n, n), np.complex128)
    if pis.shape != (r, n, n):
        raise BadShape(f"projections must be r = {r} matrices, n x n with n = {n}")
    # a Hermitian idempotent pi makes I - pi one too, and the pair sums to I
    idem = np.abs(pis @ pis - pis).max(initial=0.0)
    if max(idem, np.abs(pis - pis.conj().swapaxes(-1, -2)).max(initial=0.0)) > PROJECTOR_TOL:
        raise BadShape("not a Hermitian idempotent")
    if ranks != _ranks(pis):
        raise BadShape(f"ranks {ranks} are not the projections' traces")
    return pis, np.eye(n, dtype=np.complex128) - pis


def loop_fibers_to_json(n: int, r: int, fibers: Sequence[tuple[complex, LoopPoly]]) -> dict:
    return {
        "n": n,
        "r": r,
        "fibers": [
            {"z": encode_complex(z), "coeffs": matrices_to_json(loop.coeffs)}
            for z, loop in fibers
        ],
    }


@_decoder
def loop_fibers_from_json(obj) -> tuple[list[complex], LoopPoly]:
    """The fibers' z values and their loops as one (P, r+1, n, n) stack, every
    fiber's coefficients decoded at once and held to the file's n and r."""
    from .grassmannian import LoopPoly  # the Grassmannian model loads only where it runs

    n, r, fibers = _integer(obj["n"], "n"), _integer(obj["r"], "r"), obj["fibers"]
    if not fibers:
        raise BadShape("a loop-fiber file needs at least one fiber: no fiber is no evidence")
    coeffs = _matrices_from_json([t for fib in fibers for t in fib["coeffs"]])
    if coeffs.shape != (len(fibers) * (r + 1), n, n) or any(len(fib["coeffs"]) != r + 1 for fib in fibers):
        raise BadShape(f"every loop fiber must hold r + 1 = {r + 1} coefficients of shape ({n}, {n})")
    return [decode_complex(fib["z"]) for fib in fibers], LoopPoly(coeffs.reshape(len(fibers), r + 1, n, n))


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, tight separators, trailing newline;
    numpy scalars and arrays are written as the numbers they hold."""
    options = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
    # a bool ufunc just before the encoding: right after numpy's complex matrix products
    # orjson's float encoding runs about 4x slower (AVX-512 CPU), whatever the caller ran last
    np.logical_or(_FLAGS, _FLAGS)
    return orjson.dumps(obj, option=options).decode()


def write_json(obj, path) -> None:
    # through dumps, the one place JSON text is made; the str round trip of
    # its ASCII text is cheap next to the encoding
    with open(path, "wb") as fh:
        fh.write(dumps(obj).encode())


def read_json(path):
    with open(path, "rb") as fh:
        return orjson.loads(fh.read())
