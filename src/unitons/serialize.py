"""JSON encode/decode for every externally visible object.

Complex numbers are always [re, im] pairs; matrices are row-major lists of
pairs with an explicit shape, so golden files diff cleanly and round-trip
byte-exactly through the canonical writer.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .errors import BadShape
from .grassmannian import LoopPoly, WSubspace
from .meromorphic import MAX_COEFFICIENT, DataArray, MeroVector, RationalFn
from .projections import ProjChain


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise BadShape("complex values must be [re, im] pairs")
    re, im = float(pair[0]), float(pair[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise BadShape("complex values must be finite")
    return complex(re, im)


def rational_to_json(f: RationalFn) -> dict:
    return {"num": [encode_complex(c) for c in f.num], "den": [encode_complex(c) for c in f.den]}


def rational_from_json(obj) -> RationalFn:
    num = tuple(decode_complex(c) for c in obj["num"])
    den = tuple(decode_complex(c) for c in obj["den"])
    if any(abs(c) > MAX_COEFFICIENT for c in num + den):
        raise BadShape(f"coefficient magnitude above {MAX_COEFFICIENT:g}")
    return RationalFn(num, den)


def vector_to_json(v: MeroVector) -> list:
    return [rational_to_json(f) for f in v.entries]


def vector_from_json(obj) -> MeroVector:
    return MeroVector(tuple(rational_from_json(f) for f in obj))


def data_to_json(data: DataArray) -> dict:
    return {
        "n": data.n,
        "r": data.r,
        "columns": [[vector_to_json(v) for v in col] for col in data.columns],
    }


def data_from_json(obj) -> DataArray:
    return DataArray(
        int(obj["n"]),
        int(obj["r"]),
        tuple(tuple(vector_from_json(v) for v in col) for col in obj["columns"]),
    )


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise BadShape("only 2-d matrices serialize")
    return {
        "shape": [int(m.shape[0]), int(m.shape[1])],
        "data": [encode_complex(c) for c in m.ravel(order="C")],
    }


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = (int(x) for x in obj["shape"])
    flat = np.array([decode_complex(c) for c in obj["data"]], dtype=np.complex128)
    if flat.size != rows * cols:
        raise BadShape("matrix data does not match shape")
    return flat.reshape(rows, cols)


def chain_to_json(chain: ProjChain, n: int, r: int) -> dict:
    return {
        "n": n,
        "r": r,
        "ranks": list(chain.ranks),
        "projections": [matrix_to_json(p) for p, _ in chain.pairs],
    }


def chain_from_json(obj) -> ProjChain:
    n = int(obj["n"])
    eye = np.eye(n, dtype=np.complex128)
    pairs = []
    for mat in obj["projections"]:
        pi = matrix_from_json(mat)
        pairs.append((pi, eye - pi))
    return ProjChain(pairs)


def wsubspace_to_json(w: WSubspace) -> dict:
    return {"n": w.n, "r": w.r, "ranks": [w.dim], "basis": matrix_to_json(w.basis)}


def wsubspace_from_json(obj) -> WSubspace:
    return WSubspace(int(obj["r"]), int(obj["n"]), matrix_from_json(obj["basis"]))


def loop_fibers_to_json(n: int, r: int, fibers: Sequence[tuple[complex, LoopPoly]]) -> dict:
    return {
        "n": n,
        "r": r,
        "fibers": [
            {"z": encode_complex(z), "coeffs": [matrix_to_json(t) for t in loop.coeffs]}
            for z, loop in fibers
        ],
    }


def loop_fibers_from_json(obj) -> list[tuple[complex, LoopPoly]]:
    out = []
    for fib in obj["fibers"]:
        coeffs = np.array([matrix_from_json(t) for t in fib["coeffs"]])
        out.append((decode_complex(fib["z"]), LoopPoly(coeffs)))
    return out


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, tight separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
