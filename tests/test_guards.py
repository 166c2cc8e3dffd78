"""Every structural guard of the package raises its own error with its own
message: one case per raise that no other test or workload executes."""

import re

import numpy as np
import pytest

from unitons import (
    BadShape,
    DataArray,
    DegeneratePoint,
    LoopPoly,
    MeroVector,
    NoTermination,
    RationalFn,
    Span,
    WSubspace,
    draw_sample_points,
    normalize_type_one,
    principal_angles,
    random_data,
    serialize,
    verification_report,
    w_from_x,
)
from unitons.cli import _parse_rect
from unitons.verifier import stencil_chains

P = RationalFn.polynomial
DATA = random_data(3, 2, 2, sparsity_pattern=(1, 1), seed=1)
ONE = MeroVector((P([1]), P([0, 1])))


def _triple_pairs_file():
    # every coefficient a triple, so the pairs convert to one (k, 3) array
    entry = {"num": [[1.0, 0.0, 0.0]], "den": [[1.0, 0.0, 0.0]]}
    return {"n": 2, "r": 1, "columns": [[[entry, entry]]]}


def _two_shape_loop_file():
    return {"n": 2, "r": 0, "fibers": [{"z": [0.0, 0.0], "coeffs": [serialize.matrix_to_json(np.eye(k))]}
                                       for k in (2, 3)]}


GUARDS = {
    "builder-draw-count": (lambda: draw_sample_points(DATA, -1), BadShape, "count must be >= 0"),
    "cli-rect-parts": (lambda: _parse_rect("0,1,2"), ValueError, "--rect expects x0,x1,y0,y1"),
    "grassmannian-w-rows": (lambda: WSubspace(2, 3, np.zeros((5, 1))), BadShape, "basis rows must equal r*n"),
    "grassmannian-x-blocks": (lambda: w_from_x(np.zeros((2, 1, 1, 3, 1)), 0.1), BadShape,
                              "X must be a derivative table (r, r, J, n, L), got shape (2, 1, 1, 3, 1)"),
    "grassmannian-no-points": (lambda: normalize_type_one(lambda z: None, []), BadShape,
                               "need at least one sample point"),
    "grassmannian-not-type-one": (
        lambda: normalize_type_one(lambda z: LoopPoly(np.diag([1.0, 0.0])[None]), [0.3]),
        NoTermination, "not type one after 1 constant-loop steps"),
    "meromorphic-empty-vector": (lambda: MeroVector(()), BadShape, "MeroVector needs at least one entry"),
    "meromorphic-n": (lambda: DataArray(0, 0, ()), BadShape, "n must be >= 1"),
    "meromorphic-column-rows": (lambda: DataArray(3, 2, ((ONE,),)), BadShape, "every column must have r rows"),
    "meromorphic-echelon-n": (lambda: random_data(3, 2, 2, sparsity_pattern=(2, 4)), BadShape,
                              "echelon ranks cannot exceed n"),
    "projections-span-rows": (lambda: Span(np.zeros((3, 1)), 4), BadShape, "basis rows must match ambient dimension"),
    "projections-angles-ambient": (lambda: principal_angles(Span.full(2), Span.full(3)), BadShape,
                                   "principal angles need a common ambient space"),
    "serialize-data-pairs": (lambda: serialize.data_from_json(_triple_pairs_file()), BadShape,
                             "complex values must be [re, im] pairs"),
    "serialize-data-missing-key": (lambda: serialize.data_from_json({"n": 3, "r": 1}), BadShape,
                                   "malformed JSON: missing key 'columns'"),
    "serialize-chain-missing-key": (lambda: serialize.chain_from_json({"n": 3, "r": 1}), BadShape,
                                    "malformed JSON: missing key 'ranks'"),
    "serialize-matrix-missing-key": (lambda: serialize.matrix_from_json({"shape": [1, 1]}), BadShape,
                                     "malformed JSON: missing key 'data'"),
    "serialize-loops-missing-key": (lambda: serialize.loop_fibers_from_json({"n": 1, "r": 0}), BadShape,
                                    "malformed JSON: missing key 'fibers'"),
    "serialize-matrix-ndim": (lambda: serialize.matrix_to_json(np.zeros(3)), BadShape, "only 2-d matrices serialize"),
    "serialize-stack-shapes": (lambda: serialize.loop_fibers_from_json(_two_shape_loop_file()), BadShape,
                               "a stack needs matrices of one shape"),
    "verifier-stencil-degenerate": (lambda: stencil_chains(DATA, 1e200), DegeneratePoint,
                                    "ambiguous rank decision or data values not finite"),
    "verifier-no-samples": (lambda: verification_report(DATA, samples=0), BadShape, "samples must be >= 1"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error
