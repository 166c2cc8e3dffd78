import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unitons import serialize

finite = st.floats(allow_nan=False, allow_infinity=False)


def _complex(parts):
    re, im = parts
    m = np.empty(re.shape, np.complex128)
    m.real, m.imag = re, im  # keeps -0.0 in either part
    return m


matrices = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: st.tuples(arrays(np.float64, shape, elements=finite), arrays(np.float64, shape, elements=finite))
).map(_complex)


@given(matrices, st.booleans())
def test_matrix_to_json_matches_per_entry_encoding(m, transpose):
    m = m.T if transpose else m  # a non-C-contiguous view is still written row-major
    expected = [serialize.encode_complex(c) for c in np.ascontiguousarray(m).ravel()]
    # compared as text, which tells -0.0 from 0.0
    assert serialize.dumps(serialize.matrix_to_json(m)) == serialize.dumps({"shape": list(m.shape), "data": expected})


@given(matrices)
def test_matrix_json_round_trip_is_byte_exact(m):
    text = serialize.dumps(serialize.matrix_to_json(m))
    back = serialize.matrix_from_json(json.loads(text))
    assert serialize.dumps(serialize.matrix_to_json(back)) == text
