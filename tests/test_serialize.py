import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unitons import BadShape, DataArray, LoopPoly, MeroVector, RationalFn, random_data, s1_invariant_data, serialize

from oracles import (
    chain_to_json_tolist,
    data_from_json_per_entry,
    loop_fibers_to_json_tolist,
    matrices_to_json_tolist,
    random_chain,
)

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


# the spellings whose exponent form changed with the writer, the extremes and a signed zero
edge_floats = st.sampled_from([-0.0, 5e-324, -5e-324, 1e-5, 1.5e-7, 1e-7, 1e16, 1e22, 1.7976931348623157e308])
edge_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(*[arrays(np.float64, shape, elements=st.one_of(edge_floats, finite))] * 2)
).map(_complex)


def _bits(m):
    return np.asarray(m, np.complex128).view(np.float64).view(np.uint64)


@given(edge_matrices)
def test_written_floats_read_back_bit_exactly(tmp_path_factory, m):
    text = serialize.dumps(serialize.matrix_to_json(m))
    assert np.array_equal(_bits(serialize.matrix_from_json(json.loads(text))), _bits(m))
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    serialize.write_json(serialize.matrix_to_json(m), path)
    assert path.read_text() == text
    assert np.array_equal(_bits(serialize.matrix_from_json(serialize.read_json(path))), _bits(m))


def test_floats_are_written_as_shortest_round_trip_decimals():
    assert serialize.dumps([1e-5, 1.5e-7, 1e16, 1e22, -0.0, 5e-324, 0.1, 2.0]) == (
        "[0.00001,1.5e-7,1e16,1e22,-0.0,5e-324,0.1,2.0]\n")


def test_write_json_accepts_numpy_scalars_nested_in_lists(tmp_path):
    plain = {"coeffs": [[0.5, -0.0], [1e-7, 3.0]], "n": 2, "ok": True}
    scalars = {"coeffs": [[np.float64(0.5), np.float64(-0.0)], [np.float64(1e-7), np.float64(3.0)]],
               "n": np.int64(2), "ok": np.bool_(True)}
    serialize.write_json(plain, tmp_path / "plain.json")
    serialize.write_json(scalars, tmp_path / "scalars.json")
    assert (tmp_path / "scalars.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert serialize.read_json(tmp_path / "scalars.json") == plain


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_a_non_finite_value_never_reads_back_as_a_number(value, tmp_path):
    assert serialize.dumps({"x": value}) == '{"x":null}\n'
    m = np.eye(2, dtype=np.complex128)
    m[0, 1] = complex(value, 0.0)
    serialize.write_json(serialize.matrix_to_json(m), tmp_path / "m.json")
    for obj in (serialize.read_json(tmp_path / "m.json"), json.loads(serialize.dumps(serialize.matrix_to_json(m)))):
        assert obj["data"][1] == [None, 0.0]
        with pytest.raises(BadShape):
            serialize.matrix_from_json(obj)


@pytest.mark.parametrize("data", [
    [[float("nan"), 0.0], [0.0, 0.0]],
    [[0.0, float("inf")], [0.0, 0.0]],
    [[-float("inf"), 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0]],          # ragged
    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # not pairs
    [0.0, 0.0, 0.0, 0.0],         # flat numbers
    [[0.0, 0.0]],                 # fewer entries than the shape
    [[0.0, 0.0]] * 3,             # more entries than the shape
    [[None, 0.0], [0.0, 0.0]],
    [[{}, 0.0], [0.0, 0.0]],
    [[10**400, 0.0], [0.0, 0.0]],
], ids=["nan", "inf", "-inf", "ragged", "triples", "flat", "short", "long", "null", "object", "huge-int"])
def test_matrix_from_json_rejects_malformed_data(data):
    with pytest.raises(BadShape):
        serialize.matrix_from_json({"shape": [1, 2], "data": data})


@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_chain_json_round_trip_is_bit_exact(n, r, seed):
    pis, perps = random_chain(np.random.default_rng(seed), n, r)
    pis = np.array(pis, np.complex128).reshape(r, n, n)
    obj = json.loads(serialize.dumps(serialize.chain_to_json(pis)))
    assert obj["n"] == n and obj["r"] == r
    assert obj["ranks"] == [int(round(np.trace(p).real)) for p in pis]
    back_pis, back_perps = serialize.chain_from_json(obj)
    assert back_pis.shape == back_perps.shape == (r, n, n)
    assert np.array_equal(back_pis, pis)
    assert np.array_equal(back_perps, np.eye(n) - pis)


@pytest.mark.parametrize("n, r", [(3, 0), (2, 1), (5, 4)])
def test_chain_to_json_matches_the_per_matrix_encoding(n, r):
    pis, _ = random_chain(np.random.default_rng(n + r), n, r)
    stack = np.array(pis, np.complex128).reshape(r, n, n)
    # finite edge values off the diagonal keep the ranks
    stack[:, 0, 1:] = np.resize(EDGE_PARTS[np.isfinite(EDGE_PARTS)], (r, n - 1, 2)).view(np.complex128)[..., 0]
    stack[:, 0, -1] = -0.0  # a signed zero must keep its sign
    # contiguous, then a strided and a transposed view
    for view in (stack, np.stack([stack, stack], axis=1)[:, 0], stack.swapaxes(-1, -2)):
        expected = {
            "n": n,
            "r": r,
            "ranks": [int(round(np.trace(p).real)) for p in view],
            "projections": [serialize.matrix_to_json(p) for p in view],
        }
        text = serialize.dumps(serialize.chain_to_json(view))
        assert text == serialize.dumps(expected) == serialize.dumps(chain_to_json_tolist(view))


@given(st.integers(0, 3), matrices)
def test_matrices_to_json_is_each_matrix_encoded(count, m):
    stack = np.array([m, m.conj(), -m][:count], np.complex128).reshape((count,) + m.shape)
    # matrix objects hold numpy rows, so compare the text that dumps writes
    expected = serialize.dumps([serialize.matrix_to_json(mat) for mat in stack])
    assert serialize.dumps(serialize.matrices_to_json(stack)) == expected
    with pytest.raises(BadShape):
        serialize.matrices_to_json(m)


# 16 floats: the edge spellings, the extremes, signed zeros and each non-finite kind
EDGE_PARTS = np.array([-0.0, 5e-324, -5e-324, 1e-5, 1.5e-7, 1e16, 1e22, 1.7976931348623157e308,
                       -1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, -2.5, 1 / 3, 0.0])


def _edge_stack(shape, seed=0):
    """A complex stack whose (re, im) parts are the edge floats in a seeded order
    (built by a view, so -0.0 keeps its sign)."""
    parts = np.random.default_rng(seed).permutation(np.resize(EDGE_PARTS, 2 * int(np.prod(shape))))
    return parts.view(np.complex128).reshape(shape)


_STACKS = {
    "contiguous": _edge_stack((3, 4, 6)),
    "transposed": _edge_stack((3, 4, 6)).swapaxes(1, 2),
    "strided": _edge_stack((3, 4, 6))[:, ::2, ::3],
    "reversed": _edge_stack((3, 4, 6))[::-1, :, ::-1],
    "one": _edge_stack((1, 2, 2), seed=1),
    "real": _edge_stack((2, 3, 3), seed=2).real,  # converted to complex128 on the way
    "no-rows": np.zeros((2, 0, 3), np.complex128),
    "no-cols": np.zeros((2, 3, 0), np.complex128),
    "no-matrix": np.zeros((0, 2, 2), np.complex128),
}


@pytest.mark.parametrize("stack", _STACKS.values(), ids=_STACKS.keys())
def test_matrix_objects_are_the_tolist_encoding_byte_for_byte(stack):
    text = serialize.dumps(serialize.matrices_to_json(stack))
    assert text == serialize.dumps(matrices_to_json_tolist(stack))
    # each finite part reads back bit for bit and each non-finite one as null
    count, rows, cols = stack.shape
    parts = np.ascontiguousarray(stack, np.complex128).view(np.float64).reshape(count, rows * cols, 2)
    for obj, want in zip(json.loads(text), parts):
        assert obj["shape"] == list(stack.shape[1:]) and len(obj["data"]) == len(want)
        for got, pair in zip(obj["data"], want.tolist()):
            assert [g if g is None else g.hex() for g in got] == [p.hex() if np.isfinite(p) else None for p in pair]


def test_matrix_objects_do_not_alias_the_stack():
    stack = _edge_stack((2, 3, 3)).copy()  # complex128 and C-contiguous: an asarray would be the stack itself
    objs = serialize.matrices_to_json(stack)
    text = serialize.dumps(objs)
    stack[...] = 7.0
    assert serialize.dumps(objs) == text


@pytest.mark.parametrize("n, r", [(3, 0), (4, 3)])
def test_loop_fiber_objects_are_the_tolist_encoding(n, r):
    fibers = [(complex(-0.0, 1e-5), LoopPoly(_edge_stack((r + 1, n, n), seed=4))),
              (5e-324j, LoopPoly(_edge_stack((r + 1, n, n), seed=5).swapaxes(-1, -2)))]
    assert serialize.dumps(serialize.loop_fibers_to_json(n, r, fibers)) == serialize.dumps(
        loop_fibers_to_json_tolist(n, r, fibers))


def test_chain_from_json_rejects_bad_projections():
    pi = np.diag([1.0, 0.0])
    good = serialize.chain_to_json(pi[None])
    assert serialize.chain_from_json(good)[0].shape == (1, 2, 2)
    for bad in (
        np.array([[0.5, 0.5], [0.0, 0.5]]),  # neither Hermitian nor idempotent
        np.array([[1.0, 1.0], [0.0, 0.0]]),  # idempotent, not Hermitian
        2 * pi,                              # Hermitian, not idempotent
    ):
        with pytest.raises(BadShape):
            serialize.chain_from_json(serialize.chain_to_json(bad[None]))
    with pytest.raises(BadShape):  # projections of another size than n
        serialize.chain_from_json({**good, "n": 3})


def _rational_denominators():
    # the echelon (4, 3, (1, 1, 2)) data with rational entries, signed zeros and
    # non-integer coefficients in its live columns
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 2), seed=4)
    columns = [list(col) for col in data.columns]
    v = columns[0][1]
    columns[0][1] = MeroVector((RationalFn((1.5, -0.0j, 0.5), (2, 0.25 - 1j, 1j)),) + v.entries[1:])
    columns[1][2] = MeroVector(tuple(RationalFn(f.num, (1, -3.75j)) for f in columns[1][2].entries))
    return DataArray(4, 3, tuple(tuple(col) for col in columns))


@pytest.mark.parametrize("data", [
    random_data(4, 3, 3, seed=2),
    random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0),
    s1_invariant_data(4, (1, 2, 3), 3, seed=2),
    random_data(3, 0, 2, seed=0),
    DataArray(3, 0, ((),)),
    _rational_denominators(),
], ids=["random", "echelon", "s1", "r0", "r0-one-column", "rational"])
def test_data_from_json_equals_the_per_entry_decode(data):
    obj = json.loads(serialize.dumps(serialize.data_to_json(data)))
    decoded, reference = serialize.data_from_json(obj), data_from_json_per_entry(obj)
    assert decoded == reference == data
    # compared as text too, which tells -0.0 from 0.0
    assert serialize.dumps(serialize.data_to_json(decoded)) == serialize.dumps(serialize.data_to_json(reference))


def _signed_zero_file():
    """A data file (n = 3, r = 1, four columns) of six entries, each twice:
    zeros that differ only in sign, and the same pairs split differently
    between numerator and denominator."""
    one, two, three = [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]
    entries = [
        {"num": [[0.0, 0.0]], "den": [one]},
        {"num": [[-0.0, 0.0]], "den": [one]},
        {"num": [[0.0, -0.0]], "den": [one]},
        {"num": [[0.0, 0.0]], "den": [[1.0, -0.0]]},
        {"num": [one, two], "den": [three]},
        {"num": [one], "den": [two, three]},
    ]
    return {"n": 3, "r": 1, "columns": [[[entries[(3 * j + m) % 6] for m in range(3)]] for j in range(4)]}


def test_data_from_json_shares_byte_identical_entries_and_keeps_signed_zeros():
    obj = _signed_zero_file()
    data = serialize.data_from_json(obj)
    assert serialize.dumps(serialize.data_to_json(data)) == serialize.dumps(obj)
    fns = [f for col in data.columns for vec in col for f in vec.entries]
    assert len({id(f) for f in fns}) == 6  # one object per distinct entry, -0.0 apart from 0.0
    assert all(fns[k] is fns[k + 6] for k in range(6))
    assert data == data_from_json_per_entry(obj)


def test_data_from_json_shares_the_zero_entries_of_an_echelon_file():
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0)
    obj = json.loads(serialize.dumps(serialize.data_to_json(data)))
    decoded = serialize.data_from_json(obj)
    zeros = {id(f) for col in decoded.columns for vec in col for f in vec.entries if f.is_zero}
    assert len(zeros) == 1 and decoded == data
    assert serialize.dumps(serialize.data_to_json(decoded)) == serialize.dumps(obj)


def _entry(obj, value, part="num"):
    obj["columns"][0][0][0][part] = value
    return obj


@pytest.mark.parametrize("mutate", [
    lambda obj: _entry(obj, [[1.0, float("nan")]]),
    lambda obj: _entry(obj, [[1e151, 0.0]], "den"),
    lambda obj: _entry(obj, [[1.0, 0.0, 0.0]]),
    lambda obj: _entry(obj, [1.0, 0.0]),
    lambda obj: _entry(obj, [[1.0, 0.0], [1.0]]),
    lambda obj: _entry(obj, [[None, 0.0]]),
    lambda obj: _entry(obj, [["x", 0.0]]),
    lambda obj: _entry(obj, [[10**400, 0.0]]),
    lambda obj: _entry(obj, 5),
    lambda obj: _entry(obj, [], "den"),
], ids=["nan", "huge", "triple", "flat", "ragged", "null", "string", "huge-int", "number", "zero-denominator"])
def test_data_from_json_rejects_what_the_per_entry_decode_rejects(mutate):
    obj = mutate(serialize.data_to_json(random_data(3, 2, 2, sparsity_pattern=(1, 1), seed=1)))
    with pytest.raises(BadShape):
        data_from_json_per_entry(obj)
    with pytest.raises(BadShape):
        serialize.data_from_json(obj)


@pytest.mark.parametrize("command", [
    ["verify", "--samples", "2", "--seed", "5"],
    ["sample", "--grid", "4"],
    ["factorize", "--samples", "2"],
], ids=lambda c: c[0])
def test_written_file_is_the_dumps_text_byte_for_byte(command, tmp_path, capsys):
    from unitons import cli

    path, out = tmp_path / "data.json", tmp_path / "out.json"
    serialize.write_json(serialize.data_to_json(random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=3)), path)
    argv = [command[0], "--input", str(path), *command[1:]]
    capsys.readouterr()
    assert cli.main(argv) == 0
    text = capsys.readouterr().out  # serialize.dumps of the report
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == text.encode()
