"""The chain kernel: its in-place recursion on the K-vector rows gives the
chains of the build on the n x n C operators with no more work memory on
data of many columns, each point of a batch is built bit for bit as in any
other batch that holds it, and every batch is built on the calling thread."""

import threading
import tracemalloc

import numpy as np
import pytest

from oracles import build_chunk_reference
from unitons import (
    DataArray,
    MeroVector,
    cli,
    draw_sample_points,
    kernels,
    projections,
    random_data,
    s1_invariant_data,
    serialize,
)
from unitons.builder import STENCIL_OFFSETS, _tables, chain_arrays
from unitons.meromorphic import DISC_RADIUS
from unitons.verifier import FD_STEP

SHAPES = {
    "echelon": random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=3),
    "s1": s1_invariant_data(4, (1, 1, 1), 3, seed=2),
    "dense": random_data(4, 3, 3, seed=1),
    "all-dead": DataArray(4, 2, tuple((MeroVector.zero(4), MeroVector.zero(4)) for _ in range(3))),
}

ECHELON = [(3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2))]
REFERENCE_SETS = {
    **{f"echelon-{n}-{r}-s{seed}": random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
       for n, r, pattern in ECHELON for seed in range(4)},
    "s1-111": s1_invariant_data(4, (1, 1, 1), 3, seed=0),
    "s1-123": s1_invariant_data(4, (1, 2, 3), 3, seed=0),
    "dense-J5": random_data(5, 3, 3, seed=0),  # (i + 1) J columns: K-matrices wider than n
    "r1": random_data(3, 1, 3, seed=0),
}


def _kernel_input(data, P, seed=0):
    """The kernel's derivative table at P random points, every 37th row
    zeroed as `chain_arrays` zeroes the rows of points whose values overflow."""
    zs = np.random.default_rng(seed).uniform(-1.5, 1.5, (P, 2)) @ [1, 1j]
    vals = kernels.eval_table(_tables(data.n, data.r, data.columns), zs)
    vals[::37] = 0.0
    return vals


def _counted_starts(monkeypatch):
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
    return starts


@pytest.mark.parametrize("name", REFERENCE_SETS)
def test_the_k_vector_recursion_builds_the_c_operator_chain(name):
    data = REFERENCE_SETS[name]
    drawn = np.array(draw_sample_points(data, 3, seed=5, stencil_h=FD_STEP))
    u, v = np.random.default_rng(0).random((2, 256))
    disc = DISC_RADIUS * np.sqrt(u) * np.exp(2j * np.pi * v)
    for zs in ((STENCIL_OFFSETS[:, None] * FD_STEP + drawn).ravel(), disc, disc[:0]):
        vals = kernels.eval_table(_tables(data.n, data.r, data.columns), zs)
        got = kernels.build_chain(vals)
        want = tuple(np.zeros_like(a) for a in got)
        build_chunk_reference(vals, *want)
        assert np.array_equal(got[2], want[2]) and np.array_equal(got[4], want[4])  # ranks, status
        for a, b in zip(got[:2], want[:2]):  # pis, perps
            assert np.abs(a - b).max(initial=0.0) <= 1e-13
        axes = (1, 2, 3, 4)  # each point's K-vectors (kvecs)
        assert (np.abs(got[3] - want[3]).max(axis=axes) <= 1e-13 * np.abs(want[3]).max(axis=axes)).all()


MIXED = {
    "echelon-5-2-(2,2)": random_data(5, 2, 3, sparsity_pattern=(2, 2), seed=0),  # QR-certified at generic points
    "echelon-4-2-(1,2)": random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=0),  # step 0's column 1 is zero
}


@pytest.mark.parametrize("name", MIXED)
def test_certified_and_svd_points_of_one_batch_build_the_svd_kernels_chain(name, monkeypatch):
    vals = _kernel_input(MIXED[name], 80)  # rows 0, 37 and 74 zeroed
    noise = np.random.default_rng(1).standard_normal((vals.shape[-1], 2)) @ [1, 1j]
    vals[1, 0, 0, 1] = vals[1, 0, 0, 0] + 3e-9 * np.abs(vals[1, 0, 0, 0]).max() * noise  # in the band at step 0
    svd_points, masked_basis = [], projections.masked_basis

    def recorded(mat, scale=0.0):
        svd_points.append(len(mat))
        return masked_basis(mat, scale)

    monkeypatch.setattr(projections, "masked_basis", recorded)
    got = kernels.build_chain(vals)
    want = tuple(np.zeros_like(a) for a in got)
    build_chunk_reference(vals, *want)
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[4], want[4])  # ranks, status
    for a, b in zip(got[:2], want[:2]):  # pis, perps
        assert np.abs(a - b).max() <= 1e-13
    assert got[4][1] == 1 and not got[2][[0, 37, 74]].any()
    # per step, the SVD runs on the zeroed rows and the band point; the QR leaves out a column zero at every
    # point, so only (1,2)'s step 0, whose column 1 the band point fills, runs it on every point
    assert svd_points == ([4, 3] if name.endswith("(2,2)") else [80, 3])


@pytest.mark.parametrize("n, r, pattern", [(4, 2, (1, 2)), (5, 3, (1, 2, 2))], ids=["(1,2)", "(1,2,2)"])
def test_at_generic_points_only_steps_with_more_k_vectors_than_n_run_the_svd(n, r, pattern, monkeypatch):
    # step 0's column 1 is zero at every point: it is left out of the QR, not sent to the SVD
    data = random_data(n, r, 3, sparsity_pattern=pattern, seed=0)
    u, v = np.random.default_rng(0).random((2, 256))
    vals = kernels.eval_table(_tables(n, r, data.columns), DISC_RADIUS * np.sqrt(u) * np.exp(2j * np.pi * v))
    svd_shapes, masked_basis = [], projections.masked_basis

    def recorded(mat, scale=0.0):
        svd_shapes.append(mat.shape)
        return masked_basis(mat, scale)

    monkeypatch.setattr(projections, "masked_basis", recorded)
    got = kernels.build_chain(vals)
    want = tuple(np.zeros_like(a) for a in got)
    build_chunk_reference(vals, *want)
    assert np.array_equal(got[2], want[2]) and not got[4].any()  # ranks, status
    for a, b in zip(got[:2], want[:2]):  # pis, perps
        assert np.abs(a - b).max() <= 1e-13
    assert svd_shapes == ([] if r == 2 else [(256, n, 6)])  # (5, 3)'s step 2 has 6 K-vectors in C^5


def _work_peak(build, vals):
    """Traced heap peak of one chunk build into outputs allocated beforehand."""
    P, r, _, J, n = vals.shape
    out = (np.zeros((P, r, n, n), np.complex128), np.zeros((P, r, n, n), np.complex128), np.zeros((P, r), np.int64),
           np.zeros((P, r, r, J, n), np.complex128), np.zeros(P, np.int64))
    tracemalloc.start()
    try:
        build(vals, *out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(5, 4), (8, 7)])
def test_dense_data_needs_no_more_work_memory_than_the_c_operator_build(shape):
    # J = n data columns: a work array of the K-vectors' coefficients would be r J / n times C's size
    data = random_data(*shape, 3, seed=0)
    zs = np.random.default_rng(0).uniform(-1, 1, (cli.SAMPLE_BLOCK, 2)) @ [1, 1j]
    vals = kernels.eval_table(_tables(data.n, data.r, data.columns), zs)
    assert vals.shape[3] == data.n
    assert _work_peak(kernels._build_chunk, vals) <= 1.1 * _work_peak(build_chunk_reference, vals)


@pytest.mark.parametrize("P", [127, 128, 129, 256, 257])
@pytest.mark.parametrize("shape", SHAPES)
def test_a_batch_is_its_pieces_bit_for_bit_and_the_reference_chain(shape, P):
    # each point's chain depends on that point alone, whatever batch holds it
    vals = _kernel_input(SHAPES[shape], P)
    whole = kernels.build_chain(vals)
    cuts = [0, 1, P // 2, P - 1, P]
    pieces = [kernels.build_chain(vals[a:b]) for a, b in zip(cuts, cuts[1:])]
    for a, parts in zip(whole, zip(*pieces), strict=True):
        b = np.concatenate(parts)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    want = tuple(np.zeros_like(a) for a in whole)
    build_chunk_reference(vals, *want)
    assert np.array_equal(whole[2], want[2]) and np.array_equal(whole[4], want[4])  # ranks, status
    for a, b in zip(whole[:2], want[:2]):  # pis, perps
        assert np.abs(a - b).max(initial=0.0) <= 1e-13


def test_an_r0_batch_builds_no_chain():
    # r = 0 data has nothing to build, however many points the batch holds
    batch = chain_arrays(random_data(3, 0, 2), np.linspace(-1, 1, cli.SAMPLE_BLOCK))
    assert batch.pis.shape == (cli.SAMPLE_BLOCK, 0, 3, 3)


@pytest.mark.parametrize("point", [0, 64, 127])
@pytest.mark.parametrize("shape", ["echelon", "dense"])  # on echelon data every step goes to the sweep first
def test_a_point_that_cannot_converge_raises(shape, point):
    vals = _kernel_input(SHAPES[shape], 128)
    vals[point, 0, 0, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        kernels.build_chain(vals)


@pytest.mark.parametrize("point", [1, 64, 127])
@pytest.mark.parametrize("shape", ["echelon", "dense"])
def test_the_kernel_runs_under_the_callers_errstate(shape, point):
    vals = _kernel_input(SHAPES[shape], 128)
    vals[point] *= 1e-300  # this point's rank threshold underflows (every 37th point is zero)
    kernels.build_chain(vals)
    with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        kernels.build_chain(vals)


def test_a_failing_build_raises_its_own_exception(monkeypatch):
    # the error reaches the caller as the body raised it, not wrapped or replaced
    error = np.linalg.LinAlgError("SVD did not converge")

    def failing_build(*batch):
        raise error

    monkeypatch.setattr(kernels, "_build_chunk", failing_build)
    with pytest.raises(np.linalg.LinAlgError) as info:
        kernels.build_chain(_kernel_input(SHAPES["dense"], 128))
    assert info.value is error


@pytest.mark.parametrize("command", [
    ["verify", "--samples", "3", "--output", "rep.json"],
    ["sample", "--grid", "16", "--output", "grid.json"],  # a 16 x 16 grid is one 256-point kernel call
], ids=["verify", "sample"])
def test_verify_and_sample_start_no_thread(command, tmp_path, monkeypatch):
    path = tmp_path / "data.json"
    serialize.write_json(serialize.data_to_json(SHAPES["echelon"]), path)
    starts = _counted_starts(monkeypatch)
    command = command[:-1] + [str(tmp_path / command[-1])]
    assert cli.main([command[0], "--input", str(path), *command[1:]]) == 0
    assert starts == []
