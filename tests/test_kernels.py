"""The chain kernel: its in-place recursion on the K-vector rows gives the
chains of the build on the n x n C operators with no more work memory on
data of many columns, and its point split builds a
batch of P points in min(usable CPUs, P // SPLIT_POINTS) contiguous chunks,
each but the first on its own thread, bit for bit as one chunk builds it,
and no thread outlives the call."""

import os
import sys
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


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


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


def _assert_same_bits(whole, split):
    for a, b in zip(whole, split, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


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
    # per step, the SVD runs on the zeroed rows and the band point, or on every point where a column is zero
    assert svd_points == ([4, 3] if name.endswith("(2,2)") else [80, 80])


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
def test_a_split_batch_is_the_one_chunk_build_bit_for_bit(shape, P, monkeypatch):
    vals = _kernel_input(SHAPES[shape], P)
    _cpus(monkeypatch, 1)
    whole = kernels.build_chain(vals)
    _cpus(monkeypatch, 4)  # 256 points make 4 chunks, more threads than this machine may have cores
    starts = _counted_starts(monkeypatch)
    split = kernels.build_chain(vals)
    assert len(starts) == min(4, P // kernels.SPLIT_POINTS) - 1
    assert not any(s.is_alive() for s in starts)
    _assert_same_bits(whole, split)


def test_without_an_affinity_mask_the_split_counts_all_cpus(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the split reads os.cpu_count()
    vals = _kernel_input(SHAPES["echelon"], 4 * kernels.SPLIT_POINTS)
    _cpus(monkeypatch, 1)
    whole = kernels.build_chain(vals)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    starts = _counted_starts(monkeypatch)
    split = kernels.build_chain(vals)
    assert len(starts) == 3 and not any(s.is_alive() for s in starts)
    _assert_same_bits(whole, split)


def test_many_chunks_under_rapid_switching_are_the_one_chunk_build(monkeypatch):
    vals = _kernel_input(SHAPES["echelon"], 10 * kernels.SPLIT_POINTS + 3, seed=1)
    _cpus(monkeypatch, 1)
    whole = kernels.build_chain(vals)
    _cpus(monkeypatch, 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = kernels.build_chain(vals)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_bits(whole, split)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_chunk_raises_only_after_every_join(failing, monkeypatch):
    vals = _kernel_input(SHAPES["dense"], 2 * kernels.SPLIT_POINTS)
    svd, calls = np.linalg.svd, []

    def failing_svd(mat, *args, **kwargs):
        calls.append(threading.current_thread())
        if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    _cpus(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        kernels.build_chain(vals)
    assert threading.active_count() == before
    assert len(set(calls)) == 2  # the second chunk ran on its own thread


def test_a_one_chunk_build_re_raises_its_chunks_exception_and_starts_no_thread(monkeypatch):
    # one chunk runs through the same build wrapper and raise loop as k chunks
    vals = _kernel_input(SHAPES["dense"], kernels.SPLIT_POINTS)
    error = np.linalg.LinAlgError("SVD did not converge")

    def failing_chunk(*chunk):
        raise error

    monkeypatch.setattr(kernels, "_build_chunk", failing_chunk)
    _cpus(monkeypatch, 4)
    starts = _counted_starts(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError) as info:
        kernels.build_chain(vals)
    assert info.value is error and starts == []


def test_an_r0_batch_builds_no_chain_and_starts_no_thread(monkeypatch):
    # r = 0 data has nothing to build, however many points the batch holds
    _cpus(monkeypatch, 4)
    starts = _counted_starts(monkeypatch)
    batch = chain_arrays(random_data(3, 0, 2), np.linspace(-1, 1, 4 * kernels.SPLIT_POINTS))
    assert starts == [] and batch.pis.shape == (4 * kernels.SPLIT_POINTS, 0, 3, 3)


def test_a_chunk_that_cannot_converge_raises_as_the_serial_build(monkeypatch):
    vals = _kernel_input(SHAPES["dense"], 2 * kernels.SPLIT_POINTS)
    vals[-1, 0, 0, 0, 0] = np.nan  # a point of the second chunk
    raised = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(np.linalg.LinAlgError) as info:
            kernels.build_chain(vals)
        raised.append(str(info.value))
    assert raised[0] == raised[1]


def test_every_chunk_runs_under_the_callers_errstate(monkeypatch):
    vals = _kernel_input(SHAPES["dense"], 2 * kernels.SPLIT_POINTS)
    vals[-1] *= 1e-300  # the last point's rank threshold underflows, in the second chunk
    _cpus(monkeypatch, 2)
    kernels.build_chain(vals)
    with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        kernels.build_chain(vals)


@pytest.mark.parametrize("cpus, sample_threads", [(2, 1), (1, 0)])
def test_thread_counts_of_verify_and_sample(cpus, sample_threads, tmp_path, monkeypatch):
    path = tmp_path / "data.json"
    serialize.write_json(serialize.data_to_json(SHAPES["echelon"]), path)
    _cpus(monkeypatch, cpus)
    starts = _counted_starts(monkeypatch)
    # verify's kernel calls hold 27 points at most (3 samples' 9-point stencils): too few to split
    assert cli.main(["verify", "--input", str(path), "--samples", "3", "--output", str(tmp_path / "rep.json")]) == 0
    assert starts == []
    # a 16 x 16 grid is one 256-point kernel call
    assert cli.main(["sample", "--input", str(path), "--grid", "16", "--output", str(tmp_path / "grid.json")]) == 0
    assert len(starts) == sample_threads
    assert not any(s.is_alive() for s in starts)
