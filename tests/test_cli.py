import json

import numpy as np
import pytest

from unitons import BadShape, serialize
from unitons.cli import main
from unitons.meromorphic import DataArray, MeroVector, RationalFn

P = RationalFn.polynomial


def run(*argv):
    return main([str(a) for a in argv])


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("generate", "--n", 3, "--r", 2, "--seed", 1, "--output", a) == 0
    assert run("generate", "--n", 3, "--r", 2, "--seed", 1, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run("generate", "--n", 3, "--r", 2, "--seed", 2, "--output", c) == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_read_back_equal(tmp_path):
    out = tmp_path / "d.json"
    run("generate", "--n", 4, "--r", 3, "--mode", "echelon", "--rank-steps", "1,1,2",
        "--seed", 5, "--output", out)
    data = serialize.data_from_json(json.loads(out.read_text()))
    assert data.n == 4 and data.r == 3
    # round trip through the canonical writer is byte-exact
    again = tmp_path / "again.json"
    serialize.write_json(serialize.data_to_json(data), again)
    assert again.read_bytes() == out.read_bytes()


def test_verify_r0_passes(tmp_path):
    data_file = tmp_path / "r0.json"
    run("generate", "--n", 3, "--r", 0, "--output", data_file)
    report_file = tmp_path / "rep.json"
    assert run("verify", "--input", data_file, "--samples", 2, "--output", report_file) == 0
    rep = json.loads(report_file.read_text())
    assert rep["passed"]
    harm = next(c for c in rep["checks"] if c["name"] == "harmonicity")
    assert harm["max_residual"] <= 1e-12


def test_verify_end_to_end(tmp_path):
    data_file = tmp_path / "d.json"
    run("generate", "--n", 4, "--r", 3, "--mode", "echelon", "--rank-steps", "1,1,1",
        "--seed", 3, "--output", data_file)
    report_file = tmp_path / "rep.json"
    assert run("verify", "--input", data_file, "--samples", 2, "--output", report_file) == 0
    rep = json.loads(report_file.read_text())
    assert rep["passed"] and all(c["pass"] for c in rep["checks"])


def test_verify_failure_exit_code(tmp_path):
    data_file = tmp_path / "d.json"
    run("generate", "--n", 3, "--r", 1, "--seed", 1, "--output", data_file)
    assert run("verify", "--input", data_file, "--samples", 1, "--tol", "harmonicity=1e-30") == 4


def test_parse_error_exit_codes(tmp_path):
    assert run("verify", "--input", tmp_path / "missing.json") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("verify", "--input", bad) == 2
    data_file = tmp_path / "d.json"
    run("generate", "--n", 3, "--r", 1, "--output", data_file)
    assert run("verify", "--input", data_file, "--tol", "harmonicity") == 2
    assert run("verify", "--input", data_file, "--tol", "harmonicity=-1") == 2
    assert run("verify", "--input", data_file, "--samples", 0) == 2
    assert run("sample", "--input", data_file, "--grid", 0) == 2


def test_degenerate_exhaustion_exit_code(tmp_path):
    # every sample point in the disc sits in the rank-ambiguity band
    col_a = (MeroVector((P([1]), P([0]))),)
    col_b = (MeroVector((P([1]), P([0, 5e-9]))),)
    data = DataArray(2, 1, (col_a, col_b))
    data_file = tmp_path / "deg.json"
    serialize.write_json(serialize.data_to_json(data), data_file)
    assert run("verify", "--input", data_file, "--samples", 1, "--seed", 1) == 3


def test_factorize_from_data(tmp_path):
    data_file = tmp_path / "d.json"
    run("generate", "--n", 4, "--r", 3, "--mode", "echelon", "--rank-steps", "1,1,1",
        "--seed", 7, "--output", data_file)
    out = tmp_path / "fact.json"
    assert run("factorize", "--input", data_file, "--samples", 3, "--output", out) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["alpha1_full"] is True
    assert rep["max_gap"] <= 1e-7
    fib = rep["fibers"][0]
    assert fib["iwasawa"]["ranks"] == fib["kernel"]["ranks"] == [1, 2, 3]


def test_factorize_from_loop_fibers(tmp_path):
    from unitons import HarmonicMapSampler, LoopPoly, draw_sample_points, random_data

    data = random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=8)
    s = HarmonicMapSampler(data)
    pts = draw_sample_points(data, 2, seed=9)
    fibers = [(z, LoopPoly(s.extended_coeffs_at(z))) for z in pts]
    loop_file = tmp_path / "loops.json"
    serialize.write_json(serialize.loop_fibers_to_json(3, 2, fibers), loop_file)
    out = tmp_path / "fact.json"
    assert run("factorize", "--input", loop_file, "--output", out) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["alpha1_full"] is None


def test_grassmann_s1_versus_generic(tmp_path):
    s1_file = tmp_path / "s1.json"
    run("generate", "--n", 4, "--r", 3, "--mode", "s1", "--rank-steps", "1,1,1",
        "--seed", 2, "--output", s1_file)
    out = tmp_path / "g.json"
    assert run("grassmann", "--input", s1_file, "--samples", 3, "--output", out) == 0
    rep = json.loads(out.read_text())
    assert rep["adapted"] and rep["max_defect"] <= 1e-7

    gen_file = tmp_path / "gen.json"
    run("generate", "--n", 4, "--r", 3, "--mode", "echelon", "--rank-steps", "1,1,1",
        "--seed", 2, "--output", gen_file)
    assert run("grassmann", "--input", gen_file, "--samples", 2, "--output", out) == 0
    rep = json.loads(out.read_text())
    assert not rep["adapted"] and rep["max_defect"] > 1e-2


def test_grassmann_with_q_span_file(tmp_path):
    # r=2 block construction: L0,L12 in A; L02,L11 in A_perp (adapted for that A)
    n = 4
    a_file = tmp_path / "span.json"
    a_file.write_text(json.dumps([[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]]]))
    rng = np.random.default_rng(3)

    def vec(mask):
        return MeroVector(tuple(
            P(list(map(complex, rng.integers(-3, 4, size=2)))) if m else P([0]) for m in mask
        ))

    h0 = (vec([1, 1, 0, 0]), vec([0, 0, 1, 1]))
    h1 = (vec([0, 0, 1, 1]), vec([1, 1, 0, 0]))
    data = DataArray(4, 2, ((h0[0], h1[0]), (h0[1], h1[1])))
    data_file = tmp_path / "d.json"
    serialize.write_json(serialize.data_to_json(data), data_file)
    out = tmp_path / "g.json"
    assert run("grassmann", "--input", data_file, "--samples", 2, "--q-span", a_file,
               "--output", out) == 0
    rep = json.loads(out.read_text())
    assert rep["q_rank"] == 2
    assert rep["adapted"] and rep["max_defect"] <= 1e-7


def test_sample_grid(tmp_path):
    data_file = tmp_path / "d.json"
    run("generate", "--n", 3, "--r", 2, "--mode", "echelon", "--rank-steps", "1,1",
        "--seed", 4, "--output", data_file)
    out = tmp_path / "grid.json"
    assert run("sample", "--input", data_file, "--grid", 5, "--rect=-1,1,-1,1",
               "--output", out) == 0
    rep = json.loads(out.read_text())
    assert len(rep["records"]) == 25
    good = [r for r in rep["records"] if r["phi"] is not None]
    assert good
    m = serialize.matrix_from_json(good[0]["phi"])
    assert np.abs(m @ m.conj().T - np.eye(3)).max() <= 1e-9


def test_sample_grid_nulls_only_the_pole_cell(tmp_path):
    # 4 x 4 cell centres over [-2, 2]^2 are +-0.5, +-1.5; the pole sits on 0.5 + 0.5i
    pole_fn = RationalFn((1,), (-(0.5 + 0.5j), 1))
    data = DataArray(3, 1, ((MeroVector((pole_fn, P([0, 1]), P([1]))),),))
    data_file = tmp_path / "pole.json"
    serialize.write_json(serialize.data_to_json(data), data_file)
    out = tmp_path / "grid.json"
    assert run("sample", "--input", data_file, "--grid", 4, "--rect=-2,2,-2,2", "--output", out) == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == 16
    for idx, rec in enumerate(records):
        iy, ix = divmod(idx, 4)
        assert rec["z"] == [-1.5 + ix, -1.5 + iy]
        if (ix, iy) == (2, 2):
            assert rec["phi"] is None
            continue
        m = serialize.matrix_from_json(rec["phi"])
        assert np.abs(m @ m.conj().T - np.eye(3)).max() <= 1e-12


def test_bad_coefficients_rejected_at_parse_time(tmp_path):
    data_file = tmp_path / "d.json"
    run("generate", "--n", 3, "--r", 2, "--mode", "echelon", "--rank-steps", "1,1",
        "--seed", 2, "--output", data_file)
    obj = json.loads(data_file.read_text())
    for value in (float("nan"), float("inf"), -float("inf"), 1e308):
        obj["columns"][0][0][0]["num"][0] = [1.0, value]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run("verify", "--input", bad, "--samples", 1) == 2
        with pytest.raises(BadShape):
            serialize.data_from_json(json.loads(bad.read_text()))
    with pytest.raises(BadShape):
        serialize.decode_complex([float("nan"), 0.0])


def test_matrix_and_chain_serialization_round_trip():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    again = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert np.array_equal(again, m)
    from unitons import ProjChain

    q, _ = np.linalg.qr(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
    pi = q @ q.conj().T
    chain = ProjChain([(pi, np.eye(3) - pi)])
    obj = serialize.chain_to_json(chain, 3, 1)
    back = serialize.chain_from_json(obj)
    assert np.abs(back.pis[0] - pi).max() <= 1e-15
    assert obj["ranks"] == [1]
