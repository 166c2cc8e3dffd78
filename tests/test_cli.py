import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from unitons import BadShape, DegreeNoDrop, LoopPoly, random_data, s1_invariant_data, serialize, w_from_x, x_columns_from_data
from unitons import cli
from unitons.cli import main
from unitons.meromorphic import DataArray, MeroVector, RationalFn

from oracles import with_extra_column

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


@pytest.mark.parametrize("argv, modes", [
    (("--n", 4, "--r", 2, "--max-degree", -1), ("random", "echelon", "s1")),
    (("--n", 4, "--r", 3, "--rank-steps", "1,2"), ("echelon", "s1")),
], ids=["negative-max-degree", "rank-steps-not-r"])
def test_s1_generate_refuses_what_the_other_modes_refuse(tmp_path, capsys, argv, modes):
    # s1 mode takes r from the rank steps: a step list of another length, or a negative
    # degree (all-zero data), exits 2 with the message the other modes give, and writes nothing
    errors = []
    for mode in modes:
        out = tmp_path / f"{mode}.json"
        capsys.readouterr()
        assert run("generate", "--mode", mode, *argv, "--output", out) == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ") and set(errors) == {errors[0]}


def test_random_generate_refuses_rank_steps(tmp_path, capsys):
    # random mode draws dense data and once wrote the same bytes with or without the steps
    out = tmp_path / "random.json"
    assert run("generate", "--n", 4, "--r", 2, "--rank-steps", "1,1", "--output", out) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: --rank-steps applies to the echelon and s1 modes only\n"
    assert run("generate", "--n", 4, "--r", 2, "--output", out) == 0


def test_verify_r0_passes(tmp_path):
    data_file = tmp_path / "r0.json"
    run("generate", "--n", 3, "--r", 0, "--output", data_file)
    report_file = tmp_path / "rep.json"
    assert run("verify", "--input", data_file, "--samples", 2, "--output", report_file) == 0
    rep = json.loads(report_file.read_text())
    assert rep["passed"]
    harm = next(c for c in rep["checks"] if c["name"] == "harmonicity")
    assert harm["max_residual"] <= 1e-12


def test_factorize_and_grassmann_r0(tmp_path):
    # the trivial loop: W = H_+ is the zero subspace of C^0 and both chains are empty
    data_file, out = tmp_path / "r0.json", tmp_path / "out.json"
    run("generate", "--n", 3, "--r", 0, "--seed", 11, "--output", data_file)
    assert run("factorize", "--input", data_file, "--samples", 2, "--output", out) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["max_gap"] == 0.0 and len(rep["fibers"]) == 2
    for fib in rep["fibers"]:
        assert fib["iwasawa"] == fib["kernel"] == {"n": 3, "r": 0, "ranks": [], "projections": []}
    assert run("grassmann", "--input", data_file, "--samples", 2, "--output", out) == 0
    rep = json.loads(out.read_text())
    assert rep["adapted"] and rep["max_defect"] == 0.0


def test_factorize_rejects_a_non_identity_constant_loop(tmp_path, capsys):
    # degree 0 skips the reality condition, but T_0 must still be I
    loops = tmp_path / "loops.json"
    constant = np.diag([1.0, 1j])[None]
    serialize.write_json(serialize.loop_fibers_to_json(2, 0, [(0.1, LoopPoly(constant))]), loops)
    assert run("factorize", "--input", loops) == 4
    assert "not the identity" in capsys.readouterr().err


def test_verify_rejects_zero_columns(tmp_path):
    # with no column every uniton is the zero subspace and each residual vanishes
    data_file = tmp_path / "empty.json"
    data_file.write_text(json.dumps({"n": 3, "r": 2, "columns": []}))
    assert run("verify", "--input", data_file, "--samples", 2) == 2
    with pytest.raises(BadShape):
        serialize.data_from_json({"n": 3, "r": 2, "columns": []})


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


def test_one_parser_serves_every_call_without_carrying_state(tmp_path):
    # the parser is built once per process; a call must not see an earlier call's options
    from unitons import cli
    from unitons.verifier import verification_report

    data_file, a, b, c = (tmp_path / name for name in ("d.json", "a.json", "b.json", "c.json"))
    run("generate", "--n", 3, "--r", 1, "--seed", 1, "--output", data_file)
    assert run("verify", "--input", data_file, "--samples", 1, "--tol", "harmonicity=1e-30", "--output", a) == 4
    assert json.loads(a.read_text())["checks"][0]["tolerance"] == 1e-30
    assert run("verify", "--input", data_file, "--output", b) == 0
    data = serialize.data_from_json(json.loads(data_file.read_text()))
    assert json.loads(b.read_text()) == json.loads(serialize.dumps(verification_report(data, samples=10, seed=7)))
    assert run("sample", "--input", data_file, "--grid", 2, "--output", c) == 0
    assert len(json.loads(c.read_text())["records"]) == 4
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    args = vars(parser.parse_args(["sample", "--input", "x"]))
    assert args == {"command": "sample", "input": "x", "grid": 16, "rect": "-2,2,-2,2", "output": None,
                    "func": cli.cmd_sample}
    assert parser.parse_args(["verify", "--input", "x"]).tol is None


@pytest.mark.parametrize("data, ranks, proper, constant", [
    (DataArray(3, 2, ((MeroVector.zero(3), MeroVector.zero(3)),)), [0, 0], False, True),
    (random_data(5, 3, 3, sparsity_pattern=(1, 2, 2), seed=1), [1, 3, 5], False, False),
    (random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=3), [1, 2, 3], True, False),
    (random_data(3, 0, 3), [], False, True),  # the constant map: no uniton step, so none is proper
], ids=["zero-columns", "alpha3-full", "echelon", "r0"])
def test_verify_labels_the_rank_profile(tmp_path, data, ranks, proper, constant):
    # verdicts are unchanged; the report says which chains are improper or constant
    data_file, report_file = tmp_path / "d.json", tmp_path / "rep.json"
    serialize.write_json(serialize.data_to_json(data), data_file)
    assert run("verify", "--input", data_file, "--samples", 2, "--output", report_file) == 0
    rep = json.loads(report_file.read_text())
    assert rep["ranks"] == [ranks, ranks]
    assert rep["proper"] is proper and rep["constant"] is constant


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
    # numeric options must be finite (and tolerances positive) when parsed
    for tol in ("nan", "inf", "-inf", "0"):
        assert run("verify", "--input", data_file, "--tol", f"harmonicity={tol}") == 2
    for tol in ("nan", "inf", "-1", "0"):
        assert run("factorize", "--input", data_file, "--agree-tol", tol) == 2
    for rect in ("nan,1,0,1", "inf,1,0,1", "0,1,-inf,1", "0,1,0,nan"):
        assert run("sample", "--input", data_file, f"--rect={rect}") == 2


def test_bad_numeric_options_name_the_option_before_any_evaluation(tmp_path, capsys, monkeypatch):
    data_file = tmp_path / "d.json"
    run("generate", "--n", 3, "--r", 1, "--output", data_file)

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated with a bad option")

    monkeypatch.setattr(cli, "verification_report", no_evaluation)
    monkeypatch.setattr(cli, "chain_arrays", no_evaluation)
    monkeypatch.setattr(cli, "_draw", no_evaluation)
    monkeypatch.setattr(cli.serialize, "read_json", no_evaluation)
    for argv, option in [
        (("verify", "--tol", "harmonicity=nan"), "--tol harmonicity"),
        (("factorize", "--agree-tol", "nan"), "--agree-tol"),
        (("sample", "--rect=inf,1,0,1"), "--rect"),
    ]:
        capsys.readouterr()
        assert run(argv[0], "--input", data_file, *argv[1:]) == 2
        err = capsys.readouterr().err
        assert option in err and "Warning" not in err


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


@pytest.mark.parametrize("data, kept", [
    (random_data(3, 1, 3, seed=6), []),  # alpha_1 = C^3
    (s1_invariant_data(4, (1, 2, 2), 3, seed=1), [1, 3]),  # alpha_3 = C^4
], ids=["alpha1-full", "alpha3-full"])
def test_factorize_improper_chain_is_a_failed_check(tmp_path, capsys, data, kept):
    # a loop-fiber file is factored as given: its zero top coefficient is a failed check
    from unitons import HarmonicMapSampler, draw_sample_points

    s = HarmonicMapSampler(data)
    fibers = [(z, LoopPoly(s.extended_coeffs_at(z))) for z in draw_sample_points(data, 2, seed=7)]
    loop_file, data_file, out = tmp_path / "loops.json", tmp_path / "d.json", tmp_path / "fact.json"
    serialize.write_json(serialize.loop_fibers_to_json(data.n, data.r, fibers), loop_file)
    assert run("factorize", "--input", loop_file) == 4
    err = capsys.readouterr().err
    assert "kernel factorization of the fiber at z=(" in err
    assert "non-zero constant and top coefficients" in err
    # data drop the chain's full trailing steps, whose factors are I, and factor the rest
    serialize.write_json(serialize.data_to_json(data), data_file)
    assert run("factorize", "--input", data_file, "--samples", 2, "--output", out) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and all(f["iwasawa"]["ranks"] == f["kernel"]["ranks"] == kept for f in rep["fibers"])


@pytest.mark.parametrize("mode, n, steps", [("echelon", 5, "1,2,2"), ("s1", 4, "1,2,3")])
def test_factorize_drops_a_full_last_step_of_generated_data(tmp_path, mode, n, steps):
    # the last uniton step is C^n at every drawn point, so T_3 = 0: the chain's
    # first two steps factor the same loop
    from unitons.builder import chain_arrays, extended_coefficients, extended_product
    from unitons.grassmannian import loop_at

    data_file, out = tmp_path / "d.json", tmp_path / "fact.json"
    lams = np.exp(2j * np.pi * np.arange(8) / 8)[:, None, None]
    for seed in range(4):
        assert run("generate", "--mode", mode, "--n", n, "--r", 3, "--rank-steps", steps, "--seed", seed,
                   "--output", data_file) == 0
        assert run("factorize", "--input", data_file, "--samples", 5, "--output", out) == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] and rep["max_gap"] <= 1e-13
        data = serialize.data_from_json(serialize.read_json(data_file))
        batch = chain_arrays(data, [serialize.decode_complex(f["z"]) for f in rep["fibers"]])
        assert (batch.ranks[:, -1] == n).all()
        loops = extended_coefficients(batch.pis, batch.perps, n)  # all three steps
        for fib, loop in zip(rep["fibers"], loops, strict=True):
            assert fib["iwasawa"]["ranks"] == fib["kernel"]["ranks"] == [1, 3]
            pis, perps = serialize.chain_from_json(fib["iwasawa"])
            assert np.abs(extended_product(pis, perps, lams[..., None]) - loop_at(loop, lams)).max() <= 1e-13


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


def _loop_file(path, n, r, count, seed=9):
    """Loop fibers of a proper (n, r) echelon dataset at `count` sample points."""
    from unitons import HarmonicMapSampler, draw_sample_points

    data = random_data(n, r, 3, sparsity_pattern=(1,) * r, seed=8)
    s = HarmonicMapSampler(data)
    fibers = [(z, LoopPoly(s.extended_coeffs_at(z))) for z in draw_sample_points(data, count, seed=seed)]
    serialize.write_json(serialize.loop_fibers_to_json(n, r, fibers), path)
    return fibers


def test_factorize_reports_the_first_failing_fiber_in_file_order(tmp_path, capsys):
    # fiber 2 is improper (alpha_2 = C^3, so T_0 vanishes), fiber 3 is not real:
    # the whole file is factorized in one stacked pass, yet fiber 2 decides, as
    # it does when the fibers run one at a time
    from oracles import kernel_descent_per_fiber

    fibers = _loop_file(tmp_path / "good.json", 3, 2, 4)
    pi = np.diag([1.0, 0.0, 0.0]).astype(complex)
    fibers[1] = (fibers[1][0], LoopPoly(np.array([np.zeros((3, 3)), pi, np.eye(3) - pi])))
    non_real = fibers[2][1].coeffs.copy()
    non_real[0] += 0.1 * np.eye(3)
    fibers[2] = (fibers[2][0], LoopPoly(non_real))
    path = tmp_path / "loops.json"
    serialize.write_json(serialize.loop_fibers_to_json(3, 2, fibers), path)
    with pytest.raises(DegreeNoDrop) as first:
        kernel_descent_per_fiber(fibers[1][1].coeffs)
    assert run("factorize", "--input", path) == 4
    assert capsys.readouterr().err == (
        f"error: kernel factorization of the fiber at z={complex(fibers[1][0])} failed: {first.value}\n")
    assert "non-zero constant and top coefficients" in str(first.value)
    # with the two bad fibers swapped, the non-real one comes first and decides
    fibers[1], fibers[2] = fibers[2], fibers[1]
    serialize.write_json(serialize.loop_fibers_to_json(3, 2, fibers), path)
    assert run("factorize", "--input", path) == 4
    assert f"fiber at z={complex(fibers[1][0])} failed: reality condition" in capsys.readouterr().err


def test_factorize_runs_each_factorization_once_per_file(tmp_path, monkeypatch):
    # the SVD count of a factorize call depends on r, not on the number of fibers
    from collections import Counter

    from unitons import grassmannian

    calls, svd = Counter(), np.linalg.svd

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    for name in ("w_from_loop", "iwasawa_factorize", "kernel_factorize_fiber"):
        # cli imports them from the Grassmannian model inside the command
        monkeypatch.setattr(grassmannian, name, counted(name, getattr(grassmannian, name)))
    svds = {}
    for count in (12, 3):
        _loop_file(tmp_path / f"loops{count}.json", 4, 3, count)
        calls.clear()
        assert run("factorize", "--input", tmp_path / f"loops{count}.json", "--output", tmp_path / "out.json") == 0
        assert calls["w_from_loop"] == calls["iwasawa_factorize"] == calls["kernel_factorize_fiber"] == 1
        assert len(json.loads((tmp_path / "out.json").read_text())["fibers"]) == count
        svds[count] = calls["svd"]
    assert svds[12] == svds[3] >= 1


def test_verify_builds_one_table_and_chains_on_the_live_columns(tmp_path, monkeypatch):
    # echelon (5, 4, (1, 1, 1, 1)) data has one live column of five
    from collections import Counter

    from unitons import builder, kernels

    calls, widths, inside, build_chain = Counter(), [], [], kernels.build_chain

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls[name, "kernel" if inside else "static"] += 1
            return call(*args, **kwargs)
        return wrapper

    def recorded_build(hvals):
        widths.append(hvals.shape[3])
        inside.append(True)
        try:
            return build_chain(hvals)
        finally:
            inside.pop()

    data_file = tmp_path / "d.json"
    run("generate", "--n", 5, "--r", 4, "--mode", "echelon", "--rank-steps", "1,1,1,1", "--seed", 0,
        "--output", data_file)
    for name in ("svd", "qr"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(kernels, "build_chain", recorded_build)
    builder._tables.cache_clear()
    assert run("verify", "--input", data_file, "--samples", 2, "--output", tmp_path / "rep.json") == 0
    assert builder._tables.cache_info().misses == 1
    assert widths == [1]
    # one certified QR per chain step, no kernel SVD at the drawn generic points, two SVDs in the static checks
    assert calls == {("qr", "kernel"): 4, ("svd", "static"): 2}


@pytest.mark.parametrize("mutate", [
    lambda obj: dict(obj, r=obj["r"] + 1),
    lambda obj: dict(obj, n=obj["n"] + 1),
    lambda obj: dict(obj, fibers=[obj["fibers"][0], dict(obj["fibers"][1], coeffs=obj["fibers"][1]["coeffs"][:-1])]),
], ids=["header-r", "header-n", "short-fiber"])
def test_loop_fibers_must_match_the_file_shape(tmp_path, capsys, mutate):
    # the fibers are one (P, r+1, n, n) stack: a fiber of another shape is malformed input
    path = tmp_path / "loops.json"
    _loop_file(path, 3, 2, 2)
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    assert run("factorize", "--input", path) == 2
    assert capsys.readouterr().err.startswith("error: every loop fiber must hold r + 1 = ")


def test_factorize_an_empty_loop_file(tmp_path):
    # no fiber is no evidence: like --samples 0, the file exits 2 instead of passing vacuously
    path, out = tmp_path / "loops.json", tmp_path / "out.json"
    serialize.write_json(serialize.loop_fibers_to_json(3, 2, []), path)
    assert run("factorize", "--input", path, "--output", out) == 2
    assert not out.exists()


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


@pytest.mark.parametrize("argv, q_span", [
    (("--n", 4, "--r", 3, "--mode", "s1", "--rank-steps", "1,1,1"), False),
    (("--n", 4, "--r", 3, "--mode", "s1", "--rank-steps", "1,1,1"), True),
    (("--n", 3, "--r", 0, "--seed", 11), False),
], ids=["s1", "s1-q-span", "r0"])
def test_grassmann_svd_count_does_not_grow_with_samples(tmp_path, monkeypatch, argv, q_span):
    # one nu_Q-invariance check on the whole W stack: the SVD count is fixed
    data_file, out = tmp_path / "d.json", tmp_path / "g.json"
    run("generate", *argv, "--output", data_file)
    extra = ()
    if q_span:
        a_file = tmp_path / "span.json"
        a_file.write_text(json.dumps([[[1, 0], [0, 0], [0, 0], [0, 0]]]))
        extra = ("--q-span", a_file)
    svd, calls = np.linalg.svd, []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    counts = []
    for samples in (2, 8):
        calls.clear()
        assert run("grassmann", "--input", data_file, "--samples", samples, *extra, "--output", out) == 0
        assert len(json.loads(out.read_text())["defects"]) == samples
        counts.append(len(calls))
    assert counts[0] == counts[1]


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


def test_sample_grid_maps_the_pole_cell(tmp_path):
    # 4 x 4 cell centres over [-2, 2]^2 are +-0.5, +-1.5; the pole sits on 0.5 + 0.5i.
    # The column (1/(z - p), z, 1) has the map of its cleared form (1, z (z - p), z - p),
    # the pole cell included
    p = 0.5 + 0.5j
    rational = DataArray(3, 1, ((MeroVector((RationalFn((1,), (-p, 1)), P([0, 1]), P([1]))),),))
    cleared = DataArray(3, 1, ((MeroVector((P([1]), P([0, -p, 1]), P([-p, 1]))),),))
    grids = []
    for name, data in (("pole", rational), ("cleared", cleared)):
        data_file, out = tmp_path / f"{name}.json", tmp_path / f"{name}-grid.json"
        serialize.write_json(serialize.data_to_json(data), data_file)
        assert run("sample", "--input", data_file, "--grid", 4, "--rect=-2,2,-2,2", "--output", out) == 0
        grids.append(json.loads(out.read_text())["records"])
    assert len(grids[0]) == 16
    for idx, (rec, ref) in enumerate(zip(*grids)):
        iy, ix = divmod(idx, 4)
        assert rec["z"] == ref["z"] == [-1.5 + ix, -1.5 + iy]
        m, want = serialize.matrix_from_json(rec["phi"]), serialize.matrix_from_json(ref["phi"])
        assert np.abs(m @ m.conj().T - np.eye(3)).max() <= 1e-12
        assert np.abs(m - want).max() <= 1e-12


def _pole_data():
    # echelon data plus a column with a pole at 1 + 1i, the centre of cell (3, 3) of a 5 x 5 grid on [-2.5, 2.5]^2
    pole_col = (MeroVector((RationalFn((1,), (-(1 + 1j), 1)), P([0, 1]), P([1]), P([2j]))), MeroVector.zero(4))
    return with_extra_column(random_data(4, 2, 2, sparsity_pattern=(1, 1), seed=4), pole_col)


def test_sample_blocks_match_per_point_chains(tmp_path, monkeypatch):
    from unitons import cli
    from unitons.builder import chain_arrays, extended_product

    data = _pole_data()
    data_file, out = tmp_path / "d.json", tmp_path / "grid.json"
    serialize.write_json(serialize.data_to_json(data), data_file)
    monkeypatch.setattr(cli, "SAMPLE_BLOCK", 10)  # 2 rows per call: blocks of 10, 10 and 5 points
    assert run("sample", "--input", data_file, "--grid", 5, "--rect=-2.5,2.5,-2.5,2.5", "--output", out) == 0
    expected = []
    for iy in range(5):
        for ix in range(5):
            z = complex(-2.5 + 5.0 * (ix + 0.5) / 5, -2.5 + 5.0 * (iy + 0.5) / 5)
            b = chain_arrays(data, [z])
            phi = extended_product(b.pis[0], b.perps[0], -1)
            bad = bool(b.ambiguous[0])
            expected.append({"z": serialize.encode_complex(z), "phi": None if bad else serialize.matrix_to_json(phi)})
    records = json.loads(out.read_text())["records"]
    # cell 18, centred on the pole, holds the map of the cleared column
    assert records[18]["phi"] is not None and all(rec["phi"] is not None for rec in records)
    assert serialize.dumps(records) == serialize.dumps(expected)


def test_sample_makes_one_kernel_call_per_block_of_rows(tmp_path, monkeypatch):
    from unitons import cli, kernels

    assert [cli._rows_per_block(m) for m in (1, 7, 16, 40, 128, 256, 257, 1000)] == [256, 36, 16, 6, 2, 1, 1, 1]
    data_file = tmp_path / "d.json"
    serialize.write_json(serialize.data_to_json(_pole_data()), data_file)
    sizes = []
    build_chain = kernels.build_chain
    monkeypatch.setattr(kernels, "build_chain", lambda hvals: sizes.append(len(hvals)) or build_chain(hvals))

    def calls(grid):
        sizes.clear()
        assert run("sample", "--input", data_file, "--grid", grid, "--output", tmp_path / "g.json") == 0
        assert sum(sizes) == grid * grid
        return sizes[:]

    assert calls(16) == [256]  # the default grid is one call
    assert calls(40) == [240] * 6 + [160]  # ceil(40 / 6) calls of whole rows
    monkeypatch.setattr(cli, "SAMPLE_BLOCK", 4)  # a grid wider than the block keeps one row per call
    assert calls(5) == [5] * 5


def test_sample_file_is_the_tolist_encoding_byte_for_byte(tmp_path, monkeypatch):
    from oracles import sample_records_tolist

    data_file, out, ref = tmp_path / "d.json", tmp_path / "grid.json", tmp_path / "ref.json"
    serialize.write_json(serialize.data_to_json(_pole_data()), data_file)
    argv = ["sample", "--input", data_file, "--grid", 5, "--rect=-2.5,2.5,-0.0,2.5"]
    assert run(*argv, "--output", out) == 0
    monkeypatch.setattr(cli, "_sample_records", sample_records_tolist)
    assert run(*argv, "--output", ref) == 0
    assert out.read_bytes() == ref.read_bytes()
    assert '"rect":[-2.5,2.5,-0.0,2.5]' in out.read_text()


@pytest.mark.parametrize("grid, block, rect", [
    (20, 256, (-1.5, 0.0, -0.0, 0.7)),   # 400 points: blocks of 12 and 8 rows
    (12, 8, (0.0, -0.0, -3.0, 1e-300)),  # a grid wider than the block: one row per call, a zero-width rect
    (7, 256, (-0.0, -0.0, -0.0, -0.0)),  # every bound a negative zero
], ids=["blocks-of-rows", "row-per-call", "negative-zeros"])
def test_sample_record_z_is_the_grid_formula_bit_for_bit(tmp_path, monkeypatch, grid, block, rect):
    data_file, out = tmp_path / "d.json", tmp_path / "grid.json"
    serialize.write_json(serialize.data_to_json(random_data(3, 2, 2, sparsity_pattern=(1, 1), seed=4)), data_file)
    monkeypatch.setattr(cli, "SAMPLE_BLOCK", block)
    x0, x1, y0, y1 = rect
    assert run("sample", "--input", data_file, "--grid", grid, f"--rect={x0!r},{x1!r},{y0!r},{y1!r}",
               "--output", out) == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == grid * grid
    for idx, rec in enumerate(records):
        iy, ix = divmod(idx, grid)
        z = complex(x0 + (x1 - x0) * (ix + 0.5) / grid, y0 + (y1 - y0) * (iy + 0.5) / grid)
        assert [part.hex() for part in rec["z"]] == [z.real.hex(), z.imag.hex()]


def test_sample_far_out_rect_nulls_every_cell_without_warning(tmp_path, capsys):
    # at |z| ~ 1e200 the degree-3 table overflows: the points are flagged, not fed to LAPACK as inf
    data_file, out = tmp_path / "d.json", tmp_path / "grid.json"
    run("generate", "--n", 4, "--r", 3, "--mode", "echelon", "--rank-steps", "1,1,1", "--seed", 2,
        "--output", data_file)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("sample", "--input", data_file, "--grid", 2, "--rect=1e200,2e200,0,1", "--output", out) == 0
    assert capsys.readouterr().err == ""
    records = json.loads(out.read_text())["records"]
    assert len(records) == 4 and all(rec["phi"] is None for rec in records)


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


def _set(path, value):
    def mutate(obj):
        owner = obj
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        return obj
    return mutate


@pytest.mark.parametrize("command, mutate", [
    ("verify", _set(("columns", 0, 0, 0, "num"), [[None, 0]])),
    ("verify", _set(("columns",), 5)),
    ("verify", _set(("columns",), [5])),
    ("verify", _set(("columns", 0, 0, 0), [[1.0, 0.0]])),
    ("verify", _set(("n",), None)),
    ("verify", lambda obj: [obj]),
    ("verify", _set(("columns", 0, 0, 0, "den", 0), [True, False])),
    ("verify", _set(("columns", 0, 0, 0, "den", 0), ["1", "0"])),
    ("factorize", _set(("fibers", 0, "coeffs", 0, "data", 0, 0), None)),
    ("factorize", lambda obj: 5),
    ("factorize", _set(("fibers", 0, "coeffs", 0, "data", 0), [True, 0.0])),
    ("factorize", _set(("fibers", 0, "coeffs", 0, "data", 0), ["1", 0.0])),
    ("factorize", _set(("fibers", 0, "z"), [0.5, "0"])),
], ids=["null-coefficient", "columns-number", "column-number", "entry-list", "n-null", "top-level-array",
        "bool-coefficient", "string-coefficient", "loop-null-entry", "loop-top-level-number", "loop-bool-entry",
        "loop-string-entry", "loop-string-z"])
def test_malformed_json_exits_2(tmp_path, capsys, command, mutate):
    # wrong JSON types are parse errors: exit 2 with one message, no traceback
    data = random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=2)
    obj = serialize.data_to_json(data)
    if command == "factorize":
        from unitons import HarmonicMapSampler, LoopPoly, draw_sample_points

        s = HarmonicMapSampler(data)
        obj = serialize.loop_fibers_to_json(3, 2, [(z, LoopPoly(s.extended_coeffs_at(z)))
                                                   for z in draw_sample_points(data, 2, seed=9)])
        # matrix data are numpy rows, which only serialize's writer encodes: mutate the plain JSON
        obj = json.loads(serialize.dumps(obj))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(obj)))
    assert run(command, "--input", bad, "--samples", 1) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, key", [("verify", "columns"), ("factorize", "coeffs")])
def test_a_missing_key_exits_2_and_names_it(tmp_path, capsys, command, key):
    obj = {"n": 3, "r": 1} if command == "verify" else {"n": 3, "r": 1, "fibers": [{"z": [0.0, 0.0]}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(command, "--input", bad) == 2
    assert capsys.readouterr().err == f"error: malformed JSON: missing key '{key}'\n"


@pytest.mark.parametrize("q_span", [
    None,
    5,
    [[[1, 0], [0, 0]]],
    [],
    [[[1, 0], [0, 0], [0, 0]], [[1, 0]]],
    [[[float("nan"), 0], [0, 0], [0, 0]]],
    [[[1, 0], [float("inf"), 0], [0, 0]]],
    [[[True, 0], [0, 0], [0, 0]]],
    [[["1", "0"], [0, 0], [0, 0]]],
], ids=["null", "number", "short-vector", "empty", "ragged", "nan", "inf", "bool", "numeric-string"])
def test_malformed_q_span_exits_2(tmp_path, capsys, q_span):
    # the q-span file is parsed before any sample point: exit 2 with one message
    data_file, q_file = tmp_path / "d.json", tmp_path / "q.json"
    serialize.write_json(serialize.data_to_json(random_data(3, 1, 3, sparsity_pattern=(1,), seed=2)), data_file)
    q_file.write_text(json.dumps(q_span))
    assert run("grassmann", "--input", data_file, "--samples", 1, "--q-span", q_file) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(BadShape):
        serialize.vectors_from_json(q_span, 3)


def test_steep_denominator_is_cleared_not_squared(tmp_path):
    # 1 + 1e100 z decodes; the column's normal form multiplies it out (the
    # entry's quotient is 1e-100), so no derivative squares it: the data
    # verifies with no overflow or warning, and W keeps the plain data's dimension
    plain = random_data(4, 3, 2, sparsity_pattern=(1, 1, 1), seed=1)
    obj = serialize.data_to_json(plain)
    obj["columns"][0][0][0]["den"] = [[1.0, 0.0], [1e100, 0.0]]
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", "--input", steep, "--samples", 1) == 0
        w = w_from_x(x_columns_from_data(serialize.data_from_json(obj)), 0.3)
    assert np.isfinite(w.basis).all() and w.dim == w_from_x(x_columns_from_data(plain), 0.3).dim


def test_matrix_and_chain_serialization_round_trip():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    again = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert np.array_equal(again, m)

    q, _ = np.linalg.qr(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
    pi = q @ q.conj().T
    obj = serialize.chain_to_json(pi[None])
    back_pis, _ = serialize.chain_from_json(obj)
    assert np.abs(back_pis[0] - pi).max() <= 1e-15
    assert obj["ranks"] == [1]


PUBLIC_NAMES = """
    BACKEND BadShape DataArray DegeneratePoint DegreeNoDrop HarmonicMapSampler LoopPoly MeroVector
    NoTermination NotLambdaInvariant QInvolution RationalFn Span UnitonsError WSubspace alpha1_is_full
    binomial_transform build_fiber connection_form differentiate draw_sample_points eval_rational
    evaluate_map extended_checks extended_coefficients harmonicity_residual image_span iwasawa_factorize
    kernel_factorize_fiber normalize_type_one orthonormal_basis principal_angles projection_pair
    q_adapted_check random_data s1_invariant_data section_identities verification_report w_from_loop
    w_from_x x_columns_from_data
""".split()

_START_UP = """
import json, sys

def fresh():  # every unitons module dropped, as in a new process; numpy stays loaded
    for name in [m for m in sys.modules if m.split(".")[0] == "unitons"]:
        del sys.modules[name]

out = {}
for name, argv in json.loads(sys.argv[1]).items():
    fresh()
    from unitons.cli import main
    out[name] = [main(argv), "unitons.grassmannian" in sys.modules]
fresh()
import unitons
out["bare"] = sorted(m for m in sys.modules if m.startswith("unitons."))
out["loop"] = unitons.LoopPoly.__module__
out["dir"] = dir(unitons)
print(json.dumps(out))
"""


def test_only_factorize_and_grassmann_load_the_grassmannian_model(tmp_path):
    # the paper's maps come from projections alone: generate, sample and verify never
    # compile the Grassmannian model, and a bare import loads no submodule
    data = tmp_path / "data.json"
    serialize.write_json(serialize.data_to_json(random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=0)), data)
    out = [f"--output={tmp_path / name}.out" for name in ("generate", "sample", "verify", "factorize", "grassmann")]
    commands = {
        "generate": ["generate", "--n", "3", "--r", "2", out[0]],
        "sample": ["sample", "--input", str(data), "--grid", "2", out[1]],
        "verify": ["verify", "--input", str(data), "--samples", "1", out[2]],
        "factorize": ["factorize", "--input", str(data), "--samples", "1", out[3]],
        "grassmann": ["grassmann", "--input", str(data), "--samples", "1", out[4]],
    }
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _START_UP, json.dumps(commands)], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert {name: got[name] for name in commands} == {
        "generate": [0, False], "sample": [0, False], "verify": [0, False], "factorize": [0, True], "grassmann": [0, True]}
    assert got["bare"] == [] and got["loop"] == "unitons.grassmannian"
    assert set(PUBLIC_NAMES) <= set(got["dir"]) and len(PUBLIC_NAMES) == 41


def test_every_public_name_resolves_to_its_module_object():
    import importlib

    import unitons

    assert unitons.__all__ == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(unitons, name) is getattr(importlib.import_module(f"unitons.{unitons._EXPORTS[name]}"), name)
    with pytest.raises(AttributeError):
        unitons.reality_defect  # not exported: builder.reality_defect
