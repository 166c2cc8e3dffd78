"""Every data column enters the numerics as its polynomial normal form, so a
scalar multiplier of a column, rational or constant, moves neither the map,
verify's verdict nor the model's W: they see only the spans of the columns
and their derivatives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from unitons import (
    DataArray,
    HarmonicMapSampler,
    LoopPoly,
    MeroVector,
    RationalFn,
    draw_sample_points,
    random_data,
    serialize,
    w_from_loop,
    w_from_x,
    x_columns_from_data,
)
from unitons.builder import _tables, chain_arrays, extended_product
from unitons.cli import main
from unitons.projections import projector_gap
from unitons.verifier import verification_report

A = 0.3 + 0.2j  # the pole of the rational multipliers
CRITERION_2 = [(n, r, pattern, seed) for seed in range(4)
               for n, r, pattern in ((3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2)))]


def _times_column_0(data, entry):
    """The data with every entry f of column 0 (row m, component c) replaced by entry(f, m, c)."""
    col = tuple(MeroVector(tuple(entry(f, m, c) for c, f in enumerate(vec.entries)))
                for m, vec in enumerate(data.columns[0]))
    return DataArray(data.n, data.r, (col,) + data.columns[1:])


def _disc(count, seed):
    rng = np.random.default_rng(seed)
    return 2.0 * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


def _maps(data, zs):
    batch = chain_arrays(data, zs)
    return batch, extended_product(batch.pis, batch.perps, -1)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_a_simple_pole_flags_no_point_and_keeps_the_map(n):
    # column 0 times 1/(z - a): a quotient-rule table squares this denominator at every
    # derivative order, and at n = 8 flags 36% of the disc as poles and gets maps wrong by 0.9
    plain = random_data(n, n - 1, 2, sparsity_pattern=(1,) * (n - 1), seed=0)
    rational = _times_column_0(plain, lambda f, m, c: RationalFn(f.num, (-A, 1)))
    zs = _disc(2000, 1)
    (got, phi), (want, phi_ref) = _maps(rational, zs), _maps(plain, zs)
    assert not got.ambiguous.any() and not want.ambiguous.any()
    assert np.array_equal(got.ranks, want.ranks)
    assert np.abs(phi - phi_ref).max() <= 1e-10


def _w(xcols, z):
    w = w_from_x(xcols, z)
    return w.basis @ w.basis.conj().T


def _verdict(data):
    return verification_report(data, samples=3, seed=5)["passed"]


@pytest.mark.parametrize("case", CRITERION_2, ids=lambda c: f"{c[0]}-{c[1]}-{'-'.join(map(str, c[2]))}-s{c[3]}")
def test_verdict_does_not_depend_on_a_column_scale(case):
    # a constant column scale moves no span, so neither the verdict nor the model's W; verdicts
    # read on the data's own scale change on 41 (1e-8), 119 (1e4) and 199 (1e8) of 200 such datasets
    n, r, pattern, seed = case
    data = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
    verdict, zs = _verdict(data), draw_sample_points(data, 3, seed=5)
    w = [_w(x_columns_from_data(data), z) for z in zs]
    for scale in (1e-8, 1e4, 1e8):
        scaled = _times_column_0(data, lambda f, m, c: RationalFn(tuple(scale * c for c in f.num), f.den))
        assert _verdict(scaled) == verdict, scale
        xcols = x_columns_from_data(scaled)
        for z, want in zip(zs, w):
            assert projector_gap(_w(xcols, z), want) <= 1e-12, (scale, z)


NEAR_POLE = [(3, 2, (1, 1)), (4, 2, (1, 2)), (5, 2, (2, 2))]


@pytest.mark.parametrize("shape", NEAR_POLE, ids=lambda s: f"{s[0]}-{s[1]}-{'-'.join(map(str, s[2]))}")
def test_w_from_x_next_to_a_pole_of_every_row_is_the_loops(shape):
    # row m of column 0 over (z - a)^(m+1): summing the rows' quotients with multiplied
    # denominators gave X a spurious common factor, and at 1e-3 from a, 80 of these 120
    # points raised NotLambdaInvariant or missed the loop's W by more than 1e-8
    n, r, pattern = shape
    for seed in range(8):
        data = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
        data = _times_column_0(data, lambda f, m, c: RationalFn(f.num, tuple(npoly.polyfromroots([A] * (m + 1)))))
        xcols = x_columns_from_data(data)
        # X's table is the Pascal product of the data's, so it has its shape
        assert xcols.shape == _tables(n, r, data.columns).shape
        sampler = HarmonicMapSampler(data)
        for k in range(5):
            z = A + 1e-3 * np.exp(2j * np.pi * (k + 0.5) / 5)
            w = w_from_loop(LoopPoly(sampler.extended_coeffs_at(z))).basis
            assert projector_gap(_w(xcols, z), w @ w.conj().T) <= 1e-8, (seed, k)


def test_a_root_shared_by_two_denominators_enters_the_lcm_once():
    # column 0 over z - a and over (z - a)(z - b) in turn: the product's extra z - a divides out,
    # so the column is cleared by (z - a)(z - b), not (z - a)^2 (z - b)
    b = -0.7 + 0.5j
    both = tuple(npoly.polyfromroots([A, b]))
    plain = random_data(4, 3, 2, sparsity_pattern=(1, 1, 1), seed=0)
    rational = _times_column_0(plain, lambda f, m, c: RationalFn(f.num, (-A, 1) if (m + c) % 2 else both))
    cleared = _times_column_0(plain, lambda f, m, c: RationalFn(tuple(npoly.polymul(f.num, (-b, 1))) if (m + c) % 2 else f.num))
    zs = [A, b, A + 1e-9, b - 1e-9j, A + 1e-3j, b + 1e-3, 0.1 - 0.4j]
    (got, phi), (want, phi_ref) = _maps(rational, zs), _maps(cleared, zs)
    assert not got.ambiguous.any()
    assert got.ranks.tolist() == want.ranks.tolist() == [[1, 2, 3]] * len(zs)
    assert np.abs(phi - phi_ref).max() <= 1e-10


def test_sample_box_around_a_double_pole_has_no_null_cell(tmp_path):
    # a pole test on the data's own denominators nulls all 101 x 101 cells, out to 0.14 from the pole
    plain = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0)
    rational = _times_column_0(plain, lambda f, m, c: RationalFn(f.num, tuple(npoly.polyfromroots([A, A]))))
    data_file, out = tmp_path / "double-pole.json", tmp_path / "grid.json"
    serialize.write_json(serialize.data_to_json(rational), data_file)
    rect = f"--rect={A.real - 0.1},{A.real + 0.1},{A.imag - 0.1},{A.imag + 0.1}"
    assert main(["sample", "--input", str(data_file), "--grid", "101", rect, "--output", str(out)]) == 0
    records = serialize.read_json(out)["records"]
    assert len(records) == 101 * 101
    assert all(rec["phi"] is not None for rec in records)
    # each cell's map is the polynomial data's
    zs = np.array([complex(*rec["z"]) for rec in records])
    got = np.array([rec["phi"]["data"] for rec in records]) @ [1, 1j]
    _, want = _maps(plain, zs)
    assert np.abs(got - want.reshape(len(zs), -1)).max() <= 1e-10


def _verify_exit(tmp_path, col):
    data_file = tmp_path / "column.json"
    serialize.write_json(serialize.data_to_json(DataArray(3, 1, (col,))), data_file)
    return main(["verify", "--input", str(data_file), "--samples", "1"])


def test_a_normal_form_that_overflows_exits_2(tmp_path, capsys):
    # three distinct denominators near 1e150: each entry's product of the other two reaches
    # 1e300 at z^2, times a numerator of 1e150
    col = (MeroVector(tuple(RationalFn((1e150,), (k, 1e150)) for k in (1, 2, 3))),)
    assert _verify_exit(tmp_path, col) == 2
    assert "normal form" in capsys.readouterr().err
    # 1 + 1e-150 z and 1 + 0.5e-150 z over 1e150 overflowed a monic LCM (coefficients near
    # 2e300); the product of the denominators has coefficients of at most 1.5
    col = (MeroVector((RationalFn((1e150,), (1, 1e-150)), RationalFn((1,), (1, 0.5e-150)), RationalFn((1e150,)))),)
    assert _verify_exit(tmp_path, col) == 0


F3 = [case for case in CRITERION_2 if case[3] < 3]


def _f3_id(case):
    return f"{case[0]}-{case[1]}-{'-'.join(map(str, case[2]))}-s{case[3]}"


def _times_powers(data, k):
    """The data with entry (row m, component c) of column 0 times (z - a)^k[m, c]."""
    return _times_column_0(data, lambda f, m, c: RationalFn(tuple(npoly.polymul(f.num, npoly.polyfromroots([A] * k[m, c])))))


@pytest.mark.parametrize("case", F3, ids=_f3_id)
def test_a_common_zero_of_a_column_keeps_the_map(case):
    # column 0 times z - a: the normal form divides the common root out, so at and next to a
    # the map is the plain data's; keeping the root gave a low rank profile at a, unflagged,
    # and maps off by up to 1.55 there and by up to 0.76 at 1e-4 from a
    n, r, pattern, seed = case
    plain = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
    zero = _times_powers(plain, np.ones((r, n), int))
    zs = A + np.array([0, 1e-10, 1e-4 * np.exp(0.7j), 1e-3])
    (got, phi), (want, phi_ref) = _maps(zero, zs), _maps(plain, zs)
    generic = chain_arrays(plain, draw_sample_points(plain, 1, seed=0)).ranks
    assert not got.ambiguous.any()
    assert np.array_equal(got.ranks, np.broadcast_to(generic, got.ranks.shape))
    assert np.abs(phi - phi_ref).max() <= 1e-12


@pytest.mark.parametrize("case", F3, ids=_f3_id)
def test_a_common_zero_of_mixed_multiplicity_divides_out_to_its_lowest(case):
    # entry (m, c) of column 0 times (z - a)^k, k in 2..4 and 2 on component 0 of every row:
    # the normal form divides out (z - a)^2 and has the map of the data times (z - a)^(k - 2),
    # every row of which lives at a; keeping the factor gave maps off by up to 0.1 at 1e-3 from a
    n, r, pattern, seed = case
    plain = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
    k = np.random.default_rng(seed).integers(2, 5, size=(r, n))
    k[:, 0] = 2
    zs = A + np.array([1e-3, 1e-2 * np.exp(1j), 0.1j, 1.0])
    (got, phi), (want, phi_ref) = _maps(_times_powers(plain, k), zs), _maps(_times_powers(plain, k - 2), zs)
    assert not got.ambiguous.any() and np.array_equal(got.ranks, want.ranks)
    assert np.abs(phi - phi_ref).max() <= 1e-10


def test_verify_on_rational_data_leaves_numpy_polynomial_unimported(tmp_path):
    # the normal form multiplies denominators with np.convolve and divides roots out with
    # np.polydiv, so verify never loads numpy.polynomial (5 ms to import)
    plain = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=0)
    rational = _times_column_0(plain, lambda f, m, c: RationalFn(f.num, tuple(npoly.polyfromroots([A] * (1 + c % 2)))))
    data_file = tmp_path / "rational.json"
    serialize.write_json(serialize.data_to_json(rational), data_file)
    code = ("import sys; from unitons.cli import main; "
            "code = main(['verify', '--input', sys.argv[1], '--samples', '1']); "
            "print(code, 'numpy.polynomial' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code, str(data_file)], env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split()[-2:] == ["0", "False"]
