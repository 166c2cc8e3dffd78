import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from unitons import (
    BadShape,
    DataArray,
    MeroVector,
    RationalFn,
    differentiate,
    eval_rational,
    random_data,
    s1_invariant_data,
    x_columns_from_data,
)
from unitons.meromorphic import SCALE_FLOOR, polynomial_column
from unitons.serialize import data_from_json, data_to_json, dumps
from unitons.verifier import verification_report

from oracles import fd_derivative, random_data_per_entry, s1_invariant_data_per_entry

P = RationalFn.polynomial


def rationals_close(f, g, tol=1e-12):
    """Cross-multiplied coefficient comparison (common-denominator form)."""
    lhs = np.zeros(len(f.num) + len(g.den) - 1, complex)
    for i, a in enumerate(f.num):
        for j, b in enumerate(g.den):
            lhs[i + j] += a * b
    rhs = np.zeros(len(g.num) + len(f.den) - 1, complex)
    for i, a in enumerate(g.num):
        for j, b in enumerate(f.den):
            rhs[i + j] += a * b
    width = max(len(lhs), len(rhs))
    lhs = np.pad(lhs, (0, width - len(lhs)))
    rhs = np.pad(rhs, (0, width - len(rhs)))
    scale = max(1.0, np.abs(lhs).max(), np.abs(rhs).max())
    return np.abs(lhs - rhs).max() <= tol * scale


def test_eval_examples():
    f = RationalFn((1, 0, 1), (-2, 1))  # (z^2+1)/(z-2)
    assert eval_rational(f, 0) == pytest.approx(-0.5)
    one = RationalFn((1,))
    assert eval_rational(one, 17 + 3j) == 1
    g = RationalFn((1,), (-1, 1))  # 1/(z-1): a plain quotient, however near the pole
    assert eval_rational(g, 1.0 + 1e-12) == pytest.approx(1e12, rel=1e-3)


def test_differentiate_power_rule():
    f = P([0, 0, 1])  # z^2
    assert differentiate(f).num == (0j, 2 + 0j)
    assert differentiate(f).is_polynomial


def test_differentiate_quotient_rule():
    f = RationalFn((1,), (0, 1))  # 1/z
    df = differentiate(f)
    # -1/z^2
    assert rationals_close(df, RationalFn((-1,), (0, 0, 1)))


def test_differentiate_against_fd_oracle():
    # oracle first: central differences of (z^2+1)/(z-2) at 5 random points
    f = RationalFn((1, 0, 1), (-2, 1))
    df = differentiate(f)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        expect = fd_derivative(f, z)
        got = eval_rational(df, z)
        assert abs(got - expect) <= 1e-8 * (1 + abs(expect))
    # and the closed form stated for this example
    assert rationals_close(df, RationalFn((-1, -4, 1), (4, -4, 1)))


def test_differentiate_degree_bounds():
    f = RationalFn((1, 2, 3, 4), (5, 0, 1, 0, 2))
    df = differentiate(f)
    assert len(df.num) - 1 <= (len(f.num) - 1) + (len(f.den) - 1) - 1
    assert len(df.den) - 1 == 2 * (len(f.den) - 1)


def test_fd_property_random_rationals():
    rng = np.random.default_rng(3)
    for trial in range(4):
        num = tuple(complex(a, b) for a, b in rng.integers(-4, 5, size=(4, 2)))
        # poles kept outside |z| <= 1.2 so the sample points below are safe
        den = np.convolve([-(2.5 + 0.3j * trial), 1], [3j + 0.5, 1])
        f = RationalFn(num, tuple(den))
        df = differentiate(f)
        for _ in range(10):
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            expect = fd_derivative(f, z)
            assert abs(eval_rational(df, z) - expect) <= 1e-7 * (1 + abs(expect))


def _combination(a, f, b, g):
    """a f + b g over the product of the denominators, from the coefficients."""
    num = npoly.polyadd(a * npoly.polymul(f.num, g.den), b * npoly.polymul(g.num, f.den))
    return RationalFn(tuple(num), tuple(npoly.polymul(f.den, g.den)))


def test_differentiate_linearity():
    f = RationalFn((1, 2j, 3), (-2, 1))
    g = RationalFn((2, -1), (1j, 0, 1))
    a, b = 2 - 1j, 0.5 + 3j
    lhs = differentiate(_combination(a, f, b, g))
    rhs = _combination(a, differentiate(f), b, differentiate(g))
    assert rationals_close(lhs, rhs, tol=1e-12)


def _column(*fns):
    return (MeroVector(tuple(fns)),)


def test_polynomial_column_scales_by_a_power_of_two():
    # Gaussian-integer data already in [4, 8) is kept bit for bit; other scales move by 2^k
    assert polynomial_column(_column(P([1, 4j]), P([3, 3]))).tolist() == [[[1, 4j], [3, 3]]]
    assert polynomial_column(_column(P([1, 0.5]), P([0.25]))).tolist() == [[[4, 2], [1, 0]]]
    assert polynomial_column(_column(P([3e8]), P([0, 1]))).tolist() == [[[3e8 / 2**26, 0], [0, 2**-26]]]


def test_polynomial_column_clears_denominators_by_their_lcm():
    # 1/(z^2 + 1) and z/(z - i): the product of the denominators leaves the common root i, which
    # divides out; the column times the LCM z^2 + 1 is (1, z (z + i))
    got = polynomial_column(_column(RationalFn((1,), (1, 0, 1)), RationalFn((0, 1), (-1j, 1))))
    assert np.abs(got - 4 * np.array([[[1, 0, 0], [0, 1j, 1]]])).max() <= 1e-15


def test_polynomial_column_keeps_a_root_to_its_largest_multiplicity():
    # (z - 1)^2 and z - 1 share their root: the product's extra z - 1 divides out, so the column is
    # cleared by the LCM (z - 1)^2
    got = polynomial_column(_column(RationalFn((1,), (1, -2, 1)), RationalFn((1,), (-1, 1))))
    assert np.abs(got - 4 * np.array([[[1, 0], [-1, 1]]])).max() <= 1e-12
    # a zero entry's denominator adds no root
    got = polynomial_column(_column(RationalFn((0,), (-3, 1)), RationalFn((2,), (-1, 1))))
    assert np.abs(got - np.array([[[0], [4]]])).max() <= 1e-15


def test_polynomial_column_divides_out_a_split_multiple_root():
    # 1/(z - 1)^3 and 1/(z - 1)^2: the product of the denominators gives (z - 1)^2 (1, z - 1),
    # whose double root the eigenvalue solver splits by about 1e-8; both halves divide out.  Merging the
    # denominators' roots instead split the triple root past the merge and left width 4.
    got = polynomial_column(_column(RationalFn((1,), (-1, 3, -3, 1)), RationalFn((1,), (1, -2, 1))))
    assert got.shape == (1, 2, 2)
    assert np.abs(got - 4 * np.array([[[1, 0], [-1, 1]]])).max() <= 1e-12


def test_polynomial_column_divides_a_common_root_out_once():
    # (z - 1)^2 (z^2 + 1) and (z - 1)(z + 3) share z - 1 once: width 5 becomes 4, and the
    # double root of the first entry keeps one factor
    got = polynomial_column(_column(P(npoly.polyfromroots([1, 1, 1j, -1j])), P(npoly.polyfromroots([1, -3]))))
    assert got.shape == (1, 2, 4)
    assert np.abs(got - 2 * np.array([[[-1, 1, -1, 1], [3, 1, 0, 0]]])).max() <= 1e-12


TINY_LEAD = [(lead, shape) for lead in (1e-200, 1e-300, 5e-324) for shape in ((3, 1, (1,)), (5, 3, (1, 2, 2)))]


@pytest.mark.parametrize("lead, shape", TINY_LEAD, ids=lambda v: str(v) if isinstance(v, float) else "-".join(map(str, v[:2])))
def test_a_tiny_leading_coefficient_gives_a_finite_normal_form(lead, shape):
    # every entry of column 0 gains lead z^4, so their combination has a root near 1/lead,
    # whose powers overflow (at 5e-324 its companion matrix does too); none is common, and the
    # data verifies
    n, r, pattern = shape
    plain = random_data(n, r, 3, sparsity_pattern=pattern, seed=2)
    col = tuple(MeroVector(tuple(P(f.num + (0,) * (4 - len(f.num)) + (lead,)) for f in vec.entries))
                for vec in plain.columns[0])
    form = polynomial_column(col)
    assert form.shape == (r, n, 5) and np.isfinite(form).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verification_report(DataArray(n, r, (col,) + plain.columns[1:]), samples=3, seed=5)["passed"]


def _numerators_times_a_power_of_two(column, form):
    raw = np.zeros(form.shape, np.complex128)
    for row, vec in zip(raw, column):
        for out, f in zip(row, vec.entries):
            out[: len(f.num)] = f.num
    return form.tobytes() == (raw * 2.0 ** (math.frexp(SCALE_FLOOR)[1] - math.frexp(np.abs(raw).max())[1])).tobytes()


def test_generated_data_deflates_nothing():
    # no generated column has a common root: each normal form of a live data or X column is its
    # numerators times a power of two, bit for bit, so outputs on generated data keep their bytes
    shapes = [(3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2))]
    datasets = [random_data(n, r, 3, sparsity_pattern=p, seed=seed) for n, r, p in shapes for seed in range(100)]
    datasets += [random_data(n, r, 3, sparsity_pattern=p, seed=seed)
                 for n, r, p in [(4, 3, (1, 1, 2)), (5, 4, (1, 1, 2, 3)), (4, 3, (1, 2, 3))] for seed in range(20)]
    datasets += [s1_invariant_data(n, steps, 3, seed=seed) for n, steps in [(4, (1, 2, 3)), (5, (1, 2, 4))] for seed in range(20)]
    checked = 0
    for data in datasets:
        for col in data.columns + tuple(map(tuple, x_columns_from_data(data))):
            if any(not f.is_zero for vec in col for f in vec.entries):
                assert _numerators_times_a_power_of_two(col, polynomial_column(col))
                checked += 1
    assert checked == 2000


def test_random_data_r0():
    data = random_data(3, 0, 3, seed=1)
    assert data.columns == () and data.r == 0


def test_random_data_deterministic():
    a = random_data(3, 2, 3, seed=1)
    b = random_data(3, 2, 3, seed=1)
    assert a == b
    assert a != random_data(3, 2, 3, seed=2)


def test_random_data_degree_bound():
    data = random_data(5, 4, 3, seed=9)
    for col in data.columns:
        for vec in col:
            for f in vec.entries:
                assert f.is_polynomial and len(f.num) - 1 <= 3


def test_random_data_bad_shape():
    with pytest.raises(BadShape):
        random_data(3, 3, 2, seed=0)
    with pytest.raises(BadShape):
        random_data(4, 2, -1, seed=0)
    with pytest.raises(BadShape):
        random_data(4, 2, 2, sparsity_pattern=(2, 1), seed=0)


def test_random_data_echelon_zero_blocks():
    data = random_data(4, 3, 2, sparsity_pattern=(1, 2, 2), seed=4)
    for j, col in enumerate(data.columns):
        for i, vec in enumerate(col):
            if j >= (1, 2, 2)[i]:
                assert all(f.is_zero for f in vec.entries)
            else:
                assert any(not f.is_zero for f in vec.entries)


@pytest.mark.parametrize("n, r, pattern", [
    (3, 0, None), (3, 2, None), (4, 3, None), (3, 2, (1, 1)), (4, 3, (1, 1, 1)),
    (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2)), (4, 3, (0, 1, 3)),
], ids=str)
def test_random_data_is_the_per_entry_draw_byte_for_byte(n, r, pattern):
    # one draw for every live entry gives the stream of one draw per polynomial
    for degree in (0, 3):
        for seed in range(200):
            expected = dumps(data_to_json(random_data_per_entry(n, r, degree, pattern, seed)))
            assert dumps(data_to_json(random_data(n, r, degree, sparsity_pattern=pattern, seed=seed))) == expected


@pytest.mark.parametrize("n, steps", [(4, (1, 2, 3)), (5, (1, 2, 4)), (3, (2, 2))], ids=str)
def test_s1_invariant_data_is_the_per_entry_draw_byte_for_byte(n, steps):
    for degree in (0, 3):
        for seed in range(50):
            expected = dumps(data_to_json(s1_invariant_data_per_entry(n, steps, degree, seed)))
            assert dumps(data_to_json(s1_invariant_data(n, steps, degree, seed=seed))) == expected


def test_data_array_validation():
    v = MeroVector((P([1]), P([0, 1])))
    with pytest.raises(BadShape):
        DataArray(2, 2, ((v, v),))  # r > n-1
    with pytest.raises(BadShape):
        DataArray(3, 1, ((v,),))  # vector length 2 in C^3
    with pytest.raises(BadShape):
        DataArray(2, 1, ())  # r >= 1 with no column: every uniton would be zero
    assert DataArray(2, 0, ()).columns == ()  # r = 0 needs none


def test_json_round_trip_exact():
    data = random_data(4, 3, 3, seed=7)
    again = data_from_json(data_to_json(data))
    assert again == data


def test_equal_objects_built_apart_hash_equal():
    f = RationalFn((1, 2j, 0), (1,))
    g = RationalFn([1 + 0j, 2j], [1 + 0j, 0j])  # the same function after trimming
    assert f == g and f is not g and hash(f) == hash(g)
    assert hash(f) == hash((f.num, f.den))  # the dataclass's own field hash, computed once
    u, v = MeroVector((f, P([3]))), MeroVector([g, P([3 + 0j])])
    assert u == v and hash(u) == hash(v)
    data = random_data(4, 3, 3, seed=7)
    again = data_from_json(data_to_json(data))
    assert again.columns is not data.columns and hash(again.columns) == hash(data.columns)
