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
)
from unitons.meromorphic import polynomial_column
from unitons.serialize import data_from_json, data_to_json

from oracles import fd_derivative

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
    # 1/(z^2 + 1) and z/(z - i): the LCM is z^2 + 1, so the column is (1, z (z + i))
    got = polynomial_column(_column(RationalFn((1,), (1, 0, 1)), RationalFn((0, 1), (-1j, 1))))
    assert np.abs(got - 4 * np.array([[[1, 0, 0], [0, 1j, 1]]])).max() <= 1e-15


def test_polynomial_column_keeps_a_root_to_its_largest_multiplicity():
    # (z - 1)^2 and z - 1 share their root, whose split halves merge to their mean: the LCM is (z - 1)^2
    got = polynomial_column(_column(RationalFn((1,), (1, -2, 1)), RationalFn((1,), (-1, 1))))
    assert np.abs(got - 4 * np.array([[[1, 0], [-1, 1]]])).max() <= 1e-12
    # a zero entry's denominator adds no root
    got = polynomial_column(_column(RationalFn((0,), (-3, 1)), RationalFn((2,), (-1, 1))))
    assert np.abs(got - np.array([[[0], [4]]])).max() <= 1e-15


def test_random_data_r0():
    data = random_data(3, 0, 3, seed=1)
    assert data.ncols == 0 and data.r == 0


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


def test_data_array_validation():
    v = MeroVector((P([1]), P([0, 1])))
    with pytest.raises(BadShape):
        DataArray(2, 2, ((v, v),))  # r > n-1
    with pytest.raises(BadShape):
        DataArray(3, 1, ((v,),))  # vector length 2 in C^3
    with pytest.raises(BadShape):
        DataArray(2, 1, ())  # r >= 1 with no column: every uniton would be zero
    assert DataArray(2, 0, ()).ncols == 0  # r = 0 needs none


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
