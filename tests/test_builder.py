import numpy as np
import pytest

from unitons import (
    BadShape,
    image_span,
    DataArray,
    DegeneratePoint,
    HarmonicMapSampler,
    MeroVector,
    PoleError,
    RationalFn,
    Span,
    alpha1_is_full,
    associated_and_gauss,
    build_fiber,
    cartan_embed,
    draw_sample_points,
    evaluate_extended,
    evaluate_map,
    max_principal_angle,
    orthonormal_basis,
    projection_pair,
    random_data,
    s1_invariant_data,
    spans_equal,
)
from unitons.builder import chain_arrays
from unitons.meromorphic import shifted_column

P = RationalFn.polynomial

Z = 0.37 - 0.21j  # generic point reused across tests


def column_span_at(vectors, z):
    return orthonormal_basis(np.column_stack([v.eval(z) for v in vectors]))


def test_alpha1_is_span_of_first_row():
    data = random_data(4, 2, 3, sparsity_pattern=(2, 2), seed=1)
    fib = build_fiber(data, Z)
    direct = column_span_at(data.row(0), Z)
    assert spans_equal(fib.alphas[0], direct)


def test_alpha2_layers_match_explicit_formulas():
    # alpha_2^(0) = span{H_0j + perp_1 H_1j}, alpha_2^(1) = span{perp_1 H_0j'}
    data = random_data(5, 2, 3, sparsity_pattern=(2, 2), seed=3)
    fib = build_fiber(data, Z)
    _, perp1 = projection_pair(fib.alphas[0])
    gen = []
    der = []
    for col in data.columns:
        h0, h1 = col
        gen.append(h0.eval(Z) + perp1 @ h1.eval(Z))
        der.append(perp1 @ h0.derivative().eval(Z))
    k0 = orthonormal_basis(np.column_stack([fib.k_vectors[1, 0, j] for j in range(data.ncols)]))
    k1 = orthonormal_basis(np.column_stack([fib.k_vectors[1, 1, j] for j in range(data.ncols)]))
    assert spans_equal(k0, orthonormal_basis(np.column_stack(gen)))
    assert spans_equal(k1, orthonormal_basis(np.column_stack(der)))


def test_trivial_substitution_case():
    col = (MeroVector((P([1]), P([0, 1]))),)
    data = DataArray(2, 1, (col,))
    fib = build_fiber(data, 0.0)
    assert spans_equal(fib.alphas[0], orthonormal_basis(np.array([1.0, 0.0])))


def test_evaluate_map_r0_is_constant():
    data = random_data(3, 0, 2, seed=0)
    phi0 = np.diag([1j, -1j, 1.0])
    s = HarmonicMapSampler(data, phi0)
    for z in (0.1, 1.0 + 0.5j, -1.2j):
        assert np.allclose(s.map_at(z), phi0)


def test_evaluate_map_cartan_case():
    col = (MeroVector((P([1]), P([0]))),)
    data = DataArray(2, 1, (col,))
    s = HarmonicMapSampler(data)
    assert np.allclose(s.map_at(0.3 + 1j), np.diag([1.0, -1.0]))


def test_map_unitary_at_30_points():
    data = random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=2)
    s = HarmonicMapSampler(data)
    for z in draw_sample_points(data, 30, seed=5):
        phi = s.map_at(z)
        assert np.abs(phi @ phi.conj().T - np.eye(3)).max() <= 1e-10


def test_extended_at_lambda_one_and_minus_one():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=4)
    s = HarmonicMapSampler(data)
    assert np.abs(evaluate_extended(s, Z, 1.0) - np.eye(4)).max() <= 1e-12
    assert np.abs(evaluate_extended(s, Z, -1.0) - evaluate_map(s, Z)).max() <= 1e-12


def test_extended_diag_example():
    col = (MeroVector((P([1]), P([0]))),)
    data = DataArray(2, 1, (col,))
    s = HarmonicMapSampler(data)
    assert np.allclose(evaluate_extended(s, 0.5, 1j), np.diag([1.0, 1j]))


def test_extended_multiplicativity():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 2, 2), seed=6)
    s = HarmonicMapSampler(data)
    lam = np.exp(0.7j)
    cd = s.chain_at(Z)
    for i in range(data.r):
        left = HarmonicMapSampler(data.restrict_rows(i)).extended_at(Z, lam)
        step = cd.pis[i] + lam * cd.perps[i]
        right = HarmonicMapSampler(data.restrict_rows(i + 1)).extended_at(Z, lam)
        assert np.abs(left @ step - right).max() <= 1e-11


def test_covering_and_prop22():
    for pattern, seed in (((1, 1, 1), 0), ((1, 2, 3), 1), (None, 2)):
        data = random_data(4, 3, 3, sparsity_pattern=pattern, seed=seed)
        for z in draw_sample_points(data, 5, seed=8):
            fib = build_fiber(data, z)
            pis, perps = fib.chain.pis, fib.chain.perps
            for ell in range(2, data.r + 1):
                moved = image_span(pis[ell - 2] @ fib.alphas[ell - 1].basis)
                assert max_principal_angle(moved, fib.alphas[ell - 2]) <= 1e-7
            prod = np.eye(4, dtype=complex)
            for t in range(data.r):
                prod = perps[t] @ prod
                assert max_principal_angle(image_span(prod), image_span(perps[t])) <= 1e-7
            prod = np.eye(4, dtype=complex)
            for t in range(data.r):
                prod = prod @ pis[t]
                assert max_principal_angle(image_span(prod), fib.alphas[0]) <= 1e-7


def test_column_augmentation_invariance():
    # adjoining the shifted column (0, H_0, ..., H_{r-2}) changes no alpha_i^(k)
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=9)
    bigger = data.with_extra_column(shifted_column(data.columns[0], data.n))
    for z in draw_sample_points(data, 5, seed=10):
        a = build_fiber(data, z)
        b = build_fiber(bigger, z)
        for i in range(data.r):
            for k in range(i + 1):
                sa = orthonormal_basis(a.k_vectors[i, k].T)
                sb = orthonormal_basis(b.k_vectors[i, k].T)
                assert sa.dim == sb.dim
                assert max_principal_angle(sa, sb) <= 1e-8


def test_associated_curve_and_gauss():
    h = (MeroVector((P([1]), P([0, 1]), P([0, 0, 1]))),)
    h1, g1 = associated_and_gauss(h, 1, Z)
    direct = orthonormal_basis(
        np.column_stack([[1, Z, Z**2], [0, 1, 2 * Z]]).astype(complex)
    )
    assert spans_equal(h1, direct)
    h0, g0 = associated_and_gauss(h, 0, Z)
    assert spans_equal(h0, g0)
    # Gauss bundle is the part of h_(1) orthogonal to h_(0)
    _, perp = projection_pair(h0)
    assert spans_equal(g1, orthonormal_basis(perp @ direct.basis))


def test_single_row_data_gives_associated_curves():
    h_vec = MeroVector((P([1, 1]), P([0, 1]), P([0, 0, 1]), P([2, 0, 0, 1])))
    zero = MeroVector.zero(4)
    data = DataArray(4, 3, ((h_vec, zero, zero),))
    for z in draw_sample_points(data, 10, seed=11):
        fib = build_fiber(data, z)
        for i in range(3):
            h_i, _ = associated_and_gauss((h_vec,), i, z)
            assert max_principal_angle(fib.alphas[i], h_i) <= 1e-8


def test_s1_invariant_shapes_and_nesting():
    single = s1_invariant_data(2, (1,), 2, seed=0)
    assert single.ncols == 1 and single.r == 1
    data = s1_invariant_data(3, (1, 2), 3, seed=1)
    assert data.ncols == 2
    # diagonal form: column j non-zero in exactly one row
    for j, col in enumerate(data.columns):
        nonzero_rows = [i for i, v in enumerate(col) if any(not f.is_zero for f in v.entries)]
        assert len(nonzero_rows) == 1
    for z in draw_sample_points(data, 10, seed=12):
        fib = build_fiber(data, z)
        for i in range(data.r - 1):
            resid = np.linalg.norm(fib.chain.perps[i + 1] @ fib.alphas[i].basis)
            assert resid <= 1e-7


def test_s1_nested_grassmann_decomposition():
    # the map is +-(pi_psi - pi_psi_perp) with psi built from the nested gaps
    for n, steps, seed in ((4, (1, 1, 1), 2), (3, (1, 2), 1), (5, (2, 2), 3)):
        data = s1_invariant_data(n, steps, 3, seed=seed)
        s = HarmonicMapSampler(data)
        r = data.r
        for z in draw_sample_points(data, 3, seed=13):
            fib = build_fiber(data, z)
            pieces = []
            for k in range((r - 1) // 2 + 1):
                lo, hi = r - 1 - 2 * k, r - 2 * k
                hi_basis = fib.alphas[hi - 1].basis
                if lo == 0:
                    pieces.append(hi_basis)
                else:
                    _, perp = projection_pair(fib.alphas[lo - 1])
                    pieces.append(orthonormal_basis(perp @ hi_basis).basis)
            psi = orthonormal_basis(np.hstack(pieces))
            sign = 1 if r % 2 == 1 else -1
            assert np.abs(s.map_at(z) - sign * cartan_embed(psi)).max() <= 1e-8


def test_s1_invariant_bad_shapes():
    with pytest.raises(BadShape):
        s1_invariant_data(3, (2, 1), 2, seed=0)
    with pytest.raises(BadShape):
        s1_invariant_data(3, (1, 2, 3), 2, seed=0)  # r > n-1
    with pytest.raises(BadShape):
        s1_invariant_data(3, (0, 1), 2, seed=0)


def test_cartan_embed_examples():
    assert np.allclose(cartan_embed(Span.full(3)), np.eye(3))
    assert np.allclose(cartan_embed(Span.zero(3)), -np.eye(3))
    e1 = orthonormal_basis(np.eye(3)[:, :1])
    m = cartan_embed(e1)
    assert np.allclose(m, np.diag([1.0, -1.0, -1.0]))
    assert np.abs(m @ m - np.eye(3)).max() <= 1e-11


def test_degenerate_point_detection():
    # two nearly dependent columns put a singular value inside the ambiguity band
    col_a = (MeroVector((P([1]), P([0]))),)
    col_b = (MeroVector((P([1]), P([0, 1e-9]))),)
    data = DataArray(2, 1, (col_a, col_b))
    with pytest.raises(DegeneratePoint):
        build_fiber(data, 1.0 + 0.2j)



def test_build_fiber_raises_at_data_pole():
    pole_fn = RationalFn((1,), (-0.5, 1))  # 1/(z - 0.5)
    col = (MeroVector((pole_fn, P([0, 1]), P([1]))),)
    data = DataArray(3, 1, (col,))
    with pytest.raises(PoleError):
        build_fiber(data, 0.5)
    build_fiber(data, 0.5 + 0.1j)  # away from the pole the chain builds

def test_sample_points_avoid_poles():
    pole_fn = RationalFn((1,), (-0.5, 1))  # pole at 0.5
    col = (MeroVector((pole_fn, P([0, 1]), P([1]))),)
    data = DataArray(3, 1, (col,))
    pts = draw_sample_points(data, 25, seed=3)
    assert len(pts) == 25
    assert all(abs(z - 0.5) >= 1e-2 for z in pts)
    assert all(abs(z) <= 2.0 + 1e-12 for z in pts)


def test_sample_points_deterministic():
    data = random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=0)
    assert draw_sample_points(data, 5, seed=4) == draw_sample_points(data, 5, seed=4)


def test_sample_points_pinned():
    # block drawing consumes the generator exactly as paired scalar draws did
    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=0)
    assert draw_sample_points(data, 4, seed=5, stencil_h=1e-3) == [
        0.6389356251770717 - 1.6768342082212855j,
        -0.32024448035234826 + 1.3995519700862924j,
        -0.34523022540261045 + 0.31070709839829613j,
        1.226865585162311 + 0.3587389825825106j,
    ]
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=1)
    assert draw_sample_points(data, 3, seed=11) == [
        -0.7171263650786719 + 0.003253857072761606j,
        1.5259942316696253 + 0.27809177514709116j,
        0.6922886003251958 - 0.33532198283083847j,
    ]


def _assert_batch_matches_points(data, zs):
    batch = chain_arrays(data, zs)
    for p, z in enumerate(zs):
        try:
            single = chain_arrays(data, [z]).at(0)
        except (PoleError, DegeneratePoint) as exc:
            with pytest.raises(type(exc)):
                batch.at(p)
            continue
        got = batch.at(p)
        assert got.ranks == single.ranks and got.gen_ranks == single.gen_ranks
        assert np.abs(got.pis - single.pis).max() <= 1e-12
        assert np.abs(got.kvecs - single.kvecs).max() <= 1e-12
    return batch


def test_chain_batch_matches_single_points():
    # a pole at 0.5 (as in the pole test) and two columns that are nearly
    # dependent near z = 0.03 (as in the degenerate-point test); ranks of
    # alpha_1 differ between the ordinary points of the batch
    pole_fn = RationalFn((1,), (-0.5, 1))
    col_a = (MeroVector((P([1]), P([0]), pole_fn)), MeroVector((P([0, 1]), P([2]), P([0]))))
    col_b = (MeroVector((P([1]), P([0, 1e-7]), pole_fn)), MeroVector((P([0]), P([1, 1]), P([0, 0, 1]))))
    data = DataArray(3, 2, (col_a, col_b))
    batch = _assert_batch_matches_points(data, [0.001j, 0.5, 0.03 + 0.01j, -1 + 0.5j, 1.2 - 0.7j, 0.0005])
    assert batch.pole.tolist() == [False, True, False, False, False, False]
    assert batch.ambiguous.tolist() == [False, False, True, False, False, False]
    assert batch.ranks[[0, 3, 4, 5], 0].tolist() == [1, 2, 2, 1]
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=2)
    zs = list(np.random.default_rng(3).uniform(-1.4, 1.4, (16, 2)) @ [1, 1j])
    assert not _assert_batch_matches_points(data, zs).ambiguous.all()


def test_fullness_flag():
    full_col = (MeroVector((P([1]), P([0, 1]), P([0, 0, 1]))),)
    assert alpha1_is_full(DataArray(3, 1, (full_col,)))
    flat_col = (MeroVector((P([1]), P([0, 1]), P([0]))),)
    assert not alpha1_is_full(DataArray(3, 1, (flat_col,)))


def test_phi0_validation():
    data = random_data(3, 1, 2, seed=0)
    with pytest.raises(BadShape):
        HarmonicMapSampler(data, np.ones((3, 3)))
    with pytest.raises(BadShape):
        HarmonicMapSampler(data, np.eye(2))
