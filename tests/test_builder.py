import warnings

import numpy as np
import pytest

from unitons import (
    BadShape,
    image_span,
    DataArray,
    DegeneratePoint,
    HarmonicMapSampler,
    MeroVector,
    RationalFn,
    Span,
    alpha1_is_full,
    build_fiber,
    draw_sample_points,
    evaluate_map,
    orthonormal_basis,
    projection_pair,
    random_data,
    s1_invariant_data,
)
from unitons import kernels
from unitons.builder import chain_arrays, extended_coefficients, extended_product
from unitons.grassmannian import reality_defect
from oracles import (
    associated_and_gauss,
    cartan_embed,
    derivative_values,
    extended_coefficients_per_block,
    max_principal_angle,
    on_all_columns,
    restrict_rows,
    shifted_column,
    spans_equal,
    with_extra_column,
)

P = RationalFn.polynomial

Z = 0.37 - 0.21j  # generic point reused across tests


def column_span_at(vectors, z):
    return orthonormal_basis(np.column_stack([v.eval(z) for v in vectors]))


def test_alpha1_is_span_of_first_row():
    data = random_data(4, 2, 3, sparsity_pattern=(2, 2), seed=1)
    fib = build_fiber(data, Z)
    direct = column_span_at([col[0] for col in data.columns], Z)
    assert spans_equal(image_span(fib.chain.pis[0]), direct)


def test_alpha2_layers_match_explicit_formulas():
    # alpha_2^(0) = span{H_0j + perp_1 H_1j}, alpha_2^(1) = span{perp_1 H_0j'}
    data = random_data(5, 2, 3, sparsity_pattern=(2, 2), seed=3)
    fib = build_fiber(data, Z)
    _, perp1 = projection_pair(image_span(fib.chain.pis[0]))
    gen = []
    der = []
    for col in data.columns:
        h0, h1 = col
        gen.append(h0.eval(Z) + perp1 @ h1.eval(Z))
        der.append(perp1 @ h0.derivative().eval(Z))
    k0 = orthonormal_basis(fib.chain.kvecs[1, 0].T)  # one vector per table slot: the live columns
    k1 = orthonormal_basis(fib.chain.kvecs[1, 1].T)
    assert spans_equal(k0, orthonormal_basis(np.column_stack(gen)))
    assert spans_equal(k1, orthonormal_basis(np.column_stack(der)))


def test_trivial_substitution_case():
    col = (MeroVector((P([1]), P([0, 1]))),)
    data = DataArray(2, 1, (col,))
    fib = build_fiber(data, 0.0)
    assert spans_equal(image_span(fib.chain.pis[0]), orthonormal_basis(np.array([1.0, 0.0])))


def test_evaluate_map_r0_is_constant():
    data = random_data(3, 0, 2, seed=0)
    s = HarmonicMapSampler(data)
    for z in (0.1, 1.0 + 0.5j, -1.2j):
        assert np.array_equal(s.map_at(z), np.eye(3))


def test_evaluate_map_cartan_case():
    col = (MeroVector((P([1]), P([0]))),)
    data = DataArray(2, 1, (col,))
    s = HarmonicMapSampler(data)
    assert np.allclose(s.map_at(0.3 + 1j), np.diag([1.0, -1.0]))


def test_map_is_the_cartan_product_and_phi_0_is_never_aliased():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=4)
    s = HarmonicMapSampler(data)
    cd = s.chain_at(Z)
    expect = np.eye(4)
    for pi, perp in zip(cd.pis, cd.perps):
        expect = expect @ (pi - perp)
    assert np.abs(s.map_at(Z) - expect).max() <= 1e-14
    assert np.abs(s.prefix_map_at(Z, 3) - expect).max() <= 1e-14
    out = s.prefix_map_at(Z, 0)
    out[:] = 0.0
    assert np.array_equal(s.prefix_map_at(Z, 0), np.eye(4))


def test_prefix_map_at_takes_only_ell_in_0_to_r():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=0)
    s = HarmonicMapSampler(data)
    for ell in (-1, 4, 7):  # -1 once gave phi_2, and 7 the map
        with pytest.raises(BadShape, match="0 <= ell <= r"):
            s.prefix_map_at(Z, ell)
    for ell in (1.5, 1.0, True, False, "1", None):  # 1.5 once failed in the slice, True was read as 1
        with pytest.raises(BadShape, match="ell must be an integer"):
            s.prefix_map_at(Z, ell)
    assert s.prefix_map_at(Z, np.int64(2)).tobytes() == s.prefix_map_at(Z, 2).tobytes()
    cd = s.chain_at(Z)
    expect = np.eye(4, dtype=np.complex128)
    for ell in range(data.r + 1):
        assert s.prefix_map_at(Z, ell).tobytes() == expect.tobytes()
        if ell < data.r:
            expect = expect @ (cd.pis[ell] + -1 * cd.perps[ell])


def test_map_unitary_at_30_points():
    data = random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=2)
    s = HarmonicMapSampler(data)
    for z in draw_sample_points(data, 30, seed=5):
        phi = s.map_at(z)
        assert np.abs(phi @ phi.conj().T - np.eye(3)).max() <= 1e-10


def _extended(sampler, z, lam):
    """Phi_lambda at z: the Cartan product of the chain with left factor I."""
    cd = sampler.chain_at(z)
    return extended_product(cd.pis, cd.perps, lam)


def test_extended_at_lambda_one_and_minus_one():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=4)
    s = HarmonicMapSampler(data)
    assert np.abs(_extended(s, Z, 1.0) - np.eye(4)).max() <= 1e-12
    assert np.abs(_extended(s, Z, -1.0) - evaluate_map(s, Z)).max() <= 1e-12


def test_extended_diag_example():
    col = (MeroVector((P([1]), P([0]))),)
    data = DataArray(2, 1, (col,))
    s = HarmonicMapSampler(data)
    assert np.allclose(_extended(s, 0.5, 1j), np.diag([1.0, 1j]))


def test_extended_multiplicativity():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 2, 2), seed=6)
    s = HarmonicMapSampler(data)
    lam = np.exp(0.7j)
    cd = s.chain_at(Z)
    for i in range(data.r):
        left = _extended(HarmonicMapSampler(restrict_rows(data, i)), Z, lam)
        step = cd.pis[i] + lam * cd.perps[i]
        right = _extended(HarmonicMapSampler(restrict_rows(data, i + 1)), Z, lam)
        assert np.abs(left @ step - right).max() <= 1e-11


def test_covering_and_prop22():
    for pattern, seed in (((1, 1, 1), 0), ((1, 2, 3), 1), (None, 2)):
        data = random_data(4, 3, 3, sparsity_pattern=pattern, seed=seed)
        for z in draw_sample_points(data, 5, seed=8):
            fib = build_fiber(data, z)
            pis, perps = fib.chain.pis, fib.chain.perps
            for ell in range(2, data.r + 1):
                moved = image_span(pis[ell - 2] @ image_span(fib.chain.pis[ell - 1]).basis)
                assert max_principal_angle(moved, image_span(fib.chain.pis[ell - 2])) <= 1e-7
            prod = np.eye(4, dtype=complex)
            for t in range(data.r):
                prod = perps[t] @ prod
                assert max_principal_angle(image_span(prod), image_span(perps[t])) <= 1e-7
            prod = np.eye(4, dtype=complex)
            for t in range(data.r):
                prod = prod @ pis[t]
                assert max_principal_angle(image_span(prod), image_span(fib.chain.pis[0])) <= 1e-7


def test_column_augmentation_invariance():
    # adjoining the shifted column (0, H_0, ..., H_{r-2}) changes no alpha_i^(k)
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=9)
    bigger = with_extra_column(data, shifted_column(data.columns[0], data.n))
    for z in draw_sample_points(data, 5, seed=10):
        a = build_fiber(data, z)
        b = build_fiber(bigger, z)
        for i in range(data.r):
            for k in range(i + 1):
                sa = orthonormal_basis(a.chain.kvecs[i, k].T)
                sb = orthonormal_basis(b.chain.kvecs[i, k].T)
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
            assert max_principal_angle(image_span(fib.chain.pis[i]), h_i) <= 1e-8


def test_s1_invariant_shapes_and_nesting():
    single = s1_invariant_data(2, (1,), 2, seed=0)
    assert len(single.columns) == 1 and single.r == 1
    data = s1_invariant_data(3, (1, 2), 3, seed=1)
    assert len(data.columns) == 2
    # diagonal form: column j non-zero in exactly one row
    for j, col in enumerate(data.columns):
        nonzero_rows = [i for i, v in enumerate(col) if any(not f.is_zero for f in v.entries)]
        assert len(nonzero_rows) == 1
    for z in draw_sample_points(data, 10, seed=12):
        fib = build_fiber(data, z)
        for i in range(data.r - 1):
            resid = np.linalg.norm(fib.chain.perps[i + 1] @ image_span(fib.chain.pis[i]).basis)
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
                hi_basis = image_span(fib.chain.pis[hi - 1]).basis
                if lo == 0:
                    pieces.append(hi_basis)
                else:
                    _, perp = projection_pair(image_span(fib.chain.pis[lo - 1]))
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



def _pole_and_cleared():
    # the column (1/(z - 0.5), z, 1), and the same column times z - 0.5
    pole_fn = RationalFn((1,), (-0.5, 1))
    rational = DataArray(3, 1, ((MeroVector((pole_fn, P([0, 1]), P([1]))),),))
    cleared = DataArray(3, 1, ((MeroVector((P([1]), P([0, -0.5, 1]), P([-0.5, 1]))),),))
    return rational, cleared


def test_build_fiber_at_a_pole_of_the_data_is_the_cleared_columns():
    # a scalar multiplier moves no span: the chain at the pole is the cleared column's
    rational, cleared = _pole_and_cleared()
    for z in (0.5, 0.5 + 1e-9j, 0.5 + 0.1j):
        a, b = build_fiber(rational, z).chain, build_fiber(cleared, z).chain
        assert np.array_equal(a.ranks, b.ranks)
        assert np.abs(a.pis - b.pis).max() <= 1e-12


def test_sample_points_need_no_clearance_from_poles():
    rational, cleared = _pole_and_cleared()
    pts = draw_sample_points(rational, 25, seed=3)
    assert pts == draw_sample_points(cleared, 25, seed=3)
    assert len(pts) == 25
    assert all(abs(z) <= 2.0 + 1e-12 for z in pts)


def test_sample_points_deterministic():
    data = random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=0)
    assert draw_sample_points(data, 5, seed=4) == draw_sample_points(data, 5, seed=4)
    assert draw_sample_points(data, np.int64(5), seed=4) == draw_sample_points(data, 5, seed=4)
    for count in (2.5, 2.0, True, False, "2", None):  # 2.5 once raised TypeError, True drew 1 point
        with pytest.raises(BadShape, match="count must be an integer"):
            draw_sample_points(data, count)


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
        except DegeneratePoint:
            with pytest.raises(DegeneratePoint):
                batch.at(p)
            continue
        got = batch.at(p)
        assert np.array_equal(got.ranks, single.ranks)
        assert np.abs(got.pis - single.pis).max() <= 1e-12
        assert np.abs(got.kvecs - single.kvecs).max() <= 1e-12
    return batch


def test_equal_data_built_apart_hits_the_table_cache():
    from unitons.builder import _tables
    from unitons.serialize import data_from_json, data_to_json

    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=8)
    again = data_from_json(data_to_json(data))
    assert again == data and again.columns is not data.columns
    _tables.cache_clear()
    first = chain_arrays(data, [0.3 + 0.1j])
    second = chain_arrays(again, [0.3 + 0.1j])
    info = _tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(first.pis, second.pis)


def test_chain_batch_matches_single_points():
    # a pole at 0.5, where the cleared first rows (z - 0.5, 0, 1) and
    # (z - 0.5, 1e-7 z (z - 0.5), 1) meet in one line, and two columns that
    # are nearly dependent near z = 0.03 (as in the degenerate-point test);
    # ranks of alpha_1 differ between the ordinary points of the batch
    pole_fn = RationalFn((1,), (-0.5, 1))
    col_a = (MeroVector((P([1]), P([0]), pole_fn)), MeroVector((P([0, 1]), P([2]), P([0]))))
    col_b = (MeroVector((P([1]), P([0, 1e-7]), pole_fn)), MeroVector((P([0]), P([1, 1]), P([0, 0, 1]))))
    data = DataArray(3, 2, (col_a, col_b))
    batch = _assert_batch_matches_points(data, [0.001j, 0.5, 0.03 + 0.01j, -1 + 0.5j, 1.2 - 0.7j, 0.0005])
    assert batch.ambiguous.tolist() == [False, False, True, False, False, False]
    assert batch.ranks[[0, 1, 3, 4, 5], 0].tolist() == [1, 1, 2, 2, 1]
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=2)
    zs = list(np.random.default_rng(3).uniform(-1.4, 1.4, (16, 2)) @ [1, 1j])
    assert not _assert_batch_matches_points(data, zs).ambiguous.all()


def _full_column_chain(data, zs):
    # the reference: the kernel on every column's derivative table, dead ones included
    from unitons import kernels

    vals = derivative_values(data.n, data.r, data.columns, zs)
    assert vals.shape[3] == len(data.columns)
    return kernels.build_chain(vals)


def _with_zero_columns(data, at):
    cols = list(data.columns)
    for j in sorted(at):
        cols.insert(j, tuple(MeroVector.zero(data.n) for _ in range(data.r)))
    return DataArray(data.n, data.r, tuple(cols))


def test_dead_columns_leave_the_kernel_input_and_change_no_chain():
    zs = list(np.random.default_rng(4).uniform(-1.4, 1.4, (12, 2)) @ [1, 1j])
    base = random_data(5, 3, 3, sparsity_pattern=(1, 2, 3), seed=1)
    data = _with_zero_columns(base, (0, 2))  # dead columns 0, 2, 5 and 6 of 7
    live = [1, 3, 4]
    batch = chain_arrays(data, zs)
    pis, _, ranks, kvecs, status = _full_column_chain(data, zs)
    assert np.array_equal(batch.ranks, ranks)
    assert np.array_equal(batch.ambiguous, status != 0)
    assert np.abs(batch.pis - pis).max() <= 1e-13
    # K-vectors stay on the table's slots, one per live column in order
    assert batch.kvecs.shape == kvecs.shape[:3] + (len(live),) + kvecs.shape[4:]
    assert not kvecs[:, :, :, [0, 2, 5, 6]].any()
    assert np.abs(on_all_columns(data.columns, batch.kvecs) - kvecs).max() <= 1e-12
    # a dead column leaves the kernel's input, so inserting one changes no bit
    plain = chain_arrays(base, zs)
    assert batch.pis.tobytes() == plain.pis.tobytes()
    assert batch.kvecs.tobytes() == plain.kvecs.tobytes()


def test_all_dead_columns_give_rank_zero_without_an_empty_svd(monkeypatch):
    svd = np.linalg.svd

    def nonempty_svd(mat, *args, **kwargs):
        assert mat.size
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", nonempty_svd)
    data = DataArray(4, 2, tuple((MeroVector.zero(4), MeroVector.zero(4)) for _ in range(3)))
    batch = chain_arrays(data, [0.3, -1j])
    assert batch.ranks.tolist() == [[0, 0], [0, 0]]
    assert batch.kvecs.shape == (2, 2, 2, 1, 4) and not batch.kvecs.any()  # one padding slot
    assert not batch.ambiguous.any()


def test_zero_entries_over_a_denominator_are_dead():
    # 0/(z - 1) is the zero function: its column is dead, and z = 1 is an ordinary point
    from unitons.builder import _tables

    zero_over = MeroVector((RationalFn((0,), (-1, 1)),) * 3)
    col = (MeroVector((P([1]), P([0, 1]), P([2, 0, 1]))), MeroVector((P([0, 1]), P([1]), P([0]))))
    data = DataArray(3, 2, (col, (zero_over, zero_over), (MeroVector.zero(3),) * 2))
    plain = DataArray(3, 2, (col,))
    assert _tables(3, 2, data.columns).shape[2] == 1  # one slot: column 0's
    batch = chain_arrays(data, [1.0, 0.4 + 0.2j])
    expected = chain_arrays(plain, [1.0, 0.4 + 0.2j])
    assert not batch.ambiguous.any() and batch.kvecs.shape[3] == 1
    assert batch.pis.tobytes() == expected.pis.tobytes()
    assert batch.kvecs.tobytes() == expected.kvecs.tobytes()


def test_dense_chains_are_the_full_column_kernel_bit_for_bit():
    data = random_data(4, 3, 2, seed=3)
    zs = list(np.random.default_rng(5).uniform(-1.4, 1.4, (8, 2)) @ [1, 1j])
    batch = chain_arrays(data, zs)
    full = _full_column_chain(data, zs)
    for got, want in zip((batch.pis, batch.perps, batch.ranks, batch.kvecs), full):
        assert got.tobytes() == want.tobytes()


def test_fullness_flag():
    full_col = (MeroVector((P([1]), P([0, 1]), P([0, 0, 1]))),)
    assert alpha1_is_full(DataArray(3, 1, (full_col,)))
    flat_col = (MeroVector((P([1]), P([0, 1]), P([0]))),)
    assert not alpha1_is_full(DataArray(3, 1, (flat_col,)))


def test_extended_product_broadcasts_bit_for_bit():
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=2)
    batch = chain_arrays(data, draw_sample_points(data, 4, seed=3))
    lams = np.exp(2j * np.pi * np.arange(3) / 3)
    got = extended_product(batch.pis[:, None], batch.perps[:, None], lams[:, None, None, None])
    assert got.shape == (4, 3, 5, 5)
    for p in range(4):
        for q, lam in enumerate(lams):
            assert np.array_equal(got[p, q], extended_product(batch.pis[p], batch.perps[p], lam))
    r0 = chain_arrays(random_data(3, 0, 2, seed=0), [0.1, 0.2])
    assert np.array_equal(extended_product(r0.pis, r0.perps, -1), np.broadcast_to(np.eye(3), (2, 3, 3)))


@pytest.mark.parametrize("n", range(3, 9))
def test_extended_coefficients_are_the_per_block_products_bit_for_bit(n):
    # one product per projector and step gives each coefficient's own products' bits
    zs = np.random.default_rng(n).uniform(-1.4, 1.4, (30, 2)) @ [1, 1j]
    for r in range(1, n):
        batch = chain_arrays(random_data(n, r, 3, seed=n + r), zs)
        want = extended_coefficients_per_block(batch.pis, batch.perps, n)
        assert extended_coefficients(batch.pis, batch.perps, n).tobytes() == want.tobytes()
        stencil = batch.take(np.arange(27).reshape(9, 3))  # verify's (9, S) layout
        assert (extended_coefficients(stencil.pis, stencil.perps, n).tobytes()
                == extended_coefficients_per_block(stencil.pis, stencil.perps, n).tobytes())


def test_extended_coefficients_and_reality_broadcast_bit_for_bit():
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=2)
    batch = chain_arrays(data, draw_sample_points(data, 4, seed=3))
    stacked = extended_coefficients(batch.pis, batch.perps, 5)
    assert stacked.shape == (4, 5, 5, 5)
    real = reality_defect(stacked)
    for p in range(4):
        single = extended_coefficients(batch.pis[p], batch.perps[p], 5)
        assert stacked[p].tobytes() == single.tobytes()
        assert real[p].tobytes() == np.float64(reality_defect(single)).tobytes()
    # a stack of stacks, and r = 0
    twice = extended_coefficients(np.stack([batch.pis] * 2), np.stack([batch.perps] * 2), 5)
    assert twice.tobytes() == np.stack([stacked] * 2).tobytes()
    r0 = chain_arrays(random_data(3, 0, 2, seed=0), [0.1, 0.2])
    assert np.array_equal(extended_coefficients(r0.pis, r0.perps, 3), np.broadcast_to(np.eye(3), (2, 1, 3, 3)))


def test_build_fiber_names_the_first_escaping_k_vector(monkeypatch):
    from unitons import builder

    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=5)
    z = draw_sample_points(data, 1, seed=6)[0]
    assert build_fiber(data, z).chain.ranks.tolist() == [1, 3]
    monkeypatch.setattr(builder, "ESCAPE_ATOL", -1.0)  # every K-vector escapes
    with pytest.raises(DegeneratePoint, match=r"K\^\(0\)_0,0 escapes alpha_1"):
        build_fiber(data, z)


@pytest.mark.parametrize("data", [random_data(4, 3, 3, seed=0), random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0)],
                         ids=["dense", "echelon"])
def test_empty_point_batches_give_empty_chains(data):
    # an empty point axis leaves a -1 reshape in the step SVD undetermined
    empty, two = chain_arrays(data, []), chain_arrays(data, [Z, -Z])
    for got, want in zip(empty, two):
        assert got.shape == (0,) + want.shape[1:]
    assert two.pis.shape == (2, data.r, data.n, data.n)
    assert draw_sample_points(data, 0) == [] and draw_sample_points(data, 0, stencil_h=1e-3) == []


def test_a_point_whose_values_overflow_names_both_causes():
    # one flag covers an ambiguous rank and values that are not finite, so the message names both
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=2)
    assert chain_arrays(data, [1e200]).ambiguous.tolist() == [True]
    with pytest.raises(DegeneratePoint, match="ambiguous rank decision or data values not finite at z=.1e.200"):
        build_fiber(data, 1e200)


SERVED_SHAPES = [(3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1))]


def _counted_builds(monkeypatch):
    calls, build_chain = [], kernels.build_chain
    monkeypatch.setattr(kernels, "build_chain", lambda hvals: calls.append(len(hvals)) or build_chain(hvals))
    return calls


def _one_point_values(data, z):
    s = HarmonicMapSampler(data)
    fib = build_fiber(data, z)
    return ([fib.chain.pis, fib.chain.perps, fib.chain.kvecs, fib.chain.ranks, s.map_at(z),
             evaluate_map(s, z), s.extended_coeffs_at(z)] + [s.prefix_map_at(z, ell) for ell in range(data.r + 1)])


@pytest.mark.parametrize("n, r, pattern", SERVED_SHAPES, ids=[f"{n}-{r}" for n, r, _ in SERVED_SHAPES])
def test_one_point_builds_at_drawn_points_are_served_bit_for_bit(n, r, pattern, monkeypatch):
    # the draw's kernel call serves every one-point build at its points; an equal
    # DataArray built apart is another data object, so its builds are misses
    from unitons.serialize import data_from_json, data_to_json

    data = random_data(n, r, 3, sparsity_pattern=pattern, seed=4)
    apart = data_from_json(data_to_json(data))
    calls = _counted_builds(monkeypatch)
    for z in draw_sample_points(data, 12, seed=6):
        del calls[:]
        served = _one_point_values(data, z)
        assert calls == []
        missed = _one_point_values(apart, z)
        assert calls == [1] * (r + 5)
        for got, want in zip(served, missed, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 1e300, 0.0, -1e-3, 2.5])
def test_draw_refuses_a_stencil_step_outside_the_disc(h, monkeypatch):
    # a non-finite or far too wide step once spent 100 rejections and raised DegeneratePoint
    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=5)
    calls = _counted_builds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadShape, match=r"stencil_h must be in \(0, 2.0\]"):
            draw_sample_points(data, 3, stencil_h=h)
    assert calls == []
    assert len(draw_sample_points(data, 3, stencil_h=2.0)) == 3


def test_a_served_chain_is_a_fresh_copy():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=0)
    z = draw_sample_points(data, 3, seed=2)[1]
    first = chain_arrays(data, [z])
    want = [field.copy() for field in first]
    for field in first:
        field[...] = 0
    build_fiber(data, z).chain.pis[...] = 7.0
    assert all(np.array_equal(got, w) for got, w in zip(chain_arrays(data, [z]), want, strict=True))


def test_undrawn_points_other_data_and_earlier_draws_are_misses(monkeypatch):
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=0)
    equal = DataArray(data.n, data.r, data.columns)
    assert equal == data and equal.columns is not data.columns
    earlier = draw_sample_points(data, 4, seed=1)
    later = draw_sample_points(data, 4, seed=2)
    calls = _counted_builds(monkeypatch)
    build_fiber(data, later[0])
    assert calls == []
    for source, z in ((data, Z), (data, earlier[0]), (equal, later[0])):
        build_fiber(source, z)
        assert calls == [1]
        del calls[:]
    chain_arrays(data, later[:2])  # a batch of drawn points is built
    assert calls == [2]


def test_the_slot_holds_the_last_draw_only():
    from unitons import builder

    draws = []
    for seed in range(50):
        data = random_data(3, 2, 2, sparsity_pattern=(1, 1), seed=seed)
        draws.append((data, draw_sample_points(data, 3, seed=seed)))
    key, index, row = builder._last_draw
    data, points = draws[-1]
    assert key is data and list(index) == points and row.zs.tolist() == points
    assert all(builder._last_draw[1].keys().isdisjoint(pts) for _, pts in draws[:-1])


@pytest.mark.parametrize("P", [0, 1, 9])
def test_r0_chains_are_empty_and_a_drawn_point_keeps_its_own_n(P):
    # r = 0 data go through the table and the kernel, whose loops run zero times
    data = random_data(3, 0, 2, seed=0)
    batch = chain_arrays(data, np.linspace(-1, 1, P) + 0.5j)
    assert batch.pis.shape == batch.perps.shape == (P, 0, 3, 3) and batch.ranks.shape == (P, 0)
    assert batch.pis.size == batch.perps.size == batch.ranks.size == batch.kvecs.size == 0
    assert batch.ambiguous.tolist() == [False] * P
    # every r = 0 DataArray shares the empty columns tuple: the slot is keyed on the data object
    other = random_data(4, 0, 2, seed=1)
    assert other.columns is data.columns
    z = draw_sample_points(other, 3, seed=P)[0]
    assert chain_arrays(data, [z]).pis.shape == (1, 0, 3, 3)
    assert chain_arrays(other, [z]).pis.shape == (1, 0, 4, 4)


CRITERION_2 = [(n, r, pattern, seed) for seed in range(4)
               for n, r, pattern in [(3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)),
                                     (5, 3, (1, 2, 2))]]


@pytest.mark.parametrize("mode", ["stencil", "stencil-reject", "points"])
@pytest.mark.parametrize("case", CRITERION_2, ids=lambda c: f"{c[0]}-{c[1]}-s{c[3]}-{'-'.join(map(str, c[2]))}")
def test_draw_lays_its_batch_out_as_the_fancy_index_did_bit_for_bit(case, mode, monkeypatch):
    # the draw reshapes each block to (offsets, candidates), then takes and concatenates the
    # accepted candidates; a rejecting first block is followed by a second
    from unitons import builder
    from unitons.verifier import FD_STEP

    from oracles import draw_reference

    n, r, pattern, seed = case
    data = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
    h = None if mode == "points" else FD_STEP
    if mode == "stencil-reject":
        arrays, blocks = builder.chain_arrays, []

        def flagged(data, zs):  # candidate 1 of the first (27-point) block changes rank at its centre
            batch = arrays(data, zs)
            blocks.append(len(zs))
            if len(zs) == 27:
                ranks = batch.ranks.copy()
                ranks[1, 0] += 1
                batch = batch._replace(ranks=ranks)
            return batch

        monkeypatch.setattr(builder, "chain_arrays", flagged)
    want_points, want = draw_reference(data, 3, 5, h)
    points, got = builder._draw(data, 3, 5, h)
    if mode == "stencil-reject":
        assert blocks == [27, 9, 27, 9]
        monkeypatch.setattr(builder, "chain_arrays", arrays)
    assert points == want_points
    for name in got._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for p, z in enumerate(points):  # served one-point builds: the row-0 view, taken at the point
        served, head = chain_arrays(data, [z]), want.take(0).take([p])
        for a, b in zip(served, head, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_served_builds_make_no_kernel_call(monkeypatch):
    # counts repeat exactly for fixed seeds: the one-point builds at drawn points
    # add no call to the draws' own
    from unitons.verifier import harmonicity_residual, stencil_chains

    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=3)
    calls = _counted_builds(monkeypatch)
    draw_sample_points(data, 12)
    full = alpha1_is_full(data)
    alone = len(calls)
    del calls[:]
    fibers = [build_fiber(data, z) for z in draw_sample_points(data, 12)]
    assert all(f.proper for f in fibers) and alpha1_is_full(data) == full
    assert len(calls) == alone
    del calls[:]
    draw_sample_points(data, 20, seed=3)
    alone = len(calls)
    del calls[:]
    sampler = HarmonicMapSampler(data)
    for z in draw_sample_points(data, 20, seed=3):
        sampler.extended_coeffs_at(z)
    assert len(calls) == alone
    del calls[:]
    chains = stencil_chains(data, z)  # a stencil at a drawn point is one 9-point build
    assert calls == [9]
    assert harmonicity_residual(extended_product(chains.pis, chains.perps, -1), z) < 1e-5
