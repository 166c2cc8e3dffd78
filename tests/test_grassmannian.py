import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitons import (
    DataArray,
    DegreeNoDrop,
    HarmonicMapSampler,
    LoopPoly,
    MeroVector,
    NotLambdaInvariant,
    QInvolution,
    RationalFn,
    WSubspace,
    binomial_transform,
    build_fiber,
    builder,
    draw_sample_points,
    extended_coefficients,
    iwasawa_factorize,
    kernel_factorize_fiber,
    kernels,
    meromorphic,
    normalize_type_one,
    orthonormal_basis,
    q_adapted_check,
    random_data,
    s1_invariant_data,
    serialize,
    w_from_loop,
    w_from_x,
    x_columns_from_data,
)
from unitons.builder import _tables, chain_arrays, extended_product
from unitons.errors import BadShape, NonProperUniton
from unitons.projections import Span, factor_products

from oracles import (
    binomial_transform_integer,
    derivative_values,
    iwasawa_per_fiber,
    kernel_descent_per_fiber,
    max_principal_angle,
    normalize_type_one_per_point,
    on_all_columns,
    q_adapted_defect_per_fiber,
    random_chain,
    span_gap,
    w_basis_per_fiber,
    w_from_x_per_vector,
    w_span,
)

P = RationalFn.polynomial

Z = 0.29 + 0.41j


def loop_at(data, z):
    s = HarmonicMapSampler(data)
    return LoopPoly(s.extended_coeffs_at(z))


def chain_gap(pis_a, pis_b):
    return max((span_gap(orthonormal_basis(p1), orthonormal_basis(p2))
                for p1, p2 in zip(pis_a, pis_b)), default=0.0)


def ranks(pis):
    return serialize.chain_to_json(pis)["ranks"]


def test_binomial_transform_rows():
    # the Pascal product of the column's normal form on every derivative order it holds
    table = _tables(1, 3, (tuple(MeroVector((P([1, t, t * t]),)) for t in range(1, 4)),))
    ell = binomial_transform(table)
    assert np.array_equal(ell[:, 0], table[:, 0])
    assert np.array_equal(ell[:2, 1], table[:2, 0] + table[:2, 1])
    assert np.array_equal(ell[0, 2], table[0, 0] + 2 * table[0, 1] + table[0, 2])
    assert not table[1:, 2].any() and not ell[1:, 2].any() and not ell[2, 1:].any()  # zeros at k + i > r-1


def test_binomial_transform_r1_identity():
    table = _tables(2, 1, ((MeroVector((P([2, 1j]), P([0, 3]))),),))
    assert np.array_equal(binomial_transform(table), table)


def test_w_from_x_constant_section():
    # r=2 constant X = span{(L0, L1)} -> W = span{(L0, L1), (0, L0)}
    l0 = MeroVector((P([1]), P([2])))
    l1 = MeroVector((P([0]), P([1j])))
    w = w_from_x(_tables(2, 2, ((l0, l1),)), Z)
    expect = orthonormal_basis(
        np.column_stack(
            [
                np.concatenate([l0.eval(Z), l1.eval(Z)]),
                np.concatenate([np.zeros(2), l0.eval(Z)]),
            ]
        )
    )
    assert w.dim == 2
    assert max_principal_angle(w_span(w), expect) <= 1e-12


def test_w_from_x_at_a_pole_of_x_is_the_cleared_columns():
    # (1/(z - 0.5), 1) over (z, 2) spans what its cleared form (1, z - 0.5) over (z (z - 0.5), 2 (z - 0.5)) spans
    col = (MeroVector((RationalFn((1,), (-0.5, 1)), P([1]))), MeroVector((P([0, 1]), P([2]))))
    cleared = (MeroVector((P([1]), P([-0.5, 1]))), MeroVector((P([0, -0.5, 1]), P([-1, 2]))))
    for z in (0.5, Z):
        w, want = w_from_x(_tables(2, 2, (col,)), z), w_from_x(_tables(2, 2, (cleared,)), z)
        assert w.dim == want.dim == 3  # X, lambda X and lambda X'
        assert max_principal_angle(w_span(w), w_span(want)) <= 1e-12


@pytest.mark.parametrize("data", [DataArray(3, 0, ((),)), random_data(3, 0, 2)], ids=["one-column", "no-column"])
def test_w_from_x_r0_is_the_zero_subspace(data):
    # r = 0: W = H_+, the zero subspace of C^0, as w_from_loop gives for a degree-0 loop
    w, from_loop = w_from_x(x_columns_from_data(data), Z), w_from_loop(LoopPoly(np.eye(3)[None]))
    assert w.r == from_loop.r == 0 and w.dim == from_loop.dim == 0
    assert w.basis.shape == from_loop.basis.shape == (0, 0)
    pis, perps = iwasawa_factorize(w)
    assert pis.size == perps.size == 0


def test_w_from_x_r1_is_fiber():
    col = (MeroVector((P([1]), P([0, 1]), P([3]))),)
    w = w_from_x(_tables(3, 1, (col,)), Z)
    assert w.r == 1 and w.dim == 1
    assert max_principal_angle(w_span(w), orthonormal_basis(col[0].eval(Z))) <= 1e-12


def test_w_from_x_gathers_the_per_vector_construction():
    # no dead column: the gathered spanning matrix is the per-vector one, bit for bit
    data = random_data(4, 3, 3, seed=22)
    xcols = x_columns_from_data(data)
    for z in draw_sample_points(data, 4, seed=3):
        assert np.array_equal(w_from_x(xcols, z).basis, w_from_x_per_vector(xcols, z, data.columns))


def test_w_from_x_skips_dead_columns():
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0)
    xcols = x_columns_from_data(data)
    assert 0 < xcols.shape[2] < len(data.columns)  # echelon data leaves most columns zero: they get no slot
    for z in draw_sample_points(data, 6, seed=3):
        w, per_vector = w_from_x(xcols, z), w_from_x_per_vector(xcols, z, data.columns)
        assert w.basis.shape == per_vector.shape
        assert span_gap(w_span(w), orthonormal_basis(per_vector)) <= 1e-12
        wl = w_from_loop(loop_at(data, z))
        assert w.dim == wl.dim and span_gap(w_span(w), w_span(wl)) <= 1e-10


def test_w_from_x_of_only_dead_columns_is_zero():
    zero = tuple(MeroVector.zero(3) for _ in range(2))
    w = w_from_x(_tables(3, 2, (zero, zero)), Z)
    assert w.dim == 0 and w.basis.shape == (6, 0)


def test_w_from_loop_identity_padded():
    coeffs = np.zeros((3, 2, 2), np.complex128)
    coeffs[0] = np.eye(2)  # the identity as a degree-2 loop
    w = w_from_loop(LoopPoly(coeffs))
    assert w.dim == 4  # all of H_+ / lambda^2 H_+


def test_w_from_loop_diagonal_example():
    coeffs = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    w = w_from_loop(LoopPoly(coeffs))
    assert w.r == 1 and w.dim == 1
    assert max_principal_angle(w_span(w), orthonormal_basis(np.array([1.0, 0.0]))) <= 1e-12


def test_grassmannian_model_equivalence():
    # Theorem: W from the binomial-transformed data equals Phi(H_+)
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 2), seed=22)
    xcols = x_columns_from_data(data)
    for z in draw_sample_points(data, 5, seed=23):
        wx = w_from_x(xcols, z)
        wl = w_from_loop(loop_at(data, z))
        assert wx.dim == wl.dim
        assert max_principal_angle(w_span(wx), w_span(wl)) <= 1e-8


GENERATED = [(3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2)), (4, 3, None),
             (4, 3, (1, 1, 2))]


@pytest.mark.parametrize("shape", GENERATED, ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_x_is_the_integer_pascal_sums_of_the_data_table_bit_for_bit(shape):
    # X is the Pascal product of the data's table, exact on Gaussian integers, in the table's layout
    n, r, pattern = shape
    above = np.add.outer(np.arange(r), np.arange(r)) >= r
    for seed in range(4):
        data = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
        table, x = _tables(n, r, data.columns), x_columns_from_data(data)
        assert x.tobytes() == binomial_transform_integer(table).tobytes()
        # zeros above, as in the data's table, and wherever the data's rows l <= i are all zero
        assert not table[above].any() and not x[above].any()
        assert not x[~np.logical_or.accumulate(table != 0, axis=1)].any()


def test_x_from_a_cached_table_computes_no_normal_form(monkeypatch):
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 2), seed=1)
    zs = draw_sample_points(data, 20, seed=2)
    _tables.cache_clear()
    _tables(data.n, data.r, data.columns)
    calls, form = [], meromorphic.polynomial_column
    for module in (builder, meromorphic):
        monkeypatch.setattr(module, "polynomial_column", lambda col: calls.append(col) or form(col))
    xcols = x_columns_from_data(data)
    for z in zs:
        w_from_x(xcols, z)
    assert calls == []


def test_x_is_a_new_array_and_leaves_the_cached_table_alone():
    data = random_data(5, 3, 3, sparsity_pattern=(1, 2, 2), seed=3)
    zs = draw_sample_points(data, 3, seed=4)
    table = _tables(data.n, data.r, data.columns)
    kept, before = table.tobytes(), chain_arrays(data, zs)
    xcols = x_columns_from_data(data)
    for z in zs:
        w_from_x(xcols, z)
    assert _tables(data.n, data.r, data.columns) is table and table.tobytes() == kept
    xcols[...] = 7.0
    for field, again in zip(before, chain_arrays(data, zs)):
        assert field.tobytes() == again.tobytes()


def test_lemma_42_sum_identities():
    # sum_s S^i_s L^(k)_{s-j} = sum_s C^i_s H^(k)_{s-j}, equal to K_i^(k) when
    # j = k and to zero when j > k, for 0 <= k <= j <= i
    data = random_data(4, 3, 3, sparsity_pattern=(1, 2, 2), seed=24)
    z = draw_sample_points(data, 1, seed=25)[0]
    fib = build_fiber(data, z)
    pis, perps = fib.chain.pis, fib.chain.perps
    # derivative values [k, row, column] of the data's and of X's tables at z, zero in a dead column
    hd = derivative_values(data.n, data.r, data.columns, [z])[0]
    ld = on_all_columns(data.columns, kernels.eval_table(x_columns_from_data(data), np.array([z]))[0])
    kvecs = on_all_columns(data.columns, fib.chain.kvecs)
    for ci in range(len(data.columns)):
        for i in range(1, data.r):  # K_i^(k) lives at chain step i (i <= r-1)
            S = factor_products(pis[:i], perps[:i], data.n)
            C = factor_products(None, perps[:i], data.n, top=i)
            for k in range(i + 1):
                for j in range(k, i + 1):
                    lhs = sum(S[s] @ ld[k, s - j, ci] for s in range(j, i + 1))
                    rhs = sum(C[s] @ hd[k, s - j, ci] for s in range(j, i + 1))
                    assert np.linalg.norm(lhs - rhs) <= 1e-7
                    if j > k:
                        assert np.linalg.norm(lhs) <= 1e-7
                    else:
                        assert np.linalg.norm(lhs - kvecs[i, k, ci]) <= 1e-7


def test_iwasawa_trivial_cases():
    w = WSubspace(1, 2, np.array([[1.0], [0.0]], dtype=complex))
    pis, perps = iwasawa_factorize(w)
    assert ranks(pis) == [1]
    assert np.allclose(pis[0], np.diag([1.0, 0.0]))
    # reconstructed loop diag(1, lambda) maps H_+ onto W
    again = w_from_loop(LoopPoly(np.array([pis[0], perps[0]])))
    assert max_principal_angle(w_span(again), w_span(w)) <= 1e-7

    full = WSubspace(1, 2, np.eye(2, dtype=complex))
    pis, _ = iwasawa_factorize(full)
    assert ranks(pis) == [2]  # non-proper, emitted as a +I factor


def test_iwasawa_rejects_non_invariant():
    # span{(e1, e2)} / sqrt 2 is not closed under the shift: no WSubspace holds
    # it, so it never reaches the factorization
    basis = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex) / np.sqrt(2)
    with pytest.raises(NotLambdaInvariant):
        iwasawa_factorize(WSubspace(2, 2, basis))


def test_kernel_factorize_single_uniton():
    rng = np.random.default_rng(28)
    q, _ = np.linalg.qr(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
    pi = q @ q.conj().T
    perp = np.eye(3) - pi
    pis, _ = kernel_factorize_fiber(LoopPoly(np.array([pi, perp])))
    assert ranks(pis) == [1]
    assert np.abs(pis[0] - pi).max() <= 1e-9


def test_kernel_factorize_roundtrip_and_agreement():
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=29)
    for z in draw_sample_points(data, 3, seed=30):
        fib = build_fiber(data, z)
        loop = loop_at(data, z)
        ker, _ = kernel_factorize_fiber(loop)
        iwa, _ = iwasawa_factorize(w_from_loop(loop))
        assert chain_gap(ker, fib.chain.pis) <= 1e-7
        assert chain_gap(iwa, fib.chain.pis) <= 1e-7
        assert chain_gap(iwa, ker) <= 1e-7


def test_kernel_factorize_fiber_matches_built_chain():
    data = random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=31)
    for z in draw_sample_points(data, 2, seed=32):
        ker, _ = kernel_factorize_fiber(loop_at(data, z))
        assert chain_gap(ker, build_fiber(data, z).chain.pis) <= 1e-7


def test_kernel_factorize_rejects_bad_loops():
    pi = np.diag([1.0, 0.0]).astype(complex)
    perp = np.eye(2) - pi
    # zero constant term (a lambda * I factor hidden inside)
    with pytest.raises(DegreeNoDrop):
        kernel_factorize_fiber(LoopPoly(np.array([np.zeros((2, 2)), pi, perp])))
    # reality violated
    with pytest.raises(DegreeNoDrop):
        kernel_factorize_fiber(LoopPoly(np.array([np.eye(2), 0.5 * np.eye(2)])))


def test_reality_precondition_on_built_loops():
    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=33)
    loop = loop_at(data, Z)
    t0, tr = loop.coeffs[0], loop.coeffs[-1]
    assert np.abs(t0 @ tr.conj().T).max() <= 1e-10
    assert np.abs(tr.conj().T @ t0).max() <= 1e-10


def test_normalize_type_one_already_normal():
    data = random_data(3, 1, 3, seed=34)  # full alpha_1 generically
    pts = draw_sample_points(data, 4, seed=35)
    pre, norm = normalize_type_one(lambda z: loop_at(data, z), pts)
    assert len(pre.factors) == 0  # the identity prefactor
    assert norm(pts[0]).degree == 1


def test_normalize_type_one_non_full_example():
    # h = span{(1, z, 0)} lives in A = span{e1, e2}; h-tilde = h + A_perp
    h0 = MeroVector((P([1]), P([0, 1]), P([0])))
    data = DataArray(3, 1, ((h0,),))
    pts = draw_sample_points(data, 4, seed=36)
    pre, norm = normalize_type_one(lambda z: loop_at(data, z), pts)
    assert [sp.dim for sp in pre.factors] == [2]
    assert max_principal_angle(pre.factors[0], orthonormal_basis(np.eye(3)[:, :2])) <= 1e-8
    z = pts[0]
    loop = norm(z)
    assert loop.degree == 1
    target = orthonormal_basis(np.column_stack([h0.eval(z), [0, 0, 1]]))
    assert max_principal_angle(orthonormal_basis(loop.coeffs[0]), target) <= 1e-8
    # prefactor really is (pi_A + 1/lambda pi_A_perp)
    lam = np.exp(0.3j)
    original = loop_at(data, z)
    assert np.abs(pre.at(lam) @ original.at(lam) - loop.at(lam)).max() <= 1e-10


def test_normalize_type_one_no_termination():
    from unitons import NoTermination

    dead = LoopPoly(np.array([np.zeros((2, 2)), np.eye(2)], dtype=complex))
    with pytest.raises(NoTermination):
        normalize_type_one(lambda z: dead, [0.1 + 0.2j])


def test_normalize_type_one_degree_drop_example():
    # quadratic extended solution collapsing to pi_g + lambda pi_g_perp
    h0 = MeroVector((P([1]), P([0, 1]), P([0])))
    h1 = MeroVector((P([0]), P([0]), P([0, 0, 1])))
    data = DataArray(3, 2, ((h0, h1),))
    pts = draw_sample_points(data, 4, seed=37)
    pre, norm = normalize_type_one(lambda z: loop_at(data, z), pts)
    z = pts[0]
    loop = norm(z)
    assert loop.degree == 1
    g = orthonormal_basis(h0.eval(z) + h1.eval(z))
    assert max_principal_angle(orthonormal_basis(loop.coeffs[0]), g) <= 1e-8


def test_the_in_place_factor_steps_leave_their_inputs_unchanged():
    # factor_step writes in place: the type-one normalization and its sampler, the kernel
    # descent and the Iwasawa steps must leave the loops and the W bases they are given as they were
    h0 = MeroVector((P([1]), P([0, 1]), P([0])))
    h1 = MeroVector((P([0]), P([0]), P([0, 0, 1])))
    quadratic = DataArray(3, 2, ((h0, h1),))
    pts = draw_sample_points(quadratic, 4, seed=37)
    loops = {z: loop_at(quadratic, z) for z in pts}
    before = [loop.coeffs.tobytes() for loop in loops.values()]
    pre, norm = normalize_type_one(loops.__getitem__, pts)
    assert len(pre.factors) == 1 and norm(pts[0]).degree == 1  # a constant-loop step that drops the degree
    for z in pts:
        norm(z)
    assert [loop.coeffs.tobytes() for loop in loops.values()] == before
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=1)
    batch = chain_arrays(data, draw_sample_points(data, 4, seed=2))
    T = extended_coefficients(batch.pis, batch.perps, 5)
    kept = T.tobytes()
    kernel_factorize_fiber(LoopPoly(T))
    kernel_factorize_fiber(LoopPoly(T[0]))
    assert T.tobytes() == kept
    for w in (w_from_loop(LoopPoly(T)), w_from_loop(LoopPoly(T[0]))):
        kept = w.basis.tobytes()
        iwasawa_factorize(w)
        assert w.basis.tobytes() == kept


def test_q_adapted_even_odd():
    # X spanned by an even polynomial: W is nu_I-invariant, spanned by its nu_I eigenvectors
    l0 = MeroVector((P([1]), P([0, 1]), P([0]), P([0])))
    l2 = MeroVector((P([0]), P([0]), P([1, 1]), P([0, 0, 1])))
    zero = MeroVector.zero(4)
    w = w_from_x(_tables(4, 3, ((l0, zero, l2),)), Z)
    q = QInvolution.identity(4)
    res = q_adapted_check(w, q)
    assert res.defect <= 1e-7 and res.adapted
    moved = q.nu_matrix(w.r) @ w.basis
    plus, minus = orthonormal_basis(w.basis + moved), orthonormal_basis(w.basis - moved)
    assert plus.dim + minus.dim == w.dim
    n = 4
    for k in range(3):
        sign = (-1) ** k
        blocks_plus = plus.basis[k * n : (k + 1) * n]
        blocks_minus = minus.basis[k * n : (k + 1) * n]
        if sign == -1:
            assert np.abs(blocks_plus).max() <= 1e-9  # (+) vectors vanish on odd blocks for Q=I
        else:
            assert np.abs(blocks_minus).max() <= 1e-9


def test_q_adapted_negative_control():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=38)
    w = w_from_loop(loop_at(data, Z))
    res = q_adapted_check(w, QInvolution.identity(4))
    assert res.defect > 1e-2 and not res.adapted


def test_q_adapted_s1_invariant_maps():
    data = s1_invariant_data(4, (1, 1, 1), 3, seed=39)
    s = HarmonicMapSampler(data)
    for z in draw_sample_points(data, 3, seed=40):
        w = w_from_loop(LoopPoly(s.extended_coeffs_at(z)))
        res = q_adapted_check(w, QInvolution.identity(4))
        assert res.defect <= 1e-7
        m = s.map_at(z)  # Phi_{-1} = phi for phi_0 = I
        assert np.abs(m @ m - np.eye(4)).max() <= 1e-10


H0 = MeroVector((P([1]), P([0, 1]), P([0])))  # h = (1, z, 0), inside the constant A = span{e1, e2}


@pytest.mark.parametrize("data, seed", [
    (DataArray(3, 1, ((H0,),)), 12),  # criterion 8 (a): one constant-loop step
    (DataArray(3, 2, ((H0, MeroVector((P([0]), P([0]), P([0, 0, 1])))),)), 13),  # criterion 8 (b): a degree drop
    (random_data(3, 1, 3, seed=34), 35),  # already type one
], ids=["non-full", "degree-drop", "type-one"])
def test_normalize_type_one_equals_the_per_point_reference(data, seed):
    sampler = HarmonicMapSampler(data)
    pts = draw_sample_points(data, 4, seed=seed)
    table = {z: LoopPoly(sampler.extended_coeffs_at(z)) for z in pts}
    calls = []

    def counted(z):
        calls.append(z)
        return table[z]

    pre, norm = normalize_type_one(counted, pts)
    assert calls == pts  # each point sampled once
    ref_pre, ref_norm = normalize_type_one_per_point(table.__getitem__, pts)
    assert np.array_equal(pre.coeffs, ref_pre.coeffs)
    assert len(pre.factors) == len(ref_pre.factors)
    assert all(np.array_equal(a.basis, b.basis) for a, b in zip(pre.factors, ref_pre.factors))
    for z in pts:
        assert np.array_equal(norm(z).coeffs, ref_norm(z).coeffs)


@pytest.mark.parametrize("data, adapted", [
    *((s1_invariant_data(4, (1, 1, 1), 3, seed=seed), True) for seed in range(3)),
    (random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=38), False),
    (random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=3), False),
], ids=["s1-0", "s1-1", "s1-2", "control-111", "control-12"])
def test_stacked_q_adapted_check_equals_each_fiber(data, adapted):
    s = HarmonicMapSampler(data)
    zs = draw_sample_points(data, 5, seed=42)
    w = w_from_loop(LoopPoly(np.array([s.extended_coeffs_at(z) for z in zs])))
    q = QInvolution.identity(4)
    stacked = q_adapted_check(w, q)
    assert stacked.defect.shape == stacked.adapted.shape == (5,)
    assert stacked.adapted.tolist() == [adapted] * 5
    for p in range(5):
        fiber = _fiber(w, p)
        one = q_adapted_check(fiber, q)
        assert one.defect.shape == () and one.adapted == stacked.adapted[p]
        assert abs(one.defect - stacked.defect[p]) <= 2e-14
        # the principal-angle route measures the same gap; compared as sines, since
        # near pi/2 arcsin amplifies the last bits of either route by 1/cos
        assert abs(np.sin(one.defect) - np.sin(q_adapted_defect_per_fiber(fiber, q))) <= 2e-14


def test_q_involution_from_span():
    a = orthonormal_basis(np.eye(3)[:, :1])
    q = QInvolution(a)
    assert np.allclose(q.matrix, np.diag([1.0, -1.0, -1.0]))
    nu = q.nu_matrix(2)
    assert np.allclose(nu[3:, 3:], -q.matrix)
    assert np.abs(nu @ nu - np.eye(6)).max() <= 1e-12


def test_shift_equivariance_on_padding():
    # lambda * Phi, seen at degree r+1, shifts the model by one block
    data = random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=41)
    loop = loop_at(data, Z)
    r, n = loop.degree, loop.n
    w = w_from_loop(loop)
    shifted_coeffs = np.concatenate([np.zeros((1, n, n), complex), loop.coeffs])
    w2 = w_from_loop(LoopPoly(shifted_coeffs))
    embed = np.zeros(((r + 1) * n, w.dim), complex)
    embed[n:, :] = w.basis
    target = Span(embed, validate=False)
    assert w2.dim == w.dim
    assert max_principal_angle(w_span(w2), target) <= 1e-8


def test_wsubspace_validation():
    bad = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex) / np.sqrt(2)
    with pytest.raises(NotLambdaInvariant):
        WSubspace(2, 2, bad)
    # the shift moves (1, 2 | 0, 0) to (0, 0 | 1, 2): the span of both is invariant,
    # the first alone is not (its shift is orthogonal to it, relative defect 1)
    v = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex) / np.sqrt(5)
    invariant = WSubspace(2, 2, np.column_stack([v, np.roll(v, 2)]))
    assert invariant.lambda_defect() <= 1e-15
    assert invariant.errors == [None]
    with pytest.raises(NotLambdaInvariant, match="defect 1.00e"):
        WSubspace(2, 2, v[:, None])
    # a column in the last block shifts out to zero and is skipped
    assert WSubspace(2, 2, np.roll(v, 2)[:, None]).lambda_defect() == 0.0


@given(st.tuples(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1)))
def test_factorizations_reconstruct_random_chain_loops(spec):
    # the chain itself need not come back: a different chain can give the same loop
    n, length, seed = spec
    pis, perps = random_chain(np.random.default_rng(seed), n, length)
    loop = LoopPoly(extended_coefficients(np.array(pis), np.array(perps), n))
    for pis, perps in (iwasawa_factorize(w_from_loop(loop)), kernel_factorize_fiber(loop)):
        for lam in np.exp(2j * np.pi * np.arange(8) / 8):
            assert np.abs(extended_product(pis, perps, lam) - loop.at(lam)).max() <= 1e-10


def _projectors(basis):
    return basis @ basis.conj().swapaxes(-1, -2)


def _fiber(w, p):
    """Fiber p of a stack of W as one W, without its zeroed columns."""
    b = w.basis[p]
    return WSubspace(w.r, w.n, b[:, b.any(axis=0)])


def _check_stack_against_reference(coeffs):
    """Stacked W, Iwasawa and kernel factorizations of loops (P, r+1, n, n)
    against the per-fiber reference: ranks exactly, projections to 1e-13, the
    kernel descent's error (type and message) per fiber."""
    P, r, n = coeffs.shape[0], coeffs.shape[1] - 1, coeffs.shape[2]
    w = w_from_loop(LoopPoly(coeffs))
    iwa, iwa_perps = iwasawa_factorize(w)
    ker, ker_perps, errors = kernel_factorize_fiber(LoopPoly(coeffs))
    assert iwa.shape == ker.shape == (P, r, n, n) and len(errors) == P and w.errors == [None] * P
    for p in range(P):
        basis = w_basis_per_fiber(coeffs[p])
        assert _fiber(w, p).dim == basis.shape[1]
        assert np.abs(_projectors(w.basis[p]) - _projectors(basis)).max() <= 1e-13
        ref = iwasawa_per_fiber(basis, r, n)
        assert ranks(iwa[p]) == ranks(ref[0])
        assert max(np.abs(iwa[p] - ref[0]).max(initial=0), np.abs(iwa_perps[p] - ref[1]).max(initial=0)) <= 1e-13
        try:
            ref = kernel_descent_per_fiber(coeffs[p])
        except (DegreeNoDrop, NonProperUniton) as exc:
            assert type(errors[p]) is type(exc) and str(errors[p]) == str(exc)
            continue
        assert errors[p] is None and ranks(ker[p]) == ranks(ref[0])
        assert max(np.abs(ker[p] - ref[0]).max(initial=0), np.abs(ker_perps[p] - ref[1]).max(initial=0)) <= 1e-13


@given(st.tuples(st.integers(2, 5), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1)))
def test_stacked_factorizations_match_the_per_fiber_reference(spec):
    # random chains draw every step's rank on their own, so ranks and dim W differ between fibers
    n, length, P, seed = spec
    rng = np.random.default_rng(seed)
    chains = [random_chain(rng, n, length) for _ in range(P)]
    coeffs = extended_coefficients(np.array([c[0] for c in chains]), np.array([c[1] for c in chains]), n)
    _check_stack_against_reference(coeffs)
    # one loop without a fiber axis runs the same code and matches too
    pis, perps = iwasawa_factorize(w_from_loop(LoopPoly(coeffs[0])))
    ref = iwasawa_per_fiber(w_basis_per_fiber(coeffs[0]), length, n)
    assert pis.shape == (length, n, n) and ranks(pis) == ranks(ref[0])
    assert np.abs(pis - ref[0]).max() <= 1e-13 and np.abs(perps - ref[1]).max() <= 1e-13
    ker, ker_perps = kernel_factorize_fiber(LoopPoly(coeffs[0]))
    ref = kernel_descent_per_fiber(coeffs[0])
    assert ranks(ker) == ranks(ref[0]) and np.abs(ker - ref[0]).max() <= 1e-13


def test_a_failing_fiber_leaves_the_others_unchanged():
    rng = np.random.default_rng(42)
    good = [extended_coefficients(*map(np.array, random_chain(rng, 3, 2)), 3) for _ in range(2)]
    pi = np.diag([1.0, 0.0, 0.0]).astype(complex)
    improper = np.array([np.zeros((3, 3)), pi, np.eye(3) - pi])  # alpha_2 = C^3: T_0 vanishes
    non_real = good[1].copy()
    non_real[0] += 0.1 * np.eye(3)
    # diag(1, 0) + lambda diag(1, 0) + lambda^2 diag(0, 1): after step 2, T_1 = I has no kernel
    e1, e2 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])
    no_kernel = np.array([e1, e1, e2]).astype(complex)
    coeffs = np.array([good[0], improper, non_real, no_kernel, good[1]])
    _check_stack_against_reference(coeffs)
    pis, perps, errors = kernel_factorize_fiber(LoopPoly(coeffs))
    assert [type(e).__name__ for e in errors] == ["NoneType", "DegreeNoDrop", "DegreeNoDrop", "NonProperUniton", "NoneType"]
    assert str(errors[3]) == "ker T_1 has dimension 0"
    for p in (0, 4):  # the stack's good fibers are their single-fiber results bit for bit
        single = kernel_factorize_fiber(LoopPoly(coeffs[p]))
        assert single[0].tobytes() == pis[p].tobytes() and single[1].tobytes() == perps[p].tobytes()
    with pytest.raises(NonProperUniton, match="ker T_1 has dimension 0"):
        kernel_factorize_fiber(LoopPoly(no_kernel))


def test_a_stack_of_w_records_each_fibers_shift_defect():
    v = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex) / np.sqrt(5)
    invariant = np.column_stack([v, np.roll(v, 2)])
    stack = np.array([invariant, np.column_stack([v, np.zeros(4)])])  # fiber 1: dim 1, not invariant
    w = WSubspace(2, 2, stack)
    assert w.errors[0] is None and isinstance(w.errors[1], NotLambdaInvariant)
    assert np.allclose(w.lambda_defect(), [0.0, 1.0])
    assert _fiber(w, 0).dim == 2
    with pytest.raises(NotLambdaInvariant):
        _fiber(w, 1)


def test_loop_poly_stack_and_s_rows_broadcast():
    rng = np.random.default_rng(7)
    chains = [random_chain(rng, 4, 3) for _ in range(3)]
    pis, perps = np.array([c[0] for c in chains]), np.array([c[1] for c in chains])
    loops = LoopPoly(extended_coefficients(pis, perps, 4))
    assert loops.degree == 3 and loops.n == 4
    lams = np.exp(2j * np.pi * np.arange(5) / 5)[:, None, None, None]
    values = loops.at(lams)
    assert values.shape == (5, 3, 4, 4)
    for p in range(3):
        assert np.abs(values[:, p] - LoopPoly(loops.coeffs[p]).at(lams[..., 0])).max() == 0.0
        assert np.abs(factor_products(pis, perps, 4)[p] - factor_products(pis[p], perps[p], 4)).max() <= 1e-15
    with pytest.raises(BadShape):
        LoopPoly(np.zeros((2, 3, 4, 4, 4)))
