import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitons import (
    BadShape,
    LoopPoly,
    Span,
    draw_sample_points,
    extended_coefficients,
    image_span,
    iwasawa_factorize,
    kernel_factorize_fiber,
    orthonormal_basis,
    principal_angles,
    projection_pair,
    random_data,
    w_from_loop,
)
from unitons.builder import chain_arrays
from unitons.grassmannian import _constant_step
from unitons.projections import (
    _gram_schmidt,
    certified_basis,
    factor_products,
    masked_basis,
    numerical_rank,
    projector_gap,
)

from oracles import (
    c_rows_reference,
    c_words,
    constant_step_reference,
    iwasawa_reference,
    kernel_descent_reference,
    max_principal_angle,
    product_inverse_coeff,
    random_chain,
    s_rows_reference,
    s_words,
    span_gap,
    spans_equal,
    svd_rank_rule,
)


def test_orthonormal_basis_examples():
    s = orthonormal_basis(np.array([1.0, 0.0]))
    assert s.dim == 1
    assert np.abs(np.abs(s.basis[0, 0]) - 1) < 1e-12
    dep = orthonormal_basis(np.column_stack([[1.0, 0.0], [2.0, 0.0]]))
    assert dep.dim == 1
    eps = 1e-14
    near = orthonormal_basis(np.column_stack([[1.0, 1.0], [1.0, 1.0 + eps]]))
    assert near.dim == 1  # below the rank tolerance


def test_orthonormal_basis_empty_and_zero():
    assert orthonormal_basis(np.zeros((3, 0))).dim == 0
    assert orthonormal_basis(np.zeros(3)).dim == 0


def test_projection_pair_examples():
    pi, perp = projection_pair(orthonormal_basis(np.array([1.0, 0.0])))
    assert np.allclose(pi, np.diag([1, 0]))
    assert np.allclose(perp, np.diag([0, 1]))
    pi, perp = projection_pair(Span.zero(3))
    assert np.allclose(pi, 0) and np.allclose(perp, np.eye(3))
    pi, perp = projection_pair(Span.full(3))
    assert np.allclose(pi, np.eye(3)) and np.allclose(perp, 0)


def test_projection_pair_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = orthonormal_basis(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
        pi, perp = projection_pair(s)
        assert np.abs(pi @ perp).max() <= 1e-12
        assert np.abs(pi @ pi - pi).max() <= 1e-12
        assert np.abs(pi - pi.conj().T).max() <= 1e-12


def test_c_operator_paper_examples():
    rng = np.random.default_rng(1)
    pis, perps = random_chain(rng, 4, 3)
    C2 = factor_products(None, perps[:2], 4, top=2)
    assert np.abs(C2[1] - (perps[0] + perps[1])).max() <= 1e-12
    C3 = factor_products(None, perps, 4, top=3)
    expect = perps[1] @ perps[0] + perps[2] @ perps[0] + perps[2] @ perps[1]
    assert np.abs(C3[2] - expect).max() <= 1e-12
    for C in (C2, C3):
        assert np.allclose(C[0], np.eye(4))


def test_s_operator_definition_cases():
    rng = np.random.default_rng(2)
    pis, perps = random_chain(rng, 4, 2)
    S1 = factor_products(pis[:1], perps[:1], 4)
    assert np.allclose(S1[0], pis[0])
    assert np.allclose(S1[1], perps[0])
    S2 = factor_products(pis, perps, 4)
    expect = perps[1] @ pis[0] + pis[1] @ perps[0]
    assert np.abs(S2[1] - expect).max() <= 1e-12


def test_lemma_41_instance():
    # S^2_1 + 2 S^2_2 = C^2_1 for random projections
    rng = np.random.default_rng(3)
    pis, perps = random_chain(rng, 5, 2)
    S = factor_products(pis, perps, 5)
    lhs = S[1] + 2 * S[2]
    assert np.abs(lhs - factor_products(None, perps, 5, top=1)[1]).max() <= 1e-11


def test_pascal_recursion_vs_word_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        i = int(rng.integers(1, 5))
        pis, perps = random_chain(rng, n, i)
        C = factor_products(None, perps, n, top=i)
        for s in range(i + 1):
            assert np.abs(C[s] - c_words(perps, n, s)).max() <= 1e-12


def test_s_recursion_vs_words_and_expansion():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        i = int(rng.integers(1, 5))
        pis, perps = random_chain(rng, n, i)
        S = factor_products(pis, perps, n)
        for s in range(i + 1):
            assert np.abs(S[s] - s_words(pis, perps, n, s)).max() <= 1e-12
            assert np.abs(S[s] - product_inverse_coeff(pis, perps, s)).max() <= 1e-12


def test_principal_angles_examples():
    e1 = orthonormal_basis(np.array([1.0, 0.0]))
    e2 = orthonormal_basis(np.array([0.0, 1.0]))
    diag = orthonormal_basis(np.array([1.0, 1.0]))
    assert max_principal_angle(e1, e1) == 0.0
    assert principal_angles(e1, e2)[0] == pytest.approx(np.pi / 2)
    assert principal_angles(e1, diag)[0] == pytest.approx(np.pi / 4)


def test_principal_angles_small_angle_resolution():
    rng = np.random.default_rng(6)
    b = orthonormal_basis(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    comp = orthonormal_basis(np.eye(6) - b.basis @ b.basis.conj().T)
    tilted = b.basis.copy()
    tilted[:, 0] += 3e-10 * comp.basis[:, 0]
    c = orthonormal_basis(tilted)
    got = max_principal_angle(b, c)
    assert 1e-10 < got < 1e-9


def test_rank_cutoffs_relative_and_unit_scale():
    rng = np.random.default_rng(11)
    noise = 1e-16 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert image_span(noise).dim == 0  # cutoff against the unit scale
    assert orthonormal_basis(noise).dim == 4  # cutoff relative to sigma_max only


def test_numerical_rank_broadcasts_over_a_batch():
    rng = np.random.default_rng(12)
    mats = rng.standard_normal((6, 5, 4)) @ rng.standard_normal((6, 4, 4))
    mats[1] = 0.0
    mats[2, :, 2:] = mats[2, :, :2]  # rank 2
    mats[3] *= 1e-12
    sv = np.linalg.svd(mats, compute_uv=False)
    for scale in (0.0, 1.0):
        batch = numerical_rank(sv, scale)
        assert batch.tolist() == [numerical_rank(s, scale) for s in sv]
    assert numerical_rank(sv).tolist() == [4, 0, 2, 4, 4, 4]
    assert numerical_rank(sv, 1.0).tolist() == [4, 0, 2, 0, 4, 4]


def test_span_gap_dimension_mismatch():
    a = orthonormal_basis(np.eye(3)[:, :1])
    assert span_gap(a, orthonormal_basis(np.eye(3)[:, :2])) == pytest.approx(np.pi / 2)
    assert span_gap(a, a) <= 1e-15
    assert span_gap(Span.zero(0), Span.zero(0)) == 0.0  # W = H_+ of a degree-0 loop lives in C^0


def test_masked_basis_projects_onto_each_column_span():
    rng = np.random.default_rng(13)
    mats = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
    mats[1] = 0.0
    mats[2, :, 2] = mats[2, :, 0]  # rank 2
    u, sv, rank = masked_basis(mats)
    assert rank.tolist() == [3, 0, 2, 3, 3] and sv.shape == (5, 3)
    for p in range(5):
        span = orthonormal_basis(mats[p])
        assert np.array_equal(u[p, :, : rank[p]], span.basis) and not u[p, :, rank[p] :].any()


def _prescribed_stack(rng, n, m, ratios):
    """One (n, m) matrix U diag(sigma) V* per sigma_min / sigma_max ratio (1 where m = 1):
    random orthonormal U and unitary V, sigma_max from [0.1, 10] and the singular
    values between the ends log-uniform.  Returns the stack and each matrix's ratio."""
    P = len(ratios)

    def orthonormal(rows, cols):
        return np.linalg.qr(rng.standard_normal((P, rows, cols)) + 1j * rng.standard_normal((P, rows, cols)))[0]

    exponents = np.sort(rng.random((P, m)), axis=1)
    exponents[:, 0], exponents[:, -1] = 0.0, 1.0 if m > 1 else 0.0
    sigma = 10.0 ** rng.uniform(-1, 1, (P, 1)) * ratios[:, None] ** exponents
    mat = (orthonormal(n, m) * sigma[:, None, :]) @ orthonormal(m, m).conj().swapaxes(1, 2)
    return mat, sigma[:, -1] / sigma[:, 0]


def _orthonormality(q):
    """Largest entry of Q* Q - I for each matrix of a stack (..., n, m)."""
    return np.abs(q.conj().swapaxes(-1, -2) @ q - np.eye(q.shape[-1])).max(axis=(-2, -1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_the_qr_certificate_keeps_the_svd_rank_rule(n, monkeypatch):
    # sigma_min / sigma_max from 1e-12 to 1 in eighth decades, through the ambiguity band
    rng = np.random.default_rng(n)
    stacks = [_prescribed_stack(rng, n, m, 10.0 ** np.linspace(-12, 0, 97)) for m in range(1, n + 1)]
    monkeypatch.setattr(np.linalg, "qr", None)  # the sweep runs no LAPACK QR
    for mat, ratio in stacks:
        basis, rank, ambiguous = certified_basis(mat)
        u, want_rank, want_ambiguous = svd_rank_rule(mat)
        assert np.array_equal(rank, want_rank) and np.array_equal(ambiguous, want_ambiguous)
        q = _gram_schmidt(mat)[0]
        certified = np.array([np.array_equal(a, b) for a, b in zip(basis, q)])
        assert np.array_equal(basis[~certified], u[~certified])  # every other point is the SVD's, bit for bit
        # lo / hi = ratio / (1 + ratio^2) at m = 2, so at ratio = 1e-7 itself rounding decides
        assert not certified[ratio <= 1e-7 * (1 - 1e-9)].any() and certified[ratio > 1e-5].all()
        assert (_orthonormality(q[certified]) <= 2e-15).all()
        gap = np.abs(q @ q.conj().swapaxes(1, 2) - u @ u.conj().swapaxes(1, 2)).max(axis=(1, 2))
        assert (gap[certified] <= 1e-14 / ratio[certified]).all()  # the same span as the SVD's u


def test_a_stack_the_qr_cannot_certify_takes_the_svd_rule_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(14)
    tall = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
    tall[1] = 0.0  # a zeroed row of the kernel
    tall[2, :, 2] = 0.0  # a structurally zero column
    tall[3, :, 2] = tall[3, :, 0]  # dependent columns
    tall[4, :, 2] = tall[4, :, 0] + 3e-9 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))  # in the band
    tall[5] *= 1e-170  # |R|_F underflows and |R^-1|_F overflows
    wide = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    monkeypatch.setattr(np.linalg, "qr", None)  # no LAPACK QR, tall or wide
    basis, rank, ambiguous = certified_basis(tall)
    u, want_rank, want_ambiguous = svd_rank_rule(tall)
    assert rank.tolist() == want_rank.tolist() == [3, 0, 2, 2, 2, 3]
    assert ambiguous.tolist() == want_ambiguous.tolist() == [False, False, False, False, True, False]
    assert np.array_equal(basis[0], _gram_schmidt(tall[0])[0]) and np.array_equal(basis[1:], u[1:])
    for got, want in zip(certified_basis(wide), svd_rank_rule(wide), strict=True):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-150, 1e150, 1e160, 1e300])
def test_a_stack_scaled_out_of_the_sweeps_range_takes_the_svd_rule_bit_for_bit(scale, monkeypatch):
    # |R|_F or |R^-1|_F is a sum of squares: past 1e+-154 it over- or underflows, and the point goes to the SVD
    rng = np.random.default_rng(16)
    stacks = [_prescribed_stack(rng, 5, m, 10.0 ** np.linspace(-2, 0, 9))[0] * scale for m in (1, 2, 3, 5)]
    monkeypatch.setattr(np.linalg, "qr", None)
    for mat in stacks:
        got, want = certified_basis(mat), svd_rank_rule(mat)
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])  # ranks, flags
        assert (want[1] == mat.shape[-1]).all() and not want[2].any()
        if abs(np.log10(scale)) < 154:  # within range every point is certified: the sweep's Q
            q = _gram_schmidt(mat)[0]
            assert np.array_equal(got[0], q) and (_orthonormality(q) <= 2e-15).all()
        else:
            assert (got[0].dtype, got[0].shape, got[0].tobytes()) == (want[0].dtype, want[0].shape, want[0].tobytes())


def test_a_column_zero_at_every_point_is_left_out_of_the_qr(monkeypatch):
    rng = np.random.default_rng(15)
    tall = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
    tall[:, :, 1] = 0.0  # structurally zero at every point
    tall[1] = 0.0
    tall[2, :, 2] = tall[2, :, 0]  # dependent columns
    monkeypatch.setattr(np.linalg, "qr", None)
    basis, rank, ambiguous = certified_basis(tall)
    u, want_rank, want_ambiguous = svd_rank_rule(tall)
    assert rank.tolist() == want_rank.tolist() == [2, 0, 1, 2]
    assert not ambiguous.any() and not want_ambiguous.any()
    with np.errstate(all="ignore"):  # points 1 and 2 leave r_jj = 0
        q = _gram_schmidt(tall[:, :, [0, 2]])[0]
    for p in (0, 3):  # certified: the sweep of the two live columns, padded with a zero column
        assert np.array_equal(basis[p, :, :2], q[p]) and not basis[p, :, 2].any()
    assert np.array_equal(basis[1:3], u[1:3])  # every other point is the SVD's, bit for bit
    empty = certified_basis(np.zeros((2, 4, 3), np.complex128))  # no live column: rank 0, the zero basis
    for got, want in zip(empty, svd_rank_rule(np.zeros((2, 4, 3), np.complex128)), strict=True):
        assert np.array_equal(got, want) and got.shape == want.shape


def test_the_sweep_is_a_qr_with_its_inverse():
    # A = Q R with R upper triangular and a positive real diagonal, and R R^-1 = I
    rng = np.random.default_rng(17)
    for n, m in [(1, 1), (4, 1), (5, 3), (8, 8)]:
        mat = rng.standard_normal((7, n, m)) + 1j * rng.standard_normal((7, n, m))
        q, R, inv = _gram_schmidt(mat)
        assert np.abs(q @ R - mat).max() <= 1e-14 and (_orthonormality(q) <= 2e-15).all()
        assert not np.tril(R, -1).any() and (np.diagonal(R, axis1=1, axis2=2).real > 0).all()
        assert not np.diagonal(R, axis1=1, axis2=2).imag.any()
        assert np.abs(R @ inv - np.eye(m)).max() <= 1e-13 and not np.tril(inv, -1).any()
        for p in (0, 6):  # each matrix as a stack of its own
            assert all(np.array_equal(a[p], b[0]) for a, b in zip((q, R, inv), _gram_schmidt(mat[p : p + 1])))


def test_spans_equal():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = orthonormal_basis(m)
    b = orthonormal_basis(m @ np.array([[2, 1], [0, 1j]]))  # same column span
    assert spans_equal(a, b)
    assert not spans_equal(a, orthonormal_basis(rng.standard_normal((4, 2))))
    assert not spans_equal(a, orthonormal_basis(m[:, :1]))


def test_span_validation():
    with pytest.raises(BadShape):
        Span(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    assert Span(np.array([[1.0], [0.0]])).dim == 1


def _random_span(rng, n, k):
    return orthonormal_basis(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))


def _projector(span):
    return span.basis @ span.basis.conj().T


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_projector_gap_is_the_largest_principal_angle(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n))
    a, b = _random_span(rng, n, k), _random_span(rng, n, k)
    # and a nearby subspace, to probe small angles
    near = orthonormal_basis(a.basis + 10.0 ** -rng.integers(3, 12) * rng.standard_normal((n, k)))
    for other in (b, near):
        gap = projector_gap(_projector(a), _projector(other))
        assert abs(np.sin(gap) - np.sin(max_principal_angle(a, other))) <= 1e-12
        assert span_gap(a, other) == gap
    assert projector_gap(_projector(a), _projector(_random_span(rng, n, k + 1))) == np.pi / 2


def test_projector_gap_broadcasts_over_a_stack():
    rng = np.random.default_rng(14)
    pis = np.array([random_chain(rng, 4, 3)[0] for _ in range(5)])  # (5, 3, 4, 4)
    stacked = projector_gap(pis[:, :-1], pis[:, 1:])
    assert stacked.shape == (5, 2)
    pairs = [[projector_gap(pis[p, i], pis[p, i + 1]) for i in range(2)] for p in range(5)]
    assert np.abs(stacked - pairs).max() <= 1e-15
    assert np.abs(projector_gap(pis, pis[0, 0]) - [[projector_gap(q, pis[0, 0]) for q in c] for c in pis]).max() <= 1e-15


def test_projector_gap_is_the_svd_form_from_the_eigenvalues():
    # p - q is Hermitian: its largest |eigenvalue| is its largest singular value, up to rounding
    rng = np.random.default_rng(18)
    pairs = []
    for n in range(1, 7):
        for k in range(1, n + 1):
            spans = [[_projector(_random_span(rng, n, k)) for _ in range(2)] for _ in range(6)]
            pairs.append(np.array(spans))  # (6, 2, n, n): one stack per (n, k)
    for stack in pairs:
        p, q = stack[:, 0], stack[:, 1]
        want = np.minimum(1.0, np.linalg.svd(p - q, compute_uv=False).max(axis=-1))
        for got in (projector_gap(p, q), [projector_gap(a, b) for a, b in zip(p, q)]):
            # both are backward stable: at sin ~ 1 they differ in the last few units in the last place
            assert np.abs(np.sin(got) - want).max() <= 2e-15
        assert not projector_gap(p, p).any()
    p = _projector(_random_span(rng, 5, 2))
    assert projector_gap(p, _projector(_random_span(rng, 5, 3))) == np.pi / 2  # a rank mismatch
    assert (projector_gap(np.broadcast_to(p, (3, 5, 5)), np.zeros((5, 5))) == np.pi / 2).all()


chains = st.tuples(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))


@given(chains)
def test_pascal_rows_equal_word_sums(spec):
    n, length, seed = spec
    pis, perps = random_chain(np.random.default_rng(seed), n, length)
    C, S = factor_products(None, perps, n, top=length), factor_products(pis, perps, n)
    for s in range(length + 1):
        assert np.abs(C[s] - c_words(perps, n, s)).max() <= 1e-12
        assert np.abs(S[s] - s_words(pis, perps, n, s)).max() <= 1e-12


@given(chains)
def test_c_rows_of_a_stack_equal_each_chain(spec):
    n, length, seed = spec
    rng = np.random.default_rng(seed)
    perps = np.array([random_chain(rng, n, length)[1] for _ in range(3)])
    stacked = factor_products(None, perps, n, top=length)
    assert all(np.array_equal(stacked[p], factor_products(None, perps[p], n, top=length)) for p in range(3))


_CRITERION_2 = [(3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2))]
_CHAINS = [*((n, r, pattern, seed) for seed in range(4) for n, r, pattern in _CRITERION_2), (3, 0, None, 0)]


def _same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, r, pattern, seed", _CHAINS, ids=[f"{n}-{r}-{pattern}-s{seed}" for n, r, pattern, seed in _CHAINS])
def test_factor_products_are_the_separate_recursions_bit_for_bit(n, r, pattern, seed):
    # the criterion-2 shapes and r = 0 at the 16 points of a draw, as one stack, a (4, 4) stack and
    # one chain: the S and C rows of every prefix (C truncated at every s), the constant-loop step
    # at every degree, once and applied again to its own output, the kernel descent and Iwasawa
    data = random_data(n, r, 3 if r else 2, sparsity_pattern=pattern, seed=seed)
    batch = chain_arrays(data, draw_sample_points(data, 16, seed=seed + 40))
    for pis, perps in ((batch.pis, batch.perps), (batch.pis.reshape(4, 4, r, n, n), batch.perps.reshape(4, 4, r, n, n)),
                       (batch.pis[0], batch.perps[0])):
        for ell in range(r + 1):
            p, q = pis[..., :ell, :, :], perps[..., :ell, :, :]
            _same_bytes(factor_products(p, q, n), s_rows_reference(p, q, n))
            for smax in range(r + 1):
                _same_bytes(factor_products(None, q, n, top=smax), c_rows_reference(q, n, smax))
    for empty in ([], np.zeros((0, n, n))):  # an empty factor sequence
        _same_bytes(factor_products(empty, empty, n), s_rows_reference(empty, empty, n))
        _same_bytes(factor_products(None, empty, n, top=2), c_rows_reference(empty, n, 2))
    T = extended_coefficients(batch.pis, batch.perps, n)
    (pi,), (perp,) = random_chain(np.random.default_rng(seed), n, 1)
    for coeffs in (T, T[0]):
        for degree in range(r + 1):
            once = _constant_step(coeffs, pi, perp, degree)
            _same_bytes(once, constant_step_reference(coeffs, pi, perp, degree))
            _same_bytes(_constant_step(once, perp, pi, degree), constant_step_reference(once, perp, pi, degree))
    _same_bytes(kernel_factorize_fiber(LoopPoly(T))[0], kernel_descent_reference(T))
    for w in (w_from_loop(LoopPoly(T)), w_from_loop(LoopPoly(T[0]))):
        _same_bytes(iwasawa_factorize(w)[0], iwasawa_reference(w))
