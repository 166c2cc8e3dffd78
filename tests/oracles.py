"""Independent test oracles: exponential word enumeration, DFT coefficient
extraction and finite differences.  Nothing here shares code with the
recursions under test; the per-point verification oracle takes its chains
from single-point builds and checks the pointwise identities with spans and
principal angles, not with the verifier's projector products.  The loop
factorizations are referenced one fiber at a time, the Iwasawa step's S
operators by word enumeration and the kernel descent by the SVD of T_i.
Subspace references that only tests use live here too:
principal-angle gaps, the Cartan embedding of a span, the associated curves
of a column, type-one normalization point by point, the derivative table of
any columns, the data-array edits (row restriction, an extra or shifted
column) that only tests make, the random generators drawn one entry at a
time and a polynomial vector's values from its own coefficients, the
binomial transform of a Gaussian-integer table by integer sums, and the JSON
encoding of matrix stacks, chains, loop fibers and sample records with
Python floats from tolist().  The
separate recursions that ``projections.factor_step`` replaced (the C and S
rows, the constant-loop step, the kernel descent's update and the Iwasawa
loop that rebuilt S at every step) are kept as bit-for-bit references, and
the chain kernel's chunk build that advanced the n x n C operators, which
the build on the K-vectors' coefficients replaced, as a reference within
rounding, with the rank rule by the SVD alone that the QR certificate skips
at generic points.  The sample-point draw's fancy-index re-layout of its batch, which
reshaped views replaced, is kept as a bit-for-bit reference."""

import math
from functools import reduce
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from unitons import BadShape, DataArray, MeroVector, RationalFn, builder, eval_rational
from unitons.meromorphic import DISC_RADIUS
from unitons.projections import (
    RANK_TOL,
    Span,
    factor_step,
    masked_basis,
    orthonormal_basis,
    principal_angles,
    projection_pair,
    projector_gap,
)

SPAN_EQ_TOL = 1e-8  # spans are equal when ranks match and all angles are below this


def restrict_rows(data, i):
    """The data's first i rows (the first i unitons depend on nothing else)."""
    if not 0 <= i <= data.r:
        raise BadShape("row restriction out of range")
    return DataArray(data.n, i, tuple(col[:i] for col in data.columns))


def with_extra_column(data, column):
    return DataArray(data.n, data.r, data.columns + (tuple(column),))


def shifted_column(column, n):
    """(H_0, ..., H_{r-1}) -> (0, H_0, ..., H_{r-2})."""
    col = tuple(column)
    return (MeroVector.zero(n),) + col[:-1]


def derivative_values(n, r, columns, zs):
    """The builder's derivative table of r-row columns of C^n vectors at every
    point of zs (P,), laid out on all J columns: vals[p, k, m, j] (P, r, r, J, n)
    is the k'th derivative of row m of column j's normal form at zs[p], held
    for k <= r-1-m and zero above, and exact zeros in a dead column."""
    from unitons import kernels
    from unitons.builder import _tables

    columns = tuple(tuple(col) for col in columns)
    return on_all_columns(columns, kernels.eval_table(_tables(n, r, columns), np.asarray(zs, complex)))


def on_all_columns(columns, arr):
    """arr (..., J_slots, n) on the builder's table slots, one per live column
    in order, laid out on all J columns, exact zeros in the dead ones (the
    columns whose entries are all zero)."""
    live = [j for j, col in enumerate(columns) if not all(f.is_zero for vec in col for f in vec.entries)]
    out = np.zeros(arr.shape[:-2] + (len(columns), arr.shape[-1]), arr.dtype)
    out[..., live, :] = arr[..., : len(live), :]
    return out


def random_polynomial_vector_per_entry(rng, n, max_degree):
    """A random polynomial C^n vector drawn one entry at a time: each entry's
    max_degree + 1 Gaussian-integer coefficients in [-4, 4]^2 from their own draw."""
    return MeroVector(tuple(RationalFn(tuple(complex(a, b) for a, b in rng.integers(-4, 5, size=(max_degree + 1, 2))))
                            for _ in range(n)))


def random_data_per_entry(n, r, max_degree, sparsity_pattern=None, seed=0):
    """``random_data`` drawn entry by entry: column by column, each live row's
    vector from its own draws, a fresh zero vector outside the echelon shape."""
    rng = np.random.default_rng(seed)
    d = (n,) * r if sparsity_pattern is None else tuple(sparsity_pattern)
    return DataArray(n, r, tuple(
        tuple(random_polynomial_vector_per_entry(rng, n, max_degree) if j < d[i] else MeroVector.zero(n)
              for i in range(r))
        for j in range(n if r > 0 else 0)))


def s1_invariant_data_per_entry(n, rank_steps, max_degree, seed=0):
    """``s1_invariant_data`` drawn entry by entry: column j's vector in the
    first row i with j < d_{i+1}, zeros in the other rows."""
    rng = np.random.default_rng(seed)
    d, columns = tuple(rank_steps), []
    for j in range(d[-1]):
        row = next(i for i in range(len(d)) if j < d[i])
        columns.append(tuple(random_polynomial_vector_per_entry(rng, n, max_degree) if i == row else MeroVector.zero(n)
                             for i in range(len(d))))
    return DataArray(n, len(d), tuple(columns))


def vector_values(vec, zs):
    """A polynomial vector's values zs.shape + (n,) by one table evaluation of
    its entries' trimmed numerators, padded to the longest."""
    from unitons import kernels

    width = max(len(f.num) for f in vec.entries)
    coeffs = np.array([f.num + (0j,) * (width - len(f.num)) for f in vec.entries], np.complex128)
    return kernels.eval_table(coeffs, np.asarray(zs).ravel()).reshape(np.shape(zs) + (vec.n,))


def random_chain(rng, n, length):
    """Random proper projection chain via QR of Gaussian complex matrices."""
    pis, perps = [], []
    for _ in range(length):
        k = int(rng.integers(1, n))
        m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        q, _ = np.linalg.qr(m)
        pi = q @ q.conj().T
        pis.append(pi)
        perps.append(np.eye(n) - pi)
    return pis, perps


def c_words(perps, n, s):
    """C^i_s straight from the definition: sum over increasing index words."""
    i = len(perps)
    if s == 0:
        return np.eye(n, dtype=complex)
    if s < 0 or s > i:
        return np.zeros((n, n), complex)
    out = np.zeros((n, n), complex)
    for combo in combinations(range(i), s):
        m = np.eye(n, dtype=complex)
        for idx in combo:  # ascending index, left-multiplied: largest ends leftmost
            m = perps[idx] @ m
        out += m
    return out


def s_words(pis, perps, n, s):
    """S^i_s by enumerating all 2^i words with exactly s perp factors."""
    i = len(pis)
    out = np.zeros((n, n), complex)
    for mask in range(1 << i):
        if bin(mask).count("1") != s:
            continue
        m = np.eye(n, dtype=complex)
        for ell in range(i):
            f = perps[ell] if (mask >> ell) & 1 else pis[ell]
            m = f @ m
        out += m
    return out


def product_inverse_coeff(pis, perps, s):
    """lambda^{-s} coefficient of (pi_i + 1/lambda pi_i_perp)...(pi_1 + ...),
    extracted by evaluating at roots of unity and inverting the DFT."""
    i = len(pis)
    n = pis[0].shape[0]
    lams = np.exp(2j * np.pi * np.arange(i + 1) / (i + 1))
    acc = np.zeros((n, n), complex)
    for k, lam in enumerate(lams):
        m = np.eye(n, dtype=complex)
        for ell in range(i):
            m = (pis[ell] + perps[ell] / lam) @ m
        acc += m * lams[k] ** s
    return acc / (i + 1)


def pascal_step_reference(C, perp, top):
    """In place, C^{i+1}_s = perp C^i_{s-1} + C^i_s for s = 1..top, all s at
    once; the s axis of C is third from last, any leading axes broadcast."""
    C[..., 1 : top + 1, :, :] += perp[..., None, :, :] @ C[..., :top, :, :]


def c_rows_reference(perps, n, smax):
    """All C^i_s, s = 0..smax on axis -3, by the Pascal recursion
    C^i_s = perp_i C^{i-1}_{s-1} + C^{i-1}_s; leading axes broadcast."""
    perps = np.asarray(perps, np.complex128)
    if perps.ndim < 3:  # an empty sequence
        perps = perps.reshape(0, n, n)
    C = np.zeros(perps.shape[:-3] + (smax + 1, n, n), np.complex128)
    C[..., 0, :, :] = np.eye(n)
    for ell in range(1, perps.shape[-3] + 1):
        pascal_step_reference(C, perps[..., ell - 1, :, :], min(smax, ell))
    return C


def s_rows_reference(pis, perps, n):
    """All S^i_s for s = 0..i on axis -3, via S^i_s = perp_i S^{i-1}_{s-1} + pi_i S^{i-1}_s;
    leading axes broadcast."""
    pis, perps = (np.asarray(a, np.complex128) for a in (pis, perps))
    pis, perps = (a if a.ndim >= 3 else a.reshape(0, n, n) for a in (pis, perps))  # an empty sequence
    S = np.zeros(pis.shape[:-3] + (pis.shape[-3] + 1, n, n), np.complex128)
    S[..., 0, :, :] = np.eye(n)
    for ell in range(1, pis.shape[-3] + 1):
        pi, perp = pis[..., ell - 1, None, :, :], perps[..., ell - 1, None, :, :]
        S[..., 1 : ell + 1, :, :] = perp @ S[..., :ell, :, :] + pi @ S[..., 1 : ell + 1, :, :]
        S[..., 0, :, :] = pis[..., ell - 1, :, :] @ S[..., 0, :, :]
    return S


def svd_rank_rule(mat):
    """The chain kernel's rank rule by the SVD alone, for a stack (..., n, m): masked u,
    rank, and the flag for a singular value within a decade of the cutoff RANK_TOL sigma_max."""
    u, sv, rank = masked_basis(mat)
    thr = RANK_TOL * sv[..., :1]
    return u, rank, ((thr / 10.0 < sv) & (sv < thr * 10.0)).any(axis=-1)


def build_chunk_reference(hvals, pis, perps, ranks, kvecs, status):
    """The chain kernel's chunk build on the C operators: C^i_s (P, r, n, n) from C^0 = I,
    K^(k)_i = sum_s C^i_s H^(k)_{s-k} by one einsum per k, and the Pascal update of C."""
    P, r, _, J, n = hvals.shape
    eye = np.eye(n, dtype=np.complex128)
    C = np.zeros((P, r, n, n), np.complex128)  # C^i_s for s < r: the last step's C is never read
    C[:, :1] = eye
    for i in range(r):
        for k in range(i + 1):
            kvecs[:, i, k] = np.einsum("psab,psjb->pja", C[:, k : i + 1], hvals[:, k, : i + 1 - k])
        # column k J + j is K^(k)_{i,j}; (i+1) J, not -1, which an empty point axis leaves undetermined
        basis, rank, ambiguous = svd_rank_rule(kvecs[:, i, : i + 1].reshape(P, (i + 1) * J, n).swapaxes(1, 2))
        status |= ambiguous
        pis[:, i] = basis @ basis.conj().swapaxes(1, 2)
        perps[:, i] = eye - pis[:, i]
        ranks[:, i] = rank
        if i + 1 < r:
            factor_step(C, None, perps[:, i], i + 1, True)


def draw_reference(data, count, seed, stencil_h):
    """``builder._draw``'s points and batch as it laid them out by fancy index:
    a (offsets, candidates) index array per block, then one take and one
    concatenate whatever was accepted.  It leaves the served draw alone."""
    rng = np.random.default_rng(seed)
    offsets = builder.STENCIL_OFFSETS * stencil_h if stencil_h is not None else builder.STENCIL_OFFSETS[:1]
    points, accepted = [], []
    while len(points) < count:
        cands = [complex(DISC_RADIUS * math.sqrt(u) * math.cos(2.0 * math.pi * v),
                         DISC_RADIUS * math.sqrt(u) * math.sin(2.0 * math.pi * v))
                 for u, v in rng.random((count - len(points), 2)).tolist()]
        batch = builder.chain_arrays(data, (offsets[:, None] + np.array(cands, np.complex128)).ravel())
        batch = batch.take(np.arange(batch.zs.size).reshape(len(offsets), -1))
        good = ~batch.ambiguous.any(axis=0) & (batch.ranks == batch.ranks[:1]).all(axis=(0, 2))
        taken = [col for col, ok in enumerate(good.tolist()) if ok]
        points += [cands[col] for col in taken]
        accepted.append(batch.take((slice(None), taken)))
    return points, builder.ChainBatch(*(np.concatenate(fields, axis=1) for fields in zip(*accepted)))


def constant_step_reference(coeffs, pi, perp, degree):
    """Loop coefficients (..., d+1, n, n) left-multiplied by pi + lambda^{-1} perp,
    T_t <- pi T_t + perp T_{t+1} with the shifted coefficients concatenated,
    keeping T_0..T_degree."""
    shifted = np.concatenate([coeffs[..., 1:, :, :], np.zeros_like(coeffs[..., :1, :, :])], axis=-3)
    return (pi @ coeffs + perp @ shifted)[..., : degree + 1, :, :]


def kernel_descent_reference(coeffs):
    """The kernel descent's pis (P, r, n, n) of loops (P, r+1, n, n), each step's
    update T_t <- T_t pi + T_{t+1} perp as two per-coefficient products; no error checks."""
    from unitons.projections import numerical_rank

    T = coeffs.copy()
    P, r, n = T.shape[0], T.shape[1] - 1, T.shape[-1]
    pis = np.zeros((P, r, n, n), np.complex128)
    for i in range(r, 0, -1):
        _, sv, vh = np.linalg.svd(T[:, i])
        ker = vh.conj().swapaxes(-1, -2) * (np.arange(n) >= numerical_rank(sv)[:, None])[:, None, :]
        pi = ker @ ker.conj().swapaxes(-1, -2)
        perp = np.eye(n) - pi
        T[:, :i] = T[:, :i] @ pi[:, None] + T[:, 1 : i + 1] @ perp[:, None]
        pis[:, i - 1] = pi
    return pis


def iwasawa_reference(w):
    """The Iwasawa chain's pis of a W or a stack, every step's S rows rebuilt
    from all earlier steps by ``s_rows_reference`` (O(r^2) factor steps)."""
    from unitons.projections import masked_basis

    r, n, lead = w.r, w.n, w.basis.shape[:-2]
    blocks = w.basis.reshape(lead + (r, n, w.dim))
    pis = np.zeros(lead + (r, n, n), np.complex128)
    for i in range(1, r + 1):
        S = s_rows_reference(pis[..., : i - 1, :, :], np.eye(n) - pis[..., : i - 1, :, :], n)
        basis, _, _ = masked_basis((S @ blocks[..., :i, :, :]).sum(axis=-3), 1.0)
        pis[..., i - 1, :, :] = basis @ basis.conj().swapaxes(-1, -2)
    return pis


def fd_derivative(f, z, h=1e-5):
    """Central-difference derivative of a rational function along the real axis."""
    return (eval_rational(f, z + h) - eval_rational(f, z - h)) / (2 * h)


def _stencil_fd(f, z, h):
    """4th-order central (d/dz, d/dzbar) of f at z, one call of f per point."""
    v = [f(w) for w in (z + 2 * h, z + h, z - h, z - 2 * h, z + 2j * h, z + 1j * h, z - 1j * h, z - 2j * h)]
    fx = (-v[0] + 8 * v[1] - 8 * v[2] + v[3]) / (12 * h)
    fy = (-v[4] + 8 * v[5] - 8 * v[6] + v[7]) / (12 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _connection(phi, z, h):
    dz, dzb = _stencil_fd(phi, z, h)
    inv = np.linalg.inv(phi(z))
    return 0.5 * inv @ dz, 0.5 * inv @ dzb


def nested_harmonicity(phi, z, h=1e-3):
    """|d_zbar A_z + [A_zbar, A_z]| with d_zbar A_z differenced from A_z itself
    on the stencils of its own stencil points: the nested stencil, 41 maps."""
    _, dzb_az = _stencil_fd(lambda w: _connection(phi, w, h)[0], z, h)
    a_z, a_zbar = _connection(phi, z, h)
    return np.linalg.norm(dzb_az + a_zbar @ a_z - a_z @ a_zbar)


def stencil_harmonicity(phi, z, h=1e-3):
    """The same residual from the 9 maps of one stencil: (1/2) phi^{-1} phi_zzbar
    - (1/4)(B_zbar B_z + B_z B_zbar) with B = 2A = phi^{-1} d phi and
    phi_zzbar = (phi_xx + phi_yy) / 4 from 5-point 4th-order second differences,
    taken on the differences from the centre map."""
    a_z, a_zbar = _connection(phi, z, h)
    b_z, b_zbar = 2 * a_z, 2 * a_zbar
    dx = [phi(z + t * h) - phi(z) for t in (2, 1, -1, -2)]
    dy = [phi(z + t * 1j * h) - phi(z) for t in (2, 1, -1, -2)]
    zzbar = (16 * (dx[1] + dx[2] + dy[1] + dy[2]) - (dx[0] + dx[3] + dy[0] + dy[3])) / (12 * h * h) / 4
    return np.linalg.norm(0.5 * np.linalg.inv(phi(z)) @ zzbar - 0.25 * (b_zbar @ b_z + b_z @ b_zbar))


def extended_coefficients_per_block(pis, perps, n):
    """T_0..T_r of (pi_1 + lambda pi_1_perp) ..., the steps on axis -3 and
    leading axes broadcast: T_ell <- T_ell pi_i + T_{ell-1} perp_i, one
    (n, n) product per coefficient and step."""
    r = pis.shape[-3]
    T = np.zeros(pis.shape[:-3] + (r + 1, n, n), np.complex128)
    T[..., 0, :, :] = np.eye(n)
    for i in range(r):
        pi, perp = pis[..., i, None, :, :], perps[..., i, None, :, :]
        T[..., 1 : i + 2, :, :] = T[..., 1 : i + 2, :, :] @ pi + T[..., : i + 1, :, :] @ perp
        T[..., 0, :, :] = T[..., 0, :, :] @ pis[..., i, :, :]
    return T


def _product(pis, perps, lam, n):
    """(pi_1 + lam pi_1_perp) ... (pi_k + lam pi_k_perp), one factor at a time."""
    m = np.eye(n, dtype=complex)
    for pi, perp in zip(pis, perps):
        m = m @ (pi + lam * perp)
    return m


def _pascal_rows(perps, n, smax):
    """C_0..C_smax by the Pascal rule C_s <- C_s + perp C_{s-1}, one perp at a time."""
    rows = [np.eye(n, dtype=complex)] + [np.zeros((n, n), complex)] * smax
    for perp in perps:
        rows = rows[:1] + [rows[s] + perp @ rows[s - 1] for s in range(1, smax + 1)]
    return rows


def static_residuals(chain, n):
    """The pointwise identities at one chain, as they read on subspaces: the
    image spans of pi_{ell-1} alpha_ell, of pi_ell_perp ... pi_1_perp and of
    pi_1 ... pi_ell, compared by principal angles with alpha_{ell-1},
    alpha_ell_perp and alpha_1 (pi/2 on a dimension mismatch); reality and
    the top coefficient from the end coefficients pi_1 ... pi_r and
    pi_1_perp ... pi_r_perp of the extended solution."""
    from unitons import image_span

    def gap(a, b):
        return max_principal_angle(a, b) if a.dim == b.dim else np.pi / 2

    r = len(chain.pis)
    out = dict.fromkeys(("covering", "perp_surjectivity", "alpha1_image", "reality", "top_coefficient"), 0.0)
    if r == 0:
        return out
    spans = [image_span(pi) for pi in chain.pis]  # alpha_i, the image of pi_i
    for ell in range(2, r + 1):
        moved = image_span(chain.pis[ell - 2] @ spans[ell - 1].basis)
        out["covering"] = max(out["covering"], gap(moved, spans[ell - 2]))
    prod_perp = prod_pi = np.eye(n, dtype=complex)
    for t in range(r):
        prod_perp = chain.perps[t] @ prod_perp
        out["perp_surjectivity"] = max(out["perp_surjectivity"], gap(image_span(prod_perp), image_span(chain.perps[t])))
        prod_pi = prod_pi @ chain.pis[t]
        out["alpha1_image"] = max(out["alpha1_image"], gap(image_span(prod_pi), spans[0]))
    t0, tr_h = prod_pi, reduce(np.matmul, chain.perps, np.eye(n, dtype=complex)).conj().T
    out["reality"] = max(np.abs(t0 @ tr_h).max(), np.abs(tr_h @ t0).max())
    out["top_coefficient"] = np.abs(tr_h - prod_perp).max()
    return out


def verification_residuals(data, samples, seed, h=1e-3):
    """The worst residual of every verify check, evaluated point by point as
    the identities read: one closure per field and entry, differenced on its
    own; each sample point's stencil maps are held in a dict (9 maps).  Chains come from single-point builds; the pointwise static checks
    are ``static_residuals``."""
    from unitons import HarmonicMapSampler, draw_sample_points
    from unitons.verifier import DEFAULT_LAMBDAS, LEMMA_MAX_ELL

    sampler = HarmonicMapSampler(data)
    n, r = data.n, data.r
    eye = np.eye(n, dtype=complex)
    chains = {}

    def chain(w):
        if w not in chains:
            chains[w] = sampler.chain_at(w)
        return chains[w]

    worst = {}

    def note(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    H = random_polynomial_vector_per_entry(np.random.default_rng(seed), n, 3)

    def h_at(w):  # H at one point, by a one-point table evaluation
        return vector_values(H, np.array([w]))[0]

    for z in draw_sample_points(data, samples, seed=seed, stencil_h=h):
        maps = {}

        def phi(w):
            if w not in maps:
                maps[w] = _product(chain(w).pis, chain(w).perps, -1, n)
            return maps[w]

        note("harmonicity", stencil_harmonicity(phi, z, h))
        assert len(maps) <= 9
        a_z, a_zbar = _connection(phi, z, h)
        for lam in DEFAULT_LAMBDAS:
            dz, dzb = _stencil_fd(lambda w: _product(chain(w).pis, chain(w).perps, lam, n), z, h)
            val = _product(chain(z).pis, chain(z).perps, lam, n)
            note("extended_solution", np.linalg.norm(dz - (1 - 1 / lam) * val @ a_z)
                 + np.linalg.norm(dzb - (1 - lam) * val @ a_zbar))
            note("extended_unitarity", np.abs(val @ val.conj().T - eye).max())
        note("phi_one", np.abs(_product(chain(z).pis, chain(z).perps, 1.0, n) - eye).max())
        note("map_unitarity", np.abs(phi(z) @ phi(z).conj().T - eye).max())
        for name, value in static_residuals(chain(z), n).items():
            note(name, value)
        center = chain(z)
        conn = [_connection(lambda w, e=ell: _product(chain(w).pis[:e], chain(w).perps[:e], -1, n), z, h)
                for ell in range(r + 1)]
        for i in range(r):
            for k in range(i + 1):
                for j in range(center.kvecs.shape[-2]):  # the table's slots: the live columns
                    kv = center.kvecs[i, k, j]
                    _, dzb = _stencil_fd(lambda w: chain(w).kvecs[i, k, j], z, h)
                    note("section_holomorphic", np.linalg.norm(dzb + conn[i][1] @ kv))
                    nxt = center.kvecs[i, k + 1, j] if k + 1 <= i else np.zeros(n)
                    note("section_ladder", np.linalg.norm(conn[i][0] @ kv + nxt))
            note("antibasic", np.linalg.norm(center.perps[i] @ conn[i][0]))
        for ell in range(1, min(r, LEMMA_MAX_ELL) + 1):
            for s in range(ell):
                def f(w):
                    perps = chain(w).perps
                    return perps[ell - 1] @ (_pascal_rows(perps[: ell - 1], n, ell)[s] @ h_at(w))

                def g(w):
                    return _pascal_rows(chain(w).perps[: ell - 1], n, ell)[s + 1] @ h_at(w)

                _, dzb_f = _stencil_fd(f, z, h)
                _, dzb_g = _stencil_fd(g, z, h)
                note("dzbar_lemma", np.linalg.norm(dzb_f + conn[ell][1] @ f(z) + center.perps[ell - 1] @ dzb_g))
    return worst


def data_from_json_per_entry(obj):
    """A data file decoded one [re, im] pair at a time, each entry's coefficients
    held to the magnitude bound on their own; JSON of a wrong type raises BadShape."""
    from unitons import BadShape, DataArray, MeroVector, RationalFn
    from unitons.meromorphic import MAX_COEFFICIENT
    from unitons.serialize import decode_complex

    def rational(f):
        num, den = (tuple(decode_complex(c) for c in f[part]) for part in ("num", "den"))
        if any(abs(c) > MAX_COEFFICIENT for c in num + den):
            raise BadShape(f"coefficient magnitude above {MAX_COEFFICIENT:g}")
        return RationalFn(num, den)

    try:
        return DataArray(int(obj["n"]), int(obj["r"]), tuple(
            tuple(MeroVector(tuple(rational(f) for f in vec)) for vec in col) for col in obj["columns"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadShape(f"malformed JSON: {exc}") from exc


def matrices_to_json_tolist(ms):
    """The reference matrix encoding: a stack (P, rows, cols) as P matrix
    objects whose data are plain [re, im] lists of Python floats, from one
    tolist() of a C-contiguous copy of the whole stack."""
    ms = np.array(ms, np.complex128, order="C")
    count, rows, cols = ms.shape
    data = ms.view(np.float64).reshape(count, rows * cols, 2).tolist()
    return [{"shape": [rows, cols], "data": entries} for entries in data]


def chain_to_json_tolist(pis):
    """The reference chain encoding: ranks from each projection's own trace."""
    return {"n": pis.shape[-1], "r": len(pis), "ranks": [int(round(np.trace(p).real)) for p in pis],
            "projections": matrices_to_json_tolist(pis)}


def loop_fibers_to_json_tolist(n, r, fibers):
    return {"n": n, "r": r, "fibers": [
        {"z": [complex(z).real, complex(z).imag], "coeffs": matrices_to_json_tolist(loop.coeffs)} for z, loop in fibers]}


def sample_records_tolist(data, zs):
    """The records of one `unitons sample` block, the same kernel call and map
    product as the command's, written with Python floats: z from complex(z),
    phi from the tolist() encoding, null where the point is ambiguous or the
    map is not finite."""
    from unitons.builder import chain_arrays, extended_product

    batch = chain_arrays(data, zs)
    maps = extended_product(batch.pis, batch.perps, -1)
    bad = (batch.ambiguous | ~np.isfinite(maps).all(axis=(-2, -1))).tolist()
    return [{"z": [complex(z).real, complex(z).imag], "phi": None if b else phi}
            for z, b, phi in zip(zs, bad, matrices_to_json_tolist(maps))]


def w_basis_per_fiber(coeffs):
    """Orthonormal basis of W = Phi(H_+) mod lambda^r H_+ of one loop (r+1, n, n):
    column k n + j is Phi lambda^k e_j, whose block m holds column j of T_{m-k}."""
    from unitons import orthonormal_basis

    r, n = coeffs.shape[0] - 1, coeffs.shape[1]
    vecs = np.zeros((r * n, r * n), complex)
    for k in range(r):
        vecs[k * n:, k * n:(k + 1) * n] = coeffs[: r - k].reshape((r - k) * n, n)
    return orthonormal_basis(vecs).basis


def binomial_transform_integer(table):
    """L_i = sum_l C(i, l) H_l on a derivative table (r, r, J, n, L) whose entries
    are Gaussian integers, summed in Python ints entry by entry over the rows
    l <= i that the table holds (k + i <= r-1), and zero where it holds none:
    no Pascal matrix and no floating-point sum."""
    from math import comb

    r = table.shape[0]
    pairs = np.stack([table.real, table.imag], axis=-1)
    if (pairs != np.trunc(pairs)).any():
        raise BadShape("not a Gaussian-integer table")
    rows = pairs.astype(np.int64).reshape(r, r, -1).tolist()  # Python ints, [k][l][entry]
    out = [[[0] * pairs[0, 0].size for _ in range(r)] for _ in range(r)]
    for k in range(r):
        for i in range(r - k):
            out[k][i] = [sum(comb(i, ell) * rows[k][ell][e] for ell in range(i + 1)) for e in range(len(out[k][i]))]
    return np.array(out, np.float64).reshape(pairs.shape).view(np.complex128)[..., 0]


def w_from_x_per_vector(x_table, z, columns):
    """Orthonormal basis of W = X + lambda X_(1) + ... at z, one zero-padded vector
    lambda^k X_j^(m) (m <= k) at a time over every one of the columns, dead ones
    included, from X's derivative table on the columns' table slots."""
    from unitons import kernels, orthonormal_basis

    r, n = x_table.shape[0], x_table.shape[3]
    vals = on_all_columns(columns, kernels.eval_table(x_table, np.array([z], complex)))
    vecs = []
    for j in range(len(columns)):
        for k in range(r):
            for m in range(k + 1):
                w = np.zeros(r * n, complex)
                w[k * n:] = vals[0, m, : r - k, j].ravel()
                vecs.append(w)
    return orthonormal_basis(np.column_stack(vecs)).basis


def iwasawa_per_fiber(basis, r, n):
    """alpha_i = (sum_s S^{i-1}_s P_s) W one step at a time, the S operators from
    word enumeration; returns the chain (pis, perps), each (r, n, n)."""
    from unitons import image_span, projection_pair

    pis, perps = [], []
    for i in range(1, r + 1):
        m = sum(s_words(pis, perps, n, s) @ basis[s * n:(s + 1) * n] for s in range(i))
        pi, perp = projection_pair(image_span(m))
        pis.append(pi)
        perps.append(perp)
    return np.array(pis).reshape(r, n, n), np.array(perps).reshape(r, n, n)


def kernel_descent_per_fiber(coeffs):
    """alpha_i = ker T_i^{Phi_i}, top down, one fiber (r+1, n, n) at a time from the
    SVD of T_i itself; raises the package's errors with its messages."""
    from unitons.errors import DegreeNoDrop, NonProperUniton
    from unitons.grassmannian import BOUNDARY_TOL, IDENTITY_TOL, REALITY_TOL, TRIM_TOL
    from unitons.projections import Span, numerical_rank, projection_pair

    r, n = coeffs.shape[0] - 1, coeffs.shape[1]
    T = [coeffs[i].copy() for i in range(r + 1)]
    if np.abs(T[0]).max() <= TRIM_TOL or np.abs(T[r]).max() <= TRIM_TOL:
        raise DegreeNoDrop("loop must have non-zero constant and top coefficients")
    if r > 0 and max(np.abs(T[0] @ T[r].conj().T).max(), np.abs(T[r].conj().T @ T[0]).max()) > REALITY_TOL:
        raise DegreeNoDrop("reality condition T_0 T_r^* = 0 fails; not an extended-solution fiber")
    pis, perps = np.zeros((r, n, n), complex), np.zeros((r, n, n), complex)
    for i in range(r, 0, -1):
        _, sv, vh = np.linalg.svd(T[i])
        rank = int(numerical_rank(sv))
        if rank in (0, n):
            raise NonProperUniton(f"ker T_{i} has dimension {n - rank}")
        pi, perp = projection_pair(Span(vh[rank:].conj().T, n, validate=False))
        lam_minus, lam_top = np.abs(T[0] @ perp).max(), np.abs(T[i] @ pi).max()
        if max(lam_minus, lam_top) > BOUNDARY_TOL:
            raise DegreeNoDrop(f"boundary coefficients at step {i} do not vanish ({lam_minus:.2e}, {lam_top:.2e})")
        T = [T[ell] @ pi + T[ell + 1] @ perp for ell in range(i)]
        pis[i - 1], perps[i - 1] = pi, perp
    if np.abs(T[0] - np.eye(n)).max() > IDENTITY_TOL:
        raise DegreeNoDrop("residual constant term is not the identity")
    return pis, perps


def max_principal_angle(a: Span, b: Span) -> float:
    ang = principal_angles(a, b)
    return float(ang[-1]) if ang.size else 0.0


def span_gap(a: Span, b: Span) -> float:
    """Largest principal angle, or pi/2 when the dimensions differ."""
    return float(projector_gap(*(s.basis @ s.basis.conj().T for s in (a, b))))


def spans_equal(a: Span, b: Span) -> bool:
    """Basis-independent equality: equal ranks and all angles below SPAN_EQ_TOL."""
    return span_gap(a, b) < SPAN_EQ_TOL


def w_span(w):
    """The span of one W subspace of C^{rn}."""
    return Span(w.basis, w.r * w.n, validate=False)


def cartan_embed(s: Span) -> np.ndarray:
    """pi_s - pi_s_perp: the totally geodesic embedding of a subspace into U(n)."""
    pi, perp = projection_pair(s)
    return pi - perp


def associated_and_gauss(h_column: Sequence[MeroVector], i: int, z: complex) -> tuple[Span, Span]:
    """The i'th associated curve h_(i) and Gauss bundle fiber G^(i)(h) at z."""
    if i < 0:
        raise BadShape("i must be >= 0")
    h_column = tuple(h_column)
    if not h_column:
        raise BadShape("need at least one spanning section")
    n = h_column[0].n
    lower: list[np.ndarray] = []
    upper: list[np.ndarray] = []
    for vec in h_column:
        cur = vec
        for m in range(i + 1):
            v = cur.eval(z)
            upper.append(v)
            if m <= i - 1:
                lower.append(v)
            if m < i:
                cur = cur.derivative()
    h_i = orthonormal_basis(np.column_stack(upper) if upper else np.zeros((n, 0)))
    if i == 0:
        return h_i, h_i
    h_im1 = orthonormal_basis(np.column_stack(lower))
    _, perp = projection_pair(h_im1)
    gauss = orthonormal_basis(perp @ h_i.basis)
    return h_i, gauss


def q_adapted_defect_per_fiber(w, q):
    """Largest principal angle between one W and nu_Q W, by the cosine/sine route."""
    moved = Span(q.nu_matrix(w.r) @ w.basis, w.r * w.n, validate=False)
    return max_principal_angle(w_span(w), moved)


def normalize_type_one_per_point(
    loop_sampler: Callable[[complex], "LoopPoly"],
    sample_points: Sequence[complex],
):
    """Type-one normalization with every sample point pushed through every
    earlier constant-loop step again on each iteration; returns the pre-factor
    and the normalized sampler."""
    from unitons import LoopPoly, NoTermination, extended_coefficients
    from unitons.grassmannian import ConstantLoop

    points = [complex(z) for z in sample_points]
    if not points:
        raise BadShape("need at least one sample point")
    first = loop_sampler(points[0])
    n = first.n
    r0 = first.degree
    steps: list[Span] = []
    degrees: list[int] = []  # degree after each step, decided from the sample points

    def sample(z: complex) -> LoopPoly:
        loop = loop_sampler(z)
        for span, deg in zip(steps, degrees):
            pi, perp = projection_pair(span)
            c = loop.coeffs  # T_t <- pi T_t + perp T_{t+1}
            loop = LoopPoly((pi @ c + perp @ np.concatenate([c[1:], np.zeros((1, n, n), np.complex128)]))[: deg + 1])
        return loop

    def constant_image() -> Span:
        return orthonormal_basis(np.hstack([sample(z).coeffs[0] for z in points]))

    for _ in range(max(r0, 1)):
        a_span = constant_image()
        if a_span.dim == n:
            break
        if a_span.dim == 0:
            raise NoTermination("constant term vanishes identically")
        prev_degree = degrees[-1] if degrees else r0
        steps.append(a_span)
        degrees.append(prev_degree)  # provisional: trim below once sampled
        degrees[-1] = LoopPoly(np.array([sample(z).coeffs for z in points])).trimmed().degree
    else:
        if constant_image().dim != n:
            raise NoTermination(f"not type one after {max(r0, 1)} constant-loop steps")

    # the last step multiplies leftmost: expand the product over the reversed steps
    pairs = np.array([projection_pair(span) for span in reversed(steps)]).reshape(-1, 2, n, n)
    return ConstantLoop(tuple(steps), extended_coefficients(pairs[:, 0], pairs[:, 1], n)), sample
