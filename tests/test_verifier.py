from collections import Counter

import numpy as np
import pytest

from unitons import (
    BadShape,
    HarmonicMapSampler,
    build_fiber,
    connection_form,
    draw_sample_points,
    extended_checks,
    harmonicity_residual,
    orthonormal_basis,
    projection_pair,
    random_data,
    s1_invariant_data,
    section_identities,
    verification_report,
)
from unitons import builder, kernels, verifier
from unitons.projections import factor_products, masked_basis
from unitons.verifier import DEFAULT_TOLERANCES, FD_STEP, LEMMA_MAX_ELL, stencil_chains

from oracles import (
    nested_harmonicity,
    random_chain,
    random_polynomial_vector_per_entry,
    static_residuals,
    vector_values,
    verification_residuals,
)


def _wirtinger_of(field, z):
    """(d/dz f, d/dzbar f) at z of a field called once per stencil point: its
    values on ``_stencil(z)``, differenced by ``_wirtinger``."""
    return verifier._wirtinger(np.array([field(w) for w in verifier._stencil(z, FD_STEP)[1:].tolist()]), FD_STEP)


def _maps(chains):
    """The map (pi_1 - pi_1_perp) ... (pi_r - pi_r_perp) on every point of a chain stack."""
    return builder.extended_product(chains.pis, chains.perps, -1, np.eye(chains.pis.shape[-1], dtype=np.complex128))


def test_wirtinger_holomorphic_monomial():
    dz, dzb = verifier._wirtinger(verifier._stencil(1.0, FD_STEP)[1:] ** 2, FD_STEP)
    assert abs(dz - 2.0) <= 1e-9
    assert abs(dzb) <= 1e-9


def test_wirtinger_antiholomorphic():
    dz, dzb = verifier._wirtinger(np.conj(verifier._stencil(0.3 - 0.8j, FD_STEP)[1:]), FD_STEP)
    assert abs(dz) <= 1e-9
    assert abs(dzb - 1.0) <= 1e-9


def test_wirtinger_mixed():
    z0 = 1.0 + 1.0j
    dz, _ = verifier._wirtinger(abs(verifier._stencil(z0, FD_STEP)[1:]) ** 2, FD_STEP)
    assert abs(dz - np.conj(z0)) <= 1e-9


def test_residual_convergence_order():
    # 4th-order scheme: halving h shrinks the error by >= 8 until the noise floor
    z0 = 0.4 + 0.3j

    def f(z):
        return np.exp(2 * z) * np.conj(z) ** 3

    def exact_dzb(z):
        return 3 * np.exp(2 * z) * np.conj(z) ** 2

    errs = []
    for h in (4e-2, 2e-2, 1e-2):
        _, dzb = verifier._wirtinger(f(verifier._stencil(z0, h)[1:]), h)
        errs.append(abs(dzb - exact_dzb(z0)))
    for a, b in zip(errs, errs[1:]):
        if a > 1e-6:
            assert a / b >= 8.0


def test_laplacian_convergence_order():
    # the 5-point second differences along x and y are 4th order as well
    z0 = 0.4 + 0.3j

    def f(z):
        return np.exp(2 * z) * np.conj(z) ** 3

    exact = 24 * np.exp(2 * z0) * np.conj(z0) ** 2  # 4 f_zzbar
    errs = [abs(verifier._laplacian(f(verifier._stencil(z0, h)), h) - exact) for h in (4e-2, 2e-2, 1e-2)]
    for a, b in zip(errs, errs[1:]):
        if a > 1e-6:
            assert a / b >= 8.0
    assert errs[-1] <= 1e-5
    assert verifier._laplacian(np.full(9, 0.3 - 0.7j), 1e-3) == 0


def test_connection_form_constant_map():
    cf = connection_form(lambda z: np.diag([1.0 + 0j, -1.0]), 0.2 + 0.1j)
    assert np.abs(cf.a_z).max() <= 1e-12
    assert np.abs(cf.a_zbar).max() <= 1e-12


def test_connection_skew_adjointness():
    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=1)
    s = HarmonicMapSampler(data)
    for z in draw_sample_points(data, 5, seed=2, stencil_h=1e-3):
        cf = connection_form(s.map_at, z)
        # the two parts are minus adjoints of each other, up to FD error
        assert np.abs(cf.a_zbar + cf.a_z.conj().T).max() <= 1e-7


def test_basic_uniton_property_r1():
    # for r = 1 the map is Cartan-embedded holomorphic alpha_1: A_z kills alpha_1_perp
    data = random_data(3, 1, 3, seed=3)
    s = HarmonicMapSampler(data)
    for z in draw_sample_points(data, 5, seed=4, stencil_h=1e-3):
        cf = connection_form(s.map_at, z)
        fib = build_fiber(data, z)
        perp_basis = orthonormal_basis(fib.chain.perps[0]).basis
        assert np.linalg.norm(cf.a_z @ perp_basis) <= 1e-6


def test_harmonicity_constant_map():
    res = harmonicity_residual(lambda z: np.eye(3, dtype=complex), 0.1 + 0.9j)
    assert res <= 1e-12


def test_harmonicity_built_map_and_negative_control():
    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=5)
    s = HarmonicMapSampler(data)
    pts = draw_sample_points(data, 5, seed=6, stencil_h=1e-3)
    for z in pts:
        assert harmonicity_residual(s.map_at, z) <= 1e-5

    def corrupted(z):
        cd = s.chain_at(z)
        v = np.zeros(4, dtype=complex)
        v[0], v[1] = 1.0, np.conj(z)  # antiholomorphic line is no uniton
        pi, perp = projection_pair(orthonormal_basis(v))
        out = (cd.pis[0] - cd.perps[0]) @ (pi - perp)
        return out

    assert harmonicity_residual(corrupted, pts[0]) >= 1e-2


@pytest.mark.parametrize("data", [
    random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0),
    random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=5),
    random_data(3, 0, 2, seed=0),
], ids=["echelon-5-4", "echelon-4-2", "r0"])
def test_harmonicity_input_forms_agree_bit_for_bit(data):
    # the maps on stencil_chains' one kernel call, and a sampler or map callable
    # evaluated point by point, give the same residuals
    pts = np.array(draw_sample_points(data, 4, seed=10, stencil_h=1e-3))
    s = HarmonicMapSampler(data)
    for z in pts:
        by_point = harmonicity_residual(s.map_at, z)
        assert harmonicity_residual(s, z) == harmonicity_residual(_maps(stencil_chains(data, z)), z) == by_point
    stacked = harmonicity_residual(_maps(stencil_chains(data, pts)), pts)
    assert stacked.shape == pts.shape
    assert np.array_equal(stacked, [harmonicity_residual(s.map_at, z) for z in pts])


def test_extended_checks_built_map():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 2), seed=7)
    z = draw_sample_points(data, 1, seed=8, stencil_h=1e-3)[0]
    chains = stencil_chains(data, z)
    rep = extended_checks(builder.extended_coefficients(chains.pis, chains.perps, data.n))
    assert rep["es_residual"] <= 1e-5
    assert rep["unitarity_defect"] <= 1e-10
    assert rep["phi1_defect"] <= 1e-12


def test_section_identities_polynomial_r1():
    data = random_data(3, 1, 3, seed=11)
    z = draw_sample_points(data, 1, seed=12, stencil_h=1e-3)[0]
    sec = section_identities(stencil_chains(data, z))
    # step 0 sits in the standard structure: dbar K = dbar H_0 = 0
    assert sec["max_dbar_K"] <= 1e-9
    assert sec["max_Az_K"] <= 1e-5


def test_section_identities_full_depth():
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=13)
    for z in draw_sample_points(data, 3, seed=14, stencil_h=1e-3):
        sec = section_identities(stencil_chains(data, z))
        assert sec["max_dbar_K"] <= 1e-5
        assert sec["max_Az_K"] <= 1e-5
        assert sec["max_dzbar_lemma"] <= 1e-5


def test_verification_report_r0():
    data = random_data(3, 0, 2, seed=0)
    rep = verification_report(data, samples=2, seed=1)
    assert rep["passed"]
    harm = next(c for c in rep["checks"] if c["name"] == "harmonicity")
    assert harm["max_residual"] <= 1e-12


def test_verification_report_structure_and_overrides():
    data = random_data(3, 2, 2, sparsity_pattern=(1, 1), seed=2)
    rep = verification_report(data, samples=2, seed=3)
    assert rep["passed"] and {"name", "max_residual", "tolerance", "pass"} <= set(rep["checks"][0])
    strict = verification_report(data, samples=1, seed=3, tolerances={"harmonicity": 1e-30})
    assert not strict["passed"]
    with pytest.raises(BadShape):
        verification_report(data, samples=1, tolerances={"nonsense": 1.0})


def _per_entry_sections(sampler, z, seed=0):
    """Reference: one wirtinger per section entry and lemma field, one
    connection form per prefix map, as the identities read entry by entry,
    over the chain's table slots (the live columns)."""
    r, n = sampler.r, sampler.n
    conn = [connection_form(lambda w, _e=ell: sampler.prefix_map_at(w, _e), z) for ell in range(r + 1)]
    center = sampler.chain_at(z)
    J = center.kvecs.shape[-2]
    dbar_k, az_k, lemma = [], [], []
    for i in range(r):
        for k in range(i + 1):
            for j in range(J):
                kv = center.kvecs[i, k, j]
                _, dzb = _wirtinger_of(lambda w, _i=i, _k=k, _j=j: sampler.chain_at(w).kvecs[_i, _k, _j], z)
                dbar_k.append(float(np.linalg.norm(dzb + conn[i].a_zbar @ kv)))
                nxt = center.kvecs[i, k + 1, j] if k + 1 <= i else np.zeros(n)
                az_k.append(float(np.linalg.norm(conn[i].a_z @ kv + nxt)))
    H = random_polynomial_vector_per_entry(np.random.default_rng(seed), n, 3)

    def h_at(w):  # H at one point, by a one-point table evaluation
        return vector_values(H, np.array([w]))[0]

    for ell in range(1, min(r, LEMMA_MAX_ELL) + 1):
        for s in range(ell):
            def f_field(w, _ell=ell, _s=s):
                cd = sampler.chain_at(w)
                return cd.perps[_ell - 1] @ (factor_products(None, cd.perps[: _ell - 1], n, top=_ell)[_s] @ h_at(w))

            def g_field(w, _ell=ell, _s=s):
                cd = sampler.chain_at(w)
                return factor_products(None, cd.perps[: _ell - 1], n, top=_ell)[_s + 1] @ h_at(w)

            _, dzb_f = _wirtinger_of(f_field, z)
            _, dzb_g = _wirtinger_of(g_field, z)
            resid = dzb_f + conn[ell].a_zbar @ f_field(z) + center.perps[ell - 1] @ dzb_g
            lemma.append(float(np.linalg.norm(resid)))
    antibasic = [float(np.linalg.norm(center.perps[ell] @ conn[ell].a_z)) for ell in range(r)]
    return dbar_k, az_k, lemma, antibasic


@pytest.mark.parametrize("data", [
    random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=5),  # J = 4 columns
    random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=2),  # r = 4 > LEMMA_MAX_ELL
], ids=["J>1", "r=4"])
def test_stacked_sections_equal_per_entry_reference(data):
    s = HarmonicMapSampler(data)
    for z in draw_sample_points(data, 2, seed=17, stencil_h=1e-3):
        sec = section_identities(stencil_chains(data, z), seed=4)
        dbar_k, az_k, lemma, antibasic = _per_entry_sections(s, z, seed=4)
        assert sec["dbar_K"] == dbar_k and sec["max_dbar_K"] == max(dbar_k)
        assert sec["Az_K"] == az_k and sec["max_Az_K"] == max(az_k)
        assert sec["dzbar_lemma"] == lemma and len(lemma) == sum(range(min(data.r, LEMMA_MAX_ELL) + 1))
        assert sec["antibasic"] == antibasic and sec["max_antibasic"] == max(antibasic)
        assert sec["max_antibasic"] <= 1e-5


def test_sections_r0_are_empty():
    data = random_data(3, 0, 2, seed=0)
    sec = section_identities(stencil_chains(data, 0.3 + 0.2j))
    assert sec["dbar_K"] == sec["Az_K"] == sec["dzbar_lemma"] == sec["antibasic"] == []
    assert sec["max_dbar_K"] == sec["max_antibasic"] == 0.0


_ORACLE_DATA = [
    *((f"c2-{n}-{r}-{'-'.join(map(str, pattern))}-s{seed}", (n, r, pattern, seed))
      for seed in (0, 1, 2, 3)
      for n, r, pattern in ((3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)),
                            (4, 2, (1, 2)), (5, 3, (1, 2, 2)))),
    ("s1", "s1"), ("r0", (3, 0, None, 0)), ("dense", (4, 3, None, 2)),
]


@pytest.mark.parametrize("spec", [spec for _, spec in _ORACLE_DATA], ids=[name for name, _ in _ORACLE_DATA])
def test_report_matches_per_point_oracle(spec):
    # the criterion-2 datasets, an S^1-invariant one, r = 0 and dense random data
    data = s1_invariant_data(4, (1, 2, 3), 3, seed=2) if spec == "s1" else random_data(
        spec[0], spec[1], 3 if spec[1] else 2, sparsity_pattern=spec[2], seed=spec[3])
    rep = verification_report(data, samples=2, seed=5)
    expected = verification_residuals(data, 2, 5)
    assert [c["name"] for c in rep["checks"]] == list(DEFAULT_TOLERANCES)
    for check in rep["checks"]:
        assert abs(check["max_residual"] - expected.get(check["name"], 0.0)) <= 1e-12, check["name"]


def test_verify_builds_once_on_the_points_the_draw_checked(monkeypatch):
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0)
    samples = 3
    points = draw_sample_points(data, samples, seed=5, stencil_h=verifier.FD_STEP)
    calls, built = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(data, zs):
        built.append(np.asarray(zs))
        return arrays(data, zs)

    arrays = builder.chain_arrays
    monkeypatch.setattr(builder, "chain_arrays", recorded)
    monkeypatch.setattr(verifier, "chain_arrays", recorded)
    monkeypatch.setattr(kernels, "build_chain", counted("build_chain", kernels.build_chain))
    product = counted("extended_product", builder.extended_product)
    monkeypatch.setattr(builder, "extended_product", product)
    monkeypatch.setattr(builder.ChainBatch, "at", counted("at", builder.ChainBatch.at))
    for stage in ("harmonicity_residual", "extended_checks", "section_identities"):
        monkeypatch.setattr(verifier, stage, counted(stage, getattr(verifier, stage)))
    assert verifier.verification_report(data, samples=samples, seed=5)["passed"]
    # every first candidate is accepted: the draw's one kernel call serves every check
    assert calls["build_chain"] == len(built) == 1
    assert built[0].size == 9 * samples
    assert set(built[0].tolist()) == set(verifier._stencil(points, verifier.FD_STEP).ravel().tolist())
    # r + 3 Cartan products, and no per-point chain read
    assert calls["extended_product"] <= 3 * samples
    assert calls["at"] == 0
    assert calls["harmonicity_residual"] == calls["extended_checks"] == calls["section_identities"] == 1


def test_verify_inverts_the_prefix_maps_once(monkeypatch):
    # one connection of phi_0..phi_r serves harmonicity, Phi_lambda and the sections
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0)
    inv, shapes = np.linalg.inv, []

    def counted(a):
        shapes.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    assert verification_report(data, samples=3, seed=5)["passed"]
    assert shapes == [(3, 5, 5, 5)]  # (S, r + 1, n, n) at the sample points


def test_shared_connection_gives_the_standalone_residuals():
    # harmonicity and sections are bit for bit their own calls; Phi_lambda's
    # equation reads the map's connection, not Phi_{-1}'s from the coefficients
    data = random_data(5, 3, 3, sparsity_pattern=(1, 2, 2), seed=1)
    batch = builder._draw(data, 3, 5, verifier.FD_STEP)[1]
    z = batch.zs[0]
    prefix = verifier._prefix_maps(batch)
    conn = verifier._connection(prefix, verifier.FD_STEP)
    last = verifier.ConnectionFiber(*(f[..., -1, :, :] for f in conn))
    maps = builder.extended_product(batch.pis, batch.perps, -1, np.eye(5, dtype=complex))
    assert prefix[..., -1, :, :].tobytes() == maps.tobytes()
    assert harmonicity_residual(maps, z, conn=last).tobytes() == harmonicity_residual(maps, z).tobytes()
    shared, own = section_identities(batch, seed=2, conn=conn), section_identities(batch, seed=2)
    for name, vals in own.items():
        assert np.asarray(shared[name]).tobytes() == np.asarray(vals).tobytes(), name
    T = builder.extended_coefficients(batch.pis, batch.perps, 5)
    shared, own = extended_checks(T, conn=last), extended_checks(T)
    assert np.abs(shared["es_residual"] - own["es_residual"]).max() <= 1e-13
    for name in ("unitarity_defect", "phi1_defect"):
        assert shared[name].tobytes() == own[name].tobytes(), name


def test_draw_checks_every_stencil_point_and_keeps_its_chains(monkeypatch):
    # in the first block, candidate 0 is ambiguous at its last stencil point and
    # candidate 1 changes rank at its first: both are rejected, a second block is
    # built, and the chains the draw returns are still those of its points' stencils
    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=5)
    arrays, blocks = builder.chain_arrays, []

    def flagged(data, zs):
        batch = arrays(data, zs)
        blocks.append(len(zs))
        if len(blocks) == 1:  # the points are laid out (9, candidates)
            P, ranks = len(zs) // 9, batch.ranks.copy()
            ranks[1 * P + 1, 0] += 1
            batch = batch._replace(ambiguous=batch.ambiguous | (np.arange(len(zs)) == 8 * P), ranks=ranks)
        return batch

    monkeypatch.setattr(builder, "chain_arrays", flagged)
    points, chains = builder._draw(data, 3, 5, verifier.FD_STEP)
    assert blocks == [27, 18]
    assert points == draw_sample_points(data, 5, seed=5, stencil_h=verifier.FD_STEP)[2:]
    stencil = verifier._stencil(points, verifier.FD_STEP)
    fresh = arrays(data, stencil.ravel())
    assert np.array_equal(chains.zs, stencil)
    for got, want in zip(chains, fresh):
        assert np.array_equal(got, want.reshape(stencil.shape + want.shape[1:]))


def _twisted_map(data, eps, seed):
    """phi exp(i eps chi X) with chi = 1 / (1 + |z|^2) and a fixed Hermitian X:
    a smooth unitary map that is not harmonic."""
    sampler = HarmonicMapSampler(data)
    m = np.random.default_rng(seed).standard_normal((2, data.n, data.n))
    w, v = np.linalg.eigh(m[0] + m[0].T + 1j * (m[1] - m[1].T))

    def phi(z):
        return sampler.map_at(z) @ (v * np.exp(1j * eps * w / (1 + abs(z) ** 2))) @ v.conj().T
    return phi


def test_stencil_harmonicity_matches_the_nested_residual_off_harmonic_maps():
    # the 9-point residual and the nested one difference the same identity: on
    # maps that are not harmonic both read the same defect, here the criterion-2
    # maps twisted at their first criterion-2 sample point, and the control
    cases = []
    for n, r, pattern in ((3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2))):
        for seed in range(4):
            data = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
            cases.append((_twisted_map(data, 0.1, seed), draw_sample_points(data, 1, seed=5, stencil_h=1e-3)[0]))
    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=0)
    s = HarmonicMapSampler(data)

    def corrupted(z):  # criterion 2's negative control
        cd = s.chain_at(z)
        pi, perp = projection_pair(orthonormal_basis(np.array([1.0, np.conj(z), 0.0, 0.0])))
        return (cd.pis[0] - cd.perps[0]) @ (pi - perp)

    cases.append((corrupted, draw_sample_points(data, 1, seed=6, stencil_h=1e-3)[0]))
    for phi, z in cases:
        new, nested = harmonicity_residual(phi, z), nested_harmonicity(phi, z)
        assert min(new, nested) >= 1e-3
        assert abs(new - nested) <= 1e-6 * nested
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)) + 1j * np.eye(4))
    assert harmonicity_residual(lambda z: q, 0.3 - 0.2j) <= 1e-12


def test_static_stage_svd_count_is_independent_of_samples(monkeypatch):
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0)
    svds, static = Counter(), verifier._static_checks
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svds["all"] += 1
        return svd(*args, **kwargs)

    def counted_static(chains, coeffs):
        before = svds["all"]
        out = static(chains, coeffs)
        svds[len(chains.zs)] += svds["all"] - before
        return out

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(verifier, "_static_checks", counted_static)
    for samples in (1, 5):
        verification_report(data, samples=samples, seed=5)
    assert svds[1] == svds[5] >= 1


def _chain_stack(chains):
    """A ChainBatch of the given (pis, perps) chains, their ranks from masked SVDs."""
    pis = np.array([c[0] for c in chains], np.complex128)
    perps = np.array([c[1] for c in chains], np.complex128)
    ranks = masked_basis(pis)[2]
    S, r, n = pis.shape[:3]
    return builder.ChainBatch(np.zeros(S, complex), pis, perps, ranks, np.zeros((S, r, r, 0, n)), np.zeros(S, bool))


def test_static_checks_flag_broken_chains_as_the_per_point_reference_does():
    # random projections are no uniton chain: their steps are not nested
    rng = np.random.default_rng(21)
    batch = _chain_stack([random_chain(rng, 5, 3) for _ in range(8)])
    stacked = verifier._static_checks(batch, builder.extended_coefficients(batch.pis, batch.perps, 5))
    for p in range(8):
        reference = static_residuals(batch.take(p), 5)
        for name, value in reference.items():
            assert abs(stacked[name][p] - value) <= 1e-12, name
    for name in ("covering", "perp_surjectivity", "alpha1_image"):
        assert stacked[name].max() > DEFAULT_TOLERANCES[name], name
    # T_0 T_r^* = 0 and T_r^* = pi_r_perp ... pi_1_perp hold for any projections
    for name in ("reality", "top_coefficient"):
        assert stacked[name].max() <= DEFAULT_TOLERANCES[name], name



_CRITERION_2 = [(n, r, pattern, seed) for seed in range(4)
                for n, r, pattern in ((3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2)))]


@pytest.mark.parametrize("case", _CRITERION_2, ids=lambda c: f"{c[0]}-{c[1]}-{'-'.join(map(str, c[2]))}-s{c[3]}")
def test_extended_values_from_coefficients_match_the_per_lambda_product(case):
    # Phi_lambda as sum_t lambda^t T_t agrees with the product of its r factors
    # at every lambda extended_checks reads, on every stencil point of its draw
    n, r, pattern, seed = case
    data = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
    batch = builder._draw(data, 3, 5, verifier.FD_STEP)[1]
    lams = np.array((-1, 1, *verifier.DEFAULT_LAMBDAS), np.complex128)
    ext = verifier._extended_values(builder.extended_coefficients(batch.pis, batch.perps, n), lams)
    assert ext.shape == batch.zs.shape + (len(lams), n, n)
    for k, lam in enumerate(lams):
        product = builder.extended_product(batch.pis, batch.perps, lam, np.eye(n, dtype=np.complex128))
        assert np.abs(ext[..., k, :, :] - product).max() <= 1e-13, lam


def test_verify_forms_the_extended_coefficients_once(monkeypatch):
    calls = Counter()
    coefficients = builder.extended_coefficients

    def counted(*args):
        calls["extended_coefficients"] += 1
        return coefficients(*args)

    monkeypatch.setattr(verifier, "extended_coefficients", counted)
    for data in (random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0), random_data(3, 0, 2, seed=0)):
        calls.clear()
        verification_report(data, samples=3, seed=5)
        assert calls["extended_coefficients"] == 1


@pytest.mark.parametrize("case", _CRITERION_2, ids=lambda c: f"{c[0]}-{c[1]}-{'-'.join(map(str, c[2]))}-s{c[3]}")
def test_report_is_bit_for_bit_that_of_the_static_checks_own_coefficients(case, monkeypatch):
    # the static checks read row 0 of the stencil batch's coefficients; the
    # centres' own extended_coefficients call gives every report value bit for bit
    n, r, pattern, seed = case
    data = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
    report = verification_report(data, samples=3, seed=5)
    batch = builder._draw(data, 3, 5, verifier.FD_STEP)[1]
    row0 = builder.extended_coefficients(batch.pis, batch.perps, n)[0]
    own = builder.extended_coefficients(batch.pis[0], batch.perps[0], n)
    assert row0.view(np.float64).tobytes() == own.view(np.float64).tobytes()
    static = verifier._static_checks
    monkeypatch.setattr(verifier, "_static_checks", lambda chains, _: static(
        chains, builder.extended_coefficients(chains.pis, chains.perps, n)))
    reference = verification_report(data, samples=3, seed=5)
    assert [c["max_residual"].hex() for c in report["checks"]] == [c["max_residual"].hex() for c in reference["checks"]]
    assert report == reference


@pytest.mark.parametrize("data", [
    random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=5),
    random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=2),
    random_data(3, 0, 2, seed=0),
], ids=["J>1", "r=4", "r0"])
def test_prefix_maps_are_the_products_of_their_steps_bit_for_bit(data):
    eye = np.eye(data.n, dtype=np.complex128)
    chains = stencil_chains(data, draw_sample_points(data, 2, seed=17, stencil_h=FD_STEP))
    prefix = verifier._prefix_maps(chains)
    assert prefix.shape == chains.zs.shape + (data.r + 1, data.n, data.n)
    for ell in range(data.r + 1):
        expected = builder.extended_product(chains.pis[..., :ell, :, :], chains.perps[..., :ell, :, :], -1, eye)
        assert np.array_equal(prefix[..., ell, :, :], expected), ell


def test_lemma_vector_values_match_its_pointwise_evaluation():
    data = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0)
    zs = builder._draw(data, 10, 7, verifier.FD_STEP)[1].zs  # (9, 10)
    for seed in range(5):
        H = random_polynomial_vector_per_entry(np.random.default_rng(seed), 5, 3)
        values = verifier._lemma_vector_values(seed, 5, zs)
        expected = np.array([[H.eval(z) for z in row] for row in zs.tolist()])
        assert values.shape == expected.shape == zs.shape + (5,)
        # relative to each value's largest entry: a single entry may cancel
        assert (np.abs(values - expected).max(axis=-1) <= 1e-15 * np.abs(expected).max(axis=-1)).all()


def test_lemma_vector_values_equal_the_per_entry_draw_bit_for_bit():
    # one draw of H's padded coefficients against a draw per entry, evaluated on its
    # trimmed numerators: the same stream and the same Horner values, signed zeros included
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=0)
    zs = builder._draw(data, 3, 7, verifier.FD_STEP)[1].zs  # (9, 3)
    assert zs.shape == (9, 3)
    for seed in range(1000):
        expected = vector_values(random_polynomial_vector_per_entry(np.random.default_rng(seed), 4, 3), zs)
        assert verifier._lemma_vector_values(seed, 4, zs).tobytes() == expected.tobytes(), seed
