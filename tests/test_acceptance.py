"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are pinned here.  Scale is deliberately small (n <= 6, r <= 4,
polynomial degree <= 3) and every expected value is either computed by an
independent oracle in-test or taken from a stated identity.
"""

import math
import time

import numpy as np

from conftest import ACCEPTANCE_LINES
from oracles import c_words, cartan_embed, max_principal_angle, product_inverse_coeff, random_chain, s_words, span_gap, w_span

from unitons import (
    DataArray,
    HarmonicMapSampler,
    LoopPoly,
    MeroVector,
    QInvolution,
    RationalFn,
    alpha1_is_full,
    build_fiber,
    draw_sample_points,
    extended_checks,
    extended_coefficients,
    harmonicity_residual,
    iwasawa_factorize,
    kernel_factorize_fiber,
    normalize_type_one,
    orthonormal_basis,
    projection_pair,
    q_adapted_check,
    random_data,
    s1_invariant_data,
    section_identities,
    w_from_loop,
    w_from_x,
    x_columns_from_data,
)
from unitons.builder import extended_product
from unitons.cli import main as cli_main
from unitons.grassmannian import reality_defect
from unitons.projections import factor_products, image_span
from unitons.verifier import stencil_chains

P = RationalFn.polynomial

TOL_OPERATORS = 1e-11
TOL_HARMONIC = 1e-5
TOL_NEGATIVE = 1e-2
TOL_EXTENDED = 1e-5
TOL_UNITARITY = 1e-10
TOL_PHI_ONE = 1e-12
TOL_REALITY = 1e-10
TOL_COVERING = 1e-7
TOL_SECTIONS = 1e-5
TOL_MODEL = 1e-8
TOL_FACTOR = 1e-7
TOL_RECONSTRUCT = 1e-8
TOL_NESTED = 1e-7
TOL_PHI_NESTED = 1e-8
TIME_OPERATORS = 5.0
TIME_HARMONIC = 30.0
TIME_SUITE = 60.0

# 20 data arrays at desk scale: (n, r, echelon pattern) x seeds
HARMONIC_CASES = [
    (3, 2, (1, 1)),
    (4, 3, (1, 1, 1)),
    (5, 4, (1, 1, 1, 1)),
    (4, 2, (1, 2)),
    (5, 3, (1, 2, 2)),
]
HARMONIC_SEEDS = (0, 1, 2, 3)

_DURATIONS = {}


def _record(num, label, ok, detail):
    line = f"[acceptance] criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _chain_gap(pairs_a, pairs_b):
    return max((span_gap(orthonormal_basis(p1), orthonormal_basis(p2))
                for (p1, _), (p2, _) in zip(pairs_a, pairs_b)), default=0.0)


def test_criterion_01_operator_calculus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        i = int(rng.integers(1, 5))
        pis, perps = random_chain(rng, n, i)
        C = factor_products(None, perps, n, top=i)
        S = factor_products(pis, perps, n)
        for s in range(i + 1):
            worst = max(worst, np.abs(C[s] - c_words(perps, n, s)).max())
            worst = max(worst, np.abs(S[s] - s_words(pis, perps, n, s)).max())
            worst = max(worst, np.abs(S[s] - product_inverse_coeff(pis, perps, s)).max())
        for k in range(i + 1):
            lhs = sum(math.comb(s, k) * S[s] for s in range(k, i + 1))
            worst = max(worst, np.abs(lhs - C[k]).max())
    elapsed = time.perf_counter() - t0
    _DURATIONS[1] = elapsed
    ok = worst <= TOL_OPERATORS and elapsed < TIME_OPERATORS
    _record(1, "operator calculus", ok, f"max dev {worst:.2e}, {elapsed:.1f}s")


def _harmonic_datasets():
    for seed in HARMONIC_SEEDS:
        for n, r, pattern in HARMONIC_CASES:
            yield random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)


def test_criterion_02_harmonicity():
    t0 = time.perf_counter()
    worst = 0.0
    for data in _harmonic_datasets():
        zs = np.array(draw_sample_points(data, 30, seed=5, stencil_h=1e-3))
        chains = stencil_chains(data, zs)  # one kernel call on the 30 points' stencils
        maps = extended_product(chains.pis, chains.perps, -1, np.eye(data.n, dtype=complex))
        worst = max(worst, harmonicity_residual(maps, zs).max())
    # negative control: replace the second factor by a non-uniton projection
    data = random_data(4, 2, 3, sparsity_pattern=(1, 2), seed=0)
    sampler = HarmonicMapSampler(data)

    def corrupted(z):
        cd = sampler.chain_at(z)
        v = np.zeros(4, dtype=complex)
        v[0], v[1] = 1.0, np.conj(z)
        pi, perp = projection_pair(orthonormal_basis(v))
        return (cd.pis[0] - cd.perps[0]) @ (pi - perp)

    z0 = draw_sample_points(data, 1, seed=6, stencil_h=1e-3)[0]
    control = harmonicity_residual(corrupted, z0)
    elapsed = time.perf_counter() - t0
    _DURATIONS[2] = elapsed
    ok = worst <= TOL_HARMONIC and control >= TOL_NEGATIVE and elapsed < TIME_HARMONIC
    _record(2, "harmonicity", ok,
            f"max residual {worst:.2e}, control {control:.2e}, {elapsed:.1f}s")


def test_criterion_03_extended_solution():
    t0 = time.perf_counter()
    worst_es = worst_unit = worst_phi1 = worst_real = 0.0
    for seed in (0, 1):
        for n, r, pattern in HARMONIC_CASES[:3]:
            data = random_data(n, r, 3, sparsity_pattern=pattern, seed=seed)
            for z in draw_sample_points(data, 2, seed=7, stencil_h=1e-3):
                chains = stencil_chains(data, z)
                T = extended_coefficients(chains.pis, chains.perps, n)  # row 0 is z's own loop
                rep = extended_checks(T)
                worst_es = max(worst_es, rep["es_residual"])
                worst_unit = max(worst_unit, rep["unitarity_defect"])
                worst_phi1 = max(worst_phi1, rep["phi1_defect"])
                worst_real = max(worst_real, reality_defect(T[0]))
    _DURATIONS[3] = time.perf_counter() - t0
    ok = (worst_es <= TOL_EXTENDED and worst_unit <= TOL_UNITARITY
          and worst_phi1 <= TOL_PHI_ONE and worst_real <= TOL_REALITY)
    _record(3, "extended solution", ok,
            f"es {worst_es:.2e}, unitarity {worst_unit:.2e}, "
            f"phi1 {worst_phi1:.2e}, reality {worst_real:.2e}")


def test_criterion_04_covering_and_surjectivity():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [
        random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=1),
        random_data(5, 3, 3, sparsity_pattern=(1, 2, 2), seed=2),
        random_data(4, 3, 3, seed=3),  # dense, non-echelon
        s1_invariant_data(4, (1, 1, 1), 3, seed=4),
    ]
    for data in cases:
        for z in draw_sample_points(data, 8, seed=8):
            fib = build_fiber(data, z)
            pis, perps = fib.chain.pis, fib.chain.perps
            n = data.n
            for ell in range(2, data.r + 1):
                moved = image_span(pis[ell - 2] @ image_span(fib.chain.pis[ell - 1]).basis)
                worst = max(worst, span_gap(moved, image_span(fib.chain.pis[ell - 2])))
            prod = np.eye(n, dtype=complex)
            for t in range(data.r):
                prod = perps[t] @ prod
                worst = max(worst, span_gap(image_span(prod), image_span(perps[t])))
            prod = np.eye(n, dtype=complex)
            for t in range(data.r):
                prod = prod @ pis[t]
                worst = max(worst, span_gap(image_span(prod), image_span(fib.chain.pis[0])))
    _DURATIONS[4] = time.perf_counter() - t0
    ok = worst <= TOL_COVERING
    _record(4, "covering + surjectivity", ok, f"max angle {worst:.2e}")


def test_criterion_05_section_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in (0, 1):
        data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=seed)
        for z in draw_sample_points(data, 10, seed=9, stencil_h=1e-3):
            sec = section_identities(stencil_chains(data, z), seed=seed)
            worst = max(worst, sec["max_dbar_K"], sec["max_Az_K"], sec["max_dzbar_lemma"])
    _DURATIONS[5] = time.perf_counter() - t0
    ok = worst <= TOL_SECTIONS
    _record(5, "section identities", ok, f"max residual {worst:.2e}")


def test_criterion_06_grassmannian_model():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [
        random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=0),
        random_data(4, 3, 3, sparsity_pattern=(1, 1, 2), seed=1),
        random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=2),
    ]
    for data in cases:
        xcols = x_columns_from_data(data)
        sampler = HarmonicMapSampler(data)
        for z in draw_sample_points(data, 20, seed=10):
            wx = w_from_x(xcols, z)
            wl = w_from_loop(LoopPoly(sampler.extended_coeffs_at(z)))
            worst = max(worst, span_gap(w_span(wx), w_span(wl)))
    _DURATIONS[6] = time.perf_counter() - t0
    ok = worst <= TOL_MODEL
    _record(6, "grassmannian model", ok, f"max angle {worst:.2e}")


def _proper_full_data(n, r, pattern, degree, base_seed):
    """First seed whose data has proper unitons and full alpha_1 (a stated
    precondition of the uniqueness theorem, so filtering is faithful)."""
    for seed in range(base_seed, base_seed + 25):
        data = random_data(n, r, degree, sparsity_pattern=pattern, seed=seed)
        try:
            pts = draw_sample_points(data, 3, seed=11)
            if all(build_fiber(data, z).proper for z in pts) and alpha1_is_full(data):
                return data, pts
        except Exception:
            continue
    raise AssertionError(f"no proper/full dataset found for n={n}, r={r}")


def test_criterion_07_factorization_round_trip():
    t0 = time.perf_counter()
    worst_chain = worst_recon = 0.0
    lams = np.exp(2j * np.pi * np.arange(8) / 8)
    # the (5, 4) single-column case needs degree 4: a C^5 vector of cubics
    # spans at most 4 constant dimensions, so alpha_1 could never be full
    for n, r, pattern, degree in (
        (3, 2, (1, 1), 3),
        (4, 3, (1, 1, 1), 3),
        (5, 4, (1, 1, 1, 1), 4),
        (5, 2, (2, 2), 3),
    ):
        data, pts = _proper_full_data(n, r, pattern, degree, base_seed=0)
        sampler = HarmonicMapSampler(data)
        for z in pts:
            cd = sampler.chain_at(z)
            loop = LoopPoly(extended_coefficients(cd.pis, cd.perps, n))
            built = list(zip(cd.pis, cd.perps))
            iwa = iwasawa_factorize(w_from_loop(loop))
            ker = kernel_factorize_fiber(loop)
            worst_chain = max(worst_chain, _chain_gap(zip(*iwa), built))
            worst_chain = max(worst_chain, _chain_gap(zip(*ker), built))
            for lam in lams:
                prod = np.eye(n, dtype=complex)
                for pi, perp in zip(*iwa):
                    prod = prod @ (pi + lam * perp)
                worst_recon = max(worst_recon, np.abs(prod - loop.at(lam)).max())
    _DURATIONS[7] = time.perf_counter() - t0
    ok = worst_chain <= TOL_FACTOR and worst_recon <= TOL_RECONSTRUCT
    _record(7, "factorization round trip", ok,
            f"chain {worst_chain:.2e}, reconstruction {worst_recon:.2e}")


def test_criterion_08_type_one_normalization():
    t0 = time.perf_counter()
    # (a) non-full holomorphic h inside constant A: output is h + A_perp
    h0 = MeroVector((P([1]), P([0, 1]), P([0])))
    data = DataArray(3, 1, ((h0,),))
    sampler = HarmonicMapSampler(data)
    pts = draw_sample_points(data, 4, seed=12)
    pre, norm = normalize_type_one(lambda z: LoopPoly(sampler.extended_coeffs_at(z)), pts)
    z = pts[0]
    target = orthonormal_basis(np.column_stack([h0.eval(z), [0, 0, 1]]))
    gap_a = max_principal_angle(orthonormal_basis(norm(z).coeffs[0]), target)
    ok_a = (len(pre.factors) == 1 and pre.factors[0].dim == 2
            and norm(z).degree == 1 and gap_a <= TOL_MODEL)
    # (b) quadratic solution built over the same h drops to degree one with
    # uniton spanned by H_0 + H_1
    h1 = MeroVector((P([0]), P([0]), P([0, 0, 1])))
    data2 = DataArray(3, 2, ((h0, h1),))
    sampler2 = HarmonicMapSampler(data2)
    pts2 = draw_sample_points(data2, 4, seed=13)
    _, norm2 = normalize_type_one(lambda z: LoopPoly(sampler2.extended_coeffs_at(z)), pts2)
    z2 = pts2[0]
    g = orthonormal_basis(h0.eval(z2) + h1.eval(z2))
    gap_b = max_principal_angle(orthonormal_basis(norm2(z2).coeffs[0]), g)
    ok_b = norm2(z2).degree == 1 and gap_b <= TOL_MODEL
    _DURATIONS[8] = time.perf_counter() - t0
    _record(8, "type-one normalization", ok_a and ok_b,
            f"h-tilde gap {gap_a:.2e}, degree-drop gap {gap_b:.2e}")


def test_criterion_09_grassmannian_detection():
    t0 = time.perf_counter()
    worst_defect = worst_nested = worst_decomp = 0.0
    for n, steps, seed in ((4, (1, 1, 1), 0), (3, (1, 2), 1), (5, (2, 2), 2)):
        data = s1_invariant_data(n, steps, 3, seed=seed)
        sampler = HarmonicMapSampler(data)
        r = data.r
        for z in draw_sample_points(data, 5, seed=14):
            fib = build_fiber(data, z)
            w = w_from_loop(LoopPoly(sampler.extended_coeffs_at(z)))
            worst_defect = max(worst_defect, q_adapted_check(w, QInvolution.identity(n)).defect)
            for i in range(r - 1):
                resid = np.linalg.norm(fib.chain.perps[i + 1] @ image_span(fib.chain.pis[i]).basis)
                worst_nested = max(worst_nested, np.arcsin(min(1.0, resid)))
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
            worst_decomp = max(
                worst_decomp, np.abs(sampler.map_at(z) - sign * cartan_embed(psi)).max()
            )
    # negative control: generic data is not Q = I adapted
    data = random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=3)
    sampler = HarmonicMapSampler(data)
    z = draw_sample_points(data, 1, seed=15)[0]
    control = q_adapted_check(
        w_from_loop(LoopPoly(sampler.extended_coeffs_at(z))), QInvolution.identity(4)
    ).defect
    _DURATIONS[9] = time.perf_counter() - t0
    ok = (worst_defect <= TOL_NESTED and worst_nested <= TOL_NESTED
          and worst_decomp <= TOL_PHI_NESTED and control > TOL_NEGATIVE)
    _record(9, "grassmannian detection", ok,
            f"defect {worst_defect:.2e}, nested {worst_nested:.2e}, "
            f"decomposition {worst_decomp:.2e}, control {control:.2e}")


def test_criterion_10_wallclock_and_golden_files(tmp_path, session_t0):
    golden_ok = True
    for mode, extra in (("random", []), ("echelon", ["--rank-steps", "1,1"]),
                        ("s1", ["--rank-steps", "1,2"])):
        a, b = tmp_path / f"{mode}_a.json", tmp_path / f"{mode}_b.json"
        for out in (a, b):
            code = cli_main(["generate", "--n", "4", "--r", "2", "--mode", mode,
                             "--seed", "9", "--output", str(out)] + extra)
            golden_ok = golden_ok and code == 0
        golden_ok = golden_ok and a.read_bytes() == b.read_bytes()
        # parse -> canonical rewrite is byte-identical
        import json

        from unitons import serialize

        data = serialize.data_from_json(json.loads(a.read_text()))
        c = tmp_path / f"{mode}_c.json"
        serialize.write_json(serialize.data_to_json(data), c)
        golden_ok = golden_ok and c.read_bytes() == a.read_bytes()
    elapsed = time.monotonic() - session_t0
    acceptance_total = sum(_DURATIONS.values())
    ok = golden_ok and elapsed < TIME_SUITE
    _record(10, "wall clock + golden files", ok,
            f"elapsed {elapsed:.1f}s, criteria 1-9 {acceptance_total:.1f}s, "
            f"golden {'ok' if golden_ok else 'BROKEN'}")
