"""Finite-difference verification of the differential identities.

All checks are residual-based: Wirtinger derivatives d/dz, d/dzbar are taken
with central differences in x and y, and every identity of the construction
(harmonicity, the extended-solution equations, section holomorphicity, the
ladder K^(k) -> K^(k+1), the mixed D_zbar lemma) is evaluated at generic
sample points.  This is evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .builder import (
    ChainData,
    HarmonicMapSampler,
    draw_sample_points,
    extended_coefficients,
    extended_product,
)
from .errors import BadShape
from .meromorphic import DataArray, random_polynomial_vector
from .projections import Span, c_rows, image_span, max_principal_angle

DEFAULT_LAMBDAS = tuple(np.exp(2j * np.pi * k / 8) for k in range(8))

DEFAULT_TOLERANCES = {
    "harmonicity": 1e-5,
    "extended_solution": 1e-5,
    "extended_unitarity": 1e-10,
    "phi_one": 1e-12,
    "reality": 1e-10,
    "map_unitarity": 1e-10,
    "covering": 1e-7,
    "perp_surjectivity": 1e-7,
    "alpha1_image": 1e-7,
    "section_holomorphic": 1e-5,
    "section_ladder": 1e-5,
    "dzbar_lemma": 1e-5,
    "antibasic": 1e-5,
    "top_coefficient": 1e-10,
}


@dataclass(frozen=True)
class FDScheme:
    """Central-difference step and order for the Wirtinger operators."""

    h: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if self.h <= 0:
            raise BadShape("step must be positive")
        if self.order not in (2, 4):
            raise BadShape("order must be 2 or 4")


@dataclass(frozen=True)
class ConnectionFiber:
    """A_z and A_zbar of A = (1/2) phi^{-1} d phi at one point."""

    a_z: np.ndarray
    a_zbar: np.ndarray

    @property
    def skew_defect(self) -> float:
        # the two parts are minus adjoints of each other, up to FD error
        return float(np.abs(self.a_zbar + self.a_z.conj().T).max())


def _stencil(z: complex, scheme: FDScheme) -> list:
    """The points wirtinger samples around z, in the order it combines them."""
    h = scheme.h
    if scheme.order == 4:
        return [z + 2 * h, z + h, z - h, z - 2 * h, z + 2j * h, z + 1j * h, z - 1j * h, z - 2j * h]
    return [z + h, z - h, z + 1j * h, z - 1j * h]


def wirtinger(field_sampler: Callable, z: complex, scheme: FDScheme = FDScheme()):
    """(d/dz f, d/dzbar f) of a scalar/vector/matrix field by central differences."""
    h = scheme.h
    f = [field_sampler(w) for w in _stencil(z, scheme)]
    if scheme.order == 4:
        fx = (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * h)
        fy = (-f[4] + 8 * f[5] - 8 * f[6] + f[7]) / (12 * h)
    else:
        fx = (f[0] - f[1]) / (2 * h)
        fy = (f[2] - f[3]) / (2 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def connection_form(map_sampler: Callable, z: complex, scheme: FDScheme = FDScheme()) -> ConnectionFiber:
    """A_z = (1/2) phi^{-1} d_z phi and A_zbar = (1/2) phi^{-1} d_zbar phi."""
    dz, dzb = wirtinger(map_sampler, z, scheme)
    inv = np.linalg.inv(map_sampler(z))
    return ConnectionFiber(0.5 * inv @ dz, 0.5 * inv @ dzb)


def harmonicity_residual(map_sampler: Callable, z: complex, scheme: FDScheme = FDScheme()) -> float:
    """Frobenius norm of d_zbar A_z + [A_zbar, A_z] (zero iff harmonic).

    The map is evaluated once per nested stencil point; a HarmonicMapSampler's
    map_at builds all of their chains in one kernel call, and verification
    reuses that memo for the checks that follow.
    """
    # every point a connection form differenced once more visits around z
    points = list(dict.fromkeys(w for c in [z] + _stencil(z, scheme) for w in [c] + _stencil(c, scheme)))
    owner = getattr(map_sampler, "__self__", None)
    if isinstance(owner, HarmonicMapSampler):
        owner.prefetch(points)
    phi = dict(zip(points, map(map_sampler, points))).__getitem__

    def a_z_field(w):
        return connection_form(phi, w, scheme).a_z

    _, dzb_az = wirtinger(a_z_field, z, scheme)
    cf = connection_form(phi, z, scheme)
    resid = dzb_az + cf.a_zbar @ cf.a_z - cf.a_z @ cf.a_zbar
    return float(np.linalg.norm(resid))


def extended_checks(
    sampler: HarmonicMapSampler,
    z: complex,
    lambdas: Optional[Iterable[complex]] = None,
    scheme: FDScheme = FDScheme(),
) -> dict:
    """Extended-solution equation residual, unitarity defect and Phi_1 defect."""
    lams = tuple(lambdas) if lambdas is not None else DEFAULT_LAMBDAS
    n = sampler.n
    sampler.prefetch([z] + _stencil(z, scheme))
    chains = sampler.chain_at

    def phi_minus_one(w):
        cd = chains(w)
        return extended_product(cd.pis, cd.perps, -1.0, n)

    cf = connection_form(phi_minus_one, z, scheme)
    es = 0.0
    unit = 0.0
    for lam in lams:
        def ext(w, _lam=lam):
            cd = chains(w)
            return extended_product(cd.pis, cd.perps, _lam, n)

        dz, dzb = wirtinger(ext, z, scheme)
        val = ext(z)
        es_lam = np.linalg.norm(dz - (1 - 1 / lam) * val @ cf.a_z) + np.linalg.norm(
            dzb - (1 - lam) * val @ cf.a_zbar
        )
        es = max(es, float(es_lam))
        unit = max(unit, float(np.abs(val @ val.conj().T - np.eye(n)).max()))
    phi1 = float(np.abs(extended_product(chains(z).pis, chains(z).perps, 1.0, n) - np.eye(n)).max())
    return {"es_residual": es, "unitarity_defect": unit, "phi1_defect": phi1}


def reality_defect(coeffs: np.ndarray) -> float:
    """max entry of T_0 T_r^* and T_r^* T_0 (both vanish for a real loop)."""
    t0, tr = coeffs[0], coeffs[-1]
    return float(max(np.abs(t0 @ tr.conj().T).max(), np.abs(tr.conj().T @ t0).max()))


def section_identities(
    data: DataArray | HarmonicMapSampler,
    z: complex,
    scheme: FDScheme = FDScheme(),
    seed: int = 0,
    lemma_max_ell: int = 3,
) -> dict:
    """Residuals of the section identities at one fiber.

    ``data`` may be a HarmonicMapSampler, whose chain memo is then reused.

    dbar_K:        D^{phi_i}_zbar K^(k)_{i,j} = 0      (holomorphic sections)
    Az_K:          A^{phi_i}_z K^(k)_{i,j} + K^(k+1)_{i,j} = 0  (K^(i+1) := 0)
    dzbar_lemma:   D^{phi_ell}_zbar(perp_ell C^{ell-1}_s H) + perp_ell d_zbar(C^{ell-1}_{s+1} H) = 0
    """
    sampler = data if isinstance(data, HarmonicMapSampler) else HarmonicMapSampler(data)
    r, n, J = sampler.r, sampler.n, sampler.data.ncols
    sampler.prefetch([z] + _stencil(z, scheme))
    chains = sampler.chain_at
    dbar_k: list[float] = []
    az_k: list[float] = []
    lemma: list[float] = []
    if r == 0:
        return {"dbar_K": dbar_k, "Az_K": az_k, "dzbar_lemma": lemma,
                "max_dbar_K": 0.0, "max_Az_K": 0.0, "max_dzbar_lemma": 0.0}

    conn = {ell: connection_form(lambda w, _ell=ell: sampler.prefix_map_at(w, _ell), z, scheme)
            for ell in range(r + 1)}
    center = chains(z)
    for i in range(r):
        for k in range(i + 1):
            for j in range(J):
                kv = center.kvecs[i, k, j]

                def k_field(w, _i=i, _k=k, _j=j):
                    return chains(w).kvecs[_i, _k, _j]

                _, dzb = wirtinger(k_field, z, scheme)
                dbar_k.append(float(np.linalg.norm(dzb + conn[i].a_zbar @ kv)))
                nxt = center.kvecs[i, k + 1, j] if k + 1 <= i else np.zeros(n)
                az_k.append(float(np.linalg.norm(conn[i].a_z @ kv + nxt)))
    # Lemma residuals for a fresh random polynomial vector H
    rng = np.random.default_rng(seed)
    H = random_polynomial_vector(rng, n, 3)
    for ell in range(1, min(r, lemma_max_ell) + 1):
        c_here = c_rows(center.perps[: ell - 1], n, ell)
        for s in range(ell):
            def f_field(w, _ell=ell, _s=s):
                cd = chains(w)
                c = c_rows(cd.perps[: _ell - 1], n, _ell)
                return cd.perps[_ell - 1] @ (c[_s] @ H.eval(w))

            def g_field(w, _ell=ell, _s=s):
                cd = chains(w)
                c = c_rows(cd.perps[: _ell - 1], n, _ell)
                return c[_s + 1] @ H.eval(w)

            _, dzb_f = wirtinger(f_field, z, scheme)
            _, dzb_g = wirtinger(g_field, z, scheme)
            fval = center.perps[ell - 1] @ (c_here[s] @ H.eval(z))
            resid = dzb_f + conn[ell].a_zbar @ fval + center.perps[ell - 1] @ dzb_g
            lemma.append(float(np.linalg.norm(resid)))
    return {
        "dbar_K": dbar_k,
        "Az_K": az_k,
        "dzbar_lemma": lemma,
        "max_dbar_K": max(dbar_k, default=0.0),
        "max_Az_K": max(az_k, default=0.0),
        "max_dzbar_lemma": max(lemma, default=0.0),
    }


def _fiber_static_checks(sampler: HarmonicMapSampler, cd: ChainData) -> dict:
    """Pointwise (non-differential) identities: covering, surjectivity, reality."""
    n, r = sampler.n, sampler.r
    out = {"covering": 0.0, "perp_surjectivity": 0.0, "alpha1_image": 0.0,
           "reality": 0.0, "top_coefficient": 0.0}
    if r == 0:
        return out
    spans = [Span(cd.bases[i][:, : cd.ranks[i]], n, validate=False) for i in range(r)]
    for ell in range(2, r + 1):
        moved = image_span(cd.pis[ell - 2] @ spans[ell - 1].basis)
        out["covering"] = max(out["covering"], _span_gap(moved, spans[ell - 2]))
    prod_perp = np.eye(n, dtype=np.complex128)
    for t in range(r):
        prod_perp = cd.perps[t] @ prod_perp  # pi_ell_perp ... pi_1_perp
        im = image_span(prod_perp)
        target = image_span(cd.perps[t])  # alpha_ell_perp
        out["perp_surjectivity"] = max(out["perp_surjectivity"], _span_gap(im, target))
    prod_pi = np.eye(n, dtype=np.complex128)
    for t in range(r):
        prod_pi = prod_pi @ cd.pis[t]  # pi_1 ... pi_ell
        im = image_span(prod_pi)
        out["alpha1_image"] = max(out["alpha1_image"], _span_gap(im, spans[0]))
    T = extended_coefficients(cd.pis, cd.perps, n)
    out["reality"] = reality_defect(T)
    out["top_coefficient"] = float(np.abs(T[r].conj().T - prod_perp).max())
    return out


def _span_gap(a: Span, b: Span) -> float:
    if a.dim != b.dim:
        return float(np.pi / 2)
    return max_principal_angle(a, b)


def verification_report(
    data: DataArray,
    samples: int = 10,
    seed: int = 7,
    scheme: FDScheme = FDScheme(),
    tolerances: Optional[dict] = None,
    lambdas: Optional[Sequence[complex]] = None,
) -> dict:
    """Run every identity check over generic sample points and report residuals."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise BadShape(f"unknown tolerance names: {sorted(unknown)}")
        tol.update(tolerances)
    sampler = HarmonicMapSampler(data)
    points = draw_sample_points(data, samples, seed=seed, stencil_h=scheme.h)
    worst: dict[str, float] = {name: 0.0 for name in tol}
    for z in points:
        # runs first: it builds the nested stencil's chains, which every later check reads
        worst["harmonicity"] = max(worst["harmonicity"], harmonicity_residual(sampler.map_at, z, scheme))
        ec = extended_checks(sampler, z, lambdas, scheme)
        worst["extended_solution"] = max(worst["extended_solution"], ec["es_residual"])
        worst["extended_unitarity"] = max(worst["extended_unitarity"], ec["unitarity_defect"])
        worst["phi_one"] = max(worst["phi_one"], ec["phi1_defect"])
        phi = sampler.map_at(z)
        worst["map_unitarity"] = max(
            worst["map_unitarity"], float(np.abs(phi @ phi.conj().T - np.eye(data.n)).max())
        )
        cd = sampler.chain_at(z)
        stat = _fiber_static_checks(sampler, cd)
        for name, value in stat.items():
            worst[name] = max(worst[name], value)
        sec = section_identities(sampler, z, scheme, seed=seed)
        worst["section_holomorphic"] = max(worst["section_holomorphic"], sec["max_dbar_K"])
        worst["section_ladder"] = max(worst["section_ladder"], sec["max_Az_K"])
        worst["dzbar_lemma"] = max(worst["dzbar_lemma"], sec["max_dzbar_lemma"])
        for ell in range(1, data.r + 1):
            a_prev = connection_form(lambda w, _ell=ell: sampler.prefix_map_at(w, _ell - 1), z, scheme)
            worst["antibasic"] = max(
                worst["antibasic"], float(np.linalg.norm(cd.perps[ell - 1] @ a_prev.a_z))
            )
    checks = []
    for name in tol:
        checks.append(
            {
                "name": name,
                "max_residual": worst[name],
                "tolerance": tol[name],
                "pass": bool(worst[name] <= tol[name]),
            }
        )
    return {
        "n": data.n,
        "r": data.r,
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }
