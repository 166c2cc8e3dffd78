"""Finite-difference verification of the differential identities.

All checks are residual-based: Wirtinger derivatives d/dz, d/dzbar and the
Laplacian are taken with central differences in x and y on one 9-point
stencil per sample point, and every identity of the construction
(harmonicity, the extended-solution equations, section holomorphicity, the
ladder K^(k) -> K^(k+1), the mixed D_zbar lemma) is evaluated at generic
sample points.  This is evidence, not proof.

Fields live on stencil arrays: the values at the points of ``_stencil(z, h)``
stacked on leading axes, so one array expression evaluates an identity at
every sample point at once.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from . import kernels
from .builder import (
    STENCIL_OFFSETS,
    ChainBatch,
    _draw,
    chain_arrays,
    extended_coefficients,
    prefix_products,
    reality_defect,
)
from .errors import BadShape
from .meromorphic import DataArray, _random_coefficients
from .projections import factor_products, masked_basis, projector_gap

FD_STEP = 1e-3  # step h of the 4th-order central differences behind the Wirtinger operators
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

LEMMA_MAX_ELL = 3  # the D_zbar lemma is checked for ell = 1..min(r, LEMMA_MAX_ELL)


class ConnectionFiber(NamedTuple):
    """A_z and A_zbar of A = (1/2) phi^{-1} d phi at one point, and the
    phi^{-1} they were formed with."""

    a_z: np.ndarray
    a_zbar: np.ndarray
    inv: np.ndarray


def _stencil(z, h: float) -> np.ndarray:
    """Each point of z, then the 8 points _wirtinger combines around it in its
    order, on a new leading axis: (9,) + z.shape."""
    z = np.asarray(z, np.complex128)
    return (STENCIL_OFFSETS * h).reshape((9,) + (1,) * z.ndim) + z


def _evaluate(f: Callable, points: np.ndarray) -> np.ndarray:
    vals = np.array([f(w) for w in points.ravel().tolist()])
    return vals.reshape(points.shape + vals.shape[1:])


def stencil_chains(data: DataArray, z) -> ChainBatch:
    """The data's chains on ``_stencil(z, FD_STEP)``, laid out (9,) + z.shape:
    one ``chain_arrays`` call, raising as ChainBatch.at does at an ambiguous point."""
    points = _stencil(z, FD_STEP)
    batch = chain_arrays(data, points.ravel())
    if batch.ambiguous.any():
        batch.at(int(batch.ambiguous.argmax()))
    return batch.take(np.arange(points.size).reshape(points.shape))


def _wirtinger(f: np.ndarray, h: float):
    # the 4th-order combination of the 8 stencil values on f's first axis
    fx = (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * h)
    fy = (-f[4] + 8 * f[5] - 8 * f[6] + f[7]) / (12 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _laplacian(f: np.ndarray, h: float) -> np.ndarray:
    # the 4th-order f_xx + f_yy at the centre from the 9 stencil values on f's
    # first axis, read as differences from the centre: exactly 0 on a constant
    d = f[1:] - f[0]
    return (16 * (d[1] + d[2] + d[5] + d[6]) - (d[0] + d[3] + d[4] + d[7])) / (12 * h * h)


def _connection(maps: np.ndarray, h: float) -> ConnectionFiber:
    # A_z, A_zbar at the centre from maps on a stencil's 9 points (first axis)
    dz, dzb = _wirtinger(maps[1:], h)
    inv = np.linalg.inv(maps[0])
    return ConnectionFiber(0.5 * inv @ dz, 0.5 * inv @ dzb, inv)


def _norms(x: np.ndarray) -> np.ndarray:
    # Frobenius norms over the last two axes, bit for bit np.linalg.norm's
    x = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def connection_form(map_sampler: Callable, z: complex) -> ConnectionFiber:
    """A_z = (1/2) phi^{-1} d_z phi and A_zbar = (1/2) phi^{-1} d_zbar phi.

    A sampler returning a stack (..., n, n) of maps gives the stacked forms.
    """
    return _connection(_evaluate(map_sampler, _stencil(z, FD_STEP)), FD_STEP)


def harmonicity_residual(source, z, conn: Optional[ConnectionFiber] = None):
    """Frobenius norm of d_zbar A_z + [A_zbar, A_z] (zero iff harmonic).

    It equals (1/2) phi^{-1} phi_zzbar - (A_zbar A_z + A_z A_zbar) with
    phi_zzbar = Laplacian(phi) / 4: 4th-order first and second differences
    of the maps on the 9-point stencil of z.  ``source`` is the maps there,
    (9,) + z.shape + (n, n), whose connection ``conn`` may be passed in, or a
    map callable (a HarmonicMapSampler too), called once per stencil point.
    z is a point or an array of points; the residual has z's shape.
    """
    maps = _evaluate(source, _stencil(z, FD_STEP)) if callable(source) else source
    a_z, a_zbar, inv = conn if conn is not None else _connection(maps, FD_STEP)
    return _scalar(_norms(inv @ _laplacian(maps, FD_STEP) / 8 - (a_zbar @ a_z + a_z @ a_zbar)))


def _extended_values(T: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Phi_lambda = T_0 + lambda T_1 + ... + lambda^r T_r at each of lams (L,),
    on axis -3 of the coefficients T (..., r+1, n, n): one contraction of the
    powers of lambda with the r + 1 coefficients, not r factors per lambda."""
    lead, (terms, n) = T.shape[:-3], T.shape[-3:-1]
    flat = np.vander(lams, terms, increasing=True) @ T.reshape(lead + (terms, n * n))
    return flat.reshape(lead + (len(lams), n, n))


def extended_checks(T: np.ndarray, conn: Optional[ConnectionFiber] = None) -> dict:
    """Extended-solution equation residual, unitarity defect and Phi_1 defect.

    T is the coefficients T_0..T_r of Phi_lambda on ``_stencil(z, FD_STEP)``,
    (9,) + z.shape + (r+1, n, n); each value has the shape of z, a point or an
    array.  ``conn`` is the map's connection; by default it is formed from
    Phi_{-1}.
    """
    lams = np.array((-1, 1, *DEFAULT_LAMBDAS), np.complex128)
    eye = np.eye(T.shape[-1], dtype=np.complex128)
    # Phi_lambda for lambda = -1, 1, then each of DEFAULT_LAMBDAS, at every stencil point
    ext = _extended_values(T, lams)
    cf = conn if conn is not None else _connection(ext[..., 0, :, :], FD_STEP)
    dz, dzb = _wirtinger(ext[1:, ..., 2:, :, :], FD_STEP)
    val, lam = ext[0, ..., 2:, :, :], lams[2:, None, None]
    es = (_norms(dz - (1 - 1 / lam) * val @ cf.a_z[..., None, :, :])
          + _norms(dzb - (1 - lam) * val @ cf.a_zbar[..., None, :, :]))
    unit = np.abs(val @ val.conj().swapaxes(-1, -2) - eye).max(axis=(-2, -1))
    return {"es_residual": _scalar(es.max(axis=-1, initial=0.0)),
            "unitarity_defect": _scalar(unit.max(axis=-1, initial=0.0)),
            "phi1_defect": _scalar(np.abs(ext[0, ..., 1, :, :] - eye).max(axis=(-2, -1)))}


def _prefix_maps(chains: ChainBatch) -> np.ndarray:
    """phi_0 = I .. phi_r on axis -3, ``prefix_products`` at lambda = -1: phi_ell is ``extended_product`` on ell steps."""
    eye = np.eye(chains.pis.shape[-1], dtype=np.complex128)
    return np.stack(list(prefix_products(chains.pis, chains.perps, -1, eye)), axis=-3)


def section_identities(chains: ChainBatch, seed: int = 0, conn: Optional[ConnectionFiber] = None) -> dict:
    """Residuals of the section identities at the fibers of z.

    ``chains`` is the chains on ``_stencil(z, FD_STEP)``, as ``stencil_chains``
    lays them out; ``conn`` may hold the prefix maps' connections.  Each family
    is one stacked field, differenced once: a list for a point z, an array with
    the residual index last for an array of points; K-vectors run over the live
    columns.

    dbar_K:        D^{phi_i}_zbar K^(k)_{i,j} = 0      (holomorphic sections)
    Az_K:          A^{phi_i}_z K^(k)_{i,j} + K^(k+1)_{i,j} = 0  (K^(i+1) := 0)
    dzbar_lemma:   D^{phi_ell}_zbar(perp_ell C^{ell-1}_s H) + perp_ell d_zbar(C^{ell-1}_{s+1} H) = 0
                   for ell <= LEMMA_MAX_ELL
    antibasic:     pi_ell_perp A^{phi_{ell-1}}_z = 0
    """
    r, J, n = chains.kvecs.shape[-3:]
    kv, perp = chains.kvecs[0][..., None], chains.perps[0]
    if conn is None:  # the connections of the prefix maps phi_ell, ell = 0..r, on axis -3
        conn = _connection(_prefix_maps(chains), FD_STEP)
    a_z, a_zbar = conn.a_z[..., :r, None, None, :, :], conn.a_zbar[..., :r, None, None, :, :]
    _, dzb_k = _wirtinger(chains.kvecs[1:, ..., None], FD_STEP)
    # K^(k+1)_{i,j}; the table holds zeros above k = i, so this is 0 at k = i
    nxt = np.concatenate([kv[..., 1:, :, :, :], np.zeros_like(kv[..., :1, :, :, :])], axis=-4)
    lower = np.broadcast_to(np.tri(r, dtype=bool)[:, :, None], (r, r, J))  # k <= i, in (i, k, j) order
    dbar_k = _norms(dzb_k + a_zbar @ kv)[..., lower]
    az_k = _norms(a_z @ kv + nxt)[..., lower]
    antibasic = _norms(perp @ conn.a_z[..., :r, :, :])
    # Lemma residuals for a fresh random polynomial vector H
    h_vals = _lemma_vector_values(seed, n, chains.zs)[..., None, :, None]
    lemma = [np.zeros(antibasic.shape[:-1] + (0,))]
    for ell in range(1, min(r, LEMMA_MAX_ELL) + 1):
        # rows s = 0..ell-1: perp_ell C_s H, then rows ell + s: C_{s+1} H
        ch = factor_products(None, chains.perps[..., : ell - 1, :, :], n, top=ell) @ h_vals
        field = np.concatenate([chains.perps[..., [ell - 1], :, :] @ ch[..., :-1, :, :], ch[..., 1:, :, :]], axis=-3)
        _, dzb = _wirtinger(field[1:], FD_STEP)
        resid = (dzb[..., :ell, :, :] + conn.a_zbar[..., ell, None, :, :] @ field[0, ..., :ell, :, :]
                 + perp[..., ell - 1, None, :, :] @ dzb[..., ell:, :, :])
        lemma.append(_norms(resid))
    out = {"dbar_K": dbar_k, "Az_K": az_k, "dzbar_lemma": np.concatenate(lemma, axis=-1), "antibasic": antibasic}
    maxima = {f"max_{name}": _scalar(vals.max(axis=-1, initial=0.0)) for name, vals in out.items()}
    if chains.zs.ndim == 1:
        out = {name: vals.tolist() for name, vals in out.items()}
    return {**out, **maxima}


def _lemma_vector_values(seed: int, n: int, zs: np.ndarray) -> np.ndarray:
    """The lemma's test vector H, a fresh random cubic polynomial C^n vector,
    at every point of zs: zs.shape + (n,), from one table evaluation of its
    drawn coefficients (not a normal form, and outside the data's table cache)."""
    coeffs = _random_coefficients(np.random.default_rng(seed), 1, n, 3)[0]
    return kernels.eval_table(coeffs, zs.ravel()).reshape(zs.shape + (n,))


def _static_checks(chains: ChainBatch, T: np.ndarray) -> dict:
    """The pointwise identities at every point of a chain stack (S, r, n, n),
    as products of its projectors: pi_{ell-1} maps alpha_ell onto alpha_{ell-1}
    (covering), pi_ell_perp ... pi_1_perp is onto alpha_ell_perp, pi_1 ... pi_ell
    has image alpha_1, T_0 T_r^* = 0 and T_r^* = pi_r_perp ... pi_1_perp, with
    T (S, r+1, n, n) the chains' ``extended_coefficients``."""
    pis, perps = chains.pis, chains.perps
    (S, r), n = pis.shape[:2], pis.shape[-1]
    if r == 0:
        return dict.fromkeys(("covering", "perp_surjectivity", "alpha1_image", "reality", "top_coefficient"), np.zeros(S))
    prod_perp, prod_pi = [np.eye(n, dtype=np.complex128)], [np.eye(n, dtype=np.complex128)]
    for t in range(r):
        prod_perp.append(perps[:, t] @ prod_perp[-1])
        prod_pi.append(prod_pi[-1] @ pis[:, t])
    # the image projectors of all products from one SVD, at the unit scale of a projector product
    u, _, _ = masked_basis(np.concatenate([pis[:, :-1] @ pis[:, 1:], np.stack(prod_perp[1:], 1),
                                           np.stack(prod_pi[1:], 1)], axis=1), 1.0)
    targets = np.concatenate([pis[:, :-1], perps, np.broadcast_to(pis[:, :1], pis.shape)], axis=1)
    gaps = projector_gap(u @ u.conj().swapaxes(-1, -2), targets)
    return {"covering": gaps[:, : r - 1].max(axis=1, initial=0.0),
            "perp_surjectivity": gaps[:, r - 1 : 2 * r - 1].max(axis=1),
            "alpha1_image": gaps[:, 2 * r - 1 :].max(axis=1),
            "reality": reality_defect(T),
            "top_coefficient": np.abs(T[:, r].conj().swapaxes(-1, -2) - prod_perp[-1]).max(axis=(-2, -1))}


def verification_report(data: DataArray, samples: int = 10, seed: int = 7, tolerances: Optional[dict] = None) -> dict:
    """Run every identity check over generic sample points and report residuals.

    Every check reads the chains on the 9-point stencils of the sample points,
    which the draw built when it checked their ranks there, laid out (9, S):
    one kernel call unless a candidate was rejected.  Every check, the
    pointwise ones included, then evaluates all sample points at once.
    """
    if samples < 1:
        raise BadShape("samples must be >= 1: no sample point is no evidence")
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise BadShape(f"unknown tolerance names: {sorted(unknown)}")
        tol.update(tolerances)
    batch = _draw(data, samples, seed, FD_STEP)[1]  # (9, samples), the sample points in row 0
    # phi_0..phi_r on every stencil point (phi_r the map) and the report's one inversion
    prefix = _prefix_maps(batch)
    conn = _connection(prefix, FD_STEP)
    maps, map_conn = prefix[..., -1, :, :], ConnectionFiber(*(f[..., -1, :, :] for f in conn))
    # Phi_lambda's coefficients on every stencil point; row 0's are the sample points'
    T = extended_coefficients(batch.pis, batch.perps, data.n)
    ec = extended_checks(T, conn=map_conn)
    sec = section_identities(batch, seed=seed, conn=conn)
    residuals = {
        "harmonicity": harmonicity_residual(maps, batch.zs[0], conn=map_conn),
        "extended_solution": ec["es_residual"],
        "extended_unitarity": ec["unitarity_defect"],
        "phi_one": ec["phi1_defect"],
        "map_unitarity": np.abs(maps[0] @ maps[0].conj().swapaxes(-1, -2) - np.eye(data.n)).max(axis=(-2, -1)),
        "section_holomorphic": sec["max_dbar_K"],
        "section_ladder": sec["max_Az_K"],
        "dzbar_lemma": sec["max_dzbar_lemma"],
        "antibasic": sec["max_antibasic"],
    }
    residuals.update(_static_checks(batch.take(0), T[0]))
    worst = {name: float(np.max(residuals[name])) for name in tol}
    checks = [{"name": k, "max_residual": v, "tolerance": tol[k], "pass": bool(v <= tol[k])} for k, v in worst.items()]
    ranks = batch.ranks[0]
    return {
        "n": data.n,
        "r": data.r,
        "samples": samples,
        "seed": seed,
        "ranks": ranks.tolist(),
        "proper": bool(((0 < ranks) & (ranks < data.n)).all()),
        "constant": bool(((ranks == 0) | (ranks == data.n)).all()),
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }
