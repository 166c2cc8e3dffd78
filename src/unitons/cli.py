"""Command-line front end.

Sub-commands: generate, verify, factorize, grassmann, sample.  Everything is
JSON in, JSON out; exit codes are 0 (ok), 2 (parse/usage error),
3 (no generic sample point found), 4 (a verification/agreement check failed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .builder import (
    HarmonicMapSampler,
    alpha1_is_full,
    draw_sample_points,
    s1_invariant_data,
)
from .errors import DegeneratePoint, UnitonsError
from .grassmannian import (
    LoopPoly,
    QInvolution,
    iwasawa_factorize,
    kernel_factorize_fiber,
    q_adapted_check,
    w_from_loop,
)
from .meromorphic import random_data
from .projections import max_principal_angle, orthonormal_basis
from .verifier import FDScheme, verification_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_FAILED = 4


def _parse_tols(items):
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        out[name] = float(value)
        if out[name] <= 0:
            raise ValueError(f"tolerance {name} must be positive")
    return out


def _check_positive(**named):
    for name, value in named.items():
        if value < 1:
            raise ValueError(f"--{name} must be >= 1")


def _parse_rect(text):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("--rect expects x0,x1,y0,y1")
    return parts


def _parse_steps(text):
    return tuple(int(x) for x in text.split(","))


def _emit(obj, output):
    text = serialize.dumps(obj)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_generate(args) -> int:
    steps = _parse_steps(args.rank_steps) if args.rank_steps else tuple(range(1, args.r + 1))
    if args.mode == "random":
        data = random_data(args.n, args.r, args.max_degree, seed=args.seed)
    elif args.mode == "echelon":
        data = random_data(args.n, args.r, args.max_degree, sparsity_pattern=steps, seed=args.seed)
    else:  # s1
        data = s1_invariant_data(args.n, steps, args.max_degree, seed=args.seed)
    _emit(serialize.data_to_json(data), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_positive(samples=args.samples)
    data = serialize.data_from_json(_load_json(args.input))
    scheme = FDScheme()
    report = verification_report(
        data, samples=args.samples, seed=args.seed, scheme=scheme, tolerances=_parse_tols(args.tol)
    )
    _emit(report, args.output)
    return EXIT_OK if report["passed"] else EXIT_FAILED


def _factorize_fiber(loop, n, builder_chain=None):
    """Both factorizations of one loop fiber plus their agreement."""
    w = w_from_loop(loop)
    iwa = iwasawa_factorize(w)
    ker = kernel_factorize_fiber(loop)
    agree = 0.0
    for (p1, _), (p2, _) in zip(iwa.pairs, ker.pairs):
        agree = max(agree, _projection_gap(p1, p2))
    recon = 0.0
    for lam in np.exp(2j * np.pi * np.arange(8) / 8):
        prod = np.eye(n, dtype=np.complex128)
        for pi, perp in iwa.pairs:
            prod = prod @ (pi + lam * perp)
        recon = max(recon, float(np.abs(prod - loop.at(lam)).max()))
    builder_gap = 0.0
    if builder_chain is not None:
        for (p1, _), p2 in zip(iwa.pairs, builder_chain.pis):
            builder_gap = max(builder_gap, _projection_gap(p1, p2))
    return iwa, ker, {"chain_agreement": agree, "reconstruction": recon, "builder_agreement": builder_gap}


def _projection_gap(p1, p2) -> float:
    a = orthonormal_basis(p1)
    b = orthonormal_basis(p2)
    if a.dim != b.dim:
        return float(np.pi / 2)
    return max_principal_angle(a, b)


def cmd_factorize(args) -> int:
    _check_positive(samples=args.samples)
    obj = _load_json(args.input)
    results = []
    worst = 0.0
    if "columns" in obj:
        data = serialize.data_from_json(obj)
        sampler = HarmonicMapSampler(data)
        points = draw_sample_points(data, args.samples, seed=args.seed)
        sampler.prefetch(points)
        fibers = []
        for z in points:
            cd = sampler.chain_at(z)
            fibers.append((z, LoopPoly(sampler.extended_coeffs_at(z, cd)), cd))
        full = alpha1_is_full(data, seed=args.seed)
    else:
        fibers = [(z, loop, None) for z, loop in serialize.loop_fibers_from_json(obj)]
        full = None
    n = fibers[0][1].n if fibers else 0
    for z, loop, cd in fibers:
        iwa, ker, gaps = _factorize_fiber(loop, n, builder_chain=cd)
        worst = max(worst, gaps["chain_agreement"], gaps["reconstruction"], gaps["builder_agreement"])
        results.append(
            {
                "z": serialize.encode_complex(z),
                "iwasawa": serialize.chain_to_json(iwa, n, len(iwa)),
                "kernel": serialize.chain_to_json(ker, n, len(ker)),
                "agreement": gaps,
            }
        )
    report = {
        "fibers": results,
        "alpha1_full": full,
        "max_gap": worst,
        "tolerance": args.agree_tol,
        "passed": bool(worst <= args.agree_tol),
    }
    _emit(report, args.output)
    return EXIT_OK if report["passed"] else EXIT_FAILED


def cmd_grassmann(args) -> int:
    _check_positive(samples=args.samples)
    data = serialize.data_from_json(_load_json(args.input))
    sampler = HarmonicMapSampler(data)
    points = draw_sample_points(data, args.samples, seed=args.seed)
    sampler.prefetch(points)
    if args.q_span:
        vecs = [np.array([serialize.decode_complex(c) for c in v]) for v in _load_json(args.q_span)]
        q = QInvolution(orthonormal_basis(np.column_stack(vecs)))
    else:
        q = QInvolution.identity(data.n)
    defects = []
    for z in points:
        loop = LoopPoly(sampler.extended_coeffs_at(z))
        res = q_adapted_check(w_from_loop(loop), q)
        defects.append({"z": serialize.encode_complex(z), "defect": res.defect, "adapted": res.adapted})
    report = {
        "q_rank": q.a_span.dim,
        "defects": defects,
        "max_defect": max((d["defect"] for d in defects), default=0.0),
        "adapted": all(d["adapted"] for d in defects),
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_sample(args) -> int:
    _check_positive(grid=args.grid)
    data = serialize.data_from_json(_load_json(args.input))
    sampler = HarmonicMapSampler(data)
    x0, x1, y0, y1 = _parse_rect(args.rect)
    m = args.grid
    records = []
    for iy in range(m):
        # one kernel call per grid row keeps memory linear in the grid width
        y = y0 + (y1 - y0) * (iy + 0.5) / m
        row = [complex(x0 + (x1 - x0) * (ix + 0.5) / m, y) for ix in range(m)]
        sampler.prefetch(row)
        for z in row:
            rec = {"z": serialize.encode_complex(z)}
            try:
                rec["phi"] = serialize.matrix_to_json(sampler.map_at(z))
            except UnitonsError:
                rec["phi"] = None
            records.append(rec)
    _emit({"n": data.n, "r": data.r, "grid": m, "rect": [x0, x1, y0, y1], "records": records}, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitons",
        description="Construct, verify and factorize finite-uniton-number harmonic maps into U(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a random/echelon/S1-invariant data array")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--r", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-degree", type=int, default=3)
    gen.add_argument("--mode", choices=("random", "echelon", "s1"), default="random")
    gen.add_argument("--rank-steps", help="comma-separated d_1<=...<=d_r (echelon/s1 modes)")
    gen.add_argument("--output")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run the residual verification suite")
    ver.add_argument("--input", required=True)
    ver.add_argument("--samples", type=int, default=10)
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--tol", action="append", metavar="NAME=VALUE")
    ver.add_argument("--output")
    ver.set_defaults(func=cmd_verify)

    fac = sub.add_parser("factorize", help="run both loop factorizations and compare")
    fac.add_argument("--input", required=True, help="DataArray or loop-fiber JSON")
    fac.add_argument("--samples", type=int, default=5)
    fac.add_argument("--seed", type=int, default=7)
    fac.add_argument("--agree-tol", type=float, default=1e-7)
    fac.add_argument("--output")
    fac.set_defaults(func=cmd_factorize)

    gra = sub.add_parser("grassmann", help="nu_Q-invariance of the Grassmannian model")
    gra.add_argument("--input", required=True)
    gra.add_argument("--samples", type=int, default=5)
    gra.add_argument("--seed", type=int, default=7)
    gra.add_argument("--q-span", help="JSON file with spanning vectors of A (default Q = I)")
    gra.add_argument("--output")
    gra.set_defaults(func=cmd_grassmann)

    sam = sub.add_parser("sample", help="evaluate the map on a grid for external plotting")
    sam.add_argument("--input", required=True)
    sam.add_argument("--grid", type=int, default=16)
    sam.add_argument("--rect", default="-2,2,-2,2")
    sam.add_argument("--output")
    sam.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegeneratePoint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (UnitonsError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
