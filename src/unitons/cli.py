"""Command-line front end.

Sub-commands: generate, verify, factorize, grassmann, sample.  Everything is
JSON in, JSON out; exit codes are 0 (ok), 2 (parse/usage error),
3 (no generic sample point found), 4 (a verification/agreement check failed).
The Grassmannian model is imported inside the commands that run it
(factorize, grassmann), so the others start without compiling it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import serialize
from .builder import (
    _draw,
    alpha1_is_full,
    chain_arrays,
    extended_coefficients,
    extended_product,
    s1_invariant_data,
)
from .errors import BadShape, DegeneratePoint, UnitonsError
from .meromorphic import random_data
from .projections import orthonormal_basis, projector_gap
from .verifier import verification_report  # loaded with cli, so perfbench's tracer finds it to wrap

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_FAILED = 4

SAMPLE_BLOCK = 256  # `sample` evaluates at most this many grid points per kernel call


def _finite_positive(option, value):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{option} must be finite and positive, got {value!r}")
    return value


def _parse_tols(items):
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        out[name] = _finite_positive(f"--tol {name}", float(value))
    return out


def _check_positive(**named):
    for name, value in named.items():
        if value < 1:
            raise ValueError(f"--{name} must be >= 1")


def _parse_rect(text):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("--rect expects x0,x1,y0,y1")
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"--rect bounds must be finite, got {text!r}")
    return parts


def _parse_steps(text):
    return tuple(int(x) for x in text.split(","))


def _emit(obj, output):
    if output:
        serialize.write_json(obj, output)
    else:
        sys.stdout.write(serialize.dumps(obj))


def cmd_generate(args) -> int:
    steps = _parse_steps(args.rank_steps) if args.rank_steps else tuple(range(1, args.r + 1))
    if args.mode == "random":
        if args.rank_steps:
            raise BadShape("--rank-steps applies to the echelon and s1 modes only")
        data = random_data(args.n, args.r, args.max_degree, seed=args.seed)
    elif args.mode == "echelon":
        data = random_data(args.n, args.r, args.max_degree, sparsity_pattern=steps, seed=args.seed)
    elif len(steps) != args.r:  # s1 takes r from the steps, which must give the --r asked for
        raise BadShape("sparsity pattern must be r ascending non-negative ranks")
    else:
        data = s1_invariant_data(args.n, steps, args.max_degree, seed=args.seed)
    _emit(serialize.data_to_json(data), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_positive(samples=args.samples)
    tolerances = _parse_tols(args.tol)
    data = serialize.data_from_json(serialize.read_json(args.input))
    report = verification_report(data, samples=args.samples, seed=args.seed, tolerances=tolerances)
    _emit(report, args.output)
    return EXIT_OK if report["passed"] else EXIT_FAILED


def _loop_fibers(data, samples, seed, trim=False):
    """The drawn points, their loops as one stack and the builder's pis, from the draw's kernel call; trim
    drops the chain's trailing steps of rank n at every point, whose factors pi + lambda 0 = I leave the loop."""
    from .grassmannian import LoopPoly

    points, batch = _draw(data, samples, seed, None)
    keep = data.r
    while trim and keep and (batch.ranks[0, :, keep - 1] == data.n).all():
        keep -= 1
    pis, perps = batch.pis[0, :, :keep], batch.perps[0, :, :keep]
    return points, LoopPoly(extended_coefficients(pis, perps, data.n)), pis


def cmd_factorize(args) -> int:
    from .grassmannian import iwasawa_factorize, kernel_factorize_fiber, w_from_loop

    _check_positive(samples=args.samples)
    _finite_positive("--agree-tol", args.agree_tol)
    obj = serialize.read_json(args.input)
    if isinstance(obj, dict) and "columns" in obj:
        data = serialize.data_from_json(obj)
        zs, loops, builder_pis = _loop_fibers(data, args.samples, args.seed, trim=True)
        full = alpha1_is_full(data, seed=args.seed)
    else:
        (zs, loops), builder_pis, full = serialize.loop_fibers_from_json(obj), None, None
    # both factorizations of every fiber at once; the first failing fiber in file order decides
    w = w_from_loop(loops)
    iwa, perps = iwasawa_factorize(w)
    ker, _, errors = kernel_factorize_fiber(loops)
    for z, singular, error in zip(zs, w.errors, errors):
        if singular:
            raise singular
        if error:
            # well-formed input whose chain is improper at this fiber: a failed check
            print(f"error: kernel factorization of the fiber at z={complex(z)} failed: {error}", file=sys.stderr)
            return EXIT_FAILED
    # each loop and its Iwasawa product at the 8th roots of unity, all at once
    lams = np.exp(2j * np.pi * np.arange(8) / 8)[:, None, None, None]
    prod = extended_product(iwa, perps, lams[..., None])
    gaps = {
        "chain_agreement": projector_gap(iwa, ker).max(axis=-1, initial=0.0),
        "reconstruction": np.abs(prod - loops.at(lams)).max(axis=(0, 2, 3)),
        "builder_agreement": np.zeros(len(zs)) if builder_pis is None else
        projector_gap(iwa, builder_pis).max(axis=-1, initial=0.0),
    }
    results = [
        {
            "z": serialize.encode_complex(z),
            "iwasawa": serialize.chain_to_json(iwa[p]),
            "kernel": serialize.chain_to_json(ker[p]),
            "agreement": {name: float(gap[p]) for name, gap in gaps.items()},
        }
        for p, z in enumerate(zs)
    ]
    worst = max((max(fib["agreement"].values()) for fib in results), default=0.0)
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
    from .grassmannian import QInvolution, q_adapted_check, w_from_loop

    _check_positive(samples=args.samples)
    data = serialize.data_from_json(serialize.read_json(args.input))
    if args.q_span:
        q = QInvolution(orthonormal_basis(serialize.vectors_from_json(serialize.read_json(args.q_span), data.n)))
    else:
        q = QInvolution.identity(data.n)
    zs, loops, _ = _loop_fibers(data, args.samples, args.seed)
    w = w_from_loop(loops)
    for singular in w.errors:
        if singular:
            raise singular
    res = q_adapted_check(w, q)
    defects = [{"z": serialize.encode_complex(z), "defect": float(d), "adapted": bool(a)}
               for z, d, a in zip(zs, res.defect, res.adapted)]
    report = {
        "q_rank": q.a_span.dim,
        "defects": defects,
        "max_defect": max((d["defect"] for d in defects), default=0.0),
        "adapted": all(d["adapted"] for d in defects),
    }
    _emit(report, args.output)
    return EXIT_OK


def _rows_per_block(m: int) -> int:
    """Whole grid rows of width m per kernel call: at most SAMPLE_BLOCK points, at least one row."""
    return max(1, SAMPLE_BLOCK // m)


def _sample_records(data, zs) -> list[dict]:
    """The map at each point of zs from one kernel call and one map product,
    written by one matrices_to_json; a degenerate point, or one whose map is
    not finite, gets phi: null.  The records' z pairs come from one tolist()
    of the (P, 2) float64 view of the block's points."""
    batch = chain_arrays(data, zs)
    maps, ambiguous = extended_product(batch.pis, batch.perps, -1), batch.ambiguous
    pairs = batch.zs.view(np.float64).reshape(-1, 2).tolist()
    del batch  # the chains are read no more: free them before the records are built
    bad = np.logical_or(ambiguous, ~np.isfinite(maps).all(axis=(-2, -1))).tolist()
    return [{"z": z, "phi": None if b else phi}
            for z, b, phi in zip(pairs, bad, serialize.matrices_to_json(maps))]


def cmd_sample(args) -> int:
    _check_positive(grid=args.grid)
    x0, x1, y0, y1 = _parse_rect(args.rect)
    data = serialize.data_from_json(serialize.read_json(args.input))
    m = args.grid
    xs = [x0 + (x1 - x0) * (ix + 0.5) / m for ix in range(m)]
    step = _rows_per_block(m)
    records = []
    for first in range(0, m, step):
        # whole rows per call keep the kernel's memory bounded by SAMPLE_BLOCK points, not m^2
        ys = [y0 + (y1 - y0) * (iy + 0.5) / m for iy in range(first, min(first + step, m))]
        records += _sample_records(data, [complex(x, y) for y in ys for x in xs])
    _emit({"n": data.n, "r": data.r, "grid": m, "rect": [x0, x1, y0, y1], "records": records}, args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between calls."""
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
    except (UnitonsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
