"""The three workloads: verify-suite, model-factorize and sample-grid.

Each workload builds the inputs of one round with the public API
(``prepare``), runs the round's operations closed-loop in this process
(``run``, the only timed part) and checks every output with the oracles in
``oracles.py`` (``check``).  Round k of seed s draws its inputs from
``rs = 1000 * s + k``; seed 0, round 0 is exactly the acceptance suite's
data, so the default run starts from the acceptance seeds.  No input is
handed to the program twice in one run, so the builder's per-data table
cache warms only as it does in a single CLI call.

The package is imported inside each function: the set-up step re-imports it
to time the import, and the tracer patches the namespaces of the last import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import oracles as O

ROUND_STRIDE = 1000


@dataclass
class Op:
    """One timed operation.

    `attempted` counts operations for the failure share, `units` the points
    or fibers it delivers for the throughput.  Operations of one `kind` do
    the same work on different inputs, so their median time is comparable.
    """

    kind: str
    attempted: int
    units: int
    seconds: float
    failed: Optional[int] = 0        # None until the check phase has counted it
    counted: bool = True             # part of the throughput metric
    cal: int = -1                    # index of the machine-speed sample taken just before it
    detail: dict = field(default_factory=dict)


def _pkg():
    """The package as last imported (serialize and cli are not loaded by __init__)."""
    import unitons.cli
    import unitons.serialize

    return unitons


def _cli(argv) -> tuple[object, float]:
    """unitons.cli.main(argv) in-process; returns (exit code or exception text, seconds)."""
    cli = _pkg().cli
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed operation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0


def _write(obj, path) -> str:
    _pkg().serialize.write_json(obj, path)
    return path


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, calibrate=lambda: -1):
        self.seed = seed
        self.workdir = workdir
        self.calibrate = calibrate  # called just before each timed operation

    def round_dir(self, k: int) -> str:
        path = os.path.join(self.workdir, f"r{k}")
        os.makedirs(path, exist_ok=True)
        return path

    def rs(self, k: int) -> int:
        return ROUND_STRIDE * self.seed + k


# ---------------------------------------------------------------------------
# verify-suite


class VerifySuite(Workload):
    """`unitons verify` on the 20 acceptance criterion-2 datasets.

    Every round verifies the same 20 maps.  Each column of the data is
    multiplied by a phase drawn from the round seed: a constant factor on a
    column leaves every span of the chain, and so the map and its sample
    points, unchanged, but it makes every round's data new to the builder's
    per-data table cache.  Seed 0, round 0 uses phase 1 throughout, the
    acceptance data itself.  Data seeds are not varied with the workload
    seed: on some random datasets a sample point lies near a degenerate point
    of the chain and the FD harmonicity residual exceeds its tolerance on a
    harmonic map, a seed-dependent failure that cannot be a fixed share of a
    run (see the FOUND line in CHANGES.md).
    """

    name = "verify-suite"
    SHAPES = ((3, 2, (1, 1)), (4, 3, (1, 1, 1)), (5, 4, (1, 1, 1, 1)), (4, 2, (1, 2)), (5, 3, (1, 2, 2)))
    DATA_SEEDS = (0, 1, 2, 3)
    SAMPLES = 3
    POINT_SEED = 5       # criterion 2 draws its points with seed 5
    STENCIL_H = 1e-3     # the default FD step; verify draws with stencil_h = h
    BAD_SEED = 10_000    # the overflow case depends on the round index only
    NEGATIVE = 1e-2

    def _argv(self, path, out):
        return ["verify", "--input", path, "--samples", str(self.SAMPLES),
                "--seed", str(self.POINT_SEED), "--output", out]

    def prepare(self, k: int) -> dict:
        U = _pkg()
        d = self.round_dir(k)
        rng = np.random.default_rng(self.rs(k))
        files = []
        for n, r, pattern in self.SHAPES:
            for data_seed in self.DATA_SEEDS:
                obj = U.serialize.data_to_json(U.random_data(n, r, 3, sparsity_pattern=pattern, seed=data_seed))
                phases = np.exp(2j * np.pi * rng.uniform(size=n)) if self.rs(k) else np.ones(n)
                for col, phase in zip(obj["columns"], phases):
                    for vec in col:
                        for entry in vec:
                            entry["num"] = [[(complex(*c) * phase).real, (complex(*c) * phase).imag]
                                            for c in entry["num"]]
                path = os.path.join(d, f"data_{n}_{r}_{'-'.join(map(str, pattern))}_s{data_seed}.json")
                files.append(((n, r, pattern), _write(obj, path)))
        # A copy with one coefficient set to 1e308: the decoder should reject it
        # (exit 2) but today it reaches the FD stencil, overflows and exits 4.
        bad = U.serialize.data_to_json(U.random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=self.BAD_SEED + k))
        num = bad["columns"][0][0][0]["num"]
        num.extend([[0.0, 0.0]] * (2 - len(num)))
        num[1] = [1e308, 0.0]
        bad_path = _write(bad, os.path.join(d, "bad_1e308.json"))
        return {"k": k, "dir": d, "files": files, "bad": bad_path}

    def run(self, rnd: dict) -> list[Op]:
        ops = []
        for i, (shape, path) in enumerate(rnd["files"]):
            out = os.path.join(rnd["dir"], f"report_{i}.json")
            cal = self.calibrate()
            code, dt = _cli(self._argv(path, out))
            ops.append(Op(f"verify{shape}", 1, self.SAMPLES, dt, failed=int(code != 0), cal=cal,
                          detail={"input": path, "output": out, "code": code}))
        out = os.path.join(rnd["dir"], "report_bad.json")
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore", RuntimeWarning)
            code, dt = _cli(self._argv(rnd["bad"], out))
        ops.append(Op("verify-1e308", 1, 0, dt, failed=int(code != 2), counted=False,
                      detail={"code": code}))
        return ops

    def check(self, rnd: dict, ops: list[Op]) -> list[str]:
        U = _pkg()
        problems = []
        for op in ops:
            if not op.counted or op.failed:
                continue
            report = _read(op.detail["output"])
            got = {c["name"]: c["max_residual"] for c in report["checks"]}
            if set(got) != set(O.VERIFY_TOLERANCES):
                problems.append(f"{op.detail['input']}: checks {sorted(got)}")
            for name, tol in O.VERIFY_TOLERANCES.items():
                value = got.get(name)
                if value is None or not np.isfinite(value) or value > tol:
                    problems.append(f"{op.detail['input']}: {name} = {value} > {tol}")
            obj = _read(op.detail["input"])
            data = U.serialize.data_from_json(obj)
            sampler = U.HarmonicMapSampler(data)
            pts = U.draw_sample_points(data, self.SAMPLES, seed=self.POINT_SEED, stencil_h=self.STENCIL_H)
            for z in pts:
                # alpha_1 is spanned by the first row of the data at z
                first = np.column_stack([O.vector_at(col[0], z) for col in obj["columns"]])
                rank = O.span_basis(first).shape[1]
                if not 0 < rank < data.n:
                    problems.append(f"{op.detail['input']}: alpha_1 rank {rank} at {z} is not proper")
                step = np.abs(sampler.map_at(z) - sampler.map_at(z + self.STENCIL_H)).max()
                if not step > 1e-8:
                    problems.append(f"{op.detail['input']}: map is constant near {z}")
        if rnd["k"] == 0:
            problems += self._negative_control(rnd)
        return problems

    def _negative_control(self, rnd: dict) -> list[str]:
        """Criterion 2's corrupted map: second factor replaced by a non-uniton."""
        U = _pkg()
        path = next(p for shape, p in rnd["files"] if shape == (4, 2, (1, 2)))
        data = U.serialize.data_from_json(_read(path))
        sampler = U.HarmonicMapSampler(data)

        def corrupted(z):
            cd = sampler.chain_at(z)
            pi = O.projector(O.span_basis(np.array([[1.0], [np.conj(z)], [0.0], [0.0]])))
            return (cd.pis[0] - cd.perps[0]) @ (2 * pi - np.eye(4))

        z0 = U.draw_sample_points(data, 1, seed=6, stencil_h=self.STENCIL_H)[0]
        control = U.harmonicity_residual(corrupted, z0)
        if not control >= self.NEGATIVE:
            return [f"negative control residual {control:.3e} < {self.NEGATIVE}"]
        return []


# ---------------------------------------------------------------------------
# model-factorize


class ModelFactorize(Workload):
    """The Grassmannian model on precomputed loops: no chain build is timed."""

    name = "model-factorize"
    C7 = ((3, 2, (1, 1), 3), (4, 3, (1, 1, 1), 3), (5, 4, (1, 1, 1, 1), 4), (5, 2, (2, 2), 3))
    C6 = ((3, 2, (1, 1)), (4, 3, (1, 1, 2)), (5, 4, (1, 1, 1, 1)))
    C9 = ((4, (1, 1, 1)), (3, (1, 2)), (5, (2, 2)))
    C7_SCAN = 100
    C7_FIBERS = 12       # criterion 7 uses the first 3 of these points
    TOL_RECONSTRUCT = 1e-8
    TOL_FACTOR = 1e-7
    TOL_MODEL = 1e-8
    TOL_PROJECTION = 1e-10
    TOL_NESTED = 1e-7
    NEGATIVE = 1e-2

    @staticmethod
    def _loops(sampler, points):
        return [(complex(z), sampler.extended_coeffs_at(z)) for z in points]

    def _proper_full(self, n, r, pattern, degree, base):
        """Loop fibers of the first data seed from base on whose chains are
        proper at every point and whose alpha_1 is full (criterion 7's
        precondition)."""
        U = _pkg()
        for seed in range(base, base + self.C7_SCAN):
            data = U.random_data(n, r, degree, sparsity_pattern=pattern, seed=seed)
            try:
                fibers = [U.build_fiber(data, z) for z in U.draw_sample_points(data, self.C7_FIBERS, seed=11)]
                if all(f.proper for f in fibers) and U.alpha1_is_full(data):
                    return [(f.z, U.extended_coefficients(f.chain.pis, f.chain.perps, n)) for f in fibers]
            except U.UnitonsError:
                continue
        raise RuntimeError(f"no proper/full dataset for {(n, r, pattern)} from seed {base}")

    def prepare(self, k: int) -> dict:
        U = _pkg()
        d = self.round_dir(k)
        rs = self.rs(k)
        c7 = []
        for n, r, pattern, degree in self.C7:
            fibers = self._proper_full(n, r, pattern, degree, self.C7_SCAN * rs)
            obj = U.serialize.loop_fibers_to_json(n, r, [(z, U.LoopPoly(t)) for z, t in fibers])
            c7.append(_write(obj, os.path.join(d, f"loops_{n}_{r}.json")))
        c6 = []
        for i, (n, r, pattern) in enumerate(self.C6):
            data = U.random_data(n, r, 3, sparsity_pattern=pattern, seed=3 * rs + i)
            pts = U.draw_sample_points(data, 20, seed=10)
            c6.append((data, self._loops(U.HarmonicMapSampler(data), pts)))
        c9 = []
        for i, (n, steps) in enumerate(self.C9):
            data = U.s1_invariant_data(n, steps, 3, seed=3 * rs + i)
            pts = U.draw_sample_points(data, 5, seed=14)
            c9.append((n, self._loops(U.HarmonicMapSampler(data), pts), True))
        control = U.random_data(4, 3, 3, sparsity_pattern=(1, 1, 1), seed=3 + 4 * rs)
        pts = U.draw_sample_points(control, 1, seed=15)
        c9.append((4, self._loops(U.HarmonicMapSampler(control), pts), False))
        c8 = []
        for case, point_seed in (("a", 12 + 2 * rs), ("b", 13 + 2 * rs)):
            data = self._type_one_data(case)
            pts = U.draw_sample_points(data, 4, seed=point_seed)
            c8.append((case, self._loops(U.HarmonicMapSampler(data), pts)))
        return {"k": k, "dir": d, "c7": c7, "c6": c6, "c9": c9, "c8": c8}

    @staticmethod
    def _type_one_data(case):
        """Criterion 8: h = (1, z, 0) inside a constant C^2, and the quadratic
        solution over it with second row (0, 0, z^2)."""
        U = _pkg()
        P = U.RationalFn.polynomial
        h0 = U.MeroVector((P([1]), P([0, 1]), P([0])))
        if case == "a":
            return U.DataArray(3, 1, ((h0,),))
        h1 = U.MeroVector((P([0]), P([0]), P([0, 0, 1])))
        return U.DataArray(3, 2, ((h0, h1),))

    def run(self, rnd: dict) -> list[Op]:
        U = _pkg()
        ops = []
        for i, path in enumerate(rnd["c7"]):
            out = os.path.join(rnd["dir"], f"factorize_{i}.json")
            cal = self.calibrate()
            code, dt = _cli(["factorize", "--input", path, "--output", out])
            nfib = self.C7_FIBERS
            ops.append(Op(f"factorize{i}", nfib, nfib, dt, failed=nfib if code != 0 else 0, cal=cal,
                          detail={"check": "factorize", "input": path, "output": out, "code": code}))
        for i, (data, loops) in enumerate(rnd["c6"]):
            cal = self.calibrate()
            t0 = time.perf_counter()
            try:
                xcols = U.x_columns_from_data(data)
                pairs = [(U.w_from_x(xcols, z).basis, U.w_from_loop(U.LoopPoly(t)).basis) for z, t in loops]
                failed = 0
            except U.UnitonsError as exc:
                pairs, failed = repr(exc), len(loops)
            ops.append(Op(f"w_from_x{i}", len(loops), len(loops), time.perf_counter() - t0, failed=failed, cal=cal,
                          detail={"check": "w_from_x", "pairs": pairs}))
        for i, (n, loops, s1) in enumerate(rnd["c9"]):
            cal = self.calibrate()
            t0 = time.perf_counter()
            try:
                q = U.QInvolution.identity(n)
                got = []
                for _, t in loops:
                    w = U.w_from_loop(U.LoopPoly(t))
                    got.append((U.q_adapted_check(w, q).adapted, w.r, w.n, w.basis))
                failed = 0
            except U.UnitonsError as exc:
                got, failed = repr(exc), len(loops)
            ops.append(Op(f"q_adapted{i}", len(loops), len(loops), time.perf_counter() - t0, failed=failed, cal=cal,
                          detail={"check": "q_adapted", "s1": s1, "got": got}))
        for case, loops in rnd["c8"]:
            table = {z: U.LoopPoly(t) for z, t in loops}
            pts = [z for z, _ in loops]
            cal = self.calibrate()
            t0 = time.perf_counter()
            try:
                pre, norm = U.normalize_type_one(table.__getitem__, pts)
                got, failed = (pre, norm, pts), 0
            except U.UnitonsError as exc:
                got, failed = repr(exc), len(loops)
            ops.append(Op(f"type_one{case}", len(loops), len(loops), time.perf_counter() - t0, failed=failed, cal=cal,
                          detail={"check": "type_one", "case": case, "got": got}))
        return ops

    def check(self, rnd: dict, ops: list[Op]) -> list[str]:
        problems = []
        for op in ops:
            if op.failed:
                continue
            check = getattr(self, "_check_" + op.detail["check"])
            problems += [f"{op.kind}: {p}" for p in check(op.detail)]
        return problems

    def _check_factorize(self, det):
        problems = []
        fin = _read(det["input"])
        fout = _read(det["output"])
        n = int(fin["n"])
        if len(fout["fibers"]) != len(fin["fibers"]):
            return [f"{len(fout['fibers'])} fibers out for {len(fin['fibers'])} in"]
        for fi, fo in zip(fin["fibers"], fout["fibers"]):
            coeffs = np.array([O.decode_matrix(t) for t in fi["coeffs"]])
            iwa = [O.decode_matrix(m) for m in fo["iwasawa"]["projections"]]
            ker = [O.decode_matrix(m) for m in fo["kernel"]["projections"]]
            recon = max(np.abs(O.loop_at(coeffs, lam) - O.chain_product(iwa, lam, n)).max()
                        for lam in O.EIGHTH_ROOTS)
            if not recon <= self.TOL_RECONSTRUCT:
                problems.append(f"reconstruction {recon:.2e} at z={fi['z']}")
            for p in iwa + ker:
                defect = O.hermitian_idempotent_defect(p)
                if not defect <= self.TOL_PROJECTION:
                    problems.append(f"projection defect {defect:.2e} at z={fi['z']}")
            if len(iwa) != len(ker):
                problems.append(f"chain lengths {len(iwa)} != {len(ker)}")
            for p1, p2 in zip(iwa, ker):
                gap = O.projection_gap(p1, p2)
                if not gap <= self.TOL_FACTOR:
                    problems.append(f"iwasawa/kernel gap {gap:.2e} at z={fi['z']}")
        return problems

    def _check_w_from_x(self, det):
        gaps = [O.span_gap(wx, wl) for wx, wl in det["pairs"]]
        return [f"W from X vs loop gap {g:.2e}" for g in gaps if not g <= self.TOL_MODEL]

    def _check_q_adapted(self, det):
        problems = []
        for adapted, r, n, basis in det["got"]:
            defect = O.span_gap(basis, O.span_basis(O.nu_identity(r, n) @ basis))
            if det["s1"] and not (adapted and defect <= self.TOL_NESTED):
                problems.append(f"S1 fiber not nu_I-adapted (defect {defect:.2e}, adapted={adapted})")
            if not det["s1"] and (adapted or not defect > self.NEGATIVE):
                problems.append(f"generic control adapted (defect {defect:.2e}, adapted={adapted})")
        return problems

    def _check_type_one(self, det):
        pre, norm, pts = det["got"]
        z = pts[0]
        loop = norm(z)
        image = O.span_basis(loop.coeffs[0])
        if det["case"] == "a":
            target = O.span_basis(np.array([[1.0, 0.0], [z, 0.0], [0.0, 1.0]], np.complex128))
            shape_ok = len(pre.factors) == 1 and pre.factors[0].dim == 2 and loop.degree == 1
        else:
            target = O.span_basis(np.array([[1.0], [z], [z * z]], np.complex128))
            shape_ok = loop.degree == 1
        gap = O.span_gap(image, target)
        if not (shape_ok and gap <= self.TOL_MODEL):
            return [f"case {det['case']}: degree {loop.degree}, {len(pre.factors)} factors, gap {gap:.2e}"]
        return []


# ---------------------------------------------------------------------------
# sample-grid


class SampleGrid(Workload):
    """`unitons sample` over a grid on one echelon and one S^1 dataset."""

    name = "sample-grid"
    GRID = 16
    HALF_WIDTH = 0.5
    TOL_UNITARY = 1e-10
    TOL_DET = 1e-9

    def prepare(self, k: int) -> dict:
        U = _pkg()
        d = self.round_dir(k)
        rs = self.rs(k)
        rng = np.random.default_rng(rs)
        jobs = []
        for kind, data in (
            ("echelon", U.random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=rs)),
            ("s1", U.s1_invariant_data(4, (1, 1, 1), 3, seed=rs)),
        ):
            # Polynomial data has no poles and its rank profile drops only at
            # isolated points, which a grid of cell centres misses.
            c = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            rect = [c.real - self.HALF_WIDTH, c.real + self.HALF_WIDTH,
                    c.imag - self.HALF_WIDTH, c.imag + self.HALF_WIDTH]
            path = _write(U.serialize.data_to_json(data), os.path.join(d, f"{kind}.json"))
            jobs.append((kind, path, rect))
        return {"k": k, "dir": d, "jobs": jobs}

    def run(self, rnd: dict) -> list[Op]:
        ops = []
        for kind, path, rect in rnd["jobs"]:
            out = os.path.join(rnd["dir"], f"grid_{kind}.json")
            cal = self.calibrate()
            code, dt = _cli(["sample", "--input", path, "--grid", str(self.GRID),
                             "--rect=" + ",".join(repr(float(x)) for x in rect), "--output", out])
            ops.append(Op(f"sample-{kind}", self.GRID**2, self.GRID**2, dt,
                          failed=None if code == 0 else self.GRID**2, cal=cal,
                          detail={"kind": kind, "rect": rect, "output": out, "code": code}))
        return ops

    def check(self, rnd: dict, ops: list[Op]) -> list[str]:
        problems = []
        m = self.GRID
        for op in ops:
            if op.failed is not None:
                continue
            det = op.detail
            obj = _read(det["output"])
            x0, x1, y0, y1 = det["rect"]
            records = obj["records"]
            if len(records) != m * m or obj["grid"] != m:
                problems.append(f"{det['kind']}: {len(records)} records for grid {m}")
                op.failed = m * m
                continue
            nulls = 0
            for idx, rec in enumerate(records):
                iy, ix = divmod(idx, m)
                z = complex(x0 + (x1 - x0) * (ix + 0.5) / m, y0 + (y1 - y0) * (iy + 0.5) / m)
                if abs(complex(*rec["z"]) - z) > 1e-12:
                    problems.append(f"{det['kind']}: record {idx} at {rec['z']}, expected {z}")
                if rec["phi"] is None:
                    nulls += 1
                    continue
                phi = O.decode_matrix(rec["phi"])
                unit = O.unitarity_defect(phi)
                det_phi = np.linalg.det(phi)
                if not (unit <= self.TOL_UNITARY and min(abs(det_phi - 1), abs(det_phi + 1)) <= self.TOL_DET):
                    problems.append(f"{det['kind']}: phi at {z} unitarity {unit:.2e}, det {det_phi}")
                if det["kind"] == "s1":
                    herm = float(np.abs(phi - phi.conj().T).max())
                    invol = float(np.abs(phi @ phi - np.eye(phi.shape[0])).max())
                    if not (herm <= self.TOL_UNITARY and invol <= self.TOL_UNITARY):
                        problems.append(f"s1: phi at {z} not a Hermitian involution ({herm:.2e}, {invol:.2e})")
            op.failed = nulls
        return problems


WORKLOADS = {cls.name: cls for cls in (VerifySuite, ModelFactorize, SampleGrid)}
