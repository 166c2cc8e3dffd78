"""Per-layer tracing from outside the package.

Public functions of each ``unitons`` module (and ``numpy.linalg.svd``) are
wrapped after import.  A module that imported a name with ``from .x import f``
holds its own reference, so every module namespace and class dictionary that
holds the original object is patched, not only the defining module.  A name
that no longer exists is reported missing instead of failing the run.

Each call made while the tracer is active records a span (name, start, end,
parent) in memory, plus counts at the same boundary; self time is a span's
duration minus its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path, group).  A group sums inclusive time
# over its outermost member calls, so nested encoders are not counted twice.
TARGETS = [
    ("kernels.eval_table", "unitons.kernels", "eval_table", None),
    ("kernels.build_chain", "unitons.kernels", "build_chain", None),
    ("builder.chain_arrays", "unitons.builder", "chain_arrays", None),
    ("builder.draw_sample_points", "unitons.builder", "draw_sample_points", None),
    ("builder.evaluate_map", "unitons.builder", "evaluate_map", "builder.map"),
    ("builder.prefix_map_at", "unitons.builder", "HarmonicMapSampler.prefix_map_at", "builder.map"),
    ("builder.extended_product", "unitons.builder", "extended_product", "builder.map"),
    ("builder.extended_coefficients", "unitons.builder", "extended_coefficients", "builder.map"),
    ("verifier.verification_report", "unitons.verifier", "verification_report", None),
    ("verifier.harmonicity_residual", "unitons.verifier", "harmonicity_residual", None),
    ("verifier.extended_checks", "unitons.verifier", "extended_checks", None),
    ("verifier.section_identities", "unitons.verifier", "section_identities", None),
    ("verifier.connection_form", "unitons.verifier", "connection_form", None),
    ("grassmannian.w_from_loop", "unitons.grassmannian", "w_from_loop", None),
    ("grassmannian.w_from_x", "unitons.grassmannian", "w_from_x", None),
    ("grassmannian.iwasawa_factorize", "unitons.grassmannian", "iwasawa_factorize", None),
    ("grassmannian.kernel_factorize_fiber", "unitons.grassmannian", "kernel_factorize_fiber", None),
    ("grassmannian.q_adapted_check", "unitons.grassmannian", "q_adapted_check", None),
    ("grassmannian.normalize_type_one", "unitons.grassmannian", "normalize_type_one", None),
    ("projections.orthonormal_basis", "unitons.projections", "orthonormal_basis", None),
    ("projections.image_span", "unitons.projections", "image_span", None),
    ("projections.principal_angles", "unitons.projections", "principal_angles", None),
    ("meromorphic.differentiate", "unitons.meromorphic", "differentiate", None),
    ("meromorphic.MeroVector.eval", "unitons.meromorphic", "MeroVector.eval", None),
    ("serialize.dumps", "unitons.serialize", "dumps", "serialize.encode"),
    ("serialize.matrix_to_json", "unitons.serialize", "matrix_to_json", "serialize.encode"),
    ("serialize.chain_to_json", "unitons.serialize", "chain_to_json", "serialize.encode"),
    ("serialize.data_to_json", "unitons.serialize", "data_to_json", "serialize.encode"),
    ("serialize.loop_fibers_to_json", "unitons.serialize", "loop_fibers_to_json", "serialize.encode"),
    ("serialize.data_from_json", "unitons.serialize", "data_from_json", "serialize.decode"),
    ("serialize.loop_fibers_from_json", "unitons.serialize", "loop_fibers_from_json", "serialize.decode"),
    ("serialize.matrix_from_json", "unitons.serialize", "matrix_from_json", "serialize.decode"),
    ("serialize.chain_from_json", "unitons.serialize", "chain_from_json", "serialize.decode"),
    ("cli.main", "unitons.cli", "main", None),
    ("linalg.svd", "numpy.linalg", "svd", None),
]

# Ancestors whose presence on the call stack splits the counts of a span.
WATCHED = ("builder.draw_sample_points", "verifier.verification_report")

REPORT = "verifier.verification_report"
DRAW = "builder.draw_sample_points"
CHAIN = "builder.chain_arrays"
# Direct children of verification_report that are not its static checks.
REPORT_NON_STATIC = (
    DRAW,
    "verifier.harmonicity_residual",
    "verifier.extended_checks",
    "verifier.section_identities",
    "verifier.connection_form",
)


class Tracer:
    """Span recorder; inactive wrappers pass straight through."""

    def __init__(self):
        self.active = False
        self.record_spans = False
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.missing: list[str] = []
        self._stack: list[list] = []      # [name, start, child seconds, span index]
        self._depth: Counter = Counter()  # active calls per span name and group
        self._patched: list[tuple] = []   # (owner, key, original) to restore
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.under: Counter = Counter()       # (name, watched ancestors) -> calls
        self.child_s: defaultdict = defaultdict(float)  # (parent, child) -> seconds
        self.extra: Counter = Counter()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, group, on_result):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, depth = tracer._stack, tracer._depth
            parent = stack[-1] if stack else None
            sid = -1
            if tracer.record_spans:
                sid = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent[3] if parent else -1])
            ancestors = tuple(a for a in WATCHED if depth[a])
            depth[name] += 1
            if group:
                depth[group] += 1
            frame = [name, clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                if sid >= 0:
                    tracer.spans[sid][1] = frame[1]
                    tracer.spans[sid][2] = end
                tracer.calls[name] += 1
                tracer.under[(name, ancestors)] += 1
                tracer.self_s[name] += dur - frame[2]
                if not depth[name]:
                    tracer.incl[name] += dur
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        tracer.incl[group] += dur
                if parent is not None:
                    parent[2] += dur
                    tracer.child_s[(parent[0], name)] += dur
            if on_result is not None:
                on_result(tracer, result, ancestors)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every target in every namespace that holds it."""
        for name, modname, path, group in TARGETS:
            module = sys.modules.get(modname)
            owner = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None) if owner is not None else None
            original = None
            if owner is not None:
                original = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(original, name, group, _ON_RESULT.get(name))
            for holder in _namespaces(modname):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        calls, incl, self_s, extra = self.calls, self.incl, self.self_s, self.extra
        draw_builds = sum(c for (name, anc), c in self.under.items() if name == CHAIN and DRAW in anc)
        report_builds = self.under[(CHAIN, (REPORT,))]
        static = incl[REPORT] - sum(self.child_s[(REPORT, c)] for c in REPORT_NON_STATIC)
        return {
            "kernels.eval_table_calls": calls["kernels.eval_table"],
            "kernels.eval_table_s": incl["kernels.eval_table"],
            "kernels.build_chain_calls": calls["kernels.build_chain"],
            "kernels.build_chain_s": incl["kernels.build_chain"],
            "builder.chain_builds": calls[CHAIN],
            "builder.chain_self_s": self_s[CHAIN],
            "builder.draw_s": incl[DRAW],
            "builder.draw_builds": draw_builds,
            "builder.draw_accept_ratio": extra["draw_points"] / draw_builds if draw_builds else 0.0,
            "builder.map_s": sum(self_s[n] for n, _, _, g in TARGETS if g == "builder.map"),
            "verifier.harmonicity_s": incl["verifier.harmonicity_residual"],
            "verifier.extended_s": incl["verifier.extended_checks"],
            "verifier.sections_s": incl["verifier.section_identities"],
            "verifier.static_s": static,
            "verifier.connection_form_calls": calls["verifier.connection_form"],
            "verifier.builds_per_point": (
                report_builds / extra["report_points"] if extra["report_points"] else 0.0
            ),
            "grassmannian.w_from_loop_s": incl["grassmannian.w_from_loop"],
            "grassmannian.w_from_x_s": incl["grassmannian.w_from_x"],
            "grassmannian.iwasawa_s": incl["grassmannian.iwasawa_factorize"],
            "grassmannian.kernel_descent_s": incl["grassmannian.kernel_factorize_fiber"],
            "grassmannian.q_adapted_s": incl["grassmannian.q_adapted_check"],
            "grassmannian.type_one_s": incl["grassmannian.normalize_type_one"],
            "projections.orthonormal_basis_calls": calls["projections.orthonormal_basis"],
            "projections.image_span_calls": calls["projections.image_span"],
            "projections.principal_angles_s": incl["projections.principal_angles"],
            "meromorphic.derivative_calls": calls["meromorphic.differentiate"],
            "meromorphic.eval_calls": calls["meromorphic.MeroVector.eval"],
            "serialize.encode_s": incl["serialize.encode"],
            "serialize.decode_s": incl["serialize.decode"],
            "serialize.bytes_written": extra["bytes_written"],
            "cli.self_s": self_s["cli.main"],
            "linalg.svd_calls": calls["linalg.svd"],
            "linalg.svd_s": incl["linalg.svd"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _count_points(tracer, result, ancestors):
    tracer.extra["draw_points"] += len(result)
    if ancestors == (REPORT,):
        tracer.extra["report_points"] += len(result)


def _count_bytes(tracer, result, ancestors):
    tracer.extra["bytes_written"] += len(result.encode("utf-8"))


_ON_RESULT = {DRAW: _count_points, "serialize.dumps": _count_bytes}


def _namespaces(modname):
    """The defining module, every unitons module and the classes they define."""
    mods = [sys.modules[modname]] if modname in sys.modules else []
    mods += [m for k, m in sorted(sys.modules.items())
             if m is not None and (k == "unitons" or k.startswith("unitons.")) and k != modname]
    out = list(mods)
    for m in mods:
        for value in list(vars(m).values()):
            if isinstance(value, type) and getattr(value, "__module__", "").startswith("unitons"):
                if value not in out:
                    out.append(value)
    return out
