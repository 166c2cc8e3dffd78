"""Every function the benchmark tracer wraps, and every package name and result
attribute its workloads read, must exist, so that a rename in the package
shows up here instead of as a silently missing span or a failed benchmark.
Every call the workloads make into the package must also bind to the current
signature, so that a removed or renamed parameter shows up here too."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import unitons
import unitons.cli  # noqa: F401  (the workloads read unitons.serialize and drive unitons.cli)
import unitons.serialize  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _tracing().TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_trace_target_resolves(target):
    name, modname, path, _ = target
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


WORKLOADS = TRACING.with_name("workloads.py")


def _benchmark_names():
    # every U.<name> the benchmark's workloads read from the package
    return sorted(set(re.findall(r"\bU\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", WORKLOADS.read_text())))


def test_benchmark_reads_names_from_the_package():
    assert len(_benchmark_names()) >= 20  # the pattern still finds the workloads' uses


@pytest.mark.parametrize("path", _benchmark_names())
def test_benchmark_name_resolves(path):
    owner = unitons
    for part in path.split("."):
        owner = getattr(owner, part)


def test_benchmark_result_attributes():
    # the attributes the workloads read from results, on a small dataset
    data = unitons.random_data(3, 2, 3, sparsity_pattern=(1, 1), seed=0)
    z = unitons.draw_sample_points(data, 1, seed=11)[0]
    fib = unitons.build_fiber(data, z)
    assert fib.proper and fib.z == z
    assert fib.chain.pis.shape == fib.chain.perps.shape == (2, 3, 3)
    sampler = unitons.HarmonicMapSampler(data)
    chain = sampler.chain_at(z)
    assert np.array_equal(chain.pis, fib.chain.pis) and np.array_equal(chain.perps, fib.chain.perps)
    assert np.array_equal(sampler.map_at(z), (chain.pis[0] - chain.perps[0]) @ (chain.pis[1] - chain.perps[1]))
    coeffs = sampler.extended_coeffs_at(z)
    assert np.array_equal(coeffs, unitons.extended_coefficients(fib.chain.pis, fib.chain.perps, 3))


def _benchmark_calls():
    # every U.<name>(...) call in the workloads: (line, name, positional count, keyword names)
    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return ".".join(reversed(parts)) if isinstance(node, ast.Name) and node.id == "U" else None

    calls = {}
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Call) and dotted(node.func):
            assert not any(isinstance(a, ast.Starred) for a in node.args), node.lineno
            assert all(k.arg is not None for k in node.keywords), node.lineno
            key = (dotted(node.func), len(node.args), tuple(k.arg for k in node.keywords))
            calls.setdefault(key, node.lineno)
    return sorted((line, *key) for key, line in calls.items())


def test_benchmark_makes_calls_into_the_package():
    calls = _benchmark_calls()
    assert len(calls) >= 20  # the walk still finds the workloads' calls
    assert any("stencil_h" in keywords for _, _, _, keywords in calls)


@pytest.mark.parametrize("call", _benchmark_calls(), ids=lambda c: f"{c[1]}@{c[0]}")
def test_benchmark_call_binds_to_signature(call):
    line, path, npos, keywords = call
    owner = unitons
    for part in path.split("."):
        owner = getattr(owner, part)
    # placeholder values: only the arity and the keyword names are checked
    inspect.signature(owner).bind(*[None] * npos, **dict.fromkeys(keywords))


def test_report_stages_are_the_tracers_direct_children():
    # the tracer charges verify's time to its stages by their spans under
    # verification_report: a check inlined into the report would move its time
    # into verifier.static_s, and one nested in another stage into that stage
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.active = tracer.record_spans = True
        unitons.verification_report(unitons.random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=0),
                                    samples=3, seed=5)
    finally:
        tracer.active = False
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    report = names.index("verifier.verification_report")

    def ancestors(i):
        while tracer.spans[i][3] >= 0:
            i = tracer.spans[i][3]
            yield names[i]

    for stage in ("verifier.harmonicity_residual", "verifier.extended_checks", "verifier.section_identities"):
        assert names.count(stage) == 1, stage
        assert tracer.spans[names.index(stage)][3] == report, stage
    assert "meromorphic.MeroVector.eval" not in names
    assert not any("verifier.extended_checks" in ancestors(i) for i, name in enumerate(names)
                   if name == "builder.extended_product")
