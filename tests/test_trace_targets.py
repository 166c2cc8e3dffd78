"""Every function the benchmark tracer wraps must exist, so that a rename in
the package shows up here instead of as a silently missing span."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import unitons  # noqa: F401  (imports every module the targets name)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_trace_target_resolves(target):
    name, modname, path, _ = target
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
