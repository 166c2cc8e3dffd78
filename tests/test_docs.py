"""The README's "Numerical constants" list must name constants that exist in
the package with the values it states, and every `module.name` the README
cites must exist in that module, so the docs cannot drift from the code.
Every third-party module the package imports must be a declared dependency."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _listed_constants():
    """(module, NAME, stated value or None) for every `module.NAME` in the
    lead of a bullet of the section, the text before its first ': '."""
    section = README.read_text().split("## Numerical constants", 1)[1].split("\n## ", 1)[0]
    bullets = [line[2:] for line in section.splitlines() if line.startswith("- ")]
    pattern = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)`(?: \(([^)]+)\))?")
    return [m.groups() for head in bullets for m in pattern.finditer(head.split(": ", 1)[0])]


def test_the_list_is_found():
    names = {f"{mod}.{name}" for mod, name, _ in _listed_constants()}
    assert len(names) >= 18
    assert {"projections.RANK_TOL", "builder.ESCAPE_ATOL", "serialize.PROJECTOR_TOL"} <= names


@pytest.mark.parametrize("entry", _listed_constants(), ids=lambda e: f"{e[0]}.{e[1]}")
def test_listed_constant_resolves_with_its_value(entry):
    mod, name, stated = entry
    value = getattr(importlib.import_module(f"unitons.{mod}"), name)
    if stated is not None:
        assert value == float(stated)


def _module_references():
    """Every `module.name` (optionally `unitons.module.name`) that opens a
    backticked span of the README, for each module of the package."""
    import pkgutil

    import unitons

    modules = "|".join(sorted(m.name for m in pkgutil.iter_modules(unitons.__path__)))
    pattern = re.compile(rf"`(?:unitons\.)?({modules})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")
    return sorted(set(pattern.findall(README.read_text())))


def test_module_references_are_found():
    refs = {f"{mod}.{name}" for mod, name in _module_references()}
    assert len(refs) >= 30
    assert {"projections.projector_gap", "builder.chain_arrays", "cli.SAMPLE_BLOCK"} <= refs


@pytest.mark.parametrize("ref", _module_references(), ids=lambda r: f"{r[0]}.{r[1]}")
def test_module_reference_resolves(ref):
    mod, name = ref
    owner = importlib.import_module(f"unitons.{mod}")
    for part in name.split("."):
        owner = getattr(owner, part)


def _imported_modules():
    """The top-level name of every module a src module imports, anywhere in it."""
    names = set()
    for path in sorted((ROOT / "src" / "unitons").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in declared}
    third_party = _imported_modules() - set(sys.stdlib_module_names) - {"unitons"}
    assert {"numpy", "orjson"} <= third_party
    assert third_party <= names


def test_json_is_read_and_written_by_one_library():
    # serialize is the one home of JSON I/O, through orjson; stdlib json would be a second path
    assert "json" not in _imported_modules()


def test_library_sketch_runs():
    # the README's "Library sketch" block runs as printed against the current API
    section = README.read_text().split("## Library sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md#library-sketch", "exec"), namespace)
    assert namespace["res"] <= 1e-8
    assert namespace["pis"].shape[0] == len(namespace["zs"])
