"""The README's "Numerical constants" list must name constants that exist in
the package with the values it states, so the docs cannot drift from the code."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


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
