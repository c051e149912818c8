"""Every module the tests import is declared in pyproject.toml, so that a
checkout installed with `pip install .[test]` collects every test file."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports anywhere in a file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def declared_requirements() -> set[str]:
    """The distribution names of [project].dependencies and the test extra."""
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    requirements = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_every_test_import_is_a_declared_dependency():
    files = sorted(TESTS.glob("*.py"))
    own = {"avgkernel", *(p.stem for p in files)}
    imported = set().union(*map(imported_modules, files))
    third_party = imported - set(sys.stdlib_module_names) - own
    assert third_party, "the tests import no third-party module"
    assert sorted(third_party - declared_requirements()) == []
