"""The package's runtime dependencies in pyproject.toml match what its modules import."""

import ast
import re
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="reads pyproject.toml with tomllib, new in Python 3.11; the 3.11 leg of the CI matrix runs this check",
)

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src" / "iodkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "iodkit"}


def declared_dependencies() -> set[str]:
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0].lower() for spec in project["dependencies"]}


def test_every_third_party_import_is_declared():
    imports = third_party_imports()
    assert "numpy" in imports  # the walk sees the package's imports
    assert sorted(imports - declared_dependencies()) == []


def test_every_declared_dependency_is_imported():
    assert sorted(declared_dependencies() - third_party_imports()) == []
