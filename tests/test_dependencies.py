"""The package needs numpy and the standard library, nothing else."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def absolute_imports(path: Path):
    """The top-level package of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "svddf").glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    assert {name for name in absolute_imports(path) if name not in sys.stdlib_module_names} <= {"numpy"}


def test_numpy_is_the_one_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
