"""Every module the package imports is declared or comes with Python, and
parsed numbers reach an array by one route."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metricgrid"


def declared() -> set[str]:
    """The import names of the runtime dependencies in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower().replace("-", "_")
            for r in requirements}


def imported(path: Path) -> set[str]:
    """The top-level names of every absolute import in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_dependencies_are_declared():
    assert declared() == {"numpy", "orjson"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_stdlib_or_declared(path):
    allowed = set(sys.stdlib_module_names) | declared() | {"metricgrid"}
    assert imported(path) - allowed == set()


def function_imports(path: Path) -> list[str]:
    """``function:line`` for every import made inside a function body."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}:{inner.lineno}" for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    # a lazy import would let a module reach one layered above it (say,
    # registry reaching derived) without the cycle showing at import time
    assert function_imports(path) == []


def fromiter_calls(path: Path) -> list[int]:
    """The line of every call to a function named ``fromiter``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and "fromiter" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_second_route_from_numbers_to_an_array(path):
    # types.pack_floats packs every list of parsed numbers; np.fromiter
    # would be a second conversion with its own speed and error
    assert fromiter_calls(path) == []
