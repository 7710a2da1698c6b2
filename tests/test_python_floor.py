"""The package parses under the oldest Python that pyproject.toml declares,
so syntax only a newer interpreter takes (``except*``, say) fails here, and
it is stdlib-only: every absolute import names a module of the standard
library or the package itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "citemetric").glob("*.py"))


def _declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_declared_floor())


def test_newer_syntax_is_caught():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_declared_floor())


def _absolute_imports(path: Path) -> list[str]:
    """The top-level module of each absolute import in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_the_package(path):
    outside = sorted(set(_absolute_imports(path)) - sys.stdlib_module_names - {"citemetric"})
    assert outside == []


def test_a_third_party_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nfrom numpy import array\nfrom . import ingest\n", encoding="utf-8")
    assert _absolute_imports(module) == ["os", "numpy"]
