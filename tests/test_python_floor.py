"""The package parses under the oldest Python that pyproject.toml declares,
so syntax only a newer interpreter takes (``except*``, say) fails here, it
is stdlib-only: every absolute import names a module of the standard
library or the package itself, and every other local interpreter it
supports gives the running one's outcomes on ``interpreter_probe.py``."""

import ast
import json
import os
import re
import shutil
import subprocess
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


PROBE = ROOT / "tests" / "interpreter_probe.py"


def _probe(python: str, work: Path) -> dict:
    """The output of ``interpreter_probe.py`` run by ``python`` in ``work``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([python, str(PROBE), str(work)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def running_probe(tmp_path_factory) -> dict:
    return _probe(sys.executable, tmp_path_factory.mktemp("probe"))


@pytest.mark.parametrize("version", [(3, minor) for minor in range(10, 14)], ids="{0[0]}.{0[1]}".format)
def test_every_local_interpreter_gives_the_same_outcomes(tmp_path, running_probe, version):
    """Exit codes, stderr and output bytes of ``interpreter_probe.py`` are the
    running interpreter's under each other ``python3.X`` on PATH that starts."""
    if version == sys.version_info[:2]:
        pytest.skip("the running interpreter")
    python = shutil.which("python{}.{}".format(*version))
    try:
        started = python and subprocess.run(
            [python, "-c", "import sys; print(*sys.version_info[:2])"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        started = None
    if not started or started.returncode or started.stdout.split() != list(map(str, version)):
        pytest.skip(f"no python{version[0]}.{version[1]} starts from PATH")
    got = _probe(python, tmp_path)
    assert {k: v for k, v in got.items() if v != running_probe.get(k)} == {}
    assert got.keys() == running_probe.keys()
