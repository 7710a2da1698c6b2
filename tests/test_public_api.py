"""The package's public surface: what ``citemetric.__all__`` exports and
the README's library example."""

import re
from pathlib import Path

import citemetric
from citemetric.cli import EXIT_OK, run

README = Path(__file__).parents[1] / "README.md"


def test_every_export_resolves_once():
    assert len(set(citemetric.__all__)) == len(citemetric.__all__)
    missing = [name for name in citemetric.__all__ if not hasattr(citemetric, name)]
    assert missing == []
    namespace: dict = {}
    exec("from citemetric import *", namespace)
    assert set(citemetric.__all__) <= namespace.keys()


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S)[1]
    monkeypatch.chdir(tmp_path)
    assert run(["synth", "--preset", "paper", "--journals", "300", "-o", "corpus.jsonl"]) == EXIT_OK
    exec(compile(example, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("StatsSummary(count=") and "\nCorrelationReport(" in out
