"""The README's library example runs, and the package's public names hold."""

import pathlib
import re

import lwpll

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(block, "README.md", "exec"), {})
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("test accuracy: ")
    assert float(line.split()[-1]) > 0.9


def test_public_names_are_sorted_unique_and_resolve():
    names = lwpll.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(lwpll, name)] == []
