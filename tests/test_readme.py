"""The README's library example runs, and the package's public names hold."""

import ast
import pathlib
import re

import lwpll

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_every_public_name_has_a_caller_outside_the_tests():
    # A name counts when some module of the package reads it as code (a
    # mention in a docstring or comment does not), when the benchmark's span
    # table names it, or when the benchmark worker reads it as lwpll.<name>.
    def tree(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    used = {
        node.id
        for path in (ROOT / "src" / "lwpll").glob("*.py")
        if path.name != "__init__.py"
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    (targets,) = [
        node.value
        for node in tree(ROOT / "perfbench" / "spans.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    used |= {
        part
        for node in ast.walk(targets)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }
    used |= {
        node.attr
        for node in ast.walk(tree(ROOT / "perfbench" / "worker.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lwpll"
    }
    assert sorted(set(lwpll.__all__) - used) == []
