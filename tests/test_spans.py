"""The benchmark's span targets name functions the package still has.

`perfbench/spans.py` wraps each target by module and attribute name, so a
rename in `lwpll` would only show up when the traced benchmark runs. This
test loads that file by path and resolves every target.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for layer, module_name, attribute, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []
