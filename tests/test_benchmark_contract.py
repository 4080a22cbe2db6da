"""The benchmark's per-layer metrics must keep binding to the package.

`perfbench/spans.py` times and counts calls by wrapping module-level names
of `fairalloc`; a metric none of whose names exists reads `absent`. This
pins every span and count to at least one name that resolves, which is
why, for example, `algorithms` still imports `find_envy_cycle` after
completion stopped calling it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
TARGETS = {**SPANS.SPAN_TARGETS, **SPANS.COUNT_TARGETS}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_metric_binds_to_a_fairalloc_name(name):
    resolved = [
        f"{module}.{attr}"
        for module, attr in TARGETS[name]
        if getattr(importlib.import_module(f"fairalloc.{module}"), attr, None) is not None
    ]
    assert resolved, f"no binding of {name} resolves in fairalloc"
