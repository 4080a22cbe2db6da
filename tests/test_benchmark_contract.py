"""The benchmark's per-layer metrics must keep binding to the package, and
its recorded inputs must keep coming out of the seeded generator.

`perfbench/spans.py` times and counts calls by wrapping module-level names
of `fairalloc`; a metric none of whose names exists reads `absent`. This
pins every span and count to at least one name that resolves, which is
why, for example, `algorithms` still imports `find_envy_cycle` after
completion stopped calling it. A solve must also call through the names a
span wraps: a binding that resolves but that the pipeline no longer calls
reads 0.
"""

import hashlib
import importlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fairalloc import algorithms
from fairalloc.files import GenSpec, generate_instance, random_instances

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


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


def test_a_solve_feeds_every_pipeline_span():
    """A checks-on EFX solve whose refinement leaves a pool calls every
    span's binding, except `envy.find_envy_cycle`: completion searches its
    own incremental masks."""
    instance = generate_instance(GenSpec(6, 18, 0, 100, Fraction(1, 10), 3))
    tracer = SPANS.Tracer()
    with tracer.installed():
        _, trace = algorithms.solve_efx(instance, check=True)
    assert any(isinstance(e, algorithms.SourcePick) for e in trace)
    silent = [
        name
        for name in SPANS.SPAN_TARGETS
        if name != "envy.find_envy_cycle" and tracer.calls[name] == 0
    ]
    assert silent == []


def recorded_input_digests(workload: str) -> list[str]:
    """Each pool entry's input digest, as `golden/<workload>.json` records it."""
    doc = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())
    return [entry[0] for entry in doc["entries"]]


def input_digest(instance) -> str:
    """The benchmark's digest of an instance: independent of the file format."""
    payload = [[str(v) for v in row] for row in instance.valuations]
    raw = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def test_efx_large_inputs_are_the_recorded_ones():
    recorded = recorded_input_digests("efx-large")
    assert len(recorded) == 64
    for i, expected in enumerate(recorded):
        instance = generate_instance(GenSpec(40, 120, 0, 100, Fraction(1, 10), i))
        assert input_digest(instance) == expected, f"entry {i}"


def test_small_batch_inputs_are_the_recorded_ones():
    recorded = recorded_input_digests("small-batch")
    stream = random_instances(2000, (2, 6), (2, 12), 0, 100, (Fraction(0), Fraction(1, 10)), seed=7)
    found = [input_digest(instance) for _, instance in stream]
    assert found == recorded
