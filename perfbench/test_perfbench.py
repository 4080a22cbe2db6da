"""The benchmark's own checks.

    python3 -m pytest -q perfbench

Counts taken by the traced run must repeat exactly, and on the commit that
defined the benchmark each workload stresses the layer it was chosen for.
The share test describes that commit's profile: a change that moves work
between layers on purpose is expected to move these shares too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402

checkout.require_source()

from run import layer_run, stretches, sustained_speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
OPS = {"small-batch": 200, "efx-large": 2, "efr-large": 1, "verify-rational": 3}
COUNTS = (
    "matching.repair_moves",
    "envy.find_envy_cycle.calls",
    "envy.cycle_hit_ratio",
    "algorithms.refine_picks",
    "algorithms.rotations",
    "algorithms.source_picks",
    "algorithms.invariant_checks",
    "model.fairness_factor.calls",
    "model.bundle_value.calls",
)


def traced_metrics(name: str) -> dict[str, float]:
    """Layer metrics of one pass over the seed's first jobs, through the benchmark's own path."""
    workload = WORKLOADS[name]
    jobs = workload.jobs(SEED)[: OPS[name]]
    result = layer_run(workload, jobs, workload.load_golden(), range(len(jobs)))
    assert result.failed == []
    assert result.plain_digest == result.traced_digest
    metrics = {k: m["value"] for k, m in result.metrics.items()}
    # Completion's running factor checks are invariant checks, not completion.
    spans = result.tracer.spans
    running_checks = sum(
        end - start
        for span_name, _, start, end, parent in spans
        if span_name == "model.fairness_factor"
        and parent is not None
        and spans[parent][0] == "algorithms.envy_cycle_elimination"
    )
    metrics["completion.ms"] = (
        metrics["algorithms.envy_cycle_elimination.ms"] - running_checks * 1000 / len(jobs)
    )
    return metrics


@pytest.fixture(scope="module")
def traced_twice() -> dict[str, tuple[dict, dict]]:
    checkout.OUT_DIR.mkdir(exist_ok=True)
    return {name: (traced_metrics(name), traced_metrics(name)) for name in OPS}


@pytest.mark.parametrize("name", list(OPS))
def test_counts_repeat_exactly(traced_twice, name):
    first, second = traced_twice[name]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["model.bundle_value.calls"] > 0


def _share(metrics: dict, *names: str) -> float:
    return sum(metrics[n] for n in names) / metrics["algorithms.solve.ms"]


def test_layer_shares_match_the_workload_choice(traced_twice):
    efx = traced_twice["efx-large"][0]
    efr = traced_twice["efr-large"][0]
    small = traced_twice["small-batch"][0]
    completion = "completion.ms"
    matching = ("matching.nsw_matching.ms", "matching.certificate_ms")

    assert _share(efx, completion) > 0.5
    assert _share(efr, completion) < 0.1
    assert _share(small, completion) < 0.1

    assert _share(efx, *matching) < 0.2
    others = (
        completion,
        "algorithms.refine_step2.ms",
        "envy.order_ms",
        "model.fairness_factor.ms",
        "algorithms.solve.self_ms",
    )
    assert all(_share(efr, *matching) > _share(efr, other) for other in others)


def test_missing_name_reports_absent_not_zero(monkeypatch):
    import spans

    monkeypatch.setitem(spans.SPAN_TARGETS, "envy.find_envy_cycle", (("algorithms", "gone"),))
    metrics = traced_metrics("verify-rational")
    assert metrics["envy.find_envy_cycle.ms"] is None
    assert metrics["envy.find_envy_cycle.calls"] is None
    assert metrics["envy.cycle_hit_ratio"] is None
    assert metrics["envy.strict_envy_edges.ms"] == 0.0  # present, never called


def test_stretches_close_at_one_second_of_operation_time():
    assert stretches([0.4, 0.4, 0.4, 0.4, 0.4]) == [[0.4, 0.4, 0.4]]
    assert stretches([2.5, 0.5, 0.5]) == [[2.5], [0.5, 0.5]]
    assert stretches([0.3]) == [[0.3]]


def test_sustained_speed_reads_the_slow_stretches():
    fast, slow = [0.125] * 8, [0.25] * 4  # one second each: 8/s and 4/s
    ops_per_s, p50 = sustained_speed(fast * 8 + slow * 2)
    assert ops_per_s == pytest.approx(4.0)
    assert p50 == pytest.approx(0.25)
