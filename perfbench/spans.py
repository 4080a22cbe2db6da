"""Per-layer spans and call counts for the traced benchmark run.

The tracer wraps public names in the namespaces where the pipeline looks them
up (for example `fairalloc.algorithms.find_envy_cycle`, which `_solve` and
`envy_cycle_elimination` resolve through their module globals), so no file
under `src/` changes. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct child
spans; calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# Span name -> (module, attribute) bindings whose calls it times.
SPAN_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "algorithms.solve": (("algorithms", "solve_efr"), ("algorithms", "solve_efx")),
    "matching.nsw_matching": (("algorithms", "nsw_matching"),),
    "matching.warm_start": (("matching", "linear_sum_assignment"),),
    "matching.certificate": (("algorithms", "verify_nsw_certificate"),),
    "envy.find_envy_cycle": (("algorithms", "find_envy_cycle"),),
    "envy.strict_envy_edges": (
        ("algorithms", "strict_envy_edges"),
        ("envy", "strict_envy_edges"),
    ),
    "envy.order": (
        ("algorithms", "build_envy_ratio_graph"),
        ("algorithms", "topological_order"),
    ),
    "algorithms.refine_step2": (("algorithms", "refine_step2"),),
    "algorithms.envy_cycle_elimination": (("algorithms", "envy_cycle_elimination"),),
    "model.fairness_factor": (
        ("algorithms", "fairness_factor"),
        ("model", "fairness_factor"),
    ),
}

# Count name -> bindings whose calls it counts; too hot to time one by one.
COUNT_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "matching.lexicographic_objective": (("matching", "lexicographic_objective"),),
    "model.bundle_value": (
        ("model", "bundle_value"),
        ("envy", "bundle_value"),
        ("matching", "bundle_value"),
        ("algorithms", "bundle_value"),
    ),
}

# Spans whose result tells whether the call found something.
HIT_SPANS = {"envy.find_envy_cycle"}


class Tracer:
    """Records spans (name, operation, start, end, parent) and call counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, op, start, end, parent index]
        self.calls: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.absent: set[str] = set()  # metrics none of whose names exist
        self.unwrapped: list[str] = []  # individual bindings that do not exist
        self.op = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, self.op, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def _timed(self, name: str, fn: Callable) -> Callable:
        track_hits = name in HIT_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if track_hits and result is not None:
                self.hits[name] += 1
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target binding that exists; note the ones that do not."""
        self.absent.clear()
        self.unwrapped.clear()
        for targets, make in ((SPAN_TARGETS, self._timed), (COUNT_TARGETS, self._counted)):
            for name, bindings in targets.items():
                found = 0
                for module_name, attr in bindings:
                    try:
                        module = importlib.import_module(f"fairalloc.{module_name}")
                    except ImportError:
                        module = None
                    original = getattr(module, attr, None)
                    if original is None:
                        self.unwrapped.append(f"fairalloc.{module_name}.{attr}")
                        continue
                    self._patches.append((module, attr, original))
                    setattr(module, attr, make(name, original))
                    found += 1
                if not found:
                    self.absent.add(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def totals(self) -> tuple[Counter[str], Counter[str]]:
        """Summed (inclusive, self) seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        inclusive: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for index, (name, _, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[index]
        return inclusive, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
