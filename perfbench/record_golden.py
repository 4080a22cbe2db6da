"""Record the outputs every benchmark pool entry must reproduce.

    python3 perfbench/record_golden.py [workload ...]

Writes `perfbench/golden/<workload>.json`: for each pool entry, the digest
of its input followed by its recorded outputs (solve digests, or the four
exact factors). Run it only on a commit whose outputs are the reference; a
change that must keep allocations and traces identical never re-records.
"""

from __future__ import annotations

import contextlib
import json
import sys

import checkout


def record(name: str) -> None:
    from workloads import GOLDEN_DIR, WORKLOADS, input_digest

    workload = WORKLOADS[name]
    entries = []
    for index in range(workload.pool_size):
        jobs = workload.entry_jobs(index)
        entry = [input_digest(jobs[0])]
        for job in jobs:
            entry += workload.record(job, workload.run(job, contextlib.nullcontext))
        entries.append(entry)
    GOLDEN_DIR.mkdir(exist_ok=True)
    body = ",\n".join("  " + json.dumps(e) for e in entries)
    doc = f'{{"workload": {json.dumps(name)}, "entries": [\n{body}\n]}}\n'
    (GOLDEN_DIR / f"{name}.json").write_text(doc)
    print(f"{name}: {len(entries)} entries recorded")


def main(argv: list[str]) -> int:
    checkout.require_source()
    checkout.OUT_DIR.mkdir(exist_ok=True)
    from workloads import WORKLOADS

    for name in argv or list(WORKLOADS):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
