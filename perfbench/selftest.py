#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it checks that the untraced run prints every end-to-end
metric declared in ``BENCHMARK.json`` with its unit and the traced run every
per-layer metric, that every output check passes, and that two untraced
runs with one seed give exactly the same virtual-time metrics and
``sim_digest``.  Exits non-zero on the first mismatch it reports.
"""

from __future__ import annotations

import json
import sys

import run

#: Tiny rounds have too few samples for the real percentile floors.
TINY_SAMPLES = {50: 1, 99: 1}
VIRTUAL = ("op_p50_us", "op_p99_us")


def _declared(bench: dict, key: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in bench[key]}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    import worlds

    workloads = run._workloads(worlds)
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)
            print(f"FAIL {what}")

    expect(
        [w["name"] for w in bench["workloads"]] == list(workloads),
        "BENCHMARK.json workloads match the benchmark's",
    )
    for name, (play, size_cls) in workloads.items():
        reports = []
        for _ in range(2):
            report = run.Report(1, TINY_SAMPLES)
            run.untraced(report, play, size_cls.tiny(), seconds=0, setup_reading_s=0)
            reports.append(report)
        traced = run.Report(1, TINY_SAMPLES)
        run.traced(traced, play, size_cls.tiny())
        for mode, report, key in (
            ("untraced", reports[0], "end_to_end"),
            ("traced", traced, "per_layer"),
        ):
            expect(not report.problems, f"{name} {mode}: {report.problems}")
            printed = {m: v["unit"] for m, v in report.metrics.items()}
            expect(
                printed == _declared(bench, key),
                f"{name} {mode}: metrics and units match BENCHMARK.json {key}",
            )
        first, second = (r.metrics for r in reports)
        expect(
            all(first[m]["value"] == second[m]["value"] for m in VIRTUAL),
            f"{name}: virtual-time metrics repeat exactly for one seed",
        )
        digests = [line for r in (*reports, traced) for line in r.lines if "sim_digest" in line]
        expect(len(set(digests)) == 1, f"{name}: sim_digest repeats for one seed")
        print(f"ok {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
