"""Smoke test of the benchmark itself; no timing assertions.

    python3 perfbench/smoke.py

Runs the three workload configs on a 16^2 grid through the same code as
``run.py`` (reference, ladder, correctness gate, tracer) and checks that

* every metric printed is named in BENCHMARK.json, and every metric there
  is printed;
* the gate passes, and the traced final state equals the untraced one
  bit-for-bit (``run.measure`` reports a mismatch as a problem);
* every per-step count repeats exactly across two traced runs.

Exits with status 1 and a list of failures if any check fails.
"""

from __future__ import annotations

import sys

import bootstrap


def main() -> int:
    bootstrap.prepare()
    import run
    import tracing
    from workloads import DEFAULT_SEED, SMOKE_WORKLOADS

    spec = run.benchmark_spec()
    names = {False: {m["name"] for m in spec["end_to_end"]},
             True: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for w in SMOKE_WORKLOADS.values():
        work = bootstrap.WORK_DIR / "smoke" / w.name
        counts = []
        for trace in (False, True, True):
            report = run.measure(w, DEFAULT_SEED, 0.0, trace, work)
            line = run.result_line(report)
            label = f"{w.name} trace={int(trace)}"
            if not line["correct"] or line["failed"]:
                failures.append(f"{label}: not correct: {line}")
            printed = set(line["metrics"])
            if printed != names[trace]:
                failures.append(f"{label}: metric names differ from BENCHMARK.json: "
                                f"extra {sorted(printed - names[trace])}, "
                                f"missing {sorted(names[trace] - printed)}")
            if trace:
                counts.append({k: line["metrics"][k]["value"]
                               for k in tracing.COUNT_METRICS if k in line["metrics"]})
        if counts[0] != counts[1]:
            failures.append(f"{w.name}: per-step counts differ between runs: {counts}")
        print(f"{w.name}: checked; ladder {report['rungs']}")
    for failure in failures:
        print("FAIL " + failure)
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
