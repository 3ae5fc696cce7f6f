"""Time-to-solution benchmark of the chns channel-flow solver.

    python3 perfbench/run.py --workload direct_128 --seed 1 --seconds 30 --trace 0

Each timed solve goes from the workload's config text through the dt ladder
to an accepted, checked final state with its records and snapshots written
(see ``ladder.py``).  Solves repeat, one at a time in this one process,
until ``--seconds`` have passed; a discarded warm-up solve comes first.
A fixed reference kernel is timed right before and after each untraced
solve, and the solve's times are scaled to the kernel's nominal speed, so
the host's drifting speed cancels (``speed.py``).

``--trace 0`` prints the end-to-end metrics: the medians of the scaled
``time_to_solution_s`` and ``setup_s`` and the process's ``peak_rss_mib``.
``--trace 1`` alternates untraced and traced solves and prints the
per-layer metrics of the traced ones (``tracing.py``); the traced final
state must equal the untraced one bit-for-bit and every per-step count must
repeat exactly.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the quartiles and the provenance.  Everything the run writes goes under
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import bootstrap

MIN_SOLVES = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_cache() -> str | None:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None


def provenance(w, seed: int, threads: dict) -> dict:
    import numpy as np
    import scipy

    from reference import git_commit, source_digest

    return {
        "workload": w.name, "seed": seed, "cpu": _cpu_model(),
        "nproc": os.cpu_count(), "l3_cache": _l3_cache(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "chns_source_sha256": source_digest(), "thread_pins": threads,
        "load": "one process, solves run back to back (closed loop, one client)",
        # every working set here fits in L3, so fft.bytes_per_step is computed
        # from the array sizes, not measured memory traffic
        "working_sets": "cache-resident",
    }


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def _same_state(a, b) -> bool:
    if a is None or b is None:
        return False
    pairs = ((a.phi.values, b.phi.values), (a.mu.values, b.mu.values),
             (a.p.values, b.p.values), (a.u.ux, b.u.ux), (a.u.uy, b.u.uy))
    return all(x.tobytes() == y.tobytes() for x, y in pairs)


def measure(w, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Warm up, then solve repeatedly for ``seconds``; returns the full report."""
    import ladder
    import reference
    import speed
    import tracing

    ref = reference.load(w, seed)

    def solve(out_dir, span=tracing.no_span):
        gc.collect()                    # every solve starts from a collected heap
        try:
            return ladder.solve(w, seed, ref, out_dir, span)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    kernel = speed.Kernel(w.n)
    kernel.time()
    warm = solve(work / "warmup")
    untraced, traced, layers = [], [], []
    scales, kernel_s = [], []
    first_state, tracer, identical = None, None, True
    before = None
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           or len(untraced) < MIN_SOLVES or (trace and len(traced) < 2)):
        i = len(untraced) + len(traced)
        if before is None:
            before = kernel.time()
            kernel_s.append(before)
        untraced.append(solve(work / f"solve{i}"))
        after = kernel.time()
        kernel_s.append(after)
        scales.append(kernel.nominal_s / (0.5 * (before + after)))
        before = after
        if first_state is None:
            first_state = untraced[-1].state
        untraced[-1].state = None       # keep memory flat across repeats
        if trace:
            with tracing.Tracer() as tracer:
                with tracer.span("bench.solve"):
                    s = solve(work / f"solve{i}t", tracer.span)
            identical = identical and _same_state(s.state, first_state)
            s.state = None
            before = None               # the next untraced solve times its own
            traced.append(s)
            layers.append(tracing.layer_metrics(tracer, s))
    solves = untraced + traced
    failed = [s for s in solves if not s.ok]
    report = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "warmup": {"ok": warm.ok, "rungs": warm.describe()},
        "rungs": solves[0].describe(), "accepted_dt": solves[0].dt,
        "attempted": len(solves), "failed": len(failed),
        "failures": sorted({s.describe() for s in failed}),
        # the end-to-end times scaled to the kernel's nominal speed, then
        # the wall times they come from (see speed.py)
        "samples": {
            "time_to_solution_s": [s.time_to_solution_s * c for s, c in zip(untraced, scales)],
            "setup_s": [s.setup_s * c for s, c in zip(untraced, scales)],
            "wall_time_to_solution_s": [s.time_to_solution_s for s in untraced],
            "wall_setup_s": [s.setup_s for s in untraced],
            "kernel_s": kernel_s,
        },
        "problems": [],
    }
    if not trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["metrics"] = {
            "time_to_solution_s": statistics.median(report["samples"]["time_to_solution_s"]),
            "setup_s": statistics.median(report["samples"]["setup_s"]),
            "peak_rss_mib": peak,
        }
        return report

    if not identical:
        report["problems"].append("traced final state differs from the untraced one")
    for name in tracing.COUNT_METRICS:
        if len({m[name] for m in layers}) > 1:
            report["problems"].append(f"{name} differs between traced solves")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    tts_traced = [s.time_to_solution_s for s in traced]
    report["samples"]["traced_time_to_solution_s"] = tts_traced
    metrics["trace.overhead_s"] = (statistics.median(tts_traced)
                                   - statistics.median(report["samples"]["wall_time_to_solution_s"]))
    report["metrics"] = metrics
    spans_dir = work / "trace"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_dir / f"{w.name}-seed{seed}.spans.csv")
    return report


def benchmark_spec() -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(report: dict) -> dict:
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seeds the initial phi noise of the workload's config")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = bootstrap.prepare()
    w = WORKLOADS[args.workload]
    work = bootstrap.WORK_DIR / "runs" / f"{w.name}-seed{args.seed}"
    report = measure(w, args.seed, args.seconds, bool(args.trace), work)
    report["provenance"] = provenance(w, args.seed, threads)

    for name in report["samples"]:
        q = summarize(report["samples"][name])
        print(f"{w.name} {name}: median {q['median']:.6g} q1 {q['q1']:.6g} "
              f"q3 {q['q3']:.6g} (n={q['n']})")
    print(f"{w.name} ladder: {report['rungs']}")
    for failure in report["failures"] + report["problems"]:
        print(f"{w.name} FAILED: {failure}")
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    results = bootstrap.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, default=float) + "\n")
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
