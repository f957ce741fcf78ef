"""One workload's measured run, in a fresh interpreter started by run.py.

metricgrid must come from ``src/`` under the current directory.  The run
warms up (one operation per policy, whose outputs become the references),
then runs operations for the given seconds, one caller in a closed loop,
each untraced operation followed by the workload's reference kernel
(reference.py).  With tracing on, every second operation runs under the
Tracer, so traced and untraced operations interleave.  All checks come
after the timed loop.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings


def _timed(op, tracer):
    """(seconds, output, failure) for one operation."""
    start = time.perf_counter()
    try:
        if tracer is not None:
            seconds, out = tracer.run(op)
        else:
            out = op()
            seconds = time.perf_counter() - start
        return seconds, out, None
    except Exception:  # a raising operation is a failed operation; the run goes on
        return time.perf_counter() - start, None, traceback.format_exc(limit=4)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="directory of the input files and reports")
    ap.add_argument("--paths", default="{}", help="JSON object of input file paths by role")
    args = ap.parse_args()

    import metricgrid

    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(metricgrid.__file__).startswith(src):
        print(f"metricgrid was imported from {metricgrid.__file__}, not from {src}", file=sys.stderr)
        return 2

    import inputs
    import reference
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "catalog_sweep":
        wl = cls(inputs.generate(args.workload, args.seed))
    else:
        wl = cls(json.loads(args.paths), args.work)
    ops = {v: wl.op(v) for v in wl.variants}
    tracer = tracing.Tracer() if args.trace else None
    kernel = reference.KERNEL[args.workload]

    problems = []
    op_errors: dict[str, str] = {}  # each policy's first operation failure
    for variant in wl.variants:
        seconds, out, failure = _timed(ops[variant], None)
        failure = failure or wl.record(variant, out)
        if failure:
            problems.append(f"warm-up [{variant}]: {failure}")
            op_errors.setdefault(variant, failure)
    kernel()

    unit = [(v, None) for v in wl.variants] + [(v, tracer) for v in wl.variants if tracer]
    times: dict[bool, list[float]] = {False: [], True: []}
    kernel_times: list[float] = []  # reference kernel after each untraced operation
    failed_ops: list[tuple[str, str]] = []
    ops_by_variant = dict.fromkeys(wl.variants, 0)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        for variant, t in unit:
            gc.collect()
            seconds, out, failure = _timed(ops[variant], t)
            failure = failure or wl.record(variant, out)
            times[t is not None].append(seconds)
            if t is None:
                gc.collect()
                start = time.perf_counter()
                kernel()
                kernel_times.append(time.perf_counter() - start)
            ops_by_variant[variant] += 1
            if failure:
                failed_ops.append((variant, failure))
                op_errors.setdefault(variant, failure)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # --- checks, outside the timed region ---
    if wl.data is None:
        wl.data = inputs.generate(args.workload, args.seed)
    verdicts = wl.check(op_errors)
    labels = len(wl.labels)
    failed_by_variant = {v: sum(1 for (var, _), r in verdicts.items() if var == v and r)
                         for v in wl.variants}
    failed_op_count = {v: sum(1 for var, _ in failed_ops if var == v) for v in wl.variants}
    results_attempted = labels * sum(ops_by_variant.values())
    results_failed = sum(labels * failed_op_count[v]
                         + failed_by_variant[v] * (ops_by_variant[v] - failed_op_count[v])
                         for v in wl.variants)
    failures = []
    for (variant, name), reason in verdicts.items():
        if reason:
            known = workloads.KNOWN_DEFECTS.get((args.workload, variant, name))
            failures.append({"variant": variant, "label": name, "reason": reason, "known": known})
    problems += [f"operation [{v}]: {r}" for v, r in failed_ops[:3]]
    problems += [f"{f['label']} [{f['variant']}]: {f['reason']}" for f in failures if not f["known"]]

    result = {
        "correct": not problems and not failed_ops,
        "times": times[False],
        "kernel_times": kernel_times,
        "ops_attempted": sum(ops_by_variant.values()),
        "ops_failed": len(failed_ops),
        "results_attempted": results_attempted,
        "results_failed": results_failed,
        "failures": failures,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for variant in wl.variants:
                ops[variant]()
        layers = tracer.summary()
        layers["trace.overhead"] = statistics.median(times[True]) / statistics.median(times[False]) - 1
        layers["evaluator.runtime_warnings"] = (
            sum(issubclass(w.category, RuntimeWarning) for w in caught) / len(wl.variants))
        layers["cli.ingest.peak_alloc_mb"] = wl.ingest_peak_alloc_mb()
        staged = wl.staged_mismatches()
        layers["trace.staged_mismatch"] = len(staged)
        a, p = wl.data["actual"], wl.data["predicted"]
        properties = {
            "rows": a.size,
            "bytes": wl.input_bytes(),
            "zero_actual_share": float((a == 0).mean()),
            "neg_pred_share": float((p < 0).mean()),
            "distinct_distance_stages": tracer.distinct("distance"),
            "distinct_normalize_stages": tracer.distinct("normalize"),
        }
        result.update(layers=layers, staged_mismatches=staged, inputs=properties)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
