"""metricgrid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a checkout; the program is the checkout's ``src/``.
The inputs are generated from the seed and written under perfbench/.work,
the workload runs in a fresh child interpreter (worker.py), and every
output is checked against the ``formulas`` oracle after the timed loop.
Operation times are reported at the reference host speed (reference.py);
the stderr summary gives the wall times beside them.
A human summary goes to stderr.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` (operations) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import numpy  # noqa: E402

WORKLOADS = ("csv_clean", "catalog_sweep", "json_degenerate")
SETUP_STARTS = 9
SETUP_CODE = ("import metricgrid\nfrom metricgrid import cli, registry\n"
              "registry.get_catalog()\ncli.build_parser()\n")
TAIL_BEYOND = 10
LIMIT_S = 170

# each layer's share of an operation as measured when the workloads were sized
SIZING = {
    "csv_clean": "cli.ingest ~96%",
    "catalog_sweep": "evaluator+derived+registry ~100%",
    "json_degenerate": "cli.render ~72%",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _program_env(root: str) -> dict[str, str]:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "metricgrid", "__init__.py")):
        raise BenchmarkError(f"no metricgrid package under {src}")
    return dict(os.environ, PYTHONPATH=src)


def setup_samples(env: dict[str, str]) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of cold interpreter starts.

    Each start imports metricgrid and returns from ``registry.get_catalog()``
    and ``cli.build_parser()``; the reference start right after it imports
    NumPy only (reference.START_CODE).  One start of each first writes the
    bytecode cache, which users pay only once.  The wait has no timeout,
    because Popen.wait(timeout) polls in steps of up to 50 ms and would
    round every start up to one; a timer kills a start that hangs instead.
    """
    def start(code: str) -> float:
        cmd = [sys.executable, "-c", code]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        return time.perf_counter() - t0

    start(SETUP_CODE)
    start(reference.START_CODE)
    return [(start(SETUP_CODE), start(reference.START_CODE)) for _ in range(SETUP_STARTS)]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * k / len(ordered)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    root = os.getcwd()
    env = _program_env(root)
    started = time.monotonic()
    setup = setup_samples(env) if not trace else []
    work = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    try:
        paths = inputs.write(workload, seed, work)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--work", work, "--paths", json.dumps(paths)]
        budget = LIMIT_S - (time.monotonic() - started)
        try:
            child = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                                   timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker did not finish within {budget:.0f} s") from None
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise BenchmarkError(f"worker exited with code {child.returncode}")
        run = json.loads(child.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.update(workload=workload, seed=seed, setup=setup)
    return run


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units and bounds, and the run length."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(run: dict) -> dict[str, float]:
    """The end-to-end metrics; operation times are scaled to the reference host speed."""
    times = reference.scaled(run["workload"], run["times"], run["kernel_times"])
    rows = inputs.ROWS[run["workload"]]
    return {
        "setup_s": statistics.median(reference.scaled_starts(run["setup"])),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times)[0],
        "rows_per_s": rows * len(times) / sum(times),
        "peak_rss_mb": run["peak_rss_mb"],
        "pass_ratio": 1.0 - run["results_failed"] / run["results_attempted"],
    }


def with_units(values: dict[str, float], declared: list[dict]) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json declares, in its order and with its units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"the run did not measure {', '.join(missing)}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def summarize(run: dict, metrics: dict[str, tuple[float, str]]) -> str:
    w = run["workload"]
    lines = [f"{w} seed {run['seed']}: {run['ops_attempted']} operations, "
             f"{run['ops_failed']} failed; nproc {os.cpu_count()}, Python "
             f"{platform.python_version()}, NumPy {numpy.__version__}, "
             f"inputs read from the page cache"]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "setup_s":
            note = (f"median of {len(run['setup'])} cold starts; wall "
                    f"{statistics.median(t for t, _ in run['setup']):.4g} s, reference start "
                    f"{statistics.median(r for _, r in run['setup']):.4g} s")
        elif name == "op_s.p50":
            note = (f"wall {statistics.median(run['times']):.4g} s; reference kernel median "
                    f"{statistics.median(run['kernel_times']):.4g} s, reference "
                    f"{reference.REFERENCE_S[w]} s")
        elif name == "op_s.tail":
            note = (f"p{tail(run['times'])[1]:.1f} of {len(run['times'])} operations; "
                    f"wall {tail(run['times'])[0]:.4g} s")
        elif name == "pass_ratio":
            note = (f"fail_ratio {1 - value:.4f} share: {run['results_failed']} of "
                    f"{run['results_attempted']} results")
        lines.append(f"  {name:34} {value:14.6g} {unit:7} {note}")
    if "layers" in run:
        lines.append(f"  sizing split: {SIZING[w]}")
        lines.append("  inputs per operation: " + ", ".join(f"{k} {v:.6g}" for k, v in run["inputs"].items()))
        for item in run["staged_mismatches"]:
            lines.append(f"  staged mismatch: {item}")
    for f in run["failures"]:
        tag = f"known defect: {f['known']}" if f["known"] else "NEW"
        lines.append(f"  failed result {f['label']} [{f['variant']}] ({tag}): {f['reason']}")
    for problem in run["problems"]:
        lines.append(f"  problem: {problem}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        spec = load_spec()
        declared = spec["per_layer" if args.trace else "end_to_end"]
        seconds = args.seconds or spec["run_seconds"]
        runs = [measure(w, args.seed, seconds, args.trace) for w in names]
        measured = [with_units(run["layers"] if args.trace else end_to_end(run), declared)
                    for run in runs]
    except (BenchmarkError, OSError, ValueError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for run, metrics in zip(runs, measured):
        sys.stderr.write(summarize(run, metrics))
        if args.workload == "all":
            for name, (value, unit) in metrics.items():
                print(f"{run['workload']:16} {name:34} {value:14.6g} {unit}")
    if args.workload != "all":
        run = runs[0]
        print(json.dumps({
            "correct": run["correct"],
            "attempted": run["ops_attempted"],
            "failed": run["ops_failed"],
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in measured[0].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
