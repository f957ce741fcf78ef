"""Parent-vs-change comparison on the benchmark's end-to-end metrics.

Collect alternating pairs (the same benchmark code runs both checkouts;
pair i uses seed SEED+i on both sides, and which side runs first
alternates):

    python3 perfbench/compare.py collect --parent DIR --change DIR \\
        --workload csv_clean --out RESULTS_DIR

It runs 10 pairs of run_seconds each, as BENCHMARK.json sets it.

Print a verdict per (metric, workload) from two result sets:

    python3 perfbench/compare.py verdict RESULTS_DIR/parent.jsonl RESULTS_DIR/change.jsonl

Rule: at least 10 pairs.  "improved" needs the change to win at least
9/10 of the pairs (ties count for neither) and a median gap larger than
the parent's interquartile range.  "worse" means the change's median is
worse than the parent's by more than the metric's bound in
BENCHMARK.json.  Where either side's spread (IQR / median) exceeds the
bound, a metric that is neither is "unresolved", unless every change run
beats every parent run.  Otherwise it is "unchanged".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import load_spec

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9
LLC_MULTIPLE = 4


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    """Machine facts that go next to every result set."""
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = {k: _read(os.path.join(base, index, k))
                                   for k in ("size", "shared_cpu_list")}
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inputs": "written by the benchmark just before each run and read back from the page cache",
    }


def collect(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(environment(), fh, indent=2)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for i in range(MIN_PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                   "--seed", str(args.seed + i), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{side} run {i} failed with code {proc.returncode}", file=sys.stderr)
                return 1
            record = {"pair": i, "first": position == 0, "workload": args.workload,
                      "seed": args.seed + i, "result": json.loads(proc.stdout.strip().splitlines()[-1])}
            with open(os.path.join(args.out, f"{side}.jsonl"), "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"pair {i} {side} done", file=sys.stderr)
    return 0


def _load(path: str) -> dict[tuple[str, int], dict]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {(r["workload"], r["pair"]): r for r in records}


def _spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    lower = better == "lower"

    def beats(c: float, p: float) -> bool:
        return c < p if lower else c > p

    pairs = len(parent)
    if pairs < MIN_PAIRS:
        return f"unresolved ({pairs} pairs, need {MIN_PAIRS})"
    wins = sum(beats(c, p) for c, p in zip(change, parent))
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if wins >= WIN_SHARE * pairs and beats(cm, pm) and abs(cm - pm) > q3 - q1:
        return "improved"
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    if worse_by > bound:
        return "worse"
    if max(_spread(parent), _spread(change)) > bound:
        if all(beats(c, p) for c in change for p in parent):
            return "unchanged"
        return "unresolved"
    return "unchanged"


def report(args) -> int:
    spec = load_spec()
    parent, change = _load(args.parent), _load(args.change)
    env_path = os.path.join(os.path.dirname(os.path.abspath(args.parent)), "env.json")
    env = json.loads(_read(env_path) or "null") or environment()
    print("environment: " + json.dumps(env))
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    peak = 0.0
    for workload in workloads:
        keys = sorted(k for k in parent if k[0] == workload and k in change)
        parent_first = sum(parent[k]["first"] for k in keys)
        print(f"\n{workload}: {len(keys)} pairs, parent ran first in {parent_first}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[k]["result"]["metrics"][name]["value"] for k in keys]
            c = [change[k]["result"]["metrics"][name]["value"] for k in keys]
            if name == "peak_rss_mb":
                peak = max(peak, *p, *c)
            if len(keys) < 2:
                print(f"  {name:14} unresolved (fewer than 2 pairs)")
                continue
            pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            print(f"  {name:14} {verdict(p, c, metric['better'], metric['bound']):12} "
                  f"parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}  "
                  f"bound {metric['bound']:.0%}")
        failed = [k for k in keys if not (parent[k]["result"]["correct"] and change[k]["result"]["correct"])]
        if failed:
            print(f"  runs not correct in pairs {[k[1] for k in failed]}")
    llc = (env["caches"].get("L3") or {}).get("size") or ""
    if llc.endswith("K"):
        limit = LLC_MULTIPLE * int(llc[:-1]) / 1024
        print(f"\nlargest peak RSS {peak:.0f} MiB against {LLC_MULTIPLE} x LLC = {limit:.0f} MiB: "
              + ("no working set approaches it, so these results make no memory-bandwidth or disk claim"
                 if peak < limit / 2 else "a working set approaches it"))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run alternating parent/change pairs")
    c.add_argument("--parent", required=True, help="checkout of the parent commit")
    c.add_argument("--change", required=True, help="checkout of the change")
    c.add_argument("--workload", required=True)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--out", required=True)
    c.set_defaults(func=collect)
    v = sub.add_parser("verdict", help="compare two result sets")
    v.add_argument("parent", help="parent.jsonl written by collect")
    v.add_argument("change", help="change.jsonl written by collect")
    v.set_defaults(func=report)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
