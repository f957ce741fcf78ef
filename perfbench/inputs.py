"""Seeded input generation for the benchmark workloads.

Only NumPy is used here, so the parent process can write the input files
without importing metricgrid.  The same seed always gives the same arrays,
and the files hold every float as its shortest round-trip repr, so the
values the program parses are bit-identical to the arrays the oracle
checks against.
"""

from __future__ import annotations

import json
import os

import numpy as np

ROWS = {"csv_clean": 100_000, "catalog_sweep": 200_000, "json_degenerate": 20_000}
HISTORY_ROWS = 1_000


def _positive(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Strictly positive actuals with multiplicative-noise predictions.

    Every point is usable by every metric under the fail policy: ratios
    are positive, errors are nonzero, and no actual sits on the mean.
    Errors of ~10% on values near 100 make the absolute errors mostly
    larger than 1, which is the regime where a running product overflows.
    """
    a = rng.uniform(50.0, 150.0, n)
    return {
        "actual": a,
        "predicted": a * np.exp(rng.normal(0.0, 0.1, n)),
        "benchmark": a * np.exp(rng.normal(0.0, 0.12, n)),
        "history": rng.uniform(50.0, 150.0, HISTORY_ROWS),
    }


def _degenerate(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """About 30% exact-zero actuals and about 5% negative predictions.

    Nonzero actuals are at least 1 and predictions never 0, so a point is
    degenerate for a denominator exactly when its actual is 0, and for a
    log ratio exactly when its actual is 0 or the signs differ.
    """
    a = rng.uniform(1.0, 100.0, n)
    a[rng.random(n) < 0.30] = 0.0
    p = np.where(a > 0, a, rng.uniform(0.5, 5.0, n)) * np.exp(rng.normal(0.0, 0.2, n))
    negative = rng.random(n) < 0.05
    p[negative] = -p[negative]
    return {"actual": a, "predicted": p}


def generate(workload: str, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, sorted(ROWS).index(workload)])
    if workload == "json_degenerate":
        return _degenerate(rng, ROWS[workload])
    return _positive(rng, ROWS[workload])


def _csv(path: str, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    rows = zip(*(columns[c].tolist() for c in names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def write(workload: str, seed: int, directory: str) -> dict[str, str]:
    """Write the workload's input files; returns their paths by role."""
    os.makedirs(directory, exist_ok=True)
    data = generate(workload, seed)
    if workload == "csv_clean":
        paths = {
            "input": os.path.join(directory, "clean.csv"),
            "history": os.path.join(directory, "history.csv"),
        }
        _csv(paths["input"], {c: data[c] for c in ("actual", "predicted", "benchmark")})
        _csv(paths["history"], {"actual": data["history"]})
        return paths
    if workload == "json_degenerate":
        path = os.path.join(directory, "degenerate.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"actual": data["actual"].tolist(), "predicted": data["predicted"].tolist()}, fh)
        return {"input": path}
    return {}
