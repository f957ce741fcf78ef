"""Fixed reference work that measures how fast the host runs at each moment.

The shared host this benchmark runs on slows down in stretches of seconds
to minutes, by up to ~1.7x, and pure-Python code slows more than NumPy
code.  A run's wall times therefore say as much about the host as about
the program.  So each untimed gap between operations runs the workload's
reference kernel once: fixed work of the same kind as the layer that
dominates the workload, done with the standard library and NumPy only,
never with metricgrid, so no change to the program changes it.  Each
operation's wall time is then scaled by ``REFERENCE_S / kernel time``
of the kernel run right after it (``scaled``): the time that operation
would have taken on a host where the kernel takes ``REFERENCE_S``.
``REFERENCE_S`` is the kernel's median on the 2-vCPU Xeon the benchmark
was sized on, rounded.  A program change moves the scaled times just as
it moves the wall times; a host slowdown moves the operation and the
kernel after it together and cancels.  Set-up time is scaled the same
way: each cold start by a cold start right after it that imports NumPy
only (``scaled_starts``).

Each kernel builds its inputs inside the call and drops them before it
returns, and allocates less than an operation does.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np


def ingest() -> None:
    """Parse 20k CSV rows of three floats the way cli.read_columns_csv does."""
    values = np.random.default_rng(7).uniform(50.0, 150.0, (20_000, 3)).tolist()
    text = "a,b,c\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in values)
    reader = csv.reader(io.StringIO(text))
    next(reader)
    columns: list[list[float]] = [[], [], []]
    for row in reader:
        for i, column in enumerate(columns):
            column.append(float(row[i].strip()))
    np.array(columns)


def stages() -> None:
    """Errors, a sort, logs and reductions over 200k floats, like the evaluator stages."""
    a = np.random.default_rng(7).uniform(50.0, 150.0, 200_000)
    p = a * 1.1
    for _ in range(15):
        e = np.abs(a - p) / a
        np.sort(e)
        np.log(e).mean()
        np.median(e)


def render() -> None:
    """Render 16k dicts shaped like policy records the way cli.render_report does."""
    records = [{"metric": "MAPE", "index": i, "action": "skipped:zero-denominator", "value": i * 0.5}
               for i in range(16_000)]
    json.dumps({"records": records}, indent=2, sort_keys=True)


# each workload's kernel, after the layer that dominates it (see README.md)
KERNEL = {"csv_clean": ingest, "catalog_sweep": stages, "json_degenerate": render}
REFERENCE_S = {"csv_clean": 0.11, "catalog_sweep": 0.074, "json_degenerate": 0.15}


# A cold start that imports NumPy only: the reference for set-up time, whose
# cold starts are process creation and imports rather than any one layer.
START_CODE = "import numpy\n"
START_REFERENCE_S = 0.15


def scaled_starts(samples: list[list[float]]) -> list[float]:
    """Each (start, reference start) pair's start time at the reference host speed."""
    return [t * START_REFERENCE_S / r for t, r in samples]


def scaled(workload: str, times: list[float], kernel_times: list[float]) -> list[float]:
    """Each operation's wall time at the reference host speed."""
    ref = REFERENCE_S[workload]
    return [t * ref / k for t, k in zip(times, kernel_times, strict=True)]
