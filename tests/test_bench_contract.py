"""The benchmark's hooks into the library still fit it.

``perfbench/tracing.py`` wraps module attributes by name,
``perfbench/workloads.py`` swaps ``evaluate`` on the modules that call
the pipeline, and its catalog sweep calls the library's named entry
points.  A refactor that renames or drops one of them fails here rather
than in ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def sweep():
    data = inputs.generate("catalog_sweep", 5)
    return workloads.CatalogSweep({role: values[:2000] for role, values in data.items()})


def test_every_traced_attribute_is_a_module_attribute():
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracing._targets()
               if attr not in owner.__dict__]
    assert missing == []


def test_staged_check_swaps_and_restores_the_pipeline():
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("metricgrid")]
    before = {m: m.__dict__.get("evaluate") for m in modules}
    with workloads.staged_evaluate():
        swapped = {m.__name__ for m in modules if m.__dict__.get("evaluate") is workloads.staged}
    assert swapped == {"metricgrid.registry", "metricgrid.derived", "metricgrid.cli"}
    assert {m: m.__dict__.get("evaluate") for m in modules} == before


def test_catalog_sweep_agrees_with_the_staged_pipeline_and_the_oracle(sweep):
    values = sweep.op("fail")()
    assert sweep.record("fail", values) is None
    assert [v for v in values if isinstance(v, str)] == []
    assert sweep.staged_mismatches() == []
    failed = {name for (_, name), reason in sweep.check({}).items() if reason}
    assert failed <= {name for workload, _, name in workloads.KNOWN_DEFECTS
                      if workload == "catalog_sweep"}


def test_traced_sweep_gives_the_same_values(sweep):
    tracer = tracing.Tracer()
    _, values = tracer.run(sweep.op("fail"))
    assert workloads._key(values) == workloads._key(sweep.op("fail")())
    summary = tracer.summary()
    assert summary["registry.evaluate_named.calls"] == len(workloads.NAMED)
    assert summary["derived.calls"] == 10
