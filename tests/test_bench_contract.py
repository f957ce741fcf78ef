"""The benchmark's hooks into the library still fit it.

``perfbench/tracing.py`` wraps module attributes by name,
``perfbench/workloads.py`` swaps ``evaluate`` on the modules that call
the pipeline, and its catalog sweep calls the library's named entry
points.  A refactor that renames or drops one of them fails here rather
than in ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import catalog_compositions
from metricgrid import evaluator, validate_series_pair

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


STAGES = ("point_distances", "normalize", "apply_point_transform", "aggregate", "apply_post")


def test_evaluate_calls_every_stage_through_the_module(monkeypatch):
    # tracing.py and the staged check see the stages only as module
    # attributes; a fast path inlined into evaluate() would hide them
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        def counted(*args, _name=name, _stage=getattr(evaluator, name), **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)
        monkeypatch.setattr(evaluator, name, counted)
    rng = np.random.default_rng(8)
    pair = validate_series_pair(rng.uniform(0.5, 10.0, 50), rng.uniform(0.5, 10.0, 50))
    compositions = catalog_compositions()
    assert len(compositions) == 55
    for label, comp in compositions:
        calls.update(dict.fromkeys(STAGES, 0))
        evaluator.evaluate(pair, comp)
        assert list(calls.values()) == [1, 1, 1, 1, len(comp.post)], label
