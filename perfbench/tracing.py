"""Spans and counters around calls into metricgrid's public functions.

The program is not changed: while a Tracer is installed, the module
attributes listed in ``_targets`` are replaced by wrappers that record a
span (name, start, end, parent, operation id) and update per-operation
counters.  Internal calls go through module globals, so a stage called
from inside ``evaluate`` is recorded as that call's child.  Spans stay in
memory until ``summary`` turns them into per-layer figures.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict

from metricgrid import cli, derived, evaluator, registry, types
from metricgrid.types import AggKind, Distance, FAIL_FAST, NormKind, PointTransform

# span name -> layer it is reported under (self time is summed per layer)
LAYERS = {
    "op": "op.other",
    "cli.ingest": "cli.ingest",
    "types.validate": "types.validate",
    "cli.select": "cli.select",
    "cli.dispatch": "cli.dispatch",
    "registry.evaluate_named": "registry.dispatch",
    "evaluator.evaluate": "evaluator",
    "evaluator.distance": "evaluator",
    "evaluator.normalize": "evaluator",
    "evaluator.transform": "evaluator",
    "evaluator.aggregate": "evaluator",
    "evaluator.post": "evaluator",
    "derived": "derived",
    "cli.records": "cli.records",
    "cli.render": "cli.render",
    "cli.emit": "cli.emit",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

_LOG_DISTANCES = (Distance.LOG_QUOTIENT, Distance.ABS_LOG_QUOTIENT)
_ORDER_AGGREGATORS = (AggKind.MEDIAN, AggKind.TRUNCATED_MEAN, AggKind.WINSORIZED_MEAN)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _count_distance(c, keys, args, kwargs, out):
    pair, kind = _arg(args, kwargs, 0, "pair"), _arg(args, kwargs, 1, "kind")
    policy = _arg(args, kwargs, 2, "policy", FAIL_FAST)
    keys["distance"].add((id(pair), kind, policy.nonpositive_log_ratio if kind in _LOG_DISTANCES else None))
    c["distance.calls"] += 1
    c["points"] += pair.n
    c["bytes"] += pair.actuals.nbytes + pair.predicted.nbytes + out.values.nbytes + out.usable.nbytes
    c["actions"] += len(out.actions)
    c["skipped"] += out.n - out.n_usable


def _count_normalize(c, keys, args, kwargs, out):
    points, pair, spec = (_arg(args, kwargs, i, n) for i, n in enumerate(("points", "pair", "spec")))
    if spec.kind is NormKind.UNITARY:
        return
    policy = _arg(args, kwargs, 3, "policy", FAIL_FAST)
    keys["normalize"].add((id(pair), spec, policy.zero_denominator, policy.epsilon))
    c["normalize.calls"] += 1
    c["bytes"] += (points.values.nbytes + points.usable.nbytes + pair.actuals.nbytes
                   + pair.predicted.nbytes + out.values.nbytes + out.usable.nbytes)
    c["actions"] += len(out.actions) - len(points.actions)
    c["skipped"] += points.n_usable - out.n_usable


def _count_transform(c, keys, args, kwargs, out):
    if _arg(args, kwargs, 2, "transform") is not PointTransform.IDENTITY:
        c["bytes"] += _arg(args, kwargs, 0, "points").values.nbytes + out.values.nbytes


def _count_aggregate(c, keys, args, kwargs, out):
    points, aggregator = _arg(args, kwargs, 0, "points"), _arg(args, kwargs, 1, "aggregator")
    c["sorts"] += aggregator.kind in _ORDER_AGGREGATORS
    c["bytes"] += points.values.nbytes + points.usable.nbytes


def _count_ingest(c, keys, args, kwargs, out):
    c["ingest.rows"] += out[0].n
    c["ingest.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_history(c, keys, args, kwargs, out):
    c["ingest.rows"] += out.size
    c["ingest.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_render(c, keys, args, kwargs, out):
    c["render.bytes"] += len(out.encode("utf-8"))


def _counter(key):
    def count(c, keys, args, kwargs, out):
        c[key] += 1
    return count


def _targets():
    """(owner, attribute, span name, counter) for every wrapped function."""
    evaluate = ("evaluator.evaluate", None)
    distance = ("evaluator.distance", _count_distance)
    lookup = ("cli.select", None)
    derived_span = ("derived", _counter("derived.calls"))
    return [
        (cli, "ingest", "cli.ingest", _count_ingest),
        (cli, "load_series", "cli.ingest", _count_history),
        (cli, "validate_series_pair", "types.validate", None),
        (cli, "build_policy", *lookup),
        (cli, "parse_composition", *lookup),
        (registry, "lookup", *lookup),
        (cli, "evaluate_selection", "cli.dispatch", None),
        (registry, "evaluate_named", "registry.evaluate_named", _counter("evaluate_named.calls")),
        (registry, "evaluate", *evaluate),
        (derived, "evaluate", *evaluate),
        (cli, "evaluate", *evaluate),
        (evaluator, "point_distances", *distance),
        (registry, "point_distances", *distance),
        (evaluator, "normalize", "evaluator.normalize", _count_normalize),
        (evaluator, "apply_point_transform", "evaluator.transform", _count_transform),
        (evaluator, "aggregate", "evaluator.aggregate", _count_aggregate),
        (evaluator, "apply_post", "evaluator.post", None),
        (derived, "extended", *derived_span),
        (derived, "mase", *derived_span),
        (derived, "coefficient_of_determination", *derived_span),
        (derived, "relative_named", *derived_span),
        (derived, "relative_metric", *derived_span),
        (types.MetricResult, "to_record", "cli.records", None),
        (cli, "render_report", "cli.render", _count_render),
        (cli, "_emit", "cli.emit", None),
    ]


class Tracer:
    """Records spans and counters while installed; one operation at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: list[Counter] = []
        self.keys: list[dict[str, set]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            op = len(self.counts) - 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if count is not None:
                count(self.counts[op], self.keys[op], args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, op):
        """Run one operation under a root span; returns (seconds, result)."""
        self.counts.append(Counter())
        self.keys.append(defaultdict(set))
        index = len(self.spans)
        self.install()
        try:
            result = self._wrap("op", op, None)()
        finally:
            self.uninstall()
        _, start, end, _, _ = self.spans[index]
        return end - start, result

    def distinct(self, stage: str) -> float:
        """Distinct (pair, stage input, policy) keys of a stage per operation."""
        return sum(len(k[stage]) for k in self.keys) / len(self.keys)

    def summary(self) -> dict[str, float]:
        """Layer self times (median per operation), counts (mean per operation) and shares."""
        ops = len(self.counts)
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_layer = [defaultdict(float) for _ in range(ops)]
        by_span = [defaultdict(float) for _ in range(ops)]
        inclusive = [defaultdict(float) for _ in range(ops)]
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            by_layer[op][LAYERS[name]] += end - start - child_time[i]
            by_span[op][name] += end - start - child_time[i]
            inclusive[op][name] += end - start
        total = sum(s["op"] for s in inclusive)

        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.share"] = sum(s[layer] for s in by_layer) / total
        for layer in LAYER_NAMES:
            if layer != "evaluator":
                out[f"{layer}.s"] = statistics.median(s[layer] for s in by_layer)
        for stage in ("evaluate", "distance", "normalize", "transform", "aggregate", "post"):
            out[f"evaluator.{stage}.s"] = statistics.median(s[f"evaluator.{stage}"] for s in by_span)
        out["registry.evaluate_named.s"] = statistics.median(
            s["registry.evaluate_named"] for s in inclusive)

        def per_op(key):
            return sum(c[key] for c in self.counts) / ops

        out["registry.evaluate_named.calls"] = per_op("evaluate_named.calls")
        out["derived.calls"] = per_op("derived.calls")
        for stage in ("distance", "normalize"):
            calls = per_op(f"{stage}.calls")
            out[f"evaluator.{stage}.calls"] = calls
            out[f"evaluator.{stage}.unique_ratio"] = self.distinct(stage) / calls if calls else 1.0
        out["evaluator.aggregate.sorts"] = per_op("sorts")
        out["evaluator.points"] = per_op("points")
        out["evaluator.bytes_computed"] = per_op("bytes")
        out["evaluator.policy.actions"] = per_op("actions")
        out["evaluator.policy.points_skipped"] = per_op("skipped")
        out["cli.ingest.rows"] = per_op("ingest.rows")
        out["cli.ingest.bytes"] = per_op("ingest.bytes")
        out["cli.render.bytes"] = per_op("render.bytes")
        return out
