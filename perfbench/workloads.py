"""The three workloads: what one operation is, and how its outputs are checked.

Every check runs outside the timed region.  Results are held to the
``formulas`` oracle at 1e-12 relative (with an absolute floor at
magnitude 1, the rule the test suite uses), under the same policy as the
operation.  The oracle, the expected result labels and the degenerate-point
counts are all written out here rather than read from the program, so a
change to the program cannot change what it is checked against.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tracemalloc
import warnings

import numpy as np

from metricgrid import cli, derived, evaluator, formulas, registry
from metricgrid.errors import MetricError
from metricgrid.types import (
    EvaluationPolicy,
    FAIL_FAST,
    LogRatioPolicy,
    MetricResult,
    ZeroDenominatorPolicy,
    validate_series_pair,
)

TOLERANCE = 1e-12

# Results that already disagreed with the oracle when this benchmark was
# defined, keyed by (workload, policy, result label).  They are counted as
# failed in pass_ratio and listed on every run; they only keep `correct`
# true.  ROADMAP item 4 is where they get fixed.
_EPSILON_SQUARE = "pipeline adds epsilon to A before squaring; the oracle adds it to A**2"
KNOWN_DEFECTS = {
    ("catalog_sweep", "fail", "GMAE"): "oracle's np.prod overflows to inf",
    ("catalog_sweep", "fail", "GRMSE"): "oracle's np.prod overflows to inf",
    ("catalog_sweep", "fail", "RGRMSE"): "oracle's GRMSE ratio is inf/inf = nan",
    ("catalog_sweep", "fail", "GMRAE:root-product"): "oracle's product underflows to 0.0",
    ("json_degenerate", "epsilon", "MSPE"): _EPSILON_SQUARE,
    ("json_degenerate", "epsilon", "RMSPE"): _EPSILON_SQUARE,
}

# every implemented catalog entry and variant, in a fixed order
PRIMARY = (
    "ME MD MNB MPE FB MAE MdAE MaxAE SAD GMAE MARE MAPE MdAPE MRAE MdRAE GMRAE RAE FAE "
    "sMAPE sMdAPE CM WHD MSE RMSE SSE ED GRMSE MSPE RMSPE MdSPE RMdSPE NCSD RSE RRSE SquD "
    "DivD VSD MdLAR KLD JD MNAFE MNFB MdSA"
).split()
VARIANTS = {
    "MRAE": ("option1", "option2"), "GMRAE": ("root-product",), "RAE": ("option1", "option2"),
    "FAE": ("absolute",), "sMAPE": ("absolute", "mean-denominator"), "sMdAPE": ("absolute",),
    "CM": ("absolute",), "RMSPE": ("conventional",), "RMdSPE": ("conventional",),
    "RSE": ("option1", "option2"), "RRSE": ("option1", "option2"),
}
NAMED = [(m, None) for m in PRIMARY] + [(m, v) for m, vs in VARIANTS.items() for v in vs]
EXTENDED = ("NRMSE_m", "NRMSE_sd", "NRMSE_mm", "NMSE")
RELATIVE = {"RMAE": formulas.rmae, "RelRMSE": formulas.relrmse, "LMR": formulas.lmr,
            "RGRMSE": formulas.rgrmse}

CSV_METRICS = ("MdAE", "GMRAE", "RelRMSE", "RMAE", "NRMSE_sd", "CoD", "MASE")
CSV_SUITES = {"bias-accuracy": ("ME", "MAE", "RMSE"), "log-symmetric": ("MdLAR", "MdSA"),
              "percentage": ("MAPE", "MdAPE", "sMAPE")}
DEGENERATE_METRICS = ("MAPE", "MdAPE", "MARE", "MNB", "MSPE", "RMSPE", "MdLAR", "MdSA",
                      "MNAFE", "NCSD", "MAE", "RMSE")
LOG_METRICS = {"MdLAR", "MdSA", "MNAFE"}
ZERO_DENOMINATOR_METRICS = {"MAPE", "MdAPE", "MARE", "MNB", "MSPE", "RMSPE", "NCSD"}
SKIP_LOG = "skipped:nonpositive-log-ratio"
SKIP_ZERO = "skipped:zero-denominator"
EPSILON = "epsilon-corrected"


def label(abbr: str, variant: str | None) -> str:
    return f"{abbr}:{variant}" if variant else abbr


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _gate(value, expected) -> str | None:
    if not np.isfinite(value):
        return f"non-finite value {value!r}"
    if not np.isfinite(expected):
        return f"oracle gives {expected!r} (program {value!r})"
    if abs(value - expected) > TOLERANCE * max(1.0, abs(expected)):
        return f"program {value!r} vs oracle {expected!r}"
    return None


def _oracle(abbr, variant, data, pair, policy) -> float:
    a, p = data["actual"], data["predicted"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if abbr in RELATIVE:
            return RELATIVE[abbr](a, p, data["benchmark"], policy)
        if abbr == "MASE":
            return formulas.mase(a, p, data["history"], policy)
        return registry.direct_formula(abbr, pair, policy, variant)


def _check_value(abbr, variant, value, data, pair, policy) -> str | None:
    try:
        expected = _oracle(abbr, variant, data, pair, policy)
    except MetricError as exc:
        return f"oracle raised {type(exc).__name__}: {exc}"
    return _gate(value, expected)


def staged(pair, comp, policy=FAIL_FAST) -> MetricResult:
    """One composition run stage by stage through the evaluator's public functions."""
    pv = evaluator.point_distances(pair, comp.distance, policy)
    pv = evaluator.normalize(pv, pair, comp.normalizer, policy)
    pv = evaluator.apply_point_transform(pv, pair, comp.transform)
    value = evaluator.aggregate(pv, comp.aggregator, policy)
    for post in comp.post:
        value = evaluator.apply_post(value, post)
    return MetricResult(float(value), evaluator.dimension_of(comp), pv.n,
                        pv.n - pv.n_usable, tuple(pv.actions))


@contextlib.contextmanager
def staged_evaluate():
    """Route every pipeline call made by registry, derived and cli through `staged`."""
    owners = (registry, derived, cli)
    saved = [owner.evaluate for owner in owners]
    for owner in owners:
        owner.evaluate = staged
    try:
        yield
    finally:
        for owner, original in zip(owners, saved):
            owner.evaluate = original


def _key(values) -> list[str]:
    """Values compared bit for bit; an error message compares as itself."""
    return [v if isinstance(v, str) else float(v).hex() for v in values]


class CatalogSweep:
    """Library only: every catalog entry and variant on 200k in-memory rows."""

    name = "catalog_sweep"
    variants = ("fail",)
    items = NAMED + [(m, None) for m in (*EXTENDED, "CoD", *RELATIVE, "MASE")]
    labels = [label(m, v) for m, v in items]

    def __init__(self, data: dict[str, np.ndarray]) -> None:
        self.data = data
        self.pair = validate_series_pair(data["actual"], data["predicted"])
        self.bench = validate_series_pair(data["actual"], data["benchmark"])
        self.history = data["history"]
        self.first: list[float | str] | None = None

    def op(self, variant: str):
        """One sweep; a result that raises MetricError is its error message."""
        pair, bench, history = self.pair, self.bench, self.history
        calls = [lambda m=m, v=v: registry.evaluate_named(pair, m, FAIL_FAST, v) for m, v in NAMED]
        calls += [lambda m=m: derived.extended(pair, m) for m in EXTENDED]
        calls.append(lambda: derived.coefficient_of_determination(pair))
        calls += [lambda m=m: derived.relative_named(pair, bench, m) for m in RELATIVE]
        calls.append(lambda: derived.mase(pair, history))

        def sweep() -> list[float | str]:
            values = []
            for call in calls:
                try:
                    values.append(call().value)
                except MetricError as exc:
                    values.append(f"raised {type(exc).__name__}: {exc}")
            return values

        return sweep

    def record(self, variant: str, values) -> str | None:
        """Op-level check: every operation returns the first one's values, bit for bit."""
        if self.first is None:
            self.first = values
        elif _key(values) != _key(self.first):
            return "values differ from the first operation's"
        return None

    def check(self, op_errors: dict[str, str]) -> dict[tuple[str, str], str | None]:
        if self.first is None:
            reason = f"no operation returned a result: {op_errors.get('fail')}"
            return {("fail", name): reason for name in self.labels}
        return {("fail", label(abbr, variant)): value if isinstance(value, str) else _check_value(
                    abbr, variant, value, self.data, self.pair, FAIL_FAST)
                for (abbr, variant), value in zip(self.items, self.first)}

    def staged_mismatches(self) -> list[str]:
        if self.first is None:
            return []
        with staged_evaluate():
            values = self.op("fail")()
        return [name for name, a, b in zip(self.labels, _key(values), _key(self.first)) if a != b]

    def ingest_peak_alloc_mb(self) -> float:
        return 0.0

    def input_bytes(self) -> int:
        return self.pair.actuals.nbytes * 3 + self.history.nbytes


class CliWorkload:
    """`metricgrid eval` through cli.main, with the report written to a file."""

    benchmark_col: str | None = None

    def __init__(self, paths: dict[str, str], workdir: str) -> None:
        self.paths = paths
        self.workdir = workdir
        self.first: dict[str, str] = {}
        # the arrays behind the input files; set only after the timed loop,
        # so they do not count in the operation's resident set
        self.data: dict[str, np.ndarray] | None = None

    def _out(self, variant: str, kind: str = "report") -> str:
        return os.path.join(self.workdir, f"{kind}-{variant}.json")

    def op(self, variant: str):
        argv = self.argv(variant) + ["--out", self._out(variant)]
        return lambda: cli.main(argv)

    def record(self, variant: str, code) -> str | None:
        """Op-level check: exit 0 and a report identical to the first under this policy.

        The first report is kept whatever the exit code, so its error
        entries are checked and listed like any other result.
        """
        failures = [] if code == 0 else [f"exit code {code}"]
        try:
            with open(self._out(variant), "rb") as fh:
                report = fh.read()
        except OSError as exc:
            return "; ".join(failures + [f"no report: {exc}"])
        digest = hashlib.sha256(report).hexdigest()
        if variant not in self.first:
            self.first[variant] = digest
            with open(self._out(variant, "first"), "wb") as fh:
                fh.write(report)
        elif digest != self.first[variant]:
            failures.append("report differs from the first report under this policy")
        return "; ".join(failures) or None

    def _first_report(self, variant: str) -> str:
        with open(self._out(variant, "first"), encoding="utf-8") as fh:
            return fh.read()

    def check(self, op_errors: dict[str, str]) -> dict[tuple[str, str], str | None]:
        pair = validate_series_pair(self.data["actual"], self.data["predicted"])
        out = {}
        for variant in self.variants:
            policy = self.policy(variant)
            try:
                report = json.loads(self._first_report(variant), parse_constant=_reject_constant)
                entries = {label(e["name"], e.get("variant")): e for e in report["metrics"]}
            except OSError as exc:
                for name in self.labels:
                    out[(variant, name)] = f"no report: {op_errors.get(variant) or exc}"
                continue
            except (ValueError, KeyError, TypeError) as exc:
                for name in self.labels:
                    out[(variant, name)] = f"report is not a strict-JSON report: {exc}"
                continue
            for name in self.labels:
                abbr, _, var = name.partition(":")
                entry = entries.get(name)
                if entry is None:
                    reason = "missing from the report"
                elif "error" in entry:
                    reason = f"raised {entry['error']['type']}: {entry['error']['message']}"
                else:
                    reason = (_check_value(abbr, var or None, entry["value"], self.data, pair, policy)
                              or self.check_actions(name, entry, variant))
                out[(variant, name)] = reason
        return out

    def check_actions(self, name: str, entry: dict, variant: str) -> str | None:
        return None

    def staged_mismatches(self) -> list[str]:
        """cli.main rerun with every composition evaluated by `staged`; reports must match byte for byte."""
        bad = []
        for variant in self.variants:
            out = self._out(variant, "staged")
            with staged_evaluate():
                cli.main(self.argv(variant) + ["--out", out])
            try:
                with open(out, encoding="utf-8") as fh:
                    same = fh.read() == self._first_report(variant)
            except OSError as exc:
                bad.append(f"{variant}: {exc}")
                continue
            if not same:
                bad.append(f"{variant}: staged report differs from cli.main's report")
        return bad

    def ingest_peak_alloc_mb(self) -> float:
        peak = 0
        tracemalloc.start()
        try:
            cli.ingest(self.paths["input"], None, "actual", "predicted", self.benchmark_col)
            peak = tracemalloc.get_traced_memory()[1]
            if "history" in self.paths:
                tracemalloc.reset_peak()
                cli.load_series(self.paths["history"], "actual")
                peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def input_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.paths.values())


class CsvClean(CliWorkload):
    """100k strictly positive CSV rows, fail policy, a typical mixed selection."""

    name = "csv_clean"
    variants = ("fail",)
    benchmark_col = "benchmark"
    labels = list(CSV_METRICS) + [m for members in CSV_SUITES.values() for m in members]

    def argv(self, variant: str) -> list[str]:
        argv = ["eval", "--input", self.paths["input"], "--benchmark", "benchmark",
                "--in-sample", self.paths["history"], "--metrics", ",".join(CSV_METRICS)]
        for suite in CSV_SUITES:
            argv += ["--suite", suite]
        return argv

    def policy(self, variant: str) -> EvaluationPolicy:
        return FAIL_FAST


class JsonDegenerate(CliWorkload):
    """20k JSON rows with zero actuals and negative predictions, skip vs epsilon."""

    name = "json_degenerate"
    variants = ("skip", "epsilon")
    labels = list(DEGENERATE_METRICS)

    def argv(self, variant: str) -> list[str]:
        argv = ["eval", "--input", self.paths["input"], "--metrics", ",".join(DEGENERATE_METRICS),
                "--on-nonpositive-log", "skip", "--on-zero-denominator", variant]
        if variant == "epsilon":
            argv += ["--epsilon", "smallest-nonzero"]
        return argv

    def policy(self, variant: str) -> EvaluationPolicy:
        return EvaluationPolicy(ZeroDenominatorPolicy(variant), LogRatioPolicy.SKIP, None)

    def check_actions(self, name: str, entry: dict, variant: str) -> str | None:
        """points_skipped and every listed action against the benchmark's own degenerate set.

        The actions list may be shortened (capped) and still pass; an action
        naming a point that is not degenerate, or with the wrong label, fails.
        """
        a, p = self.data["actual"], self.data["predicted"]
        zero = a == 0
        if name in LOG_METRICS:
            degenerate, tag = zero | ((a > 0) != (p > 0)), SKIP_LOG
            skipped = int(degenerate.sum())
        elif name in ZERO_DENOMINATOR_METRICS:
            degenerate = zero
            tag = SKIP_ZERO if variant == "skip" else EPSILON
            skipped = int(zero.sum()) if variant == "skip" else 0
        else:
            degenerate, tag, skipped = np.zeros(a.size, dtype=bool), None, 0
        if entry["points_skipped"] != skipped:
            return f"points_skipped {entry['points_skipped']}, expected {skipped}"
        indices = [x["index"] for x in entry["actions"]]
        if len(set(indices)) != len(indices):
            return "an index is listed twice in actions"
        for x in entry["actions"]:
            i = x["index"]
            if not (0 <= i < a.size and degenerate[i] and x["action"] == tag):
                return f"action {x} names a point that is not degenerate or has the wrong label"
        return None


WORKLOADS = {"csv_clean": CsvClean, "catalog_sweep": CatalogSweep, "json_degenerate": JsonDegenerate}
