"""Metrics built on top of other metrics, and the one route to any named metric.

Three families live here: whole-series normalizations of RMSE/MSE, the
benchmark- and history-relative composites (RMAE, RelRMSE, LMR, RGRMSE,
MASE, CoD), and named metric suites.  Base values are computed through
the composition pipeline, not the closed forms in ``formulas``, so the
two routes stay independently checkable.  ``evaluate_metric``, which
suites and the command line call, is the one route from a catalog name to
a value: ``registry.check``, then the evaluator of the metric's family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import registry
from .errors import (
    BenchmarkMismatch,
    InsufficientData,
    LogDomain,
    MetricError,
    UnknownSuite,
    ValidationError,
    ZeroDenominator,
)
from .evaluator import evaluate
from .types import (
    NEAR_ZERO,
    BenchmarkInput,
    Dimension,
    EvaluationPolicy,
    FAIL_FAST,
    MetricResult,
    SeriesPair,
)

# composite abbreviation -> (pipeline base metric, ratio form)
RELATIVE_FORMS = {
    "RMAE": ("MAE", "ratio"),
    "RelRMSE": ("RMSE", "ratio"),
    "LMR": ("RMSE", "log-ratio"),
    "RGRMSE": ("GRMSE", "ratio"),
}


def _pipeline_value(pair: SeriesPair, abbreviation: str, policy: EvaluationPolicy) -> float:
    comp = registry.lookup(abbreviation).composition
    assert comp is not None, f"{abbreviation} has no composition"
    return evaluate(pair, comp, policy).value


def extended(
    pair: SeriesPair,
    name: str,
    policy: EvaluationPolicy = FAIL_FAST,
) -> MetricResult:
    """Evaluate a whole-series-normalized metric (NRMSE family, NMSE).

    The numerator comes from the composition pipeline; the denominator is
    a statistic of the actual series.  Constant actuals make the sd, range
    and variance denominators zero, which always fails: there is no
    per-point policy to apply.
    """
    defn = registry.lookup(name)
    key = defn.abbreviation
    if defn.category is not registry.Category.EXTENDED:
        raise ValidationError(f"{name!r} is not an extended whole-series metric")
    a = pair.actuals
    if key in ("NRMSE_sd", "NMSE") and pair.n < 2:
        raise InsufficientData(f"{key} needs at least 2 points")
    if key == "NRMSE_m":
        den = float(np.mean(a))
        if abs(den) < NEAR_ZERO:
            raise ZeroDenominator(message="mean of actuals is zero")
    elif key == "NRMSE_sd":
        den = float(np.std(a, ddof=1))
        if den < NEAR_ZERO:
            raise ZeroDenominator(message="standard deviation of actuals is zero")
    elif key == "NRMSE_mm":
        den = float(np.max(a) - np.min(a))
        if den < NEAR_ZERO:
            raise ZeroDenominator(message="range of actuals is zero")
    else:
        den = float(np.var(a, ddof=1))
        if den < NEAR_ZERO:
            raise ZeroDenominator(message="variance of actuals is zero")
    base = "MSE" if key == "NMSE" else "RMSE"
    numerator = _pipeline_value(pair, base, policy)
    return MetricResult(numerator / den, Dimension.DIMENSIONLESS, pair.n, 0, ())


def mase(
    pair: SeriesPair,
    in_sample: np.ndarray,
    policy: EvaluationPolicy = FAIL_FAST,
) -> MetricResult:
    """Mean absolute scaled error.

    ``in_sample`` is the training history; its mean absolute one-step
    change is the scale.  The evaluation window never contributes to the
    scale, so out-of-sample errors cannot shrink it.
    """
    in_sample = np.asarray(in_sample, dtype=float)
    if in_sample.ndim != 1 or in_sample.size < 2:
        raise InsufficientData("in-sample history needs at least 2 points")
    if not np.isfinite(in_sample).all():
        raise ValidationError("in-sample history contains non-finite values")
    scale = float(np.mean(np.abs(np.diff(in_sample))))
    if scale < NEAR_ZERO:
        raise ZeroDenominator(message="in-sample history is constant: naive scale is zero")
    value = _pipeline_value(pair, "MAE", policy) / scale
    return MetricResult(value, Dimension.DIMENSIONLESS, pair.n, 0, ())


def coefficient_of_determination(
    pair: SeriesPair,
    policy: EvaluationPolicy = FAIL_FAST,
) -> MetricResult:
    """1 - SSE / total sum of squares; 1 is perfect, 0 matches the mean."""
    if pair.n < 2:
        raise InsufficientData("coefficient of determination needs at least 2 points")
    tss = float(np.sum((pair.actuals - np.mean(pair.actuals)) ** 2))
    if tss < NEAR_ZERO:
        raise ZeroDenominator(message="actuals are constant: total sum of squares is zero")
    value = 1.0 - _pipeline_value(pair, "SSE", policy) / tss
    return MetricResult(value, Dimension.DIMENSIONLESS, pair.n, 0, ())


@dataclass(frozen=True)
class RelativeResult:
    """A candidate-vs-benchmark comparison on a shared base metric."""

    base: str
    form: str                    # "ratio" or "log-ratio"
    value: float
    candidate: float
    benchmark: float
    interpretation: str


def _interpret_ratio(ratio: float, base: str) -> str:
    if ratio == 1.0:
        return f"candidate and benchmark have equal {base}"
    pct = abs(ratio - 1.0) * 100.0
    direction = "higher" if ratio > 1.0 else "lower"
    return f"candidate {base} errors are {pct:.6g}% {direction} than the benchmark's"


def relative_metric(
    pair: SeriesPair,
    benchmark: SeriesPair,
    base: str = "MAE",
    form: str = "ratio",
    policy: EvaluationPolicy = FAIL_FAST,
) -> RelativeResult:
    """Ratio (or log ratio) of a base metric between candidate and benchmark.

    Both pairs must predict the same actuals.  A ratio of 1.2 on a
    geometric-mean base reads as: on average, candidate errors run 20%
    higher than the benchmark's.  Identical predictions give exactly 1
    (ratio) or exactly 0 (log ratio).
    """
    if not np.array_equal(pair.actuals, benchmark.actuals):
        raise BenchmarkMismatch()
    if form not in ("ratio", "log-ratio"):
        raise ValidationError(f"unknown relative form {form!r}")
    defn = registry.lookup(base)
    if defn.composition is None:
        raise ValidationError(f"relative base must be a composed metric, got {base!r}")
    candidate = evaluate(pair, defn.composition, policy).value
    bench = evaluate(benchmark, defn.composition, policy).value
    if abs(bench) < NEAR_ZERO:
        raise ZeroDenominator(message=f"benchmark {defn.abbreviation} is zero")
    ratio = candidate / bench
    if form == "log-ratio" and ratio <= 0:
        raise LogDomain(ratio)
    value = float(np.log(ratio)) if form == "log-ratio" else ratio
    return RelativeResult(
        base=defn.abbreviation,
        form=form,
        value=value,
        candidate=candidate,
        benchmark=bench,
        interpretation=_interpret_ratio(ratio, defn.abbreviation),
    )


def relative_named(
    pair: SeriesPair,
    benchmark: SeriesPair,
    name: str,
    policy: EvaluationPolicy = FAIL_FAST,
) -> RelativeResult:
    """Evaluate RMAE, RelRMSE, LMR or RGRMSE by catalog name."""
    key = registry.lookup(name).abbreviation
    if key not in RELATIVE_FORMS:
        raise ValidationError(f"{name!r} is not a benchmark-relative metric")
    base, form = RELATIVE_FORMS[key]
    return relative_metric(pair, benchmark, base, form, policy)


def evaluate_metric(
    pair: SeriesPair,
    name: str,
    policy: EvaluationPolicy = FAIL_FAST,
    variant: str | None = None,
    benchmark: SeriesPair | None = None,
    in_sample: np.ndarray | None = None,
) -> tuple[MetricResult, RelativeResult | None]:
    """Evaluate any implemented catalog metric by name.

    ``benchmark`` is a second prediction of the same actuals, needed by
    the benchmark-relative metrics; ``in_sample`` is the history that
    scales MASE.  Configuration errors (stub, unknown variant, missing
    input) raise before any data is touched.  The RelativeResult is
    returned for benchmark-relative metrics and is None otherwise.
    """
    defn = registry.lookup(name)
    registry.check(defn, variant, benchmark is not None, in_sample is not None)
    abbr = defn.abbreviation
    if defn.requires == "benchmark":
        rel = relative_named(pair, benchmark, abbr, policy)
        return MetricResult(rel.value, Dimension.DIMENSIONLESS, pair.n, 0, ()), rel
    if defn.requires == "in-sample history":
        return mase(pair, in_sample, policy), None
    if defn.category is registry.Category.EXTENDED:
        return extended(pair, abbr, policy), None
    if abbr == "CoD":
        return coefficient_of_determination(pair, policy), None
    return registry.evaluate_named(pair, abbr, policy, variant), None


# --- suites ---------------------------------------------------------------


@dataclass(frozen=True)
class SuiteDefinition:
    """A named bundle of metrics reported together."""

    name: str
    members: tuple[str, ...]     # "ABBR" or "ABBR:variant"
    rationale: str = ""

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError(f"suite {self.name!r} has no members")


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    variant: str | None
    result: MetricResult | None
    error: str | None


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    entries: tuple[SuiteEntry, ...]

    @property
    def failed(self) -> bool:
        return any(e.error is not None for e in self.entries)


BUILTIN_SUITES: dict[str, SuiteDefinition] = {
    s.name: s
    for s in (
        SuiteDefinition(
            "bias-accuracy",
            ("ME", "MAE", "RMSE"),
            "signed bias next to absolute and squared accuracy, all on the data scale",
        ),
        SuiteDefinition(
            "log-symmetric",
            ("MdLAR", "MdSA"),
            "signed log-ratio bias with a robust symmetric accuracy percentage",
        ),
        SuiteDefinition(
            "percentage",
            ("MAPE", "MdAPE", "sMAPE"),
            "percentage errors: the standard, outlier-robust and symmetric forms",
        ),
    )
}


def get_suite(name: str, extra: dict[str, SuiteDefinition] | None = None) -> SuiteDefinition:
    pool = dict(BUILTIN_SUITES)
    if extra:
        pool.update(extra)
    if name not in pool:
        raise UnknownSuite(name, tuple(sorted(pool)))
    return pool[name]


def _evaluate_member(
    pair: SeriesPair,
    member: str,
    aux: BenchmarkInput | None,
    policy: EvaluationPolicy,
) -> SuiteEntry:
    abbr, _, variant = member.partition(":")
    variant = variant or None
    benchmark = aux.benchmark_pair if aux is not None else None
    in_sample = aux.in_sample if aux is not None else None
    try:
        name = registry.lookup(abbr).abbreviation
        result, _ = evaluate_metric(pair, name, policy, variant, benchmark, in_sample)
        return SuiteEntry(name, variant, result, None)
    except MetricError as exc:
        return SuiteEntry(abbr, variant, None, f"{type(exc).__name__}: {exc}")


def evaluate_suite(
    pair: SeriesPair,
    suite: SuiteDefinition | str,
    aux: BenchmarkInput | None = None,
    policy: EvaluationPolicy = FAIL_FAST,
    extra_suites: dict[str, SuiteDefinition] | None = None,
) -> SuiteResult:
    """Evaluate every member of a suite, embedding per-member failures.

    One bad member never aborts the rest: its entry carries the error
    text and the remaining members still evaluate.  Entries come back in
    member order.
    """
    if isinstance(suite, str):
        suite = get_suite(suite, extra_suites)
    entries = tuple(_evaluate_member(pair, m, aux, policy) for m in suite.members)
    return SuiteResult(suite.name, entries)
