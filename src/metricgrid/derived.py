"""Metrics built on top of other metrics, and the one evaluator of a named metric.

The whole-series normalizations (NRMSE family, NMSE) and the benchmark-
and history-relative composites (RMAE, RelRMSE, LMR, RGRMSE, MASE, CoD)
are ``registry.DerivedRecipe`` data; the functions here are named entry
points to them, plus named metric suites.  Every route to a catalog name
resolves it once: one ``registry.lookup``, one ``registry.check``, and
then ``evaluate_spec`` evaluates what the check returned, the composition
through ``evaluate`` or the recipe through ``registry.evaluate_recipe``.
``evaluate_metric`` and the named entry points check one name.  A
selection of names, suites and variant overrides is resolved by
``selection_plan``, which raises every configuration error before any
data is touched; ``evaluate_suite`` and ``metricgrid eval`` both run
it and hand each planned spec to ``evaluate_spec``.  Only
``relative_metric``, whose recipe is built from its arguments rather
than named, evaluates a recipe itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import registry
from .errors import MetricError, UnknownSuite, UnknownVariant, ValidationError
from .evaluator import evaluate
from .types import EvaluationPolicy, FAIL_FAST, MetricResult, SeriesPair


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
    if defn.category is not registry.Category.EXTENDED:
        raise ValidationError(f"{name!r} is not an extended whole-series metric")
    return evaluate_spec(pair, registry.check(defn), policy)[0]


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
    return evaluate_metric(pair, "MASE", policy, in_sample=in_sample)[0]


def coefficient_of_determination(
    pair: SeriesPair,
    policy: EvaluationPolicy = FAIL_FAST,
) -> MetricResult:
    """1 - SSE / total sum of squares; 1 is perfect, 0 matches the mean."""
    return evaluate_metric(pair, "CoD", policy)[0]


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


def _relative(recipe: registry.DerivedRecipe, outcome: tuple[MetricResult, float, float]) -> RelativeResult:
    """The comparison behind a benchmark recipe's ``evaluate_recipe`` outcome."""
    result, candidate, bench = outcome
    interpretation = _interpret_ratio(candidate / bench, recipe.base)
    return RelativeResult(recipe.base, recipe.combine, result.value, candidate, bench, interpretation)


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
    if form not in ("ratio", "log-ratio"):
        raise ValidationError(f"unknown relative form {form!r}")
    defn = registry.lookup(base)
    if defn.composition is None:
        raise ValidationError(f"relative base must be a composed metric, got {base!r}")
    recipe = registry.DerivedRecipe(defn.abbreviation, registry.BENCHMARK_BASE, form)
    return _relative(recipe, registry.evaluate_recipe(pair, recipe, policy, benchmark))


def relative_named(
    pair: SeriesPair,
    benchmark: SeriesPair,
    name: str,
    policy: EvaluationPolicy = FAIL_FAST,
) -> RelativeResult:
    """Evaluate RMAE, RelRMSE, LMR or RGRMSE by catalog name."""
    defn = registry.lookup(name)
    if defn.requires != "benchmark":
        raise ValidationError(f"{name!r} is not a benchmark-relative metric")
    spec = registry.check(defn, None, benchmark is not None)
    return evaluate_spec(pair, spec, policy, benchmark)[1]


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
    spec = registry.check(defn, variant, benchmark is not None, in_sample is not None)
    return evaluate_spec(pair, spec, policy, benchmark, in_sample)


def evaluate_spec(
    pair: SeriesPair,
    spec: registry.MetricDefinition | registry.Variant,
    policy: EvaluationPolicy = FAIL_FAST,
    benchmark: SeriesPair | None = None,
    in_sample: np.ndarray | None = None,
) -> tuple[MetricResult, RelativeResult | None]:
    """Evaluate what ``registry.check`` returned for a catalog name.

    The composition runs through the pipeline, a recipe through
    ``registry.evaluate_recipe``; a recipe whose statistic requires a
    benchmark also gives its RelativeResult.  No lookup and no check.
    """
    if spec.recipe is None:
        return evaluate(pair, spec.composition, policy), None
    outcome = registry.evaluate_recipe(pair, spec.recipe, policy, benchmark, in_sample)
    rel = _relative(spec.recipe, outcome) if spec.recipe.statistic.requires == "benchmark" else None
    return outcome[0], rel


def selection_plan(
    metrics: Sequence[str] = (),
    suites: Sequence[SuiteDefinition | str] = (),
    variants: Mapping[str, str | None] | None = None,
    extra_suites: dict[str, SuiteDefinition] | None = None,
    have_benchmark: bool = False,
    have_in_sample: bool = False,
) -> list[tuple[str, str | None, registry.MetricDefinition | registry.Variant]]:
    """Resolve and check a selection of catalog metrics before any data.

    ``suites`` are names, among the built-ins and ``extra_suites``, or
    ``SuiteDefinition``s.  Returns (label, variant, spec) entries: the
    metrics, then each suite's members, each entry once, at its first
    position.  Each name given is looked up once, each entry checked once,
    and its spec is what ``registry.check`` returned, so an unknown name,
    a stub, an unknown variant or a missing input raises here.  The last
    ``variants`` key naming a metric sets its variant (None: the default),
    which must exist even if the metric is not selected; a suite member
    that pins its own (``NAME:VARIANT``) keeps it.
    """
    plan: dict[tuple[str, str | None], registry.MetricDefinition | registry.Variant] = {}
    overrides: dict[str, tuple[registry.MetricDefinition, str | None]] = {}
    for name, variant in (variants or {}).items():
        defn = registry.lookup(name)
        overrides[defn.abbreviation] = defn, variant
    for defn, variant in overrides.values():
        if variant is not None and variant not in defn.variants:
            raise UnknownVariant(defn.abbreviation, variant, tuple(defn.variants))

    def add(name: str, variant: str | None) -> None:
        defn = registry.lookup(name)
        if variant is None and defn.abbreviation in overrides:
            variant = overrides[defn.abbreviation][1]
        if (defn.abbreviation, variant) not in plan:
            plan[defn.abbreviation, variant] = registry.check(defn, variant, have_benchmark, have_in_sample)

    for name in metrics:
        add(name, None)
    for suite in suites:
        if isinstance(suite, str):
            suite = get_suite(suite, extra_suites)
        for member in suite.members:
            abbr, _, variant = member.partition(":")
            add(abbr, variant or None)
    return [(label, variant, spec) for (label, variant), spec in plan.items()]


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


def evaluate_suite(
    pair: SeriesPair,
    suite: SuiteDefinition | str,
    policy: EvaluationPolicy = FAIL_FAST,
    benchmark: SeriesPair | None = None,
    in_sample: np.ndarray | None = None,
    extra_suites: dict[str, SuiteDefinition] | None = None,
) -> SuiteResult:
    """Evaluate every member of a suite, embedding evaluation errors.

    The members are planned by ``selection_plan``, so a configuration
    error (an unknown member, a stub, an unknown variant, a missing
    ``benchmark`` or ``in_sample``) raises before any data is touched,
    and a member named twice runs once, at its first position.  An
    evaluation error is carried by its entry; the rest still evaluate.
    """
    if isinstance(suite, str):
        suite = get_suite(suite, extra_suites)
    plan = selection_plan(suites=[suite], have_benchmark=benchmark is not None,
                          have_in_sample=in_sample is not None)
    entries = []
    for label, variant, spec in plan:
        try:
            result, _ = evaluate_spec(pair, spec, policy, benchmark, in_sample)
            entries.append(SuiteEntry(label, variant, result, None))
        except MetricError as exc:
            entries.append(SuiteEntry(label, variant, None, f"{type(exc).__name__}: {exc}"))
    return SuiteResult(suite.name, tuple(entries))
