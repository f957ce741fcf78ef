"""Metric catalog: named definitions binding recipes to formulas.

Every implemented metric is data.  A primary metric is a composition run
through the pipeline in ``evaluator``; an extended or composite metric,
and a ratio-of-sums variant, is a ``DerivedRecipe``: a composed base
metric combined with one whole-series ``Statistic``, evaluated by
``evaluate_recipe``.  The closed forms in ``formulas`` are the
independent oracle the tests hold both to (``direct_formula``); no
evaluation route runs them.  Variants are data on the definition.  Lookup
is case-insensitive, knows the common alias names, and suggests near
misses.  ``check`` holds every up-front configuration check for a named
metric; ``evaluate_named`` evaluates primary metrics only, and
``derived.evaluate_metric`` every catalog name.
"""

from __future__ import annotations

import difflib
import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable

import numpy as np

from . import formulas
from .errors import (
    BenchmarkMismatch, InsufficientData, LogDomain, MissingBenchmark, RangeOverflow, RequiresBenchmark,
    UnimplementedMetric, UnknownMetric, UnknownVariant, ValidationError, ZeroDenominator,
)
from .evaluator import apply_post, dimension_of, evaluate, point_distances  # noqa: F401  (perfbench wraps it)
from .types import (
    NEAR_ZERO, AggKind, Cell, Dimension, Distance, EvaluationPolicy, FAIL_FAST, GEOMETRIC_MEAN, MAXIMUM,
    MEDIAN, MetricComposition, MetricResult, NormalizerSpec, NormKind, PERCENT_SCALE, PointTransform,
    PostTransform, SQRT, SUM, SYMMETRIC_ACCURACY, SeriesPair,
)

DirectFn = Callable[[np.ndarray, np.ndarray, EvaluationPolicy, "str | None"], float]


class Category(Enum):
    PRIMARY = "primary"
    EXTENDED = "extended"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class Statistic:
    """A whole-series statistic: the denominator of a derived recipe.

    ``of`` maps the actuals, or the input the statistic ``requires``
    ("in-sample history"), to the statistic; it needs ``min_points``
    points, else ``too_few`` is the error.  The statistic that requires a
    "benchmark" has no ``of``: it is the recipe's base metric, ``{base}``
    in its texts, on the benchmark pair.
    """

    name: str
    of: Callable[[np.ndarray], float] | None
    min_points: int = 1
    too_few: str = ""
    zero: str = ""               # the error for a zero statistic; default "<name> is zero"
    requires: str | None = None


MEAN_OF_ACTUALS = Statistic("mean of actuals", np.mean)
SD_OF_ACTUALS = Statistic("standard deviation of actuals", lambda a: np.std(a, ddof=1),
                          2, "NRMSE_sd needs at least 2 points")
RANGE_OF_ACTUALS = Statistic("range of actuals", lambda a: np.max(a) - np.min(a))
VARIANCE_OF_ACTUALS = Statistic("variance of actuals", lambda a: np.var(a, ddof=1),
                                2, "NMSE needs at least 2 points")
# |x| and x^2 are taken in place, on the statistic's one point-length array
ABS_DEVIATION_SUM = Statistic("sum of |A - mean(A)|", lambda a: np.sum(np.abs(d := a - np.mean(a), out=d)))
N_ABS_DEVIATION_SUM = Statistic("n times the sum of |A - mean(A)|",
                                lambda a: a.size * ABS_DEVIATION_SUM.of(a),
                                zero="sum of |A - mean(A)| is zero")
SQUARED_DEVIATION_SUM = Statistic("sum of (A - mean(A))^2",
                                  lambda a: np.sum(np.square(d := a - np.mean(a), out=d)))
TOTAL_SUM_OF_SQUARES = replace(SQUARED_DEVIATION_SUM, min_points=2,
                               too_few="coefficient of determination needs at least 2 points",
                               zero="actuals are constant: total sum of squares is zero")
NAIVE_SCALE = Statistic("naive scale of the in-sample history",
                        lambda h: np.mean(np.abs(d := np.diff(h), out=d)), 2,
                        "in-sample history needs at least 2 points", requires="in-sample history",
                        zero="in-sample history is constant: naive scale is zero")
BENCHMARK_BASE = Statistic("benchmark {base}", None, requires="benchmark")


@dataclass(frozen=True)
class DerivedRecipe:
    """``combine(base metric on the pair, statistic)``, then ``post``.

    ``base`` names a composed catalog metric.  ``combine`` is "ratio",
    "1-ratio" or "log-ratio"; ``post`` an optional transform of the result.
    """

    base: str
    statistic: Statistic
    combine: str = "ratio"
    post: PostTransform | None = None


@dataclass(frozen=True)
class Variant:
    """How one named variant of a metric is computed.

    Either ``composition`` or ``recipe`` is set; ``kwargs`` are the keyword
    arguments that select the variant in the closed form.
    """

    composition: MetricComposition | None
    kwargs: dict[str, Any] = field(default_factory=dict)
    recipe: DerivedRecipe | None = None


@dataclass(frozen=True)
class MetricDefinition:
    """One catalog entry.

    An implemented metric has a ``composition`` (primary metrics) or a
    ``recipe`` (extended and composite metrics).  ``formula``, the closed
    form, is None for stubs and for metrics needing external inputs.
    ``cell`` is normally the composition's cell; a pinned cell that
    differs from it is where the chart prints the metric "as printed",
    and None sends it to the chart's annex, as ``charted`` False does.
    """

    abbreviation: str
    full_name: str
    category: Category
    composition: MetricComposition | None = None
    formula: Callable[..., float] | None = None
    aliases: tuple[str, ...] = ()
    variants: dict[str, Variant] = field(default_factory=dict, hash=False)
    cell: Cell | None = None
    chart_aka: tuple[str, ...] = ()
    charted: bool = True
    recipe: DerivedRecipe | None = None
    notes: str = ""
    stub_reason: str | None = None

    @property
    def implemented(self) -> bool:
        return self.stub_reason is None

    @property
    def dimension(self) -> Dimension:
        """Unit class of the value; a recipe's ratio is dimensionless."""
        return Dimension.DIMENSIONLESS if self.composition is None else dimension_of(self.composition)

    @property
    def requires(self) -> str | None:
        """What the metric needs beyond the pair: "benchmark", "in-sample history" or None."""
        return self.recipe.statistic.requires if self.recipe else None

    @property
    def direct(self) -> DirectFn | None:
        """The closed form as ``direct(a, p, policy, variant)``; None without one."""
        return None if self.formula is None else self._direct

    def _direct(self, a, p, policy: EvaluationPolicy = FAIL_FAST, variant: str | None = None) -> float:
        kwargs = {} if variant is None else self.variants[variant].kwargs
        return self.formula(a, p, policy, **kwargs)

    def to_record(self) -> dict[str, Any]:
        cell = None
        if self.cell is not None:
            d, n, g = self.cell
            cell = {"distance": d.value, "normalizer": n.value, "aggregator": g.value}
        record: dict[str, Any] = {
            "abbreviation": self.abbreviation,
            "name": self.full_name,
            "category": self.category.value,
            "cell": cell,
            "dimension": self.dimension.value,
            "variants": list(self.variants),
            "aliases": list(self.aliases),
            "implemented": self.implemented,
        }
        if self.requires:
            record["requires"] = self.requires
        if self.notes:
            record["notes"] = self.notes
        if self.stub_reason:
            record["reason"] = self.stub_reason
        return record


def _options(option2: DerivedRecipe) -> Callable[[MetricComposition], dict[str, Variant]]:
    # option1 is the per-point composition; option2, the ratio of sums, is a recipe
    return lambda comp: {"option1": Variant(comp), "option2": Variant(None, {"option": 2}, option2)}


def _absolute(comp: MetricComposition) -> dict[str, Variant]:
    absolute = replace(comp, normalizer=replace(comp.normalizer, absolute=True))
    return {"absolute": Variant(absolute, {"variant": "absolute"})}


def _conventional(comp: MetricComposition) -> dict[str, Variant]:
    # the root is taken before scaling to percent
    conventional = replace(comp, post=(SQRT, PERCENT_SCALE))
    return {"conventional": Variant(conventional, {"variant": "conventional"})}


def _primary(abbr: str, name: str, comp: MetricComposition, formula: Callable[..., float],
             variants: Callable[[MetricComposition], dict[str, Variant]] | None = None,
             **kw) -> MetricDefinition:
    kw.setdefault("cell", comp.cell)
    if variants is not None:
        kw["variants"] = variants(comp)
    return MetricDefinition(abbr, name, Category.PRIMARY, comp, formula, **kw)


def _build_catalog() -> dict[str, MetricDefinition]:
    defs: list[MetricDefinition] = []

    # signed error
    defs.append(_primary(
        "ME", "Mean Error", MetricComposition(Distance.ERROR), formulas.me,
        aliases=("MBE",), chart_aka=("MBE", "bias"),
        notes="signed errors cancel; a small value does not imply small errors",
    ))
    defs.append(_primary(
        "MD", "Manhattan Distance", MetricComposition(Distance.ERROR, aggregator=SUM), formulas.md,
        notes="sum of signed errors, so opposite-sign errors cancel",
    ))
    defs.append(_primary(
        "MNB", "Mean Normalized Bias",
        MetricComposition(Distance.ERROR, NormalizerSpec(NormKind.BY_ACTUALS)), formulas.mnb,
    ))
    defs.append(_primary(
        "MPE", "Mean Percentage Error",
        MetricComposition(Distance.ERROR, NormalizerSpec(NormKind.BY_ACTUALS), post=(PERCENT_SCALE,)),
        formulas.mpe,
    ))
    defs.append(_primary(
        "FB", "Fractional Bias",
        MetricComposition(Distance.ERROR, NormalizerSpec(NormKind.BY_SUM, factor=2.0)), formulas.fb,
    ))

    # absolute error
    defs.append(_primary(
        "MAE", "Mean Absolute Error", MetricComposition(Distance.ABSOLUTE_ERROR), formulas.mae,
        aliases=("MAD", "MAGE", "MCD"), chart_aka=("MAD",),
    ))
    defs.append(_primary(
        "MdAE", "Median Absolute Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, aggregator=MEDIAN), formulas.mdae,
    ))
    defs.append(_primary(
        "MaxAE", "Maximum Absolute Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, aggregator=MAXIMUM), formulas.maxae,
        notes="uses the maximum aggregator, outside the four core aggregators",
    ))
    defs.append(_primary(
        "SAD", "Sum of Absolute Differences",
        MetricComposition(Distance.ABSOLUTE_ERROR, aggregator=SUM), formulas.sad,
    ))
    defs.append(_primary(
        "GMAE", "Geometric Mean Absolute Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, aggregator=GEOMETRIC_MEAN), formulas.gmae,
        notes="undefined when any error is zero; never silently returns 0",
    ))
    defs.append(_primary(
        "MARE", "Mean Absolute Relative Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True)),
        formulas.mare, aliases=("MMRE",),
    ))
    defs.append(_primary(
        "MAPE", "Mean Absolute Percentage Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True),
                          post=(PERCENT_SCALE,)),
        formulas.mape,
    ))
    defs.append(_primary(
        "MdAPE", "Median Absolute Percentage Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True),
              aggregator=MEDIAN, post=(PERCENT_SCALE,)),
        formulas.mdape,
    ))
    defs.append(_primary(
        "MRAE", "Mean Relative Absolute Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_VARIABILITY, absolute=True)),
        formulas.mrae, _options(DerivedRecipe("SAD", N_ABS_DEVIATION_SUM)),
        notes="option2 divides the error sum by n times the deviation sum",
    ))
    defs.append(_primary(
        "MdRAE", "Median Relative Absolute Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_VARIABILITY, absolute=True),
                          aggregator=MEDIAN),
        formulas.mdrae,
    ))
    defs.append(_primary(
        "GMRAE", "Geometric Mean Relative Absolute Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_VARIABILITY, absolute=True),
              aggregator=GEOMETRIC_MEAN),
        formulas.gmrae, lambda comp: {"root-product": Variant(comp, {"form": "root-product"})},
        notes="root-product form is algebraically identical to the mean-log form",
    ))
    defs.append(_primary(
        "RAE", "Relative Absolute Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_VARIABILITY, absolute=True),
                          aggregator=SUM),
        formulas.rae, _options(DerivedRecipe("SAD", ABS_DEVIATION_SUM)),
        notes="option2 is the ratio of sums rather than the sum of ratios",
    ))
    defs.append(_primary(
        "FAE", "Fractional Absolute Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_SUM, factor=2.0)),
        formulas.fae, _absolute,
    ))
    defs.append(_primary(
        "sMAPE", "Symmetric Mean Absolute Percentage Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_SUM, factor=2.0),
                          post=(PERCENT_SCALE,)),
        formulas.smape,
        lambda comp: {**_absolute(comp), "mean-denominator": Variant(comp, {"variant": "mean-denominator"})},
        notes="mean-denominator variant divides by (A+P)/2, the same quantity",
    ))
    defs.append(_primary(
        "sMdAPE", "Symmetric Median Absolute Percentage Error",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_SUM, factor=2.0),
              aggregator=MEDIAN, post=(PERCENT_SCALE,)),
        formulas.smdape, _absolute,
    ))
    defs.append(_primary(
        "CM", "Canberra Metric",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_SUM), aggregator=SUM),
        formulas.cm, _absolute,
    ))
    defs.append(_primary(
        "WHD", "Wave Hedges Distance",
        MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_MAX), aggregator=SUM),
        formulas.whd,
    ))

    # squared error
    defs.append(_primary(
        "MSE", "Mean Squared Error", MetricComposition(Distance.SQUARED_ERROR), formulas.mse,
    ))
    defs.append(_primary(
        "RMSE", "Root Mean Squared Error",
        MetricComposition(Distance.SQUARED_ERROR, post=(SQRT,)), formulas.rmse,
    ))
    defs.append(_primary(
        "SSE", "Sum of Squared Errors",
        MetricComposition(Distance.SQUARED_ERROR, aggregator=SUM), formulas.sse,
    ))
    defs.append(_primary(
        "ED", "Euclidean Distance",
        MetricComposition(Distance.SQUARED_ERROR, aggregator=SUM, post=(SQRT,)), formulas.ed,
    ))
    defs.append(_primary(
        "GRMSE", "Geometric Root Mean Squared Error",
        MetricComposition(Distance.SQUARED_ERROR, aggregator=GEOMETRIC_MEAN, post=(SQRT,)),
        formulas.grmse,
    ))
    defs.append(_primary(
        "MSPE", "Mean Square Percentage Error",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, exponent=2),
                          post=(PERCENT_SCALE,)),
        formulas.mspe,
    ))
    defs.append(_primary(
        "RMSPE", "Root Mean Square Percentage Error",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, exponent=2),
              post=(PERCENT_SCALE, SQRT)),
        formulas.rmspe, _conventional,
        notes="conventional variant takes the root before scaling to percent",
    ))
    defs.append(_primary(
        "MdSPE", "Median Square Percentage Error",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, exponent=2),
              aggregator=MEDIAN, post=(PERCENT_SCALE,)),
        formulas.mdspe,
    ))
    defs.append(_primary(
        "RMdSPE", "Root Median Square Percentage Error",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, exponent=2),
              aggregator=MEDIAN, post=(PERCENT_SCALE, SQRT)),
        formulas.rmdspe, _conventional,
    ))
    defs.append(_primary(
        "NCSD", "Neyman Chi-Square Distance",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_ACTUALS), aggregator=SUM),
        formulas.ncsd,
    ))
    defs.append(_primary(
        "RSE", "Relative Squared Error",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_VARIABILITY, exponent=2),
                          aggregator=SUM),
        formulas.rse, _options(DerivedRecipe("SSE", SQUARED_DEVIATION_SUM)),
    ))
    defs.append(_primary(
        "RRSE", "Root Relative Squared Error",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_VARIABILITY, exponent=2),
              aggregator=SUM, post=(SQRT,)),
        formulas.rrse, _options(DerivedRecipe("SSE", SQUARED_DEVIATION_SUM, post=SQRT)),
    ))
    defs.append(_primary(
        "SquD", "Squared Chi-Square Distance",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_SUM), aggregator=SUM),
        formulas.squd,
    ))
    defs.append(_primary(
        "DivD", "Divergence Distance",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_SUM, exponent=2, factor=2.0),
                          aggregator=SUM),
        formulas.divd,
    ))
    defs.append(_primary(
        "VSD", "Vicis Symmetric Distance",
        MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_MIN), aggregator=SUM),
        formulas.vsd,
    ))

    # log quotient
    defs.append(_primary(
        "MdLAR", "Median Log Accuracy Ratio",
        MetricComposition(Distance.LOG_QUOTIENT, aggregator=MEDIAN), formulas.mdlar,
    ))
    defs.append(_primary(
        "KLD", "Kullback-Leibler Divergence",
        MetricComposition(Distance.LOG_QUOTIENT, aggregator=SUM, transform=PointTransform.TIMES_PREDICTED),
        formulas.kld, cell=(Distance.LOG_QUOTIENT, NormKind.BY_ACTUALS, AggKind.SUM),
        notes="weights each log ratio by the predicted value, so it is charted "
              "at its conventional cell rather than composed from it",
    ))
    defs.append(_primary(
        "JD", "Jeffreys Divergence",
        MetricComposition(Distance.LOG_QUOTIENT, aggregator=SUM, transform=PointTransform.TIMES_DIFFERENCE),
        formulas.jd, cell=None,
        notes="weights each log ratio by (P - A); has no core-grid cell",
    ))

    # absolute log quotient (factor family)
    defs.append(_primary(
        "MNAFE", "Mean Normalized Absolute Factor Error",
        MetricComposition(Distance.ABS_LOG_QUOTIENT, transform=PointTransform.EXP_MINUS_ONE),
        formulas.mnafe,
    ))
    defs.append(_primary(
        "MNFB", "Mean Normalized Factor Bias",
        MetricComposition(Distance.ABS_LOG_QUOTIENT, transform=PointTransform.SIGNED_EXP_MINUS_ONE),
        formulas.mnfb, charted=False,
        notes="sign-weighted factor error; left out of the core grid because "
              "of the extra sign factor",
    ))
    defs.append(_primary(
        "MdSA", "Median Symmetric Accuracy",
        MetricComposition(Distance.ABS_LOG_QUOTIENT, aggregator=MEDIAN, post=(SYMMETRIC_ACCURACY,)),
        formulas.mdsa,
    ))

    # extended: whole-series normalizations of RMSE and MSE
    for abbr, name, fn, aliases, recipe in (
        ("NRMSE_m", "Normalized RMSE (by mean of actuals)", formulas.nrmse_m, ("CVRMSE",),
         DerivedRecipe("RMSE", MEAN_OF_ACTUALS)),
        ("NRMSE_sd", "Normalized RMSE (by standard deviation of actuals)", formulas.nrmse_sd, (),
         DerivedRecipe("RMSE", SD_OF_ACTUALS)),
        ("NRMSE_mm", "Normalized RMSE (by range of actuals)", formulas.nrmse_mm, (),
         DerivedRecipe("RMSE", RANGE_OF_ACTUALS)),
        ("NMSE", "Normalized Mean Squared Error", formulas.nmse, (),
         DerivedRecipe("MSE", VARIANCE_OF_ACTUALS)),
    ):
        defs.append(MetricDefinition(
            abbr, name, Category.EXTENDED, formula=fn, aliases=aliases, recipe=recipe,
            notes="normalizes by a statistic of the whole actual series",
        ))

    # composite: history- and benchmark-relative metrics
    defs.append(MetricDefinition(
        "CoD", "Coefficient of Determination", Category.COMPOSITE, formula=formulas.cod,
        recipe=DerivedRecipe("SSE", TOTAL_SUM_OF_SQUARES, "1-ratio"),
        notes="1 minus the squared-error sum over the total sum of squares",
    ))
    defs.append(MetricDefinition(
        "MASE", "Mean Absolute Scaled Error", Category.COMPOSITE, recipe=DerivedRecipe("MAE", NAIVE_SCALE),
        notes="scales MAE by the naive one-step error of the in-sample history",
    ))
    for abbr, name, base, combine, aliases, notes in (
        ("RMAE", "Relative Mean Absolute Error", "MAE", "ratio", ("RelMAE",), ""),
        ("RelRMSE", "Relative Root Mean Square Error", "RMSE", "ratio", ("TheilsU", "U2"), ""),
        ("LMR", "Log Mean Squared Error Ratio", "RMSE", "log-ratio", (),
         "natural log of the RMSE ratio; negative favors the candidate"),
        ("RGRMSE", "Relative Geometric Root Mean Squared Error", "GRMSE", "ratio", (), ""),
    ):
        defs.append(MetricDefinition(
            abbr, name, Category.COMPOSITE, aliases=aliases, notes=notes,
            recipe=DerivedRecipe(base, BENCHMARK_BASE, combine),
        ))

    # catalogued but out of scope
    for abbr, name, category, reason in (
        ("MAAPE", "Mean Arctangent Absolute Percentage Error", Category.PRIMARY,
         "applies an arctangent to the normalized error, which does not fit "
         "the distance/normalizer/aggregator grid"),
        ("HMD", "Hamming Distance", Category.PRIMARY,
         "defined for categorical or binary sequences, not numeric series"),
        ("IPD", "Inner Product Distance", Category.PRIMARY,
         "a vector similarity, not a pointwise error of paired series"),
        ("MdASE", "Median Absolute Scaled Error", Category.COMPOSITE,
         "scaled-error variant not implemented; use MASE"),
        ("RMSSE", "Root Mean Squared Scaled Error", Category.COMPOSITE,
         "scaled-error variant not implemented; use MASE"),
        ("CumRAE", "Cumulative Relative Absolute Error", Category.COMPOSITE,
         "cumulative benchmark-relative form not implemented; see RAE and RMAE"),
    ):
        defs.append(MetricDefinition(abbr, name, category, stub_reason=reason))

    catalog: dict[str, MetricDefinition] = {}
    for d in defs:
        if d.abbreviation in catalog:
            raise AssertionError(f"duplicate catalog entry {d.abbreviation}")
        catalog[d.abbreviation] = d
    return catalog


_CATALOG: dict[str, MetricDefinition] | None = None
_LOOKUP: dict[str, str] | None = None


def _key(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "", name.lower())


def get_catalog() -> dict[str, MetricDefinition]:
    global _CATALOG, _LOOKUP
    if _CATALOG is None:
        _CATALOG = _build_catalog()
        _LOOKUP = {}
        for abbr, d in _CATALOG.items():
            for name in (abbr, *d.aliases):
                key = _key(name)
                if key in _LOOKUP and _LOOKUP[key] != abbr:
                    raise AssertionError(f"ambiguous lookup key {key!r}")
                _LOOKUP[key] = abbr
    return _CATALOG


def lookup(name: str) -> MetricDefinition:
    """Find a definition by abbreviation or alias, case-insensitively."""
    catalog = get_catalog()
    assert _LOOKUP is not None
    key = _key(name)
    abbr = _LOOKUP.get(key)
    if abbr is None:
        known = sorted(_LOOKUP)
        close = difflib.get_close_matches(key, known, n=3, cutoff=0.6)
        suggestions = tuple(dict.fromkeys(_LOOKUP[c] for c in close))
        raise UnknownMetric(name, suggestions)
    return catalog[abbr]


def list_metrics(
    category: Category | None = None,
    cell: Cell | None = None,
    include_stubs: bool = False,
) -> list[MetricDefinition]:
    """Catalog entries, alphabetical by abbreviation."""
    out = []
    for d in get_catalog().values():
        if not d.implemented and not include_stubs:
            continue
        if category is not None and d.category is not category:
            continue
        if cell is not None and d.cell != cell:
            continue
        out.append(d)
    return sorted(out, key=lambda d: d.abbreviation.casefold())


def export_catalog(include_stubs: bool = True) -> list[dict[str, Any]]:
    """Machine-readable catalog dump."""
    return [d.to_record() for d in list_metrics(include_stubs=include_stubs)]


def composed_definitions() -> list[MetricDefinition]:
    """The implemented primary metrics; each has a composition."""
    return list_metrics(category=Category.PRIMARY)


def check(
    defn: MetricDefinition,
    variant: str | None = None,
    have_benchmark: bool = False,
    have_in_sample: bool = False,
) -> None:
    """Raise every configuration error for evaluating ``defn`` as ``variant``.

    A stub, an unknown variant and a missing benchmark or in-sample
    history are all caught here, before any data is touched.
    """
    if not defn.implemented:
        raise UnimplementedMetric(defn.abbreviation, defn.stub_reason or "")
    if variant is not None and variant not in defn.variants:
        raise UnknownVariant(defn.abbreviation, variant, tuple(defn.variants))
    if defn.requires == "benchmark" and not have_benchmark:
        raise MissingBenchmark(defn.abbreviation, "a benchmark prediction")
    if defn.requires == "in-sample history" and not have_in_sample:
        raise MissingBenchmark(defn.abbreviation, "an in-sample history")


def evaluate_named(
    pair: SeriesPair,
    name: str,
    policy: EvaluationPolicy = FAIL_FAST,
    variant: str | None = None,
) -> MetricResult:
    """Evaluate a primary catalog metric on a pair.

    A metric or variant runs its composition through the pipeline or
    evaluates its recipe.  Extended and composite metrics raise
    RequiresBenchmark: ``derived.evaluate_metric`` evaluates them.
    """
    defn = lookup(name)
    if defn.implemented and defn.category is not Category.PRIMARY:
        raise RequiresBenchmark(defn.abbreviation, "more than the per-point pipeline")
    check(defn, variant)

    spec = defn if variant is None else defn.variants[variant]
    if spec.recipe is not None:
        return evaluate_recipe(pair, spec.recipe, policy)[0]
    return evaluate(pair, spec.composition, policy)


def evaluate_recipe(
    pair: SeriesPair,
    recipe: DerivedRecipe,
    policy: EvaluationPolicy = FAIL_FAST,
    benchmark: SeriesPair | None = None,
    in_sample: np.ndarray | None = None,
) -> tuple[MetricResult, float, float]:
    """Evaluate a derived recipe: (result, base value on the pair, statistic).

    The statistic comes first: too few points, a non-finite history, a
    statistic beyond the floating-point range and a zero statistic all
    raise before the base metric runs on the pair.  The result carries the
    base run's point counts and policy records.
    """
    base = lookup(recipe.base)
    stat = recipe.statistic
    if stat.of is None:
        if benchmark.actuals is not pair.actuals and not np.array_equal(pair.actuals, benchmark.actuals):
            raise BenchmarkMismatch()
        den = evaluate(benchmark, base.composition, policy).value
    else:
        # the pair's actuals are finite: SeriesPair validated them
        series = np.asarray(in_sample, dtype=float) if stat.requires else pair.actuals
        if series.ndim != 1 or series.size < stat.min_points:
            raise InsufficientData(stat.too_few)
        if stat.requires and not np.isfinite(series).all():
            raise ValidationError(f"{stat.requires} contains non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):
            den = float(stat.of(series))
        if not math.isfinite(den):
            raise RangeOverflow(stat.name)
    if abs(den) < NEAR_ZERO:
        zero = stat.zero or f"{stat.name} is zero"
        raise ZeroDenominator(message=zero.format(base=base.abbreviation))

    result = evaluate(pair, base.composition, policy)
    value = result.value / den
    if recipe.combine == "1-ratio":
        value = 1.0 - value
    elif recipe.combine == "log-ratio":
        if value <= 0:
            raise LogDomain(value)
        value = float(np.log(value))
    if recipe.post is not None:
        value = apply_post(value, recipe.post)
    return replace(result, value=value, dimension=Dimension.DIMENSIONLESS), result.value, den


def direct_formula(
    name: str,
    pair: SeriesPair,
    policy: EvaluationPolicy = FAIL_FAST,
    variant: str | None = None,
) -> float:
    """Closed-form value of a catalog metric; the pipeline's cross-check."""
    defn = lookup(name)
    if defn.implemented and defn.formula is None:
        raise RequiresBenchmark(defn.abbreviation, defn.requires or "external inputs")
    check(defn, variant)
    return float(defn.direct(pair.actuals, pair.predicted, policy, variant))
