"""Metric catalog: named definitions binding compositions to formulas.

Every implemented metric carries both a composition (where one exists)
and a direct closed-form implementation from ``formulas``.  The two are
independent code paths; tests hold them to agreement.  Variants are data
on the definition.  Lookup is case-insensitive, knows the common alias
names, and suggests near misses.  ``check`` holds every up-front
configuration check for a named metric; ``evaluate_named`` evaluates
primary metrics only, and ``derived.evaluate_metric`` every catalog name.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable

import numpy as np

from . import formulas
from .errors import MissingBenchmark, RequiresBenchmark, UnimplementedMetric, UnknownMetric, UnknownVariant
from .evaluator import dimension_of, evaluate, point_distances
from .types import (
    Aggregator,
    AggKind,
    Cell,
    Dimension,
    Distance,
    EvaluationPolicy,
    FAIL_FAST,
    GEOMETRIC_MEAN,
    MAXIMUM,
    MEAN,
    MEDIAN,
    MetricComposition,
    MetricResult,
    NormalizerSpec,
    NormKind,
    PERCENT_SCALE,
    PointTransform,
    PostTransform,
    SQRT,
    SUM,
    SYMMETRIC_ACCURACY,
    SeriesPair,
)

DirectFn = Callable[[np.ndarray, np.ndarray, EvaluationPolicy, "str | None"], float]


class Category(Enum):
    PRIMARY = "primary"
    EXTENDED = "extended"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class Variant:
    """How one named variant of a metric is computed.

    ``composition`` is None when only the closed form exists; ``kwargs``
    are the keyword arguments that select the variant in the closed form.
    """

    composition: MetricComposition | None
    kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricDefinition:
    """One catalog entry.

    ``composition`` is None for direct-formula-only metrics; ``formula``
    is None for stubs and for metrics needing external inputs.  ``cell`` is
    normally the composition's cell; one pinned on a metric without a
    composition is where the chart prints it "as printed".  ``charted``
    False sends a composed metric to the chart's annex.  ``log_weight``
    marks a metric that sums ln(P/A) weighted per point (KLD, JD).
    """

    abbreviation: str
    full_name: str
    category: Category
    composition: MetricComposition | None = None
    formula: Callable[..., float] | None = None
    aliases: tuple[str, ...] = ()
    variants: dict[str, Variant] = field(default_factory=dict, hash=False)
    dimension: Dimension = Dimension.DIMENSIONLESS
    cell: Cell | None = None
    chart_aka: tuple[str, ...] = ()
    charted: bool = True
    requires: str | None = None          # None | "benchmark" | "in-sample history"
    log_weight: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    notes: str = ""
    stub_reason: str | None = None

    @property
    def implemented(self) -> bool:
        return self.stub_reason is None

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


def _norm(kind: NormKind, exponent: int = 1, absolute: bool = False, factor: float = 1.0) -> NormalizerSpec:
    return NormalizerSpec(kind, exponent, absolute, factor)


def _comp(
    distance: Distance,
    normalizer: NormalizerSpec | None = None,
    aggregator: Aggregator = MEAN,
    transform: PointTransform = PointTransform.IDENTITY,
    post: tuple[PostTransform, ...] = (),
) -> MetricComposition:
    if normalizer is None:
        normalizer = NormalizerSpec(NormKind.UNITARY)
    return MetricComposition(distance, normalizer, aggregator, transform, post)


def _options(comp: MetricComposition) -> dict[str, Variant]:
    # option2, the ratio of sums, has no per-point composition
    return {"option1": Variant(comp), "option2": Variant(None, {"option": 2})}


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
    kw.setdefault("dimension", dimension_of(comp))
    if variants is not None:
        kw["variants"] = variants(comp)
    return MetricDefinition(abbr, name, Category.PRIMARY, comp, formula, **kw)


def _build_catalog() -> dict[str, MetricDefinition]:
    defs: list[MetricDefinition] = []

    # signed error
    defs.append(_primary(
        "ME", "Mean Error", _comp(Distance.ERROR), formulas.me,
        aliases=("MBE",), chart_aka=("MBE", "bias"),
        notes="signed errors cancel; a small value does not imply small errors",
    ))
    defs.append(_primary(
        "MD", "Manhattan Distance", _comp(Distance.ERROR, aggregator=SUM), formulas.md,
        notes="sum of signed errors, so opposite-sign errors cancel",
    ))
    defs.append(_primary(
        "MNB", "Mean Normalized Bias",
        _comp(Distance.ERROR, _norm(NormKind.BY_ACTUALS)), formulas.mnb,
    ))
    defs.append(_primary(
        "MPE", "Mean Percentage Error",
        _comp(Distance.ERROR, _norm(NormKind.BY_ACTUALS), post=(PERCENT_SCALE,)),
        formulas.mpe,
    ))
    defs.append(_primary(
        "FB", "Fractional Bias",
        _comp(Distance.ERROR, _norm(NormKind.BY_SUM, factor=2.0)), formulas.fb,
    ))

    # absolute error
    defs.append(_primary(
        "MAE", "Mean Absolute Error", _comp(Distance.ABSOLUTE_ERROR), formulas.mae,
        aliases=("MAD", "MAGE", "MCD"), chart_aka=("MAD",),
    ))
    defs.append(_primary(
        "MdAE", "Median Absolute Error",
        _comp(Distance.ABSOLUTE_ERROR, aggregator=MEDIAN), formulas.mdae,
    ))
    defs.append(_primary(
        "MaxAE", "Maximum Absolute Error",
        _comp(Distance.ABSOLUTE_ERROR, aggregator=MAXIMUM), formulas.maxae,
        notes="uses the maximum aggregator, outside the four core aggregators",
    ))
    defs.append(_primary(
        "SAD", "Sum of Absolute Differences",
        _comp(Distance.ABSOLUTE_ERROR, aggregator=SUM), formulas.sad,
    ))
    defs.append(_primary(
        "GMAE", "Geometric Mean Absolute Error",
        _comp(Distance.ABSOLUTE_ERROR, aggregator=GEOMETRIC_MEAN), formulas.gmae,
        notes="undefined when any error is zero; never silently returns 0",
    ))
    defs.append(_primary(
        "MARE", "Mean Absolute Relative Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_ACTUALS, absolute=True)),
        formulas.mare, aliases=("MMRE",),
    ))
    defs.append(_primary(
        "MAPE", "Mean Absolute Percentage Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_ACTUALS, absolute=True), post=(PERCENT_SCALE,)),
        formulas.mape,
    ))
    defs.append(_primary(
        "MdAPE", "Median Absolute Percentage Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_ACTUALS, absolute=True),
              aggregator=MEDIAN, post=(PERCENT_SCALE,)),
        formulas.mdape,
    ))
    defs.append(_primary(
        "MRAE", "Mean Relative Absolute Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_VARIABILITY, absolute=True)),
        formulas.mrae, _options,
        notes="option2 divides the error sum by n times the deviation sum",
    ))
    defs.append(_primary(
        "MdRAE", "Median Relative Absolute Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_VARIABILITY, absolute=True), aggregator=MEDIAN),
        formulas.mdrae,
    ))
    defs.append(_primary(
        "GMRAE", "Geometric Mean Relative Absolute Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_VARIABILITY, absolute=True),
              aggregator=GEOMETRIC_MEAN),
        formulas.gmrae, lambda comp: {"root-product": Variant(comp, {"form": "root-product"})},
        notes="root-product form is algebraically identical to the mean-log form",
    ))
    defs.append(_primary(
        "RAE", "Relative Absolute Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_VARIABILITY, absolute=True), aggregator=SUM),
        formulas.rae, _options,
        notes="option2 is the ratio of sums rather than the sum of ratios",
    ))
    defs.append(_primary(
        "FAE", "Fractional Absolute Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_SUM, factor=2.0)),
        formulas.fae, _absolute,
    ))
    defs.append(_primary(
        "sMAPE", "Symmetric Mean Absolute Percentage Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_SUM, factor=2.0), post=(PERCENT_SCALE,)),
        formulas.smape,
        lambda comp: {**_absolute(comp), "mean-denominator": Variant(comp, {"variant": "mean-denominator"})},
        notes="mean-denominator variant divides by (A+P)/2, the same quantity",
    ))
    defs.append(_primary(
        "sMdAPE", "Symmetric Median Absolute Percentage Error",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_SUM, factor=2.0),
              aggregator=MEDIAN, post=(PERCENT_SCALE,)),
        formulas.smdape, _absolute,
    ))
    defs.append(_primary(
        "CM", "Canberra Metric",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_SUM), aggregator=SUM),
        formulas.cm, _absolute,
    ))
    defs.append(_primary(
        "WHD", "Wave Hedges Distance",
        _comp(Distance.ABSOLUTE_ERROR, _norm(NormKind.BY_MAX), aggregator=SUM),
        formulas.whd,
    ))

    # squared error
    defs.append(_primary(
        "MSE", "Mean Squared Error", _comp(Distance.SQUARED_ERROR), formulas.mse,
    ))
    defs.append(_primary(
        "RMSE", "Root Mean Squared Error",
        _comp(Distance.SQUARED_ERROR, post=(SQRT,)), formulas.rmse,
    ))
    defs.append(_primary(
        "SSE", "Sum of Squared Errors",
        _comp(Distance.SQUARED_ERROR, aggregator=SUM), formulas.sse,
    ))
    defs.append(_primary(
        "ED", "Euclidean Distance",
        _comp(Distance.SQUARED_ERROR, aggregator=SUM, post=(SQRT,)), formulas.ed,
    ))
    defs.append(_primary(
        "GRMSE", "Geometric Root Mean Squared Error",
        _comp(Distance.SQUARED_ERROR, aggregator=GEOMETRIC_MEAN, post=(SQRT,)),
        formulas.grmse,
    ))
    defs.append(_primary(
        "MSPE", "Mean Square Percentage Error",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_ACTUALS, exponent=2), post=(PERCENT_SCALE,)),
        formulas.mspe,
    ))
    defs.append(_primary(
        "RMSPE", "Root Mean Square Percentage Error",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_ACTUALS, exponent=2),
              post=(PERCENT_SCALE, SQRT)),
        formulas.rmspe, _conventional,
        notes="conventional variant takes the root before scaling to percent",
    ))
    defs.append(_primary(
        "MdSPE", "Median Square Percentage Error",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_ACTUALS, exponent=2),
              aggregator=MEDIAN, post=(PERCENT_SCALE,)),
        formulas.mdspe,
    ))
    defs.append(_primary(
        "RMdSPE", "Root Median Square Percentage Error",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_ACTUALS, exponent=2),
              aggregator=MEDIAN, post=(PERCENT_SCALE, SQRT)),
        formulas.rmdspe, _conventional,
    ))
    defs.append(_primary(
        "NCSD", "Neyman Chi-Square Distance",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_ACTUALS), aggregator=SUM),
        formulas.ncsd,
    ))
    defs.append(_primary(
        "RSE", "Relative Squared Error",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_VARIABILITY, exponent=2), aggregator=SUM),
        formulas.rse, _options,
    ))
    defs.append(_primary(
        "RRSE", "Root Relative Squared Error",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_VARIABILITY, exponent=2),
              aggregator=SUM, post=(SQRT,)),
        formulas.rrse, _options,
    ))
    defs.append(_primary(
        "SquD", "Squared Chi-Square Distance",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_SUM), aggregator=SUM),
        formulas.squd,
    ))
    defs.append(_primary(
        "DivD", "Divergence Distance",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_SUM, exponent=2, factor=2.0), aggregator=SUM),
        formulas.divd,
    ))
    defs.append(_primary(
        "VSD", "Vicis Symmetric Distance",
        _comp(Distance.SQUARED_ERROR, _norm(NormKind.BY_MIN), aggregator=SUM),
        formulas.vsd,
    ))

    # log quotient
    defs.append(_primary(
        "MdLAR", "Median Log Accuracy Ratio",
        _comp(Distance.LOG_QUOTIENT, aggregator=MEDIAN), formulas.mdlar,
    ))
    defs.append(MetricDefinition(
        "KLD", "Kullback-Leibler Divergence", Category.PRIMARY,
        composition=None, formula=formulas.kld, log_weight=lambda a, p: p,
        dimension=Dimension.SAME_AS_DATA,
        cell=(Distance.LOG_QUOTIENT, NormKind.BY_ACTUALS, AggKind.SUM),
        notes="weights each log ratio by the predicted value, so it is charted "
              "at its conventional cell rather than composed from it",
    ))
    defs.append(MetricDefinition(
        "JD", "Jeffreys Divergence", Category.PRIMARY,
        composition=None, formula=formulas.jd, log_weight=lambda a, p: p - a,
        dimension=Dimension.SAME_AS_DATA,
        notes="weights each log ratio by (P - A); has no core-grid cell",
    ))

    # absolute log quotient (factor family)
    defs.append(_primary(
        "MNAFE", "Mean Normalized Absolute Factor Error",
        _comp(Distance.ABS_LOG_QUOTIENT, transform=PointTransform.EXP_MINUS_ONE),
        formulas.mnafe,
    ))
    defs.append(_primary(
        "MNFB", "Mean Normalized Factor Bias",
        _comp(Distance.ABS_LOG_QUOTIENT, transform=PointTransform.SIGNED_EXP_MINUS_ONE),
        formulas.mnfb, charted=False,
        notes="sign-weighted factor error; left out of the core grid because "
              "of the extra sign factor",
    ))
    defs.append(_primary(
        "MdSA", "Median Symmetric Accuracy",
        _comp(Distance.ABS_LOG_QUOTIENT, aggregator=MEDIAN, post=(SYMMETRIC_ACCURACY,)),
        formulas.mdsa,
    ))

    # extended: whole-series normalizations of RMSE and MSE
    for abbr, name, fn, aliases in (
        ("NRMSE_m", "Normalized RMSE (by mean of actuals)", formulas.nrmse_m, ("CVRMSE",)),
        ("NRMSE_sd", "Normalized RMSE (by standard deviation of actuals)", formulas.nrmse_sd, ()),
        ("NRMSE_mm", "Normalized RMSE (by range of actuals)", formulas.nrmse_mm, ()),
        ("NMSE", "Normalized Mean Squared Error", formulas.nmse, ()),
    ):
        defs.append(MetricDefinition(
            abbr, name, Category.EXTENDED, formula=fn, aliases=aliases,
            dimension=Dimension.DIMENSIONLESS,
            notes="normalizes by a statistic of the whole actual series",
        ))

    # composite: benchmark- and history-relative metrics
    defs.append(MetricDefinition(
        "CoD", "Coefficient of Determination", Category.COMPOSITE,
        formula=formulas.cod, dimension=Dimension.DIMENSIONLESS,
        notes="1 minus the squared-error sum over the total sum of squares",
    ))
    defs.append(MetricDefinition(
        "MASE", "Mean Absolute Scaled Error", Category.COMPOSITE,
        dimension=Dimension.DIMENSIONLESS, requires="in-sample history",
        notes="scales MAE by the naive one-step error of the in-sample history",
    ))
    defs.append(MetricDefinition(
        "RMAE", "Relative Mean Absolute Error", Category.COMPOSITE,
        aliases=("RelMAE",), dimension=Dimension.DIMENSIONLESS,
        requires="benchmark",
    ))
    defs.append(MetricDefinition(
        "RelRMSE", "Relative Root Mean Square Error", Category.COMPOSITE,
        aliases=("TheilsU", "U2"), dimension=Dimension.DIMENSIONLESS,
        requires="benchmark",
    ))
    defs.append(MetricDefinition(
        "LMR", "Log Mean Squared Error Ratio", Category.COMPOSITE,
        dimension=Dimension.DIMENSIONLESS, requires="benchmark",
        notes="natural log of the RMSE ratio; negative favors the candidate",
    ))
    defs.append(MetricDefinition(
        "RGRMSE", "Relative Geometric Root Mean Squared Error", Category.COMPOSITE,
        dimension=Dimension.DIMENSIONLESS, requires="benchmark",
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
        defs.append(MetricDefinition(
            abbr, name, category, dimension=Dimension.DIMENSIONLESS, stub_reason=reason,
        ))

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
    """Primary metrics that have a composition."""
    return [d for d in list_metrics(category=Category.PRIMARY) if d.composition is not None]


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

    A variant with a composition runs through the pipeline, KLD and JD
    weight the pipeline's log ratios, and the direct-only variants run
    their closed form.  Extended and composite metrics raise
    RequiresBenchmark: ``derived.evaluate_metric`` evaluates them.
    """
    defn = lookup(name)
    if defn.implemented and defn.category is not Category.PRIMARY:
        raise RequiresBenchmark(defn.abbreviation, "more than the per-point pipeline")
    check(defn, variant)

    comp = defn.composition if variant is None else defn.variants[variant].composition
    if comp is not None:
        return evaluate(pair, comp, policy)
    if defn.log_weight is not None:
        pv = point_distances(pair, Distance.LOG_QUOTIENT, policy)
        weights = defn.log_weight(pair.actuals, pair.predicted)
        value = float(np.sum(weights[pv.usable] * pv.values[pv.usable]))
        return MetricResult(value, defn.dimension, pv.n, pv.n - pv.n_usable, pv.actions)
    value = defn.direct(pair.actuals, pair.predicted, policy, variant)
    return MetricResult(float(value), defn.dimension, pair.n, 0, ())


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
