"""Compositional error metrics for paired actual/predicted series.

Every primary metric here is the same four-part recipe: a per-point
distance, a normalizer, an aggregator and optional transforms.  The
catalog names the classical metrics as instances of that recipe, keeps
independent closed-form implementations for cross-checking, and charts
the whole family on a distance x normalizer x aggregator grid.

Quick start::

    from metricgrid import evaluate_metric, validate_series_pair

    pair = validate_series_pair([1, 2, 3, 4], [2, 2, 5, 3])
    result, _ = evaluate_metric(pair, "RMSE")
    print(result.value)
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import MetricError  # noqa: F401
from .types import (  # noqa: F401
    Aggregator,
    AggKind,
    Dimension,
    Distance,
    EvaluationPolicy,
    FAIL_FAST,
    LogRatioPolicy,
    MetricComposition,
    MetricResult,
    NormalizerSpec,
    NormKind,
    PointTransform,
    PostKind,
    PostTransform,
    SeriesPair,
    ZeroDenominatorPolicy,
    validate_series_pair,
)
from .evaluator import evaluate, dimension_of  # noqa: F401
from .registry import (  # noqa: F401
    Category,
    MetricDefinition,
    direct_formula,
    evaluate_named,
    export_catalog,
    get_catalog,
    list_metrics,
    lookup,
)
from .derived import (  # noqa: F401
    BUILTIN_SUITES,
    RelativeResult,
    SuiteDefinition,
    SuiteResult,
    coefficient_of_determination,
    evaluate_metric,
    evaluate_suite,
    extended,
    mase,
    relative_metric,
    relative_named,
)
from .chart import ChartGrid, blank_cells, build_chart, render_chart  # noqa: F401
