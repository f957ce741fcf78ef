"""Staged evaluation pipeline.

Every composed metric is computed the same way: per-point distances,
normalization with degeneracy policy, an optional per-point transform,
aggregation to a scalar, then post-transforms.  The stages are exposed
individually so compositions can be inspected or reused piecemeal.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AllPointsSkipped,
    EmptyAggregation,
    GeometricMeanDomain,
    HarmonicMeanDomain,
    NonpositiveLogRatio,
    SqrtDomain,
    ZeroDenominator,
)
from .types import (
    NEAR_ZERO,
    AggKind,
    Aggregator,
    Dimension,
    Distance,
    EvaluationPolicy,
    FAIL_FAST,
    LogRatioPolicy,
    MetricComposition,
    MetricResult,
    NO_ACTIONS,
    NormalizerSpec,
    NormKind,
    PointTransform,
    PointVector,
    PostKind,
    PostTransform,
    SeriesPair,
    ZeroDenominatorPolicy,
    smallest_nonzero_actual,
)

SKIP_LOG_RATIO = "skipped:nonpositive-log-ratio"
SKIP_ZERO_DENOMINATOR = "skipped:zero-denominator"
EPSILON_CORRECTED = "epsilon-corrected"


def point_distances(
    pair: SeriesPair,
    kind: Distance,
    policy: EvaluationPolicy = FAIL_FAST,
) -> PointVector:
    """Per-point distances between actuals and predictions.

    The log-quotient distances are undefined wherever predicted/actual is
    not a positive finite number; those points either fail or are skipped
    according to ``policy.nonpositive_log_ratio``.
    """
    a, p = pair.actuals, pair.predicted
    if kind is Distance.ERROR:
        return PointVector(a - p, np.ones(pair.n, dtype=bool))
    if kind is Distance.ABSOLUTE_ERROR:
        return PointVector(np.abs(a - p), np.ones(pair.n, dtype=bool))
    if kind is Distance.SQUARED_ERROR:
        return PointVector((a - p) ** 2, np.ones(pair.n, dtype=bool))

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p / a
    bad = ~np.isfinite(ratio) | (ratio <= 0)
    usable = ~bad
    actions = NO_ACTIONS
    if bad.any():
        if policy.nonpositive_log_ratio is LogRatioPolicy.FAIL:
            raise NonpositiveLogRatio(int(np.argmax(bad)))
        if not usable.any():
            raise AllPointsSkipped("every point has a non-positive predicted/actual ratio")
        actions = actions.with_run(SKIP_LOG_RATIO, np.flatnonzero(bad))
    values = np.log(np.where(bad, 1.0, ratio))
    if kind is Distance.ABS_LOG_QUOTIENT:
        values = np.abs(values)
    return PointVector(values, usable, actions)


def _normalizer_base(pair: SeriesPair, spec: NormalizerSpec) -> np.ndarray:
    a, p = pair.actuals, pair.predicted
    if spec.kind is NormKind.BY_ACTUALS:
        return np.abs(a) if spec.absolute else a.copy()
    if spec.kind is NormKind.BY_VARIABILITY:
        dev = a - a.mean()
        return np.abs(dev) if spec.absolute else dev
    if spec.kind is NormKind.BY_SUM:
        # absolute variant sums magnitudes, it is not |A + P|
        return np.abs(a) + np.abs(p) if spec.absolute else a + p
    if spec.kind is NormKind.BY_MAX:
        return np.maximum(a, p)
    if spec.kind is NormKind.BY_MIN:
        return np.minimum(a, p)
    raise AssertionError(f"unexpected normalizer kind {spec.kind!r}")


def normalize(
    points: PointVector,
    pair: SeriesPair,
    spec: NormalizerSpec,
    policy: EvaluationPolicy = FAIL_FAST,
) -> PointVector:
    """Divide point values by the normalizer base raised to its exponent.

    Near-zero bases (|base| < 1e-12) at usable points are degenerate and
    handled per ``policy.zero_denominator``: fail on the first one, skip
    them, or add an epsilon to the base before dividing.  Exponent -1
    multiplies by the base instead and has no degenerate case.
    """
    if spec.kind is NormKind.UNITARY:
        return points
    base = _normalizer_base(pair, spec)
    values = points.values
    usable = points.usable.copy()
    actions = points.actions

    if spec.exponent == -1:
        return PointVector(spec.factor * values * base, usable, actions)

    degenerate = usable & (np.abs(base) < NEAR_ZERO)
    if degenerate.any():
        mode = policy.zero_denominator
        if mode is ZeroDenominatorPolicy.FAIL:
            raise ZeroDenominator(int(np.argmax(degenerate)))
        if mode is ZeroDenominatorPolicy.SKIP:
            actions = actions.with_run(SKIP_ZERO_DENOMINATOR, np.flatnonzero(degenerate))
            usable &= ~degenerate
            if not usable.any():
                raise AllPointsSkipped("skip policy removed every point (zero denominators)")
        else:
            eps = policy.epsilon
            if eps is None:
                eps = smallest_nonzero_actual(pair.actuals)
                if eps == 0.0:
                    raise ZeroDenominator(
                        message="epsilon correction impossible: every actual is zero"
                    )
            base = np.where(degenerate, base + eps, base)
            actions = actions.with_run(EPSILON_CORRECTED, np.flatnonzero(degenerate))
            degenerate = usable & (np.abs(base) < NEAR_ZERO)
            if degenerate.any():
                raise ZeroDenominator(int(np.argmax(degenerate)))

    denom = base ** 2 if spec.exponent == 2 else base
    safe = np.where(usable, denom, 1.0)
    return PointVector(spec.factor * np.where(usable, values, 0.0) / safe, usable, actions)


def apply_point_transform(
    points: PointVector,
    pair: SeriesPair,
    transform: PointTransform,
) -> PointVector:
    """Apply the optional per-point map to normalized values."""
    if transform is PointTransform.IDENTITY:
        return points
    values = np.expm1(points.values)
    if transform is PointTransform.SIGNED_EXP_MINUS_ONE:
        # sign(0) = 0: a perfect point contributes nothing to the bias
        values = np.sign(pair.predicted - pair.actuals) * values
    return PointVector(values, points.usable, points.actions)


def aggregate(
    points: PointVector,
    aggregator: Aggregator,
    policy: EvaluationPolicy = FAIL_FAST,
) -> float:
    """Collapse the usable point values to one number.

    The geometric mean is undefined when any usable value is zero or
    negative and the harmonic mean when any is zero; both raise regardless
    of policy.
    """
    v = points.usable_values()
    m = v.size
    if m == 0:
        raise EmptyAggregation()
    kind = aggregator.kind
    if kind is AggKind.MEAN:
        return float(v.mean())
    if kind is AggKind.MEDIAN:
        return float(np.median(v))
    if kind is AggKind.GEOMETRIC_MEAN:
        if (v <= 0).any():
            raise GeometricMeanDomain()
        with np.errstate(over="ignore", under="ignore"):
            product = float(np.prod(v))
        if 0.0 < product < np.inf:
            return float(product ** (1.0 / m))
        # the running product left double range; the log form cannot
        return float(np.exp(np.mean(np.log(v))))
    if kind is AggKind.SUM:
        return float(v.sum())
    if kind is AggKind.MAXIMUM:
        return float(v.max())
    if kind is AggKind.HARMONIC_MEAN:
        if (v == 0).any():
            raise HarmonicMeanDomain()
        return float(m / np.sum(1.0 / v))
    k = int(aggregator.fraction * m)
    s = np.sort(v)
    if kind is AggKind.TRUNCATED_MEAN:
        return float(s[k:m - k].mean())
    if kind is AggKind.WINSORIZED_MEAN:
        if k:
            s[:k] = s[k]
            s[m - k:] = s[m - k - 1]
        return float(s.mean())
    raise AssertionError(f"unexpected aggregator kind {kind!r}")


def apply_post(value: float, post: PostTransform) -> float:
    if post.kind is PostKind.SQRT:
        if value < 0:
            raise SqrtDomain(value)
        return math.sqrt(value)
    if post.kind is PostKind.SCALE:
        return value * post.k
    return 100.0 * math.expm1(value)


def dimension_of(comp: MetricComposition) -> Dimension:
    """Unit class implied by a composition."""
    for post in comp.post:
        if post.kind is PostKind.SYMMETRIC_ACCURACY:
            return Dimension.PERCENT
        if post.kind is PostKind.SCALE and post.k == 100.0:
            return Dimension.PERCENT
    if comp.normalizer.kind is not NormKind.UNITARY:
        return Dimension.DIMENSIONLESS
    if comp.distance in (Distance.LOG_QUOTIENT, Distance.ABS_LOG_QUOTIENT):
        return Dimension.DIMENSIONLESS
    if comp.distance is Distance.SQUARED_ERROR:
        if any(post.kind is PostKind.SQRT for post in comp.post):
            return Dimension.SAME_AS_DATA
        return Dimension.SQUARED_DATA
    return Dimension.SAME_AS_DATA


def evaluate(
    pair: SeriesPair,
    comp: MetricComposition,
    policy: EvaluationPolicy = FAIL_FAST,
) -> MetricResult:
    """Run the full pipeline for one composition.

    Returns a MetricResult carrying the value, its unit class and the
    diagnostics of every policy intervention.  Raises an EvaluationError
    subtype when the data is degenerate and the policy says fail, or when
    an aggregation or transform domain is violated.
    """
    pv = point_distances(pair, comp.distance, policy)
    pv = normalize(pv, pair, comp.normalizer, policy)
    pv = apply_point_transform(pv, pair, comp.transform)
    value = aggregate(pv, comp.aggregator, policy)
    for post in comp.post:
        value = apply_post(value, post)
    return MetricResult(
        value=float(value),
        dimension=dimension_of(comp),
        points_total=pv.n,
        points_skipped=pv.n - pv.n_usable,
        actions=pv.actions,
    )
