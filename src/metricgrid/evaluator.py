"""Staged evaluation pipeline.

Every composed metric is computed the same way: per-point distances,
normalization with degeneracy policy, an optional per-point transform,
aggregation to a scalar, then post-transforms.  The stages are exposed
individually so compositions can be inspected or reused piecemeal.

No stage writes to its inputs: arithmetic runs in place only on arrays
the stage itself allocated in that call.  A clean vector, one where every
point is usable, carries its pair's one read-only all-True mask
(``SeriesPair.all_points``), so clean data is never masked, gathered or
copied; masks are built only where the policy touches a point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AllPointsSkipped,
    DistanceOverflow,
    EmptyAggregation,
    GeometricMeanDomain,
    HarmonicMeanDomain,
    NonpositiveLogRatio,
    NormalizerOverflow,
    RangeOverflow,
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

_ERROR_DISTANCES = (Distance.ERROR, Distance.ABSOLUTE_ERROR, Distance.SQUARED_ERROR)
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def point_distances(
    pair: SeriesPair,
    kind: Distance,
    policy: EvaluationPolicy = FAIL_FAST,
) -> PointVector:
    """Per-point distances between actuals and predictions.

    The log-quotient distances are undefined wherever predicted/actual is
    not positive, that is where either value is zero or their signs
    differ; those points either fail or are skipped according to
    ``policy.nonpositive_log_ratio``.  A positive quotient that over- or
    underflows still has a finite log, taken as ln|P| - ln|A|.  An error
    distance that leaves the floating-point range raises DistanceOverflow.
    """
    a, p = pair.actuals, pair.predicted
    if kind in _ERROR_DISTANCES:
        with np.errstate(over="ignore"):
            d = a - p
            if kind is Distance.ABSOLUTE_ERROR:
                np.abs(d, out=d)
            elif kind is Distance.SQUARED_ERROR:
                np.square(d, out=d)
        finite = np.isfinite(d)
        if not finite.all():
            raise DistanceOverflow(int(np.argmin(finite)))
        return PointVector(d, pair.all_points)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratio = p / a
    # a positive quotient that neither overflowed nor underflowed
    normal = (ratio >= _SMALLEST_NORMAL) & (ratio < np.inf)
    if normal.all():
        usable, actions = pair.all_points, NO_ACTIONS
        values = np.log(ratio, out=ratio)
    else:
        # P/A is positive exactly when P and A are nonzero and of one sign
        usable = (a != 0) & (p != 0) & (np.signbit(a) == np.signbit(p))
        actions = NO_ACTIONS
        if usable.all():
            usable = pair.all_points
        elif policy.nonpositive_log_ratio is LogRatioPolicy.FAIL:
            raise NonpositiveLogRatio(int(np.argmin(usable)))
        elif not usable.any():
            raise AllPointsSkipped("every point has a non-positive predicted/actual ratio")
        else:
            actions = actions.with_run(SKIP_LOG_RATIO, np.flatnonzero(~usable))
        ratio[~normal] = 1.0
        values = np.log(ratio, out=ratio)
        # where the quotient over- or underflowed, the logs are taken apart
        spilled = np.flatnonzero(usable & ~normal)
        values[spilled] = np.log(np.abs(p[spilled])) - np.log(np.abs(a[spilled]))
    if kind is Distance.ABS_LOG_QUOTIENT:
        np.abs(values, out=values)
    return PointVector(values, usable, actions)


def _normalizer_base(pair: SeriesPair, spec: NormalizerSpec) -> np.ndarray:
    """The base before its exponent; the read-only actuals themselves for
    plain BY_ACTUALS, otherwise a new array.  The sums and the mean may
    leave the floating-point range: ``_extremes`` refuses such a base."""
    a, p = pair.actuals, pair.predicted
    if spec.kind is NormKind.BY_ACTUALS:
        return np.abs(a) if spec.absolute else a
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is NormKind.BY_VARIABILITY:
            dev = a - a.mean()
            return np.abs(dev, out=dev) if spec.absolute else dev
        if spec.kind is NormKind.BY_SUM:
            if not spec.absolute:
                return a + p
            # absolute variant sums magnitudes, it is not |A + P|
            base = np.abs(a)
            base += np.abs(p)
            return base
    if spec.kind is NormKind.BY_MAX:
        return np.maximum(a, p)
    if spec.kind is NormKind.BY_MIN:
        return np.minimum(a, p)
    raise AssertionError(f"unexpected normalizer kind {spec.kind!r}")


def _extremes(base: np.ndarray) -> tuple[float, float]:
    """Smallest and largest base value; NormalizerOverflow names the first
    point whose base is not a finite number."""
    lo, hi = float(base.min()), float(base.max())
    if not -math.inf < lo <= hi < math.inf:
        raise NormalizerOverflow(int(np.argmin(np.isfinite(base))))
    return lo, hi


def _near_zero(base: np.ndarray, usable: np.ndarray) -> np.ndarray | None:
    """Mask of the usable points whose base is near zero, or None when
    there is none.  No mask is built when the extremes of the base show
    that every point is clear of zero; extremes beyond the floating-point
    range raise NormalizerOverflow."""
    lo, hi = _extremes(base)
    if lo >= NEAR_ZERO or hi <= -NEAR_ZERO:
        return None
    degenerate = usable & (np.abs(base) < NEAR_ZERO)
    return degenerate if degenerate.any() else None


def _scaled(op: np.ufunc, values: np.ndarray, factor: float, other: np.ndarray) -> np.ndarray:
    """op(factor * values, other) as one new array; ``values`` is not written.

    A quotient or product beyond the floating-point range is left as inf
    for ``aggregate`` to refuse."""
    with np.errstate(over="ignore"):
        if factor == 1.0:
            return op(values, other)
        out = np.multiply(values, factor)
        return op(out, other, out=out)


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
    multiplies by the base instead and has no degenerate case.  A base,
    or squared base, beyond the floating-point range raises
    NormalizerOverflow whatever the policy.
    """
    if spec.kind is NormKind.UNITARY:
        return points
    base = _normalizer_base(pair, spec)
    usable = points.usable
    actions = points.actions

    if spec.exponent == -1:
        _extremes(base)  # refuses a base beyond the floating-point range
        return PointVector(_scaled(np.multiply, points.values, spec.factor, base), usable, actions)

    clean = points.clean
    degenerate = _near_zero(base, usable)
    if degenerate is not None:
        mode = policy.zero_denominator
        if mode is ZeroDenominatorPolicy.FAIL:
            raise ZeroDenominator(int(np.argmax(degenerate)))
        if mode is ZeroDenominatorPolicy.SKIP:
            actions = actions.with_run(SKIP_ZERO_DENOMINATOR, np.flatnonzero(degenerate))
            usable = usable & ~degenerate
            clean = False
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
            degenerate = _near_zero(base, usable)
            if degenerate is not None:
                raise ZeroDenominator(int(np.argmax(degenerate)))

    if spec.exponent == 2:
        # squared in place unless the base is the pair's own actuals
        with np.errstate(over="ignore"):
            base = np.square(base, out=None if base is pair.actuals else base)
        if base.max() == np.inf:
            raise NormalizerOverflow(int(np.argmax(base == np.inf)))
    if clean:
        return PointVector(_scaled(np.divide, points.values, spec.factor, base), usable, actions)
    values = np.where(usable, points.values, 0.0)
    safe = np.where(usable, base, 1.0)
    return PointVector(_scaled(np.divide, values, spec.factor, safe), usable, actions)


def apply_point_transform(
    points: PointVector,
    pair: SeriesPair,
    transform: PointTransform,
) -> PointVector:
    """Apply the optional per-point map to normalized values."""
    if transform is PointTransform.IDENTITY:
        return points
    # a value beyond the floating-point range is left as inf for ``aggregate``
    with np.errstate(over="ignore"):
        values = np.expm1(points.values)
        if transform is PointTransform.SIGNED_EXP_MINUS_ONE:
            # sign(0) = 0: a perfect point contributes nothing to the bias
            sign = pair.predicted - pair.actuals
            values *= np.sign(sign, out=sign)
    return PointVector(values, points.usable, points.actions)


def aggregate(
    points: PointVector,
    aggregator: Aggregator,
    policy: EvaluationPolicy = FAIL_FAST,
) -> float:
    """Collapse the usable point values to one number.

    The geometric mean is undefined when any usable value is zero or
    negative and the harmonic mean when any is zero; both raise regardless
    of policy.  An aggregate beyond the floating-point range, such as the
    sum of large finite values, raises RangeOverflow.
    """
    v = points.usable_values()
    if v.size == 0:
        raise EmptyAggregation()
    with np.errstate(over="ignore", invalid="ignore"):
        value = _reduce(v, aggregator)
    if not math.isfinite(value):
        raise RangeOverflow("aggregate of the point values")
    return value


def _reduce(v: np.ndarray, aggregator: Aggregator) -> float:
    m = v.size
    kind = aggregator.kind
    if kind is AggKind.MEAN:
        return float(v.mean())
    if kind is AggKind.MEDIAN:
        return float(np.median(v))
    if kind is AggKind.GEOMETRIC_MEAN:
        if v.min() <= 0:
            raise GeometricMeanDomain()
        with np.errstate(under="ignore"):
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
    try:
        return 100.0 * math.expm1(value)
    except OverflowError:
        raise RangeOverflow("symmetric accuracy") from None


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
