"""Staged evaluation pipeline.

Every composed metric is computed the same way: per-point distances,
normalization with degeneracy policy, an optional per-point transform,
aggregation to a scalar, then post-transforms.  The stages are exposed
individually so compositions can be inspected or reused piecemeal.

No stage writes to its inputs: a stage writes only arrays it allocated
itself in that call, or the ``out`` its caller passes it (NumPy's ufunc
convention; ``out`` may be ``points.values``).  ``aggregate`` may reorder
or overwrite the point values only when given ``overwrite_input=True``.
``evaluate`` passes every stage the array ``point_distances`` allocated,
so a clean composition needs no other point-length float array than that
one and, where the normalizer has one, its base.  A clean vector, one
where every point is usable, carries its pair's one read-only all-True
mask (``SeriesPair.all_points``), so clean data is never masked, gathered
or copied; masks are built only where the policy touches a point or a
check has failed.
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
# reductions whose result lies within the range of the values they reduce
_SCALABLE = (AggKind.MEAN, AggKind.MEDIAN, AggKind.TRUNCATED_MEAN, AggKind.WINSORIZED_MEAN)


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
        if not -math.inf < d.min() <= d.max() < math.inf:
            raise DistanceOverflow(int(np.argmin(np.isfinite(d))))
        return PointVector(d, pair.all_points)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratio = p / a
    # every quotient positive, and none overflowed or underflowed (a NaN
    # from 0/0 fails both tests)
    if ratio.min() >= _SMALLEST_NORMAL and ratio.max() < np.inf:
        usable, actions = pair.all_points, NO_ACTIONS
        values = np.log(ratio, out=ratio)
    else:
        normal = (ratio >= _SMALLEST_NORMAL) & (ratio < np.inf)
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
            # absolute variant sums magnitudes, it is not |A + P|; |P| - A
            # is |P| + |A| exactly where A is negative, with no second array
            base = np.abs(p)
            negative = np.signbit(a)
            np.subtract(base, a, out=base, where=negative)
            return np.add(base, a, out=base, where=~negative)
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
    # |base| < NEAR_ZERO with no float temporary
    degenerate = base < NEAR_ZERO
    degenerate &= base > -NEAR_ZERO
    degenerate &= usable
    return degenerate if degenerate.any() else None


def _scaled(
    op: np.ufunc, values: np.ndarray, factor: float, other: np.ndarray, out: np.ndarray | None,
) -> np.ndarray:
    """op(factor * values, other), written into ``out`` or into one new array.

    A quotient or product beyond the floating-point range is left as inf
    for ``aggregate`` to refuse."""
    with np.errstate(over="ignore"):
        if factor == 1.0:
            return op(values, other, out=out)
        out = np.multiply(values, factor, out=out)
        return op(out, other, out=out)


def _into(points: PointVector, out: np.ndarray | None) -> PointVector:
    """What a stage with nothing to compute returns: ``points`` itself, or
    its values copied into the caller's ``out``."""
    if out is None or out is points.values:
        return points
    np.copyto(out, points.values)
    return PointVector(out, points.usable, points.actions)


def normalize(
    points: PointVector,
    pair: SeriesPair,
    spec: NormalizerSpec,
    policy: EvaluationPolicy = FAIL_FAST,
    *,
    out: np.ndarray | None = None,
) -> PointVector:
    """Divide point values by the normalizer base raised to its exponent.

    Near-zero bases (|base| < 1e-12) at usable points are degenerate and
    handled per ``policy.zero_denominator``: fail on the first one, skip
    them, or add an epsilon to the base before dividing.  Exponent -1
    multiplies by the base instead and has no degenerate case.  A base,
    or squared base, beyond the floating-point range raises
    NormalizerOverflow whatever the policy.  The values are written into
    ``out`` when it is given (it may be ``points.values``), else into a
    new array.
    """
    if spec.kind is NormKind.UNITARY:
        return _into(points, out)
    base = _normalizer_base(pair, spec)
    usable = points.usable
    actions = points.actions

    if spec.exponent == -1:
        _extremes(base)  # refuses a base beyond the floating-point range
        return PointVector(_scaled(np.multiply, points.values, spec.factor, base, out), usable, actions)

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
        return PointVector(_scaled(np.divide, points.values, spec.factor, base, out), usable, actions)
    values = np.where(usable, points.values, 0.0)
    safe = np.where(usable, base, 1.0)
    return PointVector(_scaled(np.divide, values, spec.factor, safe, out), usable, actions)


def apply_point_transform(
    points: PointVector,
    pair: SeriesPair,
    transform: PointTransform,
    *,
    out: np.ndarray | None = None,
) -> PointVector:
    """Apply the optional per-point map to normalized values, written into
    ``out`` when it is given (it may be ``points.values``), else into a
    new array."""
    if transform is PointTransform.IDENTITY:
        return _into(points, out)
    # a value beyond the floating-point range is left as inf for ``aggregate``
    with np.errstate(over="ignore"):
        values = np.expm1(points.values, out=out)
    if transform is PointTransform.SIGNED_EXP_MINUS_ONE:
        # times sign(P - A), and sign(0) = 0: a perfect point contributes
        # nothing to the bias
        a, p = pair.actuals, pair.predicted
        np.multiply(values, -1.0, out=values, where=p < a)
        np.multiply(values, 0.0, out=values, where=p == a)
    return PointVector(values, points.usable, points.actions)


def aggregate(
    points: PointVector,
    aggregator: Aggregator,
    policy: EvaluationPolicy = FAIL_FAST,
    *,
    overwrite_input: bool = False,
) -> float:
    """Collapse the usable point values to one number.

    The geometric mean is undefined when any usable value is zero or
    negative and the harmonic mean when any is zero or the reciprocals sum
    to zero; both raise regardless of policy.  A mean, median, truncated
    or winsorized mean whose running sum leaves the floating-point range is
    computed again on the values scaled by a power of two; a sum beyond
    that range raises RangeOverflow.
    With ``overwrite_input`` (NumPy's ``np.median`` name) the point values
    may be reordered or overwritten: sorted, partitioned or logged in place.
    """
    v = points.usable_values()
    if v.size == 0:
        raise EmptyAggregation()
    # a gathered subset is this call's own array
    overwrite = overwrite_input or v is not points.values
    with np.errstate(over="ignore", invalid="ignore"):
        value = _reduce(v, aggregator, overwrite)
        if not math.isfinite(value) and aggregator.kind in _SCALABLE:
            value = _rescaled(v, aggregator)
    if not math.isfinite(value):
        raise RangeOverflow("aggregate of the point values")
    return value


def _rescaled(v: np.ndarray, aggregator: Aggregator) -> float:
    """The reduction taken on ``v / 2**k`` and multiplied back by 2**k,
    where 2**k exceeds the number of values: no running sum of the scaled
    values leaves the floating-point range.  Scaling by a power of two is
    exact for every value not within a factor 2**k of the subnormals."""
    k = v.size.bit_length()
    with np.errstate(under="ignore"):
        scaled = _reduce(np.ldexp(v, -k), aggregator, True)
    try:
        return math.ldexp(scaled, k)
    except OverflowError:
        return math.inf


def _reduce(v: np.ndarray, aggregator: Aggregator, overwrite: bool) -> float:
    m = v.size
    kind = aggregator.kind
    if kind is AggKind.MEAN:
        return float(v.mean())
    if kind is AggKind.MEDIAN:
        return float(np.median(v, overwrite_input=overwrite))
    if kind is AggKind.GEOMETRIC_MEAN:
        if v.min() <= 0:
            raise GeometricMeanDomain()
        with np.errstate(under="ignore"):
            product = float(np.prod(v))
        if 0.0 < product < np.inf:
            return float(product ** (1.0 / m))
        # the running product left double range; the log form cannot
        return float(np.exp(np.mean(np.log(v, out=v if overwrite else None))))
    if kind is AggKind.SUM:
        return float(v.sum())
    if kind is AggKind.MAXIMUM:
        return float(v.max())
    if kind is AggKind.HARMONIC_MEAN:
        return _harmonic_mean(v, overwrite)
    k = int(aggregator.fraction * m)
    if overwrite:
        v.sort()
        s = v
    else:
        s = np.sort(v)
    if kind is AggKind.TRUNCATED_MEAN:
        return float(s[k:m - k].mean())
    if kind is AggKind.WINSORIZED_MEAN:
        if k:
            s[:k] = s[k]
            s[m - k:] = s[m - k - 1]
        return float(s.mean())
    raise AssertionError(f"unexpected aggregator kind {kind!r}")


def _harmonic_mean(v: np.ndarray, overwrite: bool) -> float:
    """m / Σ1/v; where Σ1/v leaves the floating-point range, m·s / Σ(s/v)
    with s = min|v|, whose terms are at most 1 in magnitude.  The
    reciprocals overwrite ``v`` only where their sum cannot leave the
    range, so ``v`` is still there for that second sum."""
    m = v.size
    lo, hi = float(v.min()), float(v.max())
    s = lo if lo > 0 else -hi if hi < 0 else float(np.abs(v).min())
    if s == 0:
        raise HarmonicMeanDomain()
    # |Σ1/v| ≤ m/s; the factor 2 leaves room for rounding
    in_place = overwrite and math.isfinite(2 * m / s)
    total = float(np.sum(np.divide(1.0, v, out=v if in_place else None)))
    scale = 1.0
    if not math.isfinite(total):
        scale, total = s, float(np.sum(np.divide(s, v)))
    if total == 0:
        raise HarmonicMeanDomain("harmonic mean undefined: the reciprocals sum to zero")
    return m * scale / total


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
    # the distances are this call's own array: every later stage writes there
    work = pv.values
    pv = normalize(pv, pair, comp.normalizer, policy, out=work)
    pv = apply_point_transform(pv, pair, comp.transform, out=work)
    value = aggregate(pv, comp.aggregator, policy, overwrite_input=True)
    for post in comp.post:
        value = apply_post(value, post)
    return MetricResult(
        value=float(value),
        dimension=dimension_of(comp),
        points_total=pv.n,
        points_skipped=pv.n - pv.n_usable,
        actions=pv.actions,
    )
