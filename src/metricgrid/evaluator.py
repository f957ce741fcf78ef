"""Staged evaluation pipeline.

Every composed metric is computed the same way: per-point distances,
normalization with degeneracy policy, an optional per-point transform,
aggregation to a scalar, then post-transforms.  The stages are exposed
individually so compositions can be inspected or reused piecemeal.

No stage writes to its inputs: a stage writes only arrays it allocated
itself in that call, or the ``out`` its caller passes it (NumPy's ufunc
convention; ``out`` may be ``points.values``).  ``aggregate`` may reorder
or overwrite the point values only when given ``overwrite_input=True``.
The median is taken by one single-pivot partition, in place only under
``overwrite_input=True`` (else of a copy), and has ``np.median``'s value
bit for bit.  ``evaluate`` passes every stage the array
``point_distances`` allocated, and ``normalize`` builds its base one
block of points at a time, so a clean composition needs no other
point-length float array.  A clean vector, one where every point is
usable, carries its pair's one read-only all-True mask
(``SeriesPair.all_points``), so clean data is never masked, gathered or
copied; masks are built only where the policy touches a point or a check
has failed.
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
# points per block of the normalizer base (256 KiB of floats).  A base as
# long as the points would be a second point-length array; freed together
# with the distances, two such arrays can make the C allocator return their
# memory to the system and fault it in again on the next call.
_BLOCK = 1 << 15


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


def _normalizer_base(
    pair: SeriesPair, spec: NormalizerSpec, center: float, part: slice, out: np.ndarray,
) -> np.ndarray:
    """The base before its exponent at the points ``part``; a read-only
    view of the actuals for plain BY_ACTUALS, otherwise written into
    ``out``.  ``center`` is the mean of all the actuals, the BY_VARIABILITY
    centre.  The sums and the mean may leave the floating-point range:
    ``_extremes`` refuses such a base."""
    a, p = pair.actuals[part], pair.predicted[part]
    if spec.kind is NormKind.BY_ACTUALS:
        return np.abs(a, out=out) if spec.absolute else a
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is NormKind.BY_VARIABILITY:
            dev = np.subtract(a, center, out=out)
            return np.abs(dev, out=dev) if spec.absolute else dev
        if spec.kind is NormKind.BY_SUM:
            if not spec.absolute:
                return np.add(a, p, out=out)
            # absolute variant sums magnitudes, it is not |A + P|; |P| - A
            # is |P| + |A| exactly where A is negative, with no second array
            base = np.abs(p, out=out)
            negative = np.signbit(a)
            np.subtract(base, a, out=base, where=negative)
            return np.add(base, a, out=base, where=~negative)
    if spec.kind is NormKind.BY_MAX:
        return np.maximum(a, p, out=out)
    if spec.kind is NormKind.BY_MIN:
        return np.minimum(a, p, out=out)
    raise AssertionError(f"unexpected normalizer kind {spec.kind!r}")


def _extremes(base: np.ndarray, start: int) -> tuple[float, float]:
    """Smallest and largest value of a block of the base that begins at
    point ``start``; NormalizerOverflow names the first point whose base
    is not a finite number."""
    lo, hi = float(base.min()), float(base.max())
    if not -math.inf < lo <= hi < math.inf:
        raise NormalizerOverflow(start + int(np.argmin(np.isfinite(base))))
    return lo, hi


def _near_zero(base: np.ndarray, usable: np.ndarray, lo: float, hi: float) -> np.ndarray | None:
    """Mask of the usable points whose base is near zero, or None when
    there is none.  No mask is built when the extremes ``lo`` and ``hi``
    show that every point is clear of zero."""
    if lo >= NEAR_ZERO or hi <= -NEAR_ZERO:
        return None
    # |base| < NEAR_ZERO with no float temporary
    degenerate = base < NEAR_ZERO
    degenerate &= base > -NEAR_ZERO
    degenerate &= usable
    return degenerate if degenerate.any() else None


def _scaled(
    op: np.ufunc, values: np.ndarray, factor: float, other: np.ndarray, out: np.ndarray,
) -> None:
    """op(factor * values, other), written into ``out``.

    A quotient or product beyond the floating-point range is left as inf
    for ``aggregate`` to refuse."""
    with np.errstate(over="ignore"):
        if factor != 1.0:
            values = np.multiply(values, factor, out=out)
        op(values, other, out=out)


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
    NormalizerOverflow whatever the policy; a base that is not a finite
    number takes precedence over every other error.  The values are
    written into ``out`` when it is given (it may be ``points.values``),
    else into a new array; when an error is raised ``out`` may hold part
    of the result.  The base is built one block of points at a time into
    one small buffer, so no point-length base array is allocated.
    """
    if spec.kind is NormKind.UNITARY:
        return _into(points, out)
    n = points.n
    center = 0.0
    if spec.kind is NormKind.BY_VARIABILITY:
        with np.errstate(over="ignore"):
            center = pair.actuals.mean()
    if out is None:
        out = np.empty(n)
    buf = np.empty(min(n, _BLOCK))
    mode = policy.zero_denominator
    eps = policy.epsilon
    clean = points.clean
    usable = points.usable
    hits: list[np.ndarray] = []  # the degenerate usable points, block by block
    # first point still near zero after the epsilon, first squared base beyond range
    still = overflow = None
    # once a degenerate base is an error, later blocks are only checked for
    # a non-finite base; after a squared base overflows, nothing is divided
    failed = False

    for start in range(0, n, _BLOCK):
        part = slice(start, min(start + _BLOCK, n))
        base = _normalizer_base(pair, spec, center, part, buf[:part.stop - start])
        lo, hi = _extremes(base, start)
        if failed:
            continue
        values = points.values[part]
        if spec.exponent == -1:
            _scaled(np.multiply, values, spec.factor, base, out[part])
            continue
        ok = usable[part]
        degenerate = _near_zero(base, ok, lo, hi)
        if degenerate is not None:
            hits.append(np.flatnonzero(degenerate) + start)
            if mode is ZeroDenominatorPolicy.FAIL:
                failed = True
                continue
            if mode is ZeroDenominatorPolicy.SKIP:
                if usable is points.usable:
                    usable = usable.copy()
                ok = usable[part]
                ok &= ~degenerate
                clean = False
            else:
                if eps is None:
                    eps = smallest_nonzero_actual(pair.actuals)
                    if eps == 0.0:
                        failed = True
                        continue
                base = np.where(degenerate, base + eps, base)
                again = _near_zero(base, ok, *_extremes(base, start))
                if again is not None:
                    still, failed = start + int(np.argmax(again)), True
                    continue
        if spec.exponent == 2:
            with np.errstate(over="ignore"):
                base = np.square(base, out=buf[:base.size])
            if overflow is None and base.max() == np.inf:
                overflow = start + int(np.argmax(base == np.inf))
        if overflow is not None:
            continue
        if not clean:
            values = np.where(ok, values, 0.0)
            base = np.where(ok, base, 1.0)
        _scaled(np.divide, values, spec.factor, base, out[part])

    actions = points.actions
    if hits:
        degenerate = np.concatenate(hits)
        if mode is ZeroDenominatorPolicy.FAIL:
            raise ZeroDenominator(int(degenerate[0]))
        if mode is ZeroDenominatorPolicy.SKIP:
            actions = actions.with_run(SKIP_ZERO_DENOMINATOR, degenerate)
            if not usable.any():
                raise AllPointsSkipped("skip policy removed every point (zero denominators)")
        else:
            if eps == 0.0 and policy.epsilon is None:
                raise ZeroDenominator(message="epsilon correction impossible: every actual is zero")
            actions = actions.with_run(EPSILON_CORRECTED, degenerate)
            if still is not None:
                raise ZeroDenominator(still)
    if overflow is not None:
        raise NormalizerOverflow(overflow)
    return PointVector(out, usable, actions)


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
        # nothing to the bias; one int8 sign, no masked (branching) loop
        a, p = pair.actuals, pair.predicted
        sign = (p > a).view(np.int8)
        sign -= (p < a).view(np.int8)
        np.multiply(values, sign, out=values)
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
        return _median(v, overwrite)
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


def _median(v: np.ndarray, overwrite: bool) -> float:
    """``np.median(v)``, bit for bit, by one single-pivot partition.

    ``np.median`` partitions at several pivots (the middle values and the
    last, for its NaN check), which takes NumPy's generic introselect;
    one pivot takes its vectorised path.  The lower middle value of an
    even count is the largest value below the pivot.  NaN sorts last, so
    it lies above the pivot; as in ``np.median`` it makes the result NaN.
    ``+ 0.0`` turns a -0.0 into 0.0, as ``np.median``'s mean does."""
    if not overwrite:
        v = v.copy()
    h = v.size // 2
    v.partition(h)
    if math.isnan(v[h:].max()):
        return math.nan
    hi = float(v[h])
    if v.size % 2:
        return hi + 0.0
    return (float(v[:h].max()) + hi + 0.0) / 2


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
