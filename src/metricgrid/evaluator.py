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
``point_distances`` allocated; ``normalize`` builds its base, and
``apply_point_transform`` its P - A weight, one block of points at a
time, so a clean composition needs no other point-length float array.
A clean vector, one where every point is usable, carries its pair's one
read-only all-True mask (``SeriesPair.all_points``), so clean data is
never masked, gathered or copied; masks are built only where the policy
touches a point or a check has failed.  A stage that keeps its input's
mask carries its usable count over, so each mask is counted at most once
and the all-True one never.  ``normalize`` divides every point
alike, then applies the policy to the degenerate points alone; it reports
a base that is not a finite number first, then a zero denominator, then
every point skipped, and a squared base beyond range last.  The points a
policy touches are gathered and scattered by index array (``np.compress``
for the usable values ``aggregate`` reduces), never by a point-length
boolean mask, and the default epsilon is found once per pair
(``SeriesPair.smallest_nonzero_actual``), not once per metric.

``SeriesPair`` validation keeps the smallest and largest value of each
series.  A stage skips a screen of its values (the overflow scan of the
error distances, the range check of the log quotients, and per normalizer
block the base's extremes, its near-zero points and the overflow of its
square) only where interval arithmetic on those extremes proves the
screen would find nothing (``_proven``).  Where it cannot, the screen
runs as before, so the errors raised and their order are unchanged.
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
    ValidationError,
    ZeroDenominator,
)
from .types import (
    NEAR_ZERO,
    AggKind,
    Aggregator,
    Dimension,
    Distance,
    EvaluationPolicy,
    Extremes,
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
# memory to the system and fault it in again on the next call.  The
# geometric mean's ``_product`` uses the same blocks to decide how often to
# check whether the running product has reached inf or 0; as each block
# begins at the running product, any block size gives the same bits.
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
        proven = _proven(*_difference_bounds(pair.extremes), square=kind is Distance.SQUARED_ERROR)
        if not proven and not -math.inf < d.min() <= d.max() < math.inf:
            raise DistanceOverflow(int(np.argmin(np.isfinite(d))))
        return PointVector.every_point(d, pair)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratio = p / a
    # every quotient positive, and none overflowed or underflowed: proven
    # from the extremes, else screened (a NaN from 0/0 fails both tests)
    bounds = _ratio_bounds(pair.extremes)
    proven = bounds is not None and _proven(*bounds, floor=_SMALLEST_NORMAL)
    if proven or ratio.min() >= _SMALLEST_NORMAL and ratio.max() < np.inf:
        usable, actions = pair.all_points, NO_ACTIONS
        values = np.log(ratio, out=ratio)
    else:
        # the quotients that are zero, subnormal, inf or NaN, by index
        abnormal = np.flatnonzero(~((ratio >= _SMALLEST_NORMAL) & (ratio < np.inf)))
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
        ratio[abnormal] = 1.0
        values = np.log(ratio, out=ratio)
        # where the quotient over- or underflowed, the logs are taken apart
        spilled = abnormal[usable[abnormal]]
        values[spilled] = np.log(np.abs(p[spilled])) - np.log(np.abs(a[spilled]))
    if kind is Distance.ABS_LOG_QUOTIENT:
        np.abs(values, out=values)
    if usable is pair.all_points:
        return PointVector.every_point(values, pair)
    return PointVector(values, usable, actions)


def _proven(lo: float, hi: float, *, floor: float = -math.inf, square: bool = False) -> bool:
    """Whether a screen of values known to lie within [lo, hi] would find
    nothing: every value there is finite, at least ``floor`` in magnitude
    (no test when it is -inf) and, with ``square``, has a finite square.

    The bounds are worked out from a pair's extremes by the same float
    operation that builds each point's value.  Rounding is monotone, so
    they bound every point's value exactly, and a screen skipped because
    of them would have found nothing."""
    if not -math.inf < lo <= hi < math.inf:
        return False
    if not (lo >= floor or hi <= -floor):
        return False
    return not square or max(-lo, hi) * max(-lo, hi) < math.inf


def _difference_bounds(e: Extremes) -> tuple[float, float]:
    """Bounds of A - P."""
    return e.a_lo - e.p_hi, e.a_hi - e.p_lo


def _ratio_bounds(e: Extremes) -> tuple[float, float] | None:
    """Bounds of P / A when A and P are of one strict sign, else None."""
    if e.a_lo > 0 and e.p_lo > 0:
        return e.p_lo / e.a_hi, e.p_hi / e.a_lo
    if e.a_hi < 0 and e.p_hi < 0:
        return e.p_hi / e.a_lo, e.p_lo / e.a_hi
    return None


def _magnitudes(lo: float, hi: float) -> tuple[float, float]:
    """Bounds of |x| for x within [lo, hi]."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def _base_bounds(e: Extremes, spec: NormalizerSpec, center: float) -> tuple[float, float]:
    """Bounds of the normalizer base before its exponent, from the pair's
    extremes (see ``_normalizer_base``)."""
    kind = spec.kind
    if kind is NormKind.BY_SUM:
        if spec.absolute:
            (a_lo, a_hi), (p_lo, p_hi) = _magnitudes(e.a_lo, e.a_hi), _magnitudes(e.p_lo, e.p_hi)
            return a_lo + p_lo, a_hi + p_hi
        return e.a_lo + e.p_lo, e.a_hi + e.p_hi
    if kind is NormKind.BY_MAX:
        return max(e.a_lo, e.p_lo), max(e.a_hi, e.p_hi)
    if kind is NormKind.BY_MIN:
        return min(e.a_lo, e.p_lo), min(e.a_hi, e.p_hi)
    lo, hi = (e.a_lo - center, e.a_hi - center) if kind is NormKind.BY_VARIABILITY else (e.a_lo, e.a_hi)
    return _magnitudes(lo, hi) if spec.absolute else (lo, hi)


def _normalizer_base(
    pair: SeriesPair, spec: NormalizerSpec, center: float, part: slice | np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """The base before its exponent at the points ``part``, a slice or an
    index array: ``pair.actuals[part]`` itself for plain BY_ACTUALS (a
    read-only view for a slice), otherwise written into ``out``.
    ``center`` is the mean of all the actuals, the BY_VARIABILITY centre.
    The sums and the mean may leave the floating-point range:
    ``_extremes`` refuses such a base.  The caller ignores overflow.
    The predictions are gathered only for a base that reads them."""
    a = pair.actuals[part]
    e = pair.extremes
    if spec.kind is NormKind.BY_ACTUALS:
        # |A| is A itself when every actual is positive (-0.0 is not)
        return np.abs(a, out=out) if spec.absolute and not e.a_lo > 0 else a
    if spec.kind is NormKind.BY_VARIABILITY:
        dev = np.subtract(a, center, out=out)
        return np.abs(dev, out=dev) if spec.absolute else dev
    p = pair.predicted[part]
    if spec.kind is NormKind.BY_SUM:
        if not spec.absolute or e.a_lo > 0 and e.p_lo > 0:
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


def _first_inf(squares: np.ndarray) -> int | None:
    """The first position of a square beyond the floating-point range, or
    None when there is none."""
    return int(np.argmax(squares == np.inf)) if squares.max() == np.inf else None


def _scaled(
    op: np.ufunc, values: np.ndarray, factor: float, other: np.ndarray, out: np.ndarray,
) -> None:
    """op(factor * values, other), written into ``out``.

    A quotient or product beyond the floating-point range is left as inf
    for ``aggregate`` to refuse, and a quotient by a zero base as inf or
    NaN for ``normalize``'s policy step to replace; the caller ignores
    those floating-point errors."""
    if factor != 1.0:
        values = np.multiply(values, factor, out=out)
    op(values, other, out=out)


def _into(points: PointVector, out: np.ndarray | None) -> PointVector:
    """What a stage with nothing to compute returns: ``points`` itself, or
    its values copied into the caller's ``out``."""
    if out is None or out is points.values:
        return points
    np.copyto(out, points.values)
    return points.with_values(out)


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
    multiplies by the base instead and has no degenerate case.  Every
    point is divided, one block at a time, before the policy acts on the
    degenerate points alone; a point not usable is then set to 0 (times
    the factor).  Of coexisting failures the first raised is a base that
    is not a finite number, anywhere (NormalizerOverflow); then a zero
    denominator (ZeroDenominator: the first degenerate point under fail;
    under epsilon, every actual zero or the first base still near zero);
    then every point skipped (AllPointsSkipped); last, a squared base
    beyond the floating-point range (NormalizerOverflow).  The values are
    written into ``out`` when it is given (it may be ``points.values``),
    else into a new array; when an error is raised ``out`` may hold part
    of the result.
    """
    if spec.kind is NormKind.UNITARY:
        return _into(points, out)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _normalize(points, pair, spec, policy, out)


def _normalize(
    points: PointVector,
    pair: SeriesPair,
    spec: NormalizerSpec,
    policy: EvaluationPolicy,
    out: np.ndarray | None,
) -> PointVector:
    """``normalize`` for a base other than UNITARY, with floating-point
    errors ignored.  Where the pair's extremes prove that the base is
    finite and clear of zero, and its square finite, the blocks are only
    built and divided: no screen of them could find anything."""
    n = points.n
    center = float(pair.actuals.mean()) if spec.kind is NormKind.BY_VARIABILITY else 0.0
    proven = _proven(*_base_bounds(pair.extremes, spec, center),
                     floor=-math.inf if spec.exponent == -1 else NEAR_ZERO, square=spec.exponent == 2)
    if out is None:
        out = np.empty(n)
    buf = np.empty(min(n, _BLOCK))
    op = np.multiply if spec.exponent == -1 else np.divide
    corrects = policy.zero_denominator is ZeroDenominatorPolicy.EPSILON
    hits: list[np.ndarray] = []  # the degenerate usable points, block by block
    numerators: list[np.ndarray] = []  # their values under epsilon, before ``out`` may overwrite them
    overflows: list[int] = []  # first points whose squared base is beyond range

    for start in range(0, n, _BLOCK):
        part = slice(start, min(start + _BLOCK, n))
        base = _normalizer_base(pair, spec, center, part, buf[:part.stop - start])
        values = points.values[part]
        if not proven:
            lo, hi = _extremes(base, start)
            degenerate = None if spec.exponent == -1 else _near_zero(base, points.usable[part], lo, hi)
            if degenerate is not None:
                at = np.flatnonzero(degenerate)  # an index array gathers faster than a mask
                hits.append(at + start)
                if corrects:
                    numerators.append(values[at])
        if spec.exponent == 2:
            base = np.square(base, out=buf[:base.size])
            first = None if proven else _first_inf(base)
            if first is not None:
                overflows.append(start + first)
        _scaled(op, values, spec.factor, base, out[part])

    usable, actions = points.usable, points.actions
    if hits:
        degenerate = np.concatenate(hits)
        if policy.zero_denominator is ZeroDenominatorPolicy.FAIL:
            raise ZeroDenominator(int(degenerate[0]))
        if policy.zero_denominator is ZeroDenominatorPolicy.SKIP:
            usable = usable.copy()
            usable[degenerate] = False
            out[degenerate] = 0.0 * spec.factor
            actions = actions.with_run(SKIP_ZERO_DENOMINATOR, degenerate)
            if not usable.any():
                raise AllPointsSkipped("skip policy removed every point (zero denominators)")
        else:
            eps = policy.epsilon
            if eps is None:
                eps = pair.smallest_nonzero_actual
                if eps == 0.0:
                    raise ZeroDenominator(message="epsilon correction impossible: every actual is zero")
            base = _normalizer_base(pair, spec, center, degenerate, np.empty(degenerate.size)) + eps
            still = np.abs(base) < NEAR_ZERO
            if still.any():
                raise ZeroDenominator(int(degenerate[np.argmax(still)]))
            if spec.exponent == 2:
                base = np.square(base, out=base)
                first = _first_inf(base)
                if first is not None:
                    overflows.append(int(degenerate[first]))
            corrected = np.concatenate(numerators)
            _scaled(np.divide, corrected, spec.factor, base, corrected)
            out[degenerate] = corrected
            actions = actions.with_run(EPSILON_CORRECTED, degenerate)
    if overflows:
        raise NormalizerOverflow(min(overflows))
    if spec.exponent != -1 and not points.clean:
        out[np.flatnonzero(~points.usable)] = 0.0 * spec.factor
    if usable is points.usable:
        return points.with_values(out, actions)
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
    new array.  A value beyond the floating-point range, and any value at
    a skipped point, is left as it comes for ``aggregate``, which reads
    only the usable points and refuses inf.  The weight P - A is built one
    block of points at a time into one small buffer."""
    if transform is PointTransform.IDENTITY:
        return _into(points, out)
    a, p = pair.actuals, pair.predicted
    with np.errstate(over="ignore", invalid="ignore"):
        if transform is PointTransform.TIMES_PREDICTED:
            values = np.multiply(points.values, p, out=out)
        elif transform is PointTransform.TIMES_DIFFERENCE:
            n = points.n
            values = np.empty(n) if out is None else out
            buf = np.empty(min(n, _BLOCK))
            for start in range(0, n, _BLOCK):
                part = slice(start, start + _BLOCK)
                x = points.values[part]
                np.multiply(x, np.subtract(p[part], a[part], out=buf[:x.size]), out=values[part])
        else:
            values = np.expm1(points.values, out=out)
    if transform is PointTransform.SIGNED_EXP_MINUS_ONE:
        # times sign(P - A), and sign(0) = 0: a perfect point contributes
        # nothing to the bias; one int8 sign, no masked (branching) loop
        sign = (p > a).view(np.int8)
        sign -= (p < a).view(np.int8)
        np.multiply(values, sign, out=values)
    return points.with_values(values)


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
            product = _product(v)
        if _SMALLEST_NORMAL <= product < np.inf:
            return float(product ** (1.0 / m))
        # the running product left the normal range (a subnormal keeps too
        # few digits); the log form cannot
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


def _product(v: np.ndarray) -> float:
    """``np.prod(v)`` of positive values, bit for bit, or inf or 0 as soon
    as the running product reaches either, which it cannot then leave.

    NumPy multiplies a reduction in order, so blocks each begun at the
    running product give the product itself.  A subnormal running product
    goes on: it may still return to the normal range."""
    product = 1.0
    for start in range(0, v.size, _BLOCK):
        product = float(np.multiply.reduce(v[start:start + _BLOCK], initial=product))
        if product == 0.0 or product == math.inf:
            break
    return product


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


# the power of the data's unit in each distance's unit
_DATA_DEGREE = {
    Distance.ERROR: 1, Distance.ABSOLUTE_ERROR: 1, Distance.SQUARED_ERROR: 2,
    Distance.LOG_QUOTIENT: 0, Distance.ABS_LOG_QUOTIENT: 0,
}
_BY_DEGREE = (Dimension.DIMENSIONLESS, Dimension.SAME_AS_DATA,
              Dimension.SQUARED_DATA, Dimension.CUBED_DATA)


def dimension_of(comp: MetricComposition) -> Dimension:
    """Unit class implied by a composition.

    Without a normalizer the unit is the distance's, times the data's
    once more under a weighting transform (P or P - A), and halved by a
    sqrt post transform.  A sqrt of an odd power of the data's unit has
    no unit class; such a composition raises ValidationError.
    """
    for post in comp.post:
        if post.kind is PostKind.SYMMETRIC_ACCURACY:
            return Dimension.PERCENT
        if post.kind is PostKind.SCALE and post.k == 100.0:
            return Dimension.PERCENT
    if comp.normalizer.kind is not NormKind.UNITARY:
        return Dimension.DIMENSIONLESS
    degree = _DATA_DEGREE[comp.distance]
    if comp.transform in (PointTransform.TIMES_PREDICTED, PointTransform.TIMES_DIFFERENCE):
        degree += 1
    if any(post.kind is PostKind.SQRT for post in comp.post):
        if degree % 2:
            raise ValidationError(f"a sqrt of data to the power {degree} has no unit class")
        degree //= 2
    return _BY_DEGREE[degree]


def evaluate(
    pair: SeriesPair,
    comp: MetricComposition,
    policy: EvaluationPolicy = FAIL_FAST,
) -> MetricResult:
    """Run the full pipeline for one composition.

    Returns a MetricResult carrying the value, its unit class and the
    diagnostics of every policy intervention.  Raises an EvaluationError
    subtype when the data is degenerate and the policy says fail, or when
    an aggregation or transform domain is violated, and ValidationError
    when the value has no unit class (see ``dimension_of``).
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
