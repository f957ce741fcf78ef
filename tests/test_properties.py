"""Structural invariants checked over generated inputs."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import catalog_compositions, rel_close
from metricgrid import formulas as F
from metricgrid import evaluator
from metricgrid.cli import parse_cell
from metricgrid.errors import (
    AllPointsSkipped,
    MetricError,
    NormalizerOverflow,
    ZeroDenominator,
)
from metricgrid.evaluator import (
    aggregate,
    apply_point_transform,
    apply_post,
    dimension_of,
    evaluate,
    normalize,
    point_distances,
)
from metricgrid.registry import composed_definitions, evaluate_named
from metricgrid.types import (
    Aggregator,
    AggKind,
    Distance,
    EvaluationPolicy,
    LogRatioPolicy,
    MetricComposition,
    MetricResult,
    NormalizerSpec,
    NormKind,
    PointTransform,
    NEAR_ZERO,
    PointVector,
    SeriesPair,
    ZeroDenominatorPolicy,
    smallest_nonzero_actual,
)

positive_value = st.floats(min_value=0.5, max_value=10.0)


@st.composite
def positive_pairs(draw, min_size=2, max_size=16):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    a = np.array(draw(st.lists(positive_value, min_size=n, max_size=n)))
    p = np.array(draw(st.lists(positive_value, min_size=n, max_size=n)))
    return a, p


def vector(values: np.ndarray) -> PointVector:
    return PointVector(values, np.ones(values.size, dtype=bool), ())


class TestDistanceIdentities:
    @given(positive_pairs())
    def test_squared_error_is_square_of_absolute(self, ap):
        a, p = ap
        pair = SeriesPair(a, p)
        d2 = point_distances(pair, Distance("D2")).values
        d3 = point_distances(pair, Distance("D3")).values
        assert np.array_equal(d3, d2 * d2)

    @given(positive_pairs())
    def test_abs_log_quotient_is_abs_of_log_quotient(self, ap):
        a, p = ap
        pair = SeriesPair(a, p)
        d4 = point_distances(pair, Distance("D4")).values
        d5 = point_distances(pair, Distance("D5")).values
        assert np.array_equal(d5, np.abs(d4))


class TestScaleBehaviour:
    @given(positive_pairs(), st.floats(min_value=0.1, max_value=50.0))
    def test_data_scale_metrics_are_equivariant(self, ap, k):
        pair = SeriesPair(*ap)
        for name in ("MAE", "RMSE", "MdAE"):
            base = evaluate_named(pair, name).value
            scaled = evaluate_named(pair.scaled(k), name).value
            assert rel_close(scaled, k * base)

    @given(positive_pairs(), st.floats(min_value=0.1, max_value=50.0))
    def test_ratio_metrics_are_invariant(self, ap, k):
        pair = SeriesPair(*ap)
        for name in ("MAPE", "sMAPE", "MdSA", "MARE", "MdLAR"):
            base = evaluate_named(pair, name).value
            scaled = evaluate_named(pair.scaled(k), name).value
            assert rel_close(scaled, base)


class TestSwapBehaviour:
    @given(positive_pairs())
    def test_me_is_antisymmetric(self, ap):
        pair = SeriesPair(*ap)
        assert evaluate_named(pair.swapped(), "ME").value == -evaluate_named(pair, "ME").value

    @given(positive_pairs())
    def test_mdlar_is_antisymmetric(self, ap):
        pair = SeriesPair(*ap)
        assert rel_close(
            evaluate_named(pair.swapped(), "MdLAR").value,
            -evaluate_named(pair, "MdLAR").value,
        )

    @given(positive_pairs())
    def test_symmetric_metrics_ignore_role_swap(self, ap):
        pair = SeriesPair(*ap)
        assert evaluate_named(pair.swapped(), "sMAPE").value == evaluate_named(pair, "sMAPE").value
        for name in ("MdSA", "MNAFE"):
            assert rel_close(
                evaluate_named(pair.swapped(), name).value,
                evaluate_named(pair, name).value,
            )


class TestAggregatorLaws:
    @given(st.lists(positive_value, min_size=1, max_size=32))
    def test_geometric_mean_never_exceeds_mean(self, values):
        v = np.array(values)
        gm = aggregate(vector(v), Aggregator(AggKind.GEOMETRIC_MEAN))
        am = aggregate(vector(v), Aggregator(AggKind.MEAN))
        assert gm <= am * (1 + 1e-12)

    @given(st.lists(positive_value, min_size=1, max_size=32))
    def test_sum_is_count_times_mean(self, values):
        v = np.array(values)
        total = aggregate(vector(v), Aggregator(AggKind.SUM))
        mean = aggregate(vector(v), Aggregator(AggKind.MEAN))
        assert rel_close(total, v.size * mean)

    @given(st.lists(positive_value, min_size=3, max_size=32), st.data())
    def test_median_resists_one_outlier(self, values, data):
        v = np.array(values)
        index = data.draw(st.integers(min_value=0, max_value=v.size - 1))
        spiked = v.copy()
        spiked[index] = 1e6 * v.max()
        median = aggregate(vector(spiked), Aggregator(AggKind.MEDIAN))
        assert v.min() <= median <= v.max()


class TestPerfectPrediction:
    @given(positive_pairs(min_size=3))
    @settings(max_examples=25)
    def test_every_composed_metric_reports_zero(self, ap):
        a, _ = ap
        assume(np.abs(a - a.mean()).min() > 1e-3)  # variability normalizers
        pair = SeriesPair(a, a.copy())
        for defn in composed_definitions():
            if defn.composition.aggregator.kind is AggKind.GEOMETRIC_MEAN:
                continue  # geometric mean is undefined on zero distances
            result = evaluate_named(pair, defn.abbreviation)
            assert result.value == 0.0, defn.abbreviation


class TestDiagnostics:
    @given(positive_pairs(min_size=2, max_size=12), st.data())
    def test_skipped_points_are_conserved(self, ap, data):
        a, p = ap
        zero_count = data.draw(st.integers(min_value=1, max_value=a.size - 1))
        indices = data.draw(
            st.permutations(range(a.size)).map(lambda order: sorted(order[:zero_count]))
        )
        a = a.copy()
        a[indices] = 0.0
        pair = SeriesPair(a, p)
        policy = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.SKIP)
        result = evaluate_named(pair, "MARE", policy)
        assert result.points_total == a.size
        assert result.points_skipped == zero_count
        assert [action.index for action in result.policy_actions] == indices
        assert np.isfinite(result.value)

    @given(positive_pairs())
    def test_clean_inputs_leave_no_diagnostics(self, ap):
        pair = SeriesPair(*ap)
        result = evaluate_named(pair, "MAPE")
        assert result.points_skipped == 0
        assert result.policy_actions == ()


class TestSquareRootFamilies:
    @given(positive_pairs())
    def test_rmspe_is_root_of_mspe(self, ap):
        pair = SeriesPair(*ap)
        assert rel_close(
            evaluate_named(pair, "RMSPE").value,
            evaluate_named(pair, "MSPE").value ** 0.5,
        )

    @given(positive_pairs())
    def test_grmse_equals_gmae(self, ap):
        # the root of a geometric mean of squares is the geometric mean
        # of the absolute values
        a, p = ap
        assume(np.abs(a - p).min() > 1e-9)
        pair = SeriesPair(a, p)
        assert rel_close(
            evaluate_named(pair, "GRMSE").value,
            evaluate_named(pair, "GMAE").value,
        )


class TestDivergence:
    @given(positive_pairs())
    def test_jd_is_nonnegative_on_positive_pairs(self, ap):
        a, p = ap
        assert F.jd(a, p) >= -1e-15

    @given(positive_pairs())
    def test_dual_routes_agree_on_clean_data(self, ap):
        pair = SeriesPair(*ap)
        assume(np.abs(pair.actuals - pair.predicted).min() > 1e-6)
        assume(np.abs(pair.actuals - pair.actuals.mean()).min() > 1e-3)
        for name in ("MAE", "RMSE", "MAPE", "sMAPE", "MdRAE", "GMRAE", "MdSA"):
            pipeline = evaluate_named(pair, name).value
            direct = getattr(F, name.lower().replace("_", ""))(pair.actuals, pair.predicted)
            assert rel_close(pipeline, direct), name


# --- stages never write their inputs ---------------------------------------

STAGE_POLICIES = [
    EvaluationPolicy(),
    EvaluationPolicy(ZeroDenominatorPolicy.SKIP, LogRatioPolicy.SKIP),
    EvaluationPolicy(ZeroDenominatorPolicy.EPSILON, LogRatioPolicy.SKIP),
]
NORMALIZERS = [NormalizerSpec(NormKind.UNITARY)] + [
    NormalizerSpec(kind, exponent, absolute, factor)
    for kind in NormKind if kind is not NormKind.UNITARY
    for exponent in (-1, 1, 2)
    for absolute in ((False,) if kind in (NormKind.BY_MAX, NormKind.BY_MIN) else (False, True))
    for factor in (1.0, 2.0)
]
AGGREGATORS = [Aggregator(kind) for kind in AggKind if kind not in (
    AggKind.TRUNCATED_MEAN, AggKind.WINSORIZED_MEAN)] + [
    Aggregator(AggKind.TRUNCATED_MEAN, 0.2), Aggregator(AggKind.WINSORIZED_MEAN, 0.2)]

degenerate_value = st.one_of(st.just(0.0), st.floats(-50.0, 50.0, allow_nan=False, width=16))


@st.composite
def stage_pairs(draw):
    """Clean positive pairs, or pairs with zeros, sign changes and exact points."""
    n = draw(st.integers(min_value=1, max_value=12))
    value = draw(st.sampled_from([positive_value, degenerate_value]))
    a = draw(st.lists(value, min_size=n, max_size=n))
    p = draw(st.lists(value, min_size=n, max_size=n))
    return SeriesPair(a, p)


def read_only(points: PointVector) -> tuple[PointVector, list[tuple[np.ndarray, bytes]]]:
    """A copy of the vector whose arrays cannot be written, plus their bytes."""
    values, usable = points.values.copy(), points.usable.copy()
    values.setflags(write=False)
    usable.setflags(write=False)
    return PointVector(values, usable, points.actions), [
        (values, values.tobytes()), (usable, usable.tobytes())]


def unchanged(kept: list[tuple[np.ndarray, bytes]]) -> bool:
    return all(arr.tobytes() == data for arr, data in kept)


class TestStagesDoNotWriteInputs:
    @given(stage_pairs(), st.sampled_from(STAGE_POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_no_stage_writes_a_callers_array(self, pair, policy):
        kept = [(pair.actuals, pair.actuals.tobytes()), (pair.predicted, pair.predicted.tobytes())]
        assert not pair.actuals.flags.writeable and not pair.predicted.flags.writeable
        # overflow in a stage is not what this checks
        with np.errstate(all="ignore"):
            for distance in Distance:
                try:
                    distances = point_distances(pair, distance, policy)
                except MetricError:
                    continue
                distances, kept_distances = read_only(distances)
                for spec in NORMALIZERS:
                    try:
                        normed = normalize(distances, pair, spec, policy)
                    except MetricError:
                        continue
                    # with ``out`` only ``out`` is written, and it holds the values
                    own = distances.values.copy()
                    for given, out in ((distances, np.empty(pair.n)),
                                       (PointVector(own, distances.usable, distances.actions), own)):
                        written = normalize(given, pair, spec, policy, out=out)
                        assert written.values is out
                        assert out.tobytes() == normed.values.tobytes()
                    normed, kept_normed = read_only(normed)
                    for transform in PointTransform:
                        plain = apply_point_transform(normed, pair, transform)
                        out = np.empty(pair.n)
                        assert apply_point_transform(normed, pair, transform, out=out).values is out
                        assert out.tobytes() == plain.values.tobytes()
                    for aggregator in AGGREGATORS:
                        try:
                            aggregate(normed, aggregator, policy)
                        except MetricError:
                            pass
                        writable = PointVector(normed.values.copy(), normed.usable, normed.actions)
                        try:
                            aggregate(writable, aggregator, policy, overwrite_input=True)
                        except MetricError:
                            pass
                    normed.usable_values()
                    assert unchanged(kept_normed)
                assert unchanged(kept_distances)
        assert unchanged(kept)

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @given(st.integers(min_value=0, max_value=15), st.data())
    @settings(max_examples=40, deadline=None)
    def test_median_reads_without_writing(self, parity, half, data):
        n = 2 * half + parity
        assume(n > 0)
        values = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        for usable in (np.ones(n, dtype=bool), mask):
            if not usable.any():
                continue
            points, kept = read_only(PointVector(values, usable))
            assert aggregate(points, Aggregator(AggKind.MEDIAN)) == np.median(values[usable])
            assert unchanged(kept)


# --- evaluate() computes in place what the stages compute ------------------

GRID = [parse_cell(f"d{d},n{n},g{g}") for d in range(1, 6) for n in range(1, 6) for g in range(1, 5)]
COMPOSITIONS = [MetricComposition(d, NormalizerSpec(n), Aggregator(g)) for d, n, g in GRID] + [
    comp for _, comp in catalog_compositions()]


def outcome(run):
    """A result as its value's bits, skip count and policy runs; an error
    as its type and index."""
    try:
        result = run()
    except MetricError as exc:
        return type(exc).__name__, getattr(exc, "index", None)
    runs = [(label, indices.tolist()) for label, indices in result.actions.runs]
    return result.value.hex(), result.points_skipped, runs


def staged(pair, comp, policy):
    """The five stages with their non-writing defaults."""
    pv = point_distances(pair, comp.distance, policy)
    pv = normalize(pv, pair, comp.normalizer, policy)
    pv = apply_point_transform(pv, pair, comp.transform)
    value = aggregate(pv, comp.aggregator, policy)
    for post in comp.post:
        value = apply_post(value, post)
    return MetricResult(value, dimension_of(comp), pv.n, pv.n - pv.n_usable, pv.actions)


class TestOwnedBufferPath:
    def test_grid_and_catalog_cover_what_they_claim(self):
        assert len(set(GRID)) == 100
        assert len(COMPOSITIONS) == 155

    @given(st.one_of(positive_pairs(min_size=1).map(lambda ap: SeriesPair(*ap)), stage_pairs()),
           st.sampled_from(STAGE_POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_agrees_with_the_non_writing_stages(self, pair, policy):
        for comp in COMPOSITIONS:
            assert outcome(lambda: evaluate(pair, comp, policy)) == outcome(
                lambda: staged(pair, comp, policy)), comp


# --- the median and sign kernels keep the bits of the NumPy calls they replace

median_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e308, 1.7e308, -1.7e308, math.inf, -math.inf]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def median_inputs(draw):
    """Values of odd and even counts with ties, zeros of both signs, ±inf,
    values whose middle pair overflows and maybe one NaN, plus a usable
    mask that is either all True or a skip-policy subset."""
    n = draw(st.integers(min_value=1, max_value=40))
    values = np.array(draw(st.lists(median_value, min_size=n, max_size=n)))
    nan_at = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    if nan_at is not None:
        values[nan_at] = math.nan
    usable = np.ones(n, dtype=bool)
    if draw(st.booleans()):
        usable = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assume(usable.any())
    return values, usable


def np_median_outcome(v):
    """What ``aggregate`` gave when it took the median with ``np.median``:
    the value's bits, taken again on v / 2**k when the plain median is not
    finite, or RangeOverflow."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        value = float(np.median(v))
        if not math.isfinite(value):
            k = v.size.bit_length()
            try:
                value = math.ldexp(float(np.median(np.ldexp(v, -k))), k)
            except OverflowError:
                value = math.inf
    return value.hex() if math.isfinite(value) else "RangeOverflow"


def aggregate_outcome(points, **kwargs):
    try:
        return aggregate(points, Aggregator(AggKind.MEDIAN), **kwargs).hex()
    except MetricError as exc:
        return type(exc).__name__


def masked_sign(values, pair):
    """sign(P - A) applied as two masked multiplies, written out as the
    reference for ``apply_point_transform``'s int8 sign."""
    a, p = pair.actuals, pair.predicted
    out = np.expm1(values)
    np.multiply(out, -1.0, out=out, where=p < a)
    np.multiply(out, 0.0, out=out, where=p == a)
    return out


signed_value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-50.0, 50.0, width=16))


@st.composite
def signed_pairs(draw):
    """Pairs with negative values and exact hits."""
    n = draw(st.integers(min_value=1, max_value=16))
    a = draw(st.lists(signed_value, min_size=n, max_size=n))
    p = [x if hit else y for x, y, hit in zip(
        a,
        draw(st.lists(signed_value, min_size=n, max_size=n)),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )]
    return SeriesPair(a, p)


SIGNED_COMPOSITIONS = [
    MetricComposition(distance, NormalizerSpec(norm), transform=PointTransform.SIGNED_EXP_MINUS_ONE)
    for distance in (Distance.ERROR, Distance.ABSOLUTE_ERROR)
    for norm in (NormKind.UNITARY, NormKind.BY_ACTUALS)
]


class TestKernels:
    @given(median_inputs())
    @settings(max_examples=300, deadline=None)
    def test_median_has_np_medians_bits(self, drawn):
        values, usable = drawn
        want = np_median_outcome(values[usable])
        read_only_values = values.copy()
        read_only_values.setflags(write=False)
        assert aggregate_outcome(PointVector(read_only_values, usable)) == want
        assert aggregate_outcome(PointVector(values.copy(), usable), overwrite_input=True) == want

    @given(signed_pairs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_sign_matches_the_masked_multiplies(self, pair, data):
        # any values, inf and NaN among them, on points with every sign of P - A
        values = np.array(data.draw(st.lists(
            st.floats(allow_subnormal=True), min_size=pair.n, max_size=pair.n)))
        with np.errstate(over="ignore", invalid="ignore"):
            want = masked_sign(values, pair)
            got = apply_point_transform(PointVector(values, pair.all_points), pair,
                                        PointTransform.SIGNED_EXP_MINUS_ONE)
        assert got.values.tobytes() == want.tobytes()
        # and through the pipeline, for compositions that carry the sign
        for comp in SIGNED_COMPOSITIONS:
            def reference():
                pv = point_distances(pair, comp.distance)
                pv = normalize(pv, pair, comp.normalizer)
                with np.errstate(over="ignore"):
                    signed = masked_sign(pv.values, pair)
                value = aggregate(PointVector(signed, pv.usable, pv.actions), comp.aggregator)
                return MetricResult(value, dimension_of(comp), pv.n, 0, pv.actions)
            assert outcome(lambda: evaluate(pair, comp)) == outcome(reference), comp


# --- the blocked normalizer base gives what the whole-array base gave -------


def whole_array_normalize(points, pair, spec, policy):
    """``normalize`` as it was written with a point-length base array,
    kept as the reference for the blocked base."""
    a, p = pair.actuals, pair.predicted
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is NormKind.BY_ACTUALS:
            base = np.abs(a) if spec.absolute else a
        elif spec.kind is NormKind.BY_VARIABILITY:
            base = a - a.mean()
            base = np.abs(base) if spec.absolute else base
        elif spec.kind is NormKind.BY_SUM:
            base = np.abs(a) + np.abs(p) if spec.absolute else a + p
        elif spec.kind is NormKind.BY_MAX:
            base = np.maximum(a, p)
        else:
            base = np.minimum(a, p)

    def near_zero(base, usable):
        if not np.isfinite(base).all():
            raise NormalizerOverflow(int(np.argmin(np.isfinite(base))))
        degenerate = (np.abs(base) < NEAR_ZERO) & usable
        return degenerate if degenerate.any() else None

    usable, actions, clean = points.usable, points.actions, points.clean
    with np.errstate(over="ignore"):
        if spec.exponent == -1:
            near_zero(base, usable)
            values = points.values * spec.factor if spec.factor != 1 else points.values
            return values * base, usable, actions
        degenerate = near_zero(base, usable)
        if degenerate is not None:
            mode = policy.zero_denominator
            if mode is ZeroDenominatorPolicy.FAIL:
                raise ZeroDenominator(int(np.argmax(degenerate)))
            if mode is ZeroDenominatorPolicy.SKIP:
                actions = actions.with_run(evaluator.SKIP_ZERO_DENOMINATOR, np.flatnonzero(degenerate))
                usable, clean = usable & ~degenerate, False
                if not usable.any():
                    raise AllPointsSkipped("skip policy removed every point (zero denominators)")
            else:
                eps = policy.epsilon
                if eps is None:
                    eps = smallest_nonzero_actual(a)
                    if eps == 0.0:
                        raise ZeroDenominator(message="epsilon correction impossible: every actual is zero")
                base = np.where(degenerate, base + eps, base)
                actions = actions.with_run(evaluator.EPSILON_CORRECTED, np.flatnonzero(degenerate))
                degenerate = near_zero(base, usable)
                if degenerate is not None:
                    raise ZeroDenominator(int(np.argmax(degenerate)))
        if spec.exponent == 2:
            base = np.square(base)
            if base.max() == np.inf:
                raise NormalizerOverflow(int(np.argmax(base == np.inf)))
        values = points.values if clean else np.where(usable, points.values, 0.0)
        if not clean:
            base = np.where(usable, base, 1.0)
        if spec.factor != 1:
            values = values * spec.factor
        return values / base, usable, actions


def normalize_outcome(run):
    """The values' and mask's bytes and the policy runs, or the error's
    type, index and message."""
    try:
        values, usable, actions = run()
    except MetricError as exc:
        return type(exc).__name__, getattr(exc, "index", None), str(exc)
    return values.tobytes(), usable.tobytes(), [(label, idx.tolist()) for label, idx in actions.runs]


block_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1.0, -1.0, 1e160, -1e160, 1e308, -1e308, 1.7e308]),
    st.floats(-100.0, 100.0, width=16),
)
BLOCK_POLICIES = STAGE_POLICIES + [
    EvaluationPolicy(ZeroDenominatorPolicy.FAIL, LogRatioPolicy.SKIP),
    EvaluationPolicy(ZeroDenominatorPolicy.EPSILON, LogRatioPolicy.SKIP, 0.5),
    EvaluationPolicy(ZeroDenominatorPolicy.EPSILON, LogRatioPolicy.SKIP, 1e-20),
]


@st.composite
def blocked_inputs(draw):
    """A pair with zeros, near-zero values and values whose sums or squares
    overflow; point values; a usable mask, all True or not; a block size."""
    n = draw(st.integers(min_value=1, max_value=20))
    a = draw(st.lists(block_value, min_size=n, max_size=n))
    p = draw(st.lists(block_value, min_size=n, max_size=n))
    pair = SeriesPair(a, p)
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    usable = pair.all_points
    if draw(st.booleans()):
        usable = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return pair, PointVector(values, usable), draw(st.integers(min_value=1, max_value=6))


class TestBlockedNormalize:
    @given(blocked_inputs())
    @settings(max_examples=200, deadline=None)
    def test_blocks_give_the_whole_array_result(self, drawn):
        pair, points, size = drawn
        block, evaluator._BLOCK = evaluator._BLOCK, size
        try:
            with np.errstate(all="ignore"):
                for spec in NORMALIZERS[1:]:
                    for policy in BLOCK_POLICIES:
                        def blocked():
                            pv = normalize(points, pair, spec, policy)
                            return pv.values, pv.usable, pv.actions
                        want = normalize_outcome(lambda: whole_array_normalize(points, pair, spec, policy))
                        assert normalize_outcome(blocked) == want, (spec, policy)
        finally:
            evaluator._BLOCK = block
