import math

import numpy as np
import pytest

from metricgrid import (
    Aggregator,
    AggKind,
    Dimension,
    Distance,
    EvaluationPolicy,
    LogRatioPolicy,
    MetricComposition,
    NormalizerSpec,
    NormKind,
    PointTransform,
    PostKind,
    PostTransform,
    ZeroDenominatorPolicy,
    evaluate_named,
    validate_series_pair,
)
from metricgrid.evaluator import (
    aggregate,
    apply_point_transform,
    dimension_of,
    evaluate,
    normalize,
    point_distances,
)
from metricgrid.types import PointVector
from metricgrid.errors import (
    AllPointsSkipped,
    EmptyAggregation,
    GeometricMeanDomain,
    HarmonicMeanDomain,
    NonpositiveLogRatio,
    SqrtDomain,
    ZeroDenominator,
)

PAIR = validate_series_pair([1, 2, 3, 4], [2, 2, 5, 3])
SKIP_ZERO = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.SKIP)
SKIP_LOG = EvaluationPolicy(nonpositive_log_ratio=LogRatioPolicy.SKIP)


def vector(values):
    values = np.asarray(values, dtype=float)
    return PointVector(values, np.ones(values.size, dtype=bool))


class TestPointDistances:
    def test_signed_error(self):
        pv = point_distances(PAIR, Distance.ERROR)
        assert pv.values.tolist() == [-1.0, 0.0, -2.0, 1.0]

    def test_absolute_is_magnitude_of_signed(self):
        signed = point_distances(PAIR, Distance.ERROR).values
        absolute = point_distances(PAIR, Distance.ABSOLUTE_ERROR).values
        assert np.array_equal(absolute, np.abs(signed))

    def test_squared_is_square_of_absolute_exactly(self):
        absolute = point_distances(PAIR, Distance.ABSOLUTE_ERROR).values
        squared = point_distances(PAIR, Distance.SQUARED_ERROR).values
        assert np.array_equal(squared, absolute ** 2)

    def test_log_quotient(self):
        pair = validate_series_pair([1, 2], [2, 4])
        pv = point_distances(pair, Distance.LOG_QUOTIENT)
        assert pv.values == pytest.approx([math.log(2)] * 2, rel=1e-15)

    def test_abs_log_quotient_is_magnitude(self):
        pair = validate_series_pair([4, 2], [2, 4])
        signed = point_distances(pair, Distance.LOG_QUOTIENT).values
        unsigned = point_distances(pair, Distance.ABS_LOG_QUOTIENT).values
        assert np.array_equal(unsigned, np.abs(signed))

    def test_nonpositive_ratio_fails_with_index(self):
        pair = validate_series_pair([1, -1, 2], [2, 1, 4])
        with pytest.raises(NonpositiveLogRatio) as exc:
            point_distances(pair, Distance.LOG_QUOTIENT)
        assert exc.value.index == 1

    def test_zero_actual_fails_log(self):
        pair = validate_series_pair([0, 2], [1, 4])
        with pytest.raises(NonpositiveLogRatio):
            point_distances(pair, Distance.LOG_QUOTIENT)

    def test_skip_policy_masks_and_records(self):
        pair = validate_series_pair([1, -1, 2], [2, 1, 4])
        pv = point_distances(pair, Distance.LOG_QUOTIENT, SKIP_LOG)
        assert pv.usable.tolist() == [True, False, True]
        assert [(a.index, a.action) for a in pv.actions] == [
            (1, "skipped:nonpositive-log-ratio")
        ]

    def test_skip_policy_cannot_remove_everything(self):
        pair = validate_series_pair([-1, -2], [1, 2])
        with pytest.raises(AllPointsSkipped):
            point_distances(pair, Distance.LOG_QUOTIENT, SKIP_LOG)


class TestNormalize:
    def test_unitary_is_identity(self):
        pv = vector([1, 2, 3])
        out = normalize(pv, validate_series_pair([1, 2, 3], [0, 0, 0]), NormalizerSpec(NormKind.UNITARY))
        assert out is pv

    def test_by_actuals_absolute(self):
        pv = point_distances(PAIR, Distance.ABSOLUTE_ERROR)
        out = normalize(pv, PAIR, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True))
        assert out.values == pytest.approx([1.0, 0.0, 2 / 3, 0.25], rel=1e-15)

    def test_signed_actuals_keep_sign(self):
        pair = validate_series_pair([-2, 2], [-1, 1])
        pv = point_distances(pair, Distance.ERROR)  # [-1, 1]
        out = normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS))
        assert out.values == pytest.approx([0.5, 0.5])

    def test_exponent_two(self):
        pair = validate_series_pair([2, 4], [4, 8])
        pv = point_distances(pair, Distance.SQUARED_ERROR)  # [4, 16]
        out = normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS, exponent=2))
        assert out.values == pytest.approx([1.0, 1.0])

    def test_exponent_minus_one_multiplies_without_zero_check(self):
        pair = validate_series_pair([0, 2], [1, 1])
        pv = vector([5, 7])
        out = normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS, exponent=-1))
        assert out.values == pytest.approx([0.0, 14.0])

    def test_numerator_factor(self):
        pv = point_distances(PAIR, Distance.ERROR)
        out = normalize(pv, PAIR, NormalizerSpec(NormKind.BY_SUM, factor=2.0))
        assert out.values == pytest.approx([-2 / 3, 0.0, -0.5, 2 / 7], rel=1e-15)

    def test_by_sum_absolute_sums_magnitudes(self):
        pair = validate_series_pair([-1, 2], [1, 2])
        pv = vector([1.0, 1.0])
        out = normalize(pv, pair, NormalizerSpec(NormKind.BY_SUM, absolute=True))
        # |A| + |P| = [2, 4], not |A + P| = [0, 4]
        assert out.values == pytest.approx([0.5, 0.25])

    def test_by_variability_and_max_min(self):
        pair = validate_series_pair([1, 3], [2, 1])
        pv = vector([1.0, 1.0])
        dev = normalize(pv, pair, NormalizerSpec(NormKind.BY_VARIABILITY, absolute=True))
        assert dev.values == pytest.approx([1.0, 1.0])
        mx = normalize(pv, pair, NormalizerSpec(NormKind.BY_MAX))
        assert mx.values == pytest.approx([0.5, 1 / 3])
        mn = normalize(pv, pair, NormalizerSpec(NormKind.BY_MIN))
        assert mn.values == pytest.approx([1.0, 1.0])

    def test_zero_denominator_fails_with_index(self):
        pair = validate_series_pair([0, 2], [1, 4])
        pv = point_distances(pair, Distance.ABSOLUTE_ERROR)
        with pytest.raises(ZeroDenominator) as exc:
            normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True))
        assert exc.value.index == 0

    def test_near_zero_counts_as_zero(self):
        pair = validate_series_pair([1e-13, 2], [1, 4])
        pv = point_distances(pair, Distance.ABSOLUTE_ERROR)
        with pytest.raises(ZeroDenominator):
            normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS))

    def test_skip_policy(self):
        pair = validate_series_pair([0, 2, 4], [1, 3, 5])
        pv = point_distances(pair, Distance.ABSOLUTE_ERROR)
        out = normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True), SKIP_ZERO)
        assert out.usable.tolist() == [False, True, True]
        assert out.usable_values() == pytest.approx([0.5, 0.25])
        assert [(a.index, a.action) for a in out.actions] == [(0, "skipped:zero-denominator")]

    def test_skip_all_raises(self):
        pair = validate_series_pair([0.0], [1.0])
        pv = point_distances(pair, Distance.ABSOLUTE_ERROR)
        with pytest.raises(AllPointsSkipped):
            normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS), SKIP_ZERO)

    def test_epsilon_smallest_nonzero_actual(self):
        # denominator at the zero actual becomes 0 + 2, the smallest nonzero |actual|
        pair = validate_series_pair([0, 2, 4], [1, 3, 5])
        pv = point_distances(pair, Distance.ABSOLUTE_ERROR)
        policy = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.EPSILON)
        out = normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True), policy)
        assert out.values == pytest.approx([0.5, 0.5, 0.25])
        assert [(a.index, a.action) for a in out.actions] == [(0, "epsilon-corrected")]

    def test_epsilon_fixed_value(self):
        pair = validate_series_pair([0, 2], [1, 4])
        pv = point_distances(pair, Distance.ABSOLUTE_ERROR)
        policy = EvaluationPolicy(
            zero_denominator=ZeroDenominatorPolicy.EPSILON, epsilon=0.5
        )
        out = normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS), policy)
        assert out.values == pytest.approx([2.0, 1.0])

    def test_epsilon_impossible_when_all_actuals_zero(self):
        pair = validate_series_pair([0, 0], [1, 2])
        pv = point_distances(pair, Distance.ABSOLUTE_ERROR)
        policy = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.EPSILON)
        with pytest.raises(ZeroDenominator):
            normalize(pv, pair, NormalizerSpec(NormKind.BY_ACTUALS), policy)


class TestPointTransformStage:
    def test_identity_returns_same_object(self):
        pv = vector([1.0])
        assert apply_point_transform(pv, PAIR, PointTransform.IDENTITY) is pv

    def test_exp_minus_one(self):
        pv = vector([math.log(2)])
        out = apply_point_transform(pv, validate_series_pair([1], [2]), PointTransform.EXP_MINUS_ONE)
        assert out.values == pytest.approx([1.0])

    def test_signed_exp_minus_one(self):
        pair = validate_series_pair([2, 1, 1], [1, 2, 1])
        pv = point_distances(pair, Distance.ABS_LOG_QUOTIENT)
        out = apply_point_transform(pv, pair, PointTransform.SIGNED_EXP_MINUS_ONE)
        # under-prediction negative, over-prediction positive, exact hit zero
        assert out.values == pytest.approx([-1.0, 1.0, 0.0])


class TestAggregate:
    def test_mean_median_sum_max(self):
        pv = vector([0, 1, 1, 2])
        assert aggregate(pv, Aggregator(AggKind.MEAN)) == 1.0
        assert aggregate(pv, Aggregator(AggKind.MEDIAN)) == 1.0
        assert aggregate(pv, Aggregator(AggKind.SUM)) == 4.0
        assert aggregate(pv, Aggregator(AggKind.MAXIMUM)) == 2.0

    def test_median_even_count_averages_middle_pair(self):
        assert aggregate(vector([1, 2, 10, 4]), Aggregator(AggKind.MEDIAN)) == 3.0

    def test_geometric_mean(self):
        got = aggregate(vector([2, 4]), Aggregator(AggKind.GEOMETRIC_MEAN))
        assert got == pytest.approx(math.sqrt(8), rel=1e-15)

    @pytest.mark.parametrize("values", [[1, 0, 2], [1, -1, 2]])
    def test_geometric_mean_domain(self, values):
        with pytest.raises(GeometricMeanDomain):
            aggregate(vector(values), Aggregator(AggKind.GEOMETRIC_MEAN))

    def test_geometric_mean_of_5000_points_warns_nothing(self):
        # ~10% errors on values near 100 multiply past the double range, so
        # the log form gives the value; the overflow must not leak a warning
        rng = np.random.default_rng(5)
        a = rng.uniform(50.0, 150.0, 5000)
        pair = validate_series_pair(a, a * (1.0 + rng.normal(0.0, 0.1, 5000)))
        errors = np.abs(pair.actuals - pair.predicted)
        with np.errstate(over="ignore"):
            assert math.isinf(np.prod(errors))
        got = evaluate_named(pair, "GMAE").value
        assert got == float(np.exp(np.mean(np.log(errors))))

    def test_harmonic_mean(self):
        got = aggregate(vector([1, 2, 4]), Aggregator(AggKind.HARMONIC_MEAN))
        assert got == pytest.approx(12 / 7, rel=1e-15)

    def test_harmonic_mean_domain(self):
        with pytest.raises(HarmonicMeanDomain):
            aggregate(vector([1, 0]), Aggregator(AggKind.HARMONIC_MEAN))

    def test_truncated_mean_drops_floor_fraction_each_end(self):
        pv = vector([100, 1, 2, 3, 4, -50])
        got = aggregate(pv, Aggregator(AggKind.TRUNCATED_MEAN, fraction=0.2))
        # floor(0.2 * 6) = 1 from each end
        assert got == pytest.approx(np.mean([1, 2, 3, 4]))

    def test_winsorized_mean_clamps_to_nearest_retained(self):
        pv = vector([100, 1, 2, 3, 4, -50])
        got = aggregate(pv, Aggregator(AggKind.WINSORIZED_MEAN, fraction=0.2))
        assert got == pytest.approx(np.mean([1, 1, 2, 3, 4, 4]))

    def test_trim_fraction_zero_is_plain_mean(self):
        pv = vector([1, 2, 3])
        assert aggregate(pv, Aggregator(AggKind.TRUNCATED_MEAN, fraction=0.0)) == 2.0

    def test_aggregation_ignores_masked_points(self):
        pv = PointVector(np.array([1.0, 99.0, 3.0]), np.array([True, False, True]))
        assert aggregate(pv, Aggregator(AggKind.MEAN)) == 2.0

    def test_empty_aggregation(self):
        pv = PointVector(np.array([]), np.array([], dtype=bool))
        with pytest.raises(EmptyAggregation):
            aggregate(pv, Aggregator(AggKind.MEAN))

    def test_constant_input_round_trips_through_mean_family(self):
        pv = vector([3.5, 3.5, 3.5])
        for kind in (AggKind.MEAN, AggKind.MEDIAN, AggKind.GEOMETRIC_MEAN,
                     AggKind.MAXIMUM, AggKind.HARMONIC_MEAN):
            assert aggregate(pv, Aggregator(kind)) == pytest.approx(3.5, rel=1e-15)


class TestEvaluate:
    def test_mae_composition(self):
        comp = MetricComposition(Distance.ABSOLUTE_ERROR)
        result = evaluate(PAIR, comp)
        assert result.value == 1.0
        assert result.dimension is Dimension.SAME_AS_DATA
        assert result.points_total == 4 and result.points_skipped == 0
        assert not result.degenerate

    def test_rmse_composition(self):
        comp = MetricComposition(Distance.SQUARED_ERROR, post=(PostTransform(PostKind.SQRT),))
        assert evaluate(PAIR, comp).value == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_percent_scaling(self):
        comp = MetricComposition(
            Distance.ABSOLUTE_ERROR,
            NormalizerSpec(NormKind.BY_ACTUALS, absolute=True),
            post=(PostTransform(PostKind.SCALE, 100.0),),
        )
        result = evaluate(PAIR, comp)
        assert result.value == pytest.approx(47.916666666666664)
        assert result.dimension is Dimension.PERCENT

    def test_sqrt_domain_on_negative_aggregate(self):
        pair = validate_series_pair([1], [3])
        comp = MetricComposition(Distance.ERROR, post=(PostTransform(PostKind.SQRT),))
        with pytest.raises(SqrtDomain):
            evaluate(pair, comp)

    def test_degenerate_flag_and_conservation(self):
        pair = validate_series_pair([0, 2, 4], [1, 3, 5])
        comp = MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True))
        result = evaluate(pair, comp, SKIP_ZERO)
        assert result.degenerate
        assert result.points_total == 3
        assert result.points_skipped == 1
        assert result.points_total - result.points_skipped == 2

    def test_perfect_prediction_is_exactly_zero(self):
        pair = validate_series_pair([1.5, 2.5, 3.5], [1.5, 2.5, 3.5])
        for distance in (Distance.ERROR, Distance.ABSOLUTE_ERROR, Distance.SQUARED_ERROR):
            comp = MetricComposition(distance)
            assert evaluate(pair, comp).value == 0.0


class TestDimensionRules:
    @pytest.mark.parametrize(
        "comp,expected",
        [
            (MetricComposition(Distance.ERROR), Dimension.SAME_AS_DATA),
            (MetricComposition(Distance.SQUARED_ERROR), Dimension.SQUARED_DATA),
            (
                MetricComposition(Distance.SQUARED_ERROR, post=(PostTransform(PostKind.SQRT),)),
                Dimension.SAME_AS_DATA,
            ),
            (
                MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_ACTUALS)),
                Dimension.DIMENSIONLESS,
            ),
            (
                MetricComposition(Distance.SQUARED_ERROR, NormalizerSpec(NormKind.BY_SUM)),
                Dimension.DIMENSIONLESS,
            ),
            (MetricComposition(Distance.LOG_QUOTIENT), Dimension.DIMENSIONLESS),
            (MetricComposition(Distance.ABS_LOG_QUOTIENT), Dimension.DIMENSIONLESS),
            (
                MetricComposition(
                    Distance.ABSOLUTE_ERROR,
                    NormalizerSpec(NormKind.BY_ACTUALS),
                    post=(PostTransform(PostKind.SCALE, 100.0),),
                ),
                Dimension.PERCENT,
            ),
            (
                MetricComposition(
                    Distance.ABS_LOG_QUOTIENT,
                    post=(PostTransform(PostKind.SYMMETRIC_ACCURACY),),
                ),
                Dimension.PERCENT,
            ),
        ],
    )
    def test_dimension_of(self, comp, expected):
        assert dimension_of(comp) is expected
