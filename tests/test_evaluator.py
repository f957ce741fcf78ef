import json
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import catalog_compositions
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
    registry,
    validate_series_pair,
)
from metricgrid import evaluator
from metricgrid.derived import evaluate_metric
from metricgrid.evaluator import (
    aggregate,
    apply_point_transform,
    dimension_of,
    evaluate,
    normalize,
    point_distances,
)
from metricgrid.types import MetricResult, PointVector
from metricgrid.errors import (
    AllPointsSkipped,
    DistanceOverflow,
    MetricError,
    EmptyAggregation,
    GeometricMeanDomain,
    HarmonicMeanDomain,
    NonFiniteResult,
    NonpositiveLogRatio,
    NormalizerOverflow,
    RangeOverflow,
    SqrtDomain,
    ValidationError,
    ZeroDenominator,
)
from metricgrid import formulas

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

    @pytest.mark.parametrize("in_place", [False, True])
    def test_weights_span_blocks(self, in_place):
        # the P - A weight is built block by block; the products keep their bits
        rng = np.random.default_rng(15)
        n = 2 * evaluator._BLOCK + 7
        pair = validate_series_pair(rng.uniform(-5.0, 5.0, n), rng.uniform(-5.0, 5.0, n))
        x = rng.uniform(-3.0, 3.0, n)
        a, p = pair.actuals, pair.predicted
        for transform, weight in ((PointTransform.TIMES_PREDICTED, p),
                                  (PointTransform.TIMES_DIFFERENCE, p - a)):
            pv = vector(x.copy())
            out = apply_point_transform(pv, pair, transform, out=pv.values if in_place else None)
            assert (out.values is pv.values) is in_place
            assert np.array_equal(out.values, weight * x)

    def test_weight_beyond_range_at_a_skipped_point_is_not_read(self):
        # P - A overflows where the log ratio is skipped; no warning, no inf
        pair = validate_series_pair([1e308, 2.0], [-1e308, 3.0])
        result = evaluate_named(pair, "JD", SKIP_LOG)
        assert result.value == math.log(1.5)
        assert result.points_skipped == 1


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

    def test_geometric_mean_of_a_subnormal_product_goes_through_the_logs(self):
        # 1e-160 * 1e-160 is a subnormal with a few significant digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = aggregate(vector([1e-160, 1e-160]), Aggregator(AggKind.GEOMETRIC_MEAN))
        assert math.isclose(got, 1e-160, rel_tol=1e-14)

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


class TestUsableCount:
    """A stage that keeps its input's mask carries its usable count over,
    and a clean vector from ``point_distances`` has it from the pair, so
    ``np.count_nonzero`` runs once per mask the policy builds and never on
    clean data."""

    @staticmethod
    def counted(monkeypatch):
        sizes = []
        count = np.count_nonzero

        def counting(a, *args, **kwargs):
            sizes.append(np.size(a))
            return count(a, *args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", counting)
        return sizes

    def test_clean_compositions_count_no_mask(self, monkeypatch):
        rng = np.random.default_rng(17)
        pair = validate_series_pair(rng.uniform(1.0, 10.0, 1000), rng.uniform(1.0, 10.0, 1000))
        sizes = self.counted(monkeypatch)
        skipped = {label: evaluate(pair, comp).points_skipped for label, comp in catalog_compositions()}
        assert sizes == []
        assert set(skipped.values()) == {0}

    @pytest.mark.parametrize("comp, skipped", [
        # the log distances build the mask; normalize and the transform keep it
        (MetricComposition(Distance.ABS_LOG_QUOTIENT, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True),
                           transform=PointTransform.TIMES_PREDICTED), 2),
        # normalize builds the mask from a clean distance vector
        (MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_ACTUALS, absolute=True),
                           transform=PointTransform.TIMES_PREDICTED), 1),
    ], ids=["log-skip", "zero-skip"])
    def test_a_built_mask_is_counted_once(self, monkeypatch, comp, skipped):
        pair = validate_series_pair([0.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.5, 5.0])
        policy = EvaluationPolicy(ZeroDenominatorPolicy.SKIP, LogRatioPolicy.SKIP)
        sizes = self.counted(monkeypatch)
        assert evaluate(pair, comp, policy).points_skipped == skipped
        assert sizes == [4]


class TestAllocation:
    """``evaluate`` computes in the one array ``point_distances`` allocates.

    tracemalloc sees NumPy's data buffers, so the traced peak of one call
    on a clean pair counts the point-length arrays it holds at once: the
    distances, the normalizer's base where it has to build one, and at
    most two boolean masks of a check.  No timing, so no flakiness."""

    N = 100_000
    FLOAT = 8 * N
    SLACK = 2 * N + 64 * 1024

    @staticmethod
    def builds_base(spec):
        if spec.kind is NormKind.UNITARY:
            return False
        # plain BY_ACTUALS divides by the pair's own actuals unless squared
        return spec.kind is not NormKind.BY_ACTUALS or spec.absolute or spec.exponent == 2

    def test_peak_is_the_distances_and_the_base(self):
        rng = np.random.default_rng(11)
        pair = validate_series_pair(rng.uniform(1.0, 10.0, self.N), rng.uniform(1.0, 10.0, self.N))
        over = {}
        for label, comp in catalog_compositions():
            evaluate(pair, comp)  # the pair's shared mask is built once, untraced
            tracemalloc.start()
            try:
                evaluate(pair, comp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            limit = self.FLOAT * (1 + self.builds_base(comp.normalizer)) + self.SLACK
            if peak > limit:
                over[label] = round(peak / self.FLOAT, 3)
        assert over == {}

    def test_normalizer_base_is_built_in_blocks(self):
        # the distances, one block of the base and the two boolean masks
        rng = np.random.default_rng(13)
        pair = validate_series_pair(rng.uniform(1.0, 10.0, self.N), rng.uniform(1.0, 10.0, self.N))
        block = 8 * evaluator._BLOCK
        assert block < self.FLOAT
        over = {}
        for label, comp in catalog_compositions():
            evaluate(pair, comp)
            tracemalloc.start()
            try:
                evaluate(pair, comp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if peak > self.FLOAT + block + self.SLACK:
                over[label] = round(peak / self.FLOAT, 3)
        assert over == {}

    def test_recipe_statistics_take_one_array(self):
        # the benchmark statistic, which has no ``of``, is a composition held above
        recipes = [spec.recipe for d in registry.list_metrics() for spec in (d, *d.variants.values())]
        statistics = {r.statistic for r in recipes if r is not None and r.statistic.of is not None}
        series = np.random.default_rng(14).uniform(1.0, 10.0, self.N)
        over = {}
        for stat in statistics:
            stat.of(series)
            tracemalloc.start()
            try:
                stat.of(series)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if peak > self.FLOAT + self.SLACK:
                over[stat.name] = round(peak / self.FLOAT, 3)
        assert len(statistics) == 9 and over == {}


class TestOverflow:
    """Finite inputs whose distances leave double range raise, without a warning."""

    HUGE = validate_series_pair([1e308, -1e308, 1], [-1e308, 1e308, 2])

    @pytest.mark.parametrize(
        "kind", [Distance.ERROR, Distance.ABSOLUTE_ERROR, Distance.SQUARED_ERROR]
    )
    def test_distance_names_the_first_overflowing_point(self, kind):
        with pytest.raises(DistanceOverflow) as info:
            point_distances(self.HUGE, kind)
        assert info.value.index == 0

    def test_square_of_a_finite_error_can_overflow(self):
        pair = validate_series_pair([1.0, 1e200, -1e200], [2.0, -1e200, 1e200])
        assert point_distances(pair, Distance.ABSOLUTE_ERROR).values[1] == 2e200
        with pytest.raises(DistanceOverflow) as info:
            point_distances(pair, Distance.SQUARED_ERROR)
        assert info.value.index == 1

    @pytest.mark.parametrize("name", ["MAE", "RMSE", "ME", "MSE", "MaxAE"])
    def test_named_metric_raises_without_warning(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DistanceOverflow):
                evaluate_named(self.HUGE, name)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_result_refuses_a_value_that_is_not_finite(self, value):
        with pytest.raises(NonFiniteResult) as info:
            MetricResult(value, Dimension.SAME_AS_DATA, 3, 0)
        assert info.value.value is value


class TestRangeOverflow:
    """Bases, aggregates and log quotients beyond double range, from finite
    inputs: a typed error or the right finite value, never a warning (the
    suite turns every RuntimeWarning into an error)."""

    BIG_SUM = validate_series_pair([1e308, 1e308, 1], [1.5e308, 1.7e308, 2])

    @pytest.mark.parametrize(
        "name,variant",
        [("FB", None), ("sMAPE", None), ("sMAPE", "absolute"), ("CM", None),
         ("MRAE", None), ("RAE", "option1"), ("GMRAE", None)],
    )
    def test_normalizer_base_names_the_first_overflowing_point(self, name, variant):
        # A + P and the mean of A overflow; FB and sMAPE used to read -0.22 and 22.2
        with pytest.raises(NormalizerOverflow) as info:
            evaluate_named(self.BIG_SUM, name, variant=variant)
        assert info.value.index == 0

    def test_squared_base_overflow_is_refused(self):
        # the squared error is finite, the squared actual is not
        pair = validate_series_pair([2.0, 1e160], [3.0, 1e160 * (1 + 1e-10)])
        with pytest.raises(NormalizerOverflow) as info:
            evaluate_named(pair, "MSPE")
        assert info.value.index == 1

    @pytest.mark.parametrize("kind", [AggKind.SUM])
    def test_aggregate_beyond_double_range_is_refused(self, kind):
        with pytest.raises(RangeOverflow):
            aggregate(vector([1e308, 1e308, 1.0]), Aggregator(kind))

    @pytest.mark.parametrize("kind", [AggKind.MEAN, AggKind.TRUNCATED_MEAN])
    def test_aggregate_whose_running_sum_overflows_is_finite(self, kind):
        # the sum leaves double range, the mean (2e308 + 1) / 3 does not
        values = [1e308, 1e308, 1.0]
        exact = float(sum(map(Fraction, values)) / 3)
        assert aggregate(vector(values), Aggregator(kind)) == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize(
        "aggregator,values,expected",
        [(Aggregator(AggKind.MEDIAN), [1e308, 1.5e308], 1.25e308),
         (Aggregator(AggKind.WINSORIZED_MEAN, 0.25), [1.0, 1.5e308, 1.5e308, 1e308], 1.25e308),
         (Aggregator(AggKind.TRUNCATED_MEAN, 0.25), [1.0, 1.5e308, 1.5e308, 1.7e308], 1.5e308)],
    )
    def test_order_aggregate_whose_sum_overflows_is_finite(self, aggregator, values, expected):
        assert aggregate(vector(values), aggregator) == pytest.approx(expected, rel=1e-15)

    def test_mean_error_near_double_range_is_the_error(self):
        pair = validate_series_pair([1e308, 1e308], [0.0, 0.0])
        for name in ("MAE", "MdAE", "ME"):
            assert evaluate_named(pair, name).value == 1e308

    def test_large_finite_aggregate_keeps_its_bits(self):
        v = vector([1e307, 3e307, 5e307])
        assert aggregate(v, Aggregator(AggKind.MEAN)) == float(np.mean(v.values))
        assert aggregate(v, Aggregator(AggKind.SUM)) == float(np.sum(v.values))

    @pytest.mark.parametrize(
        "actual,predicted",
        [([1e-5, 2.0], [1e308, 3.0]),      # P/A overflows
         ([1e-10, 2.0], [1e300, 3.0]),
         ([1e300, 2.0], [1e-10, 3.0]),     # P/A underflows
         ([-1e300, 2.0], [-1e-10, 3.0])],
    )
    def test_log_quotient_beyond_double_range_is_usable(self, actual, predicted):
        pair = validate_series_pair(actual, predicted)
        a, p = pair.actuals, pair.predicted
        mdlar = evaluate_named(pair, "MdLAR").value
        assert math.isfinite(mdlar)
        assert mdlar == pytest.approx(formulas.mdlar(a, p), rel=1e-12)
        by_hand = [math.log(abs(float(y))) - math.log(abs(float(x))) for x, y in zip(a, p)]
        assert mdlar == pytest.approx(sum(by_hand) / 2, rel=1e-12)

    def test_kld_is_finite_where_its_sum_is(self):
        for actual, predicted in (([1e-10, 2.0], [1e300, 3.0]), ([1e300, 2.0], [1e-10, 3.0])):
            pair = validate_series_pair(actual, predicted)
            kld = evaluate_named(pair, "KLD").value
            assert kld == pytest.approx(formulas.kld(pair.actuals, pair.predicted), rel=1e-12)

    def test_kld_beyond_double_range_is_refused(self):
        # 1e308 * ln(1e313) is about 7.2e310, out of range
        pair = validate_series_pair([1e-5, 2.0], [1e308, 3.0])
        with pytest.raises(RangeOverflow):
            evaluate_named(pair, "KLD")

    @pytest.mark.parametrize("name", ["MdSA", "MNAFE", "MNFB"])
    def test_exponential_of_a_huge_log_is_refused(self, name):
        pair = validate_series_pair([1e-5], [1e308])
        with pytest.raises(RangeOverflow):
            evaluate_named(pair, name)


class TestHarmonicMeanRange:
    """The harmonic mean of values whose reciprocals leave the double range,
    or cancel, on the plain and the overwriting path."""

    HARMONIC = Aggregator(AggKind.HARMONIC_MEAN)

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("values, want", [
        ([5e-324, 1.0], 1e-323),
        ([6e-309, 6e-309], 6e-309),
        ([5e-324, -5e-324, 1.0], 3.0),
        ([1.0, 2.0, 4.0], 1.7142857142857142),
        ([-1.0, -2.0, -4.0], -1.7142857142857142),
    ])
    def test_value(self, values, want, overwrite):
        assert aggregate(vector(values), self.HARMONIC, overwrite_input=overwrite) == want

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("values", [[1.0, -1.0], [2.0, -4.0, -4.0], [5e-324, -5e-324]])
    def test_reciprocals_summing_to_zero_are_a_domain_error(self, values, overwrite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HarmonicMeanDomain, match="sum to zero"):
                aggregate(vector(values), self.HARMONIC, overwrite_input=overwrite)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_finite_reciprocal_sum_keeps_its_bits(self, overwrite):
        rng = np.random.default_rng(4)
        values = rng.uniform(-5.0, 5.0, 1001)
        want = float(1001 / np.sum(1.0 / values))
        assert aggregate(vector(values), self.HARMONIC, overwrite_input=overwrite) == want


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
            # a weight (P or P - A) adds one data degree to the distance's unit
            (
                MetricComposition(Distance.LOG_QUOTIENT, transform=PointTransform.TIMES_PREDICTED),
                Dimension.SAME_AS_DATA,
            ),
            (
                MetricComposition(Distance.ABS_LOG_QUOTIENT, transform=PointTransform.TIMES_DIFFERENCE),
                Dimension.SAME_AS_DATA,
            ),
            (
                MetricComposition(Distance.ERROR, transform=PointTransform.TIMES_DIFFERENCE),
                Dimension.SQUARED_DATA,
            ),
            (
                MetricComposition(Distance.ABSOLUTE_ERROR, transform=PointTransform.TIMES_PREDICTED),
                Dimension.SQUARED_DATA,
            ),
            (
                MetricComposition(Distance.SQUARED_ERROR, transform=PointTransform.TIMES_PREDICTED),
                Dimension.CUBED_DATA,
            ),
            (
                MetricComposition(
                    Distance.SQUARED_ERROR,
                    NormalizerSpec(NormKind.BY_ACTUALS),
                    transform=PointTransform.TIMES_DIFFERENCE,
                ),
                Dimension.DIMENSIONLESS,
            ),
            # a sqrt halves an even degree
            (
                MetricComposition(
                    Distance.ERROR,
                    transform=PointTransform.TIMES_DIFFERENCE,
                    post=(PostTransform(PostKind.SQRT),),
                ),
                Dimension.SAME_AS_DATA,
            ),
            (
                MetricComposition(Distance.LOG_QUOTIENT, post=(PostTransform(PostKind.SQRT),)),
                Dimension.DIMENSIONLESS,
            ),
        ],
    )
    def test_dimension_of(self, comp, expected):
        assert dimension_of(comp) is expected

    @pytest.mark.parametrize(
        "comp",
        [
            MetricComposition(Distance.ABSOLUTE_ERROR, post=(PostTransform(PostKind.SQRT),)),
            MetricComposition(
                Distance.SQUARED_ERROR,
                transform=PointTransform.TIMES_PREDICTED,
                post=(PostTransform(PostKind.SQRT),),
            ),
        ],
    )
    def test_sqrt_of_an_odd_degree_has_no_unit_class(self, comp):
        with pytest.raises(ValidationError, match="no unit class"):
            dimension_of(comp)
        with pytest.raises(ValidationError, match="no unit class"):
            evaluate(PAIR, comp)


# --- bit pin ------------------------------------------------------------
#
# Every implemented catalog name and variant, run on seeded pairs, must give
# the bits, skip counts and policy runs recorded in data/evaluator_bits.json.
# Regenerate the file (only for a deliberate change of values) with
#     python tests/test_evaluator.py > tests/data/evaluator_bits.json

BITS_PATH = Path(__file__).parent / "data" / "evaluator_bits.json"
BIT_MEMBERS = [(d.abbreviation, v) for d in registry.list_metrics() for v in (None, *d.variants)]
BIT_SCENARIOS = {
    "clean-fail": ("clean", EvaluationPolicy()),
    "degenerate-skip": (
        "degenerate",
        EvaluationPolicy(ZeroDenominatorPolicy.SKIP, LogRatioPolicy.SKIP),
    ),
    "degenerate-epsilon": (
        "degenerate",
        EvaluationPolicy(ZeroDenominatorPolicy.EPSILON, LogRatioPolicy.SKIP),
    ),
}


def seeded_inputs(kind, n=300):
    """Pair, benchmark pair and history from Python's own generator, so the
    data does not depend on the NumPy version.

    The clean pair has no degenerate point for any family.  The degenerate
    one has zero actuals, negative predictions, exact predictions and
    predictions equal to minus the actual.
    """
    rng = random.Random(20261018 + (kind == "degenerate"))
    a = [rng.uniform(1.0, 100.0) for _ in range(n)]
    p = [x * rng.uniform(0.7, 1.3) for x in a]
    b = [x * rng.uniform(0.6, 1.4) for x in a]
    if kind == "degenerate":
        for i in range(n):
            r = rng.random()
            if r < 0.10:
                a[i] = 0.0
            elif r < 0.15:
                p[i] = -p[i]
            elif r < 0.20:
                p[i] = a[i]
            elif r < 0.22:
                p[i] = -a[i]
    history = [rng.uniform(1.0, 100.0) for _ in range(50)]
    return validate_series_pair(a, p), validate_series_pair(a, b), np.array(history)


def bit_outcomes():
    """{scenario: {member: [value hex, points skipped, runs] or error type}}."""
    out = {}
    for scenario, (kind, policy) in BIT_SCENARIOS.items():
        pair, bench, history = seeded_inputs(kind)
        rows = out[scenario] = {}
        for abbr, variant in BIT_MEMBERS:
            label = f"{abbr}:{variant}" if variant else abbr
            try:
                result, _ = evaluate_metric(pair, abbr, policy, variant, bench, history)
            except MetricError as exc:
                rows[label] = type(exc).__name__
                continue
            runs = [[name, indices.tolist()] for name, indices in result.actions.runs]
            rows[label] = [result.value.hex(), result.points_skipped, runs]
    return out


def test_catalog_bits_are_pinned():
    want = json.loads(BITS_PATH.read_text(encoding="utf-8"))
    got = bit_outcomes()
    assert sorted(got) == sorted(want)
    for scenario in want:
        assert got[scenario] == want[scenario], scenario
    # the pin covers values, skips and policy runs of both kinds
    clean, skip = want["clean-fail"], want["degenerate-skip"]
    assert all(isinstance(row, list) and row[1] == 0 and row[2] == [] for row in clean.values())
    labels = {name for row in skip.values() if isinstance(row, list) for name, _ in row[2]}
    assert labels == {"skipped:nonpositive-log-ratio", "skipped:zero-denominator"}
    assert any(isinstance(row, str) for row in skip.values())


if __name__ == "__main__":
    outcomes = bit_outcomes()
    sys.stdout.write("{\n" + ",\n".join(
        f"{json.dumps(scenario)}: {{\n" + ",\n".join(
            f" {json.dumps(label)}: {json.dumps(row)}" for label, row in rows.items()
        ) + "\n}"
        for scenario, rows in outcomes.items()
    ) + "\n}\n")
