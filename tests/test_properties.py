"""Structural invariants checked over generated inputs."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rel_close
from metricgrid import formulas as F
from metricgrid.errors import MetricError
from metricgrid.evaluator import aggregate, apply_point_transform, normalize, point_distances
from metricgrid.registry import composed_definitions, evaluate_named
from metricgrid.types import (
    Aggregator,
    AggKind,
    Distance,
    EvaluationPolicy,
    LogRatioPolicy,
    NormalizerSpec,
    NormKind,
    PointTransform,
    PointVector,
    SeriesPair,
    ZeroDenominatorPolicy,
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
                    normed, kept_normed = read_only(normed)
                    for transform in PointTransform:
                        apply_point_transform(normed, pair, transform)
                    for aggregator in AGGREGATORS:
                        try:
                            aggregate(normed, aggregator, policy)
                        except MetricError:
                            pass
                    normed.usable_values()
                    assert unchanged(kept_normed)
                assert unchanged(kept_distances)
        assert unchanged(kept)
