import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricgrid import (
    Aggregator,
    AggKind,
    BenchmarkInput,
    EvaluationPolicy,
    MetricComposition,
    NormalizerSpec,
    NormKind,
    Distance,
    PostKind,
    PostTransform,
    SeriesPair,
    SuiteDefinition,
    evaluate_suite,
    validate_series_pair,
)
from metricgrid.errors import (
    EmptySeries,
    InsufficientData,
    LengthMismatch,
    NonFiniteValue,
    ValidationError,
)
from metricgrid.types import Extremes, smallest_nonzero_actual


class TestSeriesPair:
    def test_basic_construction(self):
        pair = validate_series_pair([1, 2, 3], [1.5, 2.5, 3.5])
        assert pair.n == 3
        assert pair.actuals.dtype == float

    def test_identical_series_allowed(self):
        pair = validate_series_pair([1, 2, 3], [1, 2, 3])
        assert np.array_equal(pair.actuals, pair.predicted)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_series_pair([1, 2], [1, 2, 3])

    def test_empty(self):
        with pytest.raises(EmptySeries):
            validate_series_pair([], [])

    def test_nan_reports_series_and_index(self):
        with pytest.raises(NonFiniteValue) as exc:
            validate_series_pair([1, float("nan"), 3], [1, 2, 3])
        assert exc.value.series == "actuals"
        assert exc.value.index == 1

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteValue) as exc:
            validate_series_pair([1, 2], [1, float("inf")])
        assert exc.value.series == "predicted"

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            validate_series_pair([[1, 2], [3, 4]], [[1, 2], [3, 4]])

    def test_arrays_are_immutable(self):
        pair = validate_series_pair([1, 2], [3, 4])
        with pytest.raises(ValueError):
            pair.actuals[0] = 99

    def test_input_mutation_does_not_leak(self):
        src = np.array([1.0, 2.0])
        pair = validate_series_pair(src, [3, 4])
        src[0] = 99
        assert pair.actuals[0] == 1.0

    def test_swapped_and_scaled(self):
        pair = validate_series_pair([1, 2], [3, 4])
        assert np.array_equal(pair.swapped().actuals, pair.predicted)
        assert np.array_equal(pair.scaled(2.0).actuals, [2, 4])

    def test_pair_keeps_the_extremes_of_each_series(self):
        pair = validate_series_pair([3.0, -0.0, 7.5], [1e300, 2.0, -5e-324])
        assert pair.extremes == Extremes(-0.0, 7.5, -5e-324, 1e300)
        assert all(type(x) is float for x in pair.extremes)
        with pytest.raises(AttributeError):
            pair.extremes = Extremes(0.0, 0.0, 0.0, 0.0)

    def test_derived_pairs_have_their_own_extremes(self):
        pair = validate_series_pair([1, 2], [3, 5])
        assert pair.swapped().extremes == Extremes(3.0, 5.0, 1.0, 2.0)
        assert pair.scaled(-2.0).extremes == Extremes(-4.0, -2.0, -10.0, -6.0)

    def test_with_predicted_shares_the_actuals(self):
        pair = validate_series_pair([1, 2, 4], [3, 5, 6])
        src = np.array([0.5, 9.0, -1.0])
        bench = pair.with_predicted(src)
        assert bench.actuals is pair.actuals
        assert bench.extremes == Extremes(1.0, 4.0, -1.0, 9.0)
        src[0] = 99.0
        assert bench.predicted[0] == 0.5 and not bench.predicted.flags.writeable
        with pytest.raises(LengthMismatch):
            pair.with_predicted([1.0, 2.0])
        with pytest.raises(ValidationError):
            pair.with_predicted([[1.0, 2.0, 3.0]])
        with pytest.raises(NonFiniteValue) as exc:
            pair.with_predicted([1.0, float("inf"), float("nan")])
        assert (exc.value.series, exc.value.index) == ("predicted", 1)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=8),
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=8),
    )
    def test_construction_implies_equal_lengths(self, a, p):
        try:
            pair = validate_series_pair(a, p)
        except LengthMismatch:
            assert len(a) != len(p)
        else:
            assert pair.n == len(a) == len(p)

    @given(st.lists(st.floats(width=32), min_size=1, max_size=8))
    def test_nonfinite_never_survives(self, values):
        try:
            pair = validate_series_pair(values, [0.0] * len(values))
        except NonFiniteValue:
            assert any(not np.isfinite(v) for v in values)
        else:
            assert np.isfinite(pair.actuals).all()


class TestNonFiniteValue:
    """Validation finds a value that is not finite from the series'
    extremes, then names the first such index; no NumPy warning leaks."""

    @staticmethod
    def refused(actuals, predicted):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                validate_series_pair(actuals, predicted)
        return exc.value.series, exc.value.index

    @pytest.mark.parametrize("first,second", [(float("nan"), float("inf")), (float("inf"), float("nan"))])
    def test_nan_and_inf_in_one_series_name_the_first(self, first, second):
        a = [1.0, 2.0, first, 4.0, second, 6.0]
        assert self.refused(a, [1.0] * 6) == ("actuals", 2)
        assert self.refused([1.0] * 6, a) == ("predicted", 2)

    @pytest.mark.parametrize("index", [0, 4])
    def test_nan_at_either_end(self, index):
        a = [1.0] * 5
        a[index] = float("nan")
        assert self.refused(a, [2.0] * 5) == ("actuals", index)
        assert self.refused([2.0] * 5, a) == ("predicted", index)

    def test_negative_infinity(self):
        assert self.refused([1.0, 2.0, 3.0], [0.0, -float("inf"), -1e308]) == ("predicted", 1)

    def test_actuals_are_checked_before_predictions(self):
        assert self.refused([1.0, float("nan")], [float("inf"), 1.0]) == ("actuals", 1)

    def test_in_sample_names_the_first_index(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                BenchmarkInput(in_sample=np.array([1.0, 2.0, -float("inf"), float("nan")]))
        assert (exc.value.series, exc.value.index) == ("in_sample", 2)


class TestNormalizerSpec:
    def test_defaults(self):
        spec = NormalizerSpec(NormKind.BY_ACTUALS)
        assert spec.exponent == 1 and not spec.absolute and spec.factor == 1.0

    def test_unitary_canonicalizes_parameters(self):
        spec = NormalizerSpec(NormKind.UNITARY, exponent=2, absolute=True, factor=5.0)
        assert spec == NormalizerSpec(NormKind.UNITARY)

    @pytest.mark.parametrize("bad", [0, 3, -2])
    def test_exponent_domain(self, bad):
        with pytest.raises(ValidationError):
            NormalizerSpec(NormKind.BY_ACTUALS, exponent=bad)

    def test_max_min_have_no_absolute_variant(self):
        with pytest.raises(ValidationError):
            NormalizerSpec(NormKind.BY_MAX, absolute=True)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValidationError):
            NormalizerSpec(NormKind.BY_SUM, factor=0.0)

    @given(
        kind=st.sampled_from([k for k in NormKind if k is not NormKind.UNITARY]),
        exponent=st.sampled_from([-1, 1, 2]),
        absolute=st.booleans(),
        factor=st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 0),
    )
    def test_config_round_trip_is_bit_exact(self, kind, exponent, absolute, factor):
        if kind in (NormKind.BY_MAX, NormKind.BY_MIN):
            absolute = False
        spec = NormalizerSpec(kind, exponent, absolute, factor)
        # through the same JSON layer the CLI config uses
        restored = NormalizerSpec.from_config(json.loads(json.dumps(spec.to_config())))
        assert restored == spec


class TestAggregator:
    def test_plain_kinds_take_no_fraction(self):
        with pytest.raises(ValidationError):
            Aggregator(AggKind.MEAN, fraction=0.1)

    @pytest.mark.parametrize("bad", [-0.1, 0.5, 0.9])
    def test_fraction_domain(self, bad):
        with pytest.raises(ValidationError):
            Aggregator(AggKind.TRUNCATED_MEAN, fraction=bad)

    def test_valid_trim(self):
        agg = Aggregator(AggKind.WINSORIZED_MEAN, fraction=0.25)
        assert agg.fraction == 0.25


class TestPolicyAndComposition:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValidationError):
            EvaluationPolicy(epsilon=0.0)
        with pytest.raises(ValidationError):
            EvaluationPolicy(epsilon=-1.0)

    def test_policy_config_dump(self):
        cfg = EvaluationPolicy().to_config()
        assert cfg == {
            "zero_denominator": "fail",
            "nonpositive_log_ratio": "fail",
            "epsilon": "smallest-nonzero",
        }

    def test_post_transform_limit(self):
        sqrt = PostTransform(PostKind.SQRT)
        with pytest.raises(ValidationError):
            MetricComposition(Distance.ERROR, post=(sqrt, sqrt, sqrt))

    def test_scale_constant_validated(self):
        with pytest.raises(ValidationError):
            PostTransform(PostKind.SCALE, 0.0)

    def test_cell_property(self):
        comp = MetricComposition(Distance.ABSOLUTE_ERROR, NormalizerSpec(NormKind.BY_ACTUALS))
        assert comp.cell == (Distance.ABSOLUTE_ERROR, NormKind.BY_ACTUALS, AggKind.MEAN)


class TestBenchmarkInput:
    def test_needs_a_source(self):
        with pytest.raises(ValidationError):
            BenchmarkInput()

    def test_both_sources_serve_one_suite(self):
        pair = validate_series_pair([1, 2, 3, 4], [2, 2, 3, 5])        # MAE 0.5
        bench = validate_series_pair([1, 2, 3, 4], [1, 2, 3, 3])       # MAE 0.25
        aux = BenchmarkInput(benchmark_pair=bench, in_sample=np.array([1.0, 3.0, 2.0, 5.0]))
        result = evaluate_suite(pair, SuiteDefinition("both", ("RMAE", "MASE")), aux)
        assert [(e.name, e.error) for e in result.entries] == [("RMAE", None), ("MASE", None)]
        # naive in-sample scale: mean of |2|, |-1|, |3| = 2
        assert [e.result.value for e in result.entries] == [2.0, 0.25]

    def test_in_sample_needs_two_points(self):
        with pytest.raises(InsufficientData):
            BenchmarkInput(in_sample=np.array([1.0]))

    def test_in_sample_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            BenchmarkInput(in_sample=np.array([1.0, float("nan")]))


class TestSmallestNonzeroActual:
    @staticmethod
    def gathered(actuals):
        # the expression this function replaced: a gather through a boolean mask
        mags = np.abs(actuals)
        mags = mags[mags > 0]
        return float(mags.min()) if mags.size else 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_gathered_minimum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        actuals = rng.normal(0.0, 10.0 ** rng.integers(-300, 300), n)
        actuals[rng.random(n) < rng.random()] = 0.0
        actuals[rng.random(n) < 0.1] = -0.0
        got = smallest_nonzero_actual(actuals)
        assert type(got) is float and got == self.gathered(actuals)

    @pytest.mark.parametrize("actuals", [[0.0], [0.0, -0.0, 0.0], [], [5e-324, 0.0], [-2.0, 0.0, 3.0]])
    def test_edge_cases(self, actuals):
        actuals = np.array(actuals, dtype=float)
        assert smallest_nonzero_actual(actuals) == self.gathered(actuals)
