"""Extended, composite and suite evaluation."""

import math

import numpy as np
import pytest

from metricgrid import evaluate_named
from metricgrid import formulas as F
from metricgrid.derived import (
    BUILTIN_SUITES,
    SuiteDefinition,
    coefficient_of_determination,
    evaluate_metric,
    evaluate_suite,
    extended,
    get_suite,
    mase,
    relative_metric,
    relative_named,
)
from metricgrid.errors import (
    BenchmarkMismatch,
    InsufficientData,
    LogDomain,
    MissingBenchmark,
    UnknownSuite,
    UnknownVariant,
    ValidationError,
    ZeroDenominator,
)
from metricgrid.types import BenchmarkInput, Dimension, SeriesPair

PAIR = SeriesPair([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 3.0])
BENCH = SeriesPair([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 5.0, 2.0])


class TestExtended:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("NRMSE_m", 0.4898979485566356),
            ("NRMSE_sd", 0.9486832980505138),
            ("NRMSE_mm", 0.40824829046386296),
            ("NMSE", 0.9),
        ],
    )
    def test_frozen_values(self, name, expected):
        result = extended(PAIR, name)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.dimension is Dimension.DIMENSIONLESS

    def test_agrees_with_closed_forms(self):
        a, p = PAIR.actuals, PAIR.predicted
        assert extended(PAIR, "NRMSE_m").value == pytest.approx(F.nrmse_m(a, p), rel=1e-12)
        assert extended(PAIR, "NRMSE_sd").value == pytest.approx(F.nrmse_sd(a, p), rel=1e-12)
        assert extended(PAIR, "NRMSE_mm").value == pytest.approx(F.nrmse_mm(a, p), rel=1e-12)
        assert extended(PAIR, "NMSE").value == pytest.approx(F.nmse(a, p), rel=1e-12)

    def test_alias_routes_to_extended(self):
        assert extended(PAIR, "CVRMSE").value == extended(PAIR, "NRMSE_m").value

    def test_nmse_is_squared_nrmse_sd(self):
        assert extended(PAIR, "NMSE").value == pytest.approx(
            extended(PAIR, "NRMSE_sd").value ** 2, rel=1e-12
        )

    def test_constant_actuals_fail(self):
        pair = SeriesPair([2.0, 2.0, 2.0], [1.0, 3.0, 2.0])
        for name in ("NRMSE_sd", "NRMSE_mm", "NMSE"):
            with pytest.raises(ZeroDenominator):
                extended(pair, name)

    def test_zero_mean_actuals_fail_nrmse_m(self):
        with pytest.raises(ZeroDenominator):
            extended(SeriesPair([-1.0, 1.0], [0.0, 0.0]), "NRMSE_m")

    def test_single_point_insufficient_for_sample_statistics(self):
        pair = SeriesPair([1.0], [2.0])
        with pytest.raises(InsufficientData):
            extended(pair, "NRMSE_sd")
        with pytest.raises(InsufficientData):
            extended(pair, "NMSE")

    def test_non_extended_name_rejected(self):
        with pytest.raises(ValidationError):
            extended(PAIR, "MAE")


class TestMase:
    IN_SAMPLE = np.array([1.0, 3.0, 2.0, 5.0])

    def test_value(self):
        result = mase(PAIR, self.IN_SAMPLE)
        assert result.value == pytest.approx(0.5, rel=1e-12)
        assert result.dimension is Dimension.DIMENSIONLESS

    def test_agrees_with_closed_form(self):
        assert mase(PAIR, self.IN_SAMPLE).value == pytest.approx(
            F.mase(PAIR.actuals, PAIR.predicted, self.IN_SAMPLE), rel=1e-12
        )

    def test_scale_invariance(self):
        k = 3.7
        scaled = mase(PAIR.scaled(k), self.IN_SAMPLE * k)
        assert scaled.value == pytest.approx(mase(PAIR, self.IN_SAMPLE).value, rel=1e-12)

    def test_constant_history_fails(self):
        with pytest.raises(ZeroDenominator):
            mase(PAIR, np.array([2.0, 2.0, 2.0]))

    def test_short_history_fails(self):
        with pytest.raises(InsufficientData):
            mase(PAIR, np.array([2.0]))

    def test_nonfinite_history_fails(self):
        with pytest.raises(ValidationError):
            mase(PAIR, np.array([1.0, np.nan, 2.0]))


class TestCoefficientOfDetermination:
    def test_value(self):
        result = coefficient_of_determination(PAIR)
        assert result.value == pytest.approx(-0.19999999999999996, rel=1e-12)

    def test_perfect_prediction_is_one(self):
        pair = SeriesPair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert coefficient_of_determination(pair).value == 1.0

    def test_mean_prediction_is_zero(self):
        pair = SeriesPair([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert coefficient_of_determination(pair).value == 0.0

    def test_constant_actuals_fail(self):
        with pytest.raises(ZeroDenominator):
            coefficient_of_determination(SeriesPair([2.0, 2.0], [1.0, 3.0]))

    def test_single_point_fails(self):
        with pytest.raises(InsufficientData):
            coefficient_of_determination(SeriesPair([1.0], [2.0]))


class TestRelativeMetric:
    def test_identity_is_exact(self):
        r = relative_metric(PAIR, PAIR, base="MAE")
        assert r.value == 1.0
        assert "equal" in r.interpretation
        log = relative_metric(PAIR, PAIR, base="MAE", form="log-ratio")
        assert log.value == 0.0

    def test_gmae_twelve_vs_ten_reads_twenty_percent_higher(self):
        actuals = [0.0, 0.0]
        candidate = SeriesPair(actuals, [12.0, 12.0])
        benchmark = SeriesPair(actuals, [10.0, 10.0])
        r = relative_metric(candidate, benchmark, base="GMAE")
        assert r.candidate == 12.0
        assert r.benchmark == 10.0
        assert r.value == 1.2
        assert "20% higher" in r.interpretation

    def test_lower_direction(self):
        actuals = [0.0, 0.0]
        r = relative_metric(
            SeriesPair(actuals, [5.0, 5.0]), SeriesPair(actuals, [10.0, 10.0]), base="GMAE"
        )
        assert r.value == 0.5
        assert "50% lower" in r.interpretation

    def test_divergence_base_is_the_ratio_of_its_values(self):
        r = relative_metric(PAIR, BENCH, base="KLD")
        candidate, benchmark = evaluate_named(PAIR, "KLD").value, evaluate_named(BENCH, "KLD").value
        assert (r.candidate, r.benchmark) == (candidate, benchmark)
        assert r.value == candidate / benchmark

    def test_mismatched_actuals_rejected(self):
        other = SeriesPair([1.0, 2.0, 3.0, 5.0], BENCH.predicted)
        with pytest.raises(BenchmarkMismatch):
            relative_metric(PAIR, other)

    def test_perfect_benchmark_rejected(self):
        with pytest.raises(ZeroDenominator):
            relative_metric(PAIR, SeriesPair(PAIR.actuals, PAIR.actuals), base="MAE")

    def test_log_ratio_of_perfect_candidate_is_log_domain_error(self):
        perfect = SeriesPair(PAIR.actuals, PAIR.actuals)
        with pytest.raises(LogDomain):
            relative_metric(perfect, BENCH, base="RMSE", form="log-ratio")

    def test_uncomposed_base_rejected(self):
        with pytest.raises(ValidationError):
            relative_metric(PAIR, BENCH, base="NRMSE_m")

    def test_unknown_form_rejected(self):
        with pytest.raises(ValidationError):
            relative_metric(PAIR, BENCH, base="MAE", form="difference")

    def test_named_forms_match_closed_forms(self):
        a, p, pb = PAIR.actuals, PAIR.predicted, BENCH.predicted
        assert relative_named(PAIR, BENCH, "RMAE").value == pytest.approx(
            F.rmae(a, p, pb), rel=1e-12
        )
        assert relative_named(PAIR, BENCH, "RelRMSE").value == pytest.approx(
            F.relrmse(a, p, pb), rel=1e-12
        )
        lmr = relative_named(PAIR, BENCH, "LMR")
        assert lmr.form == "log-ratio"
        assert lmr.value == pytest.approx(F.lmr(a, p, pb), rel=1e-12)
        assert lmr.value == pytest.approx(
            math.log(relative_named(PAIR, BENCH, "RelRMSE").value), rel=1e-12
        )

    def test_rgrmse_uses_geometric_base(self):
        actuals = [0.0, 0.0]
        r = relative_named(
            SeriesPair(actuals, [12.0, 12.0]), SeriesPair(actuals, [10.0, 10.0]), "RGRMSE"
        )
        assert r.base == "GRMSE"
        assert r.value == pytest.approx(1.2, rel=1e-12)

    def test_alias_lookup(self):
        assert relative_named(PAIR, BENCH, "TheilsU").value == pytest.approx(
            F.relrmse(PAIR.actuals, PAIR.predicted, BENCH.predicted), rel=1e-12
        )

    def test_non_relative_name_rejected(self):
        with pytest.raises(ValidationError):
            relative_named(PAIR, BENCH, "MASE")


class TestEvaluateMetric:
    def test_relative_metric_returns_its_comparison(self):
        result, rel = evaluate_metric(PAIR, "RelMAE", benchmark=BENCH)
        assert rel == relative_named(PAIR, BENCH, "RMAE")
        assert result.value == rel.value
        assert result.dimension is Dimension.DIMENSIONLESS

    def test_other_families_return_no_comparison(self):
        assert evaluate_metric(PAIR, "CoD")[1] is None
        assert evaluate_metric(PAIR, "NRMSE_m")[0] == extended(PAIR, "NRMSE_m")
        history = np.array([1.0, 3.0, 2.0, 5.0])
        assert evaluate_metric(PAIR, "MASE", in_sample=history)[0] == mase(PAIR, history)

    @pytest.mark.parametrize(
        "name,variant,error",
        [("RMAE", None, MissingBenchmark), ("MASE", None, MissingBenchmark),
         ("MAE", "option2", UnknownVariant)],
    )
    def test_configuration_errors_raise_up_front(self, name, variant, error):
        with pytest.raises(error):
            evaluate_metric(PAIR, name, variant=variant)


class TestSuites:
    def test_builtin_membership(self):
        assert set(BUILTIN_SUITES) == {"bias-accuracy", "log-symmetric", "percentage"}
        assert BUILTIN_SUITES["bias-accuracy"].members == ("ME", "MAE", "RMSE")
        for suite in BUILTIN_SUITES.values():
            assert suite.rationale

    def test_bias_accuracy_values_in_member_order(self):
        result = evaluate_suite(PAIR, "bias-accuracy")
        assert result.suite == "bias-accuracy"
        assert not result.failed
        got = [(e.name, e.result.value) for e in result.entries]
        assert [g[0] for g in got] == ["ME", "MAE", "RMSE"]
        assert got[0][1] == pytest.approx(-0.5, rel=1e-12)
        assert got[1][1] == pytest.approx(1.0, rel=1e-12)
        assert got[2][1] == pytest.approx(1.224744871391589, rel=1e-12)

    def test_member_failure_is_embedded_not_fatal(self):
        suite = SuiteDefinition("mixed", ("GMAE", "MAE"))
        result = evaluate_suite(PAIR, suite)  # PAIR has one exact prediction
        assert result.failed
        gmae, mae = result.entries
        assert gmae.result is None
        assert gmae.error.startswith("GeometricMeanDomain:")
        assert mae.error is None
        assert mae.result.value == pytest.approx(1.0, rel=1e-12)

    def test_variant_member(self):
        suite = SuiteDefinition("v", ("RAE:option2",))
        entry = evaluate_suite(PAIR, suite).entries[0]
        assert entry.variant == "option2"
        assert entry.result.value == pytest.approx(1.0, rel=1e-12)

    def test_benchmark_member_without_aux_reports_missing(self):
        result = evaluate_suite(PAIR, SuiteDefinition("rel", ("RMAE",)))
        assert result.entries[0].error.startswith("MissingBenchmark:")

    def test_benchmark_member_with_aux(self):
        aux = BenchmarkInput(benchmark_pair=BENCH)
        result = evaluate_suite(PAIR, SuiteDefinition("rel", ("RMAE",)), aux=aux)
        assert result.entries[0].result.value == pytest.approx(
            F.rmae(PAIR.actuals, PAIR.predicted, BENCH.predicted), rel=1e-12
        )

    def test_history_member_with_aux(self):
        aux = BenchmarkInput(in_sample=np.array([1.0, 3.0, 2.0, 5.0]))
        result = evaluate_suite(PAIR, SuiteDefinition("scaled", ("MASE",)), aux=aux)
        assert result.entries[0].result.value == pytest.approx(0.5, rel=1e-12)

    def test_extended_and_cod_members_route_correctly(self):
        suite = SuiteDefinition("norm", ("NRMSE_m", "CoD"))
        result = evaluate_suite(PAIR, suite)
        assert result.entries[0].result.value == pytest.approx(0.4898979485566356, rel=1e-12)
        assert result.entries[1].result.value == pytest.approx(-0.2, rel=1e-12)

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite) as exc:
            get_suite("nonesuch")
        assert "bias-accuracy" in exc.value.available

    def test_extra_suites_extend_pool(self):
        extra = {"mine": SuiteDefinition("mine", ("MAE",))}
        assert get_suite("mine", extra).members == ("MAE",)
        result = evaluate_suite(PAIR, "mine", extra_suites=extra)
        assert result.entries[0].result.value == pytest.approx(1.0, rel=1e-12)

    def test_empty_suite_rejected(self):
        with pytest.raises(ValidationError):
            SuiteDefinition("empty", ())
