"""Closed-form implementations against frozen expected values.

The values below were computed once from the written-out formulas on
fixed inputs and frozen; any drift in the implementations breaks them.
"""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import rel_close
from metricgrid import derived, evaluate_named, validate_series_pair
from metricgrid import formulas as F
from metricgrid.errors import (
    GeometricMeanDomain,
    InsufficientData,
    LogDomain,
    NonpositiveLogRatio,
    ZeroDenominator,
)
from metricgrid.types import EvaluationPolicy, LogRatioPolicy, ZeroDenominatorPolicy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402

A = np.array([1.0, 2.0, 3.0, 4.0])
P = np.array([2.0, 2.0, 5.0, 3.0])

SKIP_ZERO = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.SKIP)
SKIP_LOG = EvaluationPolicy(nonpositive_log_ratio=LogRatioPolicy.SKIP)

FROZEN = {
    "me": -0.5,
    "md": -2.0,
    "mnb": -0.35416666666666663,
    "mpe": -35.416666666666664,
    "fb": -0.2202380952380952,
    "mae": 1.0,
    "mdae": 1.0,
    "maxae": 2.0,
    "sad": 4.0,
    "mare": 0.47916666666666663,
    "mape": 47.916666666666664,
    "mdape": 45.83333333333333,
    "mdrae": 0.6666666666666666,
    "whd": 1.15,
    "fae": 0.363095238095238,
    "smape": 36.3095238095238,
    "smdape": 39.285714285714285,
    "cm": 0.726190476190476,
    "mse": 1.5,
    "rmse": 1.224744871391589,
    "sse": 6.0,
    "ed": 2.449489742783178,
    "vsd": 2.6666666666666665,
    "ncsd": 2.583333333333333,
    "squd": 0.976190476190476,
    "divd": 0.38803854875283444,
    "mspe": 37.67361111111111,
    "mdspe": 25.34722222222222,
    "rmspe": 6.1378832761067645,
    "rmdspe": 5.034602488997738,
}


@pytest.mark.parametrize("name,expected", sorted(FROZEN.items()))
def test_frozen_values(name, expected):
    assert getattr(F, name)(A, P) == pytest.approx(expected, rel=1e-12)


class TestOptionVariants:
    def test_rae(self):
        assert F.rae(A, P, option=1) == pytest.approx(16 / 3, rel=1e-12)
        assert F.rae(A, P, option=2) == pytest.approx(1.0, rel=1e-12)

    def test_mrae(self):
        assert F.mrae(A, P, option=1) == pytest.approx(4 / 3, rel=1e-12)
        assert F.mrae(A, P, option=2) == pytest.approx(0.25, rel=1e-12)

    def test_rse_and_rrse(self):
        assert F.rse(A, P, option=1) == pytest.approx(16.888888888888886, rel=1e-12)
        assert F.rse(A, P, option=2) == pytest.approx(1.2, rel=1e-12)
        assert F.rrse(A, P, option=1) == pytest.approx(math.sqrt(F.rse(A, P, option=1)), rel=1e-12)
        assert F.rrse(A, P, option=2) == pytest.approx(math.sqrt(1.2), rel=1e-12)

    def test_option2_constant_actuals(self):
        a = np.array([2.0, 2.0, 2.0])
        with pytest.raises(ZeroDenominator):
            F.rae(a, a + 1, option=2)

    def test_rmspe_conventional_is_ten_times_default(self):
        # sqrt(100 m) versus 100 sqrt(m): the conventional form is 10x
        assert F.rmspe(A, P, variant="conventional") == pytest.approx(
            10.0 * F.rmspe(A, P), rel=1e-12
        )

    def test_smape_variants(self):
        # all-positive data makes the absolute and plain forms coincide
        assert F.smape(A, P, variant="absolute") == pytest.approx(F.smape(A, P), rel=1e-12)
        assert F.smape(A, P, variant="mean-denominator") == pytest.approx(F.smape(A, P), rel=1e-12)

    def test_smape_absolute_differs_on_mixed_signs(self):
        a = np.array([-1.0, 2.0])
        p = np.array([0.5, 2.0])
        plain = F.smape(a, p, variant=None)     # denominator A + P = [-0.5, 4]
        absolute = F.smape(a, p, variant="absolute")  # |A| + |P| = [1.5, 4]
        assert plain != pytest.approx(absolute)
        assert absolute == pytest.approx(100.0 * np.mean([2 * 1.5 / 1.5, 0.0]))


class TestGeometricFamily:
    def test_gmae_root_product(self):
        a = np.array([1.0, 1.0])
        p = np.array([3.0, 5.0])
        assert F.gmae(a, p) == pytest.approx(math.sqrt(8), rel=1e-12)

    def test_gmae_zero_error_is_domain_error_not_zero(self):
        with pytest.raises(GeometricMeanDomain):
            F.gmae(A, P)  # second point is exact

    def test_grmse_is_gmae_for_same_errors(self):
        a = np.array([1.0, 1.0])
        p = np.array([3.0, 5.0])
        assert F.grmse(a, p) == pytest.approx(F.gmae(a, p), rel=1e-12)

    def test_gmrae_forms_agree(self):
        a = np.array([1.0, 2.0, 4.0])
        p = np.array([2.0, 1.0, 6.0])
        assert F.gmrae(a, p) == pytest.approx(1.3924766500838335, rel=1e-12)
        assert F.gmrae(a, p, form="root-product") == pytest.approx(
            F.gmrae(a, p), rel=1e-12
        )

    def test_gmrae_zero_ratio_raises(self):
        a = np.array([1.0, 2.0, 4.0])
        p = np.array([2.0, 2.0, 6.0])
        with pytest.raises(GeometricMeanDomain):
            F.gmrae(a, p)


class TestLogFamily:
    def test_mdlar_and_mdsa(self):
        a = np.array([1.0, 2.0])
        p = np.array([2.0, 4.0])
        assert F.mdlar(a, p) == pytest.approx(math.log(2), rel=1e-12)
        assert F.mdsa(a, p) == pytest.approx(100.0, rel=1e-12)

    def test_mdlar_even_count(self):
        a = np.array([1.0, 1.0])
        p = np.array([2.0, 8.0])
        assert F.mdlar(a, p) == pytest.approx((math.log(2) + math.log(8)) / 2, rel=1e-12)

    def test_kld(self):
        a = np.array([0.25, 0.75])
        p = np.array([0.5, 0.5])
        assert F.kld(a, p) == pytest.approx(0.14384103622589042, rel=1e-12)

    def test_jd(self):
        a = np.array([0.25, 0.75])
        p = np.array([0.5, 0.5])
        assert F.jd(a, p) == pytest.approx(0.27465307216702745, rel=1e-12)

    def test_jd_nonnegative_for_positive_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0.5, 10, 12)
            p = rng.uniform(0.5, 10, 12)
            assert F.jd(a, p) >= 0.0

    def test_mnafe_and_mnfb(self):
        a = np.array([1.0, 2.0])
        p = np.array([2.0, 4.0])
        assert F.mnafe(a, p) == pytest.approx(1.0, rel=1e-12)
        assert F.mnfb(a, p) == pytest.approx(1.0, rel=1e-12)
        assert F.mnfb(np.array([2.0]), np.array([1.0])) == pytest.approx(-1.0, rel=1e-12)

    def test_mnfb_perfect_point_contributes_zero(self):
        a = np.array([2.0, 2.0])
        p = np.array([2.0, 4.0])
        assert F.mnfb(a, p) == pytest.approx(0.5, rel=1e-12)

    def test_log_fail_policy(self):
        a = np.array([1.0, -1.0])
        p = np.array([2.0, 1.0])
        with pytest.raises(NonpositiveLogRatio):
            F.mdlar(a, p)

    def test_log_skip_policy(self):
        a = np.array([1.0, -1.0, 4.0])
        p = np.array([2.0, 1.0, 8.0])
        assert F.mdlar(a, p, SKIP_LOG) == pytest.approx(math.log(2), rel=1e-12)


class TestDenominatorPolicies:
    def test_fail_carries_index(self):
        a = np.array([0.0, 2.0])
        p = np.array([1.0, 4.0])
        with pytest.raises(ZeroDenominator) as exc:
            F.mare(a, p)
        assert exc.value.index == 0

    def test_skip(self):
        a = np.array([0.0, 2.0, 4.0])
        p = np.array([1.0, 2.0, 5.0])
        assert F.mare(a, p, SKIP_ZERO) == pytest.approx(0.125, rel=1e-12)

    def test_epsilon_smallest_nonzero(self):
        a = np.array([0.0, 2.0, 4.0])
        p = np.array([1.0, 2.0, 5.0])
        policy = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.EPSILON)
        assert F.mare(a, p, policy) == pytest.approx(0.25, rel=1e-12)

    def test_epsilon_fixed(self):
        a = np.array([0.0, 2.0])
        p = np.array([1.0, 4.0])
        policy = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.EPSILON, epsilon=0.5)
        assert F.mare(a, p, policy) == pytest.approx(np.mean([2.0, 1.0]), rel=1e-12)

    @pytest.mark.parametrize("name, variant, formula", [
        ("MSPE", None, F.mspe),
        ("MdSPE", None, F.mdspe),
        ("RMSPE", "conventional", lambda a, p, policy: F.rmspe(a, p, policy, "conventional")),
        ("RMdSPE", "conventional", lambda a, p, policy: F.rmdspe(a, p, policy, "conventional")),
        ("DivD", None, F.divd),
        ("RSE", None, F.rse),
    ])
    def test_epsilon_corrects_a_squared_base_before_the_square(self, name, variant, formula):
        # one degenerate base each: A (index 0, the median point), A + P (index 2),
        # A - mean(A) (index 4); epsilon is the smallest nonzero |A|, 0.5, so
        # (0 + eps)^2 and 0^2 + eps differ
        a = np.array([0.0, 2.0, -0.5, 3.5, 1.25])
        p = np.array([0.28, 3.0, 0.5, 2.5, 2.0])
        policy = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.EPSILON)
        got = evaluate_named(validate_series_pair(a, p), name, policy, variant)
        assert got.points_skipped == 0 and len(got.actions) == 1
        assert rel_close(got.value, formula(a, p, policy))


class TestWholeSeriesAndComposite:
    def test_extended_family(self):
        assert F.nrmse_m(A, P) == pytest.approx(0.4898979485566356, rel=1e-12)
        assert F.nrmse_sd(A, P) == pytest.approx(0.9486832980505138, rel=1e-12)
        assert F.nrmse_mm(A, P) == pytest.approx(0.40824829046386296, rel=1e-12)
        assert F.nmse(A, P) == pytest.approx(0.9, rel=1e-12)

    def test_extended_degeneracies(self):
        const = np.array([2.0, 2.0, 2.0])
        with pytest.raises(ZeroDenominator):
            F.nrmse_sd(const, const + 1)
        with pytest.raises(ZeroDenominator):
            F.nrmse_mm(const, const + 1)
        with pytest.raises(ZeroDenominator):
            F.nmse(const, const + 1)
        with pytest.raises(ZeroDenominator):
            F.nrmse_m(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(InsufficientData):
            F.nrmse_sd(np.array([1.0]), np.array([2.0]))

    def test_cod(self):
        assert F.cod(A, P) == pytest.approx(-0.19999999999999996, rel=1e-12)
        a = np.array([1.0, 2.0, 3.0])
        assert F.cod(a, np.array([2.0, 2.0, 2.0])) == 0.0
        assert F.cod(a, a) == 1.0

    def test_mase(self):
        assert F.mase(A, P, np.array([1.0, 3.0, 2.0, 5.0])) == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(ZeroDenominator):
            F.mase(A, P, np.array([2.0, 2.0, 2.0]))
        with pytest.raises(InsufficientData):
            F.mase(A, P, np.array([2.0]))

    def test_benchmark_relatives(self):
        pb = np.array([2.0, 3.0, 5.0, 2.0])  # MAE_b = 1.5, errors [-1,-1,-2,2]
        assert F.rmae(A, P, pb) == pytest.approx(1.0 / 1.5, rel=1e-12)
        assert F.relrmse(A, P, pb) == pytest.approx(F.rmse(A, P) / F.rmse(A, pb), rel=1e-12)
        assert F.lmr(A, P, pb) == pytest.approx(math.log(F.relrmse(A, P, pb)), rel=1e-12)
        with pytest.raises(ZeroDenominator):
            F.rmae(A, P, A)  # perfect benchmark

    def test_lmr_of_perfect_candidate_is_log_domain_error(self):
        with pytest.raises(LogDomain):
            F.lmr(A, A, P)


class TestTopOfTheRange:
    """Where the running sum of a mean, or the mean of a median's middle
    pair, leaves double range though the result does not, the closed form
    still gives the finite value, without a warning."""

    @pytest.mark.parametrize("actual", [[1e308, 1e308], [1e308, 1e308, 1.0], [1e308, 1.5e308]])
    @pytest.mark.parametrize("name,formula", [("ME", F.me), ("MAE", F.mae), ("MdAE", F.mdae)])
    def test_oracle_agrees_with_the_pipeline(self, actual, name, formula):
        pair = validate_series_pair(actual, [0.0] * len(actual))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = formula(pair.actuals, pair.predicted)
            got = evaluate_named(pair, name).value
        assert math.isfinite(want) and rel_close(got, want)

    @pytest.mark.parametrize("name,formula", [("MSE", F.mse), ("RMSE", F.rmse)])
    def test_squared_error_mean_agrees_with_the_pipeline(self, name, formula):
        # each squared error is 1.69e308; their sum is not finite
        pair = validate_series_pair([1.3e154, 1.3e154], [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = formula(pair.actuals, pair.predicted)
            got = evaluate_named(pair, name).value
        assert math.isfinite(want) and rel_close(got, want)


class TestLongProducts:
    """A product of many errors leaves double range though its root does
    not; the closed form then goes through the logs, without a warning."""

    @pytest.mark.parametrize("seed", [3, 7])
    def test_oracle_agrees_with_the_pipeline(self, seed):
        data = inputs.generate("catalog_sweep", seed)
        a, p, b = data["actual"], data["predicted"], data["benchmark"]
        pair, bench = validate_series_pair(a, p), validate_series_pair(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = [
                (evaluate_named(pair, "GMAE"), F.gmae(a, p)),
                (evaluate_named(pair, "GRMSE"), F.grmse(a, p)),
                (evaluate_named(pair, "GMRAE", variant="root-product"),
                 F.gmrae(a, p, form="root-product")),
                (derived.relative_named(pair, bench, "RGRMSE"), F.rgrmse(a, p, b)),
            ]
        for got, want in checks:
            assert math.isfinite(want) and rel_close(got.value, want)

    @pytest.mark.parametrize("error", [1e120, 1e-120])
    def test_product_beyond_range_is_taken_through_the_logs(self, error):
        # the product of three such errors, or of their squares, is beyond range
        a = np.full(3, error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isclose(F.gmae(a, np.zeros(3)), error, rel_tol=1e-12)
            assert math.isclose(F.grmse(a, np.zeros(3)), error, rel_tol=1e-12)

    def test_subnormal_product_is_taken_through_the_logs(self):
        # 1e-160 * 1e-160 underflows to a subnormal with a few digits left
        a = np.full(2, 1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isclose(F.gmae(a, np.zeros(2)), 1e-160, rel_tol=1e-14)
            pair = validate_series_pair(a, np.zeros(2))
            assert math.isclose(evaluate_named(pair, "GMAE").value, 1e-160, rel_tol=1e-14)

    def test_product_within_range_is_the_literal_root(self):
        rng = np.random.default_rng(11)
        a, p = rng.uniform(1.0, 2.0, 500), rng.uniform(2.5, 3.5, 500)
        ae = np.abs(a - p)
        assert F.gmae(a, p) == float(np.prod(ae) ** (1.0 / ae.size))
        assert F.grmse(a, p) == float(np.prod(ae ** 2) ** (1.0 / (2 * ae.size)))
