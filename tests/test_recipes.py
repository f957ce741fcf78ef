"""Derived recipes: the extended, composite and ratio-of-sums metrics as data."""

import inspect
import json

import pytest

from metricgrid import formulas, registry
from metricgrid.derived import coefficient_of_determination, extended, relative_metric
from metricgrid.errors import RangeOverflow, ZeroDenominator
from metricgrid.registry import BENCHMARK_BASE, DerivedRecipe, evaluate_recipe
from metricgrid.types import SeriesPair, validate_series_pair
from test_evaluator import BITS_PATH, bit_outcomes

PAIR = SeriesPair([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 3.0])


def recipe_members():
    """(abbreviation, variant) of every catalog recipe."""
    out = []
    for d in registry.list_metrics():
        if d.recipe is not None:
            out.append((d.abbreviation, None))
        out += [(d.abbreviation, v) for v, spec in d.variants.items() if spec.recipe is not None]
    return out


def test_recipes_cover_the_derived_layers():
    assert sorted(recipe_members(), key=str) == sorted([
        ("NRMSE_m", None), ("NRMSE_sd", None), ("NRMSE_mm", None), ("NMSE", None),
        ("CoD", None), ("MASE", None), ("RMAE", None), ("RelRMSE", None), ("LMR", None),
        ("RGRMSE", None), ("MRAE", "option2"), ("RAE", "option2"), ("RSE", "option2"),
        ("RRSE", "option2"),
    ], key=str)
    for d in registry.get_catalog().values():
        if d.implemented and d.category is not registry.Category.PRIMARY:
            assert d.recipe is not None, d.abbreviation
            assert d.composition is None


def test_requires_follows_the_statistic():
    requires = {d.abbreviation: d.requires for d in registry.list_metrics() if d.requires}
    assert requires == {"MASE": "in-sample history", "RMAE": "benchmark", "RelRMSE": "benchmark",
                        "LMR": "benchmark", "RGRMSE": "benchmark"}


def test_no_route_runs_the_oracle(monkeypatch):
    """With every closed form refusing to run, every name and variant still
    gives the pinned bits: ``formulas`` is never a production route."""
    def refuse(*args, **kwargs):
        raise AssertionError("a closed form from formulas ran while evaluating")

    monkeypatch.setattr(registry.MetricDefinition, "_direct", refuse)
    for name, fn in inspect.getmembers(formulas, inspect.isfunction):
        if not name.startswith("_") and fn.__module__ == formulas.__name__:
            monkeypatch.setattr(formulas, name, refuse)
    assert bit_outcomes() == json.loads(BITS_PATH.read_text(encoding="utf-8"))


def test_ad_hoc_recipe_returns_base_and_statistic():
    bench = SeriesPair(PAIR.actuals, [2.0, 3.0, 5.0, 2.0])
    recipe = DerivedRecipe("MAE", BENCHMARK_BASE, "log-ratio")
    result, candidate, statistic = evaluate_recipe(PAIR, recipe, benchmark=bench)
    assert (candidate, statistic) == (1.0, 1.5)
    assert result.value == relative_metric(PAIR, bench, "MAE", "log-ratio").value


def test_zero_statistic_names_the_base():
    with pytest.raises(ZeroDenominator, match="benchmark MAE is zero"):
        relative_metric(PAIR, SeriesPair(PAIR.actuals, PAIR.actuals), base="MAE")


class TestStatisticOverflow:
    """A whole-series statistic beyond double range is a typed error, with no warning."""

    BIG_SUM = validate_series_pair([1e308, 1e308, 1], [1.5e308, 1.7e308, 2])
    BIG_SPREAD = validate_series_pair([1e308, -1e308, 1], [-1e308, 1e308, 2])

    def test_total_sum_of_squares(self):
        with pytest.raises(RangeOverflow, match="sum of"):
            coefficient_of_determination(self.BIG_SUM)

    @pytest.mark.parametrize("name", ["NRMSE_m", "NRMSE_sd", "NMSE"])
    def test_mean_and_spread_of_huge_actuals(self, name):
        with pytest.raises(RangeOverflow):
            extended(self.BIG_SUM, name)

    def test_range(self):
        with pytest.raises(RangeOverflow, match="range of actuals"):
            extended(self.BIG_SPREAD, "NRMSE_mm")

    @pytest.mark.parametrize("name", ["RAE", "MRAE", "RSE", "RRSE"])
    def test_ratio_of_sums(self, name):
        with pytest.raises(RangeOverflow):
            registry.evaluate_named(self.BIG_SUM, name, variant="option2")
