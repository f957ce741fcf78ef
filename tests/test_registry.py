"""Catalog integrity, lookup behaviour, and named evaluation."""

import math

import pytest

from metricgrid.errors import (
    RequiresBenchmark,
    UnimplementedMetric,
    UnknownMetric,
    UnknownVariant,
)
from metricgrid.registry import (
    Category,
    composed_definitions,
    direct_formula,
    evaluate_named,
    export_catalog,
    get_catalog,
    list_metrics,
    lookup,
)
from metricgrid.types import (
    AggKind,
    Dimension,
    Distance,
    EvaluationPolicy,
    LogRatioPolicy,
    NormKind,
    SeriesPair,
)

PAIR = SeriesPair([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 3.0])

# Every abbreviation the catalog must resolve, including stubs and aliases.
EXPECTED_NAMES = [
    "CM", "CoD", "CVRMSE", "DivD", "ED", "FAE", "FB", "GMAE", "GMRAE",
    "GRMSE", "HMD", "IPD", "JD", "KLD", "LMR", "MAAPE", "MAD", "MAE",
    "MAGE", "MAPE", "MARE", "MASE", "MaxAE", "MBE", "MCD", "MD", "MdAE",
    "MdAPE", "MdASE", "MdLAR", "MdRAE", "MdSA", "MdSPE", "ME", "MMRE",
    "MNAFE", "MNB", "MNFB", "MPE", "MRAE", "MSE", "MSPE", "NCSD", "NMSE",
    "NRMSE_m", "NRMSE_mm", "NRMSE_sd", "RAE", "RelRMSE", "RMAE", "RMdSPE",
    "RMSE", "RMSPE", "RMSSE", "RRSE", "RSE", "SAD", "sMAPE", "sMdAPE",
    "SquD", "SSE", "VSD", "WHD",
]


class TestCatalogShape:
    def test_every_expected_name_resolves(self):
        for name in EXPECTED_NAMES:
            lookup(name)  # must not raise

    def test_counts(self):
        catalog = list(get_catalog().values())
        assert len(catalog) == 59
        primary = [d for d in catalog if d.category is Category.PRIMARY]
        extended = [d for d in catalog if d.category is Category.EXTENDED]
        composite = [d for d in catalog if d.category is Category.COMPOSITE]
        assert len(primary) == 46    # 43 implemented + 3 stubs
        assert len(extended) == 4
        assert len(composite) == 9   # 6 implemented + 3 stubs
        assert sum(1 for d in primary if d.implemented) == 43
        assert sum(1 for d in composite if d.implemented) == 6
        assert len(composed_definitions()) == 41

    def test_stub_set(self):
        stubs = {d.abbreviation for d in get_catalog().values() if not d.implemented}
        assert stubs == {"MAAPE", "HMD", "IPD", "MdASE", "RMSSE", "CumRAE"}
        for d in get_catalog().values():
            if not d.implemented:
                assert d.stub_reason

    def test_every_implemented_primary_has_a_value_route(self):
        for d in get_catalog().values():
            if d.category is Category.PRIMARY and d.implemented:
                assert d.composition is not None or d.direct is not None

    def test_composed_definitions_have_cells(self):
        for d in composed_definitions():
            assert d.composition is not None
            assert d.cell == d.composition.cell

    def test_abbreviations_unique_after_normalization(self):
        seen = set()
        for d in get_catalog().values():
            key = "".join(ch for ch in d.abbreviation.lower() if ch.isalnum())
            assert key not in seen
            seen.add(key)


class TestLookup:
    @pytest.mark.parametrize(
        "alias,target",
        [
            ("MAD", "MAE"),
            ("MAGE", "MAE"),
            ("MCD", "MAE"),
            ("MBE", "ME"),
            ("MMRE", "MARE"),
            ("CVRMSE", "NRMSE_m"),
            ("RelMAE", "RMAE"),
            ("TheilsU", "RelRMSE"),
            ("U2", "RelRMSE"),
        ],
    )
    def test_aliases(self, alias, target):
        assert lookup(alias).abbreviation == target

    def test_lookup_is_case_and_punctuation_insensitive(self):
        assert lookup("mae").abbreviation == "MAE"
        assert lookup("nrmse-m").abbreviation == "NRMSE_m"
        assert lookup("Md APE").abbreviation == "MdAPE"
        assert lookup("theil's u").abbreviation == "RelRMSE"

    def test_unknown_metric_suggests_neighbours(self):
        with pytest.raises(UnknownMetric) as exc:
            lookup("MAPE2")
        assert "MAPE" in exc.value.suggestions

    def test_unknown_metric_without_neighbours(self):
        with pytest.raises(UnknownMetric):
            lookup("zzqq")

    def test_list_metrics_filters(self):
        composite = list_metrics(category=Category.COMPOSITE)
        assert [d.abbreviation for d in composite] == sorted(
            ["CoD", "MASE", "RMAE", "RelRMSE", "LMR", "RGRMSE"], key=str.casefold
        )
        in_cell = list_metrics(cell=(Distance("D2"), NormKind.BY_ACTUALS, AggKind.MEDIAN))
        assert [d.abbreviation for d in in_cell] == ["MdAPE"]
        assert all(d.implemented for d in list_metrics())
        with_stubs = list_metrics(include_stubs=True)
        assert {d.abbreviation for d in with_stubs} >= {"MAAPE", "HMD"}

    def test_export_catalog_records(self):
        records = export_catalog()
        assert len(records) == 59
        by_abbr = {r["abbreviation"]: r for r in records}
        mae = by_abbr["MAE"]
        assert mae["category"] == "primary"
        assert mae["dimension"] == "same-as-data"
        assert mae["cell"] == {"distance": "D2", "normalizer": "N1", "aggregator": "G1"}
        assert mae["aliases"] == ["MAD", "MAGE", "MCD"]
        assert by_abbr["MAAPE"]["implemented"] is False
        assert by_abbr["MAAPE"]["reason"]


class TestEvaluateNamed:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("ME", -0.5),
            ("MAE", 1.0),
            ("MSE", 1.5),
            ("RMSE", 1.224744871391589),
            ("MAPE", 47.916666666666664),
            ("sMAPE", 36.3095238095238),
            ("RAE", 16 / 3),
            ("WHD", 1.15),
            ("DivD", 0.38803854875283444),
        ],
    )
    def test_values(self, name, expected):
        result = evaluate_named(PAIR, name)
        assert result.value == pytest.approx(expected, rel=1e-12)

    def test_result_metadata(self):
        result = evaluate_named(PAIR, "MAPE")
        assert result.dimension is Dimension.PERCENT
        assert result.points_total == 4
        assert result.points_skipped == 0
        assert result.policy_actions == ()

    def test_named_agrees_with_direct_formula(self):
        # no exact predictions and no actual at the mean, so every family
        # (geometric, variability-normalized, log) is well defined
        pair = SeriesPair([1.0, 2.0, 3.0, 5.0], [2.0, 4.0, 1.0, 3.0])
        for d in composed_definitions():
            got = evaluate_named(pair, d.abbreviation).value
            want = direct_formula(d.abbreviation, pair)
            assert got == pytest.approx(want, rel=1e-12), d.abbreviation

    def test_kld_value_and_dimension(self):
        pair = SeriesPair([0.25, 0.75], [0.5, 0.5])
        result = evaluate_named(pair, "KLD")
        assert result.value == pytest.approx(0.14384103622589042, rel=1e-12)
        assert result.dimension is Dimension.SAME_AS_DATA

    def test_kld_skip_diagnostics(self):
        pair = SeriesPair([1.0, -1.0, 2.0], [2.0, 1.0, 4.0])
        policy = EvaluationPolicy(nonpositive_log_ratio=LogRatioPolicy.SKIP)
        result = evaluate_named(pair, "KLD", policy)
        # surviving points: 2 ln(2/1) + 4 ln(4/2)
        assert result.value == pytest.approx(6 * math.log(2), rel=1e-12)
        assert result.points_skipped == 1
        assert [(a.index, a.action) for a in result.policy_actions] == [
            (1, "skipped:nonpositive-log-ratio")
        ]

    def test_variants(self):
        assert evaluate_named(PAIR, "RAE", variant="option2").value == pytest.approx(
            1.0, rel=1e-12
        )
        conventional = evaluate_named(PAIR, "RMSPE", variant="conventional").value
        default = evaluate_named(PAIR, "RMSPE").value
        assert conventional == pytest.approx(10.0 * default, rel=1e-12)
        pair = SeriesPair([1.0, 2.0, 4.0], [2.0, 1.0, 6.0])
        assert evaluate_named(pair, "GMRAE").value == pytest.approx(
            evaluate_named(pair, "GMRAE", variant="root-product").value, rel=1e-12
        )

    def test_unknown_variant(self):
        with pytest.raises(UnknownVariant):
            evaluate_named(PAIR, "MAE", variant="option2")

    def test_stub_raises(self):
        with pytest.raises(UnimplementedMetric) as exc:
            evaluate_named(PAIR, "MAAPE")
        assert exc.value.reason

    def test_benchmark_metric_raises_without_benchmark(self):
        with pytest.raises(RequiresBenchmark):
            evaluate_named(PAIR, "RMAE")

    @pytest.mark.parametrize("name", ["NRMSE_sd", "NMSE", "CoD"])
    def test_extended_and_cod_are_not_primary(self, name):
        with pytest.raises(RequiresBenchmark):
            evaluate_named(PAIR, name)

    def test_direct_formula_module_is_isolated(self):
        import ast

        import metricgrid.formulas as module

        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert "evaluator" not in name
                assert "registry" not in name
                assert "derived" not in name

    def test_dimension_assignments(self):
        expect = {
            "ME": Dimension.SAME_AS_DATA,
            "MSE": Dimension.SQUARED_DATA,
            "RMSE": Dimension.SAME_AS_DATA,
            "MAPE": Dimension.PERCENT,
            "MARE": Dimension.DIMENSIONLESS,
            "MdLAR": Dimension.DIMENSIONLESS,
            "MdSA": Dimension.PERCENT,
            "KLD": Dimension.SAME_AS_DATA,
            "JD": Dimension.SAME_AS_DATA,
            "NRMSE_m": Dimension.DIMENSIONLESS,
        }
        for name, dim in expect.items():
            assert lookup(name).dimension is dim, name
