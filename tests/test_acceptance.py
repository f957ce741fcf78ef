"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion N] ...: PASS`` (or FAIL) line, so
running ``pytest tests/test_acceptance.py -v -s`` doubles as the release
checklist.  Tolerances are part of the contract and are stated inline.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import CORPUS_SEED, rel_close
from metricgrid import cli, formulas
from metricgrid.chart import blank_cells, build_chart
from metricgrid.derived import (
    coefficient_of_determination,
    evaluate_metric,
    extended,
    mase,
    relative_metric,
)
from metricgrid.errors import GeometricMeanDomain, ZeroDenominator
from metricgrid.evaluator import point_distances
from metricgrid.registry import (
    Category,
    composed_definitions,
    evaluate_named,
    list_metrics,
    lookup,
)
from metricgrid.types import (
    FAIL_FAST,
    AggKind,
    Distance,
    EvaluationPolicy,
    NormKind,
    SeriesPair,
    ZeroDenominatorPolicy,
)

CATALOG_ABBREVIATIONS = [
    "CM", "CoD", "CVRMSE", "DivD", "ED", "FAE", "FB", "GMAE", "GMRAE",
    "GRMSE", "HMD", "IPD", "JD", "KLD", "LMR", "MAAPE", "MAD", "MAE",
    "MAGE", "MAPE", "MARE", "MASE", "MaxAE", "MBE", "MCD", "MD", "MdAE",
    "MdAPE", "MdASE", "MdLAR", "MdRAE", "MdSA", "MdSPE", "ME", "MMRE",
    "MNAFE", "MNB", "MNFB", "MPE", "MRAE", "MSE", "MSPE", "NCSD", "NMSE",
    "NRMSE_m", "NRMSE_mm", "NRMSE_sd", "RAE", "RelRMSE", "RMAE", "RMdSPE",
    "RMSE", "RMSPE", "RMSSE", "RRSE", "RSE", "SAD", "sMAPE", "sMdAPE",
    "SquD", "SSE", "VSD", "WHD",
]

DEMO_CSV = "actual,predicted\n1,2\n2,2\n3,5\n4,3\n"


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {text}: FAIL")
        raise
    print(f"[criterion {number}] {text}: PASS")


def test_criterion_1_catalog_coverage(tmp_path):
    with criterion(1, "catalog covers 40+ primary metrics and every abbreviation"):
        start = time.perf_counter()
        out = tmp_path / "primary.json"
        code = cli.main(["list", "--category", "primary", "--format", "json",
                         "--out", str(out)])
        assert code == 0
        records = json.loads(out.read_text())
        assert all(r["category"] == "primary" and r["implemented"] for r in records)
        assert len(records) >= 40
        for name in CATALOG_ABBREVIATIONS:
            defn = lookup(name)
            assert defn.implemented or defn.stub_reason, name
        assert len(list_metrics(category=Category.PRIMARY)) >= 40
        assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_equivalence(corpus):
    with criterion(2, "pipeline equals closed forms on 1000 random pairs (1e-12 rel)"):
        start = time.perf_counter()
        defs = composed_definitions()
        for pair in corpus:
            a, p = pair.actuals, pair.predicted
            for defn in defs:
                pipeline = evaluate_named(pair, defn.abbreviation).value
                direct = defn.direct(a, p, FAIL_FAST, None)
                assert rel_close(pipeline, direct), (defn.abbreviation, pipeline, direct)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_recipes_match_closed_forms(corpus):
    with criterion(2, "every derived recipe equals its closed form on 1000 random pairs (1e-12 rel)"):
        relative = {"RMAE": formulas.rmae, "RelRMSE": formulas.relrmse, "LMR": formulas.lmr,
                    "RGRMSE": formulas.rgrmse}
        recipes = [(d, None) for d in list_metrics() if d.recipe is not None]
        recipes += [(d, v) for d in list_metrics() for v, spec in d.variants.items() if spec.recipe]
        rng = np.random.default_rng(CORPUS_SEED + 3)
        for pair in corpus:
            a, p = pair.actuals, pair.predicted
            while True:  # nonzero benchmark errors keep GRMSE defined
                b = rng.uniform(0.5, 10.0, pair.n)
                if np.abs(a - b).min() > 1e-6:
                    break
            history = rng.uniform(0.5, 10.0, 8)
            for defn, variant in recipes:
                abbr = defn.abbreviation
                got = evaluate_metric(pair, abbr, FAIL_FAST, variant, SeriesPair(a, b), history)[0].value
                if abbr in relative:
                    want = relative[abbr](a, p, b)
                elif abbr == "MASE":
                    want = formulas.mase(a, p, history)
                else:
                    want = defn.direct(a, p, FAIL_FAST, variant)
                assert rel_close(got, want), (abbr, variant, got, want)


def test_criterion_3_identity_suite(corpus):
    with criterion(3, "algebraic identities hold across the corpus (1e-12 rel)"):
        for pair in corpus:
            n = pair.n
            v = {
                name: evaluate_named(pair, name).value
                for name in ("MAPE", "MARE", "MPE", "MNB", "sMAPE", "FAE", "RMSE",
                             "MSE", "ED", "SSE", "RRSE", "RSE", "SAD", "MAE", "MD", "ME")
            }
            assert rel_close(v["MAPE"], 100.0 * v["MARE"])
            assert rel_close(v["MPE"], 100.0 * v["MNB"])
            assert rel_close(v["sMAPE"], 100.0 * v["FAE"])
            assert rel_close(v["RMSE"], v["MSE"] ** 0.5)
            assert rel_close(v["ED"], v["SSE"] ** 0.5)
            assert rel_close(v["RRSE"], v["RSE"] ** 0.5)
            assert rel_close(v["SAD"], n * v["MAE"])
            assert rel_close(v["MD"], n * v["ME"])
            assert rel_close(
                extended(pair, "NMSE").value, extended(pair, "NRMSE_sd").value ** 2
            )
            d2 = point_distances(pair, Distance("D2")).values
            d3 = point_distances(pair, Distance("D3")).values
            d4 = point_distances(pair, Distance("D4")).values
            d5 = point_distances(pair, Distance("D5")).values
            assert np.array_equal(d3, d2 * d2)
            assert np.array_equal(d5, np.abs(d4))


def test_criterion_4_symmetry_and_scale(corpus):
    with criterion(4, "scale equivariance/invariance and swap symmetry (1e-12 rel)"):
        k = 3.7
        rng = np.random.default_rng(20250814 + 2)
        for pair in corpus:
            scaled = pair.scaled(k)
            for name in ("MAE", "RMSE", "MdAE"):
                assert rel_close(
                    evaluate_named(scaled, name).value,
                    k * evaluate_named(pair, name).value,
                ), name
            for name in ("MAPE", "sMAPE", "MdSA"):
                assert rel_close(
                    evaluate_named(scaled, name).value,
                    evaluate_named(pair, name).value,
                ), name
            while True:
                history = rng.uniform(0.5, 10.0, 8)
                if np.mean(np.abs(np.diff(history))) > 1e-3:
                    break
            assert rel_close(
                mase(scaled, history * k).value, mase(pair, history).value
            )
            swapped = pair.swapped()
            assert rel_close(
                evaluate_named(swapped, "ME").value, -evaluate_named(pair, "ME").value
            )
            assert rel_close(
                evaluate_named(swapped, "MdLAR").value,
                -evaluate_named(pair, "MdLAR").value,
            )
            for name in ("sMAPE", "MdSA", "MNAFE"):
                assert rel_close(
                    evaluate_named(swapped, name).value,
                    evaluate_named(pair, name).value,
                ), name


def test_criterion_5_hand_values():
    with criterion(5, "hand-checked spot values (1e-6 abs)"):
        pair = SeriesPair([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 3.0])
        tol = dict(abs=1e-6)
        assert evaluate_named(pair, "ME").value == pytest.approx(-0.5, **tol)
        assert evaluate_named(pair, "MAE").value == pytest.approx(1.0, **tol)
        assert evaluate_named(pair, "MSE").value == pytest.approx(1.5, **tol)
        assert evaluate_named(pair, "RMSE").value == pytest.approx(1.224744871391589, **tol)
        assert evaluate_named(pair, "MdAE").value == pytest.approx(1.0, **tol)
        assert evaluate_named(pair, "MAPE").value == pytest.approx(47.916666666666664, **tol)
        assert evaluate_named(pair, "sMAPE").value == pytest.approx(36.3095238095238, **tol)
        assert evaluate_named(pair, "RAE").value == pytest.approx(5.333333333333334, **tol)
        assert evaluate_named(pair, "RAE", variant="option2").value == pytest.approx(1.0, **tol)
        assert extended(pair, "NRMSE_m").value == pytest.approx(0.4898979485566356, **tol)
        assert mase(pair, np.array([1.0, 3.0, 2.0, 5.0])).value == pytest.approx(0.5, **tol)
        log_pair = SeriesPair([1.0, 2.0], [2.0, 4.0])
        assert evaluate_named(log_pair, "MdSA").value == pytest.approx(100.0, **tol)
        assert evaluate_named(log_pair, "MdLAR").value == pytest.approx(0.6931471805599453, **tol)
        kl_pair = SeriesPair([0.25, 0.75], [0.5, 0.5])
        assert evaluate_named(kl_pair, "KLD").value == pytest.approx(0.14384103622589042, **tol)


def test_criterion_6_degeneracy_handling():
    with criterion(6, "degenerate inputs fail loudly or correct with diagnostics"):
        zero_actual = SeriesPair([0.0, 2.0, 4.0], [1.0, 2.0, 5.0])
        with pytest.raises(ZeroDenominator):
            evaluate_named(zero_actual, "MARE")
        corrected = evaluate_named(
            zero_actual, "MARE",
            EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.EPSILON),
        )
        assert corrected.value == pytest.approx(0.25, rel=1e-12)
        assert [a.action for a in corrected.policy_actions] == ["epsilon-corrected"]
        assert [a.index for a in corrected.policy_actions] == [0]
        with pytest.raises(GeometricMeanDomain):
            evaluate_named(SeriesPair([1.0, 2.0], [1.0, 4.0]), "GMAE")
        with pytest.raises(ZeroDenominator):
            mase(SeriesPair([1.0, 2.0], [2.0, 4.0]), np.array([3.0, 3.0, 3.0]))
        constant = SeriesPair([2.0, 2.0, 2.0], [1.0, 3.0, 2.0])
        with pytest.raises(ZeroDenominator):
            coefficient_of_determination(constant)
        with pytest.raises(ZeroDenominator):
            extended(constant, "NRMSE_sd")


def test_criterion_7_chart_fidelity():
    with criterion(7, "chart occupancy matches the published grid"):
        grid = build_chart()
        spots = {
            "GMAE": (Distance("D2"), NormKind.UNITARY, AggKind.GEOMETRIC_MEAN),
            "VSD": (Distance("D3"), NormKind.BY_MIN, AggKind.SUM),
            "MdAPE": (Distance("D2"), NormKind.BY_ACTUALS, AggKind.MEDIAN),
            "WHD": (Distance("D2"), NormKind.BY_MAX, AggKind.SUM),
        }
        for abbr, cell in spots.items():
            assert abbr in {e.abbreviation for e in grid.occupants(cell)}, abbr
        blanks = {(b.distance, b.column, b.aggregator) for b in blank_cells(grid)}
        assert (Distance("D4"), "N1", AggKind.MEAN) in blanks
        assert (Distance("D5"), "N1", AggKind.GEOMETRIC_MEAN) in blanks
        assert not blanks & grid.occupied_columns()


def test_criterion_8_gm_ratio_interpretation():
    with criterion(8, "GMAE 12-vs-10 reads as an exact 1.2 ratio, 20% higher"):
        actuals = [0.0, 0.0]
        candidate = SeriesPair(actuals, [12.0, 12.0])
        benchmark = SeriesPair(actuals, [10.0, 10.0])
        assert evaluate_named(candidate, "GMAE").value == 12.0
        assert evaluate_named(benchmark, "GMAE").value == 10.0
        result = relative_metric(candidate, benchmark, base="GMAE")
        assert result.value == 1.2
        assert "20% higher" in result.interpretation


def test_criterion_9_cli_end_to_end(tmp_path):
    with criterion(9, "CLI evaluates the demo CSV reproducibly and embeds failures"):
        data = tmp_path / "demo.csv"
        data.write_text(DEMO_CSV)
        out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
        for out in (out1, out2):
            code = cli.main(["eval", "--input", str(data),
                             "--metrics", "MAE,RMSE,MAPE", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        by_name = {e["name"]: e for e in report["metrics"]}
        assert by_name["MAE"]["value"] == pytest.approx(1.0, rel=1e-12)
        assert by_name["RMSE"]["value"] == pytest.approx(1.224744871391589, rel=1e-12)
        assert by_name["MAPE"]["value"] == pytest.approx(47.916666666666664, rel=1e-12)

        failing = tmp_path / "gmae.json"
        code = cli.main(["eval", "--input", str(data), "--metrics", "GMAE",
                         "--out", str(failing)])
        assert code == 1
        failure = json.loads(failing.read_text())
        assert failure["metrics"][0]["error"]["type"] == "GeometricMeanDomain"
