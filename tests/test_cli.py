"""End-to-end command-line behaviour, driven in-process."""

import csv
import json
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from metricgrid import __version__, cli, derived
from metricgrid.errors import ParseError
from metricgrid.types import (
    AggKind,
    Distance,
    EvaluationPolicy,
    LogRatioPolicy,
    NormKind,
    SeriesPair,
    ZeroDenominatorPolicy,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402

DEMO_ROWS = "actual,predicted\n1,2\n2,2\n3,5\n4,3\n"


@pytest.fixture()
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(DEMO_ROWS)
    return str(path)


@pytest.fixture()
def bench_csv(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text("actual,predicted,benchmark\n1,2,2\n2,2,3\n3,5,5\n4,3,2\n")
    return str(path)


@pytest.fixture()
def zero_csv(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("actual,predicted\n0,1\n2,2\n4,5\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestEval:
    def test_basic_report(self, capsys, demo_csv):
        code, report, err = run_json(
            capsys, "eval", "--input", demo_csv, "--metrics", "MAE,RMSE,MAPE"
        )
        assert code == 0
        assert err == ""
        assert report["input"] == demo_csv
        assert report["version"]
        assert report["policy"]["zero_denominator"] == "fail"
        by_name = {e["name"]: e for e in report["metrics"]}
        assert by_name["MAE"]["value"] == pytest.approx(1.0, rel=1e-12)
        assert by_name["RMSE"]["value"] == pytest.approx(1.224744871391589, rel=1e-12)
        assert by_name["MAPE"]["value"] == pytest.approx(47.916666666666664, rel=1e-12)
        assert by_name["MAPE"]["dimension"] == "percent"
        assert by_name["MAE"]["points_total"] == 4
        assert by_name["MAE"]["points_skipped"] == 0
        assert by_name["MAE"]["actions"] == []

    def test_json_report_is_byte_stable(self, capsys, demo_csv):
        args = ("eval", "--input", demo_csv, "--metrics", "MAE,RMSE,MAPE")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_metric_failure_is_embedded_and_exits_one(self, capsys, demo_csv):
        code, report, err = run_json(
            capsys, "eval", "--input", demo_csv, "--metrics", "GMAE,MAE"
        )
        assert code == 1
        by_name = {e["name"]: e for e in report["metrics"]}
        assert by_name["GMAE"]["error"]["type"] == "GeometricMeanDomain"
        assert "value" not in by_name["GMAE"]
        assert by_name["MAE"]["value"] == pytest.approx(1.0, rel=1e-12)

    def test_unknown_metric_is_config_error(self, capsys, demo_csv):
        code, out, err = run(capsys, "eval", "--input", demo_csv, "--metrics", "MAPE2")
        assert code == 2
        assert out == ""
        assert "MAPE2" in err
        assert "MAPE" in err.replace("MAPE2", "")  # suggestion listed

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "eval", "--input", str(tmp_path / "nope.csv"), "--metrics", "MAE"
        )
        assert code == 2
        assert "nope.csv" in err

    def test_malformed_number_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("actual,predicted\n1,2\n2,2\n3,abc\n")
        code, out, err = run(capsys, "eval", "--input", str(path), "--metrics", "MAE")
        assert code == 2
        assert "line 4" in err

    def test_missing_column_named(self, capsys, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("actual,forecast\n1,2\n")
        code, out, err = run(capsys, "eval", "--input", str(path), "--metrics", "MAE")
        assert code == 2
        assert "predicted" in err

    def test_json_input(self, capsys, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"actual": [1, 2, 3, 4], "predicted": [2, 2, 5, 3]}))
        code, report, _ = run_json(capsys, "eval", "--input", str(path), "--metrics", "MAE")
        assert code == 0
        assert report["metrics"][0]["value"] == pytest.approx(1.0, rel=1e-12)

    def test_explicit_format_overrides_extension(self, capsys, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(json.dumps({"actual": [1, 2], "predicted": [2, 4]}))
        code, report, _ = run_json(
            capsys, "eval", "--input", str(path), "--input-format", "json",
            "--metrics", "MAE",
        )
        assert code == 0
        assert report["metrics"][0]["value"] == pytest.approx(1.5, rel=1e-12)

    def test_custom_column_names(self, capsys, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("y,yhat\n1,2\n2,2\n")
        code, report, _ = run_json(
            capsys, "eval", "--input", str(path), "--actual", "y",
            "--predicted", "yhat", "--metrics", "MAE",
        )
        assert code == 0
        assert report["metrics"][0]["value"] == pytest.approx(0.5, rel=1e-12)

    def test_benchmark_relative_detail(self, capsys, bench_csv):
        code, report, _ = run_json(
            capsys, "eval", "--input", bench_csv, "--benchmark", "benchmark",
            "--metrics", "RMAE",
        )
        assert code == 0
        entry = report["metrics"][0]
        assert entry["value"] == pytest.approx(1.0 / 1.5, rel=1e-12)
        detail = entry["detail"]
        assert detail["base"] == "MAE"
        assert detail["form"] == "ratio"
        assert detail["candidate"] == pytest.approx(1.0, rel=1e-12)
        assert detail["benchmark"] == pytest.approx(1.5, rel=1e-12)
        assert "lower" in detail["interpretation"]

    def test_benchmark_metric_without_column_fails_fast(self, capsys, demo_csv):
        code, out, err = run(capsys, "eval", "--input", demo_csv, "--metrics", "RMAE")
        assert code == 2
        assert out == ""
        assert "benchmark" in err

    def test_in_sample_mase(self, capsys, demo_csv, tmp_path):
        history = tmp_path / "history.json"
        history.write_text("[1, 3, 2, 5]")
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--in-sample", str(history),
            "--metrics", "MASE",
        )
        assert code == 0
        assert report["metrics"][0]["value"] == pytest.approx(0.5, rel=1e-12)

    def test_non_finite_history_names_its_index(self, capsys, demo_csv, tmp_path):
        history = tmp_path / "history.csv"
        history.write_text("actual\n1\n3\nnan\n5\n")
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--in-sample", str(history),
            "--metrics", "MASE,MAE",
        )
        assert code == 1
        assert report["metrics"][0]["error"] == {
            "type": "NonFiniteValue", "message": "non-finite value in in-sample history at index 2",
        }
        assert "value" in report["metrics"][1]

    def test_mase_without_history_fails_fast(self, capsys, demo_csv):
        code, _, err = run(capsys, "eval", "--input", demo_csv, "--metrics", "MASE")
        assert code == 2
        assert "in-sample" in err

    def test_stub_is_config_error(self, capsys, demo_csv):
        code, _, err = run(capsys, "eval", "--input", demo_csv, "--metrics", "MAAPE")
        assert code == 2
        assert "MAAPE" in err

    def test_variant_flag(self, capsys, demo_csv):
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--metrics", "RAE",
            "--variant", "RAE=option2",
        )
        assert code == 0
        entry = report["metrics"][0]
        assert entry["variant"] == "option2"
        assert entry["value"] == pytest.approx(1.0, rel=1e-12)

    def test_unknown_variant_is_config_error(self, capsys, demo_csv):
        code, _, err = run(
            capsys, "eval", "--input", demo_csv, "--metrics", "MAE",
            "--variant", "MAE=option2",
        )
        assert code == 2
        assert "variant" in err

    @pytest.mark.parametrize("key", ["rmspe", "RMSPE", "RmSpE"])
    def test_variant_key_is_matched_like_a_metric_name(self, capsys, demo_csv, tmp_path, key):
        _, plain, _ = run_json(capsys, "eval", "--input", demo_csv, "--metrics", "RMSPE")
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--metrics", "RMSPE",
            "--variant", f"{key}=conventional",
        )
        assert code == 0
        entry = report["metrics"][0]
        assert entry["variant"] == "conventional"
        assert entry["value"] != plain["metrics"][0]["value"]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "metrics": "RMSPE",
                                   "variants": {key: "conventional"}}))
        code, from_config, _ = run_json(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert from_config["metrics"] == report["metrics"]

    def test_variant_flag_overrides_config_key_spelled_otherwise(self, capsys, demo_csv, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "metrics": "RMSPE",
                                   "variants": {"RMSPE": "nonesuch"}}))
        code, report, _ = run_json(
            capsys, "eval", "--config", str(cfg), "--variant", "rmspe=conventional"
        )
        assert code == 0
        assert report["metrics"][0]["variant"] == "conventional"

    def test_unknown_variant_key_is_config_error(self, capsys, demo_csv, tmp_path):
        code, out, err = run(
            capsys, "eval", "--input", demo_csv, "--metrics", "RMSPE",
            "--variant", "RMSEP=conventional",
        )
        assert (code, out) == (2, "")
        assert "unknown metric 'RMSEP'" in err
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "metrics": "RMSPE",
                                   "variants": {"RMSEP": "conventional"}}))
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "unknown metric 'RMSEP'" in err

    @pytest.mark.parametrize("selection,variants", [
        (["--suite", "percentage"], {"MAPE": "nonesuch"}),
        (["--metrics", "RAE"], {"RAE": ""}),
        (["--metrics", "MAE"], {"RAE": "nonesuch"}),
    ])
    def test_every_variant_entry_is_checked(self, capsys, demo_csv, tmp_path, selection, variants):
        (name, variant), = variants.items()
        message = f"metric {name!r} has no variant {variant!r}"
        code, out, err = run(capsys, "eval", "--input", demo_csv, *selection,
                             "--variant", f"{name}={variant}")
        assert (code, out) == (2, "")
        assert message in err
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "variants": variants}))
        code, out, err = run(capsys, "eval", "--config", str(cfg), *selection)
        assert (code, out) == (2, "")
        assert message in err

    def test_null_config_variant_means_the_default(self, capsys, demo_csv, tmp_path):
        _, plain, _ = run_json(capsys, "eval", "--input", demo_csv, "--metrics", "RAE")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "metrics": "RAE", "variants": {"RAE": None}}))
        code, report, _ = run_json(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert report["metrics"] == plain["metrics"]
        assert "variant" not in report["metrics"][0]

    def test_suite_expansion(self, capsys, demo_csv):
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--suite", "percentage"
        )
        assert code == 0
        assert [e["name"] for e in report["metrics"]] == ["MAPE", "MdAPE", "sMAPE"]

    def test_suite_and_metric_deduplicate(self, capsys, demo_csv):
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--metrics", "MAPE",
            "--suite", "percentage",
        )
        assert code == 0
        assert [e["name"] for e in report["metrics"]] == ["MAPE", "MdAPE", "sMAPE"]

    def test_variant_reaches_suite_members(self, capsys, demo_csv, tmp_path):
        _, alone, _ = run_json(capsys, "eval", "--input", demo_csv, "--metrics", "sMAPE",
                               "--variant", "sMAPE=absolute")
        code, report, _ = run_json(capsys, "eval", "--input", demo_csv, "--suite", "percentage",
                                   "--variant", "smape=absolute")
        assert code == 0
        assert [e["name"] for e in report["metrics"]] == ["MAPE", "MdAPE", "sMAPE"]
        assert report["metrics"][2] == alone["metrics"][0]
        assert alone["metrics"][0]["variant"] == "absolute"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "suites": ["percentage"],
                                   "variants": {"sMAPE": "absolute"}}))
        code, from_config, _ = run_json(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert from_config["metrics"] == report["metrics"]

    def test_suite_member_keeps_its_pinned_variant(self, capsys, demo_csv, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "suites": ["mine"], "suite_definitions": {
            "mine": {"members": ["sMAPE:mean-denominator", "RMSPE"]}}}))
        for flags in ([], ["--variant", "sMAPE=absolute", "--variant", "RMSPE=conventional"]):
            code, report, _ = run_json(capsys, "eval", "--config", str(cfg), *flags)
            assert code == 0
            assert report["metrics"][0]["variant"] == "mean-denominator"
        assert report["metrics"][1]["variant"] == "conventional"

    def test_unknown_suite(self, capsys, demo_csv):
        code, _, err = run(capsys, "eval", "--input", demo_csv, "--suite", "nonesuch")
        assert code == 2
        assert "nonesuch" in err

    def test_adhoc_composition(self, capsys, demo_csv):
        descriptor = "distance=D4 normalizer=N1 aggregator=G1"
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--composition", descriptor
        )
        assert code == 0
        entry = report["metrics"][0]
        assert entry["name"] == descriptor
        expected = float(np.mean(np.log(np.array([2, 2, 5, 3]) / np.array([1, 2, 3, 4]))))
        assert entry["value"] == pytest.approx(expected, rel=1e-12)
        assert entry["dimension"] == "dimensionless"

    def test_adhoc_composition_with_post(self, capsys, demo_csv):
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv,
            "--composition", "distance=D3 aggregator=G1 post=scale:100,sqrt",
        )
        assert code == 0
        assert report["metrics"][0]["value"] == pytest.approx(
            math.sqrt(150.0), rel=1e-12
        )

    @pytest.mark.parametrize("name,transform", [("KLD", "times-predicted"), ("JD", "times-difference")])
    def test_weighted_log_sum_composition_is_the_divergence(self, capsys, demo_csv, name, transform):
        descriptor = f"distance=D4 normalizer=N1 aggregator=G4 transform={transform}"
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--metrics", name, "--composition", descriptor
        )
        assert code == 0
        by_name = {e["name"]: e for e in report["metrics"]}
        assert by_name[descriptor]["value"].hex() == by_name[name]["value"].hex()
        assert by_name[descriptor]["dimension"] == by_name[name]["dimension"] == "same-as-data"

    def test_bad_descriptor_is_config_error(self, capsys, demo_csv):
        code, _, err = run(
            capsys, "eval", "--input", demo_csv, "--composition", "distance=D9 aggregator=G1"
        )
        assert code == 2
        assert "D9" in err

    def test_nothing_selected(self, capsys, demo_csv):
        code, _, err = run(capsys, "eval", "--input", demo_csv)
        assert code == 2
        assert "nothing selected" in err

    def test_epsilon_policy_records_actions(self, capsys, zero_csv):
        code, report, _ = run_json(
            capsys, "eval", "--input", zero_csv, "--metrics", "MARE",
            "--epsilon", "smallest-nonzero",
        )
        assert code == 0
        entry = report["metrics"][0]
        assert entry["value"] == pytest.approx(0.25, rel=1e-12)
        assert entry["points_skipped"] == 0
        assert entry["actions"] == [{"index": 0, "action": "epsilon-corrected"}]
        assert report["policy"]["zero_denominator"] == "epsilon"

    def test_skip_policy_counts_skipped(self, capsys, zero_csv):
        code, report, _ = run_json(
            capsys, "eval", "--input", zero_csv, "--metrics", "MARE",
            "--on-zero-denominator", "skip",
        )
        assert code == 0
        entry = report["metrics"][0]
        assert entry["value"] == pytest.approx(0.125, rel=1e-12)
        assert entry["points_skipped"] == 1
        assert entry["actions"] == [{"index": 0, "action": "skipped:zero-denominator"}]

    def test_fail_policy_embeds_zero_denominator(self, capsys, zero_csv):
        code, report, _ = run_json(capsys, "eval", "--input", zero_csv, "--metrics", "MARE")
        assert code == 1
        assert report["metrics"][0]["error"]["type"] == "ZeroDenominator"

    def test_bad_epsilon_value(self, capsys, demo_csv):
        code, _, err = run(
            capsys, "eval", "--input", demo_csv, "--metrics", "MARE",
            "--epsilon", "tiny",
        )
        assert code == 2
        assert "epsilon" in err

    def test_table_report_marks_percent(self, capsys, demo_csv):
        code, out, _ = run(
            capsys, "eval", "--input", demo_csv, "--metrics", "MAPE,MAE",
            "--report", "table",
        )
        assert code == 0
        mape_line = next(line for line in out.splitlines() if line.startswith("MAPE"))
        assert "47.91666667%" in mape_line
        mae_line = next(line for line in out.splitlines() if line.startswith("MAE"))
        assert "%" not in mae_line

    def test_delimited_report(self, capsys, demo_csv):
        code, out, _ = run(
            capsys, "eval", "--input", demo_csv, "--metrics", "MAE",
            "--report", "delimited",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,variant,value,dimension,points_skipped,error"
        assert lines[1] == "MAE,,1.0,same-as-data,0,"

    def test_out_writes_file(self, capsys, demo_csv, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "eval", "--input", demo_csv, "--metrics", "MAE",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["metrics"][0]["value"] == pytest.approx(1.0, rel=1e-12)

    def test_config_file_supplies_defaults(self, capsys, demo_csv, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "metrics": ["MAE", "RMSE"]}))
        code, report, _ = run_json(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert [e["name"] for e in report["metrics"]] == ["MAE", "RMSE"]

    def test_flags_override_config(self, capsys, demo_csv, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": demo_csv, "metrics": ["MAE"]}))
        code, report, _ = run_json(
            capsys, "eval", "--config", str(cfg), "--metrics", "RMSE"
        )
        assert code == 0
        assert [e["name"] for e in report["metrics"]] == ["RMSE"]

    def test_config_policy_and_variants(self, capsys, zero_csv, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "input": zero_csv,
            "metrics": ["MARE"],
            "policy": {"zero_denominator": "skip"},
        }))
        code, report, _ = run_json(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert report["metrics"][0]["points_skipped"] == 1

    def test_config_suite_definitions(self, capsys, demo_csv, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "suite_definitions": {
                "mine": {"members": ["MAE", "RAE:option2"], "rationale": "example"}
            }
        }))
        code, report, _ = run_json(
            capsys, "eval", "--input", demo_csv, "--config", str(cfg), "--suite", "mine"
        )
        assert code == 0
        names = [(e["name"], e.get("variant")) for e in report["metrics"]]
        assert names == [("MAE", None), ("RAE", "option2")]

    @pytest.mark.parametrize("member", ["MAE:option2", "RMAE"])
    def test_misconfigured_suite_member_is_config_error(self, capsys, demo_csv, tmp_path, member):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"suite_definitions": {"bad": {"members": ["MAE", member]}}}))
        code, out, err = run(
            capsys, "eval", "--input", demo_csv, "--config", str(cfg), "--suite", "bad"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_lmr_of_perfect_candidate_is_embedded(self, capsys, tmp_path):
        path = tmp_path / "perfect.csv"
        path.write_text("actual,predicted,benchmark\n1,1,2\n2,2,3\n3,3,5\n")
        code, report, _ = run_json(
            capsys, "eval", "--input", str(path), "--benchmark", "benchmark",
            "--metrics", "LMR,RelRMSE",
        )
        assert code == 1
        lmr, relrmse = report["metrics"]
        assert lmr["error"]["type"] == "LogDomain"
        assert relrmse["value"] == 0.0

    @pytest.mark.parametrize("flags,message", [
        (["-m", "MEA"], "unknown metric 'MEA'"),
        (["-m", "MAAPE"], "metric 'MAAPE' is catalogued but not implemented"),
        (["-m", "MAE", "--variant", "MAE=option2"], "metric 'MAE' has no variant 'option2'"),
        (["-m", "RMAE"], "metric 'RMAE' needs a benchmark prediction and none was supplied"),
    ])
    def test_selection_is_checked_before_any_input_is_read(self, capsys, monkeypatch, demo_csv,
                                                            flags, message):
        def unread(*args):
            raise ParseError("the input was read")

        monkeypatch.setattr(cli, "ingest", unread)
        monkeypatch.setattr(cli, "load_series", unread)
        code, out, err = run(capsys, "eval", "--input", demo_csv, *flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_config_must_be_object(self, capsys, demo_csv, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--input", demo_csv,
                           "--metrics", "MAE")
        assert code == 2
        assert "object" in err


DEGENERATE_FLAGS = {
    "skip": ("--on-zero-denominator", "skip"),
    "epsilon": ("--on-zero-denominator", "epsilon", "--epsilon", "smallest-nonzero"),
}


@pytest.fixture(scope="module")
def degenerate_json(tmp_path_factory):
    """20k rows, ~30% zero actuals and ~5% negative predictions."""
    return inputs.write("json_degenerate", 3, str(tmp_path_factory.mktemp("degenerate")))["input"]


def degenerate_run(path: str, policy_name: str) -> tuple[list[str], SeriesPair, EvaluationPolicy]:
    """The eval argv, the evaluation pair and the policy it applies."""
    argv = ["eval", "--input", path, "--metrics", ",".join(workloads.DEGENERATE_METRICS),
            "--on-nonpositive-log", "skip", *DEGENERATE_FLAGS[policy_name]]
    pair, _ = cli.ingest(path, None, "actual", "predicted", None)
    return argv, pair, EvaluationPolicy(ZeroDenominatorPolicy(policy_name), LogRatioPolicy.SKIP)


def uncapped_report(path: str, pair: SeriesPair, policy: EvaluationPolicy, names) -> dict:
    """The report ``eval`` would write with every policy action listed."""
    return {
        "input": path,
        "metrics": [cli.evaluate_selection(pair, *entry, None, None, policy)
                    for entry in derived.selection_plan(names)],
        "policy": policy.to_config(),
        "version": __version__,
    }


class TestActionCap:
    """A report lists a metric's first ``cli.ACTIONS_LISTED`` policy actions
    and, past that, counts every one by label."""

    @pytest.mark.parametrize("policy_name", ["skip", "epsilon"])
    def test_lists_the_first_actions_and_counts_every_one(self, capsys, degenerate_json,
                                                          policy_name):
        argv, pair, policy = degenerate_run(degenerate_json, policy_name)
        code, report, _ = run_json(capsys, *argv)
        assert code == 0
        capped = []
        for entry in report["metrics"]:
            taken = list(derived.evaluate_metric(pair, entry["name"], policy)[0].actions)
            listed = [(a["action"], a["index"]) for a in entry["actions"]]
            assert listed == [(a.action, a.index) for a in taken[:cli.ACTIONS_LISTED]]
            if len(taken) <= cli.ACTIONS_LISTED:
                assert "action_counts" not in entry
                continue
            capped.append(entry["name"])
            assert len(listed) == cli.ACTIONS_LISTED
            counts = entry["action_counts"]
            assert counts == Counter(a.action for a in taken)
            assert sum(counts.values()) == entry["points_skipped"] + counts.get("epsilon-corrected", 0)
        assert set(capped) == set(workloads.DEGENERATE_METRICS) - {"MAE", "RMSE"}

    @pytest.mark.parametrize("zeros", [10, 11])
    def test_cap_boundary(self, capsys, tmp_path, zeros):
        assert cli.ACTIONS_LISTED == 10
        path = tmp_path / "zeros.csv"
        path.write_text("actual,predicted\n" + "0,1\n" * zeros + "2,3\n4,5\n")
        code, out, _ = run(capsys, "eval", "--input", str(path), "--metrics", "MAPE",
                           "--on-zero-denominator", "skip")
        assert code == 0
        (entry,) = json.loads(out)["metrics"]
        assert entry["points_skipped"] == zeros
        assert [a["index"] for a in entry["actions"]] == list(range(10))
        if zeros == 10:
            assert "action_counts" not in entry
            pair, _ = cli.ingest(str(path), None, "actual", "predicted", None)
            policy = EvaluationPolicy(zero_denominator=ZeroDenominatorPolicy.SKIP)
            assert out == cli._json(uncapped_report(str(path), pair, policy, ["MAPE"]))
        else:
            assert entry["action_counts"] == {"skipped:zero-denominator": 11}

    @pytest.mark.parametrize("policy_name", ["skip", "epsilon"])
    def test_cap_changes_only_the_action_list(self, capsys, degenerate_json, policy_name):
        argv, pair, policy = degenerate_run(degenerate_json, policy_name)
        uncapped = cli._json(uncapped_report(degenerate_json, pair, policy,
                                             workloads.DEGENERATE_METRICS))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(out) < len(uncapped) // 100
        full, capped = json.loads(uncapped), json.loads(out)
        for report in (full, capped):
            for entry in report["metrics"]:
                del entry["actions"]
                entry.pop("action_counts", None)
        assert capped == full


class TestChart:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "chart")
        assert code == 0
        assert "GMAE" in out
        assert "KLD c=-1 (as printed)" in out
        assert "annex (outside the core grid):" in out

    def test_blanks(self, capsys):
        code, out, _ = run(capsys, "chart", "--blanks")
        assert code == 0
        assert "D4 N1 G1" in out

    def test_delimited(self, capsys):
        code, out, _ = run(capsys, "chart", "--format", "delimited")
        assert code == 0
        assert out.splitlines()[0] == "distance,normalizer,aggregator,entry,c,note"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "chart.txt"
        code, out, _ = run(capsys, "chart", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "GMAE" in target.read_text()

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "chart", "--format", "markup", "--blanks")
        _, out2, _ = run(capsys, "chart", "--format", "markup", "--blanks")
        assert out1 == out2


class TestList:
    def test_cell_filter(self, capsys):
        code, out, _ = run(capsys, "list", "--cell", "D2,N2,G2")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("MdAPE")

    @pytest.mark.parametrize("cell, listed", [
        ("D3,N5,G4", ["VSD"]), ("D2,n5,G4", ["WHD"]),
        ("D3,N5min,G4", ["VSD"]), ("D3,N5max,G4", []),
        ("D2,N5max,G4", ["WHD"]), ("D2,n5-min,G4", []),
    ])
    def test_cell_filter_n5_is_the_chart_column(self, capsys, cell, listed):
        """A plain N5 matches max and min, as the chart's N5 column holds
        both; N5max and N5min each match one."""
        code, out, _ = run(capsys, "list", "--cell", cell)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines() if line.strip()] == listed

    def test_category_filter_json(self, capsys):
        code, out, _ = run(capsys, "list", "--category", "composite", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert {r["abbreviation"] for r in records} == {
            "CoD", "MASE", "RMAE", "RelRMSE", "LMR", "RGRMSE"
        }

    def test_stub_visibility(self, capsys):
        code, out, _ = run(capsys, "list")
        assert "MAAPE" not in out
        code, out, _ = run(capsys, "list", "--include-stubs")
        assert "MAAPE" in out
        assert "[not implemented]" in out

    def test_json_counts(self, capsys):
        _, out, _ = run(capsys, "list", "--format", "json")
        assert len(json.loads(out)) == 53
        _, out, _ = run(capsys, "list", "--format", "json", "--include-stubs")
        assert len(json.loads(out)) == 59

    def test_delimited(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "delimited")
        assert code == 0
        assert out.splitlines()[0] == "abbreviation,name,category,dimension,implemented"

    @pytest.mark.parametrize("fmt, want", [
        ("table", ""), ("json", "[]\n"), ("delimited", "abbreviation,name,category,dimension,implemented\n"),
    ])
    def test_no_match_prints_no_row(self, capsys, fmt, want):
        code, out, _ = run(capsys, "list", "--cell", "D3,N5max,G4", "--format", fmt)
        assert (code, out) == (0, want)

    def test_bad_cell(self, capsys):
        code, _, err = run(capsys, "list", "--cell", "D2")
        assert code == 2
        assert "cell" in err


class TestDescriptorTables:
    @pytest.mark.parametrize(
        "member", [*Distance, *NormKind, *AggKind], ids=lambda m: f"{type(m).__name__}.{m.name}"
    )
    @pytest.mark.parametrize("spelling", ["code", "long name"])
    def test_every_grid_part_parses_by_code_and_long_name(self, capsys, member, spelling):
        token = member.value if spelling == "code" else member.name.lower().replace("_", "-")
        cell = {Distance: [token, "N1", "G1"], NormKind: ["D2", token, "G1"],
                AggKind: ["D2", "N1", token]}[type(member)]
        comp = cli.parse_composition(
            f"distance={cell[0]} normalizer={cell[1]} aggregator={cell[2]}"
        )
        assert member in (comp.distance, comp.normalizer.kind, comp.aggregator.kind)
        assert member in cli.parse_cell(",".join(cell))
        code, _, err = run(capsys, "list", "--cell", ",".join(cell))
        assert code == 0, err


class TestDescriptorValues:
    @pytest.mark.parametrize("text,value", [
        ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("False", False), ("no", False), ("0", False),
    ])
    def test_absolute_takes_a_boolean_word(self, text, value):
        comp = cli.parse_composition(f"distance=D2 normalizer=N3 aggregator=G1 absolute={text}")
        assert comp.normalizer.absolute is value

    @pytest.mark.parametrize("text", ["ture", "2", "on", "y", "t"])
    def test_absolute_refuses_any_other_word(self, capsys, demo_csv, text):
        descriptor = f"distance=D2 normalizer=N1 aggregator=G1 absolute={text}"
        with pytest.raises(ParseError, match="absolute"):
            cli.parse_composition(descriptor)
        code, out, err = run(capsys, "eval", "--input", demo_csv, "--composition", descriptor)
        assert (code, out) == (2, "")
        assert repr(text) in err

    @pytest.mark.parametrize("descriptor", [
        "distance=D2 aggregator=G1 distance=D3",
        "distance=D2 normalizer=N1 aggregator=G1 c=1 C=2",
        "distance=D2 normalizer=N1 aggregator=G1 absolute=true absolute=true",
    ])
    def test_repeated_key_is_refused(self, capsys, demo_csv, descriptor):
        with pytest.raises(ParseError, match="more than once"):
            cli.parse_composition(descriptor)
        code, out, err = run(capsys, "eval", "--input", demo_csv, "--composition", descriptor)
        assert (code, out) == (2, "")
        assert "more than once" in err


    @pytest.mark.parametrize("descriptor,unused", [
        ("distance=D2 aggregator=G1 factor=2", "factor"),
        ("distance=D2 normalizer=N1 aggregator=G1 c=2", "c"),
        ("distance=D2 aggregator=G1 absolute=true c=1", "absolute, c"),
    ])
    def test_unitary_normalizer_refuses_its_fields(self, capsys, demo_csv, descriptor, unused):
        message = f"N1 normalizer takes no {unused}"
        with pytest.raises(ParseError, match=message):
            cli.parse_composition(descriptor)
        code, out, err = run(capsys, "eval", "--input", demo_csv, "--composition", descriptor)
        assert (code, out) == (2, "")
        assert message in err


COMMA_DESCRIPTORS = ["distance=D3 aggregator=G1 post=sqrt,scale:2",
                     "distance=D2 aggregator=G1 post=sqrt,scale:2"]


@pytest.mark.parametrize("argv", [
    ["eval", "--metrics", "MAE,RAE,MARE", "--variant", "RAE=option2", "--report", "delimited",
     *[arg for d in COMMA_DESCRIPTORS for arg in ("--composition", d)]],
    ["list", "--format", "delimited", "--include-stubs"],
    ["chart", "--format", "delimited", "--blanks"],
], ids=["eval", "list", "chart"])
def test_every_delimited_row_has_the_header_width(capsys, zero_csv, argv):
    if argv[0] == "eval":
        argv = [*argv, "--input", zero_csv]
    _, out, _ = run(capsys, *argv)
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) > 3
    assert {len(row) for row in rows} == {len(rows[0])}
    if argv[0] == "eval":
        assert [(row[0], row[-1]) for row in rows[1:]] == [
            ("MAE", ""), ("RAE", ""), ("MARE", "ZeroDenominator"),
            (COMMA_DESCRIPTORS[0], ""), (COMMA_DESCRIPTORS[1], "ValidationError"),
        ]


class TestSuites:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "suites")
        assert code == 0
        assert "bias-accuracy: ME, MAE, RMSE" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "suites", "--format", "json")
        assert code == 0
        names = {s["name"] for s in json.loads(out)}
        assert names == {"bias-accuracy", "log-symmetric", "percentage"}

    def test_config_suites_listed(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "suite_definitions": {"mine": {"members": ["MAE"]}}
        }))
        code, out, _ = run(capsys, "suites", "--config", str(cfg))
        assert code == 0
        assert "mine: MAE" in out


def test_overflowing_distance_is_an_error_entry(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"actual": [1e308, -1e308, 1], "predicted": [-1e308, 1e308, 2]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eval", "--input", str(path), "--metrics", "MAE,RMSE,ME")
    assert code == 1
    assert "Infinity" not in out and "NaN" not in out
    entries = json.loads(out)["metrics"]
    assert [e["error"]["type"] for e in entries] == ["DistanceOverflow"] * 3
    assert all("index 0" in e["error"]["message"] for e in entries)
    assert err == ""


@pytest.mark.parametrize("data", [
    '{"actual": [1e308, 1e308, 1], "predicted": [1.5e308, 1.7e308, 2]}',
    '{"actual": [1e308, -1e308, 1], "predicted": [-1e308, 1e308, 2]}',
])
@pytest.mark.parametrize("flags", [
    [], ["--on-zero-denominator", "skip", "--on-nonpositive-log", "skip"],
    ["--epsilon", "smallest-nonzero", "--on-nonpositive-log", "skip"],
])
def test_values_near_double_range_give_finite_values_or_typed_errors(capsys, tmp_path, data, flags):
    from metricgrid import errors, registry

    members = [f"{d.abbreviation}:{v}" if v else d.abbreviation
               for d in registry.list_metrics() if d.requires is None for v in (None, *d.variants)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite_definitions": {"pair-only": {"members": members}}}))
    path = tmp_path / "huge.json"
    path.write_text(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eval", "--input", str(path), "--config", str(config),
                             "--suite", "pair-only", *flags)
    assert code == 1
    assert err == ""
    entries = json.loads(out, parse_constant=lambda name: pytest.fail(f"report holds {name}"))["metrics"]
    assert len(entries) == len(members)
    for e in entries:
        if "error" in e:
            assert issubclass(getattr(errors, e["error"]["type"]), errors.EvaluationError), e
        else:
            assert math.isfinite(e["value"]), e


class TestErrorBranches:
    """The CLI's refusals, each exiting 2 with its message and nothing on
    stdout, and two paths beside them: the symmetric-accuracy post
    transform, and a table report holding an error entry."""

    @pytest.mark.parametrize("descriptor,message", [
        ("distance=D2 aggregator=G1 oops", "descriptor token 'oops' is not key=value"),
        ("distance=D2 aggregator=G1 colour=red", "unknown descriptor key(s): colour"),
        ("distance=D2", "descriptor needs at least distance=... and aggregator=..."),
        ("aggregator=G1", "descriptor needs at least distance=... and aggregator=..."),
        ("distance=D2 aggregator=G1 post=cube", "unknown post transform 'cube'"),
        ("distance=D2 aggregator=G1 post=scale:x", "bad scale constant in post transform 'scale:x'"),
        ("distance=D2 aggregator=G1 transform=squash", "unknown transform 'squash'"),
        ("distance=D2 normalizer=N2 aggregator=G1 c=two", "bad numeric field in descriptor"),
    ])
    def test_bad_descriptor(self, capsys, demo_csv, descriptor, message):
        code, out, err = run(capsys, "eval", "--input", demo_csv, "--composition", descriptor)
        assert (code, out) == (2, "")
        assert message in err

    def test_symmetric_accuracy_post_is_accepted(self, capsys, demo_csv):
        code, report, _ = run_json(capsys, "eval", "--input", demo_csv, "--composition",
                                   "distance=D5 aggregator=G1 post=symmetric-accuracy")
        assert code == 0
        logs = np.abs(np.log(np.array([2, 2, 5, 3]) / np.array([1, 2, 3, 4])))
        assert report["metrics"][0]["value"] == pytest.approx(100 * math.expm1(logs.mean()), rel=1e-12)
        assert report["metrics"][0]["dimension"] == "percent"

    def test_cell_with_an_unknown_part(self, capsys):
        code, out, err = run(capsys, "list", "--cell", "D2,N9,G1")
        assert (code, out) == (2, "")
        assert "unknown normalizer 'n9' in cell 'D2,N9,G1'" in err

    def test_variant_without_equals(self, capsys, demo_csv):
        code, out, err = run(capsys, "eval", "--input", demo_csv, "--metrics", "RAE",
                             "--variant", "RAE")
        assert (code, out) == (2, "")
        assert "--variant must be NAME=VARIANT, got 'RAE'" in err

    def test_no_input(self, capsys):
        code, out, err = run(capsys, "eval", "--metrics", "MAE")
        assert (code, out) == (2, "")
        assert "no input file: pass --input or set 'input' in the config" in err

    @pytest.mark.parametrize("payload,message", [
        ("[1, 2]", "must hold a JSON object with named arrays"),
        ('{"actual": [1, 2]}', "is missing key 'predicted'"),
    ])
    def test_json_input_shape(self, capsys, tmp_path, payload, message):
        path = tmp_path / "input.json"
        path.write_text(payload)
        code, out, err = run(capsys, "eval", "--input", str(path), "--metrics", "MAE")
        assert (code, out) == (2, "")
        assert f"{path} {message}" in err

    @pytest.mark.parametrize("payload", ['{"history": [1, 3, 2]}', '"1, 3, 2"'])
    def test_history_json_shape(self, capsys, demo_csv, tmp_path, payload):
        history = tmp_path / "history.json"
        history.write_text(payload)
        code, out, err = run(capsys, "eval", "--input", demo_csv, "--metrics", "MASE",
                             "--in-sample", str(history))
        assert (code, out) == (2, "")
        assert f"{history} must be a JSON array or an object with key 'actual'" in err

    def test_table_report_names_the_error(self, capsys, zero_csv):
        code, out, _ = run(capsys, "eval", "--input", zero_csv, "--metrics", "MAPE,MAE",
                           "--report", "table")
        assert code == 1
        lines = out.splitlines()
        assert lines[1].split()[:3] == ["MAPE", "ERROR", "ZeroDenominator"]
        assert lines[1].endswith("normalization denominator is zero or near zero at index 0")


class TestParser:
    def test_main_builds_one_parser_per_process(self, capsys, demo_csv, monkeypatch):
        built, original = [], cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "eval", "--input", demo_csv, "--metrics", "MAE")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert original() is not original()

    def test_repeated_options_do_not_carry_over(self, capsys, demo_csv):
        code, first, _ = run_json(capsys, "eval", "--input", demo_csv, "--metrics", "sMAPE",
                                  "--composition", "distance=D3 aggregator=G1",
                                  "--variant", "sMAPE=absolute")
        assert code == 0 and len(first["metrics"]) == 2
        assert first["metrics"][0]["variant"] == "absolute"
        code, second, _ = run_json(capsys, "eval", "--input", demo_csv, "--metrics", "sMAPE")
        assert code == 0 and [e["name"] for e in second["metrics"]] == ["sMAPE"]
        assert "variant" not in second["metrics"][0]
