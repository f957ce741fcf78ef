"""End-to-end command-line behaviour, driven in-process."""

import json
import math
import warnings

import numpy as np
import pytest

from metricgrid import cli
from metricgrid.types import AggKind, Distance, NormKind

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

    def test_config_must_be_object(self, capsys, demo_csv, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "eval", "--config", str(cfg), "--input", demo_csv,
                           "--metrics", "MAE")
        assert code == 2
        assert "object" in err


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
