"""The config file's shape is checked where it is read: a known key holding
a value of the wrong shape exits 2 naming the key, before any data is read."""

import json

import pytest

from metricgrid import cli

ROWS = "actual,predicted\n1,2\n2,2.5\n3,2\n"


@pytest.fixture()
def data(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text(ROWS)
    return tmp_path


def run(capsys, config, *argv):
    with open("c.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    code = cli.main([*argv, "--config", "c.json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BAD = [
    ("metrics", {"metrics": 5}),
    ("metrics", {"metrics": ["MAE", 3]}),
    ("policy", {"policy": 5}),
    ("variants", {"variants": 5}),
    ("variants", {"variants": {"RAE": 2}}),
    ("actual", {"actual": 5}),
    ("input", {"input": ["d.csv"]}),
    ("suite_definitions", {"suite_definitions": [1]}),
    ("suite_definitions.m", {"suite_definitions": {"m": {"members": "MAE"}}}),
    ("suite_definitions.m", {"suite_definitions": {"m": {"members": ["MAE", 1]}}}),
    ("suite_definitions.m", {"suite_definitions": {"m": {"members": ["MAE"], "rationale": 1}}}),
    ("suite_definitions.m", {"suite_definitions": {"m": ["MAE"]}}),
    ("policy.zero_denominator", {"policy": {"zero_denominator": "bogus"}}),
    ("policy.nonpositive_log_ratio", {"policy": {"nonpositive_log_ratio": "epsilon"}}),
    ("policy.epsilon", {"policy": {"epsilon": True}}),
    ("policy.epsilon", {"policy": {"epsilon": [0.5]}}),
    ("policy.epsilon", {"policy": {"epsilon": 10**400}}),
    ("suites", {"suites": "percentage"}),
    ("compositions", {"compositions": "distance=D2 aggregator=G1"}),
    ("input_format", {"input_format": "xml"}),
    ("report", {"report": "yaml"}),
]


@pytest.mark.parametrize("key, bad", BAD, ids=[json.dumps(b) for _, b in BAD])
def test_wrong_shape_exits_2_naming_the_key(data, capsys, key, bad):
    code, out, err = run(capsys, {"input": "d.csv", "metrics": "MAE", **bad}, "eval")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"config key {key!r}" in err


@pytest.mark.parametrize("key, bad", BAD, ids=[json.dumps(b) for _, b in BAD])
def test_suites_checks_the_same_config(data, capsys, key, bad):
    code, out, err = run(capsys, bad, "suites")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"config key {key!r}" in err


def test_epsilon_text_that_is_not_a_number_names_the_key(data, capsys):
    code, out, err = run(capsys, {"input": "d.csv", "metrics": "MAE",
                                  "policy": {"epsilon": "abc"}}, "eval")
    assert (code, out) == (2, "")
    assert "config key 'policy.epsilon'" in err and "--epsilon" not in err
    # the flag keeps its own message
    assert cli.main(["eval", "-i", "d.csv", "-m", "MAE", "--epsilon", "abc"]) == 2
    assert "--epsilon must be a number or 'smallest-nonzero', got 'abc'" in capsys.readouterr().err


def test_epsilon_integer_beyond_float_range_names_the_key(data, capsys):
    with open("c.json", "w", encoding="utf-8") as fh:
        fh.write('{"input": "d.csv", "metrics": "MAE", "policy": {"epsilon": 1' + "0" * 400 + "}}")
    assert cli.main(["eval", "--config", "c.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: c.json: config key 'policy.epsilon' must be within the float range\n"


def test_nulls_and_unknown_keys_are_ignored(data, capsys):
    config = {
        "input": "d.csv", "metrics": None, "suites": ["percentage"], "benchmark": None,
        "variants": {"RAE": None}, "policy": {"epsilon": "0.5", "zero_denominator": None},
        "suite_definitions": {"m": {"members": ["MAE"], "rationale": None}}, "colour": [1],
    }
    code, out, err = run(capsys, config, "eval")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert [e["name"] for e in report["metrics"]] == ["MAPE", "MdAPE", "sMAPE"]
    assert report["policy"]["epsilon"] == 0.5
    code, out, _ = run(capsys, config, "suites", "--format", "json")
    assert code == 0
    assert {"name": "m", "members": ["MAE"], "rationale": ""} in json.loads(out)


@pytest.mark.parametrize("key, verb", [("input", "read"), ("in_sample", "read"), ("out", "write")])
def test_path_holding_a_nul_byte_exits_2(data, capsys, key, verb):
    code, out, err = run(capsys, {"input": "d.csv", "metrics": "MAE", key: "a\x00b"}, "eval")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot {verb} a\x00b:") and "null byte" in err


def test_unwritable_out_exits_2(data, capsys):
    code, out, err = run(capsys, {"input": "d.csv", "metrics": "MAE", "out": "missing/r.json"}, "eval")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write missing/r.json:")
