"""Vectorized ingest against the row-by-row reader it falls back to.

``cli.read_columns_csv`` parses a body in one NumPy call and re-reads the
file with ``cli._read_rows`` only when that call cannot give the same
result; ``cli._json_floats`` converts an all-number JSON array in one call
and walks any other one element by element.  Each pair must agree bit for
bit, or raise the same error with the same text.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgrid import cli
from metricgrid.errors import ParseError
from metricgrid.types import ensure_iterable_of_floats

COLUMNS = ["actual", "predicted"]

BODIES = {
    "crlf": "actual,predicted\r\n1,2\r\n3,4\r\n",
    "cr-only": "actual,predicted\r1,2\r3,4\r",
    "quoted-numbers": 'actual,predicted\n"1","2.5"\n3,"4"\n',
    "quoted-padded": 'actual,predicted\n" 1","2 "\n',
    "quote-then-digits": 'actual,predicted\n"1"2,3\n',
    "quote-inside": 'actual,predicted\n1"2",3\n',
    "quoted-comma": 'actual,predicted\n"1,5",2\n',
    "spaces-and-tabs": "actual,predicted\n 1 ,\t2\t\n\t3, 4 \n",
    "empty-lines": "actual,predicted\n\n1,2\n\n3,4\n\n",
    "whitespace-lines": "actual,predicted\n   \n1,2\n\t\n",
    "comma-rows": "actual,predicted\n,,\n1,2\n,\n",
    "empty-field": "actual,predicted\n1,\n",
    "short-row": "actual,predicted\n1,2\n3\n",
    "all-rows-short": "actual,predicted,benchmark\n1,2\n3,4\n",
    "longer-rows": "actual,predicted\n1,2,9\n3,4,9\n",
    "longer-some-rows": "actual,predicted\n1,2,9\n3,4\n",
    "longer-non-numeric": "actual,predicted\n1,2,x\n",
    "leading-hash": "actual,predicted\n#1,2\n",
    "hash-after-data": "actual,predicted\n1,2\n3,4 # note\n",
    "underscore": "actual,predicted\n1_000,2\n",
    "fullwidth-digits": "actual,predicted\n１,2\n",
    "non-numeric": "actual,predicted\n1,2\n3,abc\n",
    "nan-inf": "actual,predicted\nnan,inf\n-inf,-nan\nNaN,-Infinity\n",
    "overflowing-literal": "actual,predicted\n1e999,-1e999\n",
    "subnormal-and-zero": "actual,predicted\n5e-324,-0.0\n0.0,2.2250738585072014e-308\n",
    "header-only": "actual,predicted\n",
    "header-only-no-newline": "actual,predicted",
    "blank-body": "actual,predicted\n\n\r\n",
    "empty-file": "",
    "blank-header": "\n1,2\n",
    "missing-column": "actual,forecast\n1,2\n",
    "quoted-header": '"actual",predicted\n1,2\n',
    "quoted-header-newline": '"act\nual",actual,predicted\n1,2,3\n',
    "header-padded": " actual , predicted \n1,2\n",
    "duplicate-header": "actual,actual,predicted\n1,2,3\n",
    "non-numeric-unselected": "actual,note,predicted\n1,x,2\n",
    "single-row": "actual,predicted\n1,2\n",
    "no-final-newline": "actual,predicted\n1,2\n3,4",
}

# Bodies the single NumPy call must serve without re-reading the file.
FAST = [
    "crlf", "cr-only", "quoted-numbers", "quoted-padded", "quote-then-digits",
    "spaces-and-tabs", "empty-lines", "longer-rows", "nan-inf",
    "overflowing-literal", "subnormal-and-zero", "header-padded",
    "duplicate-header", "single-row", "no-final-newline",
]


def outcome(read, *args):
    """Arrays as (dtype, shape, bytes, contiguity), or the error's type and text."""
    try:
        out = read(*args)
    except Exception as exc:  # the type is part of what must match
        return "error", type(exc).__name__, str(exc)
    if isinstance(out, np.ndarray):
        out = {"": out}
    return "ok", {
        k: (v.dtype.str, v.shape, v.tobytes(), v.flags.c_contiguous) for k, v in out.items()
    }


def write(directory, name, text):
    path = directory / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


@pytest.mark.parametrize("name", sorted(BODIES))
def test_csv_matches_row_reader(tmp_path, name):
    path = write(tmp_path, "in.csv", BODIES[name])
    assert outcome(cli.read_columns_csv, path, COLUMNS) == outcome(cli._read_rows, path, COLUMNS)


@pytest.mark.parametrize("name", FAST)
def test_clean_body_is_parsed_once(tmp_path, monkeypatch, name):
    path = write(tmp_path, "in.csv", BODIES[name])
    want = outcome(cli._read_rows, path, COLUMNS)

    def reread(*args):
        raise AssertionError("fell back to the row-by-row reader")

    monkeypatch.setattr(cli, "_read_rows", reread)
    assert outcome(cli.read_columns_csv, path, COLUMNS) == want


@pytest.mark.parametrize(
    "name, message",
    [
        ("short-row", "line 3: expected 2 fields, got 1"),
        ("all-rows-short", "line 2: expected 3 fields, got 2"),
        ("leading-hash", "line 2: column 'actual' has a non-numeric value '#1'"),
        ("non-numeric", "line 3: column 'predicted' has a non-numeric value 'abc'"),
        ("empty-field", "line 2: column 'predicted' has a non-numeric value ''"),
    ],
    ids=["short-row", "all-rows-short", "leading-hash", "non-numeric", "empty-field"],
)
def test_fallback_keeps_line_numbered_errors(tmp_path, name, message):
    path = write(tmp_path, "in.csv", BODIES[name])
    with pytest.raises(ParseError) as info:
        cli.read_columns_csv(path, COLUMNS)
    assert str(info.value) == message


def test_fallback_accepts_what_float_accepts(tmp_path):
    path = write(tmp_path, "in.csv", "actual,predicted\n1_000,２\n")
    data = cli.read_columns_csv(path, COLUMNS)
    assert data["actual"].tolist() == [1000.0]
    assert data["predicted"].tolist() == [2.0]


@pytest.mark.parametrize("name", ["header-only", "header-only-no-newline", "blank-body"])
def test_empty_body_gives_empty_columns_and_no_warning(tmp_path, name):
    path = write(tmp_path, "in.csv", BODIES[name])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = cli.read_columns_csv(path, COLUMNS)
    assert caught == []
    assert [data[c].shape for c in COLUMNS] == [(0,), (0,)]


def test_history_csv_matches_row_reader(tmp_path):
    path = write(tmp_path, "history.csv", "actual\r\n1.5\r\n\r\n2\r\n")
    want = outcome(cli._read_rows, path, ["actual"])
    assert want[0] == "ok"
    assert outcome(cli.load_series, path, "actual") == ("ok", {"": want[1]["actual"]})


magnitude = st.floats(min_value=1e-300, max_value=1e300)
signed = st.tuples(st.booleans(), magnitude).map(lambda sv: -sv[1] if sv[0] else sv[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(signed, signed), min_size=1, max_size=40))
def test_float_reprs_parse_bit_for_bit(tmp_path_factory, rows):
    text = "actual,predicted\n" + "".join(f"{a!r},{p!r}\n" for a, p in rows)
    path = write(tmp_path_factory.mktemp("reprs"), "in.csv", text)
    got = outcome(cli.read_columns_csv, path, COLUMNS)
    assert got == outcome(cli._read_rows, path, COLUMNS)
    assert got[1]["actual"][2] == np.array([a for a, _ in rows]).tobytes()
    assert got[1]["predicted"][2] == np.array([p for _, p in rows]).tobytes()


# --- JSON --------------------------------------------------------------------

JSON_ARRAYS = {
    "ints-and-floats": [1, 2.5, -3],
    "empty": [],
    "extremes": [0, -0.0, 5e-324, 1.7976931348623157e308],
    "wide-ints": [2**53 + 1, 2**63, 2**64 + 1, -(2**63) - 1, 10**300],
    "bool": [1, True],
    "string": [1, "2"],
    "none": [None],
    "nested": [[1], 2],
    "false-first": [False, 1],
}


@pytest.mark.parametrize("name", sorted(JSON_ARRAYS))
def test_json_matches_element_loop(name):
    values = JSON_ARRAYS[name]
    assert outcome(cli._json_floats, values, "actual") == outcome(
        ensure_iterable_of_floats, values, "actual"
    )


@pytest.mark.parametrize(
    "values, message",
    [
        ([1, True], "actual[1] is not a number: True"),
        ([1, "2"], "actual[1] is not a number: '2'"),
        ([None], "actual[0] is not a number: None"),
        ([[1], 2], "actual[0] is not a number: [1]"),
    ],
    ids=["bool", "string", "none", "nested"],
)
def test_json_rejection_names_index(tmp_path, values, message):
    path = write(tmp_path, "in.json", json.dumps({"actual": values, "predicted": values}))
    with pytest.raises(ParseError) as info:
        cli.read_columns_json(path, COLUMNS)
    assert str(info.value) == message


HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "array, index",
    [(f"[1, {HUGE}]", 1), (f"[-{HUGE}, 1.5]", 0), (f'[1, {HUGE}, "x"]', 1)],
    ids=["second", "negative-first", "before-string"],
)
def test_json_integer_beyond_float_range(tmp_path, array, index):
    message = f"actual[{index}] is an integer beyond the float range"
    obj = write(tmp_path, "in.json", f'{{"actual": {array}, "predicted": [1, 2]}}')
    bare = write(tmp_path, "history.json", array)
    for read in (lambda: cli.read_columns_json(obj, COLUMNS),
                 lambda: cli.load_series(obj, "actual"),
                 lambda: cli.load_series(bare, "actual")):
        with pytest.raises(ParseError) as info:
            read()
        assert str(info.value) == message


def test_json_rejection_before_huge_integer_wins(tmp_path):
    path = write(tmp_path, "in.json", f'{{"actual": [1, "x", {HUGE}], "predicted": [1, 2, 3]}}')
    with pytest.raises(ParseError, match=r"actual\[1\] is not a number: 'x'"):
        cli.read_columns_json(path, COLUMNS)


def test_huge_integer_exits_2(tmp_path, capsys):
    path = write(tmp_path, "in.json", f'{{"actual": [1, {HUGE}], "predicted": [1, 2]}}')
    assert cli.main(["eval", "--input", path, "--metrics", "MAE"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: actual[1] is an integer beyond the float range\n"


def test_integer_too_long_to_parse_exits_2(tmp_path, capsys):
    path = write(tmp_path, "in.json", '{"actual": [1' + "0" * 5000 + "], \"predicted\": [1]}")
    assert cli.main(["eval", "--input", path, "--metrics", "MAE"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not valid JSON: ")


# --- input the readers reject ---------------------------------------------

CLEAN_CSV = "actual,predicted\n1,2\n2,3\n3,5\n"


@pytest.mark.parametrize(
    "data", [b"act\xffual,predicted\n1,2\n3,3\n", b"actual,predicted\n1,2\n\xff,3\n"],
    ids=["header", "body"],
)
@pytest.mark.parametrize("role", ["input", "in-sample"])
def test_csv_bytes_not_utf8_exit_2(tmp_path, capsys, data, role):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    clean = write(tmp_path, "in.csv", CLEAN_CSV)
    if role == "input":
        argv = ["eval", "--input", str(bad), "--metrics", "MAE"]
    else:
        argv = ["eval", "--input", clean, "--metrics", "MASE", "--in-sample", str(bad)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} is not valid UTF-8: ")


def test_json_history_key_holding_a_number_exits_2(tmp_path, capsys):
    clean = write(tmp_path, "in.csv", CLEAN_CSV)
    history = write(tmp_path, "history.json", '{"actual": 5}')
    argv = ["eval", "--input", clean, "--metrics", "MASE", "--in-sample", history]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {history} key 'actual' must be an array\n"


@pytest.mark.parametrize(
    "body", [CLEAN_CSV, 'actual,"predicted"\n1,2\n2,3\n3,5\n'], ids=["numpy", "row-by-row"]
)
@pytest.mark.parametrize("role", ["input", "in-sample"])
def test_csv_byte_order_mark_is_dropped(tmp_path, capsys, body, role):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
    plain = write(tmp_path, "plain.csv", body)
    assert outcome(cli.read_columns_csv, str(marked), ["actual", "predicted"]) == outcome(
        cli.read_columns_csv, plain, ["actual", "predicted"])

    def value(path):
        if role == "input":
            argv = ["eval", "--input", path, "--metrics", "MAE"]
        else:
            argv = ["eval", "--input", plain, "--metrics", "MASE", "--in-sample", path]
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)["metrics"][0]["value"]

    assert value(str(marked)) == value(plain)


CLEAN_JSON = '{"actual": [1, 2, 3], "predicted": [2, 3, 5]}'


@pytest.mark.parametrize("role", ["input", "in-sample"])
def test_json_byte_order_mark_is_dropped(tmp_path, capsys, role):
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + CLEAN_JSON.encode())
    plain = write(tmp_path, "plain.json", CLEAN_JSON)
    assert outcome(cli.read_columns_json, str(marked), ["actual", "predicted"]) == outcome(
        cli.read_columns_json, plain, ["actual", "predicted"])
    assert outcome(cli.load_series, str(marked), "actual") == outcome(
        cli.load_series, plain, "actual")

    def value(path):
        if role == "input":
            argv = ["eval", "--input", path, "--metrics", "MAE"]
        else:
            argv = ["eval", "--input", plain, "--metrics", "MASE", "--in-sample", path]
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)["metrics"][0]["value"]

    assert value(str(marked)) == value(plain)


def test_config_byte_order_mark_is_dropped(tmp_path, capsys):
    data = write(tmp_path, "in.json", CLEAN_JSON)
    config = json.dumps({"input": data, "metrics": ["MAE", "RMSE"]})
    marked = tmp_path / "marked-config.json"
    marked.write_bytes(b"\xef\xbb\xbf" + config.encode())
    plain = write(tmp_path, "config.json", config)
    assert cli.load_config(str(marked)) == cli.load_config(plain)

    def report(path):
        assert cli.main(["eval", "--config", path]) == 0
        return capsys.readouterr().out

    assert report(str(marked)) == report(plain)
