"""Vectorized ingest against the row-by-row reader it falls back to.

``cli.read_columns_csv`` parses a plain numeric table with orjson, in
pieces cut at newlines (``cli._table_columns``); it parses any other body
in one NumPy call (``cli._parse_body``), and re-reads the file with
``cli._read_rows`` only when that call cannot give the same result.
``cli._json_floats`` converts an all-number JSON array in one call and
walks any other one element by element.  Each fast reader must agree with
the element-by-element one bit for bit, or raise the same error with the
same text.  A CSV body that orjson would read otherwise than ``float()``
(``-0``, ``true``, ``01``, ...) must leave the orjson tier.  JSON files
are parsed by orjson, and by ``json`` where orjson refuses a document;
either way the numbers and the errors are the ones ``json`` alone gives.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
import timeit
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import orjson
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
    # texts JSON reads otherwise than float(), or refuses
    "minus-zero-int": "actual,predicted\n-0,1.5\n2.5,-0\n",
    "minus-zero-float": "actual,predicted\n-0.0,1.5\n2.5,-0.0\n",
    "json-true": "actual,predicted\ntrue,1.5\n",
    "json-null": "actual,predicted\n1.5,null\n",
    "json-array": "actual,predicted\n[1],2\n",
    "leading-zero": "actual,predicted\n01,1.5\n",
    "trailing-dot": "actual,predicted\n1.,1.5\n",
    "leading-dot": "actual,predicted\n.5,1.5\n",
    "plus-sign": "actual,predicted\n+1,1.5\n",
    "upper-exponent": "actual,predicted\n1E5,1.5\n-2.5E-3,3E+0\n",
    "int-2**53+1": "actual,predicted\n9007199254740993,1.5\n",
    "int-2**64+1": "actual,predicted\n18446744073709551617,1.5\n",
    # line ends and tokens at the edges of the orjson tier's checks
    "lone-cr-between-fields": "actual,predicted\n1,\r2\n",
    "cr-before-comma": "actual,predicted\n1\r,2\n3,4\n",
    "minus-zero-after-piece-boundary": (
        "actual,predicted\n" + "1.5,2.5\n" * (cli._CHUNK // 8) + "-0,1.5\n2.5,3.5\n"),
    "negative-exponents": "actual,predicted\n-1.5e-05,-2.25\n-3e-05,4.5e-05\n-7,-0.5E-5\n",
}

# Bodies the orjson tier or the single NumPy call must serve without
# re-reading the file.
FAST = [
    "crlf", "cr-only", "quoted-numbers", "quoted-padded", "quote-then-digits",
    "spaces-and-tabs", "empty-lines", "longer-rows", "nan-inf",
    "overflowing-literal", "subnormal-and-zero", "header-padded",
    "duplicate-header", "single-row", "no-final-newline",
    "minus-zero-float", "upper-exponent", "negative-exponents",
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


# --- the orjson tier ---------------------------------------------------------

def json_float_texts():
    """Float literals JSON reads as floats: each has a fraction or an exponent."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    subnormal = st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308)
    return st.one_of(
        st.one_of(finite, subnormal).flatmap(
            lambda x: st.sampled_from([repr(x), "%.17e" % x, "%.3E" % x])),
        st.builds("{}{}{}".format, st.integers(-10**20, 10**20), st.sampled_from("eE"),
                  st.integers(-345, 288)),
        st.sampled_from(["-0.0", "0.0", "-0e0", "-0.0E-5", "5e-324", "-4.9406564584124654e-324"]),
    )


def csv_number_texts():
    """Number texts as CSV writers spell them, JSON floats or not."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    wide = st.sampled_from([2**53, 2**63, 2**64, 2**64 + 2048]).flatmap(
        lambda m: st.integers(-m - 3000, m + 3000))
    return st.one_of(
        json_float_texts(),
        json_float_texts().map("+{}".format),
        finite.flatmap(lambda x: st.sampled_from(["%.17g" % x, "%.40g" % x])),
        st.sampled_from(["-0", "0", "01", "1.", ".5"]),
        wide.map(str),
    )


JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def plain_number(text):
    """A text the orjson tier must take: a JSON number within the double
    range, not ending in ``-0`` (the integer, or an exponent the tier
    takes for it)."""
    return bool(JSON_NUMBER.fullmatch(text)) and not text.endswith("-0") and (
        math.isfinite(float(text)))


def table_rows(texts):
    return st.lists(st.tuples(texts, texts, texts), min_size=1, max_size=20)


def refuse(*args):
    raise AssertionError("a plain numeric table left the orjson tier")


@settings(max_examples=300, deadline=None)
@given(st.one_of(table_rows(json_float_texts()), table_rows(csv_number_texts())),
       st.lists(st.sampled_from(["\n", "\r\n"]), min_size=21, max_size=21),
       st.booleans(), st.integers(1, 64))
def test_chunk_edges_anywhere_parse_as_row_reader(tmp_path_factory, rows, ends, final, chunk):
    text = "actual,note,predicted" + "".join(
        end + ",".join(row) for end, row in zip(ends, rows)) + (ends[-1] if final else "")
    path = write(tmp_path_factory.mktemp("chunks"), "in.csv", text)
    want = outcome(cli._read_rows, path, COLUMNS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK", chunk)
        assert outcome(cli.read_columns_csv, path, COLUMNS) == want
        if all(plain_number(t) for row in rows for t in row):
            patch.setattr(cli, "_parse_body", refuse)
            patch.setattr(cli, "_read_rows", refuse)
            assert outcome(cli.read_columns_csv, path, COLUMNS) == want


TABLE_ALPHABET = "0123456789,.-+eE \t\r\nx"
TABLE_TOKENS = ["0", "1", "25", "-0", "-1.5", "2.5e-05", "1E5", "-", "+", ".", "e",
                ",", " ", "\t", "\r", "\n", "\r\n", "x"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(TABLE_ALPHABET, max_size=80),
                 st.lists(st.sampled_from(TABLE_TOKENS), max_size=60).map("".join)),
       st.sampled_from(["\n", "\r\n", "\r", ""]), st.integers(1, 64))
def test_any_body_of_table_bytes_reads_as_row_reader(tmp_path_factory, body, end, chunk):
    # bodies of the bytes the orjson tier's checks are about, well formed or not
    path = write(tmp_path_factory.mktemp("bodies"), "in.csv", "actual,predicted" + end + body)
    want = outcome(cli._read_rows, path, COLUMNS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK", chunk)
        assert outcome(cli.read_columns_csv, path, COLUMNS) == want


@pytest.mark.parametrize("piece", [
    b"1,2\r \n", b"1,2\r\t\n3,4\n", b"1,\r2\n", b"1\r,2\n", b"1,2\r\r\n", b"1,2\r", b"1,2\n\r",
])
def test_piece_with_a_cr_outside_a_crlf_is_refused(piece):
    assert cli._table_piece(piece, 2) is None


def test_minus_zero_body_starts_a_piece(tmp_path):
    path = write(tmp_path, "in.csv", BODIES["minus-zero-after-piece-boundary"])
    with open(path, "rb") as fh:
        fh.readline()
        pieces = list(cli._line_chunks(fh, cli._CHUNK))
    assert len(pieces) == 2 and pieces[1].startswith(b"-0,")


def test_negative_exponent_table_never_leaves_the_orjson_tier(tmp_path, monkeypatch):
    # every piece holds a "-", so the -0 regex runs, and finds nothing
    path = write(tmp_path, "in.csv", BODIES["negative-exponents"])
    want = outcome(cli._read_rows, path, COLUMNS)
    monkeypatch.setattr(cli, "_parse_body", refuse)
    monkeypatch.setattr(cli, "_read_rows", refuse)
    assert outcome(cli.read_columns_csv, path, COLUMNS) == want


def test_line_chunks_time_is_linear_in_line_length():
    # one 2 MiB line in 512 blocks: copying the held bytes again for each
    # block would take ~90 times as long as the same body with LF ends
    cr = b"1.5,2.5\r" * (1 << 18)
    lf = cr.replace(b"\r", b"\n")

    def seconds(body):
        return min(timeit.repeat(
            lambda: sum(map(len, cli._line_chunks(io.BytesIO(body), 1 << 12))), number=1, repeat=5))

    assert sum(map(len, cli._line_chunks(io.BytesIO(cr), 1 << 12))) == len(cr)
    assert seconds(cr) < 10 * seconds(lf)


def test_long_line_is_held_once():
    # a CR-only body reaches the tier as one piece, which it refuses; the
    # blocks held for it must be gone by then, or three copies coexist
    body = b"1.5,2.5\r" * (1 << 18)
    tracemalloc.start()
    try:
        for piece in cli._line_chunks(io.BytesIO(body), 1 << 12):
            assert cli._table_piece(piece, 2) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(body), peak / len(body)


def float_table_csv(directory, rows, seed):
    """A 3-column CSV of ``repr``-spelled floats, as ``perfbench`` writes them."""
    table = np.random.default_rng(seed).lognormal(3, 1, size=(rows, 3))
    lines = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
    return table, write(directory, "in.csv", "actual,predicted,benchmark\n" + lines)


def test_plain_float_table_never_leaves_the_orjson_tier(tmp_path, monkeypatch):
    table, path = float_table_csv(tmp_path, 2000, seed=5)
    monkeypatch.setattr(cli, "_parse_body", refuse)
    monkeypatch.setattr(cli, "_read_rows", refuse)
    data = cli.read_columns_csv(path, ["benchmark", "actual"])
    assert data["actual"].tobytes() == table[:, 0].tobytes()
    assert data["benchmark"].tobytes() == table[:, 2].tobytes()


def ingest_peak(path, columns):
    """tracemalloc's peak over one read."""
    tracemalloc.start()
    try:
        cli.read_columns_csv(path, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orjson_tier_allocates_no_more_than_loadtxt(tmp_path, monkeypatch):
    _, path = float_table_csv(tmp_path, 20_000, seed=7)
    columns = ["actual", "predicted", "benchmark"]
    ingest_peak(path, columns)  # imports and caches settle before measuring
    tier = ingest_peak(path, columns)
    monkeypatch.setattr(cli, "_table_columns", lambda *args: None)
    loadtxt = ingest_peak(path, columns)
    assert tier <= 1.10 * loadtxt, (tier, loadtxt)


def test_benchmark_pair_shares_the_checked_actuals(tmp_path):
    table, path = float_table_csv(tmp_path, 50, seed=8)
    pair, bench = cli.ingest(path, None, "actual", "predicted", "benchmark")
    assert bench.actuals is pair.actuals
    assert bench.predicted.tobytes() == table[:, 2].tobytes()
    # an array that is the actuals themselves is the pair's actuals
    same, _ = cli.ingest(path, None, "actual", "actual", "benchmark")
    assert same.predicted.tobytes() == same.actuals.tobytes()


def test_ingest_copies_each_column_once(tmp_path):
    # the three columns read, then the pair's two checked copies: five
    # columns at the peak.  A second copy of the actuals for the benchmark
    # pair, made while the read columns are alive, took it to seven.
    rows = 20_000
    _, path = float_table_csv(tmp_path, rows, seed=9)
    cli.ingest(path, None, "actual", "predicted", "benchmark")  # imports and caches settle
    tracemalloc.start()
    try:
        cli.ingest(path, None, "actual", "predicted", "benchmark")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * rows, peak / (8 * rows)


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


@pytest.mark.parametrize("array, message", [
    ('[1, "x", 2]', "actual[1] is not a number: 'x'"),
    (f"[1, 2, {HUGE}]", "actual[2] is an integer beyond the float range"),
], ids=["non-number", "oversized"])
@pytest.mark.parametrize("form", ["array", "object"])
def test_json_history_gives_one_error_type(tmp_path, array, message, form):
    """A bad history value is a ParseError with one message, whether the
    file holds a bare array or an object with the column."""
    text = array if form == "array" else f'{{"actual": {array}}}'
    path = write(tmp_path, "history.json", text)
    with pytest.raises(ParseError) as info:
        cli.load_series(path, "actual")
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


# --- JSON parsing: orjson, with json for the documents orjson refuses ------

def number_texts():
    """Number literals as JSON writers spell them, within the double range."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    subnormal = st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308)
    wide = st.sampled_from([2**53, 2**63, 2**64, 10**20, 10**308]).flatmap(
        lambda m: st.integers(-m - 1000, m + 1000))
    return st.one_of(
        st.one_of(finite, subnormal).flatmap(lambda x: st.sampled_from(
            [repr(x), "%.17g" % x, "%.17e" % x, "%.3e" % x, "%.40g" % x])),
        st.builds("{}e{}".format, st.integers(-10**20, 10**20), st.integers(-345, 288)),
        st.builds("{}.{}E+{}".format, st.integers(-9, 9), st.integers(0, 10**25), st.integers(0, 307)),
        st.sampled_from(["-0.0", "-0", "0e0", "-0.0e-5", "1e308", "1.7976931348623157e308",
                         "4.9406564584124654e-324", "2.4703282292062328e-324"]),
        wide.map(str),
    )


def json_reference(text, column):
    """What ``json.loads`` and ``_json_floats`` make of the text: the reference."""
    payload = json.loads(text)
    return cli._json_floats(payload if isinstance(payload, list) else payload[column], column)


@settings(max_examples=300, deadline=None)
@given(st.lists(number_texts(), min_size=1, max_size=30), st.data())
def test_number_texts_parse_as_json_does(tmp_path_factory, texts, data):
    other = data.draw(st.lists(number_texts(), min_size=len(texts), max_size=len(texts)))
    doc = f'{{"actual": [{", ".join(texts)}], "predicted": [{", ".join(other)}]}}'
    bare = f"[{', '.join(texts)}]"
    directory = tmp_path_factory.mktemp("numbers")
    obj, array = write(directory, "in.json", doc), write(directory, "history.json", bare)
    want = {c: outcome(json_reference, doc, c)[1][""] for c in COLUMNS}
    assert outcome(cli.read_columns_json, obj, COLUMNS) == ("ok", want)
    assert outcome(cli.load_series, obj, "actual") == ("ok", {"": want["actual"]})
    assert outcome(cli.load_series, array, "actual") == outcome(json_reference, bare, "actual")


HUGE_5000 = "1" + "0" * 5000
NAN, INF = float("nan"), float("inf")

# Documents orjson refuses, or (a BOM) that the reader must first trim, and
# what ``json`` alone makes of each: the actual column, or the error.
FALLBACK = {
    "nan": (b'{"actual": [NaN, 1], "predicted": [1, 2]}', [NAN, 1.0]),
    "infinity": (b'{"actual": [Infinity, -Infinity], "predicted": [1, 2]}', [INF, -INF]),
    "beyond-double": (b'{"actual": [1, 1e400], "predicted": [1, 2]}', [1.0, INF]),
    "int-400-digits": (f'{{"actual": [1, {HUGE}], "predicted": [1, 2]}}'.encode(),
                       "actual[1] is an integer beyond the float range"),
    "int-5000-digits": (f'{{"actual": [{HUGE_5000}], "predicted": [1]}}'.encode(),
                        "{} is not valid JSON: Exceeds the limit (4300 digits) for integer "
                        "string conversion: value has 5001 digits; use "
                        "sys.set_int_max_str_digits() to increase the limit"),
    "lone-surrogate": (b'{"actual": [1, 2], "predicted": [1, 2], "note": "\\ud800"}', [1.0, 2.0]),
    "not-utf8": (b'{"actual": [1, 2], "predicted": [1, 2], "note": "\xff"}',
                 "{} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 49: "
                 "invalid start byte"),
    "bom-then-not-utf8": (b'\xef\xbb\xbf{"actual": [1, 2], "predicted": [1, 2], "note": "\xff"}',
                          "{} is not valid JSON: 'utf-8' codec can't decode byte 0xff in "
                          "position 49: invalid start byte"),
    "bom": (b'\xef\xbb\xbf{"actual": [1, 2.5], "predicted": [1, 2]}', [1.0, 2.5]),
    "two-boms": (b'\xef\xbb\xbf\xef\xbb\xbf{"actual": [1], "predicted": [1]}',
                 "{} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                 "line 1 column 1 (char 0)"),
    "bom-then-bad-syntax": (b'\xef\xbb\xbf{"actual": [1, 2.5], "predicted": [1, 2],}',
                            "{} is not valid JSON: Expecting property name enclosed in double "
                            "quotes: line 1 column 42 (char 41)"),
    "empty": (b"", "{} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_documents_orjson_refuses_read_as_before(tmp_path, name):
    raw, want = FALLBACK[name]
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    if isinstance(want, str):
        with pytest.raises(ParseError) as info:
            cli.read_columns_json(str(path), COLUMNS)
        assert str(info.value) == want.format(path)
    else:
        data = cli.read_columns_json(str(path), COLUMNS)
        assert data["actual"].tobytes() == np.array(want).tobytes()
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(raw)


@pytest.mark.parametrize("role", ["input", "config"])
@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 2000 + "]" * 2000], ids=["open", "closed"])
def test_deep_nesting_exits_2(tmp_path, capsys, role, text):
    deep = write(tmp_path, "deep.json", text)
    clean = write(tmp_path, "in.json", CLEAN_JSON)
    argv = ["--input", deep, "--metrics", "MAE"] if role == "input" else ["--config", deep, "--input", clean]
    assert cli.main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {deep} is not valid JSON: maximum recursion depth exceeded")


def test_nesting_too_deep_for_orjson_exits_2(tmp_path):
    # orjson would overflow the C stack building this; run it in a child so
    # that a crash fails this test instead of the whole run
    deep = write(tmp_path, "deep.json", "[" * 200_000 + "]" * 200_000)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "metricgrid", "eval", "--input", deep, "--metrics", "MAE"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {deep} is not valid JSON: maximum recursion depth exceeded")
