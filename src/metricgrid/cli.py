"""Command line interface.

Four verbs: ``eval`` scores predictions from a CSV or JSON file, ``chart``
prints the composition grid, ``list`` dumps the catalog and ``suites``
shows the named metric bundles.  Exit codes: 0 all good, 1 at least one
metric failed to evaluate, 2 the configuration or input could not be used
at all.  ``_selection_plan`` resolves the selection before any data is
evaluated: each name given, in ``--metrics``, a suite or a ``variants``
key, is looked up once, and each distinct (metric, variant) entry passes
``registry.check`` once.  What the check returned goes with the entry to
``evaluate_selection``, which makes it a report entry and embeds its
error: a named metric's spec is evaluated by ``derived.evaluate_spec``,
with no second lookup or check, an ad-hoc ``--composition`` descriptor by
the pipeline.  Every JSON output (the report, ``list --format json`` and
``suites --format json``) is one ``json.dumps`` call, ``_json``; every
delimited one (``eval``, ``list`` and ``chart``) goes through
``csv.writer``, so a field holding a comma is quoted.

Every number ``eval`` parses from a file, CSV or JSON, becomes a float64
array through ``types.pack_floats``.  A CSV file has two readers that give
the same numbers.  orjson reads a plain numeric table one piece at a time
and packs it column by column, each selected column into its own buffer,
so it is never held as a table.  Any other file (quoted fields, empty
lines, ``+1``, ``.5``, ``nan``, CR-only line ends, rows of another width,
...) is read row by row from the same handle, seeked back to its start; a
pipe, which cannot seek, is read into memory once first.

An ``eval`` report lists at most ``ACTIONS_LISTED`` policy actions per
metric, the first ones taken; an entry with more also carries
``action_counts``, every action counted by label.  The full list stays
available from the library, as ``MetricResult.actions``.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import functools
import io
import json
import os
import re
import sys
from dataclasses import asdict
from enum import Enum
from typing import Any, Sequence

import numpy as np
import orjson

from . import __version__, chart, derived, registry
from .evaluator import evaluate
from .errors import FileAccess, MetricError, ParseError, UnknownVariant, ValidationError
from .types import (
    ActionLog,
    AggKind,
    Aggregator,
    Dimension,
    Distance,
    EvaluationPolicy,
    LogRatioPolicy,
    MetricComposition,
    NormalizerSpec,
    NormKind,
    PointTransform,
    PostKind,
    PostTransform,
    SeriesPair,
    ZeroDenominatorPolicy,
    as_series,
    pack_floats,
    validate_series_pair,
)

# --- input ingestion -------------------------------------------------------


def _open(path: str, mode: str, **kwargs):
    """``open()``, with a path it cannot open (missing, unreadable,
    unwritable or holding a NUL byte) raised as FileAccess."""
    try:
        return open(path, mode, **kwargs)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise FileAccess(path, reason, "write" if "w" in mode else "read") from exc


# orjson (3.8) builds a document's objects by recursion, and a document
# nested ~150 000 deep overflows an 8 MiB stack and kills the interpreter.
# Only a document with at most this many opening brackets goes to orjson.
_ORJSON_BRACKETS = 1000


def _load_json(path: str) -> Any:
    """The parsed document, from orjson; a leading byte-order mark is dropped.

    A document orjson refuses (NaN or Infinity literals, a number beyond
    the double range, a lone surrogate escape, an integer over 4300
    digits, bytes that are not UTF-8, no JSON at all), or one holding more than
    ``_ORJSON_BRACKETS`` opening brackets, is parsed by ``json``, which
    accepts the first three kinds and words the error of the others; that
    error, or a nesting deeper than ``json`` can follow, is a ParseError.
    """
    with _open(path, "rb") as fh:
        raw = fh.read()
    body = raw.removeprefix(codecs.BOM_UTF8)
    codes = np.frombuffer(body, dtype=np.uint8)
    if np.count_nonzero(codes == ord("[")) + np.count_nonzero(codes == ord("{")) <= _ORJSON_BRACKETS:
        try:
            return orjson.loads(body)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(raw.decode("utf-8-sig"))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _csv_header(reader, path: str, columns: Sequence[str]) -> list[str]:
    """The stripped header fields; every requested column must be among them."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path} is empty; a header row is required") from None
    header = [h.strip() for h in header]
    missing = [c for c in columns if c not in header]
    if missing:
        raise ParseError(
            f"{path} is missing required column(s) {', '.join(missing)}; "
            f"header has {', '.join(header) or 'nothing'}"
        )
    return header


# Bytes of a number or a blank: JSON's number characters and the two
# blanks that both readers ignore.  The skeleton of a piece is what is
# left of it without them.
_NUMBER_BYTES = b"0123456789+-.eE \t"

# orjson reads the integer -0 as 0, where float() gives -0.0.  This also
# matches an exponent of -0 ("1e-0"), which only costs that file the tier.
_INT_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")

# Bytes per piece of the orjson tier: a piece's parse holds three to five
# times its size in bytes and Python floats at once.
_CHUNK = 1 << 15


def _line_chunks(fh, size: int):
    """The rest of a binary file in pieces of about ``size`` bytes, each
    ending at a newline except, if the file does not, the last.  Only the
    block just read is searched, and blocks without a newline are held
    until one comes, so a long line is copied once, not once per block,
    and its blocks are let go before its piece is yielded."""
    held: list[bytes] = []
    while block := fh.read(size):
        cut = block.rfind(b"\n") + 1
        if cut:
            held.append(block[:cut])
            piece, held = b"".join(held), [block[cut:]]
            yield piece
        else:
            held.append(block)
    piece = b"".join(held)
    del held
    if piece:
        yield piece


def _table_piece(piece: bytes, width: int) -> list[int | float] | None:
    """The numbers of one piece, row after row in one flat list, or None
    where it may not be a plain numeric table.

    Once each CRLF is made an LF, the piece's skeleton must be ``width - 1``
    commas and an LF per line, the last line's LF only if the piece has
    one.  That one comparison proves that every byte is a number byte, a
    blank, a comma or a line end, that every CR ended a CRLF, and that
    every line holds ``width - 1`` commas.  The lines joined by commas must
    then form a JSON array of rows x ``width`` numbers, none of them the
    integer ``-0``.  Each JSON number is also a ``float()`` literal, and
    orjson reads it to the same double, or to an int that converts to it.
    """
    # CRLF first: once blanks are deleted, "\r \n" would pass for one
    if b"\r" in piece:
        piece = piece.replace(b"\r\n", b"\n")
    skeleton = piece.translate(None, _NUMBER_BYTES)
    if not piece.endswith(b"\n"):
        skeleton += b"\n"
    rows = len(skeleton) // width
    if skeleton != (b"," * (width - 1) + b"\n") * rows:
        return None
    try:
        values = orjson.loads(b"[" + piece.removesuffix(b"\n").replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:
        return None
    # the regex can only match at a "-", which one memchr rules out
    if len(values) != rows * width or b"-" in piece and _INT_MINUS_ZERO.search(piece):
        return None
    return values


def _table_columns(
    fh, header: list[str], columns: Sequence[str], size: int
) -> dict[str, np.ndarray] | None:
    """The named columns of a body that is a plain numeric table, parsed by
    orjson one piece at a time (``_table_piece``); None where any piece may
    not be one, or the body is empty.  ``size`` is the bytes of the whole
    file.

    Each selected column's stride of a piece's numbers is packed by
    ``pack_floats`` into that column's own float64 buffer, after the rows
    already there, so no piece is held as a table and no column is ever
    held twice.  A buffer that a piece overruns is copied into one that
    holds the rows of the whole file at the bytes per row seen so far, or
    half as many again as it held, plus the piece's rows.  On a file of
    even rows that is one allocation per column; the unused end is cut
    off once the body is read.
    """
    width = len(header)
    index = {c: header.index(c) for c in columns}
    buffers = {c: np.empty(0) for c in index}
    rows = seen = 0
    for piece in _line_chunks(fh, _CHUNK):
        values = _table_piece(piece, width)
        if values is None:
            return None
        count = len(values) // width
        seen += len(piece)
        end = rows + count
        for c, i in index.items():
            buffer = buffers[c]
            if end > buffer.size:
                grown = np.empty(max(end * size // seen, buffer.size * 3 // 2) + count)
                grown[:rows] = buffer[:rows]
                buffers[c] = buffer = grown
            buffer[rows:end] = pack_floats(values[i::width], c)
        rows = end
    if not rows:
        return None
    for buffer in buffers.values():
        buffer.resize(rows, refcheck=False)     # in place: no view of it is left
    return buffers


def read_columns_csv(path: str, columns: Sequence[str]) -> dict[str, np.ndarray]:
    """Read named numeric columns from a headered, comma-separated file.

    Any row that cannot be parsed is a hard error naming its line number
    (the header is line 1).  Two readers give the same numbers.  A plain
    table (an ASCII header with no quote, then rows of exactly the
    header's width holding only numbers JSON also accepts, LF or CRLF line
    ends, no blank lines) is parsed by orjson in pieces
    (``_table_columns``); each piece's skeleton, what is left once every
    CRLF is an LF and every number byte and blank is deleted, must be
    ``len(header) - 1`` commas and an LF per line (``_table_piece``), and
    each selected column is packed from the piece's numbers into its own
    float64 buffer, so the table is never held twice.  Any other file is
    read row by row (``_read_rows``) from the same handle, seeked back to
    its start: quoted fields, blank lines, the integer ``-0``, ``nan``,
    ``inf``, ``+1``, ``.5``, ``1.`` or ``01``, literals beyond the double
    range, CR-only line ends, rows longer or shorter than the header.  A
    file that cannot seek, such as a pipe, is read into memory once first,
    so its peak holds the raw bytes as well as the columns.  A leading
    UTF-8 byte-order mark is dropped; bytes that are not UTF-8 are a
    ParseError.
    """
    try:
        with _open(path, "rb") as file:
            if file.seekable():
                fh, size = file, os.fstat(file.fileno()).st_size
            else:
                data = file.read()
                fh, size = io.BytesIO(data), len(data)
            first = fh.readline().removeprefix(codecs.BOM_UTF8)
            if (first and first.isascii() and b'"' not in first
                    and b"\r" not in first.removesuffix(b"\r\n")):
                header = _csv_header(csv.reader([first.decode()]), path, columns)
                found = _table_columns(fh, header, columns, size)
                if found is not None:
                    return found
            fh.seek(0)
            return _read_rows(path, columns, fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc


def _read_rows(path: str, columns: Sequence[str], fh=None) -> dict[str, np.ndarray]:
    """The row-by-row reader: blank rows are skipped, short rows rejected.

    It reads ``fh``, a binary file at its start, or opens ``path``, as
    UTF-8 text; a leading byte-order mark is dropped.
    """
    binary = _open(path, "rb") if fh is None else fh
    with io.TextIOWrapper(binary, encoding="utf-8-sig", newline="") as text:
        reader = csv.reader(text)
        header = _csv_header(reader, path, columns)
        idx = {c: header.index(c) for c in columns}
        data: dict[str, list[float]] = {c: [] for c in columns}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) < len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line_no)
            for c, i in idx.items():   # a column selected twice is read once
                raw = row[i].strip()
                try:
                    data[c].append(float(raw))
                except ValueError:
                    raise ParseError(
                        f"column {c!r} has a non-numeric value {raw!r}", line=line_no
                    ) from None
    return {c: pack_floats(v, c) for c, v in data.items()}


def _overflows(value: int | float) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


def _json_column(path: str, values: Any, key: str) -> np.ndarray:
    """A JSON array, the column ``key``, as a float vector by ``as_series``;
    a value it refuses is a ParseError with the same text."""
    if not isinstance(values, list):
        raise ParseError(f"{path} key {key!r} must be an array")
    try:
        return as_series(values, key)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def read_columns_json(path: str, columns: Sequence[str]) -> dict[str, np.ndarray]:
    """Read named numeric arrays from a JSON object."""
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise ParseError(f"{path} must hold a JSON object with named arrays")
    out = {}
    for c in columns:
        if c not in payload:
            raise ParseError(f"{path} is missing key {c!r}")
        out[c] = _json_column(path, payload[c], c)
    return out


def ingest(
    path: str,
    input_format: str | None,
    actual_col: str,
    predicted_col: str,
    benchmark_col: str | None,
) -> tuple[SeriesPair, SeriesPair | None]:
    """Load the evaluation pair and the optional benchmark pair."""
    if input_format is None:
        input_format = "json" if path.lower().endswith(".json") else "csv"
    columns = [actual_col, predicted_col] + ([benchmark_col] if benchmark_col else [])
    reader = read_columns_json if input_format == "json" else read_columns_csv
    data = reader(path, columns)
    pair = validate_series_pair(data[actual_col], data[predicted_col])
    if not benchmark_col:
        return pair, None
    # the columns the pair has copied are freed before the benchmark
    # column is copied, and the benchmark pair shares the pair's actuals
    benchmark = data[benchmark_col]
    del data
    return pair, pair.with_predicted(benchmark)


def load_series(path: str, column: str) -> np.ndarray:
    """Load a single series (JSON array, JSON object key, or CSV column)."""
    if path.lower().endswith(".json"):
        payload = _load_json(path)
        if isinstance(payload, list):
            return _json_column(path, payload, column)
        if isinstance(payload, dict) and column in payload:
            return _json_column(path, payload[column], column)
        raise ParseError(f"{path} must be a JSON array or an object with key {column!r}")
    return read_columns_csv(path, [column])[column]


# --- ad-hoc composition descriptors -----------------------------------------

def _descriptor_table(kinds: type[Enum]) -> dict[str, Any]:
    """Each member by its code ('d2') and by its long name ('absolute-error')."""
    table = {}
    for kind in kinds:
        table[kind.value.lower()] = kind
        table[kind.name.lower().replace("_", "-")] = kind
    return table


_DISTANCES = _descriptor_table(Distance)
_NORMALIZERS = {
    **_descriptor_table(NormKind),
    "n5": NormKind.BY_MAX, "n5-max": NormKind.BY_MAX, "n5-min": NormKind.BY_MIN,
}
_AGGREGATORS = _descriptor_table(AggKind)
_TRANSFORMS = {t.value: t for t in PointTransform}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_post(text: str) -> tuple[PostTransform, ...]:
    posts = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part == "sqrt":
            posts.append(PostTransform(PostKind.SQRT))
        elif part == "symmetric-accuracy":
            posts.append(PostTransform(PostKind.SYMMETRIC_ACCURACY))
        elif part.startswith("scale:"):
            try:
                posts.append(PostTransform(PostKind.SCALE, float(part.split(":", 1)[1])))
            except ValueError:
                raise ParseError(f"bad scale constant in post transform {part!r}") from None
        else:
            raise ParseError(f"unknown post transform {part!r}")
    return tuple(posts)


def parse_composition(text: str) -> MetricComposition:
    """Parse a key=value descriptor like 'distance=D4 normalizer=N1 aggregator=G1'.

    Each key is given at most once; ``absolute`` is one of true/false,
    yes/no or 1/0, in any case.
    """
    fields: dict[str, str] = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise ParseError(f"descriptor token {token!r} is not key=value")
        key = key.strip().lower()
        if key in fields:
            raise ParseError(f"descriptor key {key!r} is given more than once")
        fields[key] = value.strip()
    unknown = set(fields) - {
        "distance", "normalizer", "aggregator", "c", "absolute", "factor",
        "fraction", "transform", "post",
    }
    if unknown:
        raise ParseError(f"unknown descriptor key(s): {', '.join(sorted(unknown))}")
    if "distance" not in fields or "aggregator" not in fields:
        raise ParseError("descriptor needs at least distance=... and aggregator=...")

    def pick(table: dict, key: str, what: str):
        token = fields[key].lower()
        if token not in table:
            raise ParseError(f"unknown {what} {fields[key]!r}")
        return table[token]

    distance = pick(_DISTANCES, "distance", "distance")
    norm_kind = pick(_NORMALIZERS, "normalizer", "normalizer") if "normalizer" in fields else NormKind.UNITARY
    agg_kind = pick(_AGGREGATORS, "aggregator", "aggregator")
    absolute = _BOOLEANS.get(fields.get("absolute", "false").lower())
    if absolute is None:
        raise ParseError(f"absolute must be true/false, yes/no or 1/0, got {fields['absolute']!r}")
    unused = sorted({"c", "absolute", "factor"} & fields.keys())
    if norm_kind is NormKind.UNITARY and unused:
        raise ParseError(f"{norm_kind.value} normalizer takes no {', '.join(unused)}")
    try:
        normalizer = NormalizerSpec(
            norm_kind,
            exponent=int(fields.get("c", 1)),
            absolute=absolute,
            factor=float(fields.get("factor", 1.0)),
        )
        aggregator = Aggregator(agg_kind, fraction=float(fields.get("fraction", 0.0)))
        transform = _TRANSFORMS.get(fields.get("transform", "identity").lower())
        if transform is None:
            raise ParseError(f"unknown transform {fields['transform']!r}")
        return MetricComposition(
            distance, normalizer, aggregator, transform, _parse_post(fields.get("post", "")),
        )
    except ValueError as exc:
        raise ParseError(f"bad numeric field in descriptor: {exc}") from None


def parse_cell(text: str) -> tuple[Distance, NormKind, AggKind]:
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != 3:
        raise ParseError(f"cell must be 'distance,normalizer,aggregator', got {text!r}")
    for table, part, what in (
        (_DISTANCES, parts[0], "distance"),
        (_NORMALIZERS, parts[1], "normalizer"),
        (_AGGREGATORS, parts[2], "aggregator"),
    ):
        if part not in table:
            raise ParseError(f"unknown {what} {part!r} in cell {text!r}")
    return (_DISTANCES[parts[0]], _NORMALIZERS[parts[1]], _AGGREGATORS[parts[2]])


def _list_cells(text: str) -> tuple[tuple[Distance, NormKind, AggKind], ...]:
    """The cells ``list --cell`` matches.  A plain ``N5`` is the chart's N5
    column, which holds max and min alike; ``N5max`` or ``N5min`` picks one."""
    distance, norm, agg = parse_cell(text)
    if text.split(",")[1].strip().lower() != "n5":
        return ((distance, norm, agg),)
    return (distance, NormKind.BY_MAX, agg), (distance, NormKind.BY_MIN, agg)


# --- policy ------------------------------------------------------------------


def build_policy(on_zero: str | None, epsilon: str | None, on_log: str | None) -> EvaluationPolicy:
    if epsilon is not None and on_zero is None:
        on_zero = "epsilon"
    eps_value: float | None = None
    if epsilon is not None and epsilon != "smallest-nonzero":
        try:
            eps_value = float(epsilon)
        except ValueError:
            raise ParseError(
                f"--epsilon must be a number or 'smallest-nonzero', got {epsilon!r}"
            ) from None
    return EvaluationPolicy(
        zero_denominator=ZeroDenominatorPolicy(on_zero or "fail"),
        nonpositive_log_ratio=LogRatioPolicy(on_log or "fail"),
        epsilon=eps_value,
    )


# --- evaluation --------------------------------------------------------------

# what a planned entry evaluates: a checked catalog spec or an ad-hoc composition
_Spec = registry.MetricDefinition | registry.Variant | MetricComposition


def _metric_entry(name: str, result, variant: str | None, extra: dict | None = None) -> dict:
    entry: dict[str, Any] = {"name": name}
    if variant:
        entry["variant"] = variant
    entry.update(result.to_record())
    if extra:
        entry["detail"] = extra
    return entry


def _error_entry(name: str, variant: str | None, exc: MetricError) -> dict:
    entry: dict[str, Any] = {
        "name": name,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if variant:
        entry["variant"] = variant
    return entry


def evaluate_selection(
    pair: SeriesPair,
    label: str,
    variant: str | None,
    spec: _Spec,
    benchmark: SeriesPair | None,
    in_sample: np.ndarray | None,
    policy: EvaluationPolicy,
) -> dict:
    """Evaluate one planned entry into a report entry; errors are embedded.

    ``spec`` is what ``registry.check`` returned for the catalog metric
    ``label``, evaluated by ``derived.evaluate_spec``, or the ad-hoc
    composition the descriptor ``label`` was parsed to, run through the
    pipeline.
    """
    try:
        if isinstance(spec, MetricComposition):
            result, rel = evaluate(pair, spec, policy), None
        else:
            result, rel = derived.evaluate_spec(pair, spec, policy, benchmark, in_sample)
    except MetricError as exc:
        return _error_entry(label, variant, exc)
    detail = None
    if rel is not None:
        detail = {k: v for k, v in asdict(rel).items() if k != "value"}
    return _metric_entry(label, result, variant, detail)


def _selection_plan(
    metrics: list[str],
    suites: list[str],
    compositions: list[str],
    variants: dict[str, str],
    extra_suites: dict[str, derived.SuiteDefinition],
    have_benchmark: bool,
    have_in_sample: bool,
) -> list[tuple[str, str | None, _Spec]]:
    """Resolve and validate the selection up front.

    Returns (label, variant, spec) triples, in selection order and
    without repeats, each the arguments ``evaluate_selection`` takes
    after the pair.  A named entry is looked up once per name given and
    checked once; its spec is what ``registry.check`` returned.  An
    ad-hoc descriptor's spec is the composition parsed from it.
    A ``variants`` key is any name ``registry.lookup`` knows, and the last
    key naming a metric wins; its variant must be one the metric has,
    whether or not the metric is selected, and None means the default.
    A suite member takes that variant unless it pins its own (``NAME:VARIANT``).
    Anything invalid here is a configuration error, not a metric failure.
    """
    plan: dict[tuple[str, str | None], _Spec] = {}
    overrides: dict[str, tuple[registry.MetricDefinition, str | None]] = {}
    for name, variant in variants.items():
        defn = registry.lookup(name)
        overrides[defn.abbreviation] = defn, variant
    for defn, variant in overrides.values():
        if variant is not None and variant not in defn.variants:
            raise UnknownVariant(defn.abbreviation, variant, tuple(defn.variants))

    def add_named(defn: registry.MetricDefinition, variant: str | None) -> None:
        if variant is None and defn.abbreviation in overrides:
            variant = overrides[defn.abbreviation][1]
        if (defn.abbreviation, variant) not in plan:
            plan[defn.abbreviation, variant] = registry.check(defn, variant, have_benchmark, have_in_sample)

    for name in metrics:
        add_named(registry.lookup(name), None)
    for suite_name in suites:
        for member in derived.get_suite(suite_name, extra_suites).members:
            abbr, _, variant = member.partition(":")
            add_named(registry.lookup(abbr), variant or None)
    for text in compositions:
        plan.setdefault((text, None), parse_composition(text))
    if not plan:
        raise ParseError("nothing selected: pass --metrics, --suite or --composition")
    return [(label, variant, spec) for (label, variant), spec in plan.items()]


# --- report rendering ---------------------------------------------------------


# how many policy actions an ``eval`` report lists per metric
ACTIONS_LISTED = 10


def _cap_actions(entry: dict) -> None:
    """Keep the first ``ACTIONS_LISTED`` of the entry's actions, and count
    every one by label under ``action_counts``; an entry at or under the
    cap, or with no actions (an error), is left as it is."""
    log = entry.get("actions")
    if log is None or len(log) <= ACTIONS_LISTED:
        return
    counts: dict[str, int] = {}
    listed, room = [], ACTIONS_LISTED
    for label, indices in log.runs:
        counts[label] = counts.get(label, 0) + indices.size
        listed.append((label, indices[:room]))
        room = max(room - indices.size, 0)
    entry["actions"] = ActionLog(listed)
    entry["action_counts"] = counts


def _format_value(entry: dict) -> str:
    if "error" in entry:
        return f"ERROR {entry['error']['type']}"
    value = format(entry["value"], ".10g")
    if entry.get("dimension") == Dimension.PERCENT.value:
        value += "%"
    return value


def render_report_table(report: dict) -> str:
    rows = []
    for entry in report["metrics"]:
        name = entry["name"] + (f" [{entry['variant']}]" if "variant" in entry else "")
        if "error" in entry:
            rows.append((name, _format_value(entry), entry["error"]["message"]))
        else:
            note = f"skipped={entry['points_skipped']}" if entry["points_skipped"] else ""
            rows.append((name, _format_value(entry), entry.get("dimension", "") + (f" {note}" if note else "")))
    name_w = max((len(r[0]) for r in rows), default=4)
    val_w = max((len(r[1]) for r in rows), default=5)
    lines = [f"input: {report['input']}"]
    for name, value, note in rows:
        lines.append(f"{name.ljust(name_w)}  {value.rjust(val_w)}  {note}".rstrip())
    return "\n".join(lines) + "\n"


def render_report_delimited(report: dict) -> str:
    rows = [("name", "variant", "value", "dimension", "points_skipped", "error")]
    for e in report["metrics"]:
        if "error" in e:
            rows.append((e["name"], e.get("variant", ""), "", "", "", e["error"]["type"]))
        else:
            rows.append((e["name"], e.get("variant", ""), repr(e["value"]),
                         e["dimension"], e["points_skipped"], ""))
    return chart.delimited(rows)


def _as_json(obj: Any) -> Any:
    """``json.dumps``'s fallback: an ActionLog is its list of ``{"action",
    "index"}`` objects; nothing else is JSON."""
    if isinstance(obj, ActionLog):
        return [{"action": a.action, "index": a.index} for a in obj]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json(obj: Any) -> str:
    """Every JSON output's text: indented by two, keys sorted, one newline
    at the end; a NaN or infinity raises ValueError rather than being
    written as ``NaN`` or ``Infinity``, which are not JSON."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_as_json) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report)
    if fmt == "table":
        return render_report_table(report)
    if fmt == "delimited":
        return render_report_delimited(report)
    raise ParseError(f"unknown report format {fmt!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with _open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- configuration file ---------------------------------------------------------


# the flags' choices, which the config keys of the same name share
_CHOICES = {
    "input_format": ("csv", "json"),
    "report": ("json", "table", "delimited"),
}
_POLICY_CHOICES = {
    "zero_denominator": tuple(p.value for p in ZeroDenominatorPolicy),
    "nonpositive_log_ratio": tuple(p.value for p in LogRatioPolicy),
}
_STRING_KEYS = ("input", "actual", "predicted", "benchmark", "in_sample", "out", *_CHOICES)


def load_config(path: str | None) -> dict[str, Any]:
    """The config object without its null values, which mean unset; a
    known key holding a value of the wrong shape is a ParseError naming
    it, and an unknown key is ignored."""
    if path is None:
        return {}
    config = _load_json(path)
    if not isinstance(config, dict):
        raise ParseError(f"{path} must hold a JSON object")
    config = {key: value for key, value in config.items() if value is not None}
    _check_config(config, path)
    return config


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _optional_string(value: Any) -> bool:
    return value is None or isinstance(value, str)


def _number_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _check_config(config: dict[str, Any], path: str) -> None:
    def expect(ok: bool, key: str, shape: str) -> None:
        if not ok:
            raise ParseError(f"{path}: config key {key!r} must be {shape}")

    def choice(value: Any, key: str, choices: tuple[str, ...]) -> None:
        expect(value is None or value in choices, key, f"one of {', '.join(choices)}")

    for key in _STRING_KEYS:
        expect(isinstance(config.get(key, ""), str), key, "a string")
    for key, choices in _CHOICES.items():
        choice(config.get(key), key, choices)
    metrics = config.get("metrics", "")
    expect(isinstance(metrics, str) or _strings(metrics), "metrics", "a string or a list of strings")
    for key in ("suites", "compositions"):
        expect(_strings(config.get(key, [])), key, "a list of strings")
    variants = config.get("variants", {})
    expect(isinstance(variants, dict) and all(map(_optional_string, variants.values())),
           "variants", "an object mapping metric names to variant names")
    policy = config.get("policy", {})
    expect(isinstance(policy, dict), "policy", "an object")
    for key, choices in _POLICY_CHOICES.items():
        choice(policy.get(key), f"policy.{key}", choices)
    epsilon = policy.get("epsilon")
    if isinstance(epsilon, str):
        ok = epsilon == "smallest-nonzero" or _number_text(epsilon)
    else:
        ok = isinstance(epsilon, (int, float)) and not isinstance(epsilon, bool)
    expect(epsilon is None or ok, "policy.epsilon", "a number or 'smallest-nonzero'")
    expect(not (isinstance(epsilon, int) and _overflows(epsilon)), "policy.epsilon",
           "within the float range")
    definitions = config.get("suite_definitions", {})
    expect(isinstance(definitions, dict), "suite_definitions", "an object of suite definitions")
    for name, body in definitions.items():
        expect(isinstance(body, dict) and _strings(body.get("members"))
               and _optional_string(body.get("rationale")),
               f"suite_definitions.{name}", "an object with a 'members' list of strings "
               "and a string 'rationale'")


def _config_suites(config: dict[str, Any]) -> dict[str, derived.SuiteDefinition]:
    return {
        name: derived.SuiteDefinition(name, tuple(body["members"]), body.get("rationale") or "")
        for name, body in config.get("suite_definitions", {}).items()
    }


def _merge(args_value, config: dict, key: str, default):
    if args_value is not None:
        return args_value
    return config.get(key, default)


# --- commands ---------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    path = _merge(args.input, config, "input", None)
    if path is None:
        raise ParseError("no input file: pass --input or set 'input' in the config")
    metrics_text = _merge(args.metrics, config, "metrics", [])
    if isinstance(metrics_text, str):
        metrics_text = [m.strip() for m in metrics_text.split(",") if m.strip()]
    suites = list(args.suite or config.get("suites", []))
    compositions = list(args.composition or config.get("compositions", []))
    variants = dict(config.get("variants", {}))
    for spec in args.variant or []:
        name, sep, value = spec.partition("=")
        if not sep:
            raise ParseError(f"--variant must be NAME=VARIANT, got {spec!r}")
        variants[name.strip()] = value.strip()

    policy_cfg = config.get("policy", {})
    policy = build_policy(
        _merge(args.on_zero_denominator, policy_cfg, "zero_denominator", None),
        _merge(args.epsilon, policy_cfg, "epsilon", None),
        _merge(args.on_nonpositive_log, policy_cfg, "nonpositive_log_ratio", None),
    )

    benchmark_col = _merge(args.benchmark, config, "benchmark", None)
    pair, benchmark = ingest(
        path,
        _merge(args.input_format, config, "input_format", None),
        _merge(args.actual, config, "actual", "actual"),
        _merge(args.predicted, config, "predicted", "predicted"),
        benchmark_col,
    )
    in_sample = None
    in_sample_path = _merge(args.in_sample, config, "in_sample", None)
    if in_sample_path is not None:
        in_sample = load_series(in_sample_path, _merge(args.actual, config, "actual", "actual"))

    plan = _selection_plan(
        metrics_text, suites, compositions, variants, _config_suites(config),
        have_benchmark=benchmark is not None, have_in_sample=in_sample is not None,
    )

    entries = [evaluate_selection(pair, *entry, benchmark, in_sample, policy) for entry in plan]
    failed = any("error" in entry for entry in entries)
    for entry in entries:
        _cap_actions(entry)

    report = {
        "input": str(path),
        "metrics": entries,
        "policy": policy.to_config(),
        "version": __version__,
    }
    _emit(render_report(report, _merge(args.report, config, "report", "json")),
          _merge(args.out, config, "out", None))
    return 1 if failed else 0


def cmd_chart(args: argparse.Namespace) -> int:
    grid = chart.build_chart()
    _emit(chart.render_chart(grid, args.format, include_blanks=args.blanks), args.out)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    category = registry.Category(args.category) if args.category else None
    defs = registry.list_metrics(category=category, include_stubs=args.include_stubs)
    if args.cell:
        cells = _list_cells(args.cell)
        defs = [d for d in defs if d.cell in cells]
    if args.format == "json":
        _emit(_json([d.to_record() for d in defs]), args.out)
        return 0
    if args.format == "delimited":
        rows = [("abbreviation", "name", "category", "dimension", "implemented")]
        rows += [(d.abbreviation, d.full_name, d.category.value, d.dimension.value,
                  str(d.implemented).lower()) for d in defs]
        _emit(chart.delimited(rows), args.out)
        return 0
    width = max((len(d.abbreviation) for d in defs), default=4)
    lines = []
    for d in defs:
        status = "" if d.implemented else "  [not implemented]"
        lines.append(f"{d.abbreviation.ljust(width)}  {d.category.value:9}  {d.full_name}{status}\n")
    _emit("".join(lines), args.out)
    return 0


def cmd_suites(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    pool = dict(derived.BUILTIN_SUITES)
    pool.update(_config_suites(config))
    if args.format == "json":
        payload = [
            {"name": s.name, "members": list(s.members), "rationale": s.rationale}
            for s in pool.values()
        ]
        _emit(_json(payload), args.out)
        return 0
    lines = []
    for name in sorted(pool):
        s = pool[name]
        lines.append(f"{s.name}: {', '.join(s.members)}")
        if s.rationale:
            lines.append(f"    {s.rationale}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# --- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricgrid",
        description="Evaluate error metrics built from distance, normalizer and aggregator parts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score predictions from a CSV or JSON file")
    p_eval.add_argument("--input", "-i", help="input file (CSV with header, or JSON object)")
    p_eval.add_argument("--input-format", choices=_CHOICES["input_format"], dest="input_format")
    p_eval.add_argument("--actual", help="actuals column/key (default: actual)")
    p_eval.add_argument("--predicted", help="predictions column/key (default: predicted)")
    p_eval.add_argument("--benchmark", help="benchmark predictions column/key")
    p_eval.add_argument("--in-sample", dest="in_sample", help="file with in-sample history for MASE")
    p_eval.add_argument("--metrics", "-m", help="comma-separated metric names")
    p_eval.add_argument("--suite", action="append", help="named suite to evaluate (repeatable)")
    p_eval.add_argument(
        "--composition", action="append",
        help="ad-hoc descriptor, e.g. 'distance=D4 normalizer=N1 aggregator=G1' (repeatable)",
    )
    p_eval.add_argument("--variant", action="append", help="NAME=VARIANT override (repeatable)")
    p_eval.add_argument(
        "--on-zero-denominator", choices=_POLICY_CHOICES["zero_denominator"],
        dest="on_zero_denominator",
        help="what to do when a normalization denominator is zero (default: fail)",
    )
    p_eval.add_argument(
        "--epsilon",
        help="epsilon correction: a number, or 'smallest-nonzero' for the smallest nonzero |actual|",
    )
    p_eval.add_argument(
        "--on-nonpositive-log", choices=_POLICY_CHOICES["nonpositive_log_ratio"],
        dest="on_nonpositive_log",
        help="what to do when ln(predicted/actual) is undefined (default: fail)",
    )
    p_eval.add_argument("--report", choices=_CHOICES["report"])
    p_eval.add_argument("--config", help="JSON config file; explicit flags override it")
    p_eval.add_argument("--out", "-o", help="write the report here instead of stdout")
    p_eval.set_defaults(func=cmd_eval)

    p_chart = sub.add_parser("chart", help="print the composition grid")
    p_chart.add_argument("--format", choices=tuple(chart.RENDERERS), default="plain")
    p_chart.add_argument("--blanks", action="store_true", help="append unoccupied cells")
    p_chart.add_argument("--out", "-o")
    p_chart.set_defaults(func=cmd_chart)

    p_list = sub.add_parser("list", help="list catalog metrics")
    p_list.add_argument("--category", choices=tuple(c.value for c in registry.Category))
    p_list.add_argument("--cell", help="filter by cell, e.g. 'D2,N2,G2'")
    p_list.add_argument("--include-stubs", action="store_true")
    p_list.add_argument("--format", choices=("table", "json", "delimited"), default="table")
    p_list.add_argument("--out", "-o")
    p_list.set_defaults(func=cmd_list)

    p_suites = sub.add_parser("suites", help="show named metric suites")
    p_suites.add_argument("--config", help="JSON config file with extra suite definitions")
    p_suites.add_argument("--format", choices=("table", "json"), default="table")
    p_suites.add_argument("--out", "-o")
    p_suites.set_defaults(func=cmd_suites)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
