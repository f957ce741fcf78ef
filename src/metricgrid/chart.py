"""Composition chart: the distance x normalizer x aggregator grid.

The chart arranges every composed primary metric in a 5x5x4 grid (five
distances, five normalizer columns, four core aggregators).  Max- and
min-normalized metrics share the N5 column.  Metrics that aggregate
outside the core four, that carry an extra sign weight, or that have no
cell land in an annex block.  Unoccupied cells are enumerable with the
generic formula a new metric there would have.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import DuplicateCellClaim
from .registry import Category, MetricDefinition, get_catalog
from .types import AggKind, Cell, Distance, MetricComposition, NormKind, PostKind

CORE_AGGREGATORS = (AggKind.MEAN, AggKind.MEDIAN, AggKind.GEOMETRIC_MEAN, AggKind.SUM)
NORM_COLUMNS = ("N1", "N2", "N3", "N4", "N5")

DISTANCE_TITLES = {
    Distance.ERROR: "error (A - P)",
    Distance.ABSOLUTE_ERROR: "absolute error |A - P|",
    Distance.SQUARED_ERROR: "squared error (A - P)^2",
    Distance.LOG_QUOTIENT: "log quotient ln(P/A)",
    Distance.ABS_LOG_QUOTIENT: "absolute log quotient |ln(P/A)|",
}
COLUMN_TITLES = {
    "N1": "unitary",
    "N2": "by actuals",
    "N3": "by variability of actuals",
    "N4": "by actual+predicted",
    "N5": "by max/min of actual,predicted",
}
AGGREGATOR_TITLES = {
    AggKind.MEAN: "mean",
    AggKind.MEDIAN: "median",
    AggKind.GEOMETRIC_MEAN: "geometric mean",
    AggKind.SUM: "sum",
}

_DIST_TERMS = {
    Distance.ERROR: "(A_j - P_j)",
    Distance.ABSOLUTE_ERROR: "|A_j - P_j|",
    Distance.SQUARED_ERROR: "(A_j - P_j)^2",
    Distance.LOG_QUOTIENT: "ln(P_j/A_j)",
    Distance.ABS_LOG_QUOTIENT: "|ln(P_j/A_j)|",
}
_AGG_WRAPS = {
    AggKind.MEAN: "mean_j[ {} ]",
    AggKind.MEDIAN: "median_j[ {} ]",
    AggKind.GEOMETRIC_MEAN: "geomean_j[ {} ]",
    AggKind.SUM: "sum_j[ {} ]",
}


@dataclass(frozen=True)
class CellEntry:
    """One printed line inside a grid cell."""

    abbreviation: str
    label: str
    cell: Cell
    c: int | None = None
    note: str = ""
    derived_from: str | None = None


@dataclass(frozen=True)
class AnnexEntry:
    abbreviation: str
    label: str
    reason: str


@dataclass(frozen=True)
class BlankCell:
    """An unoccupied core-grid cell and the formula a metric there would use."""

    distance: Distance
    column: str
    aggregator: AggKind
    formula: str


@dataclass(frozen=True)
class ChartGrid:
    cells: dict[Cell, tuple[CellEntry, ...]]
    annex: tuple[AnnexEntry, ...]

    def occupants(self, cell: Cell) -> tuple[CellEntry, ...]:
        return self.cells.get(cell, ())

    def occupied_columns(self) -> set[tuple[Distance, str, AggKind]]:
        """Core-grid coordinates with at least one entry (N5 collapsed)."""
        return {(d, n.column, g) for (d, n, g) in self.cells}

    def column_entries(self, distance: Distance, column: str, agg: AggKind) -> list[CellEntry]:
        out = []
        for (d, n, g), entries in sorted(self.cells.items(), key=_cell_sort_key):
            if d is distance and n.column == column and g is agg:
                out.extend(entries)
        return out

    @property
    def entry_count(self) -> int:
        """Printed core-grid lines, including as-printed entries."""
        return sum(len(v) for v in self.cells.values())


def _cell_sort_key(item: tuple[Cell, object]) -> tuple:
    (d, n, g), _ = item
    return (
        list(Distance).index(d),
        NORM_COLUMNS.index(n.column),
        CORE_AGGREGATORS.index(g),
        n.value,
    )


def _cell_entry(defn: MetricDefinition, parent: str | None) -> CellEntry:
    """The printed line of a composed metric: its label, c and max/min note.

    A metric whose recipe is ``parent``'s plus one last post transform is
    printed as derived from it: ``X=sqrt(P)`` or ``X=100*P``.
    """
    comp = defn.composition
    assert comp is not None
    kind = comp.normalizer.kind
    c = None if kind is NormKind.UNITARY else comp.normalizer.exponent
    note = {NormKind.BY_MAX: "max", NormKind.BY_MIN: "min"}.get(kind, "")
    if parent is not None:
        shape = "sqrt({})" if comp.post[-1].kind is PostKind.SQRT else "100*{}"
        label = f"{defn.abbreviation}={shape.format(parent)}"
    else:
        label = defn.abbreviation
        if defn.chart_aka:
            label += f" ({', '.join(defn.chart_aka)})"
        if c is not None:
            label += f" c={c}"
        if note:
            label += f" {note}"
    return CellEntry(defn.abbreviation, label, comp.cell, c, note, parent)


def build_chart(definitions: Sequence[MetricDefinition] | None = None) -> ChartGrid:
    """Arrange catalog definitions into the grid.

    Placement follows from the cells: a metric with a core aggregator
    lands on its composition's cell, one whose pinned ``cell`` differs
    from that is printed there "as printed", and the rest, a metric with
    no cell among them, go to the annex.  Parents are looked up in the
    full catalog.

    Raises DuplicateCellClaim when two metrics submit byte-identical
    compositions: a second name for the same recipe is a catalog mistake,
    not a new metric.
    """
    catalog = list(get_catalog().values())
    if definitions is None:
        definitions = catalog
    recipes = {d.composition: d.abbreviation for d in catalog if d.composition is not None}

    cells: dict[Cell, list[CellEntry]] = {}
    annex: list[AnnexEntry] = []
    claimed: dict[MetricComposition, str] = {}

    for defn in sorted(definitions, key=lambda d: d.abbreviation.casefold()):
        if defn.category is not Category.PRIMARY or not defn.implemented:
            continue
        comp = defn.composition
        if defn.cell is None:
            annex.append(AnnexEntry(defn.abbreviation, defn.abbreviation, "uncharted"))
        elif defn.cell != comp.cell:
            entry = CellEntry(
                abbreviation=defn.abbreviation,
                label=f"{defn.abbreviation} c=-1 (as printed)",
                cell=defn.cell,
                c=-1,
                note="as printed",
            )
            cells.setdefault(defn.cell, []).append(entry)
        elif comp.aggregator.kind not in CORE_AGGREGATORS:
            annex.append(AnnexEntry(
                abbreviation=defn.abbreviation,
                label=f"{defn.abbreviation} = {comp.aggregator.kind.value}_j[ {_DIST_TERMS[comp.distance]} ]",
                reason=f"{comp.aggregator.kind.value} aggregator",
            ))
        elif not defn.charted:
            annex.append(AnnexEntry(defn.abbreviation, defn.abbreviation, "weighted transform"))
        else:
            if comp in claimed:
                raise DuplicateCellClaim(
                    f"{defn.abbreviation} and {claimed[comp]} claim the identical "
                    f"composition in cell {comp.cell}"
                )
            claimed[comp] = defn.abbreviation
            parent = recipes.get(replace(comp, post=comp.post[:-1])) if comp.post else None
            cells.setdefault(comp.cell, []).append(_cell_entry(defn, parent))

    ordered: dict[Cell, tuple[CellEntry, ...]] = {}
    for cell, entries in sorted(cells.items(), key=_cell_sort_key):
        entries.sort(key=lambda e: (e.derived_from is not None, e.c or 0, e.abbreviation))
        ordered[cell] = tuple(entries)
    return ChartGrid(ordered, tuple(annex))


def generic_formula(distance: Distance, column: str, agg: AggKind) -> str:
    """Formula skeleton a metric at this coordinate would compute."""
    term = _DIST_TERMS[distance]
    if column == "N2":
        term = f"{term} / A_j^c"
    elif column == "N3":
        term = f"{term} / (A_j - mean(A))^c"
    elif column == "N4":
        term = f"{term} / (A_j + P_j)^c"
    elif column == "N5":
        term = f"{term} / max(A_j, P_j)^c (or min)"
    return _AGG_WRAPS[agg].format(term)


def blank_cells(grid: ChartGrid) -> list[BlankCell]:
    """Unoccupied core-grid coordinates in distance-major order."""
    occupied = grid.occupied_columns()
    out = []
    for d in Distance:
        for col in NORM_COLUMNS:
            for g in CORE_AGGREGATORS:
                if (d, col, g) not in occupied:
                    out.append(BlankCell(d, col, g, generic_formula(d, col, g)))
    return out


def _annex_lines(grid: ChartGrid) -> list[str]:
    catalog = get_catalog()
    lines = []
    for e in grid.annex:
        defn = catalog.get(e.abbreviation)
        detail = defn.notes if defn is not None and defn.notes else e.reason
        lines.append(f"{e.abbreviation}: {detail}")
    return lines


def _cell_text(grid: ChartGrid, d: Distance, col: str, g: AggKind) -> str:
    return "; ".join(e.label for e in grid.column_entries(d, col, g))


def render_plain(grid: ChartGrid, include_blanks: bool = False) -> str:
    header = ["aggregator"] + [f"{c} {COLUMN_TITLES[c]}" for c in NORM_COLUMNS]
    rows: list[list[str]] = []
    for d in Distance:
        rows.append([f"{d.code}: {DISTANCE_TITLES[d]}"] + [""] * len(NORM_COLUMNS))
        for g in CORE_AGGREGATORS:
            row = [f"  {g.value} {AGGREGATOR_TITLES[g]}"]
            row += [_cell_text(grid, d, c, g) for c in NORM_COLUMNS]
            rows.append(row)
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    lines = ["composition chart: distance x normalizer x aggregator", ""]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    if grid.annex:
        lines += ["", "annex (outside the core grid):"]
        lines += [f"  {t}" for t in _annex_lines(grid)]
    if include_blanks:
        lines += ["", "blank cells (formula a metric there would compute):"]
        for b in blank_cells(grid):
            lines.append(f"  {b.distance.code} {b.column} {b.aggregator.value}: {b.formula}")
    return "\n".join(lines) + "\n"


def delimited(rows: Iterable[Sequence[object]]) -> str:
    """Comma-separated rows, one a line; only a field holding a comma, a
    quote or a line break is quoted, so every row parses to its width."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def render_delimited(grid: ChartGrid, include_blanks: bool = False) -> str:
    rows = [("distance", "normalizer", "aggregator", "entry", "c", "note")]
    for cell, entries in sorted(grid.cells.items(), key=_cell_sort_key):
        d, n, g = cell
        for e in entries:
            rows.append((d.code, n.value, g.value, e.label, e.c, e.note))  # None is written as ""
    for e in grid.annex:
        rows.append(("", "", "", e.abbreviation, "", e.reason))
    if include_blanks:
        for b in blank_cells(grid):
            rows.append((b.distance.code, b.column, b.aggregator.value, "", "",
                         f"blank: {b.formula}"))
    return delimited(rows)


def render_markup(grid: ChartGrid, include_blanks: bool = False) -> str:
    lines = ["# Composition chart", ""]
    for d in Distance:
        lines.append(f"## {d.code}: {DISTANCE_TITLES[d]}")
        lines.append("")
        lines.append("| aggregator | " + " | ".join(NORM_COLUMNS) + " |")
        lines.append("|" + " --- |" * (len(NORM_COLUMNS) + 1))
        for g in CORE_AGGREGATORS:
            cellvals = [_cell_text(grid, d, c, g) for c in NORM_COLUMNS]
            lines.append(f"| {g.value} {AGGREGATOR_TITLES[g]} | " + " | ".join(cellvals) + " |")
        lines.append("")
    if grid.annex:
        lines.append("## Annex")
        lines.append("")
        lines += [f"- {t}" for t in _annex_lines(grid)]
        lines.append("")
    if include_blanks:
        lines.append("## Blank cells")
        lines.append("")
        for b in blank_cells(grid):
            lines.append(f"- `{b.distance.code} {b.column} {b.aggregator.value}`: {b.formula}")
        lines.append("")
    return "\n".join(lines)


RENDERERS = {
    "plain": render_plain,
    "delimited": render_delimited,
    "markup": render_markup,
}


def render_chart(grid: ChartGrid, fmt: str = "plain", include_blanks: bool = False) -> str:
    """Render the grid; identical input yields byte-identical output."""
    if fmt not in RENDERERS:
        raise ValueError(f"unknown chart format {fmt!r} (choose from {sorted(RENDERERS)})")
    return RENDERERS[fmt](grid, include_blanks)
