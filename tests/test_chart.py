"""Grid construction, blank-cell discovery and rendering."""

from dataclasses import replace

import pytest

from metricgrid.chart import (
    CORE_AGGREGATORS,
    NORM_COLUMNS,
    ChartGrid,
    blank_cells,
    build_chart,
    generic_formula,
    render_chart,
)
from metricgrid.errors import DuplicateCellClaim
from metricgrid.registry import composed_definitions, get_catalog, lookup
from metricgrid.types import AggKind, Distance, NormKind


@pytest.fixture(scope="module")
def grid() -> ChartGrid:
    return build_chart()


class TestGridPlacement:
    @pytest.mark.parametrize(
        "abbr,cell",
        [
            ("GMAE", (Distance("D2"), NormKind.UNITARY, AggKind.GEOMETRIC_MEAN)),
            ("VSD", (Distance("D3"), NormKind.BY_MIN, AggKind.SUM)),
            ("MdAPE", (Distance("D2"), NormKind.BY_ACTUALS, AggKind.MEDIAN)),
            ("WHD", (Distance("D2"), NormKind.BY_MAX, AggKind.SUM)),
            ("MAE", (Distance("D2"), NormKind.UNITARY, AggKind.MEAN)),
            ("MdLAR", (Distance("D4"), NormKind.UNITARY, AggKind.MEDIAN)),
        ],
    )
    def test_spot_positions(self, grid, abbr, cell):
        assert abbr in {e.abbreviation for e in grid.occupants(cell)}

    def test_every_chartable_definition_lands_on_its_own_cell(self, grid):
        placed = {e.abbreviation for entries in grid.cells.values() for e in entries}
        for d in composed_definitions():
            # a pinned cell other than the composition's is printed there; None is uncharted
            if d.cell != d.composition.cell:
                continue
            if d.charted and d.composition.aggregator.kind in CORE_AGGREGATORS:
                assert d.abbreviation in placed, d.abbreviation
                assert any(
                    e.abbreviation == d.abbreviation for e in grid.occupants(d.cell)
                ), d.abbreviation

    def test_occupancy_counts(self, grid):
        assert len(grid.occupied_columns()) == 31
        assert grid.entry_count == 40
        assert grid.entry_count + len(grid.annex) == len(composed_definitions()) == 43

    def test_annex_membership(self, grid):
        by_abbr = {e.abbreviation: e for e in grid.annex}
        assert set(by_abbr) == {"JD", "MaxAE", "MNFB"}
        assert by_abbr["JD"].reason == "uncharted"
        assert "max" in by_abbr["MaxAE"].reason
        assert by_abbr["MNFB"].reason == "weighted transform"

    def test_as_printed_entry(self, grid):
        kld_cell = lookup("KLD").cell
        entries = grid.occupants(kld_cell)
        kld = [e for e in entries if e.abbreviation == "KLD"]
        assert kld and kld[0].note == "as printed"
        assert kld[0].label == "KLD c=-1 (as printed)"
        printed = [e.abbreviation for es in grid.cells.values() for e in es if e.note == "as printed"]
        assert printed == ["KLD"]

    def test_parent_derived_labels(self, grid):
        labels = [e.label for entries in grid.cells.values() for e in entries]
        for label in (
            "RMSE=sqrt(MSE)", "MAPE=100*MARE", "MPE=100*MNB", "sMAPE=100*FAE",
            "ED=sqrt(SSE)", "RMSPE=sqrt(MSPE)", "RMdSPE=sqrt(MdSPE)", "RRSE=sqrt(RSE)",
        ):
            assert label in labels

    def test_derived_entries_sort_after_plain_ones(self, grid):
        cell = (Distance("D3"), NormKind.UNITARY, AggKind.MEAN)
        entries = grid.occupants(cell)
        abbrs = [e.abbreviation for e in entries]
        assert abbrs.index("MSE") < abbrs.index("RMSE")


class TestBlankCells:
    def test_count_complements_occupancy(self, grid):
        blanks = blank_cells(grid)
        assert len(blanks) == 69
        assert len(blanks) + len(grid.occupied_columns()) == 100

    def test_required_blanks_present(self, grid):
        coords = {(b.distance, b.column, b.aggregator) for b in blank_cells(grid)}
        assert (Distance("D4"), "N1", AggKind.MEAN) in coords
        assert (Distance("D5"), "N1", AggKind.GEOMETRIC_MEAN) in coords

    def test_no_blank_is_occupied(self, grid):
        occupied = grid.occupied_columns()
        for b in blank_cells(grid):
            assert (b.distance, b.column, b.aggregator) not in occupied

    def test_occupied_spots_absent(self, grid):
        coords = {(b.distance, b.column, b.aggregator) for b in blank_cells(grid)}
        assert (Distance("D2"), "N1", AggKind.GEOMETRIC_MEAN) not in coords  # GMAE
        assert (Distance("D4"), "N2", AggKind.SUM) not in coords             # KLD as printed
        assert (Distance("D2"), "N5", AggKind.SUM) not in coords             # WHD/SquD

    def test_blank_order_is_distance_major(self, grid):
        blanks = blank_cells(grid)
        keys = [
            (
                list(Distance).index(b.distance),
                NORM_COLUMNS.index(b.column),
                CORE_AGGREGATORS.index(b.aggregator),
            )
            for b in blanks
        ]
        assert keys == sorted(keys)

    def test_every_blank_has_a_formula(self, grid):
        for b in blank_cells(grid):
            assert b.formula == generic_formula(b.distance, b.column, b.aggregator)
            assert b.formula

    def test_empty_catalog_leaves_all_hundred_blank(self):
        empty = build_chart([])
        assert empty.cells == {}
        assert len(blank_cells(empty)) == 100


class TestDuplicateDetection:
    def test_identical_composition_rejected(self):
        mae = lookup("MAE")
        clone = replace(mae, abbreviation="MAE2", aliases=())
        with pytest.raises(DuplicateCellClaim):
            build_chart([mae, clone])

    def test_shared_cell_with_distinct_recipes_is_fine(self):
        # FAE and sMAPE share a cell but differ in post transforms
        fae, smape = lookup("FAE"), lookup("sMAPE")
        grid = build_chart([fae, smape])
        assert fae.cell == smape.cell
        assert len(grid.occupants(fae.cell)) == 2


class TestRendering:
    def test_renders_are_deterministic(self, grid):
        for fmt in ("plain", "delimited", "markup"):
            once = render_chart(grid, fmt, include_blanks=True)
            again = render_chart(build_chart(), fmt, include_blanks=True)
            assert once == again

    def test_plain_layout(self, grid):
        text = render_chart(grid, "plain")
        assert "GMAE" in text
        assert "KLD c=-1 (as printed)" in text
        assert "annex (outside the core grid):" in text
        assert "blank cells" not in text

    def test_plain_with_blanks(self, grid):
        text = render_chart(grid, "plain", include_blanks=True)
        assert "blank cells" in text
        assert "D4 N1 G1" in text

    def test_delimited_lists_every_entry(self, grid):
        text = render_chart(grid, "delimited")
        lines = text.strip().splitlines()
        assert lines[0] == "distance,normalizer,aggregator,entry,c,note"
        body = lines[1:]
        assert len(body) == grid.entry_count + len(grid.annex)
        assert any(line.startswith("D2,N1,G3,GMAE") for line in body)

    def test_markup_has_one_section_per_distance(self, grid):
        text = render_chart(grid, "markup")
        for d in Distance:
            assert f"## {d.code}:" in text

    def test_unknown_format_rejected(self, grid):
        with pytest.raises(ValueError):
            render_chart(grid, "yaml")


class TestGenericFormula:
    def test_shapes(self):
        assert generic_formula(Distance("D1"), "N1", AggKind.MEAN) == "mean_j[ (A_j - P_j) ]"
        n2 = generic_formula(Distance("D2"), "N2", AggKind.MEDIAN)
        assert "|A_j - P_j|" in n2 and "A_j^c" in n2
        n5 = generic_formula(Distance("D3"), "N5", AggKind.SUM)
        assert "max(A_j, P_j)" in n5 and "min" in n5
