import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import pytest

from lexsets.analysis import analyze_lexical_sets
from lexsets.corpus import LexicalSet
from lexsets.errors import PlotSpecError
from lexsets.geometry import BoxStats
from lexsets.report import (
    ANALYSIS_COLUMNS,
    PlotSpec,
    analysis_documents,
    emit_tables,
    figure_specs,
    geometry_documents,
    json_text,
    render_svg,
)

from conftest import store_from_text
from test_analysis import make_inventory, small_world


def sample_box(offset=0.0):
    return BoxStats(
        minimum=0.1 + offset,
        q1=0.2 + offset,
        median=0.3 + offset,
        q3=0.4 + offset,
        maximum=0.5 + offset,
        whisker_low=0.1 + offset,
        whisker_high=0.5 + offset,
        outlier_count=0,
    )


# --- render_svg -------------------------------------------------------------


def test_single_box_renders_one_box_group():
    spec = PlotSpec(kind="box_whisker_panel", title="one verb", series=[("S", sample_box())])
    svg = render_svg(spec)
    assert svg.count('<g class="box"') == 1
    ET.fromstring(svg)


def test_markup_in_a_label_and_a_title_parses_back():
    label, title = 'a"b&c<d', 'say "x" & <y>'
    svg = render_svg(PlotSpec(kind="box_whisker_panel", title=title, series=[(label, sample_box())]))
    root = ET.fromstring(svg)
    svg_ns = "{http://www.w3.org/2000/svg}"
    assert [group.get("data-label") for group in root.iter(f"{svg_ns}g")] == [label]
    texts = [text.text for text in root.iter(f"{svg_ns}text")]
    assert texts[0] == title and label in texts


def test_rendering_is_deterministic():
    spec = PlotSpec(
        kind="box_whisker_panel",
        title="repeatable",
        series=[("S", sample_box()), ("O", sample_box(0.2))],
    )
    assert render_svg(spec) == render_svg(spec)


def test_ranking_comparison_marker_count():
    labels = [f"verb{i}" for i in range(20)]
    first = [(label, i + 1) for i, label in enumerate(labels)]
    second = [(label, 20 - i) for i, label in enumerate(labels)]
    spec = PlotSpec(
        kind="ranking_comparison",
        title="two rankings",
        series=[("ref", first), ("dist", second)],
    )
    svg = render_svg(spec)
    # 40 data markers plus one legend marker per series
    assert svg.count('class="marker"') == 42
    ET.fromstring(svg)


def test_median_by_rank_renders_markers_and_line():
    spec = PlotSpec(
        kind="median_by_rank",
        title="medians",
        series=[("a", 1, 0.5), ("b", 2, 0.6), ("c", 3, 0.4)],
    )
    svg = render_svg(spec)
    assert svg.count('class="marker"') == 3
    assert "<polyline" in svg
    ET.fromstring(svg)


def test_axis_labels_present():
    spec = PlotSpec(
        kind="median_by_rank",
        title="t",
        series=[("a", 1, 0.5)],
        x_label="verbs",
        y_label="median distance",
    )
    svg = render_svg(spec)
    assert "verbs" in svg and "median distance" in svg


@pytest.mark.parametrize(
    "spec,message",
    [
        (PlotSpec(kind="unknown_kind", title="t", series=[("a", 1)]), "unknown plot kind 'unknown_kind'"),
        (PlotSpec(kind="unknown_kind", title="t", series=[], width=0), "unknown plot kind 'unknown_kind'"),
        (PlotSpec(kind="box_whisker_panel", title="t", series=[]), "plot series must be non-empty"),
        (
            PlotSpec(kind="box_whisker_panel", title="t", series=[("a", 0.4)]),
            r"box_whisker_panel series items must be \(label, BoxStats\)",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("a", 1)]),
            r"median_by_rank series items must be \(label, rank, median\)",
        ),
        (
            PlotSpec(kind="ranking_comparison", title="t", series=[("r", [("a", 1)]), ("s", [])]),
            r"ranking_comparison series items must be \(name, \[\(label, rank\), \.\.\.\]\)",
        ),
        (
            PlotSpec(
                kind="ranking_comparison",
                title="t",
                series=[("r", [("a", 1)]), ("s", [("b", 1)])],
            ),
            "ranking_comparison series must cover the same labels",
        ),
        (
            PlotSpec(kind="box_whisker_panel", title="t", series=[("a", None)], width=0),
            "plot dimensions must be positive",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("S", 1, 0.5), ("O", "x", 0.3)]),
            r"median_by_rank items need a text label and numeric rank and median, got \('O', 'x', 0\.3\)",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("S", 1, "0.5")]),
            "median_by_rank items need a text label and numeric rank and median",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[(7, 1, 0.5)]),
            "median_by_rank items need a text label and numeric rank and median",
        ),
        (
            PlotSpec(kind="ranking_comparison", title="t", series=[("a", (1.0, 2.0))]),
            r"ranking_comparison points must be \(label, number\) pairs, got 1\.0",
        ),
        (
            PlotSpec(kind="ranking_comparison", title="t", series=[("r", [("a", 1), ("b", "2")])]),
            r"ranking_comparison points must be \(label, number\) pairs, got \('b', '2'\)",
        ),
        (
            PlotSpec(kind="ranking_comparison", title="t", series=[("r", [("a", 1, 2)])]),
            r"ranking_comparison points must be \(label, number\) pairs",
        ),
        (
            PlotSpec(kind="box_whisker_panel", title="t", series=[(0.5, sample_box())]),
            r"box_whisker_panel series items must be \(label, BoxStats\)",
        ),
        (
            PlotSpec(kind="ranking_comparison", title="t", series=[(1, [("a", 1)])]),
            r"ranking_comparison series items must be \(name, \[\(label, rank\), \.\.\.\]\)",
        ),
        (
            PlotSpec(kind="ranking_comparison", title="t", series=[("r", 5)]),
            r"ranking_comparison series items must be \(name, \[\(label, rank\), \.\.\.\]\)",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("a", 1, math.nan), ("b", 2, 0.5)]),
            r"median_by_rank values must be finite numbers, got \('a', 1, nan\)",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("a", 1, 0.5), ("b", math.nan, 0.3)]),
            r"median_by_rank values must be finite numbers, got \('b', nan, 0\.3\)",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("a", 1, 0.5), ("b", 2, -math.inf)]),
            r"median_by_rank values must be finite numbers, got \('b', 2, -inf\)",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("a", 1, 1e308), ("b", 2, -1e308)]),
            r"plotted values need a y axis from -1e\+308 to inf, which float ticks cannot divide",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("a", 1, -1.7e308)]),
            r"plotted values need a y axis from -1\.7e\+308 to -1\.7e\+308, which float ticks cannot divide",
        ),
        (
            PlotSpec(kind="median_by_rank", title="t", series=[("a", 1, 5e-324)]),
            r"plotted values need a y axis from 0\.0 to 5e-324, which float ticks cannot divide",
        ),
        (
            PlotSpec(kind="ranking_comparison", title="t", series=[("r", [("a", 1), ("b", math.nan)])]),
            r"ranking_comparison values must be finite numbers, got \('b', nan\)",
        ),
        (
            PlotSpec(kind="ranking_comparison", title="t", series=[("r", [("a", 1), ("b", math.inf)])]),
            r"ranking_comparison values must be finite numbers, got \('b', inf\)",
        ),
        (
            PlotSpec(kind="box_whisker_panel", title="t", series=[("S", BoxStats(**{**sample_box().as_dict(),
                                                                                    "median": math.nan}))]),
            r"box_whisker_panel values must be finite numbers, got \('S', BoxStats\(.*median=nan",
        ),
        (
            PlotSpec(kind="box_whisker_panel", title="t", series=[("S", sample_box()),
                                                                  ("O", BoxStats(*[math.inf] * 7, 0))]),
            r"box_whisker_panel values must be finite numbers, got \('O', BoxStats\(minimum=inf",
        ),
    ],
    ids=["unknown-kind", "unknown-kind-zero-width", "empty-series", "box-item", "median-item",
         "ranking-item", "ranking-labels", "zero-width", "median-rank-text", "median-value-text",
         "median-label-number", "ranking-point-number", "ranking-rank-text", "ranking-point-triple",
         "box-label-number", "ranking-name-number", "ranking-points-number", "median-nan", "median-rank-nan",
         "median-infinite", "median-span-overflows", "median-axis-below-one-ulp",
         "median-step-below-the-smallest-float", "ranking-rank-nan", "ranking-rank-infinite",
         "box-median-nan", "box-infinite"],
)
def test_invalid_specs_rejected(spec, message):
    with pytest.raises(PlotSpecError, match=message):
        render_svg(spec)


def test_title_is_escaped():
    spec = PlotSpec(kind="median_by_rank", title="a < b & c", series=[("x", 1, 0.2)])
    svg = render_svg(spec)
    assert "a &lt; b &amp; c" in svg
    ET.fromstring(svg)


# --- emit_tables ---------------------------------------------------------------


def test_empty_rows_give_header_only_csv():
    csv_text, json_text = emit_tables([], ["a", "b"])
    assert csv_text == "a,b\n"
    assert json.loads(json_text) == []


def test_single_row_gives_two_line_csv():
    csv_text, _ = emit_tables([{"a": 1, "b": 0.5}], ["a", "b"])
    assert csv_text.splitlines() == ["a,b", "1,0.500000"]


def test_json_roundtrip_equals_rounded_source():
    rows = [{"name": "x", "value": 0.1234567891, "count": 3}]
    _, json_text = emit_tables(rows, ["name", "value", "count"])
    assert json.loads(json_text) == [{"name": "x", "value": 0.123457, "count": 3}]


def test_csv_and_json_numbers_parse_back_equal():
    rows = [{"v": 0.6965674321}, {"v": 1.0 / 3.0}, {"v": 2.0}]
    csv_text, json_text = emit_tables(rows, ["v"])
    csv_values = [float(line[0]) for line in list(csv.reader(io.StringIO(csv_text)))[1:]]
    json_values = [row["v"] for row in json.loads(json_text)]
    assert csv_values == json_values


def test_missing_cells_are_blank_in_csv():
    csv_text, json_text = emit_tables([{"a": 1}], ["a", "b"])
    assert csv_text.splitlines()[1] == "1,"
    assert json.loads(json_text)[0]["b"] is None


def test_non_finite_cells_are_refused_not_written_as_json_tokens():
    # json.dumps would write NaN and Infinity, which a strict JSON parser refuses
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_tables([{"a": math.nan, "b": math.inf}], ["a", "b"])


def test_json_text_rounds_floats_at_any_depth():
    document = {"a": 1 / 3, "rows": [{"b": [2 / 3, (0.1234564, "x")]}], "n": 7, "flag": True, "none": None}
    assert json.loads(json_text(document)) == {
        "a": 0.333333, "rows": [{"b": [0.666667, [0.123456, "x"]]}], "n": 7, "flag": True, "none": None,
    }


# --- report documents -------------------------------------------------------------


@pytest.fixture
def world_result():
    sets, store, inventory = small_world()
    return analyze_lexical_sets(sets, store, inventory)


def test_geometry_documents_shape(world_result):
    csv_text, json_text = geometry_documents(world_result)
    rows = json.loads(json_text)
    assert len(rows) == 6
    assert rows[0]["verb"] == "v1" and rows[0]["role"] == "S"
    header = csv_text.splitlines()[0].split(",")
    assert header[:5] == ["verb", "role", "covered_tokens", "oov_tokens", "oov_types"]
    assert "fillers" not in rows[0]


def test_geometry_documents_verbose_includes_fillers(world_result):
    _, json_text = geometry_documents(world_result, verbose=True)
    rows = json.loads(json_text)
    assert all("fillers" in row for row in rows)
    filler = rows[0]["fillers"][0]
    assert set(filler) == {"lemma", "distance", "weight"}


def test_analysis_documents_structure(world_result):
    csv_text, json_text = analysis_documents(world_result)
    document = json.loads(json_text)
    assert [v["verb"] for v in document["verbs"]] == ["v1", "v2", "v3"]
    assert document["excluded"][0]["verb"] == "v4"
    assert document["correlations"]["distance_vs_reference"]["n"] == 3
    assert "low_half_avg" in document["split_half_medians"]["S"]
    assert csv_text.splitlines()[0] == ",".join(ANALYSIS_COLUMNS)
    assert len(csv_text.splitlines()) == 4


def test_figure_specs_cover_expected_files(world_result):
    specs = figure_specs(world_result)
    assert set(specs) == {"fig1_v1", "fig1_v2", "fig1_v3", "fig2_S", "fig2_O", "fig3"}
    assert specs["fig1_v1"].kind == "box_whisker_panel"
    assert len(specs["fig1_v1"].series) == 2
    assert specs["fig3"].kind == "ranking_comparison"
    for spec in specs.values():
        ET.fromstring(render_svg(spec))
