"""Deterministic output emitters: CSV/JSON tables and standalone SVG plots.

Rendering is a pure function of the input spec: no timestamps, no
randomness, fixed number formatting. Repeated runs produce byte-identical
artifacts, which makes the outputs diffable and testable as golden files.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from numbers import Real
from typing import Mapping, Sequence

from .analysis import AnalysisResult, VerbResult
from .corpus import ROLE_O, ROLE_S, ROLES, _FLOAT_DECIMALS, _delimited_field, json_text
from .errors import PlotSpecError
from .geometry import COVERAGE_FIELDS, BoxStats

_MARKER_COLORS = ("#2ca02c", "#1f77b4", "#d62728", "#9467bd")


@dataclass
class PlotSpec:
    kind: str
    title: str
    series: list
    width: int = 640
    height: int = 420
    x_label: str = ""
    y_label: str = ""


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _ticks(low: float, high: float, count: int = 5) -> list[float]:
    if high <= low:
        high = low + 1.0
    raw_step = (high - low) / count
    magnitude = 10.0 ** math.floor(math.log10(raw_step)) if 0.0 < raw_step < math.inf else 0.0
    if magnitude == 0.0:  # finite values as far apart as -1e308 and 1e308, or an axis narrower than a float step
        raise PlotSpecError(f"plotted values need a y axis from {low!r} to {high!r}, which float ticks cannot divide")
    step = magnitude * min(n for n in (1.0, 2.0, 2.5, 5.0, 10.0) if raw_step / magnitude <= n)
    first = math.ceil(low / step - 1e-9) * step
    ticks = []
    index = 0
    while first + index * step <= high + step * 1e-9:
        ticks.append(round(first + index * step, 10))
        index += 1
    return ticks or [low, high]


class _Canvas:
    """An SVG document with its header, y axis, frame and category labels drawn.

    The y axis runs from ``min(0, low)`` to 5% of that range past ``high``;
    ``centers`` holds the x of each category label and ``y_of`` maps a value
    to its y.
    """

    def __init__(self, spec: PlotSpec, labels: Sequence[str], low: float, high: float):
        self.width = spec.width
        self.height = spec.height
        self.margin_left = 60
        self.margin_right = 20
        self.margin_top = 40
        self.margin_bottom = 55
        self.plot_w = self.width - self.margin_left - self.margin_right
        self.plot_h = self.height - self.margin_top - self.margin_bottom
        self.parts: list[str] = []
        self.parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">'
        )
        self.parts.append(f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>')
        self.parts.append(_text((_fmt(self.width / 2), 22), 15, spec.title))

        self.low = min(0.0, low)
        top = self.low + (high - self.low) * 1.05
        self.span = top - self.low if top > self.low else 1.0
        for tick in _ticks(self.low, self.low + self.span):
            y = self.y_of(tick)
            self.parts.append(_line(self.margin_left - 4, _fmt(y), self.margin_left, _fmt(y)))
            self.parts.append(_text((self.margin_left - 8, _fmt(y + 4)), 10, f"{tick:g}", anchor="end"))

        x0, y0 = self.margin_left, self.margin_top
        x1, y1 = self.margin_left + self.plot_w, self.margin_top + self.plot_h
        self.parts.append(_line(x0, y1, x1, y1))
        self.parts.append(_line(x0, y0, x0, y1))
        if spec.x_label:
            self.parts.append(_text((_fmt((x0 + x1) / 2), self.height - 8), 12, spec.x_label))
        if spec.y_label:
            self.parts.append(_text(f"translate(14,{_fmt((y0 + y1) / 2)}) rotate(-90)", 12, spec.y_label))

        self.centers = [self.margin_left + (i + 0.5) / len(labels) * self.plot_w for i in range(len(labels))]
        for cx, label in zip(self.centers, labels):
            self.parts.append(_text((_fmt(cx), y1 + 16), 10, label))

    def y_of(self, value: float) -> float:
        return self.margin_top + (1.0 - (value - self.low) / self.span) * self.plot_h

    def finish(self) -> str:
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"


def _check_finite(kind: str, values, item) -> None:
    """PlotSpecError unless each of ``values``, the numbers of ``item`` that a plot places, is a finite number."""
    if not all(isinstance(value, Real) and math.isfinite(value) for value in values):
        raise PlotSpecError(f"{kind} values must be finite numbers, got {item!r}")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _line(x1, y1, x2, y2, stroke: str = "#333333", width: int = 1) -> str:
    """A ``<line>`` element; coordinates are ints or ``_fmt`` strings, written as given."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _text(position, size: int, body: str, anchor: str | None = "middle") -> str:
    """A ``<text>`` element of the escaped ``body`` at an ``(x, y)`` pair, or placed by a ``transform`` string."""
    place = f'transform="{position}"' if isinstance(position, str) else f'x="{position[0]}" y="{position[1]}"'
    anchored = "" if anchor is None else f' text-anchor="{anchor}"'
    return f'<text {place} font-size="{size}"{anchored} font-family="sans-serif">{_escape(body)}</text>'


def _render_box_panel(spec: PlotSpec) -> str:
    for item in spec.series:
        if not (isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
                and isinstance(item[1], BoxStats)):
            raise PlotSpecError("box_whisker_panel series items must be (label, BoxStats)")
        _check_finite(spec.kind, astuple(item[1]), item)
    boxes: list[tuple[str, BoxStats]] = spec.series
    canvas = _Canvas(
        spec,
        [label for label, _ in boxes],
        min(b.minimum for _, b in boxes),
        max(b.maximum for _, b in boxes),
    )
    y_of = canvas.y_of
    half_width = min(30.0, canvas.plot_w / (len(boxes) * 4))
    for (label, stats), cx in zip(boxes, canvas.centers):
        top, bottom = y_of(stats.q3), y_of(stats.q1)
        group = [f'<g class="box" data-label="{_escape(label)}">']
        group.append(_line(_fmt(cx), _fmt(y_of(stats.whisker_high)), _fmt(cx), _fmt(top)))
        group.append(_line(_fmt(cx), _fmt(bottom), _fmt(cx), _fmt(y_of(stats.whisker_low))))
        for whisker in (stats.whisker_high, stats.whisker_low):
            y = _fmt(y_of(whisker))
            group.append(_line(_fmt(cx - half_width / 2), y, _fmt(cx + half_width / 2), y))
        group.append(
            f'<rect x="{_fmt(cx - half_width)}" y="{_fmt(top)}" width="{_fmt(2 * half_width)}" '
            f'height="{_fmt(max(bottom - top, 0.5))}" fill="#9ecae1" stroke="#333333" stroke-width="1"/>'
        )
        median = _fmt(y_of(stats.median))
        group.append(_line(_fmt(cx - half_width), median, _fmt(cx + half_width), median, stroke="#d62728", width=2))
        if stats.outlier_count:
            group.append(_text((_fmt(cx), _fmt(y_of(stats.whisker_high) - 6)), 9, f"{stats.outlier_count} outl."))
        group.append("</g>")
        canvas.parts.append("".join(group))
    return canvas.finish()


def _render_median_by_rank(spec: PlotSpec) -> str:
    for item in spec.series:
        if not (isinstance(item, tuple) and len(item) == 3):
            raise PlotSpecError("median_by_rank series items must be (label, rank, median)")
        if not (isinstance(item[0], str) and isinstance(item[1], Real) and isinstance(item[2], Real)):
            raise PlotSpecError(f"median_by_rank items need a text label and numeric rank and median, got {item!r}")
        _check_finite(spec.kind, item[1:], item)
    points = sorted(spec.series, key=lambda item: item[1])
    values = [v for _, _, v in points]
    canvas = _Canvas(spec, [label for label, _, _ in points], min(values), max(values))
    coords = [(cx, canvas.y_of(value)) for cx, value in zip(canvas.centers, values)]
    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
    canvas.parts.append(f'<polyline points="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    for x, y in coords:
        canvas.parts.append(
            f'<circle class="marker" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="#1f77b4"/>'
        )
    return canvas.finish()


def _marker_element(shape_index: int, x: float, y: float, color: str) -> str:
    size = 5.0
    if shape_index == 0:  # triangle
        points = f"{_fmt(x)},{_fmt(y - size)} {_fmt(x - size)},{_fmt(y + size)} {_fmt(x + size)},{_fmt(y + size)}"
        return f'<polygon class="marker" points="{points}" fill="{color}"/>'
    if shape_index == 1:  # square
        return (
            f'<rect class="marker" x="{_fmt(x - size + 1)}" y="{_fmt(y - size + 1)}" '
            f'width="{_fmt(2 * size - 2)}" height="{_fmt(2 * size - 2)}" fill="{color}"/>'
        )
    return f'<circle class="marker" cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{color}"/>'


def _render_ranking_comparison(spec: PlotSpec) -> str:
    label_sets = []
    for item in spec.series:
        if not (isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
                and isinstance(item[1], (list, tuple)) and item[1]):
            raise PlotSpecError("ranking_comparison series items must be (name, [(label, rank), ...])")
        for point in item[1]:
            if not (isinstance(point, tuple) and len(point) == 2 and isinstance(point[0], str)
                    and isinstance(point[1], Real)):
                raise PlotSpecError(f"ranking_comparison points must be (label, number) pairs, got {point!r}")
            _check_finite(spec.kind, point[1:], point)
        label_sets.append({label for label, _ in item[1]})
    if any(labels != label_sets[0] for labels in label_sets[1:]):
        raise PlotSpecError("ranking_comparison series must cover the same labels")
    order = [label for label, _ in sorted(spec.series[0][1], key=lambda item: item[1])]
    all_ranks = [rank for _, points in spec.series for _, rank in points]
    canvas = _Canvas(spec, order, 0.0, max(all_ranks))
    centers = dict(zip(order, canvas.centers))
    for index, (name, points) in enumerate(spec.series):
        color = _MARKER_COLORS[index % len(_MARKER_COLORS)]
        for label, rank in sorted(points, key=lambda item: order.index(item[0])):
            canvas.parts.append(
                _marker_element(index, centers[label], canvas.y_of(rank), color)
            )
        legend_y = canvas.margin_top + 14 * index
        canvas.parts.append(
            _marker_element(index, canvas.margin_left + canvas.plot_w - 110, legend_y, color)
        )
        canvas.parts.append(
            _text((_fmt(canvas.margin_left + canvas.plot_w - 100), _fmt(legend_y + 4)), 10, name, anchor=None)
        )
    return canvas.finish()


_RENDERERS = {
    "box_whisker_panel": _render_box_panel,
    "median_by_rank": _render_median_by_rank,
    "ranking_comparison": _render_ranking_comparison,
}


def render_svg(spec: PlotSpec) -> str:
    """Render a plot spec to a standalone SVG document string."""
    renderer = _RENDERERS.get(spec.kind)
    if renderer is None:
        raise PlotSpecError(f"unknown plot kind {spec.kind!r}")
    if spec.width < 1 or spec.height < 1:
        raise PlotSpecError("plot dimensions must be positive")
    if not spec.series:
        raise PlotSpecError("plot series must be non-empty")
    return renderer(spec)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{_FLOAT_DECIMALS}f}"
    return str(value)


def _table(rows: Sequence[Mapping], columns: Sequence[str]) -> tuple[str, list[dict]]:
    """CSV text of ``rows`` and the same rows cut to ``columns``."""
    blank = '""' if len(columns) == 1 else ""  # csv writes a lone empty cell as "", so its row is no blank line
    lines = [",".join([_delimited_field(_csv_cell(value), ",") for value in values]) or blank
             for values in [columns, *([row.get(column) for column in columns] for row in rows)]]
    return "\n".join(lines) + "\n", [{column: row.get(column) for column in columns} for row in rows]


def emit_tables(rows: Sequence[Mapping], columns: Sequence[str]) -> tuple[str, str]:
    """Render rows as (CSV text, JSON text) with matching 6-decimal numbers."""
    csv_text, cut = _table(rows, columns)
    return csv_text, json_text(cut)


GEOMETRY_COLUMNS = ["verb", "role", *COVERAGE_FIELDS, *(f.name for f in fields(BoxStats))]

# one column per VerbResult field, in field order; the lemma is headed "verb"
ANALYSIS_COLUMNS = ["verb" if f.name == "lemma" else f.name for f in fields(VerbResult)]


def geometry_rows(result: AnalysisResult) -> list[dict]:
    return [
        {"verb": verb, "role": role, **result.geometries[(verb, role)].coverage(),
         **result.boxes[(verb, role)].as_dict()}
        for verb in sorted({verb for verb, _ in result.geometries})
        for role in ROLES
    ]


def geometry_documents(result: AnalysisResult, *, verbose: bool = False) -> tuple[str, str]:
    """Geometry report as (CSV, JSON); verbose adds per-filler distance tables to the JSON."""
    csv_text, rows = _table(geometry_rows(result), GEOMETRY_COLUMNS)
    if verbose:
        for row in rows:
            row["fillers"] = [
                {"lemma": lemma, "distance": distance, "weight": weight}
                for lemma, distance, weight in result.geometries[(row["verb"], row["role"])].filler_distances
            ]
    return csv_text, json_text(rows)


def analysis_rows(result: AnalysisResult) -> list[dict]:
    return [dict(zip(ANALYSIS_COLUMNS, astuple(verb))) for verb in result.verbs]


def _split_obj(split: tuple[float, float] | None) -> dict | None:
    return None if split is None else {"low_half_avg": split[0], "high_half_avg": split[1]}


def analysis_documents(result: AnalysisResult) -> tuple[str, str]:
    """Analysis report as (CSV of per-verb rows, JSON with global statistics)."""
    csv_text, rows = _table(analysis_rows(result), ANALYSIS_COLUMNS)
    document = {
        "verbs": rows,
        "excluded": result.excluded,
        "correlations": {
            "distance_vs_reference": result.distance_correlation and result.distance_correlation.as_dict(),
            "overlap_vs_reference": result.overlap_correlation and result.overlap_correlation.as_dict(),
        },
        "split_half_medians": {
            ROLE_S: _split_obj(result.s_split_half),
            ROLE_O: _split_obj(result.o_split_half),
        },
        "notes": result.notes,
    }
    return csv_text, json_text(document)


def figure_specs(result: AnalysisResult) -> dict[str, PlotSpec]:
    """Plot specs for every output figure, keyed by file suffix."""
    specs: dict[str, PlotSpec] = {}
    verbs = sorted({verb for verb, _ in result.geometries})
    for verb in verbs:
        series = [(role, result.boxes[(verb, role)]) for role in ROLES]
        specs[f"fig1_{verb}"] = PlotSpec(
            kind="box_whisker_panel",
            title=f"Distance of fillers from their centroid: {verb}",
            series=series,
            x_label="argument set",
            y_label="cosine distance from centroid",
        )
    for role, attr in zip(ROLES, ("s_median", "o_median")):
        series = [(v.lemma, v.spontaneity_rank, getattr(v, attr)) for v in result.verbs]
        if series:
            specs[f"fig2_{role}"] = PlotSpec(
                kind="median_by_rank",
                title=f"Median centroid distance in {role} by spontaneity rank",
                series=series,
                x_label="verbs (least to most spontaneous)",
                y_label="median cosine distance",
            )
    if result.verbs:
        reference_series = [(v.lemma, v.reference_rank) for v in result.verbs]
        distance_series = [(v.lemma, v.distance_rank) for v in result.verbs]
        specs["fig3"] = PlotSpec(
            kind="ranking_comparison",
            title="Reference ranking vs centroid-distance ranking",
            series=[("reference", reference_series), ("centroid distance", distance_series)],
            x_label="verbs (reference order)",
            y_label="rank position",
        )
    return specs
