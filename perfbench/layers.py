"""Per-layer timing of lexsets, recorded from outside the package.

The traced run imports lexsets in process, replaces the public functions
each stage calls with wrappers that record spans (name, start, end,
parent) and counts, and runs ``cmd_extract`` and ``cmd_analyze`` as the
CLI would. Functions called once per sentence (``count_fillers``, each
step of the ``parse_conll`` generator) are folded into one aggregate span
per parent, holding the number of calls and the time spent inside them.
A traced name that no longer exists is recorded as absent, one that
exists but was not called as uncalled; the metrics made from either are
reported as null.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name); aggregated spans fold one span per call into one per parent.
TRACED = (
    ("lexsets.cli", "parse_conll", "corpus.parse_conll"),
    ("lexsets.cli", "count_fillers", "corpus.count_fillers"),
    ("lexsets.cli", "lexical_sets_from_counts", "corpus.lexical_sets_from_counts"),
    ("lexsets.cli", "write_database", "corpus.write_database"),
    ("lexsets.cli", "write_database_tsv", "corpus.write_database_tsv"),
    ("lexsets.cli", "read_database", "corpus.read_database"),
    ("lexsets.cli", "load_text_vectors", "embeddings.load_text_vectors"),
    ("lexsets.cli", "analyze_lexical_sets", "analysis.analyze_lexical_sets"),
    ("lexsets.analysis", "compute_set_geometry", "geometry.compute_set_geometry"),
    ("lexsets.analysis", "box_stats", "geometry.box_stats"),
    ("lexsets.analysis", "spearman", "analysis.spearman"),
    ("lexsets.report", "geometry_documents", "report.geometry_documents"),
    ("lexsets.report", "analysis_documents", "report.analysis_documents"),
    ("lexsets.report", "figure_specs", "report.figure_specs"),
    ("lexsets.report", "render_svg", "report.render_svg"),
)
AGGREGATED = {"corpus.parse_conll", "corpus.count_fillers"}
REPORT_SPANS = ("report.geometry_documents", "report.analysis_documents", "report.figure_specs",
                "report.render_svg")

# Per-layer metric -> the traced names it is made from. A name that is
# absent, or present but never called in a round whose stages succeeded, makes
# the metric null: a 0 from a stage that no longer calls the name is not a measurement.
NEEDS = {
    "corpus.parse_s": ("corpus.parse_conll",),
    "corpus.sentences": ("corpus.parse_conll",),
    "corpus.tokens": ("corpus.parse_conll",),
    "corpus.count_fillers_s": ("corpus.count_fillers",),
    "corpus.filler_records": ("corpus.count_fillers",),
    "corpus.sets_from_counts_s": ("corpus.lexical_sets_from_counts",),
    "corpus.write_database_s": ("corpus.write_database", "corpus.write_database_tsv"),
    "corpus.read_database_s": ("corpus.read_database",),
    "embeddings.load_s": ("embeddings.load_text_vectors",),
    "embeddings.load_rss_mb": ("embeddings.load_text_vectors",),
    "embeddings.rows_held": ("embeddings.load_text_vectors",),
    "embeddings.rows_used": ("analysis.analyze_lexical_sets",),
    "embeddings.rows_used_ratio": ("embeddings.load_text_vectors", "analysis.analyze_lexical_sets"),
    "geometry.compute_set_geometry_s": ("geometry.compute_set_geometry",),
    "geometry.box_stats_s": ("geometry.box_stats",),
    "geometry.filler_types": ("geometry.compute_set_geometry",),
    "analysis.spearman_s": ("analysis.spearman",),
    "analysis.exact_permutation_calls": ("analysis.spearman",),
    "analysis.analyze_lexical_sets_self_s": ("analysis.analyze_lexical_sets",),
    "report.render_s": REPORT_SPANS,
    "report.bytes": REPORT_SPANS,
}


def rss_mb() -> float:
    """Current resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm") as stream:
        pages = int(stream.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _release_freed_memory() -> None:
    """Hand freed heap back to the OS so that a later RSS difference measures new allocations."""
    try:
        import ctypes
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[dict] = []
        self._aggregates: dict[tuple, dict] = {}

    def now(self) -> float:
        """Seconds since this tracer was made."""
        return time.perf_counter() - self.origin

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "start": self.now(), "end": None,
                  "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = self.now()
            self._stack.pop()

    def aggregate(self, name: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        record = self._aggregates.get((name, parent))
        if record is None:
            record = {"id": len(self.spans), "name": name, "start": self.now(), "end": None,
                      "parent": parent, "calls": 0, "busy_s": 0.0}
            self.spans.append(record)
            self._aggregates[(name, parent)] = record
        return record

    def charge(self, record: dict, started: float) -> None:
        record["calls"] += 1
        record["busy_s"] += self.now() - started
        record["end"] = self.now()

    def busy(self, name: str) -> float:
        return sum(s.get("busy_s", s["end"] - s["start"]) for s in self.spans if s["name"] == name)

    def child_busy(self, parent_name: str) -> float:
        parents = {s["id"] for s in self.spans if s["name"] == parent_name}
        return sum(s.get("busy_s", s["end"] - s["start"]) for s in self.spans if s["parent"] in parents)


def _wrap(tracer: Tracer, name: str, function):
    # Only the stages run at one worker are traced, and they start no pool, so
    # no wrapper is ever pickled; were one pickled, its stage would fail as an operation.
    if name == "corpus.parse_conll":
        def traced_parse(*args, **kwargs):
            generator = function(*args, **kwargs)
            record = tracer.aggregate(name)
            while True:
                started = tracer.now()
                try:
                    sentence = next(generator)
                except StopIteration:
                    tracer.charge(record, started)
                    return
                tracer.charge(record, started)
                tracer.counts["corpus.sentences"] += 1
                tracer.counts["corpus.tokens"] += len(sentence.tokens)
                yield sentence
        return traced_parse

    def traced(*args, **kwargs):
        if name in AGGREGATED:
            record = tracer.aggregate(name)
            started = tracer.now()
            result = function(*args, **kwargs)
            tracer.charge(record, started)
        else:
            before = None
            if name == "embeddings.load_text_vectors":
                _release_freed_memory()
                before = rss_mb()
            with tracer.span(name):
                result = function(*args, **kwargs)
            if before is not None:
                tracer.counts["embeddings.load_rss_mb"] += rss_mb() - before
                tracer.counts["embeddings.rows_held"] += len(result)
        _count(tracer, name, result)
        return result
    return traced


def _count(tracer: Tracer, name: str, result) -> None:
    if name == "corpus.count_fillers":
        tracer.counts["corpus.filler_records"] += sum(result.values())
    elif name == "geometry.compute_set_geometry":
        tracer.counts["geometry.filler_types"] += len(result.filler_distances)
    elif name == "analysis.spearman":
        tracer.counts["analysis.exact_permutation_calls"] += result.method == "exact_permutation"
    elif name == "analysis.analyze_lexical_sets":
        tracer.counts["embeddings.rows_used"] += len(
            {lemma for geometry in result.geometries.values() for lemma, _, _ in geometry.filler_distances})
    elif name in ("report.geometry_documents", "report.analysis_documents"):
        tracer.counts["report.bytes"] += sum(len(text.encode("utf-8")) for text in result)
    elif name == "report.render_svg":
        tracer.counts["report.bytes"] += len(result.encode("utf-8"))


@contextmanager
def patched(tracer: Tracer, absent: set[str]):
    """Replace every traced public name that exists; restore them on exit."""
    saved = []
    for module_name, attribute, name in TRACED:
        module = importlib.import_module(module_name)
        function = getattr(module, attribute, None)
        if function is None:
            absent.add(name)
            continue
        saved.append((module, attribute, function))
        setattr(module, attribute, _wrap(tracer, name, function))
    try:
        yield
    finally:
        for module, attribute, function in saved:
            setattr(module, attribute, function)


def layer_metrics(tracer: Tracer, stage_s: dict[str, float], absent: set[str]) -> dict:
    """One round's per-layer values from its spans and counts: every per-layer metric but ``cli.import_s``."""
    counts = tracer.counts
    values = {
        "cli.cmd_extract_s": stage_s["extract"],
        "cli.cmd_extract_w2_s": stage_s["extract_w2"],
        "cli.cmd_analyze_s": stage_s["analyze"],
        "corpus.parse_s": tracer.busy("corpus.parse_conll"),
        "corpus.sentences": counts["corpus.sentences"],
        "corpus.tokens": counts["corpus.tokens"],
        "corpus.count_fillers_s": tracer.busy("corpus.count_fillers"),
        "corpus.filler_records": counts["corpus.filler_records"],
        "corpus.sets_from_counts_s": tracer.busy("corpus.lexical_sets_from_counts"),
        "corpus.write_database_s": tracer.busy("corpus.write_database") + tracer.busy("corpus.write_database_tsv"),
        "corpus.read_database_s": tracer.busy("corpus.read_database"),
        "embeddings.load_s": tracer.busy("embeddings.load_text_vectors"),
        "embeddings.load_rss_mb": counts["embeddings.load_rss_mb"],
        "embeddings.rows_held": counts["embeddings.rows_held"],
        "embeddings.rows_used": counts["embeddings.rows_used"],
        "embeddings.rows_used_ratio": counts["embeddings.rows_used"] / max(counts["embeddings.rows_held"], 1),
        "geometry.compute_set_geometry_s": tracer.busy("geometry.compute_set_geometry"),
        "geometry.box_stats_s": tracer.busy("geometry.box_stats"),
        "geometry.filler_types": counts["geometry.filler_types"],
        "analysis.spearman_s": tracer.busy("analysis.spearman"),
        "analysis.exact_permutation_calls": counts["analysis.exact_permutation_calls"],
        "analysis.analyze_lexical_sets_self_s": (tracer.busy("analysis.analyze_lexical_sets")
                                                 - tracer.child_busy("analysis.analyze_lexical_sets")),
        "report.render_s": sum(tracer.busy(name) for name in REPORT_SPANS),
        "report.bytes": counts["report.bytes"],
    }
    missing = absent | uncalled(tracer)
    for metric, needed in NEEDS.items():
        if missing.intersection(needed):
            values[metric] = None
    return values


def uncalled(tracer: Tracer) -> set[str]:
    """Traced names that recorded no call in this round."""
    called = {span["name"] for span in tracer.spans}
    return {name for _, _, name in TRACED if name not in called}
