"""Verb-argument lexical sets: corpus extraction and word-vector geometry.

The pipeline reads dependency-parsed corpora, collects the subject and
object fillers of target verbs into count-weighted lexical sets, embeds
the fillers with a pre-trained word-vector model, and summarises each
set by its frequency-weighted centroid and the dispersion of cosine
distances around it. Verb-level statistics (S-O centroid distance,
multiset overlap) are rank-correlated against a reference verb scale.

Each public name is imported from its module on first use, so
``import lexsets`` loads no numpy until a name that needs it is used.
"""

from importlib import import_module

# public name -> the module of this package that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("AnalysisResult", "CorrelationResult", "analyze_lexical_sets", "centroid_distance", "rank_values",
         "spearman", "split_half_median_average", "t_approximation_pvalue", "weighted_overlap"),
        "analysis",
    ),
    **dict.fromkeys(
        ("ExtractionRules", "LexicalSet", "ParseStats", "Sentence", "Token", "count_fillers", "extract_fillers",
         "lexical_sets_from_counts", "parse_conll", "read_database", "write_database", "write_database_tsv"),
        "corpus",
    ),
    **dict.fromkeys(("EmbeddingStore", "cosine_distance", "cosine_similarity", "load_text_vectors"), "embeddings"),
    **dict.fromkeys(
        ("ConfigError", "ConllParseError", "DegenerateVectorError", "DimensionMismatchError", "EmptySetError",
         "InputError", "LexsetsError", "PlotSpecError", "UndefinedCorrelationError", "VectorFormatError"),
        "errors",
    ),
    **dict.fromkeys(
        ("BoxStats", "SetGeometry", "box_stats", "compute_set_geometry", "weighted_box_stats", "weighted_quantile"),
        "geometry",
    ),
    **dict.fromkeys(
        ("InventoryEntry", "VerbInventory", "default_inventory", "load_inventory", "load_reference_ranking"),
        "inventory",
    ),
    **dict.fromkeys(("PlotSpec", "emit_tables", "figure_specs", "render_svg"), "report"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
