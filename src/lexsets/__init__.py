"""Verb-argument lexical sets: corpus extraction and word-vector geometry.

The pipeline reads dependency-parsed corpora, collects the subject and
object fillers of target verbs into count-weighted lexical sets, embeds
the fillers with a pre-trained word-vector model, and summarises each
set by its frequency-weighted centroid and the dispersion of cosine
distances around it. Verb-level statistics (S-O centroid distance,
multiset overlap) are rank-correlated against a reference verb scale.
"""

from .analysis import (
    AnalysisResult,
    CorrelationResult,
    InventoryEntry,
    VerbInventory,
    analyze_lexical_sets,
    centroid_distance,
    default_inventory,
    load_inventory,
    load_reference_ranking,
    rank_values,
    spearman,
    split_half_median_average,
    t_approximation_pvalue,
    weighted_overlap,
)
from .corpus import (
    ExtractionRules,
    LexicalSet,
    ParseStats,
    Sentence,
    Token,
    count_fillers,
    extract_fillers,
    lexical_sets_from_counts,
    parse_conll,
    passes_length_filter,
    read_database,
    write_database,
    write_database_tsv,
)
from .embeddings import (
    EmbeddingStore,
    cosine_distance,
    cosine_similarity,
    load_text_vectors,
)
from .errors import (
    ConfigError,
    ConllParseError,
    DegenerateVectorError,
    DimensionMismatchError,
    EmptySetError,
    InputError,
    LexsetsError,
    PlotSpecError,
    UndefinedCorrelationError,
    VectorFormatError,
)
from .geometry import (
    BoxStats,
    SetGeometry,
    box_stats,
    compute_set_geometry,
    weighted_box_stats,
    weighted_quantile,
)
from .report import PlotSpec, emit_tables, figure_specs, render_svg

__version__ = "0.1.0"
