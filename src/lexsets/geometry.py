"""Frequency-weighted centroids and distance dispersion of lexical sets.

A lexical set maps to a cloud of filler vectors; its centre is the
token-frequency-weighted Euclidean mean, and the spread is summarised by
weighted quantiles of the cosine distances from that centre.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .corpus import LexicalSet
from .embeddings import EmbeddingStore, cosine_distances
from .errors import EmptySetError

#: One row of a distance table: (filler lemma, cosine distance, token count).
DistanceEntry = tuple[str, float, int]

#: Filler rows read from the vector matrix at a time by ``compute_set_geometry``.
BLOCK_ROWS = 512


@dataclass
class SetGeometry:
    verb_lemma: str
    role: str
    centroid: np.ndarray
    filler_distances: list[DistanceEntry]
    covered_tokens: int
    oov_tokens: int
    oov_types: int

    def coverage(self) -> dict[str, int]:
        """This set's ``COVERAGE_FIELDS`` by name, as the geometry table and the analysis manifest report them."""
        return {name: getattr(self, name) for name in COVERAGE_FIELDS}


#: The token and type counts of a ``SetGeometry``: its fields after ``filler_distances``.
COVERAGE_FIELDS = tuple(f.name for f in fields(SetGeometry))[4:]


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus Tukey whiskers (1.5 * IQR fences)."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outlier_count: int

    def as_dict(self) -> dict:
        return asdict(self)


def compute_set_geometry(lex_set: LexicalSet, store: EmbeddingStore) -> SetGeometry:
    """Frequency-weighted centroid of a set and the cosine distance of each filler type from it.

    Fillers are looked up once each, in sorted-lemma order. Each
    in-vocabulary type contributes one distance entry weighted by its
    token count; out-of-vocabulary fillers are tallied, not silently
    dropped. The rows are read from the store's matrix in blocks of
    ``BLOCK_ROWS``, so the working memory does not grow with the set.
    """
    lemmas: list[str] = []
    counts: list[int] = []
    rows: list[int] = []
    oov_tokens = 0
    oov_types = 0
    for lemma in sorted(lex_set.counts):
        count = lex_set.counts[lemma]
        row = store.row_of(lemma)
        if row is None:
            oov_tokens += count
            oov_types += 1
            continue
        lemmas.append(lemma)
        counts.append(count)
        rows.append(row)
    if not rows:
        raise EmptySetError(
            f"no in-vocabulary fillers for verb {lex_set.verb_lemma!r} role {lex_set.role}"
        )
    total = sum(counts)
    index = np.array(rows, dtype=np.intp)
    weights = np.array(counts, dtype=np.float64)
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, len(rows), BLOCK_ROWS)]
    # Row 0 carries the sum so far. numpy sums pairwise only along the
    # fast axis; with at least two columns that is not axis 0, so the
    # rows add strictly in order and the centroid has the bits of
    # `acc += count * vec` over the sorted fillers. The row indices are
    # valid, and mode="clip" lets `take` write straight into its `out`.
    # A sum that overflows is left inf or NaN, without a warning: the
    # distances below then raise DegenerateVectorError for the centroid.
    dimension = store.dimension
    buffer = np.zeros((min(len(rows), BLOCK_ROWS) + 1, max(dimension, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            size = len(index[block])
            weighted = buffer[1: size + 1, :dimension]
            np.take(store.matrix, index[block], axis=0, out=weighted, mode="clip")
            weighted *= weights[block, None]
            buffer[0] = buffer[: size + 1].sum(axis=0)
    centroid = buffer[0, :dimension] / total
    distances = np.empty(len(rows))
    for block in blocks:
        fillers = buffer[: len(index[block]), :dimension]
        np.take(store.matrix, index[block], axis=0, out=fillers, mode="clip")
        distances[block] = cosine_distances(fillers, centroid)
    return SetGeometry(
        verb_lemma=lex_set.verb_lemma,
        role=lex_set.role,
        centroid=centroid,
        filler_distances=list(zip(lemmas, distances.tolist(), counts)),
        covered_tokens=total,
        oov_tokens=oov_tokens,
        oov_types=oov_types,
    )


def weighted_quantile(values: Sequence[tuple[float, float]], q: float) -> float:
    """Lower weighted quantile of (value, weight) pairs.

    Returns the smallest value v such that the cumulative weight of items
    <= v reaches q times the total weight; q=0 gives the minimum and q=1
    the maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
    if len(values) == 0:
        raise EmptySetError("weighted quantile of an empty list")
    data = np.asarray([v for v, _ in values], dtype=np.float64)
    weights = np.asarray([w for _, w in values], dtype=np.float64)
    (value,) = _lower_quantiles(data, weights, (q,))
    return value


def _lower_quantiles(data: np.ndarray, weights: np.ndarray, fractions: Sequence[float]) -> list[float]:
    """``weighted_quantile`` at each fraction, from one sort of the values."""
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    order = np.argsort(data, kind="stable")
    data = data[order]
    cumulative = np.cumsum(weights[order])
    quantiles = []
    for q in fractions:
        idx = int(np.searchsorted(cumulative, q * cumulative[-1], side="left"))
        quantiles.append(float(data[min(idx, len(data) - 1)]))
    return quantiles


def weighted_box_stats(values: Sequence[float], weights: Sequence[float]) -> BoxStats:
    """Box-and-whisker summary over weighted observations."""
    if len(values) == 0:
        raise EmptySetError("box statistics of an empty list")
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    data = np.asarray(values, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    q1, median, q3 = _lower_quantiles(data, wts, (0.25, 0.5, 0.75))
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = (data >= low_fence) & (data <= high_fence)
    # Fences always capture the quartiles, so `inside` is non-empty.
    whisker_low = float(data[inside].min())
    whisker_high = float(data[inside].max())
    outlier_weight = wts[~inside].sum()
    outlier_count = int(round(float(outlier_weight)))
    return BoxStats(
        minimum=float(data.min()),
        q1=q1,
        median=median,
        q3=q3,
        maximum=float(data.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outlier_count=outlier_count,
    )


def box_stats(geometry: SetGeometry) -> BoxStats:
    """Box statistics of a set's filler distances, weighted by token count."""
    if not geometry.filler_distances:
        raise EmptySetError(
            f"no distances for verb {geometry.verb_lemma!r} role {geometry.role}"
        )
    values = [d for _, d, _ in geometry.filler_distances]
    weights = [w for _, _, w in geometry.filler_distances]
    return weighted_box_stats(values, weights)
