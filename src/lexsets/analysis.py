"""Compare subject and object lexical sets and correlate with verb scales.

Per verb: cosine distance between the S and O centroids and the
count-weighted multiset overlap of the raw sets. Across verbs: rank
correlations against a reference ranking (by default the bundled
spontaneity scale) and split-half averages of the per-set medians.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import IO, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import ROLE_O, ROLE_S, LexicalSet
from .embeddings import EmbeddingStore, cosine_distance
from .errors import (
    DegenerateVectorError,
    EmptySetError,
    InputError,
    UndefinedCorrelationError,
)
from .geometry import BoxStats, SetGeometry, box_stats, compute_set_geometry, weighted_quantile

EXACT_PERMUTATION_MAX_N = 10
_RHO_TIE_SLACK = 1e-12


@dataclass(frozen=True)
class InventoryEntry:
    gloss: str
    lemma: str
    spontaneity_rank: int


@dataclass
class VerbInventory:
    """Target verbs ordered on a spontaneity scale (rank 1 = least spontaneous).

    ``reference_ranking`` optionally carries an external ranking (such as
    cross-linguistic frequency ratios) over exactly the same lemmas.
    """

    entries: list[InventoryEntry]
    reference_ranking: dict[str, float] | None = None

    def __post_init__(self):
        if not self.entries:
            raise InputError("inventory has no entries")
        lemmas = [e.lemma for e in self.entries]
        if len(set(lemmas)) != len(lemmas):
            raise InputError("inventory lemmas must be unique")
        ranks = sorted(e.spontaneity_rank for e in self.entries)
        if ranks != list(range(1, len(self.entries) + 1)):
            raise InputError("spontaneity ranks must be a permutation of 1..N")
        if self.reference_ranking is not None:
            if set(self.reference_ranking) != set(lemmas):
                raise InputError("reference ranking must cover exactly the inventory lemmas")

    @property
    def lemmas(self) -> list[str]:
        return [e.lemma for e in self.entries]

    def ordered_entries(self) -> list[InventoryEntry]:
        return sorted(self.entries, key=lambda e: e.spontaneity_rank)

    def spontaneity_ranks(self) -> dict[str, int]:
        return {e.lemma: e.spontaneity_rank for e in self.entries}

    def restricted_to(self, lemmas: Iterable[str]) -> "VerbInventory":
        """Sub-inventory over the given lemmas, ranks renumbered 1..k in order."""
        keep = set(lemmas)
        missing = keep - set(self.lemmas)
        if missing:
            raise InputError(f"lemmas not in inventory: {sorted(missing)}")
        kept = [e for e in self.ordered_entries() if e.lemma in keep]
        entries = [
            InventoryEntry(gloss=e.gloss, lemma=e.lemma, spontaneity_rank=i)
            for i, e in enumerate(kept, start=1)
        ]
        reference = None
        if self.reference_ranking is not None:
            pairs = [(e.lemma, self.reference_ranking[e.lemma]) for e in kept]
            reference = rank_values(pairs, "ascending")
        return VerbInventory(entries=entries, reference_ranking=reference)


def load_inventory(stream: IO[str], reference_stream: IO[str] | None = None) -> VerbInventory:
    """Read an inventory JSON array of {gloss, lemma, spontaneity_rank}."""
    data = json.load(stream)
    if not isinstance(data, list):
        raise InputError("inventory file must be a JSON array")
    try:
        entries = [
            InventoryEntry(
                gloss=str(item["gloss"]),
                lemma=str(item["lemma"]),
                spontaneity_rank=int(item["spontaneity_rank"]),
            )
            for item in data
        ]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed inventory entry: {exc}") from None
    reference = None
    if reference_stream is not None:
        reference = load_reference_ranking(reference_stream)
    return VerbInventory(entries=entries, reference_ranking=reference)


def load_reference_ranking(stream: IO[str]) -> dict[str, float]:
    """Read a reference ranking JSON array of {lemma, rank}."""
    data = json.load(stream)
    if not isinstance(data, list):
        raise InputError("reference ranking file must be a JSON array")
    try:
        return {str(item["lemma"]): float(item["rank"]) for item in data}
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed reference-ranking entry: {exc}") from None


def default_inventory() -> VerbInventory:
    """The bundled 20-verb spontaneity scale with its editorial Italian lemmas."""
    path = resources.files("lexsets.data").joinpath("spontaneity_inventory.json")
    with path.open("r", encoding="utf-8") as stream:
        return load_inventory(stream)


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    p_value: float
    n: int
    tie_counts: tuple[int, int]
    method: str  # "t_approximation" | "exact_permutation"

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "p_value": self.p_value,
            "n": self.n,
            "x_ties": self.tie_counts[0],
            "y_ties": self.tie_counts[1],
            "method": self.method,
        }


def centroid_distance(s_geom: SetGeometry, o_geom: SetGeometry) -> float:
    """Cosine distance between a verb's S centroid and O centroid."""
    return cosine_distance(s_geom.centroid, o_geom.centroid)


def weighted_overlap(s: LexicalSet, o: LexicalSet) -> float:
    """Multiset Jaccard overlap: sum of per-lemma min counts over max counts."""
    if not s.counts and not o.counts:
        raise EmptySetError("overlap of two empty lexical sets is undefined")
    min_sum = 0
    max_sum = 0
    for lemma in set(s.counts) | set(o.counts):
        cs = s.counts.get(lemma, 0)
        co = o.counts.get(lemma, 0)
        min_sum += min(cs, co)
        max_sum += max(cs, co)
    return min_sum / max_sum


def rank_values(
    values: Sequence[tuple[Hashable, float]], direction: str = "ascending"
) -> dict[Hashable, float]:
    """Rank keys 1..n by value; ties share the average of the spanned ranks."""
    if direction not in ("ascending", "descending"):
        raise ValueError(f"direction must be 'ascending' or 'descending', got {direction!r}")
    if not values:
        raise InputError("cannot rank an empty list")
    raw = np.asarray([v for _, v in values], dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise InputError("values to rank must be finite")
    from scipy import stats as scipy_stats  # imported here so that extract never loads scipy

    ranks = scipy_stats.rankdata(raw if direction == "ascending" else -raw, method="average")
    return {key: float(rank) for (key, _), rank in zip(values, ranks)}


def _tie_count(values: Sequence[float]) -> int:
    groups = Counter(values)
    return sum(size for size in groups.values() if size > 1)


def _rho_from_centered(x: np.ndarray, y: np.ndarray) -> float:
    denom = math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
    value = float(np.dot(x, y)) / denom
    return max(-1.0, min(1.0, value))


def _exact_permutation_pvalue(x_centered: np.ndarray, y_centered: np.ndarray, observed: float) -> float:
    """Two-sided p over all n! reorderings of the second rank vector."""
    n = len(x_centered)
    denom = math.sqrt(float(np.dot(x_centered, x_centered)) * float(np.dot(y_centered, y_centered)))
    threshold = abs(observed) - _RHO_TIE_SLACK
    extreme = 0
    total = 0
    chunk: list[tuple[float, ...]] = []

    def flush(chunk: list) -> int:
        arr = np.asarray(chunk, dtype=np.float64)
        rhos = arr @ x_centered / denom
        return int(np.count_nonzero(np.abs(rhos) >= threshold))

    for perm in itertools.permutations(y_centered.tolist()):
        chunk.append(perm)
        if len(chunk) == 50_000:
            extreme += flush(chunk)
            total += len(chunk)
            chunk = []
    if chunk:
        extreme += flush(chunk)
        total += len(chunk)
    return extreme / total


def spearman(x: Mapping[Hashable, float], y: Mapping[Hashable, float]) -> CorrelationResult:
    """Spearman's rho between two rankings over the same keys.

    rho is the Pearson correlation of the rank vectors (exact under
    ties). The two-sided p-value is an exact permutation count for
    n <= 10 and the Student-t approximation above that.
    """
    if set(x) != set(y):
        raise InputError("rankings must cover the same key set")
    keys = sorted(x, key=repr)
    n = len(keys)
    if n < 3:
        raise InputError(f"need at least 3 paired ranks, got {n}")
    x_vals = np.asarray([x[k] for k in keys], dtype=np.float64)
    y_vals = np.asarray([y[k] for k in keys], dtype=np.float64)
    x_centered = x_vals - x_vals.mean()
    y_centered = y_vals - y_vals.mean()
    if not np.any(x_centered) or not np.any(y_centered):
        raise UndefinedCorrelationError("constant ranks have no defined correlation")
    rho = _rho_from_centered(x_centered, y_centered)
    ties = (_tie_count(x_vals.tolist()), _tie_count(y_vals.tolist()))
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_permutation_pvalue(x_centered, y_centered, rho)
        method = "exact_permutation"
    else:
        p = t_approximation_pvalue(rho, n)
        method = "t_approximation"
    return CorrelationResult(rho=rho, p_value=p, n=n, tie_counts=ties, method=method)


def t_approximation_pvalue(rho: float, n: int) -> float:
    """Two-sided p for rho via t = rho * sqrt((n-2) / (1-rho^2)), df = n-2."""
    if n < 3:
        raise InputError(f"t approximation needs n >= 3, got {n}")
    if abs(rho) >= 1.0:
        return 0.0
    from scipy import stats as scipy_stats

    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(scipy_stats.t.sf(abs(t), n - 2))
    return min(1.0, p)


def split_half_median_average(
    inventory: VerbInventory, medians: Mapping[str, float], role_label: str
) -> tuple[float, float]:
    """Mean of per-verb medians over the low and high halves of the scale.

    The low half covers spontaneity ranks 1..floor(N/2), the high half
    the rest.
    """
    ordered = inventory.ordered_entries()
    values = []
    for entry in ordered:
        if entry.lemma not in medians:
            raise InputError(f"no {role_label} median for inventory verb {entry.lemma!r}")
        values.append(medians[entry.lemma])
    half = len(ordered) // 2
    if half == 0 or half == len(ordered):
        raise InputError("split-half averages need at least two verbs")
    low = sum(values[:half]) / half
    high = sum(values[half:]) / (len(values) - half)
    return low, high


@dataclass
class VerbResult:
    """Per-verb summary row of the analysis report."""

    lemma: str
    gloss: str
    spontaneity_rank: int
    s_median: float
    o_median: float
    centroid_distance: float
    weighted_overlap: float
    reference_rank: float
    distance_rank: float
    overlap_rank: float


@dataclass
class AnalysisResult:
    verbs: list[VerbResult] = field(default_factory=list)
    excluded: list[dict] = field(default_factory=list)
    distance_correlation: CorrelationResult | None = None
    overlap_correlation: CorrelationResult | None = None
    s_split_half: tuple[float, float] | None = None
    o_split_half: tuple[float, float] | None = None
    geometries: dict[tuple[str, str], SetGeometry] = field(default_factory=dict)
    boxes: dict[tuple[str, str], BoxStats] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    # cosine distance exceeds 1 only for fillers with negative similarity
    # to their centroid; worth surfacing, so tallied by token weight
    distances_above_one: int = 0


def _median_distance(geometry: SetGeometry) -> float:
    pairs = [(d, w) for _, d, w in geometry.filler_distances]
    return weighted_quantile(pairs, 0.5)


def analyze_lexical_sets(
    sets: Mapping[tuple[str, str], LexicalSet],
    store: EmbeddingStore,
    inventory: VerbInventory,
    *,
    distance_rank_direction: str = "ascending",
    overlap_rank_direction: str = "descending",
) -> AnalysisResult:
    """Run the full verb-level analysis over an extracted database.

    Verbs missing an S or O set, or whose fillers are entirely
    out-of-vocabulary, are excluded from rankings and correlations and
    reported with a reason. Rank directions default to aligning small
    S-O separation (and high overlap) with the low end of the scale.
    """
    result = AnalysisResult()
    per_verb: dict[str, dict] = {}

    for entry in inventory.ordered_entries():
        lemma = entry.lemma
        role_geoms: dict[str, SetGeometry] = {}
        reason = None
        for role in (ROLE_S, ROLE_O):
            lex_set = sets.get((lemma, role))
            if lex_set is None or not lex_set.counts:
                reason = f"no {role} fillers extracted"
                break
            try:
                role_geoms[role] = compute_set_geometry(lex_set, store)
            except EmptySetError:
                reason = f"no covered fillers ({role})"
                break
            except DegenerateVectorError:
                reason = f"degenerate centroid ({role})"
                break
        if reason is None:
            s_geom, o_geom = role_geoms[ROLE_S], role_geoms[ROLE_O]
            try:
                dist = centroid_distance(s_geom, o_geom)
            except DegenerateVectorError:
                reason = "degenerate centroid"
        if reason is not None:
            result.excluded.append({"verb": lemma, "reason": reason})
            continue
        result.geometries[(lemma, ROLE_S)] = s_geom
        result.geometries[(lemma, ROLE_O)] = o_geom
        result.boxes[(lemma, ROLE_S)] = box_stats(s_geom)
        result.boxes[(lemma, ROLE_O)] = box_stats(o_geom)
        result.distances_above_one += sum(
            weight
            for geometry in (s_geom, o_geom)
            for _, distance, weight in geometry.filler_distances
            if distance > 1.0
        )
        per_verb[lemma] = {
            "entry": entry,
            "s_median": _median_distance(s_geom),
            "o_median": _median_distance(o_geom),
            "distance": dist,
            "overlap": weighted_overlap(sets[(lemma, ROLE_S)], sets[(lemma, ROLE_O)]),
        }

    if not per_verb:
        return result

    included = inventory.restricted_to(per_verb.keys())
    reference_ranks = included.reference_ranking
    if reference_ranks is None:
        reference_ranks = {lemma: float(rank) for lemma, rank in included.spontaneity_ranks().items()}
    distance_ranks = rank_values(
        [(lemma, per_verb[lemma]["distance"]) for lemma in included.lemmas], distance_rank_direction
    )
    overlap_ranks = rank_values(
        [(lemma, per_verb[lemma]["overlap"]) for lemma in included.lemmas], overlap_rank_direction
    )

    for entry in included.ordered_entries():
        info = per_verb[entry.lemma]
        result.verbs.append(
            VerbResult(
                lemma=entry.lemma,
                gloss=entry.gloss,
                spontaneity_rank=info["entry"].spontaneity_rank,
                s_median=info["s_median"],
                o_median=info["o_median"],
                centroid_distance=info["distance"],
                weighted_overlap=info["overlap"],
                reference_rank=reference_ranks[entry.lemma],
                distance_rank=distance_ranks[entry.lemma],
                overlap_rank=overlap_ranks[entry.lemma],
            )
        )

    if len(per_verb) >= 3:
        try:
            result.distance_correlation = spearman(distance_ranks, reference_ranks)
        except UndefinedCorrelationError:
            result.notes.append("distance correlation undefined (constant ranks)")
        try:
            result.overlap_correlation = spearman(overlap_ranks, reference_ranks)
        except UndefinedCorrelationError:
            result.notes.append("overlap correlation undefined (constant ranks)")
    else:
        result.notes.append("fewer than 3 verbs included; correlations skipped")

    if len(per_verb) >= 2:
        s_medians = {lemma: per_verb[lemma]["s_median"] for lemma in per_verb}
        o_medians = {lemma: per_verb[lemma]["o_median"] for lemma in per_verb}
        result.s_split_half = split_half_median_average(included, s_medians, ROLE_S)
        result.o_split_half = split_half_median_average(included, o_medians, ROLE_O)
    else:
        result.notes.append("fewer than 2 verbs included; split-half averages skipped")

    return result
