"""Compare subject and object lexical sets and correlate with verb scales.

Per verb: cosine distance between the S and O centroids and the
count-weighted multiset overlap of the raw sets. Across verbs: rank
correlations against a reference ranking (by default the bundled
spontaneity scale) and split-half averages of the per-set medians.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import IO, Hashable, Mapping, Sequence

import numpy as np

from .corpus import ROLE_O, ROLE_S, LexicalSet
from .embeddings import EmbeddingStore, cosine_distance
from .errors import (
    DegenerateVectorError,
    EmptySetError,
    InputError,
    UndefinedCorrelationError,
)
from .geometry import BoxStats, SetGeometry, box_stats, compute_set_geometry

EXACT_PERMUTATION_MAX_N = 10
RANK_DIRECTIONS = ("ascending", "descending")


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


def load_inventory(stream: IO[str]) -> VerbInventory:
    """Read an inventory JSON array of {gloss, lemma, spontaneity_rank}.

    Values are taken as they are, never converted: InputError names the
    first entry that is not an object with a string gloss, a string
    lemma and a JSON-integer rank. A reference ranking is attached with
    ``VerbInventory(entries, load_reference_ranking(...))``.
    """
    data = json.load(stream)
    if not isinstance(data, list):
        raise InputError("inventory file must be a JSON array")
    entries = []
    for number, item in enumerate(data, start=1):
        values = item if isinstance(item, dict) else {}
        gloss, lemma, rank = values.get("gloss"), values.get("lemma"), values.get("spontaneity_rank")
        # type() rather than isinstance(): JSON true and false load as bools, which are ints
        if not isinstance(gloss, str) or not isinstance(lemma, str) or type(rank) is not int:
            raise InputError(f"inventory entry {number} needs a string gloss, a string lemma and an integer"
                             f" spontaneity_rank, got {item!r}")
        entries.append(InventoryEntry(gloss=gloss, lemma=lemma, spontaneity_rank=rank))
    return VerbInventory(entries=entries)


def load_reference_ranking(stream: IO[str]) -> dict[str, float]:
    """Read a reference ranking JSON array of {lemma, rank}.

    InputError names the first entry that is not an object with a string
    lemma and a finite JSON number (not true or false) as its rank, or
    that repeats a lemma.
    """
    data = json.load(stream)
    if not isinstance(data, list):
        raise InputError("reference ranking file must be a JSON array")
    ranking = {}
    for number, item in enumerate(data, start=1):
        values = item if isinstance(item, dict) else {}
        lemma, rank = values.get("lemma"), values.get("rank")
        # NaN fails both comparisons, and so does an integer too large to convert to a float
        if (not isinstance(lemma, str) or type(rank) not in (int, float)
                or not -sys.float_info.max <= rank <= sys.float_info.max):
            raise InputError(f"reference-ranking entry {number} needs a string lemma and a finite numeric rank,"
                             f" got {item!r}")
        if lemma in ranking:
            raise InputError(f"reference-ranking entry {number} repeats lemma {lemma!r}")
        ranking[lemma] = float(rank)
    return ranking


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
    x_ties: int
    y_ties: int
    method: str  # "t_approximation" | "exact_permutation"

    def as_dict(self) -> dict:
        return asdict(self)


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
    if direction not in RANK_DIRECTIONS:
        raise ValueError(f"direction must be 'ascending' or 'descending', got {direction!r}")
    if not values:
        raise InputError("cannot rank an empty list")
    raw = np.asarray([v for _, v in values], dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise InputError("values to rank must be finite")
    keys = raw if direction == "ascending" else -raw
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # a tie group at sorted positions [start, end) shares the rank (start + 1 + end) / 2
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(keys)]
    ranks = np.empty(len(keys), dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return {key: float(rank) for (key, _), rank in zip(values, ranks)}


def _tie_count(values: Sequence[float]) -> int:
    groups = Counter(values)
    return sum(size for size in groups.values() if size > 1)


def _rho_from_centered(x: np.ndarray, y: np.ndarray) -> float:
    denom = math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
    value = float(np.dot(x, y)) / denom
    return max(-1.0, min(1.0, value))


def _doubled_ranks(values: np.ndarray) -> list[int]:
    """``2 * values`` as integers shifted to start at 0; ``values`` must be rank values of n items."""
    n = len(values)
    doubled = 2.0 * values
    if not np.all((doubled == np.round(doubled)) & (values >= 1.0) & (values <= n)):
        raise InputError(f"the exact permutation p needs rank values: multiples of 1/2 in [1, {n}]")
    integers = doubled.astype(np.int64)
    return (integers - integers.min()).tolist()


def _exact_permutation_pvalue(x_vals: np.ndarray, y_vals: np.ndarray) -> float:
    """Two-sided p: the share of the n! reorderings of ``y_vals`` with |rho| at least the observed one.

    With X = 2x and Y = 2y as integers (a shift of either leaves D
    unchanged), the rho of a reordering pi is proportional to
    D(pi) = n * sum(X_i * Y_pi(i)) - sum(X) * sum(Y). Distinct values of
    |D| are at least 1 / (4n * sqrt(sum(x_centered^2) * sum(y_centered^2)))
    apart in |rho| (about 3e-4 at n = 10), so counting |D| >= |D_obs| is
    exact where a float comparison of rho would need a tie slack.

    The reorderings are counted, not listed: y values are assigned to
    positions 0..n-1 in turn, and each set of used y indices holds the
    number of partial assignments for every partial sum of X_i * Y_j.
    Two set sizes are held at a time, at most C(10, 5) = 252 vectors each.
    """
    n = len(x_vals)
    xs, ys = _doubled_ranks(x_vals), _doubled_ranks(y_vals)
    # no partial sum of a completable assignment exceeds the largest full sum
    width = sum(a * b for a, b in zip(sorted(xs), sorted(ys))) + 1
    layer = {0: np.zeros(width, dtype=np.int64)}
    layer[0][0] = 1
    for x in xs:
        following: dict[int, np.ndarray] = {}
        for used, counts in layer.items():
            for j, y in enumerate(ys):
                if used >> j & 1:
                    continue
                target = following.get(used | 1 << j)
                if target is None:
                    target = following[used | 1 << j] = np.zeros(width, dtype=np.int64)
                shift = x * y
                target[shift:] += counts[: width - shift]
        layer = following
    product_of_sums = sum(xs) * sum(ys)
    observed = abs(n * sum(a * b for a, b in zip(xs, ys)) - product_of_sums)
    deviations = np.abs(n * np.arange(width, dtype=np.int64) - product_of_sums)
    extreme = int(layer[(1 << n) - 1][deviations >= observed].sum())
    return extreme / math.factorial(n)


def spearman(x: Mapping[Hashable, float], y: Mapping[Hashable, float]) -> CorrelationResult:
    """Spearman's rho between two rankings over the same keys.

    rho is the Pearson correlation of the rank vectors (exact under
    ties). The two-sided p-value is an exact permutation count for
    n <= 10 and the Student-t approximation above that. The exact count
    needs rank values, such as :func:`rank_values` returns: multiples of
    1/2 in [1, n]; other values raise :class:`InputError`.
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
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_permutation_pvalue(x_vals, y_vals)
        method = "exact_permutation"
    else:
        p = t_approximation_pvalue(rho, n)
        method = "t_approximation"
    return CorrelationResult(rho=rho, p_value=p, n=n, x_ties=_tie_count(x_vals.tolist()),
                             y_ties=_tie_count(y_vals.tolist()), method=method)


def t_approximation_pvalue(rho: float, n: int) -> float:
    """Two-sided p for rho via t = rho * sqrt((n-2) / (1-rho^2)), df = n-2."""
    if n < 3:
        raise InputError(f"t approximation needs n >= 3, got {n}")
    if abs(rho) >= 1.0:
        return 0.0
    from scipy import special  # imported here so that extract never loads scipy

    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(special.stdtr(n - 2, -abs(t)))
    return min(1.0, p)


def split_half_median_average(medians: Sequence[float]) -> tuple[float, float]:
    """Mean of per-verb medians, given in scale order, over the low and high halves.

    The low half covers the first floor(N/2) values, the high half the
    rest.
    """
    half = len(medians) // 2
    if half == 0:
        raise InputError("split-half averages need at least two verbs")
    low = sum(medians[:half]) / half
    high = sum(medians[half:]) / (len(medians) - half)
    return low, high


@dataclass
class VerbResult:
    """Per-verb summary row of the analysis report, one column per field.

    The three ranks are over the included verbs only, so
    ``analyze_lexical_sets`` fills them in once every verb is measured.
    """

    lemma: str
    gloss: str
    spontaneity_rank: int
    s_median: float
    o_median: float
    centroid_distance: float
    weighted_overlap: float
    reference_rank: float = math.nan
    distance_rank: float = math.nan
    overlap_rank: float = math.nan


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
        s_box = result.boxes[(lemma, ROLE_S)] = box_stats(s_geom)
        o_box = result.boxes[(lemma, ROLE_O)] = box_stats(o_geom)
        result.distances_above_one += sum(
            weight
            for geometry in (s_geom, o_geom)
            for _, distance, weight in geometry.filler_distances
            if distance > 1.0
        )
        result.verbs.append(VerbResult(
            lemma=lemma,
            gloss=entry.gloss,
            spontaneity_rank=entry.spontaneity_rank,
            s_median=s_box.median,
            o_median=o_box.median,
            centroid_distance=dist,
            weighted_overlap=weighted_overlap(sets[(lemma, ROLE_S)], sets[(lemma, ROLE_O)]),
        ))

    if not result.verbs:
        return result

    reference = inventory.reference_ranking
    reference_ranks = rank_values(
        [(v.lemma, v.spontaneity_rank if reference is None else reference[v.lemma]) for v in result.verbs]
    )
    distance_ranks = rank_values([(v.lemma, v.centroid_distance) for v in result.verbs], distance_rank_direction)
    overlap_ranks = rank_values([(v.lemma, v.weighted_overlap) for v in result.verbs], overlap_rank_direction)
    for verb in result.verbs:
        verb.reference_rank = reference_ranks[verb.lemma]
        verb.distance_rank = distance_ranks[verb.lemma]
        verb.overlap_rank = overlap_ranks[verb.lemma]

    if len(result.verbs) >= 3:
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

    if len(result.verbs) >= 2:
        result.s_split_half = split_half_median_average([v.s_median for v in result.verbs])
        result.o_split_half = split_half_median_average([v.o_median for v in result.verbs])
    else:
        result.notes.append("fewer than 2 verbs included; split-half averages skipped")

    return result
