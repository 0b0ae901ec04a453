"""Compare subject and object lexical sets and correlate with verb scales.

Per verb: cosine distance between the S and O centroids and the
count-weighted multiset overlap of the raw sets. Across verbs: rank
correlations against a reference ranking (by default the bundled
spontaneity scale) and split-half averages of the per-set medians.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from .corpus import ROLE_O, ROLE_S, ROLES, LexicalSet
from .embeddings import EmbeddingStore, cosine_distance, cosine_similarity
from .errors import (
    DegenerateVectorError,
    EmptySetError,
    InputError,
    UndefinedCorrelationError,
)
from .geometry import BoxStats, SetGeometry, box_stats, compute_set_geometry
from .inventory import VerbInventory

EXACT_PERMUTATION_MAX_N = 10
RANK_DIRECTIONS = ("ascending", "descending")


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
    1/2 in [1, n]; other values raise :class:`InputError`, as a NaN or
    infinite rank does on either path.
    """
    if set(x) != set(y):
        raise InputError("rankings must cover the same key set")
    keys = sorted(x, key=repr)
    n = len(keys)
    if n < 3:
        raise InputError(f"need at least 3 paired ranks, got {n}")
    x_vals = np.asarray([x[k] for k in keys], dtype=np.float64)
    y_vals = np.asarray([y[k] for k in keys], dtype=np.float64)
    if not (np.all(np.isfinite(x_vals)) and np.all(np.isfinite(y_vals))):
        raise InputError("paired ranks must be finite")
    x_centered = x_vals - x_vals.mean()
    y_centered = y_vals - y_vals.mean()
    if not np.any(x_centered) or not np.any(y_centered):
        raise UndefinedCorrelationError("constant ranks have no defined correlation")
    rho = cosine_similarity(x_centered, y_centered)
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_permutation_pvalue(x_vals, y_vals)
        method = "exact_permutation"
    else:
        p = t_approximation_pvalue(rho, n)
        method = "t_approximation"
    return CorrelationResult(rho=rho, p_value=p, n=n, x_ties=_tie_count(x_vals.tolist()),
                             y_ties=_tie_count(y_vals.tolist()), method=method)


def t_approximation_pvalue(rho: float, n: int) -> float:
    """Two-sided p for rho via t = rho * sqrt((n-2) / (1-rho^2)), df = n-2.

    With tan(theta) = t / sqrt(df), sin(theta) = |rho| and cos(theta)^2 =
    1 - rho^2, so no t value or special function is needed. Abramowitz &
    Stegun 26.7.4 (even df) and 26.7.3 (odd df) give p = 1 - A with
    A = sin(theta) * S or A = (2/pi) * (theta + sin(theta) cos(theta) * S),
    where S sums the first df // 2 terms c_k cos(theta)^(2k), c_0 = 1 and
    c_k = c_{k-1} * (2k - 1 + df % 2) / (2k + df % 2). Summed to infinity
    the series gives A = 1, so where 1 - A < 0.01 the p is instead the
    same prefactor times the terms from k = df // 2 on, which do not
    cancel.
    """
    if n < 3:
        raise InputError(f"t approximation needs n >= 3, got {n}")
    if math.isnan(rho):
        raise InputError("t approximation needs a rho that is a number, got nan")
    sin = abs(rho)
    if sin >= 1.0:
        return 0.0
    cos2 = (1.0 - sin) * (1.0 + sin)
    dof = n - 2
    odd = dof % 2

    def step(term: float, k: int) -> float:
        return term * cos2 * (2 * k + 1 + odd) / (2 * k + 2 + odd)

    head, term = 0.0, 1.0
    for k in range(dof // 2):
        head += term
        term = step(term, k)
    if odd:
        cos = math.sqrt(cos2)
        scale = 2.0 / math.pi * sin * cos
        p = 1.0 - (2.0 / math.pi * math.atan2(sin, cos) + scale * head)
    else:
        scale = sin
        p = 1.0 - scale * head
    if p >= 0.01:
        return p
    tail, k = 0.0, dof // 2
    while term > 1e-17 * tail:
        tail += term
        term = step(term, k)
        k += 1
    return scale * tail


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
) -> AnalysisResult:
    """Run the full verb-level analysis over an extracted database.

    Verbs missing an S or O set, or whose fillers are entirely
    out-of-vocabulary, are excluded from rankings and correlations and
    reported with a reason. Distances rank ascending and overlaps
    descending, aligning small S-O separation (and high overlap) with the
    low end of the scale.
    """
    result = AnalysisResult()

    for entry in inventory.ordered_entries():
        lemma = entry.lemma
        role_geoms: dict[str, SetGeometry] = {}
        reason = None
        for role in ROLES:
            lex_set = sets.get((lemma, role))
            if lex_set is None or not lex_set.counts:
                reason = f"no {role} fillers extracted"
                break
            try:
                role_geoms[role] = compute_set_geometry(lex_set, store)
            except EmptySetError:
                reason = f"no covered fillers ({role})"
                break
            except DegenerateVectorError:  # a filler's vector has zero norm, or the centroid a zero, NaN or inf one
                with np.errstate(over="ignore"):  # a vector too large to square is not a zero one
                    zero = [filler for filler in sorted(lex_set.counts)
                            if (vector := store.lookup(filler)) is not None and vector @ vector == 0]
                reason = f"zero vector for filler {zero[0]!r} ({role})" if zero else f"degenerate centroid ({role})"
                break
        if reason is not None:
            result.excluded.append({"verb": lemma, "reason": reason})
            continue
        s_geom, o_geom = role_geoms[ROLE_S], role_geoms[ROLE_O]
        # cannot raise: compute_set_geometry has rejected each centroid whose c·c is 0, as this call would
        dist = centroid_distance(s_geom, o_geom)
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
    distance_ranks = rank_values([(v.lemma, v.centroid_distance) for v in result.verbs], "ascending")
    overlap_ranks = rank_values([(v.lemma, v.weighted_overlap) for v in result.verbs], "descending")
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
