import io
import itertools
import json
import math
import statistics
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy import stats as scipy_stats

from lexsets.analysis import (
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
from lexsets.cli import RunConfig, _load_inventory
from lexsets.corpus import LexicalSet
from lexsets.errors import EmptySetError, InputError, UndefinedCorrelationError
from lexsets.geometry import SetGeometry

from conftest import store_from_text


def geom(vector, verb="v", role="S"):
    return SetGeometry(
        verb_lemma=verb,
        role=role,
        centroid=np.asarray(vector, dtype=float),
        filler_distances=[("x", 0.0, 1)],
        covered_tokens=1,
        oov_tokens=0,
        oov_types=0,
    )


def student_t_two_sided_p(t_value, dof):
    """Independent tail probability via quadrature of the t density."""
    nu = mpmath.mpf(dof)
    coefficient = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
    density = lambda x: coefficient * (1 + x * x / nu) ** (-(nu + 1) / 2)
    tail = mpmath.quad(density, [abs(t_value), mpmath.inf])
    return float(2 * tail)


def chunked_enumeration_pvalue(x_ranks, y_ranks):
    """All n! reorderings of ``y_ranks``, rho compared as floats with a 1e-12 tie slack, in 50,000-row chunks."""
    x_centered = np.asarray(x_ranks, dtype=np.float64) - np.mean(x_ranks)
    y_centered = np.asarray(y_ranks, dtype=np.float64) - np.mean(y_ranks)
    denom = math.sqrt(float(np.dot(x_centered, x_centered)) * float(np.dot(y_centered, y_centered)))
    threshold = abs(float(np.dot(x_centered, y_centered)) / denom) - 1e-12
    extreme = 0
    total = 0
    permutations = itertools.permutations(y_centered.tolist())
    while chunk := list(itertools.islice(permutations, 50_000)):
        rhos = np.asarray(chunk, dtype=np.float64) @ x_centered / denom
        extreme += int(np.count_nonzero(np.abs(rhos) >= threshold))
        total += len(chunk)
    return extreme / total


def enumeration_pvalue(x_ranks, y_ranks):
    """Full n! enumeration with an independent per-permutation Pearson."""
    observed = abs(np.corrcoef(x_ranks, y_ranks)[0, 1])
    count = 0
    total = 0
    for perm in itertools.permutations(y_ranks):
        total += 1
        if abs(np.corrcoef(x_ranks, perm)[0, 1]) >= observed - 1e-12:
            count += 1
    return count / total


# --- centroid_distance ------------------------------------------------------


def test_identical_centroids():
    assert centroid_distance(geom([1.0, 2.0]), geom([1.0, 2.0], role="O")) == 0.0


def test_orthogonal_centroids():
    assert centroid_distance(geom([1, 0]), geom([0, 1], role="O")) == 1.0


def test_hand_computed_centroid_distance():
    # 1 - 24/25
    assert math.isclose(centroid_distance(geom([3, 4]), geom([4, 3], role="O")), 0.04, abs_tol=1e-15)


def test_centroid_distance_symmetric_and_scale_invariant():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        c = float(rng.uniform(0.1, 10))
        d = centroid_distance(geom(a), geom(b, role="O"))
        assert centroid_distance(geom(b), geom(a, role="O")) == d
        assert math.isclose(centroid_distance(geom(c * a), geom(b, role="O")), d, abs_tol=1e-9)


# --- weighted_overlap ---------------------------------------------------------


def brute_force_overlap(s_counts, o_counts):
    intersection = Counter(s_counts) & Counter(o_counts)
    union = Counter(s_counts) | Counter(o_counts)
    return sum(intersection.values()) / sum(union.values())


def test_identical_multisets_overlap_fully():
    s = LexicalSet("v", "S", {"a": 2, "b": 3})
    o = LexicalSet("v", "O", {"a": 2, "b": 3})
    assert weighted_overlap(s, o) == 1.0


def test_disjoint_supports():
    s = LexicalSet("v", "S", {"a": 2})
    o = LexicalSet("v", "O", {"b": 5})
    assert weighted_overlap(s, o) == 0.0


def test_hand_computed_overlap():
    s = LexicalSet("v", "S", {"a": 2, "b": 1})
    o = LexicalSet("v", "O", {"a": 1, "c": 1})
    assert weighted_overlap(s, o) == 0.25


def test_both_empty_rejected():
    with pytest.raises(EmptySetError):
        weighted_overlap(LexicalSet("v", "S", {}), LexicalSet("v", "O", {}))


def test_overlap_oracle_symmetry_and_scaling():
    rng = np.random.default_rng(41)
    lemmas = list("abcdefgh")
    for _ in range(500):
        s_counts = {l: int(c) for l, c in zip(lemmas, rng.integers(0, 5, size=8)) if c > 0}
        o_counts = {l: int(c) for l, c in zip(lemmas, rng.integers(0, 5, size=8)) if c > 0}
        if not s_counts and not o_counts:
            continue
        s = LexicalSet("v", "S", s_counts)
        o = LexicalSet("v", "O", o_counts)
        value = weighted_overlap(s, o)
        assert value == brute_force_overlap(s_counts, o_counts)
        assert value == weighted_overlap(
            LexicalSet("v", "S", o_counts), LexicalSet("v", "O", s_counts)
        )
        assert (value == 1.0) == (s_counts == o_counts)
        tripled_s = LexicalSet("v", "S", {l: 3 * c for l, c in s_counts.items()})
        tripled_o = LexicalSet("v", "O", {l: 3 * c for l, c in o_counts.items()})
        assert weighted_overlap(tripled_s, tripled_o) == value


# --- rank_values ----------------------------------------------------------------


def test_ascending_ranks():
    assert rank_values([("a", 10), ("b", 20), ("c", 30)]) == {"a": 1.0, "b": 2.0, "c": 3.0}


def test_tied_values_share_average_rank():
    assert rank_values([("a", 10), ("b", 10), ("c", 30)]) == {"a": 1.5, "b": 1.5, "c": 3.0}


def test_descending_ranks():
    assert rank_values([("a", 10), ("b", 20), ("c", 30)], "descending") == {
        "a": 3.0,
        "b": 2.0,
        "c": 1.0,
    }


def test_rank_values_rejects_bad_input():
    with pytest.raises(InputError):
        rank_values([])
    with pytest.raises(ValueError):
        rank_values([("a", 1)], "sideways")
    with pytest.raises(InputError):
        rank_values([("a", float("nan"))])


@pytest.mark.parametrize("direction", ["ascending", "descending"])
def test_rank_values_match_scipy_average_ranks(direction):
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        values = (rng.integers(-4, 5, size=n) / 2).tolist()
        ranks = rank_values(list(enumerate(values)), direction)
        signed = np.asarray(values) if direction == "ascending" else -np.asarray(values)
        assert [ranks[i] for i in range(n)] == scipy_stats.rankdata(signed, method="average").tolist()


def test_monotone_transform_leaves_ranks_unchanged():
    rng = np.random.default_rng(43)
    for _ in range(100):
        values = [int(v) for v in rng.integers(-10, 10, size=8)]
        pairs = list(enumerate(values))
        transformed = [(k, v**3) for k, v in pairs]  # strictly increasing on ints
        assert rank_values(pairs) == rank_values(transformed)


# --- spearman --------------------------------------------------------------------


def ranks_of(values):
    return rank_values(list(enumerate(values)))


def test_identical_rankings_give_exactly_one():
    x = ranks_of([3, 1, 4, 1, 5])
    result = spearman(ranks_of([10, 20, 30, 40, 50]), ranks_of([10, 20, 30, 40, 50]))
    assert result.rho == 1.0


def test_reversed_rankings_give_exactly_minus_one():
    x = ranks_of([1, 2, 3, 4, 5])
    y = ranks_of([5, 4, 3, 2, 1])
    assert spearman(x, y).rho == -1.0


def test_hand_computed_rho():
    # 1 - 6 * sum(d^2) / (n (n^2-1)) with d = (0, 1, 1) -> 0.5
    x = {"a": 1.0, "b": 2.0, "c": 3.0}
    y = {"a": 1.0, "b": 3.0, "c": 2.0}
    result = spearman(x, y)
    assert math.isclose(result.rho, 0.5, abs_tol=1e-15)
    assert result.method == "exact_permutation"
    assert result.n == 3


def test_key_mismatch_rejected():
    with pytest.raises(InputError):
        spearman({"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 2, "d": 3})


def test_too_few_keys_rejected():
    with pytest.raises(InputError):
        spearman({"a": 1, "b": 2}, {"a": 1, "b": 2})


def test_constant_ranks_rejected():
    x = {"a": 1.0, "b": 1.0, "c": 1.0}
    y = {"a": 1.0, "b": 2.0, "c": 3.0}
    with pytest.raises(UndefinedCorrelationError):
        spearman(x, y)


def test_tie_counts_reported():
    x = ranks_of([1, 1, 2, 3])
    y = ranks_of([4, 4, 4, 9])
    result = spearman(x, y)
    assert (result.x_ties, result.y_ties) == (2, 3)


def test_rho_matches_stdlib_pearson_on_tied_ranks():
    rng = np.random.default_rng(47)
    for _ in range(300):
        # small sizes exercise the permutation path, large ones the t path
        n = int(rng.choice([4, 5, 6, 12, 15, 20]))
        x = ranks_of(rng.integers(0, 6, size=n).tolist())
        y = ranks_of(rng.integers(0, 6, size=n).tolist())
        keys = sorted(x)
        x_vec = [x[k] for k in keys]
        y_vec = [y[k] for k in keys]
        if len(set(x_vec)) == 1 or len(set(y_vec)) == 1:
            continue
        expected = statistics.correlation(x_vec, y_vec)
        assert abs(spearman(x, y).rho - expected) < 1e-12


def test_exact_permutation_matches_enumeration():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        x = ranks_of(rng.integers(0, 4, size=n).tolist())
        y = ranks_of(rng.integers(0, 4, size=n).tolist())
        keys = sorted(x)
        x_vec = [x[k] for k in keys]
        y_vec = [y[k] for k in keys]
        if len(set(x_vec)) == 1 or len(set(y_vec)) == 1:
            continue
        result = spearman(x, y)
        assert result.method == "exact_permutation"
        assert result.p_value == enumeration_pvalue(x_vec, y_vec)


@pytest.mark.parametrize(
    "x_values, y_values",
    [
        ([5, 3, 8, 1, 7, 2, 6, 4], [2, 7, 1, 8, 3, 6, 5, 4]),
        ([1, 1, 2, 3, 3, 3, 4, 5], [2, 1, 1, 4, 3, 5, 5, 2]),
        ([9, 4, 1, 7, 3, 8, 2, 6, 5], [3, 9, 4, 1, 6, 2, 8, 5, 7]),
        ([1, 2, 2, 3, 4, 4, 4, 5, 6], [3, 3, 1, 2, 6, 5, 5, 4, 1]),
        ([1, 1, 2, 3, 3, 4, 5, 5, 5, 6], [2, 4, 1, 1, 3, 6, 5, 4, 6, 2]),
    ],
)
def test_exact_permutation_matches_enumeration_up_to_ten(x_values, y_values):
    x, y = ranks_of(x_values), ranks_of(y_values)
    result = spearman(x, y)
    assert result.method == "exact_permutation"
    assert result.p_value == chunked_enumeration_pvalue(list(x.values()), list(y.values()))


@pytest.mark.parametrize(
    "x",
    [
        {"a": 1.25, "b": 2.0, "c": 3.0},
        {"a": 0.5, "b": 2.0, "c": 3.0},
        {"a": 1.0, "b": 2.0, "c": 4.0},
        {"a": 10.0, "b": 20.0, "c": 30.0},
    ],
)
def test_exact_permutation_needs_rank_values(x):
    with pytest.raises(InputError, match="rank values"):
        spearman(x, {"a": 1.0, "b": 2.0, "c": 3.0})


def test_monotone_invariance_through_ranking():
    raw = [3, -1, 4, 1, -5, 9, 2, 6, 5, -3, 8, 7]
    transformed = [v**3 for v in raw]
    other = list(range(len(raw)))
    base = spearman(ranks_of(raw), ranks_of(other))
    moved = spearman(ranks_of(transformed), ranks_of(other))
    assert base.rho == moved.rho
    assert base.p_value == moved.p_value


def test_t_approximation_used_above_ten():
    n = 12
    x = ranks_of(list(range(n)))
    y = ranks_of([1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10])
    result = spearman(x, y)
    assert result.method == "t_approximation"
    t = result.rho * math.sqrt((n - 2) / (1 - result.rho**2))
    assert math.isclose(result.p_value, student_t_two_sided_p(t, n - 2), abs_tol=1e-9)


def test_reported_rho_of_main_experiment_is_significant():
    p = t_approximation_pvalue(0.56391, 20)
    assert p < 0.01
    assert math.isclose(p, 0.0097, abs_tol=0.0005)
    t = 0.56391 * math.sqrt(18 / (1 - 0.56391**2))
    assert math.isclose(p, student_t_two_sided_p(t, 18), abs_tol=1e-9)


def test_reported_rho_of_overlap_variant_is_not_significant():
    p = t_approximation_pvalue(0.42255, 20)
    assert 0.055 <= p <= 0.070


def test_extreme_rho_gives_zero_p():
    assert t_approximation_pvalue(1.0, 20) == 0.0
    assert t_approximation_pvalue(-1.0, 20) == 0.0


# --- inventory -----------------------------------------------------------------


def make_inventory(n=4, reference=None):
    entries = [InventoryEntry(f"g{i}", f"v{i}", i) for i in range(1, n + 1)]
    return VerbInventory(entries=entries, reference_ranking=reference)


def test_inventory_requires_rank_permutation():
    with pytest.raises(InputError):
        VerbInventory(entries=[InventoryEntry("a", "va", 1), InventoryEntry("b", "vb", 3)])


def test_inventory_requires_unique_lemmas():
    with pytest.raises(InputError):
        VerbInventory(entries=[InventoryEntry("a", "va", 1), InventoryEntry("b", "va", 2)])


def test_reference_must_cover_inventory():
    with pytest.raises(InputError):
        make_inventory(3, reference={"v1": 1, "v2": 2})


def test_default_inventory_is_the_twenty_verb_scale():
    inventory = default_inventory()
    assert len(inventory.entries) == 20
    ordered = inventory.ordered_entries()
    assert ordered[0].gloss == "close"
    assert ordered[-1].gloss == "sink"
    assert ordered[7].lemma == "dividere"


def test_load_inventory_and_reference(tmp_path):
    # the route the CLI takes: the inventory and the reference ranking are read from their own files
    (tmp_path / "inventory.json").write_text(json.dumps(
        [
            {"gloss": "close", "lemma": "chiudere", "spontaneity_rank": 1},
            {"gloss": "open", "lemma": "aprire", "spontaneity_rank": 2},
        ]
    ))
    reference_json = json.dumps([{"lemma": "chiudere", "rank": 2}, {"lemma": "aprire", "rank": 1}])
    (tmp_path / "reference.json").write_text(reference_json)
    config = RunConfig(corpus_paths=["corpus.conllu"], vectors_path="vectors.txt",
                       inventory_path=str(tmp_path / "inventory.json"), output_prefix="out/run",
                       reference_ranking_path=str(tmp_path / "reference.json"))
    inventory = _load_inventory(config)
    assert inventory.reference_ranking == {"chiudere": 2.0, "aprire": 1.0}
    assert load_reference_ranking(io.StringIO(reference_json))["aprire"] == 1.0
    with pytest.raises(InputError):
        load_inventory(io.StringIO('{"not": "a list"}'))


@pytest.mark.parametrize(
    "entry",
    [
        {"lemma": "aprire", "rank": True},
        {"lemma": "aprire", "rank": "1"},
        {"lemma": 3, "rank": 1},
        {"lemma": "aprire"},
        1,
        {"lemma": "aprire", "rank": float("nan")},
        {"lemma": "aprire", "rank": float("-inf")},
        {"lemma": "aprire", "rank": 10**400},
    ],
)
def test_reference_ranking_entries_are_not_converted(entry):
    text = json.dumps([{"lemma": "chiudere", "rank": 2}, entry])
    with pytest.raises(InputError, match="reference-ranking entry 2 needs a string lemma and a finite numeric rank"):
        load_reference_ranking(io.StringIO(text))


def test_reference_ranking_rejects_a_repeated_lemma():
    entries = [{"lemma": "chiudere", "rank": 2}, {"lemma": "aprire", "rank": 1}, {"lemma": "chiudere", "rank": 3}]
    text = json.dumps(entries)
    with pytest.raises(InputError, match="reference-ranking entry 3 repeats lemma 'chiudere'"):
        load_reference_ranking(io.StringIO(text))


# --- split-half -------------------------------------------------------------------


def test_split_half_constant_medians():
    assert split_half_median_average([0.5] * 4) == (0.5, 0.5)


def test_split_half_hand_computed():
    low, high = split_half_median_average([0.2, 0.4, 0.6, 0.8])
    assert math.isclose(low, 0.3, abs_tol=1e-15)
    assert math.isclose(high, 0.7, abs_tol=1e-15)


def test_split_half_odd_inventory():
    low, high = split_half_median_average([1.0, 2.0, 3.0, 4.0, 5.0])
    assert low == 1.5  # values 1..2
    assert high == 4.0  # values 3..5


@pytest.mark.parametrize("medians", [[], [0.5]])
def test_split_half_needs_two_values(medians):
    with pytest.raises(InputError, match="at least two verbs"):
        split_half_median_average(medians)


# --- analyze_lexical_sets -----------------------------------------------------------


def small_world():
    store = store_from_text(
        "\n".join(
            [
                "p1 1.0 0.1",
                "p2 0.9 0.2",
                "p3 0.8 0.0",
                "q1 0.1 1.0",
                "q2 0.2 0.9",
                "q3 0.0 0.8",
            ]
        )
        + "\n"
    )
    sets = {}
    for i, verb in enumerate(["v1", "v2", "v3"], start=1):
        sets[(verb, "S")] = LexicalSet(verb, "S", {"p1": i, "p2": 1, "p3": 1})
        sets[(verb, "O")] = LexicalSet(verb, "O", {"q1": 1, "q2": i, "q3": 1})
    inventory = make_inventory(4)  # v4 has no sets at all
    return sets, store, inventory


def test_analyze_reports_exclusions_and_correlations():
    sets, store, inventory = small_world()
    result = analyze_lexical_sets(sets, store, inventory)
    assert [v.lemma for v in result.verbs] == ["v1", "v2", "v3"]
    assert result.excluded == [{"verb": "v4", "reason": "no S fillers extracted"}]
    assert result.distance_correlation is not None
    assert result.distance_correlation.n == 3
    assert result.s_split_half is not None
    assert set(result.geometries) == {(v, r) for v in ("v1", "v2", "v3") for r in ("S", "O")}


def test_analyze_reranks_the_reference_over_the_included_verbs():
    # v4 is excluded; its reference value is the smallest, so ranking all four would give v2 and v3 2.5
    sets, store, _ = small_world()
    inventory = make_inventory(4, reference={"v1": 30.0, "v2": 10.0, "v3": 10.0, "v4": 5.0})
    result = analyze_lexical_sets(sets, store, inventory)
    assert [(v.lemma, v.reference_rank) for v in result.verbs] == [("v1", 3.0), ("v2", 1.5), ("v3", 1.5)]


def test_analyze_excludes_oov_only_sets():
    sets, store, inventory = small_world()
    sets[("v2", "O")] = LexicalSet("v2", "O", {"unknown": 3})
    result = analyze_lexical_sets(sets, store, inventory)
    assert {"verb": "v2", "reason": "no covered fillers (O)"} in result.excluded
    assert [v.lemma for v in result.verbs] == ["v1", "v3"]
    assert [v.reference_rank for v in result.verbs] == [1.0, 2.0]
    assert result.distance_correlation is None
    assert any("fewer than 3" in note for note in result.notes)


def test_analyze_empty_when_everything_excluded():
    store = store_from_text("x 1 0\n")
    result = analyze_lexical_sets({}, store, make_inventory(3))
    assert result.verbs == []
    assert len(result.excluded) == 3
    assert result.distance_correlation is None


def test_analyze_excludes_degenerate_centroids():
    # two opposite vectors with equal weight cancel to a zero centroid
    sets, store, inventory = small_world()
    store = store_from_text("p1 1.0 0.5\np2 -1.0 -0.5\nq1 0.1 1.0\n")
    sets[("v1", "S")] = LexicalSet("v1", "S", {"p1": 1, "p2": 1})
    sets[("v1", "O")] = LexicalSet("v1", "O", {"q1": 1})
    sets[("v2", "S")] = LexicalSet("v2", "S", {"p1": 1})
    sets[("v2", "O")] = LexicalSet("v2", "O", {"q1": 1})
    sets[("v3", "S")] = LexicalSet("v3", "S", {"p2": 1})
    sets[("v3", "O")] = LexicalSet("v3", "O", {"q1": 1})
    result = analyze_lexical_sets(sets, store, inventory)
    assert {"verb": "v1", "reason": "degenerate centroid (S)"} in result.excluded
    assert [v.lemma for v in result.verbs] == ["v2", "v3"]


def test_analyze_counts_distances_above_one():
    store = store_from_text("p1 1.0 0.0\np2 -1.0 0.1\nq1 0.1 1.0\n")
    sets = {
        ("v1", "S"): LexicalSet("v1", "S", {"p1": 3, "p2": 1}),
        ("v1", "O"): LexicalSet("v1", "O", {"q1": 1}),
    }
    result = analyze_lexical_sets(sets, store, make_inventory(1))
    # p2 points away from the S centroid, so its one token exceeds distance 1
    assert result.distances_above_one == 1
