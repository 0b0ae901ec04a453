import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsets import geometry as geometry_module
from lexsets.corpus import LexicalSet
from lexsets.embeddings import EmbeddingStore, cosine_distance
from lexsets.errors import DegenerateVectorError, EmptySetError
from lexsets.geometry import (
    BLOCK_ROWS,
    box_stats,
    compute_set_geometry,
    weighted_box_stats,
    weighted_quantile,
)

from conftest import store_from_text


def brute_force_quantile(pairs, q):
    """Smallest value whose cumulative weight of items <= it reaches q * total."""
    total = sum(w for _, w in pairs)
    for value in sorted({v for v, _ in pairs}):
        accumulated = sum(w for v, w in pairs if v <= value)
        if accumulated >= q * total:
            return value
    return max(v for v, _ in pairs)


# --- compute_set_geometry: centroid ----------------------------------------


def coverage(geometry):
    return geometry.covered_tokens, geometry.oov_tokens, geometry.oov_types


def test_single_filler_centroid_is_its_vector():
    store = store_from_text("a 3 -4\n")
    geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 1}), store)
    np.testing.assert_array_equal(geometry.centroid, [3.0, -4.0])
    assert coverage(geometry) == (1, 0, 0)


def test_unweighted_mean():
    store = store_from_text("a 0 2\nb 2 0\n")
    geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 1, "b": 1}), store)
    np.testing.assert_array_equal(geometry.centroid, [1.0, 1.0])


def test_frequency_weighted_mean():
    # (3*1 + 1*5) / 4 = 2 on the first axis
    store = store_from_text("a 1 0\nb 5 0\n")
    geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 3, "b": 1}), store)
    np.testing.assert_array_equal(geometry.centroid, [2.0, 0.0])
    assert coverage(geometry) == (4, 0, 0)


def test_all_oov_raises_naming_the_set():
    store = store_from_text("a 1 0\n")
    with pytest.raises(EmptySetError, match="rompere.*O"):
        compute_set_geometry(LexicalSet("rompere", "O", {"zz": 2}), store)


def test_oov_fillers_are_tallied():
    store = store_from_text("a 1 0\n")
    geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 1, "zz": 5}), store)
    np.testing.assert_array_equal(geometry.centroid, [1.0, 0.0])
    assert coverage(geometry) == (1, 5, 1)


def test_weight_replication_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 101))
        vec = rng.standard_normal(4)
        store_text = "a " + " ".join(repr(float(x)) for x in vec) + "\n"
        store = store_from_text(store_text)
        weighted = compute_set_geometry(LexicalSet("v", "S", {"a": k}), store).centroid
        replicated = np.mean([vec] * k, axis=0)
        np.testing.assert_allclose(weighted, replicated, atol=1e-12)


def test_count_scaling_leaves_centroid_and_quantiles_unchanged():
    store = store_from_text("a 1 0\nb 0 1\nc 1 1\n")
    base = LexicalSet("v", "S", {"a": 1, "b": 2, "c": 3})
    scaled = LexicalSet("v", "S", {"a": 7, "b": 14, "c": 21})
    geom_base = compute_set_geometry(base, store)
    geom_scaled = compute_set_geometry(scaled, store)
    np.testing.assert_allclose(geom_base.centroid, geom_scaled.centroid, atol=1e-15)
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert weighted_quantile(
            [(d, w) for _, d, w in geom_base.filler_distances], q
        ) == weighted_quantile([(d, w) for _, d, w in geom_scaled.filler_distances], q)


# --- compute_set_geometry: distances ----------------------------------------


def test_point_at_its_own_centroid():
    store = store_from_text("a 1 0\n")
    geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 1}), store)
    assert geometry.filler_distances == [("a", 0.0, 1)]
    assert geometry.covered_tokens == 1


def test_symmetric_pair_both_at_45_degrees():
    # centroid (0.5, 0.5)
    store = store_from_text("a 1 0\nb 0 1\n")
    geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 1, "b": 1}), store)
    expected = 1.0 - math.sqrt(2) / 2
    for _, distance, _ in geometry.filler_distances:
        assert math.isclose(distance, expected, abs_tol=1e-12)


def test_distribution_tallies_oov():
    store = store_from_text("a 1 0\n")
    geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 1, "zz": 5}), store)
    assert len(geometry.filler_distances) == 1
    assert geometry.oov_tokens == 5
    assert geometry.oov_types == 1
    assert geometry.covered_tokens == 1


def test_zero_centroid_propagates_degenerate_error():
    # equal counts of opposite vectors put the centroid at the origin
    store = store_from_text("a 1 0\nb -1 0\n")
    with pytest.raises(DegenerateVectorError):
        compute_set_geometry(LexicalSet("v", "S", {"a": 1, "b": 1}), store)


def test_filler_on_centroid_direction_has_zero_distance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vec = rng.standard_normal(6)
        # centroid (vec + 4 * vec) / 2 = 2.5 * vec
        store = store_from_text(
            "a " + " ".join(repr(float(x)) for x in vec) + "\n"
            + "b " + " ".join(repr(float(x)) for x in 4 * vec) + "\n"
        )
        geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 1, "b": 1}), store)
        np.testing.assert_allclose(geometry.centroid, 2.5 * vec, rtol=1e-15)
        assert abs(geometry.filler_distances[0][1]) < 1e-12


def test_zero_norm_filler_raises_degenerate_error():
    store = store_from_text("a 0 0\nb 1 0\n")
    with pytest.raises(DegenerateVectorError):
        compute_set_geometry(LexicalSet("v", "S", {"a": 1, "b": 1}), store)


# --- compute_set_geometry: the blocked pass against one filler at a time ------


def sequential_geometry(lex_set, store):
    """Centroid by `acc += count * vec` in sorted-lemma order, and each distance by `cosine_distance`."""
    acc = np.zeros(store.dimension)
    total = 0
    known = []
    for lemma in sorted(lex_set.counts):
        vec = store.lookup(lemma)
        if vec is not None:
            acc += lex_set.counts[lemma] * vec
            total += lex_set.counts[lemma]
            known.append((lemma, vec))
    centroid = acc / total
    return centroid, [(lemma, cosine_distance(vec, centroid)) for lemma, vec in known]


def assert_matches_sequential(lex_set, store):
    try:
        centroid, distances = sequential_geometry(lex_set, store)
    except DegenerateVectorError:
        with pytest.raises(DegenerateVectorError):
            compute_set_geometry(lex_set, store)
        return
    geometry = compute_set_geometry(lex_set, store)
    assert geometry.centroid.tobytes() == centroid.tobytes()
    assert [lemma for lemma, _, _ in geometry.filler_distances] == [lemma for lemma, _ in distances]
    for (_, blocked, count), (lemma, one_by_one) in zip(geometry.filler_distances, distances):
        assert abs(blocked - one_by_one) <= 1e-15
        assert count == lex_set.counts[lemma]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocked_geometry_matches_one_filler_at_a_time(data):
    block_rows = data.draw(st.sampled_from([1, 2, 3, 8]), label="block_rows")
    dimension = data.draw(st.integers(min_value=1, max_value=4), label="dimension")
    size = data.draw(st.integers(min_value=1, max_value=3 * block_rows + 1), label="size")
    scale = st.floats(min_value=1e-3, max_value=1e3)
    vectors = {}
    for i in range(size):
        vec = np.array(data.draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=dimension,
                                          max_size=dimension)), dtype=np.float64) * data.draw(scale)
        vectors[f"w{i:03d}"] = vec if np.dot(vec, vec) >= 1e-12 else np.ones(dimension)
    counts = {word: data.draw(st.integers(min_value=1, max_value=10_000)) for word in vectors}
    counts["oov"] = 3
    store = EmbeddingStore(dimension, vectors)
    with mock.patch.object(geometry_module, "BLOCK_ROWS", block_rows):
        assert_matches_sequential(LexicalSet("v", "S", counts), store)


def test_blocked_geometry_across_the_block_size():
    rng = np.random.default_rng(17)
    for size in (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5):
        words = [f"w{i:05d}" for i in range(size)]
        store = EmbeddingStore(50, dict(zip(words, rng.standard_normal((size, 50)))))
        counts = dict(zip(words, (int(c) for c in rng.integers(1, 500, size))))
        assert_matches_sequential(LexicalSet("v", "O", counts), store)


# --- weighted_quantile ------------------------------------------------------


def test_singleton_quantiles():
    for q in (0.0, 0.3, 0.5, 1.0):
        assert weighted_quantile([(5.0, 1.0)], q) == 5.0


def test_odd_unweighted_median():
    pairs = [(v, 1.0) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    assert weighted_quantile(pairs, 0.5) == 3.0


def test_weight_dominated_median():
    assert weighted_quantile([(0.2, 3.0), (0.8, 1.0)], 0.5) == 0.2


def test_quantile_extremes():
    pairs = [(3.0, 2.0), (1.0, 1.0), (2.0, 5.0)]
    assert weighted_quantile(pairs, 0.0) == 1.0
    assert weighted_quantile(pairs, 1.0) == 3.0


def test_empty_quantile_raises():
    with pytest.raises(EmptySetError):
        weighted_quantile([], 0.5)


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        weighted_quantile([(1.0, 0.0)], 0.5)


def test_quantile_agrees_with_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        values = rng.choice([0.1, 0.2, 0.5, 0.9, 1.4], size=n)
        weights = rng.integers(1, 6, size=n)
        pairs = [(float(v), float(w)) for v, w in zip(values, weights)]
        q = float(rng.uniform(0, 1))
        assert weighted_quantile(pairs, q) == brute_force_quantile(pairs, q)


def test_quantile_monotonic_in_q():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        pairs = [
            (float(v), float(w))
            for v, w in zip(rng.standard_normal(n), rng.uniform(0.1, 3.0, size=n))
        ]
        qs = sorted(rng.uniform(0, 1, size=4))
        results = [weighted_quantile(pairs, q) for q in qs]
        assert all(a <= b for a, b in zip(results, results[1:]))


# --- box_stats ---------------------------------------------------------------


def test_singleton_box():
    stats = weighted_box_stats([0.4], [3.0])
    assert stats.minimum == stats.q1 == stats.median == stats.q3 == stats.maximum == 0.4
    assert stats.whisker_low == stats.whisker_high == 0.4
    assert stats.outlier_count == 0


def test_unweighted_one_to_five():
    stats = weighted_box_stats([1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5)
    assert (stats.q1, stats.median, stats.q3) == (2.0, 3.0, 4.0)
    assert (stats.minimum, stats.maximum) == (1.0, 5.0)
    assert stats.outlier_count == 0


def test_far_point_is_an_outlier():
    stats = weighted_box_stats([0.1, 10.0], [9.0, 1.0])
    assert stats.outlier_count == 1
    assert stats.whisker_high == 0.1
    assert stats.maximum == 10.0


def test_box_from_set_geometry():
    store = store_from_text("a 1 0\nb 0 1\nc 1 1\n")
    geometry = compute_set_geometry(LexicalSet("v", "S", {"a": 1, "b": 1, "c": 2}), store)
    stats = box_stats(geometry)
    assert stats.minimum <= stats.median <= stats.maximum


def test_box_ordering_invariant_randomized():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 20))
        values = rng.standard_normal(n) * rng.uniform(0.1, 10)
        weights = rng.integers(1, 9, size=n).astype(float)
        s = weighted_box_stats(values.tolist(), weights.tolist())
        assert (
            s.minimum <= s.whisker_low <= s.q1 <= s.median <= s.q3 <= s.whisker_high <= s.maximum
        )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.5, 0.9, 1.4]) | st.floats(-5, 5), st.integers(1, 6)),
        min_size=1,
        max_size=30,
    )
)
def test_box_quartiles_are_three_quantile_calls_bit_for_bit(pairs):
    stats = weighted_box_stats([v for v, _ in pairs], [w for _, w in pairs])
    expected = [weighted_quantile(pairs, q) for q in (0.25, 0.5, 0.75)]
    assert [x.hex() for x in (stats.q1, stats.median, stats.q3)] == [x.hex() for x in expected]
