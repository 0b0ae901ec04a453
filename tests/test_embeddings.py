import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lexsets.embeddings import (
    EmbeddingStore,
    cosine_distance,
    cosine_similarity,
    load_text_vectors,
)
from lexsets.errors import DegenerateVectorError, DimensionMismatchError, VectorFormatError

from conftest import store_from_text


# --- loader ---------------------------------------------------------------


def test_load_with_header():
    store = store_from_text("2 3\na 1 0 0\nb 0 1 0\n")
    assert store.dimension == 3
    assert len(store) == 2
    np.testing.assert_array_equal(store.lookup("a"), [1.0, 0.0, 0.0])


def test_load_without_header_infers_dimension():
    store = store_from_text("a 1 0\nb 0 1\n")
    assert store.dimension == 2
    assert len(store) == 2


def test_wrong_component_count_reports_line():
    with pytest.raises(VectorFormatError) as excinfo:
        store_from_text("3 3\na 1 0 0\nc 1 2\n")
    assert excinfo.value.line_number == 3


def test_duplicate_keeps_first_and_counts():
    store = store_from_text("a 1 0\na 9 9\nb 0 1\n")
    assert len(store) == 2
    assert store.duplicates_ignored == 1
    np.testing.assert_array_equal(store.lookup("a"), [1.0, 0.0])
    assert store.stats()["duplicates_ignored"] == 1


@pytest.mark.parametrize("payload", ["a nan 1", "a inf 1", "a 1 x"])
def test_non_finite_or_garbage_component_rejected(payload):
    with pytest.raises(VectorFormatError):
        store_from_text(payload + "\n")


def test_empty_stream_rejected():
    with pytest.raises(VectorFormatError):
        store_from_text("")


def test_lookup_absent_and_case_sensitivity():
    store = store_from_text("chiave 1 0\n")
    assert store.lookup("chiave") is not None
    assert store.lookup("mancante") is None
    assert store.lookup("Chiave") is None
    assert "chiave" in store and "Chiave" not in store


def test_vectors_are_read_only():
    store = store_from_text("a 1 0\n")
    with pytest.raises(ValueError):
        store.lookup("a")[0] = 5.0


def test_save_load_roundtrip_is_exact():
    store = store_from_text("a 0.123456789012345 -1e-7\nb 3.0 4.0\nc 0.1 2.5e-300\n")
    text = f"{len(store)} {store.dimension}\n" + "".join(
        word + " " + " ".join(repr(float(x)) for x in store.lookup(word)) + "\n" for word in store
    )
    reloaded = load_text_vectors(io.StringIO(text))
    assert len(reloaded) == len(store)
    for word in store:
        np.testing.assert_array_equal(reloaded.lookup(word), store.lookup(word))


def test_store_rejects_mismatched_vector_length():
    with pytest.raises(ValueError):
        EmbeddingStore(3, {"a": np.array([1.0, 2.0])})


# --- cosine metrics -------------------------------------------------------


def test_similarity_of_identical_direction():
    assert cosine_similarity((1, 0), (1, 0)) == 1.0


def test_similarity_of_orthogonal_vectors():
    assert cosine_similarity((1, 0), (0, 1)) == 0.0


def test_similarity_hand_computed():
    # dot = 24, norms 5 * 5
    assert math.isclose(cosine_similarity((3, 4), (4, 3)), 0.96, abs_tol=1e-15)


def test_distance_identical_orthogonal_antipodal():
    assert cosine_distance((2, 2), (2, 2)) == 0.0
    assert cosine_distance((1, 0), (0, 1)) == 1.0
    assert cosine_distance((1, 0), (-1, 0)) == 2.0


def test_zero_norm_rejected():
    with pytest.raises(DegenerateVectorError):
        cosine_similarity((0, 0), (1, 0))


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        cosine_similarity((1, 0), (1, 0, 0))


_elements = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

finite_vectors = arrays(
    np.float64, st.integers(min_value=1, max_value=8), elements=_elements
).filter(lambda v: float(np.dot(v, v)) >= 1e-12)


@settings(max_examples=300)
@given(st.data())
def test_cosine_properties(data):
    u = data.draw(finite_vectors)
    v = data.draw(
        arrays(np.float64, len(u), elements=_elements).filter(
            lambda w: float(np.dot(w, w)) >= 1e-12
        )
    )
    scale = data.draw(st.floats(min_value=1e-3, max_value=1e3))
    d = cosine_distance(u, v)
    assert cosine_distance(v, u) == d
    assert 0.0 <= d <= 2.0
    assert -1.0 <= cosine_similarity(u, v) <= 1.0
    assert math.isclose(cosine_distance(u, scale * v), d, abs_tol=1e-9)


def test_near_parallel_vectors_stay_clamped():
    rng = np.random.default_rng(11)
    for _ in range(500):
        u = rng.standard_normal(50)
        v = u * (1 + 1e-14) + 1e-15
        assert cosine_similarity(u, v) <= 1.0
        assert cosine_distance(u, v) >= 0.0
