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
    cosine_distances,
    cosine_similarity,
    load_text_vectors,
)
from lexsets.errors import DegenerateVectorError, DimensionMismatchError, VectorFormatError

from conftest import run_python, store_from_text


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


@pytest.mark.parametrize(
    "text,header_line,message",
    [
        ("3 2\na 1 0\nb 0 1\n", 1, "header declares 3 rows, the file has 2"),  # truncated
        ("2 2\na 1 0\nb 0 1\na 1 0\nb 0 1\n", 1, "header declares 2 rows, the file has 4"),  # concatenated
        ("\n1 2\n\n", 2, "header declares 1 rows, the file has 0"),
    ],
)
@pytest.mark.parametrize("vocabulary", [None, {"a"}])
def test_header_row_count_must_match_the_data_rows(text, header_line, message, vocabulary):
    with pytest.raises(VectorFormatError) as excinfo:
        load_text_vectors(io.StringIO(text), vocabulary=vocabulary)
    assert excinfo.value.reason == message
    assert excinfo.value.line_number == header_line


def test_header_row_count_counts_duplicate_rows():
    store = store_from_text("3 2\na 1 0\na 9 9\nb 0 1\n")
    assert len(store) == 2 and store.duplicates_ignored == 1


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


def test_vocabulary_holds_only_its_words_and_stats_count_the_file():
    text = "6 2\na 1 0\nb 0 1\nc 1 1\nb 9 9\nc 8 8\nd 2 2\n"
    store = load_text_vectors(io.StringIO(text), vocabulary={"a", "c", "zz"})
    assert len(store) == 2
    assert list(store) == ["a", "c"]
    assert "b" not in store and store.lookup("b") is None and store.lookup("zz") is None
    np.testing.assert_array_equal(store.lookup("c"), [1.0, 1.0])
    assert store.matrix.shape == (2, 2)
    full = load_text_vectors(io.StringIO(text))
    assert len(full) == 4
    assert store.stats() == full.stats()
    assert store.stats()["entries"] == 4
    assert store.stats()["duplicates_ignored"] == 2


@pytest.mark.parametrize(
    "row,reason",
    [("b 1 zz", "non-numeric"), ("b nan 1", "non-finite"), ("b 1 -inf", "non-finite"), ("b 1", "components")],
)
def test_unheld_rows_are_still_checked(row, reason):
    text = f"a 1 0\nc 0 1\n{row}\nd 1 1\n"
    with pytest.raises(VectorFormatError, match=reason) as excinfo:
        load_text_vectors(io.StringIO(text), vocabulary={"a"})
    assert excinfo.value.line_number == 3


def test_empty_vocabulary_holds_no_rows():
    store = load_text_vectors(io.StringIO("a 1 0\nb 0 1\n"), vocabulary=set())
    assert len(store) == 0
    assert store.matrix.shape == (0, 2)
    assert store.stats()["entries"] == 2


def test_rows_past_the_first_allocation_are_kept():
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((3000, 3))
    text = "".join(f"w{i} " + " ".join(repr(float(x)) for x in vec) + "\n" for i, vec in enumerate(vectors))
    store = load_text_vectors(io.StringIO(text))
    assert len(store) == 3000
    assert store.matrix.tobytes() == vectors.tobytes()
    assert store.row_of("w2999") == 2999


def test_lookup_is_a_read_only_view_of_one_matrix():
    store = store_from_text("a 1 0\nb 0 1\n")
    view = store.lookup("b")
    assert np.shares_memory(view, store.matrix)
    assert store.matrix.flags.c_contiguous
    assert not store.matrix.flags.writeable and not view.flags.writeable
    with pytest.raises(ValueError):
        store.matrix[0, 0] = 5.0
    np.testing.assert_array_equal(store.matrix[store.row_of("b")], [0.0, 1.0])


def test_constructor_copies_into_its_own_matrix():
    vec = np.array([1.0, 2.0])
    store = EmbeddingStore(2, {"a": vec})
    vec[0] = 9.0
    np.testing.assert_array_equal(store.lookup("a"), [1.0, 2.0])
    assert store.stats()["entries"] == 1


def test_store_rejects_mismatched_vector_length():
    with pytest.raises(ValueError):
        EmbeddingStore(3, {"a": np.array([1.0, 2.0])})


@pytest.mark.parametrize("component", [math.nan, math.inf, -math.inf])
def test_store_rejects_a_non_finite_component(component):
    with pytest.raises(ValueError, match="vector for 'a' has a non-finite component"):
        EmbeddingStore(2, {"b": [1.0, 0.0], "a": [component, 1.0]})


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
    with pytest.raises(DimensionMismatchError, match=r"vector shapes differ: \(2,\) vs \(3,\)"):
        cosine_similarity((1, 0), (1, 0, 0))


def test_nan_vector_rejected_not_given_distance_zero():
    for u, v in [([math.nan, 1.0], [1.0, 0.0]), ([1.0, 0.0], [math.nan, 1.0])]:
        with pytest.raises(DegenerateVectorError):
            cosine_distance(u, v)
        with pytest.raises(DegenerateVectorError):
            cosine_distances([[1.0, 1.0], u], v)


def test_infinite_vector_rejected_not_given_a_distance():
    for u, v in [([math.inf, 1.0], [-1.0, 0.0]), ([1.0, 0.0], [-math.inf, 0.0]), ([-math.inf, 0.0], [1.0, 1.0])]:
        with pytest.raises(DegenerateVectorError, match="infinite"):
            cosine_distance(u, v)
        with pytest.raises(DegenerateVectorError, match="infinite"):
            cosine_distances([[1.0, 1.0], u], v)


def test_antiparallel_vectors_too_large_to_multiply_are_distance_two():
    assert cosine_distances([[1e200, 1.0]], [-1e200, 0.0]).tolist() == [2.0]
    assert cosine_distance([1e200, 1.0], [-1e200, 0.0]) == 2.0
    assert cosine_distance([1e200, 1e200], [1e200, -1e200]) == 1.0  # a·b would be inf - inf


def test_only_overflowing_rows_are_rescaled():
    rows = np.array([[1.0, 2.0], [1e200, 1.0], [3.0, -1.0], [-1e300, 1e300]])
    v = np.array([-1.0, 0.5])
    distances = cosine_distances(rows, v)
    assert distances[[0, 2]].tobytes() == cosine_distances(rows[[0, 2]], v).tobytes()
    assert distances[1] == cosine_distance([1.0, 1e-200], v)
    assert distances[3] == cosine_distance([-1.0, 1.0], v)


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


@settings(max_examples=300)
@given(st.data())
def test_cosines_of_vectors_too_large_to_square_keep_their_value(data):
    u = data.draw(finite_vectors)
    v = data.draw(arrays(np.float64, len(u), elements=_elements).filter(lambda w: float(np.dot(w, w)) >= 1e-12))
    scale_u, scale_v = (10.0 ** data.draw(st.integers(150, 300)) for _ in range(2))
    similarity = cosine_similarity(u * scale_u, v * scale_v)
    assert -1.0 <= similarity <= 1.0
    assert math.isclose(similarity, cosine_similarity(u, v), abs_tol=1e-9)


def test_cosine_distances_match_one_pair_at_a_time():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((40, 7))
    v = rng.standard_normal(7)
    distances = cosine_distances(rows, v)
    for row, distance in zip(rows, distances):
        assert distance == cosine_distance(row, v)
    np.testing.assert_allclose(cosine_distances([[2.0, 2.0], [0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0]),
                               [1.0 - math.sqrt(2) / 2, 1.0, 2.0], rtol=0, atol=1e-15)


def test_strided_inputs_give_the_bits_of_one_pair_at_a_time():
    matrix = np.random.default_rng(9).standard_normal((40, 600))
    rows, v = matrix[:, ::2], matrix[0, 1::2]
    assert cosine_distances(rows, v).tolist() == [cosine_distance(row.copy(), v.copy()) for row in rows]


def test_cosine_distances_reject_zero_rows_and_bad_shapes():
    with pytest.raises(DegenerateVectorError):
        cosine_distances([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(DegenerateVectorError):
        cosine_distances([[1.0, 0.0]], [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        cosine_distances([[1.0, 0.0]], [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        cosine_distances([1.0, 0.0], [1.0, 0.0])


def test_near_parallel_vectors_stay_clamped():
    rng = np.random.default_rng(11)
    for _ in range(500):
        u = rng.standard_normal(50)
        v = u * (1 + 1e-14) + 1e-15
        assert cosine_similarity(u, v) <= 1.0
        assert cosine_distance(u, v) >= 0.0


# The control ``a @ b`` goes through BLAS; where its bits follow
# OPENBLAS_CORETYPE, numpy's BLAS is a DYNAMIC_ARCH OpenBLAS, and the
# cosines must still give the same bytes under both kernels.
_KERNEL_PROBE = """
from types import SimpleNamespace
import numpy as np
from lexsets.analysis import centroid_distance
from lexsets.embeddings import cosine_distances
rng = np.random.default_rng(31)
rows, v, w = rng.standard_normal((5000, 300)), rng.standard_normal(300), rng.standard_normal(300)
distance = centroid_distance(SimpleNamespace(centroid=v), SimpleNamespace(centroid=w))
for value in (rows @ v, cosine_distances(rows, v), np.float64(distance)):
    print(value.tobytes().hex())
"""


def test_cosines_give_the_same_bytes_under_another_blas_kernel(tmp_path, monkeypatch):
    def probe():
        result = run_python(tmp_path, "-c", _KERNEL_PROBE)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()

    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    control, *default = probe()
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    prescott_control, *prescott = probe()
    if control == prescott_control:
        pytest.skip("a @ b has the same bits under OPENBLAS_CORETYPE=Prescott: no DYNAMIC_ARCH OpenBLAS")
    assert default == prescott
