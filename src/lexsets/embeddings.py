"""Word-vector store: lookup and cosine metrics, over the rows that ``lexsets.vectorfile`` reads."""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

from .errors import DegenerateVectorError, DimensionMismatchError
from .vectorfile import _VectorReader


class EmbeddingStore:
    """Immutable word -> vector mapping with a fixed dimension.

    The vectors are the rows of one C-contiguous, read-only float64
    ``matrix``; ``row_of`` gives a word's row and ``lookup`` a read-only
    view of it. Safe for concurrent reads.
    """

    def __init__(self, dimension: int, vectors: Mapping[str, np.ndarray]):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        matrix = np.empty((len(vectors), dimension), dtype=np.float64)
        for row, (word, vec) in enumerate(vectors.items()):
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dimension,):
                raise ValueError(f"vector for {word!r} has shape {arr.shape}, expected ({dimension},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"vector for {word!r} has a non-finite component")
            matrix[row] = arr
        self._hold(matrix, {word: row for row, word in enumerate(vectors)}, 0, len(vectors))

    def _hold(self, matrix: np.ndarray, rows: dict[str, int], duplicates_ignored: int,
              entries: int) -> "EmbeddingStore":
        """Hold ``matrix`` itself as this store's rows, without copying it; return the store."""
        matrix.flags.writeable = False
        self.matrix = matrix
        self.dimension = matrix.shape[1]
        self.duplicates_ignored = duplicates_ignored
        self._rows = rows
        self._entries = entries
        return self

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, word: str) -> bool:
        return word in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def row_of(self, lemma: str) -> int | None:
        """Row of ``matrix`` that holds an exact key, or None when out-of-vocabulary."""
        return self._rows.get(lemma)

    def lookup(self, lemma: str) -> np.ndarray | None:
        """Read-only view of the stored vector for an exact key, or None when out-of-vocabulary."""
        row = self._rows.get(lemma)
        return None if row is None else self.matrix[row]

    def stats(self) -> dict:
        """Shape of the source: ``entries`` and ``duplicates_ignored`` count every word read, held or not."""
        return {
            "dimension": self.dimension,
            "entries": self._entries,
            "duplicates_ignored": self.duplicates_ignored,
        }


def load_text_vectors(stream: Iterable[str], *, vocabulary: Collection[str] | None = None) -> EmbeddingStore:
    """Load the conventional text vector format.

    An optional first line ``count dimension`` declares the shape, and
    the number of data lines must then equal ``count``; otherwise the
    dimension is inferred from the first data line. Each data line is a
    word followed by whitespace-separated decimals.
    Duplicate words keep the first occurrence and bump a warning count.

    With a ``vocabulary``, only the rows of its words are held. Every
    row is still checked, so a malformed row raises whether or not it is
    held, and ``stats()`` describes the whole stream. A ``vocabulary``
    that is a string, whose ``in`` would match substrings, or that is not
    a collection, such as a generator that the first ``in`` would use
    up, is a TypeError.

    After the first data line, the lines are read in blocks of
    ``lexsets.vectorfile.BLOCK_LINES`` and each block is parsed by numpy's text reader. A
    block the reader refuses, or whose values are not all finite, is
    read again one row at a time, which accepts every spelling
    ``float()`` does and raises the error of its first bad line.
    """
    if isinstance(vocabulary, str) or not isinstance(vocabulary, (Collection, type(None))):
        raise TypeError(f"vocabulary must be a collection of words or None, got {vocabulary!r}")
    return EmbeddingStore.__new__(EmbeddingStore)._hold(*_VectorReader(vocabulary).read(stream))


def _cosines(rows, v) -> np.ndarray:
    """cos(row, v) for each row of a 2-d array, clamped to [-1, 1].

    Every cosine in the package comes from here. The dot products a·b,
    a·a and b·b are summed by numpy's einsum loops, never by BLAS, over
    C-contiguous copies, so a row gives the same bits alone or in a
    batch, whichever BLAS kernel numpy has loaded.
    """
    a = np.ascontiguousarray(rows, dtype=np.float64)
    b = np.ascontiguousarray(v, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")
    # A NaN norm, which only a NaN component gives, fails the degenerate
    # test as a zero one. sqrt of the product keeps cos(u, u) exactly 1;
    # the square roots are split only where the product overflows or
    # underflows. fmin/fmax clamp a NaN quotient to 1; the rows it can
    # come from, those whose dot products overflow, are redone below.
    with np.errstate(all="ignore"):
        dot_ab, dot_aa, dot_bb = np.einsum("ij,j->i", a, b), np.einsum("ij,ij->i", a, a), np.einsum("j,j->", b, b)
        if not dot_bb > 0.0 or not np.all(dot_aa > 0.0):
            raise DegenerateVectorError("cosine is undefined for a zero-norm or NaN vector")
        product = dot_aa * dot_bb
        split = (product == np.inf) | (product == 0.0)
        denominator = np.where(split, np.sqrt(dot_aa) * np.sqrt(dot_bb), np.sqrt(product))
        cosines = np.fmax(-1.0, np.fmin(1.0, dot_ab / denominator))
    overflowed = ~(np.isfinite(dot_ab) & np.isfinite(dot_aa) & np.isfinite(dot_bb))
    if overflowed.any():
        # An infinite component gives an infinite a·a or b·b; a finite one
        # too large to square is scaled down, which leaves its cosine as it
        # is: each of these rows, and v, is divided by its largest |component|.
        big = a[overflowed]
        if not (np.isfinite(big).all() and np.isfinite(b).all()):
            raise DegenerateVectorError("cosine is undefined for a vector with an infinite component")
        cosines[overflowed] = _cosines(big / np.abs(big).max(axis=1, keepdims=True), b / np.abs(b).max())
    return cosines


def cosine_similarity(u, v) -> float:
    """cos(u, v), clamped to [-1, 1] against rounding."""
    if np.ndim(u) != 1 or np.shape(u) != np.shape(v):
        raise DimensionMismatchError(f"vector shapes differ: {np.shape(u)} vs {np.shape(v)}")
    return float(_cosines([u], v)[0])


def cosine_distance(u, v) -> float:
    """1 - cos(u, v); 0 for identical directions, up to 2 for opposite ones."""
    return 1.0 - cosine_similarity(u, v)


def cosine_distances(rows, v) -> np.ndarray:
    """``cosine_distance(row, v)`` for each row of a 2-d array, bit for bit."""
    return 1.0 - _cosines(rows, v)
