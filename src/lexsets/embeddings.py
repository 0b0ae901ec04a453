"""Word-vector store: text-format loading, lookup, cosine metrics."""

from __future__ import annotations

from itertools import islice
from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

from .errors import DegenerateVectorError, DimensionMismatchError, VectorFormatError

#: Data lines after the first that ``load_text_vectors`` hands to numpy's text reader at a time.
BLOCK_LINES = 512


class EmbeddingStore:
    """Immutable word -> vector mapping with a fixed dimension.

    The vectors are the rows of one C-contiguous, read-only float64
    ``matrix``; ``row_of`` gives a word's row and ``lookup`` a read-only
    view of it. Safe for concurrent reads.
    """

    def __init__(self, dimension: int, vectors: Mapping[str, np.ndarray], metadata: str = "",
                 duplicates_ignored: int = 0):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        matrix = np.empty((len(vectors), dimension), dtype=np.float64)
        for row, (word, vec) in enumerate(vectors.items()):
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dimension,):
                raise ValueError(f"vector for {word!r} has shape {arr.shape}, expected ({dimension},)")
            matrix[row] = arr
        rows = {word: row for row, word in enumerate(vectors)}
        self._hold(matrix, rows, metadata, duplicates_ignored, len(vectors))

    @classmethod
    def _of_rows(cls, matrix: np.ndarray, rows: dict[str, int], metadata: str, duplicates_ignored: int,
                 entries: int) -> "EmbeddingStore":
        """A store over ``matrix`` itself, without copying it."""
        store = cls.__new__(cls)
        store._hold(matrix, rows, metadata, duplicates_ignored, entries)
        return store

    def _hold(self, matrix: np.ndarray, rows: dict[str, int], metadata: str, duplicates_ignored: int,
              entries: int) -> None:
        matrix.flags.writeable = False
        self.matrix = matrix
        self.dimension = matrix.shape[1]
        self.metadata = metadata
        self.duplicates_ignored = duplicates_ignored
        self._rows = rows
        self._entries = entries

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
            "metadata": self.metadata,
        }


def load_text_vectors(stream: Iterable[str], *, metadata: str = "",
                      vocabulary: Collection[str] | None = None) -> EmbeddingStore:
    """Load the conventional text vector format.

    An optional first line ``count dimension`` declares the shape, and
    the number of data lines must then equal ``count``; otherwise the
    dimension is inferred from the first data line. Each data line is a
    word followed by whitespace-separated decimals.
    Duplicate words keep the first occurrence and bump a warning count.

    With a ``vocabulary``, only the rows of its words are held. Every
    row is still checked, so a malformed row raises whether or not it is
    held, and ``stats()`` describes the whole stream.

    After the first data line, the lines are read in blocks of
    ``BLOCK_LINES`` and each block is parsed by numpy's text reader. A
    block the reader refuses, or whose values are not all finite, is
    read again one row at a time, which accepts every spelling
    ``float()`` does and raises the error of its first bad line.
    """
    reader = _VectorReader(vocabulary)
    lines = iter(stream)
    line_number = 0
    for raw_line in lines:
        line_number += 1
        reader.take_line(raw_line, line_number)
        if reader.data_rows:
            break
    while block := list(islice(lines, BLOCK_LINES)):
        if not reader.take_block(block):
            for offset, raw_line in enumerate(block, start=1):
                reader.take_line(raw_line, line_number + offset)
        line_number += len(block)
    return reader.store(metadata, line_number)


class _VectorReader:
    """The state of one ``load_text_vectors`` pass: the rows held so far and the counts of the stream."""

    def __init__(self, vocabulary: Collection[str] | None):
        self.vocabulary = vocabulary
        self.dimension: int | None = None
        self.declared: tuple[int, int] | None = None  # (row count, line number) of the header
        self.data_rows = 0
        self.matrix: np.ndarray | None = None
        self.rows: dict[str, int] = {}
        self.unheld: set[str] = set()
        self.duplicates = 0

    def take_line(self, raw_line: str, line_number: int) -> None:
        """Check one line and hold its row if the word is new and wanted; the checker of record."""
        line = raw_line.strip()
        if not line:
            return
        parts = line.split()
        if not self.data_rows and self.dimension is None and len(parts) == 2:
            try:
                declared_count, declared_dim = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if declared_dim < 1 or declared_count < 0:
                    raise VectorFormatError("header must declare positive dimensions", line_number)
                self.dimension = declared_dim
                self.declared = (declared_count, line_number)
                return
        self.data_rows += 1
        word, components = parts[0], parts[1:]
        if self.dimension is None:
            if not components:
                raise VectorFormatError("first data line has no vector components", line_number)
            self.dimension = len(components)
        dimension = self.dimension
        if len(components) != dimension:
            raise VectorFormatError(
                f"expected {dimension} components for {word!r}, got {len(components)}", line_number
            )
        # Every row is parsed into the next free row of the matrix, which
        # it keeps only if the word is new and wanted. The resizes below
        # and in `take_block` skip numpy's reference check: the only
        # views are `values` of earlier rows, never read after a resize.
        held = len(self.rows)
        if self.matrix is None:
            self.matrix = np.empty((1024 if self.vocabulary is None else len(self.vocabulary) + 1, dimension))
        elif held == len(self.matrix):
            self.matrix.resize((2 * held, dimension), refcheck=False)
        values = self.matrix[held]
        try:
            values[:] = components
        except ValueError:
            raise VectorFormatError(f"non-numeric vector component in {components!r}", line_number) from None
        if not np.isfinite(values).all():
            raise VectorFormatError("non-finite vector component", line_number)
        self._count(word)

    def take_block(self, block: list[str]) -> bool:
        """Take a block of data lines through numpy's text reader, or return False and change nothing.

        The block is refused when a row has no components or an embedded
        line break, when the reader raises, or when the values are not a
        ``(rows, dimension)`` array of finite numbers. For ASCII tokens
        the reader and ``float()`` both convert with CPython's
        ``PyOS_string_to_double``, so an accepted block has the bits the
        per-line check gives it.
        """
        words: list[str] = []
        rests: list[str] = []
        for raw_line in block:
            parts = raw_line.strip().split(None, 1)
            if not parts:
                continue
            # The reader skips empty lines and ends a line at "\r" or
            # "\n", so a word-only row or an embedded break must not reach it.
            if len(parts) == 1 or "\r" in parts[1] or "\n" in parts[1]:
                return False
            words.append(parts[0])
            rests.append(parts[1])
        if not rests:
            return True
        try:
            values = np.loadtxt(rests, dtype=np.float64, comments=None, quotechar=None, ndmin=2)
        except ValueError:
            return False
        if values.shape != (len(rests), self.dimension) or not np.isfinite(values).all():
            return False
        first = len(self.rows)
        kept = [index for index, word in enumerate(words) if self._count(word)]
        self.data_rows += len(words)
        if len(self.rows) > len(self.matrix):
            self.matrix.resize((max(2 * len(self.matrix), len(self.rows)), self.dimension), refcheck=False)
        self.matrix[first: len(self.rows)] = values[kept]
        return True

    def _count(self, word: str) -> bool:
        """Record one data row's word; True when its row is held as the next row of the matrix."""
        if word in self.rows or word in self.unheld:
            self.duplicates += 1
        elif self.vocabulary is None or word in self.vocabulary:
            self.rows[word] = len(self.rows)
            return True
        else:
            self.unheld.add(word)
        return False

    def store(self, metadata: str, line_count: int) -> EmbeddingStore:
        """The store of the rows held, after the last of ``line_count`` lines has been taken."""
        if self.dimension is None:
            raise VectorFormatError("empty vector stream", line_count or None)
        if self.declared is not None and self.declared[0] != self.data_rows:
            raise VectorFormatError(
                f"header declares {self.declared[0]} rows, the file has {self.data_rows}", self.declared[1]
            )
        matrix = self.matrix
        if matrix is None:
            matrix = np.empty((0, self.dimension))
        else:
            matrix.resize((len(self.rows), self.dimension), refcheck=False)
        return EmbeddingStore._of_rows(matrix, self.rows, metadata, self.duplicates,
                                       len(self.rows) + len(self.unheld))


def _as_checked_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return a, b


def _cosine_of_dots(dot_ab, dot_aa, dot_bb):
    """cos from the dot products a·b, a·a and b·b (scalars or arrays of a's), clamped to [-1, 1]."""
    if dot_bb == 0.0 or not np.all(dot_aa):
        raise DegenerateVectorError("cosine is undefined for a zero-norm vector")
    # sqrt of the product keeps cos(u, u) exactly 1; split the square
    # roots only where the product overflows or underflows. Overflow is
    # silent, as in float arithmetic; fmin/fmax clamp the NaN of an
    # overflowed a·b to 1, as min/max on floats do.
    with np.errstate(all="ignore"):
        product = dot_aa * dot_bb
        split = (product == np.inf) | (product == 0.0)
        denominator = np.where(split, np.sqrt(dot_aa) * np.sqrt(dot_bb), np.sqrt(product))
        return np.fmax(-1.0, np.fmin(1.0, dot_ab / denominator))


def cosine_similarity(u, v) -> float:
    """cos(u, v), clamped to [-1, 1] against rounding."""
    a, b = _as_checked_pair(u, v)
    return float(_cosine_of_dots(float(np.dot(a, b)), float(np.dot(a, a)), float(np.dot(b, b))))


def cosine_distance(u, v) -> float:
    """1 - cos(u, v); 0 for identical directions, up to 2 for opposite ones."""
    return 1.0 - cosine_similarity(u, v)


def cosine_distances(rows, v) -> np.ndarray:
    """``cosine_distance(row, v)`` for each row of a 2-d array, from one matrix-vector product.

    Each value may differ from the one-pair function in its last bits,
    since the dot products are summed in a different order.
    """
    a = np.asarray(rows, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")
    with np.errstate(all="ignore"):
        dot_ab, dot_aa = a @ b, np.einsum("ij,ij->i", a, a)
    return 1.0 - _cosine_of_dots(dot_ab, dot_aa, float(np.dot(b, b)))
