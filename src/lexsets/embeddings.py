"""Word-vector store: text-format loading, lookup, cosine metrics."""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .errors import DegenerateVectorError, DimensionMismatchError, VectorFormatError


class EmbeddingStore:
    """Immutable word -> vector mapping with a fixed dimension.

    Safe for concurrent reads; vectors are float64 and marked read-only.
    """

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray], metadata: str = "",
                 duplicates_ignored: int = 0):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.metadata = metadata
        self.duplicates_ignored = duplicates_ignored
        self._vectors: dict[str, np.ndarray] = {}
        for word, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dimension,):
                raise ValueError(f"vector for {word!r} has shape {arr.shape}, expected ({dimension},)")
            arr = arr.copy()
            arr.flags.writeable = False
            self._vectors[word] = arr

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def __iter__(self) -> Iterator[str]:
        return iter(self._vectors)

    def lookup(self, lemma: str) -> np.ndarray | None:
        """Stored vector for an exact key, or None when out-of-vocabulary."""
        return self._vectors.get(lemma)

    def stats(self) -> dict:
        return {
            "dimension": self.dimension,
            "entries": len(self._vectors),
            "duplicates_ignored": self.duplicates_ignored,
            "metadata": self.metadata,
        }


def _parse_components(parts: list[str], line_number: int) -> np.ndarray:
    try:
        values = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise VectorFormatError(f"non-numeric vector component in {parts!r}", line_number) from None
    if not np.all(np.isfinite(values)):
        raise VectorFormatError("non-finite vector component", line_number)
    return values


def load_text_vectors(stream: Iterable[str], *, metadata: str = "") -> EmbeddingStore:
    """Load the conventional text vector format.

    An optional first line ``count dimension`` declares the shape;
    otherwise the dimension is inferred from the first data line. Each
    data line is a word followed by whitespace-separated decimals.
    Duplicate words keep the first occurrence and bump a warning count.
    """
    dimension: int | None = None
    vectors: dict[str, np.ndarray] = {}
    duplicates = 0
    first_data_seen = False
    line_number = 0
    for raw_line in stream:
        line_number += 1
        line = raw_line.strip()
        if not line:
            continue
        parts = line.split()
        if not first_data_seen and dimension is None and len(parts) == 2:
            try:
                declared_count, declared_dim = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if declared_dim < 1 or declared_count < 0:
                    raise VectorFormatError("header must declare positive dimensions", line_number)
                dimension = declared_dim
                continue
        first_data_seen = True
        word, components = parts[0], parts[1:]
        if dimension is None:
            if not components:
                raise VectorFormatError("first data line has no vector components", line_number)
            dimension = len(components)
        if len(components) != dimension:
            raise VectorFormatError(
                f"expected {dimension} components for {word!r}, got {len(components)}", line_number
            )
        values = _parse_components(components, line_number)
        if word in vectors:
            duplicates += 1
            continue
        vectors[word] = values
    if dimension is None:
        raise VectorFormatError("empty vector stream", line_number or None)
    return EmbeddingStore(dimension, vectors, metadata=metadata, duplicates_ignored=duplicates)


def _as_checked_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return a, b


def cosine_similarity(u, v) -> float:
    """cos(u, v), clamped to [-1, 1] against rounding."""
    a, b = _as_checked_pair(u, v)
    dot_aa = float(np.dot(a, a))
    dot_bb = float(np.dot(b, b))
    if dot_aa == 0.0 or dot_bb == 0.0:
        raise DegenerateVectorError("cosine is undefined for a zero-norm vector")
    # sqrt of the product keeps cos(u, u) exactly 1; split the square
    # roots only when the product would overflow or underflow.
    product = dot_aa * dot_bb
    if product == math.inf or product == 0.0:
        denominator = math.sqrt(dot_aa) * math.sqrt(dot_bb)
    else:
        denominator = math.sqrt(product)
    value = float(np.dot(a, b)) / denominator
    return max(-1.0, min(1.0, value))


def cosine_distance(u, v) -> float:
    """1 - cos(u, v); 0 for identical directions, up to 2 for opposite ones."""
    return 1.0 - cosine_similarity(u, v)
