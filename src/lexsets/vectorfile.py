"""The text vector format: the one pass that reads a vector file, and the checker of every row, which needs no numpy.

numpy is imported only where rows become arrays: in a block handed to its
text reader, once a row is held, and when the held rows are finished. A
pass that holds no row, such as the CLI's check of a vector file before
any work, loads no numpy.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Collection, Iterable, Iterator

from .errors import VectorFormatError

if TYPE_CHECKING:
    import numpy as np

#: Data lines after the first that :meth:`_VectorReader.read` hands to numpy's text reader at a time.
BLOCK_LINES = 512


class _VectorReader:
    """The state of one pass over a vector file: the rows held so far and the counts of the stream."""

    def __init__(self, vocabulary: Collection[str] | None):
        self.vocabulary = vocabulary
        self.dimension: int | None = None
        self.declared: tuple[int, int] | None = None  # (row count, line number) of the header
        self.data_rows = 0
        self.matrix: np.ndarray | None = None
        self.rows: dict[str, int] = {}
        self.unheld: set[str] = set()
        self.duplicates = 0

    def take_head(self, lines: Iterator[str]) -> int:
        """Take lines up to and including the first data row, leaving the rest unread; return how many were taken."""
        line_number = 0
        for raw_line in lines:
            line_number += 1
            self.take_line(raw_line, line_number)
            if self.data_rows:
                break
        return line_number

    def read(self, lines: Iterable[str]) -> tuple[np.ndarray, dict[str, int], int, int]:
        """Check every line, the head alone, then blocks of ``BLOCK_LINES``, a refused block line by line.

        Returns ``EmbeddingStore._hold``'s arguments: ``(matrix, word -> row, duplicates, entries)``.
        """
        lines = iter(lines)
        line_number = self.take_head(lines)
        while block := list(islice(lines, BLOCK_LINES)):
            if not self.take_block(block):
                for offset, raw_line in enumerate(block, start=1):
                    self.take_line(raw_line, line_number + offset)
            line_number += len(block)
        self.check_end(line_number)
        if self.matrix is None:
            import numpy as np

            self.matrix = np.empty((0, self.dimension))
        self.matrix.resize((len(self.rows), self.dimension), refcheck=False)
        return self.matrix, self.rows, self.duplicates, len(self.rows) + len(self.unheld)

    def check(self, lines: Iterable[str]) -> None:
        """Check the head, count each later line that is not blank as a data row, and end as :meth:`read` ends."""
        lines = iter(lines)
        line_number = self.take_head(lines)
        for line_number, raw_line in enumerate(lines, start=line_number + 1):
            if raw_line.strip():  # the blank test of take_line
                self.data_rows += 1
        self.check_end(line_number)

    def take_line(self, raw_line: str, line_number: int) -> None:
        """Check one line and hold its row if the word is new and wanted; the checker of record.

        Components are converted by ``float()``, the parser numpy applies
        to a ``str`` assigned to a float64 element, so the values and the
        refusals are those of that assignment.
        """
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
        try:
            values = [float(component) for component in components]
        except ValueError:
            raise VectorFormatError(f"non-numeric vector component in {components!r}", line_number) from None
        if not all(map(math.isfinite, values)):
            raise VectorFormatError("non-finite vector component", line_number)
        self._keep([word], [values])

    def take_block(self, block: list[str]) -> bool:
        """Take a block of data lines through numpy's text reader, or return False and change nothing.

        The block is refused when a row has no components or an embedded
        line break, when the reader raises, or when the values are not a
        ``(rows, dimension)`` array of finite numbers. For ASCII tokens
        the reader and ``float()`` both convert with CPython's
        ``PyOS_string_to_double``, so an accepted block has the bits the
        per-line check gives it.
        """
        import numpy as np

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
        self._keep(words, values)
        return True

    def _keep(self, words: list[str], values) -> None:
        """Count checked data rows, one per word, and hold those whose word is new and wanted as the next rows.

        ``values`` holds a row per word: a 2-d array, or a list of lists of floats.
        """
        self.data_rows += len(words)
        kept = []
        for index, word in enumerate(words):
            if word in self.rows or word in self.unheld:
                self.duplicates += 1
            elif self.vocabulary is None or word in self.vocabulary:
                self.rows[word] = len(self.rows)
                kept.append(index)
            else:
                self.unheld.add(word)
        if not kept:
            return
        import numpy as np

        held = len(self.rows)
        # No view of the matrix outlives a call, so the resizes here and in
        # `read` skip numpy's reference check.
        if self.matrix is None:
            self.matrix = np.empty((1024 if self.vocabulary is None else len(self.vocabulary), self.dimension))
        if held > len(self.matrix):
            self.matrix.resize((max(2 * len(self.matrix), held), self.dimension), refcheck=False)
        self.matrix[held - len(kept): held] = values if len(kept) == len(words) else values[kept]

    def check_end(self, line_count: int) -> None:
        """Raise the error of a stream that ends after its ``line_count``-th line, if it has one."""
        if self.dimension is None:
            raise VectorFormatError("empty vector stream", line_count or None)
        if self.declared is not None and self.declared[0] != self.data_rows:
            raise VectorFormatError(
                f"header declares {self.declared[0]} rows, the file has {self.data_rows}", self.declared[1]
            )
