"""The block-parsing vector loader against the row-at-a-time loader it replaced.

The oracle below is the earlier ``load_text_vectors``, which converted
every row with ``values[:] = components``. On generated files, under
several ``BLOCK_LINES``, the current loader must give the same matrix
bytes, the same word -> row map, the same ``stats()``, or the same first
error at the same line. The CLI's check of a whole vector file, which
counts rows without converting them, must end as the loader ends.
"""

import io
import os
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsets import cli, vectorfile
from lexsets.embeddings import EmbeddingStore, load_text_vectors
from lexsets.errors import VectorFormatError
from lexsets.vectorfile import _VectorReader

# --- oracle: the earlier loader ---------------------------------------------


def oracle_load_text_vectors(stream, *, vocabulary=None):
    dimension = None
    declared = None
    data_rows = 0
    matrix = None
    rows = {}
    unheld = set()
    duplicates = 0
    line_number = 0
    for raw_line in stream:
        line_number += 1
        line = raw_line.strip()
        if not line:
            continue
        parts = line.split()
        if not data_rows and dimension is None and len(parts) == 2:
            try:
                declared_count, declared_dim = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                if declared_dim < 1 or declared_count < 0:
                    raise VectorFormatError("header must declare positive dimensions", line_number)
                dimension = declared_dim
                declared = (declared_count, line_number)
                continue
        data_rows += 1
        word, components = parts[0], parts[1:]
        if dimension is None:
            if not components:
                raise VectorFormatError("first data line has no vector components", line_number)
            dimension = len(components)
        if len(components) != dimension:
            raise VectorFormatError(
                f"expected {dimension} components for {word!r}, got {len(components)}", line_number
            )
        held = len(rows)
        if matrix is None:
            matrix = np.empty((1024 if vocabulary is None else len(vocabulary) + 1, dimension))
        elif held == len(matrix):
            matrix.resize((2 * held, dimension), refcheck=False)
        values = matrix[held]
        try:
            values[:] = components
        except ValueError:
            raise VectorFormatError(f"non-numeric vector component in {components!r}", line_number) from None
        if not np.isfinite(values).all():
            raise VectorFormatError("non-finite vector component", line_number)
        if word in rows or word in unheld:
            duplicates += 1
        elif vocabulary is None or word in vocabulary:
            rows[word] = held
        else:
            unheld.add(word)
    if dimension is None:
        raise VectorFormatError("empty vector stream", line_number or None)
    if declared is not None and declared[0] != data_rows:
        raise VectorFormatError(f"header declares {declared[0]} rows, the file has {data_rows}", declared[1])
    if matrix is None:
        matrix = np.empty((0, dimension))
    else:
        matrix.resize((len(rows), dimension), refcheck=False)
    return EmbeddingStore.__new__(EmbeddingStore)._hold(matrix, rows, duplicates, len(rows) + len(unheld))


# --- generated files ----------------------------------------------------------

# Separators that str.split() and numpy's reader both take as whitespace,
# and two ("\r", "\n") that end a line for the reader but not for split().
SEPARATORS = [" ", "  ", "\t", "\x0c", "\x0b", "\x1c", "\x85", "\xa0", "　"]
BREAKS = ["\r", "\n"]
# Tokens float() and the reader both accept, then ones only float()
# accepts, then ones neither accepts.
ODD_NUMBERS = ["-0", "+.5", "1.", "1e-400", "4.9e-324", "1E3", " 7"]
FLOAT_ONLY = ["1_0", "１", "٣", "٣.5"]
REFUSED = ["0x1p3", "#1", '"1"', "'1'", "1,0", "1d3", "1d5", "abc", "1\x002", "--1"]
NON_FINITE = ["nan", "-nan", "Infinity", "infinity", "inf", "1e400", "-1e400"]
WORDS = ["a", "b", "c", "città", "#w", '"q"', "1_0", "１", "w\x002"]


def number(rng):
    value = rng.uniform(-2.0, 2.0)
    return rng.choice([f"{value:7.3f}".strip(), repr(value), f"{value:g}", f"{value:.2e}", str(rng.randint(-9, 9))])


def word(rng, pool):
    return rng.choice(WORDS) if rng.random() < 0.1 else f"w{rng.randrange(pool)}"


def row(rng, pool, dimension, sep=" "):
    return sep.join([word(rng, pool), *(number(rng) for _ in range(dimension))])


def special_line(rng, pool, dimension):
    kind = rng.randrange(10)
    if kind == 0:
        return word(rng, pool)  # word-only row
    if kind == 1:
        return row(rng, pool, max(dimension - 1, 0))  # too few components
    if kind == 2:
        return row(rng, pool, dimension + rng.randint(1, 2))  # too many
    if kind == 3:
        return rng.choice(["", " ", "\t \x0c", "　"])  # blank
    if kind == 4:
        return row(rng, pool, dimension, rng.choice(BREAKS))  # embedded line break
    if kind == 5:
        return f"{rng.randint(0, 4)} {rng.randint(-1, 4)}"  # header-like line
    parts = [word(rng, pool), *(number(rng) for _ in range(dimension))]
    parts[rng.randint(1, dimension)] = rng.choice([ODD_NUMBERS, FLOAT_ONLY, REFUSED, NON_FINITE][kind - 6])
    return rng.choice(SEPARATORS).join(parts)


@st.composite
def vector_files(draw):
    block_lines = draw(st.sampled_from([1, 2, 3, 511, 512, 513]))
    dimension = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 12 if block_lines < 4 else 2 * block_lines + 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.sampled_from([3, 40, 5000]))
    separator_rows = draw(st.booleans())
    lines = [row(rng, pool, dimension, rng.choice(SEPARATORS) if separator_rows else " ") for _ in range(rows)]
    # Odd lines go first, last and on both sides of the block edges; the
    # blocks start one or two lines in, after the header and first row.
    edges = {0, 1, 2, rows - 1, rows}
    edges |= {k * block_lines + d for k in (1, 2) for d in (-1, 0, 1, 2)}
    positions = sorted(p for p in edges if 0 <= p <= rows)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.sampled_from(positions)), special_line(rng, pool, dimension))
    header = draw(st.sampled_from(["none", "exact", "off"]))
    if header != "none":
        data = sum(1 for line in lines if line.strip())
        lines.insert(0, f"{data + (header == 'off')} {dimension}")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = [line + ending for line in lines]
    if text and draw(st.booleans()):
        text[-1] = lines[-1]  # no final line break
    words = {line.split()[0] for line in lines if line.split()}
    vocabulary = draw(st.sampled_from(["none", "empty", "partial"]))
    if vocabulary == "none":
        vocabulary = None
    elif vocabulary == "empty":
        vocabulary = set()
    else:
        vocabulary = {w for w in sorted(words) if rng.random() < 0.5}
    return block_lines, text, vocabulary


def outcome(load, lines, vocabulary):
    try:
        store = load(iter(lines), vocabulary=vocabulary)
    except VectorFormatError as exc:
        return ("error", exc.reason, exc.line_number)
    assert store.matrix.flags.c_contiguous and not store.matrix.flags.writeable
    return ("store", store.matrix.shape, store.matrix.tobytes(), [(w, store.row_of(w)) for w in store], store.stats())


@settings(max_examples=400, deadline=None)
@given(vector_files())
def test_block_loader_matches_the_row_loader(case):
    block_lines, lines, vocabulary = case
    with mock.patch.object(vectorfile, "BLOCK_LINES", block_lines):
        got = outcome(load_text_vectors, lines, vocabulary)
    assert got == outcome(oracle_load_text_vectors, lines, vocabulary)


# --- which path a block takes -----------------------------------------------


def counting_take_line(monkeypatch):
    calls = []
    take_line = _VectorReader.take_line

    def counted(self, raw_line, line_number):
        calls.append(line_number)
        return take_line(self, raw_line, line_number)

    monkeypatch.setattr(_VectorReader, "take_line", counted)
    return calls


def test_clean_blocks_never_reach_the_row_check(monkeypatch):
    calls = counting_take_line(monkeypatch)
    lines = ["2000 3\n"] + [f"w{i} {i} 0.5 -1e-3\n" for i in range(2000)]
    store = load_text_vectors(io.StringIO("".join(lines)))
    assert calls == [1, 2]  # the header and the first data line
    assert len(store) == 2000
    np.testing.assert_array_equal(store.lookup("w1999"), [1999.0, 0.5, -1e-3])


def test_a_refused_block_is_read_row_by_row(monkeypatch):
    calls = counting_take_line(monkeypatch)
    lines = [f"w{i} {i} 1\n" for i in range(1200)]
    lines[700] = "w700 7_00 1\n"  # float() reads the underscore; the reader does not
    store = load_text_vectors(io.StringIO("".join(lines)))
    first = 2 + vectorfile.BLOCK_LINES  # line number of the first line of the second block
    assert calls == [1, *range(first, first + vectorfile.BLOCK_LINES)]
    np.testing.assert_array_equal(store.lookup("w700"), [700.0, 1.0])


# The row check converts with float(), the oracle by assigning to a numpy
# array: these spellings pin that both give the same value or the same refusal.
PINNED = ["1_0", "٣", "infinity", "1e400", "nan", "1d3"]


@pytest.mark.parametrize("token", PINNED)
@pytest.mark.parametrize("row", [0, 1], ids=["first-row", "in-a-block"])
def test_row_check_converts_as_numpy_assignment_does(token, row, monkeypatch):
    calls = counting_take_line(monkeypatch)
    lines = ["w0 2 3\n", "w1 -1 0.5\n"]
    lines[row] = f"w{row} {token} 1\n"
    assert outcome(load_text_vectors, lines, None) == outcome(oracle_load_text_vectors, lines, None)
    assert row + 1 in calls  # numpy's reader refuses a block that holds the token, so its row is checked alone


# --- the CLI's row count against the loader -------------------------------------

BLANKS = ["", " ", "\t", "\x0c", "\x85", "　"]


@st.composite
def well_formed_files(draw):
    """Text of a file of well-formed rows among blank lines, under a header whose count may be off."""
    dimension = draw(st.integers(1, 3))
    rows = [" ".join([f"w{index}", *map(repr, draw(st.lists(st.floats(-2.0, 2.0), min_size=dimension,
                                                                   max_size=dimension)))])
            for index in range(draw(st.integers(0, 6)))]
    blanks = st.lists(st.sampled_from(BLANKS), max_size=3)
    lines = draw(st.permutations(rows + draw(blanks)))
    offset = draw(st.sampled_from([None, -2, -1, 0, 0, 1, 2]))  # None: no header
    if offset is not None:
        lines.insert(0, f"{max(0, len(rows) + offset)} {dimension}")
    lines = draw(blanks) + lines
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + ending for line, ending in zip(lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line break
    return ("\ufeff" if draw(st.booleans()) else "") + text


def end_of(path, read):
    """The text of the error that reading ``path`` through the CLI's reader raises, or None."""
    try:
        cli._read_input(path, read)
    except VectorFormatError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(well_formed_files())
def test_the_row_count_check_ends_as_the_loader_ends(text):
    # every row is well-formed, so the loader raises only where the stream ends: on a row count
    # that its header does not declare, or on a file with no header and no data row
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "vectors.txt")
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        assert end_of(path, _VectorReader(()).check) == end_of(path, load_text_vectors)
