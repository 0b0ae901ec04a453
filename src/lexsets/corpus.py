"""Streaming CoNLL corpus reader and verb-argument filler extraction.

Sentences come in as blank-line-separated blocks of tab-separated token
lines. For every target verb the extractor collects direct objects,
passive subjects (counted as objects) and subjects of intransitive uses,
where a verb-attached clitic (Italian *si*) forces the intransitive
reading even when an object is present.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from operator import eq, itemgetter
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

from .errors import ConllParseError

ROLE_S = "S"
ROLE_O = "O"
ROLES = (ROLE_S, ROLE_O)


class Token(NamedTuple):
    """One parsed token: 1-based index, head index (0 = root), relation label."""

    index: int
    surface: str
    lemma: str
    upos: str
    head: int
    deprel: str


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    source_id: str = ""

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ColumnMap:
    """0-based positions of the required fields in a token line.

    The default matches the 10-column CoNLL convention (ID, FORM, LEMMA,
    UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC).
    """

    index: int = 0
    surface: int = 1
    lemma: int = 2
    upos: int = 3
    head: int = 6
    deprel: int = 7

    @property
    def min_fields(self) -> int:
        return max(self.index, self.surface, self.lemma, self.upos, self.head, self.deprel) + 1


DEFAULT_COLUMNS = ColumnMap()


@dataclass(frozen=True)
class ExtractionRules:
    """Relation labels and thresholds driving the extraction.

    Labels are configuration because they are tagset-specific; the
    defaults are dobj / nsubj / nsubjpass.
    """

    object_relations: frozenset[str] = frozenset({"dobj"})
    passive_subject_relations: frozenset[str] = frozenset({"nsubjpass"})
    subject_relations: frozenset[str] = frozenset({"nsubj"})
    clitic_lemma: str = "si"
    max_sentence_length: int = 100
    verb_pos_tags: frozenset[str] = frozenset({"VERB"})

    def __post_init__(self):
        if self.max_sentence_length < 1:
            raise ValueError("max_sentence_length must be >= 1")
        groups = [self.object_relations, self.passive_subject_relations, self.subject_relations]
        for i, a in enumerate(groups):
            for b in groups[i + 1:]:
                overlap = a & b
                if overlap:
                    raise ValueError(f"relation-label sets must be disjoint, got {sorted(overlap)} in two sets")

    def to_dict(self) -> dict:
        """The rules as JSON-ready values in field order, each label set as a sorted list."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: sorted(value) if isinstance(value, frozenset) else value for name, value in values.items()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExtractionRules":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown extraction-rule fields: {sorted(unknown)}")
        kwargs = dict(data)
        for f in fields(cls):
            if f.name in kwargs and isinstance(f.default, frozenset):
                labels = kwargs[f.name]
                # a string is iterable too, and would become the set of its characters
                if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
                    raise ValueError(f"{f.name} must be a list of strings, got {labels!r}")
                kwargs[f.name] = frozenset(labels)
        return cls(**kwargs)


@dataclass
class LexicalSet:
    """All fillers attested for one (verb, role) slot, with token counts."""

    verb_lemma: str
    role: str
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total_count(self) -> int:
        return sum(self.counts.values())


@dataclass
class ParseStats:
    """Running totals for one corpus pass; feeds the run manifest."""

    sentences_parsed: int = 0
    sentences_skipped: int = 0
    malformed_lines: int = 0
    comment_lines: int = 0
    range_lines_skipped: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def update(self, other: "ParseStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _line_error(parts: list[str], columns: ColumnMap, min_fields: int) -> str:
    """Why a token line that failed the check in :func:`parse_conll` is malformed."""
    if len(parts) < min_fields:
        return f"expected at least {min_fields} tab-separated fields, got {len(parts)}"
    raw_index = parts[columns.index]
    raw_head = parts[columns.head]
    try:
        int(raw_index)
        int(raw_head)
    except ValueError:
        return f"non-numeric index/head ({raw_index!r}, {raw_head!r})"
    return "empty lemma or deprel field"


_index_of = itemgetter(0)
_head_of = itemgetter(4)


def _finish_sentence(tokens: list[Token], line_numbers: list[int], source_id: str) -> Sentence:
    n = len(tokens)
    positions = range(1, n + 1)
    heads = list(map(_head_of, tokens))
    if (
        list(map(_index_of, tokens)) != list(positions)
        or min(heads) < 0
        or max(heads) > n
        or any(map(eq, heads, positions))
    ):
        for position, line_number, token in zip(positions, line_numbers, tokens):
            if token.index != position:
                raise ConllParseError(f"token index {token.index} out of order, expected {position}", line_number)
            if token.head < 0 or token.head > n:
                raise ConllParseError(f"head {token.head} out of range for a {n}-token sentence", line_number)
            if token.head == token.index:
                raise ConllParseError(f"token {token.index} is its own head", line_number)
    return Sentence(tokens=tuple(tokens), source_id=source_id)


def parse_conll(
    stream: Iterable[str],
    *,
    columns: ColumnMap = DEFAULT_COLUMNS,
    strict: bool = True,
    stats: ParseStats | None = None,
) -> Iterator[Sentence]:
    """Yield sentences from a character stream of CoNLL token lines.

    Comment lines (``#``), multiword-range lines (index containing
    ``-``) and CoNLL-U empty nodes (index ``N.M`` on a line with all the
    required fields) are skipped; both kinds of skipped token line are
    counted in ``stats.range_lines_skipped``. Malformed lines raise
    :class:`ConllParseError` when ``strict``; otherwise the surrounding
    sentence is dropped and counted in ``stats``.
    """
    if stats is None:
        stats = ParseStats()
    min_fields = columns.min_fields
    index_column, surface_column, lemma_column = columns.index, columns.surface, columns.lemma
    upos_column, head_column, deprel_column = columns.upos, columns.head, columns.deprel
    # A Token is a NamedTuple; building it through tuple.__new__ skips the
    # keyword-handling __new__ the class generates.
    new_token = tuple.__new__
    tokens: list[Token] = []
    line_numbers: list[int] = []
    add_token, add_line_number = tokens.append, line_numbers.append
    source_id = ""
    bad_block = False

    line_number = 0
    # The empty line after the stream ends the last sentence like any
    # blank line. Its line number is never reported: errors name token lines.
    for raw_line in chain(stream, ("",)):
        line_number += 1
        line = raw_line.rstrip("\r\n")
        if not line.strip():
            sentence = None
            if bad_block:
                stats.sentences_skipped += 1
            elif tokens:
                try:
                    sentence = _finish_sentence(tokens, line_numbers, source_id)
                    stats.sentences_parsed += 1
                except ConllParseError:
                    if strict:
                        raise
                    stats.sentences_skipped += 1
            tokens.clear()
            line_numbers.clear()
            source_id = ""
            bad_block = False
            if sentence is not None:
                yield sentence
            continue
        if line[0] == "#":
            stats.comment_lines += 1
            text = line.lstrip("#").strip()
            if text.startswith("sent_id") and "=" in text:
                source_id = text.split("=", 1)[1].strip()
            continue
        parts = line.split("\t")
        field_count = len(parts)
        if field_count > index_column:
            raw_index = parts[index_column]
            if "-" in raw_index:
                stats.range_lines_skipped += 1
                continue
            if "." in raw_index and field_count >= min_fields:
                major, _, minor = raw_index.partition(".")
                if major.isdecimal() and minor.isdecimal():
                    stats.range_lines_skipped += 1
                    continue
        # Checked in the order of the error texts in _line_error: field
        # count, then numeric index and head, then non-empty lemma and deprel.
        # A line too short for the index column fails the field count, so
        # raw_index is always bound when it is read.
        try:
            if field_count < min_fields:
                raise ValueError
            index = int(raw_index)
            head = int(parts[head_column])
            lemma = parts[lemma_column]
            deprel = parts[deprel_column]
            if not lemma or not deprel:
                raise ValueError
        except ValueError:
            if strict:
                raise ConllParseError(_line_error(parts, columns, min_fields), line_number) from None
            stats.malformed_lines += 1
            bad_block = True
            continue
        if not bad_block:
            add_token(new_token(Token, (index, parts[surface_column], lemma, parts[upos_column], head, deprel)))
            add_line_number(line_number)


def passes_length_filter(sentence: Sentence, rules: ExtractionRules) -> bool:
    """True iff the sentence is strictly shorter than the configured cap."""
    return len(sentence.tokens) < rules.max_sentence_length


def extract_fillers(
    sentence: Sentence,
    verbs: Iterable[str],
    rules: ExtractionRules,
) -> list[tuple[str, str, str]]:
    """Collect the (verb, role, filler) triples of one parsed sentence.

    For every verbal token whose lemma is a target:
    object-relation dependents and passive-subject dependents become O
    fillers; subject-relation dependents become S fillers only when the
    verb is used intransitively, i.e. it has no object-relation dependent
    or it carries the clitic (which overrides the object test).
    Lemmas are lower-cased on output.
    """
    targets = {v.lower() for v in verbs}
    verb_pos_tags = rules.verb_pos_tags
    target_tokens = [t for t in sentence.tokens if t.upos in verb_pos_tags and t.lemma.lower() in targets]
    if not target_tokens:
        return []
    dependents: dict[int, list[Token]] = {}
    for token in sentence.tokens:
        dependents.setdefault(token.head, []).append(token)

    fillers: list[tuple[str, str, str]] = []
    for token in target_tokens:
        lemma = token.lemma.lower()
        deps = dependents.get(token.index, [])
        has_object = any(d.deprel in rules.object_relations for d in deps)
        has_clitic = any(d.lemma.lower() == rules.clitic_lemma for d in deps)
        intransitive = not has_object or has_clitic
        for dep in deps:
            if dep.deprel in rules.object_relations:
                fillers.append((lemma, ROLE_O, dep.lemma.lower()))
            elif dep.deprel in rules.passive_subject_relations:
                fillers.append((lemma, ROLE_O, dep.lemma.lower()))
            elif dep.deprel in rules.subject_relations and intransitive:
                fillers.append((lemma, ROLE_S, dep.lemma.lower()))
    return fillers


def count_fillers(
    sentences: Iterable[Sentence], verbs: Iterable[str], rules: ExtractionRules
) -> Counter:
    """Filler counts keyed by (verb, role, lemma) over any run of sentences.

    Counts merge by plain counter addition, so any partition of the
    corpus yields the same totals as a sequential pass.
    """
    counts: Counter = Counter()
    for sentence in sentences:
        counts.update(extract_fillers(sentence, verbs, rules))
    return counts


def lexical_sets_from_counts(counts: Mapping[tuple[str, str, str], int]) -> dict[tuple[str, str], LexicalSet]:
    """Group (verb, role, lemma) -> count entries into lexical sets."""
    sets: dict[tuple[str, str], LexicalSet] = {}
    for (verb, role, lemma), count in counts.items():
        if count < 1:
            continue
        sets.setdefault((verb, role), LexicalSet(verb, role, {})).counts[lemma] = count
    return sets


def _sorted_sets(sets: Mapping[tuple[str, str], LexicalSet]) -> list[LexicalSet]:
    role_order = {role: i for i, role in enumerate(ROLES)}
    return [sets[key] for key in sorted(sets, key=lambda k: (k[0], role_order.get(k[1], 99)))]


def database_to_obj(sets: Mapping[tuple[str, str], LexicalSet]) -> list[dict]:
    """JSON-ready form of the lexical-set database, deterministically ordered."""
    return [
        {
            "verb": ls.verb_lemma,
            "role": ls.role,
            "fillers": [{"lemma": lemma, "count": ls.counts[lemma]} for lemma in sorted(ls.counts)],
        }
        for ls in _sorted_sets(sets)
    ]


def write_database(sets: Mapping[tuple[str, str], LexicalSet], stream: IO[str]) -> None:
    # json.dump writes chunk by chunk; json.dumps (report.json_text) would first hold every chunk and
    # then one string of the whole database, which on the dense-sets benchmark database (seed 3) took
    # peak RSS from 44.0 to 70.1 MB in process (Python 3.11, Linux).
    json.dump(database_to_obj(sets), stream, ensure_ascii=False, indent=2)
    stream.write("\n")


def read_database(stream: IO[str]) -> dict[tuple[str, str], LexicalSet]:
    """Lexical sets from the JSON that ``write_database`` writes.

    Raises ValueError, naming the entry, for JSON that is not a list of
    ``{"verb", "role", "fillers"}`` objects whose fillers are
    ``{"lemma", "count"}`` objects with distinct string lemmas and
    positive integer counts.
    """
    data = json.load(stream)
    if not isinstance(data, list):
        raise ValueError("database must be a JSON list of lexical sets")
    sets: dict[tuple[str, str], LexicalSet] = {}
    for number, entry in enumerate(data, start=1):
        verb, role, fillers = _database_fields(entry, ("verb", "role", "fillers"), f"entry {number}")
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r} for verb {verb!r}")
        if not isinstance(verb, str) or not isinstance(fillers, list):
            raise ValueError(f"entry {number} needs a string verb and a list of fillers")
        counts = _filler_counts(fillers, verb, f"entry {number}")
        if min(counts.values(), default=1) < 1:
            raise ValueError(f"non-positive filler count for verb {verb!r}")
        key = (verb, role)
        if key in sets:
            raise ValueError(f"duplicate database entry for {key}")
        sets[key] = LexicalSet(verb, role, counts)
    return sets


def _database_fields(item, keys: tuple[str, ...], where: str) -> list:
    if not isinstance(item, dict):
        raise ValueError(f"{where} is not a JSON object")
    missing = [key for key in keys if key not in item]
    if missing:
        raise ValueError(f"{where} has no {missing[0]!r} field")
    return [item[key] for key in keys]


def _filler_counts(fillers: list, verb: str, where: str) -> dict[str, int]:
    """Lemma -> count of one entry's fillers; ValueError names the first malformed or repeated filler."""
    try:
        counts = {filler["lemma"]: filler["count"] for filler in fillers}
    except (TypeError, KeyError):  # a filler that is not an object, lacks a key or has an unhashable lemma
        counts = None
    # Well-formed fillers, the only kind `write_database` writes, are
    # checked at C speed; anything else is checked one filler at a time.
    if (counts is not None and len(counts) == len(fillers)
            and set(map(type, counts)) <= {str} and set(map(type, counts.values())) <= {int}):
        return counts
    counts = {}
    for filler in fillers:
        lemma, count = _database_fields(filler, ("lemma", "count"), f"a filler of {where}")
        if not isinstance(lemma, str) or isinstance(count, bool) or not isinstance(count, int):
            raise ValueError(f"filler {lemma!r} of verb {verb!r} needs a string lemma and an integer count,"
                             f" got count {count!r}")
        if lemma in counts:
            raise ValueError(f"duplicate filler {lemma!r} for verb {verb!r}")
        counts[lemma] = count
    return counts


def write_database_tsv(sets: Mapping[tuple[str, str], LexicalSet], stream: IO[str]) -> None:
    writer = csv.writer(stream, delimiter="\t", lineterminator="\n")
    writer.writerow(["verb", "role", "lemma", "count"])
    for ls in _sorted_sets(sets):
        for lemma in sorted(ls.counts):
            writer.writerow([ls.verb_lemma, ls.role, lemma, ls.counts[lemma]])
