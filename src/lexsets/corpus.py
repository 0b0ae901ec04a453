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
from dataclasses import dataclass, field, fields
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import ConllParseError

ROLE_S = "S"
ROLE_O = "O"
ROLES = (ROLE_S, ROLE_O)


@dataclass(frozen=True)
class Token:
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
        return {
            "object_relations": sorted(self.object_relations),
            "passive_subject_relations": sorted(self.passive_subject_relations),
            "subject_relations": sorted(self.subject_relations),
            "clitic_lemma": self.clitic_lemma,
            "max_sentence_length": self.max_sentence_length,
            "verb_pos_tags": sorted(self.verb_pos_tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExtractionRules":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown extraction-rule fields: {sorted(unknown)}")
        kwargs = dict(data)
        for name in ("object_relations", "passive_subject_relations", "subject_relations", "verb_pos_tags"):
            if name in kwargs:
                kwargs[name] = frozenset(kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True)
class FillerRecord:
    verb_lemma: str
    role: str
    filler_lemma: str


@dataclass
class LexicalSet:
    """All fillers attested for one (verb, role) slot, with token counts."""

    verb_lemma: str
    role: str
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total_count(self) -> int:
        return sum(self.counts.values())

    def merged_with(self, other: "LexicalSet") -> "LexicalSet":
        if (other.verb_lemma, other.role) != (self.verb_lemma, self.role):
            raise ValueError("cannot merge lexical sets for different (verb, role) keys")
        merged = Counter(self.counts)
        merged.update(other.counts)
        return LexicalSet(self.verb_lemma, self.role, dict(merged))


@dataclass
class ParseStats:
    """Running totals for one corpus pass; feeds the run manifest."""

    sentences_parsed: int = 0
    sentences_skipped: int = 0
    malformed_lines: int = 0
    comment_lines: int = 0
    range_lines_skipped: int = 0

    def as_dict(self) -> dict:
        return {
            "sentences_parsed": self.sentences_parsed,
            "sentences_skipped": self.sentences_skipped,
            "malformed_lines": self.malformed_lines,
            "comment_lines": self.comment_lines,
            "range_lines_skipped": self.range_lines_skipped,
        }

    def update(self, other: "ParseStats") -> None:
        self.sentences_parsed += other.sentences_parsed
        self.sentences_skipped += other.sentences_skipped
        self.malformed_lines += other.malformed_lines
        self.comment_lines += other.comment_lines
        self.range_lines_skipped += other.range_lines_skipped


def _parse_token_line(parts: list[str], line_number: int, columns: ColumnMap, min_fields: int) -> Token:
    if len(parts) < min_fields:
        raise ConllParseError(f"expected at least {min_fields} tab-separated fields, got {len(parts)}", line_number)
    raw_index = parts[columns.index]
    raw_head = parts[columns.head]
    try:
        index = int(raw_index)
        head = int(raw_head)
    except ValueError:
        raise ConllParseError(f"non-numeric index/head ({raw_index!r}, {raw_head!r})", line_number) from None
    lemma = parts[columns.lemma]
    deprel = parts[columns.deprel]
    if not lemma or not deprel:
        raise ConllParseError("empty lemma or deprel field", line_number)
    return Token(
        index=index,
        surface=parts[columns.surface],
        lemma=lemma,
        upos=parts[columns.upos],
        head=head,
        deprel=deprel,
    )


def _finish_sentence(pending: list[tuple[int, Token]], source_id: str) -> Sentence:
    n = len(pending)
    for position, (line_number, token) in enumerate(pending, start=1):
        if token.index != position:
            raise ConllParseError(f"token index {token.index} out of order, expected {position}", line_number)
        if token.head < 0 or token.head > n:
            raise ConllParseError(f"head {token.head} out of range for a {n}-token sentence", line_number)
        if token.head == token.index:
            raise ConllParseError(f"token {token.index} is its own head", line_number)
    return Sentence(tokens=tuple(t for _, t in pending), source_id=source_id)


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
    pending: list[tuple[int, Token]] = []
    source_id = ""
    bad_block = False

    def flush() -> Sentence | None:
        nonlocal pending, source_id, bad_block
        block, pending = pending, []
        sid, source_id = source_id, ""
        was_bad, bad_block = bad_block, False
        if was_bad:
            stats.sentences_skipped += 1
            return None
        if not block:
            return None
        sentence = _finish_sentence(block, sid)
        stats.sentences_parsed += 1
        return sentence

    line_number = 0
    for raw_line in stream:
        line_number += 1
        line = raw_line.rstrip("\r\n")
        if not line.strip():
            try:
                sentence = flush()
            except ConllParseError:
                if strict:
                    raise
                stats.sentences_skipped += 1
                sentence = None
            if sentence is not None:
                yield sentence
            continue
        if line.startswith("#"):
            stats.comment_lines += 1
            text = line.lstrip("#").strip()
            if text.startswith("sent_id") and "=" in text:
                source_id = text.split("=", 1)[1].strip()
            continue
        parts = line.split("\t")
        first_field = parts[0]
        if "-" in first_field:
            stats.range_lines_skipped += 1
            continue
        if "." in first_field and len(parts) >= min_fields:
            major, _, minor = first_field.partition(".")
            if major.isdecimal() and minor.isdecimal():
                stats.range_lines_skipped += 1
                continue
        try:
            token = _parse_token_line(parts, line_number, columns, min_fields)
        except ConllParseError:
            if strict:
                raise
            stats.malformed_lines += 1
            bad_block = True
            continue
        if not bad_block:
            pending.append((line_number, token))

    try:
        sentence = flush()
    except ConllParseError:
        if strict:
            raise
        stats.sentences_skipped += 1
        sentence = None
    if sentence is not None:
        yield sentence


def passes_length_filter(sentence: Sentence, rules: ExtractionRules) -> bool:
    """True iff the sentence is strictly shorter than the configured cap."""
    return len(sentence.tokens) < rules.max_sentence_length


def extract_fillers(
    sentence: Sentence,
    verbs: Iterable[str],
    rules: ExtractionRules,
) -> list[FillerRecord]:
    """Collect (verb, role, filler) records from one parsed sentence.

    For every verbal token whose lemma is a target:
    object-relation dependents and passive-subject dependents become O
    fillers; subject-relation dependents become S fillers only when the
    verb is used intransitively, i.e. it has no object-relation dependent
    or it carries the clitic (which overrides the object test).
    Lemmas are lower-cased on output.
    """
    targets = {v.lower() for v in verbs}
    dependents: dict[int, list[Token]] = {}
    for token in sentence.tokens:
        dependents.setdefault(token.head, []).append(token)

    records: list[FillerRecord] = []
    for token in sentence.tokens:
        lemma = token.lemma.lower()
        if lemma not in targets or token.upos not in rules.verb_pos_tags:
            continue
        deps = dependents.get(token.index, [])
        has_object = any(d.deprel in rules.object_relations for d in deps)
        has_clitic = any(d.lemma.lower() == rules.clitic_lemma for d in deps)
        intransitive = not has_object or has_clitic
        for dep in deps:
            if dep.deprel in rules.object_relations:
                records.append(FillerRecord(lemma, ROLE_O, dep.lemma.lower()))
            elif dep.deprel in rules.passive_subject_relations:
                records.append(FillerRecord(lemma, ROLE_O, dep.lemma.lower()))
            elif dep.deprel in rules.subject_relations and intransitive:
                records.append(FillerRecord(lemma, ROLE_S, dep.lemma.lower()))
    return records


def build_lexical_sets(records: Iterable[FillerRecord]) -> dict[tuple[str, str], LexicalSet]:
    """Aggregate filler records into per-(verb, role) count sets."""
    counts: dict[tuple[str, str], Counter] = {}
    for record in records:
        key = (record.verb_lemma, record.role)
        counts.setdefault(key, Counter())[record.filler_lemma] += 1
    return {
        key: LexicalSet(verb_lemma=key[0], role=key[1], counts=dict(counter))
        for key, counter in counts.items()
    }


def count_fillers(
    sentences: Sequence[Sentence], verbs: frozenset[str], rules: ExtractionRules
) -> Counter:
    """Filler counts keyed by (verb, role, lemma) for one sentence shard.

    Shards merge by plain counter addition, so any partition of the
    corpus yields the same totals as a sequential pass.
    """
    counts: Counter = Counter()
    for sentence in sentences:
        for record in extract_fillers(sentence, verbs, rules):
            counts[(record.verb_lemma, record.role, record.filler_lemma)] += 1
    return counts


def lexical_sets_from_counts(counts: Mapping[tuple[str, str, str], int]) -> dict[tuple[str, str], LexicalSet]:
    """Group (verb, role, lemma) -> count entries into lexical sets."""
    sets: dict[tuple[str, str], LexicalSet] = {}
    for (verb, role, lemma), count in counts.items():
        if count < 1:
            continue
        sets.setdefault((verb, role), LexicalSet(verb, role, {})).counts[lemma] = count
    return sets


def merge_lexical_set_maps(
    maps: Iterable[Mapping[tuple[str, str], LexicalSet]],
) -> dict[tuple[str, str], LexicalSet]:
    """Count-wise merge of sharded extraction results (commutative, associative)."""
    merged: dict[tuple[str, str], LexicalSet] = {}
    for shard in maps:
        for key, lex_set in shard.items():
            if key in merged:
                merged[key] = merged[key].merged_with(lex_set)
            else:
                merged[key] = LexicalSet(lex_set.verb_lemma, lex_set.role, dict(lex_set.counts))
    return merged


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
    json.dump(database_to_obj(sets), stream, ensure_ascii=False, indent=2)
    stream.write("\n")


def read_database(stream: IO[str]) -> dict[tuple[str, str], LexicalSet]:
    data = json.load(stream)
    sets: dict[tuple[str, str], LexicalSet] = {}
    for entry in data:
        verb, role = entry["verb"], entry["role"]
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r} for verb {verb!r}")
        counts = {f["lemma"]: int(f["count"]) for f in entry["fillers"]}
        if any(c < 1 for c in counts.values()):
            raise ValueError(f"non-positive filler count for verb {verb!r}")
        key = (verb, role)
        if key in sets:
            raise ValueError(f"duplicate database entry for {key}")
        sets[key] = LexicalSet(verb, role, counts)
    return sets


def write_database_tsv(sets: Mapping[tuple[str, str], LexicalSet], stream: IO[str]) -> None:
    writer = csv.writer(stream, delimiter="\t", lineterminator="\n")
    writer.writerow(["verb", "role", "lemma", "count"])
    for ls in _sorted_sets(sets):
        for lemma in sorted(ls.counts):
            writer.writerow([ls.verb_lemma, ls.role, lemma, ls.counts[lemma]])
