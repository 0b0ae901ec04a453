"""Streaming CoNLL corpus reader and verb-argument filler extraction.

Sentences come in as blank-line-separated blocks of tab-separated token
lines. For every target verb the extractor collects direct objects,
passive subjects (counted as objects) and subjects of intransitive uses,
where a verb-attached clitic (Italian *si*) forces the intransitive
reading even when an object is present.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, repeat
from operator import eq, itemgetter
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

from .errors import ConllParseError

ROLE_S = "S"
ROLE_O = "O"
ROLES = (ROLE_S, ROLE_O)
_FLOAT_DECIMALS = 6


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

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ExtractionRules:
    """Relation labels and thresholds driving the extraction.

    Labels are configuration because they are tagset-specific; the
    defaults are dobj / nsubj / nsubjpass. Each label set, given as a
    list, set or frozenset of strings, is stored as a frozenset.
    """

    object_relations: frozenset[str] = frozenset({"dobj"})
    passive_subject_relations: frozenset[str] = frozenset({"nsubjpass"})
    subject_relations: frozenset[str] = frozenset({"nsubj"})
    clitic_lemma: str = "si"
    max_sentence_length: int = 100
    verb_pos_tags: frozenset[str] = frozenset({"VERB"})

    def __post_init__(self):
        for f in fields(self):
            if isinstance(f.default, frozenset):
                labels = getattr(self, f.name)
                # a string is iterable too, and would become the set of its characters
                if not isinstance(labels, (list, set, frozenset)) or not all(isinstance(item, str) for item in labels):
                    raise ValueError(f"{f.name} must be a list of strings, got {labels!r}")
                object.__setattr__(self, f.name, frozenset(labels))
        # bool is an int subclass, and JSON true would pass as 1
        if not isinstance(self.max_sentence_length, int) or isinstance(self.max_sentence_length, bool):
            raise ValueError(f"max_sentence_length must be an integer, got {self.max_sentence_length!r}")
        if self.max_sentence_length < 1:
            raise ValueError("max_sentence_length must be >= 1")
        # fillers' lemmas are lower-cased before they are compared with the clitic
        if not isinstance(self.clitic_lemma, str) or self.clitic_lemma != self.clitic_lemma.lower():
            raise ValueError(f"clitic_lemma must be a lower-case string, got {self.clitic_lemma!r}")
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
        if not isinstance(data, Mapping):
            raise ValueError(f"rules must be a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown extraction-rule fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class LexicalSet:
    """All fillers attested for one (verb, role) slot, with token counts."""

    verb_lemma: str
    role: str
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.role not in ROLES:  # the database holds no other, so lexical_sets_from_counts refuses it here
            raise ValueError(f"unknown role {self.role!r} for verb {self.verb_lemma!r}")

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
    sentences_filtered_by_length: int = 0  # counted by count_fillers, or by parse_conll given targets and rules

    def as_dict(self) -> dict:
        return asdict(self)

    def update(self, other: "ParseStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


_index_of = itemgetter(0)
_head_of = itemgetter(4)
# The index and head spellings of parse_conll's fast path: each key is a
# plain ASCII decimal, so it cannot start a blank, comment, range or
# empty-node line, and int(key) is its value. Kept small: 256 entries
# cost about 20 KB, 1024 about 100 KB.
_SMALL_INTS = {str(n): n for n in range(256)}


def _check_tree(rows: list[tuple], line_numbers: list[int]) -> None:
    """Raise ConllParseError at the first row whose index is out of order or whose head is out of range or itself.

    Each row holds a token's fields in :class:`Token`'s order.
    """
    n = len(rows)
    positions = range(1, n + 1)
    indices = list(map(_index_of, rows))
    heads = list(map(_head_of, rows))
    if indices == list(positions) and min(heads) >= 0 and max(heads) <= n and not any(map(eq, heads, positions)):
        return
    for position, line_number, index, head in zip(positions, line_numbers, indices, heads):
        if index != position:
            raise ConllParseError(f"token index {index} out of order, expected {position}", line_number)
        if head < 0 or head > n:
            raise ConllParseError(f"head {head} out of range for a {n}-token sentence", line_number)
        if head == index:
            raise ConllParseError(f"token {index} is its own head", line_number)


def parse_conll(
    stream: Iterable[str],
    *,
    strict: bool = True,
    stats: ParseStats | None = None,
    targets: Iterable[str] | None = None,
    rules: ExtractionRules | None = None,
) -> Iterator[Sentence]:
    """Yield sentences from a character stream of CoNLL token lines.

    Token lines use the 10-column CoNLL layout (ID, FORM, LEMMA, UPOS,
    XPOS, FEATS, HEAD, DEPREL, DEPS, MISC); the first 8 fields are
    required. Comment lines (``#``), multiword-range lines (index
    containing ``-``) and CoNLL-U empty nodes (index ``N.M`` on a line
    with all the required fields) are skipped; both kinds of skipped
    token line are counted in ``stats.range_lines_skipped``. Malformed
    lines raise :class:`ConllParseError` when ``strict``; otherwise the
    surrounding sentence is dropped and counted in ``stats``.

    ``targets`` (verb lemmas) and ``rules`` are given together or not at
    all. With them, every line and sentence is still checked and counted
    as above, but only the sentences that :func:`count_fillers` would
    take fillers from are built and yielded: those under
    ``rules.max_sentence_length`` tokens that hold a token whose UPOS is
    in ``rules.verb_pos_tags`` and whose lemma, lower-cased, is a
    lower-cased target. Each sentence at or over the cap is counted in
    ``stats.sentences_filtered_by_length``, target or not. Argument
    errors are TypeErrors raised at the call, before any line is read.
    """
    if (targets is None) != (rules is None):
        raise TypeError("parse_conll takes targets and rules together or not at all")
    lowered = None if targets is None else _lowered(targets, "targets")
    return _parsed_sentences(stream, strict, ParseStats() if stats is None else stats, rules, lowered)


def _parsed_sentences(stream: Iterable[str], strict: bool, stats: ParseStats, rules: ExtractionRules | None,
                      lowered: set[str] | None) -> Iterator[Sentence]:
    """The generator of :func:`parse_conll`, whose ``lowered`` targets are given exactly when ``rules`` is."""
    if rules is not None:
        cap = rules.max_sentence_length
        verb_pos_tags = rules.verb_pos_tags
    # A Token is a NamedTuple; building it through tuple.__new__ skips the
    # keyword-handling __new__ the class generates.
    new_token = tuple.__new__
    # The fields of each token line of the sentence, in Token's order, and
    # its line number; Tokens are built only for a sentence that is yielded.
    rows: list[tuple] = []
    line_numbers: list[int] = []
    add_row, add_line_number = rows.append, line_numbers.append
    bad_block = False
    small_ints = _SMALL_INTS

    # The empty line after the stream ends the last sentence like any
    # blank line. Its line number is never reported: errors name token lines.
    for line_number, raw_line in enumerate(chain(stream, ("",)), start=1):
        # Fast path: a line of 9 or more fields, whose line end lies in the
        # unread parts[8], with a small plain-decimal index and head and a
        # lemma and deprel. Every other line takes the checks below, which
        # give a line that passes here the same row.
        parts = raw_line.split("\t", 8)
        if len(parts) == 9:
            index = small_ints.get(parts[0])
            head = small_ints.get(parts[6])
            if index is not None and head is not None and parts[2] and parts[7]:
                if not bad_block:
                    add_row((index, parts[1], parts[2], parts[3], head, parts[7]))
                    add_line_number(line_number)
                continue
        line = raw_line.rstrip("\r\n")
        if not line.strip():
            wanted = False
            if rows and not bad_block:
                try:
                    _check_tree(rows, line_numbers)
                except ConllParseError:
                    if strict:
                        raise
                    bad_block = True
            if bad_block:
                stats.sentences_skipped += 1
            elif rows:
                stats.sentences_parsed += 1
                if rules is None:
                    wanted = True
                elif len(rows) >= cap:
                    stats.sentences_filtered_by_length += 1
                else:
                    # the token test of _sentence_fillers; a plain loop, which is cheaper than any() here
                    for row in rows:
                        if row[3] in verb_pos_tags and row[2].lower() in lowered:
                            wanted = True
                            break
            if wanted:
                # Not tuple(map(...)): that takes a 10-item tuple from its free
                # list, grows it, and frees it into the free list of its final
                # size, which fills (up to 2,000 tuples a size) and is never
                # drawn from. The tuple of a list is taken at its exact size.
                yield Sentence(tuple(list(map(new_token, repeat(Token), rows))))
            rows.clear()
            line_numbers.clear()
            bad_block = False
            continue
        if line[0] == "#":
            stats.comment_lines += 1
            continue
        parts = line.split("\t")
        field_count = len(parts)
        raw_index = parts[0]
        major, _, minor = raw_index.partition(".")
        if "-" in raw_index or (field_count >= 8 and major.isdecimal() and minor.isdecimal()):
            stats.range_lines_skipped += 1
            continue
        if field_count < 8:
            error = f"expected at least 8 tab-separated fields, got {field_count}"
        else:
            try:
                index = int(raw_index)
                head = int(parts[6])
            except ValueError:
                error = f"non-numeric index/head ({raw_index!r}, {parts[6]!r})"
            else:
                error = None if parts[2] and parts[7] else "empty lemma or deprel field"
        if error is not None:
            if strict:
                raise ConllParseError(error, line_number)
            stats.malformed_lines += 1
            bad_block = True
        elif not bad_block:
            add_row((index, parts[1], parts[2], parts[3], head, parts[7]))
            add_line_number(line_number)


def extract_fillers(sentence: Sentence, verbs: Iterable[str], rules: ExtractionRules) -> list[tuple[str, str, str]]:
    """Collect the (verb, role, filler) triples of one parsed sentence.

    For every verbal token whose lemma is a target:
    object-relation dependents and passive-subject dependents become O
    fillers; subject-relation dependents become S fillers only when the
    verb is used intransitively, i.e. it has no object-relation dependent
    or it carries the clitic (which overrides the object test).
    Lemmas are lower-cased on output.
    """
    return _sentence_fillers(sentence, _lowered(verbs, "verbs"), rules)


def _lowered(verbs: Iterable[str], name: str) -> set[str]:
    """The lower-cased verb lemmas; a string, which would become the set of its letters, is a TypeError."""
    if isinstance(verbs, str):
        raise TypeError(f"{name} must be a collection of verb lemmas, not the string {verbs!r}")
    return {verb.lower() for verb in verbs}


def _sentence_fillers(sentence: Sentence, targets: set[str], rules: ExtractionRules) -> list[tuple[str, str, str]]:
    """:func:`extract_fillers` for a set of lower-cased target lemmas."""
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
            if dep.deprel in rules.object_relations or dep.deprel in rules.passive_subject_relations:
                fillers.append((lemma, ROLE_O, dep.lemma.lower()))
            elif dep.deprel in rules.subject_relations and intransitive:
                fillers.append((lemma, ROLE_S, dep.lemma.lower()))
    return fillers


def count_fillers(
    sentences: Iterable[Sentence], verbs: Iterable[str], rules: ExtractionRules, stats: ParseStats | None = None
) -> Counter:
    """Filler counts keyed by (verb, role, lemma) over any run of sentences.

    A sentence of ``rules.max_sentence_length`` tokens or more is
    skipped and counted in ``stats.sentences_filtered_by_length``.
    Counts merge by plain counter addition, so any partition of the
    corpus yields the same totals as a sequential pass.
    """
    if stats is None:
        stats = ParseStats()
    targets = _lowered(verbs, "verbs")
    cap = rules.max_sentence_length
    counts: Counter = Counter()
    for sentence in sentences:
        if len(sentence.tokens) >= cap:
            stats.sentences_filtered_by_length += 1
            continue
        counts.update(_sentence_fillers(sentence, targets, rules))
    return counts


def lexical_sets_from_counts(counts: Mapping[tuple[str, str, str], int]) -> dict[tuple[str, str], LexicalSet]:
    """Group (verb, role, lemma) -> count entries into lexical sets; a role outside ``ROLES`` is a ValueError."""
    grouped: dict[tuple[str, str], dict[str, int]] = {}
    for (verb, role, lemma), count in counts.items():
        if count >= 1:
            grouped.setdefault((verb, role), {})[lemma] = count
    return {key: LexicalSet(*key, fillers) for key, fillers in grouped.items()}


def _storable_sets(sets: Mapping[tuple[str, str], LexicalSet]) -> list[LexicalSet]:
    for key, ls in sets.items():
        _check_storable(key, ls)
    return [sets[key] for key in sorted(sets, key=lambda k: (k[0], ROLES.index(k[1])))]


def _check_storable(key, ls: LexicalSet) -> None:
    """ValueError unless ``ls`` is a set the database holds, under ``key``: both writers and the reader ask this."""
    verb, role, counts = ls.verb_lemma, ls.role, ls.counts
    if key != (verb, role):
        raise ValueError(f"the set of verb {verb!r} role {role!r} is stored under the key {key!r}")
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r} for verb {verb!r}")
    if type(verb) is not str:
        raise ValueError(f"verb {verb!r} of role {role!r} is not a string")
    # checked at C speed; only a set that fails is searched for its first bad filler
    if (set(map(type, counts)) <= {str} and set(map(type, counts.values())) <= {int}
            and min(counts.values(), default=1) >= 1):
        return
    lemma, count = next((lemma, count) for lemma, count in counts.items()
                        if type(lemma) is not str or type(count) is not int or count < 1)
    raise ValueError(f"filler {lemma!r} of verb {verb!r} role {role!r} needs a string lemma and an integer count"
                     f" of at least 1, got count {count!r}")


def _rounded(obj):
    """``obj`` with every float in it, at any depth of dicts and lists, rounded to 6 decimals."""
    if isinstance(obj, float):
        return round(obj, _FLOAT_DECIMALS)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return obj


def json_text(obj) -> str:
    """``obj`` as every JSON artifact's text: floats rounded to 6 decimals, raw UTF-8, indent 2, a final newline.

    A NaN or infinite float, which strict JSON has no token for, is a ValueError.
    """
    return json.dumps(_rounded(obj), ensure_ascii=False, indent=2, allow_nan=False) + "\n"


def write_database(sets: Mapping[tuple[str, str], LexicalSet], stream: IO[str]) -> None:
    """Write the sets, verb by verb and S before O, each with its fillers by lemma.

    The bytes are those of ``json.dump(obj, stream, ensure_ascii=False,
    indent=2)`` and a newline, where ``obj`` is the list of
    ``{"verb", "role", "fillers"}`` objects and each filler is a
    ``{"lemma", "count"}`` object. Each set is one ``stream.write``, so
    only one set at a time is held as text. A set that ``read_database``
    would refuse is a ValueError, raised before anything is written.
    """
    # not json.dumps(indent=2): any indent selects the pure-Python encoder, which is ten times slower than this
    string = json.encoder.encode_basestring
    separator = "[\n"
    for ls in _storable_sets(sets):
        counts = ls.counts
        fillers = ",\n".join([f'      {{\n        "lemma": {string(lemma)},\n        "count": {counts[lemma]}\n      }}'
                              for lemma in sorted(counts)])
        body = f"[\n{fillers}\n    ]" if counts else "[]"
        stream.write(f'{separator}  {{\n    "verb": {string(ls.verb_lemma)},\n    "role": {string(ls.role)},\n'
                     f'    "fillers": {body}\n  }}')
        separator = ",\n"
    stream.write("\n]\n" if sets else "[]\n")


def read_database(stream: IO[str]) -> dict[tuple[str, str], LexicalSet]:
    """Lexical sets from the JSON that ``write_database`` writes.

    Raises ValueError, naming the entry, for JSON that is not a list of
    ``{"verb", "role", "fillers"}`` objects, each with a list of distinct-lemma
    ``{"lemma", "count"}`` objects, or for a set ``write_database`` refuses.
    """
    data = json.load(stream)
    if not isinstance(data, list):
        raise ValueError("database must be a JSON list of lexical sets")
    sets: dict[tuple[str, str], LexicalSet] = {}
    for number, entry in enumerate(data, start=1):
        verb, role, fillers = _database_fields(entry, ("verb", "role", "fillers"), f"entry {number}")
        if not isinstance(fillers, list):
            raise ValueError(f"entry {number} needs a list of fillers")
        ls = LexicalSet(verb, role, _filler_counts(fillers, verb, f"entry {number}"))
        key = (verb, role)
        _check_storable(key, ls)
        if key in sets:
            raise ValueError(f"duplicate database entry for {key}")
        sets[key] = ls
    return sets


def _database_fields(item, keys: tuple[str, ...], where: str) -> list:
    if not isinstance(item, dict):
        raise ValueError(f"{where} is not a JSON object")
    missing = [key for key in keys if key not in item]
    if missing:
        raise ValueError(f"{where} has no {missing[0]!r} field")
    return [item[key] for key in keys]


def _filler_counts(fillers: list, verb, where: str) -> dict:
    """Lemma -> count of one entry's fillers; ValueError names the first malformed or repeated filler."""
    try:
        counts = {filler["lemma"]: filler["count"] for filler in fillers}
    except (TypeError, KeyError):  # a filler that is not an object, lacks a key or has an unhashable lemma
        counts = None
    # Well-formed fillers, the only kind `write_database` writes, are
    # checked at C speed; anything else is checked one filler at a time.
    if counts is not None and len(counts) == len(fillers):
        return counts
    counts = {}
    for filler in fillers:
        lemma, count = _database_fields(filler, ("lemma", "count"), f"a filler of {where}")
        if isinstance(lemma, (list, dict)):  # no dict holds it, so whether it repeats cannot be asked
            raise ValueError(f"a filler of {where} has a JSON list or object as its lemma")
        if lemma in counts:
            raise ValueError(f"duplicate filler {lemma!r} for verb {verb!r}")
        counts[lemma] = count
    return counts


def _delimited_field(text: str, delimiter: str) -> str:
    """``text`` quoted, its quotes doubled, iff it holds ``delimiter``, ``"``, ``\\n`` or ``\\r``, as 3.13's csv does."""
    quoted = delimiter in text or '"' in text or "\n" in text or "\r" in text
    return '"' + text.replace('"', '""') + '"' if quoted else text


def write_database_tsv(sets: Mapping[tuple[str, str], LexicalSet], stream: IO[str]) -> None:
    """Write the sets as ``verb role lemma count`` rows in ``write_database``'s order, one ``stream.write`` a set."""
    ordered = _storable_sets(sets)  # every set is checked before the header is written
    stream.write("verb\trole\tlemma\tcount\n")
    tab = "\t"  # a backslash inside an f-string's braces is a SyntaxError before Python 3.12
    for ls in ordered:
        prefix = f"{_delimited_field(ls.verb_lemma, tab)}\t{ls.role}\t"
        stream.write("".join([f"{prefix}{_delimited_field(lemma, tab)}\t{ls.counts[lemma]}\n"
                              for lemma in sorted(ls.counts)]))
