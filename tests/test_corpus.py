import io
import re
from collections import Counter
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsets.analysis import load_inventory
from lexsets.cli import _cut_ranges, _extract_shard, _merge_shards

from lexsets.corpus import (
    DEFAULT_COLUMNS,
    ColumnMap,
    ExtractionRules,
    LexicalSet,
    ParseStats,
    Sentence,
    Token,
    count_fillers,
    extract_fillers,
    lexical_sets_from_counts,
    parse_conll,
    passes_length_filter,
    read_database,
    write_database,
    write_database_tsv,
)
from lexsets.errors import ConllParseError

from conftest import DATA_DIR, GOLDEN_DIR

RULES = ExtractionRules()


def conll_line(index, form, lemma, upos, head, deprel):
    return f"{index}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


def parse_text(text, **kwargs):
    return list(parse_conll(io.StringIO(text), **kwargs))


def make_sentence(*tokens):
    return Sentence(tokens=tuple(Token(*t) for t in tokens))


# --- parse_conll ---------------------------------------------------------


def test_empty_stream_yields_nothing():
    assert parse_text("") == []


def test_single_block_roundtrip():
    text = "\n".join(
        [
            conll_line(1, "Maria", "Maria", "PROPN", 2, "nsubj"),
            conll_line(2, "dorme", "dormire", "VERB", 0, "root"),
            conll_line(3, ".", ".", "PUNCT", 2, "punct"),
        ]
    )
    sentences = parse_text(text)
    assert len(sentences) == 1
    assert [t.lemma for t in sentences[0].tokens] == ["Maria", "dormire", "."]
    assert sentences[0].tokens[0].head == 2
    assert sentences[0].tokens[1].deprel == "root"


def test_head_out_of_range_raises_with_line_number():
    text = "\n".join(
        [
            conll_line(1, "a", "a", "X", 2, "dep"),
            conll_line(2, "b", "b", "X", 9, "dep"),
            conll_line(3, "c", "c", "X", 2, "dep"),
        ]
    )
    with pytest.raises(ConllParseError) as excinfo:
        parse_text(text)
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize(
    "bad_line",
    [
        "1\tonly\tthree\tfields",
        conll_line("x", "a", "a", "X", 0, "root"),
        conll_line(1, "a", "a", "X", "y", "root"),
        conll_line(1, "a", "", "X", 0, "root"),
    ],
)
def test_malformed_lines_raise_in_strict_mode(bad_line):
    with pytest.raises(ConllParseError):
        parse_text(bad_line)


def test_too_few_fields_error_text():
    with pytest.raises(ConllParseError, match=r"^line 1: expected at least 8 tab-separated fields, got 4$"):
        parse_text("1\tonly\tthree\tfields")


def test_self_loop_head_rejected():
    with pytest.raises(ConllParseError):
        parse_text(conll_line(1, "a", "a", "X", 1, "dep"))


def test_out_of_order_indices_rejected():
    text = "\n".join(
        [
            conll_line(2, "b", "b", "X", 0, "root"),
            conll_line(1, "a", "a", "X", 2, "dep"),
        ]
    )
    with pytest.raises(ConllParseError):
        parse_text(text)


def test_lenient_mode_skips_bad_sentences_and_counts():
    text = "\n".join(
        [
            conll_line(1, "a", "a", "X", 0, "root"),
            "",
            conll_line(1, "b", "b", "X", "bad", "root"),
            "",
            conll_line(1, "c", "c", "X", 0, "root"),
        ]
    )
    stats = ParseStats()
    sentences = parse_text(text, strict=False, stats=stats)
    assert [s.tokens[0].lemma for s in sentences] == ["a", "c"]
    assert stats.sentences_parsed == 2
    assert stats.sentences_skipped == 1
    assert stats.malformed_lines == 1


def test_comments_and_ranges_skipped_and_counted():
    text = "\n".join(
        [
            "# sent_id = doc1-5",
            "# text = irrelevant",
            "1-2\tdella\t_\t_\t_\t_\t_\t_\t_\t_",
            conll_line(1, "di", "di", "ADP", 2, "case"),
            conll_line(2, "la", "il", "DET", 0, "root"),
        ]
    )
    stats = ParseStats()
    sentences = parse_text(text, stats=stats)
    assert len(sentences) == 1
    assert sentences[0].source_id == "doc1-5"
    assert stats.comment_lines == 2
    assert stats.range_lines_skipped == 1


EMPTY_NODE_SENTENCE = "\n".join(
    [
        conll_line(1, "Luca", "Luca", "PROPN", 2, "nsubj"),
        conll_line(2, "apre", "aprire", "VERB", 0, "root"),
        "2.1\tapre\taprire\tVERB\t_\t_\t_\t_\t0:root\t_",
        conll_line(3, "la", "il", "DET", 4, "det"),
        conll_line(4, "porta", "porta", "NOUN", 2, "dobj"),
    ]
)


@pytest.mark.parametrize("strict", [False, True])
def test_empty_nodes_are_skipped(strict):
    stats = ParseStats()
    sentences = parse_text(EMPTY_NODE_SENTENCE, strict=strict, stats=stats)
    assert [len(s) for s in sentences] == [4]
    assert [t.index for t in sentences[0].tokens] == [1, 2, 3, 4]
    assert stats.range_lines_skipped == 1
    assert stats.malformed_lines == 0
    assert stats.sentences_skipped == 0


def test_empty_node_with_too_few_fields_is_malformed():
    text = EMPTY_NODE_SENTENCE.replace("2.1\tapre\taprire\tVERB\t_\t_\t_\t_\t0:root\t_", "2.1\tapre\taprire")
    with pytest.raises(ConllParseError, match="^line 3: expected at least 8"):
        parse_text(text)
    stats = ParseStats()
    assert parse_text(text, strict=False, stats=stats) == []
    assert stats.malformed_lines == 1
    assert stats.sentences_skipped == 1


def test_custom_column_map():
    columns = ColumnMap(index=0, surface=1, lemma=2, upos=3, head=4, deprel=5)
    line = "1\tcasa\tcasa\tNOUN\t0\troot"
    sentences = parse_text(line, columns=columns)
    assert sentences[0].tokens[0].upos == "NOUN"
    assert DEFAULT_COLUMNS.min_fields == 8


# The index in column 1, behind the surface form.
SURFACE_FIRST = ColumnMap(index=1, surface=0, lemma=2, upos=3, head=6, deprel=7)


def surface_first_line(index, form, lemma, upos, head, deprel):
    return f"{form}\t{index}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


@pytest.mark.parametrize("strict", [False, True])
def test_custom_index_column_skips_range_lines_and_empty_nodes(strict):
    text = "\n".join(
        [
            "della\t1-2\t_\t_\t_\t_\t_\t_\t_\t_",
            surface_first_line(1, "di", "di", "ADP", 2, "case"),
            surface_first_line(2, "apre", "aprire", "VERB", 0, "root"),
            "apre\t2.1\taprire\tVERB\t_\t_\t_\t_\t0:root\t_",
        ]
    )
    stats = ParseStats()
    sentences = parse_text(text, columns=SURFACE_FIRST, strict=strict, stats=stats)
    assert [[(t.index, t.surface) for t in s.tokens] for s in sentences] == [[(1, "di"), (2, "apre")]]
    assert stats.as_dict() == {
        "sentences_parsed": 1,
        "sentences_skipped": 0,
        "malformed_lines": 0,
        "comment_lines": 0,
        "range_lines_skipped": 2,
    }


def test_line_too_short_for_the_index_column_is_malformed():
    text = "\n".join(["-", surface_first_line(1, "di", "di", "ADP", 0, "root")])
    with pytest.raises(ConllParseError, match="^line 1: expected at least 8 tab-separated fields, got 1$"):
        parse_text(text, columns=SURFACE_FIRST)
    stats = ParseStats()
    assert parse_text(text, columns=SURFACE_FIRST, strict=False, stats=stats) == []
    assert (stats.malformed_lines, stats.sentences_skipped, stats.range_lines_skipped) == (1, 1, 0)


@settings(max_examples=200)
@given(st.text(max_size=400))
def test_parser_never_crashes_and_yields_valid_sentences(text):
    try:
        sentences = parse_text(text)
    except ConllParseError:
        return
    for sentence in sentences:
        n = len(sentence.tokens)
        for position, token in enumerate(sentence.tokens, start=1):
            assert token.index == position
            assert 0 <= token.head <= n
            assert token.head != token.index
            assert token.lemma and token.deprel


@settings(max_examples=200)
@given(st.text(max_size=400))
def test_lenient_parser_never_raises(text):
    stats = ParseStats()
    sentences = parse_text(text, strict=False, stats=stats)
    assert all(isinstance(s, Sentence) for s in sentences)


# --- length filter -------------------------------------------------------


def _sentence_of_length(n):
    return make_sentence(*[(i, "w", "w", "X", 0 if i == 1 else 1, "dep") for i in range(1, n + 1)])


@pytest.mark.parametrize("length,expected", [(99, True), (100, False), (0, True)])
def test_length_filter_is_strict(length, expected):
    rules = ExtractionRules(max_sentence_length=100)
    assert passes_length_filter(_sentence_of_length(length), rules) is expected


# --- extract_fillers -----------------------------------------------------


def test_direct_object_extracted():
    # "Maria ruppe la chiave"
    sentence = make_sentence(
        (1, "Maria", "Maria", "PROPN", 2, "nsubj"),
        (2, "ruppe", "rompere", "VERB", 0, "root"),
        (3, "la", "il", "DET", 4, "det"),
        (4, "chiave", "chiave", "NOUN", 2, "dobj"),
    )
    assert extract_fillers(sentence, {"rompere"}, RULES) == [("rompere", "O", "chiave")]


def test_passive_subject_counts_as_object():
    # "la chiave fu rotta"
    sentence = make_sentence(
        (1, "la", "il", "DET", 2, "det"),
        (2, "chiave", "chiave", "NOUN", 4, "nsubjpass"),
        (3, "fu", "essere", "AUX", 4, "auxpass"),
        (4, "rotta", "rompere", "VERB", 0, "root"),
    )
    assert extract_fillers(sentence, {"rompere"}, RULES) == [("rompere", "O", "chiave")]


def test_clitic_subject_counts_as_intransitive_subject():
    # "la chiave si ruppe"
    sentence = make_sentence(
        (1, "la", "il", "DET", 2, "det"),
        (2, "chiave", "chiave", "NOUN", 4, "nsubj"),
        (3, "si", "si", "PRON", 4, "expl"),
        (4, "ruppe", "rompere", "VERB", 0, "root"),
    )
    assert extract_fillers(sentence, {"rompere"}, RULES) == [("rompere", "S", "chiave")]


def test_transitive_subject_not_extracted():
    sentence = make_sentence(
        (1, "uomo", "uomo", "NOUN", 2, "nsubj"),
        (2, "rompe", "rompere", "VERB", 0, "root"),
        (3, "chiave", "chiave", "NOUN", 2, "dobj"),
    )
    fillers = extract_fillers(sentence, {"rompere"}, RULES)
    assert fillers == [("rompere", "O", "chiave")]


def test_clitic_overrides_object_presence():
    # reflexive-style: subject kept as S even though a dobj is attached
    sentence = make_sentence(
        (1, "Maria", "Maria", "PROPN", 3, "nsubj"),
        (2, "si", "si", "PRON", 3, "iobj"),
        (3, "rompe", "rompere", "VERB", 0, "root"),
        (4, "braccio", "braccio", "NOUN", 3, "dobj"),
    )
    fillers = extract_fillers(sentence, {"rompere"}, RULES)
    assert ("rompere", "S", "maria") in fillers
    assert ("rompere", "O", "braccio") in fillers
    assert len(fillers) == 2


def test_token_is_an_immutable_tuple():
    token = Token(1, "apre", "aprire", "VERB", 0, "root")
    with pytest.raises(AttributeError):
        token.lemma = "chiudere"
    assert token == (1, "apre", "aprire", "VERB", 0, "root")
    index, _, lemma, _, head, _ = token
    assert (index, lemma, head) == (1, "aprire", 0)


def test_non_verbal_pos_is_ignored():
    sentence = make_sentence(
        (1, "fermata", "fermare", "NOUN", 0, "root"),
        (2, "treno", "treno", "NOUN", 1, "dobj"),
    )
    assert extract_fillers(sentence, {"fermare"}, RULES) == []


def test_verb_matching_is_case_insensitive_and_fillers_lowercased():
    sentence = make_sentence(
        (1, "Tutto", "Tutto", "PRON", 2, "nsubj"),
        (2, "Cambia", "Cambiare", "VERB", 0, "root"),
    )
    assert extract_fillers(sentence, {"cambiare"}, RULES) == [("cambiare", "S", "tutto")]


def test_extraction_is_deterministic():
    sentence = make_sentence(
        (1, "a", "a", "NOUN", 2, "nsubj"),
        (2, "v", "v", "VERB", 0, "root"),
        (3, "b", "b", "NOUN", 2, "dobj"),
    )
    first = extract_fillers(sentence, {"v"}, RULES)
    assert all(extract_fillers(sentence, {"v"}, RULES) == first for _ in range(5))


def test_two_target_verbs_in_one_sentence():
    sentence = make_sentence(
        (1, "porta", "porta", "NOUN", 2, "nsubj"),
        (2, "apre", "aprire", "VERB", 0, "root"),
        (3, "e", "e", "CCONJ", 5, "cc"),
        (4, "si", "si", "PRON", 5, "expl"),
        (5, "chiude", "chiudere", "VERB", 2, "conj"),
        (6, "finestra", "finestra", "NOUN", 5, "nsubj"),
    )
    fillers = extract_fillers(sentence, {"aprire", "chiudere"}, RULES)
    assert fillers == [
        ("aprire", "S", "porta"),
        ("chiudere", "S", "finestra"),
    ]


# --- counts to lexical sets ---------------------------------------------


def test_sets_from_counts_empty():
    assert lexical_sets_from_counts(Counter()) == {}


def test_sets_from_counts_groups_by_slot():
    counts = Counter([("v", "S", "a"), ("v", "S", "a"), ("v", "O", "a")])
    counts[("v", "O", "b")] = 0
    sets = lexical_sets_from_counts(counts)
    assert sets[("v", "S")].counts == {"a": 2}
    assert sets[("v", "O")].counts == {"a": 1}
    assert sets[("v", "S")].total_count == 2


def test_count_fillers_matches_per_sentence_extraction():
    sentences = [
        make_sentence(
            (1, "porta", "porta", "NOUN", 2, "nsubj"),
            (2, "apre", "aprire", "VERB", 0, "root"),
        ),
        make_sentence(
            (1, "Luca", "Luca", "PROPN", 2, "nsubj"),
            (2, "apre", "aprire", "VERB", 0, "root"),
            (3, "porta", "porta", "NOUN", 2, "dobj"),
        ),
    ]
    counts = count_fillers(sentences, frozenset({"aprire"}), RULES)
    assert counts == {("aprire", "S", "porta"): 1, ("aprire", "O", "porta"): 1}
    sets = lexical_sets_from_counts(counts)
    assert sets[("aprire", "S")].counts == {"porta": 1}


def test_library_route_writes_the_golden_database():
    rules = ExtractionRules(max_sentence_length=15)
    with open(DATA_DIR / "toy_inventory.json", encoding="utf-8") as stream:
        targets = load_inventory(stream).lemmas
    with open(DATA_DIR / "toy.conllu", encoding="utf-8") as stream:
        sentences = (s for s in parse_conll(stream, strict=False) if passes_length_filter(s, rules))
        sets = lexical_sets_from_counts(count_fillers(sentences, targets, rules))
    buffer = io.StringIO()
    write_database(sets, buffer)
    assert buffer.getvalue().encode("utf-8") == (GOLDEN_DIR / "toy_lexsets.json").read_bytes()


# --- byte-range shards ---------------------------------------------------

SHARD_TARGETS = frozenset({"aprire", "rompere"})
SHARD_RULES = ExtractionRules(max_sentence_length=5)
SEPARATORS = ["\n", "\r\n", "  \n", "\t\r\n", " \n\n", "\n\r\n"]


@st.composite
def corpus_blocks(draw):
    """Sentence blocks (lists of lines) with comments, range lines, empty nodes and bad lines."""
    blocks = []
    for number in range(draw(st.integers(0, 10))):
        n = draw(st.integers(1, 6))
        lines = []
        for index in range(1, n + 1):
            lemma = draw(st.sampled_from(["aprire", "rompere", "porta", "vetro", "si"]))
            upos = "VERB" if lemma in SHARD_TARGETS else "NOUN"
            head = draw(st.integers(0, n))
            head = 0 if head == index else head
            deprel = draw(st.sampled_from(["dobj", "nsubj", "nsubjpass", "root", "expl"]))
            lines.append(conll_line(index, lemma, lemma, upos, head, deprel))
        kind = draw(st.sampled_from(["good", "good", "good", "malformed", "bad_head"]))
        if kind == "malformed":
            lines[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from(["x\tbad", conll_line(1, "a", "a", "X", "nope", "dep"), "2.1\tshort"])
            )
        elif kind == "bad_head":
            lines[-1] = conll_line(n, "z", "z", "X", n + 3, "dep")
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, n)), "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_")
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, n)), "1.1\tnull\tnull\tNOUN\t_\t_\t_\t_\t1:dep\t_")
        if draw(st.booleans()):
            lines.insert(0, f"# sent_id = s{number}")
        blocks.append(lines)
    return blocks


@st.composite
def corpus_bytes(draw):
    parts = []
    for lines in draw(corpus_blocks()):
        for line in lines:
            parts.append(line + draw(st.sampled_from(["\n", "\r\n"])))
        parts.append(draw(st.sampled_from(SEPARATORS)))
    text = "".join(parts)
    if draw(st.booleans()):
        text = text.rstrip(" \t\r\n")  # no final newline
    return text.encode("utf-8")


def _serial_pass(path, strict):
    stats = ParseStats()
    counts = Counter()
    filtered = processed = 0
    with open(path, encoding="utf-8") as stream:
        for sentence in parse_conll(stream, strict=strict, stats=stats):
            if not passes_length_filter(sentence, SHARD_RULES):
                filtered += 1
                continue
            processed += 1
            counts.update(count_fillers([sentence], SHARD_TARGETS, SHARD_RULES))
    return counts, stats, filtered, processed


def _outcome(run):
    try:
        return run()
    except ConllParseError as exc:
        return ("error", exc.reason, exc.line_number)


@settings(max_examples=300, deadline=None)
@given(corpus_bytes(), st.lists(st.floats(0, 1), max_size=6), st.booleans())
def test_byte_range_shards_equal_a_serial_pass(data, fractions, strict):
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "corpus.conllu")
        Path(path).write_bytes(data)
        ranges = _cut_ranges(path, [int(f * len(data)) for f in fractions])
        assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

        def sharded():
            shards = [(path, start, end) for start, end in ranges]
            return _merge_shards(
                shards, (_extract_shard(*shard, SHARD_TARGETS, SHARD_RULES, strict) for shard in shards)
            )

        assert _outcome(sharded) == _outcome(lambda: _serial_pass(path, strict))


def test_cut_ranges_align_to_blank_lines(tmp_path):
    path = tmp_path / "corpus.conllu"
    path.write_bytes(b"1\ta\n1\tb  \n \t\r\n1\tc\n\n1\td")
    # Blank lines end at bytes 14 and 19; the trailing spaces of "1\tb  " are not a blank line.
    assert _cut_ranges(str(path), [0, 3, 8, 14, 30]) == [(0, 14), (14, 19), (19, 22)]
    assert _cut_ranges(str(path), [19]) == [(0, 22)]
    assert _cut_ranges(str(path), []) == [(0, 22)]
    empty = tmp_path / "empty.conllu"
    empty.write_bytes(b"")
    assert _cut_ranges(str(empty), [0, 0]) == [(0, 0)]


# --- rules validation ----------------------------------------------------


def test_overlapping_relation_sets_rejected():
    with pytest.raises(ValueError):
        ExtractionRules(object_relations=frozenset({"dobj", "nsubj"}))


def test_rules_roundtrip_through_dict():
    rules = ExtractionRules(object_relations=frozenset({"obj"}), max_sentence_length=42)
    assert ExtractionRules.from_dict(rules.to_dict()) == rules


@pytest.mark.parametrize(
    "name", ["object_relations", "passive_subject_relations", "subject_relations", "verb_pos_tags"]
)
@pytest.mark.parametrize("value", ["dobj", ("dobj",), {"dobj": 1}, ["dobj", 1]])
def test_rules_require_a_list_of_labels(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a list of strings"):
        ExtractionRules.from_dict({name: value})


def test_rules_reject_unknown_fields():
    with pytest.raises(ValueError):
        ExtractionRules.from_dict({"max_length": 5})


# --- database io ---------------------------------------------------------


def test_database_roundtrip():
    sets = lexical_sets_from_counts(
        Counter(
            [
                ("rompere", "O", "chiave"),
                ("rompere", "O", "chiave"),
                ("rompere", "S", "ramo"),
                ("aprire", "S", "porta"),
            ]
        )
    )
    buffer = io.StringIO()
    write_database(sets, buffer)
    buffer.seek(0)
    assert read_database(buffer) == sets


def test_database_tsv_export():
    sets = {
        ("v", "S"): LexicalSet("v", "S", {"b": 2, "a": 1}),
        ("v", "O"): LexicalSet("v", "O", {"c": 3}),
    }
    buffer = io.StringIO()
    write_database_tsv(sets, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "verb\trole\tlemma\tcount"
    assert lines[1:] == ["v\tS\ta\t1", "v\tS\tb\t2", "v\tO\tc\t3"]


def test_read_database_rejects_bad_role():
    buffer = io.StringIO('[{"verb": "v", "role": "X", "fillers": []}]')
    with pytest.raises(ValueError):
        read_database(buffer)


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"verb": "v"}', "database must be a JSON list"),
        ('[["v", "S", []]]', "entry 1 is not a JSON object"),
        ('[{"verb": "v", "fillers": []}]', "entry 1 has no 'role' field"),
        ('[{"verb": "v", "role": "S", "fillers": {}}]', "entry 1 needs a string verb and a list of fillers"),
        ('[{"verb": 3, "role": "S", "fillers": []}]', "entry 1 needs a string verb"),
        ('[{"verb": "v", "role": "S", "fillers": ["a"]}]', "a filler of entry 1 is not a JSON object"),
        ('[{"verb": "v", "role": "S", "fillers": [{"count": 1}]}]', "a filler of entry 1 has no 'lemma' field"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": "a", "count": 1.5}]}]', "an integer count, got count 1.5"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": "a", "count": true}]}]', "an integer count, got count True"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": 7, "count": 1}]}]', "needs a string lemma"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": ["a"], "count": 1}]}]', "needs a string lemma"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": "a", "count": 2}, {"lemma": "a", "count": 5}]}]',
         "duplicate filler 'a' for verb 'v'"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": "a", "count": 0}]}]', "non-positive filler count"),
    ],
)
def test_read_database_rejects_malformed_entries(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_database(io.StringIO(text))
