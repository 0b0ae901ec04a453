import csv
import io
import json
import re
import sys
from collections import Counter
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexsets import corpus
from lexsets.cli import _cut_ranges, _extract_shard, _merge_shards

from lexsets.corpus import (
    ExtractionRules,
    LexicalSet,
    ParseStats,
    Sentence,
    Token,
    count_fillers,
    extract_fillers,
    lexical_sets_from_counts,
    parse_conll,
    read_database,
    write_database,
    write_database_tsv,
)
from lexsets.errors import ConllParseError
from lexsets.inventory import load_inventory
from lexsets.report import emit_tables

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


def fields(count, *values):
    """The first ``count`` fields of conll_line's token line."""
    return "\t".join(conll_line(*values).split("\t")[:count])


# A line with more than one fault is refused for the first of: fewer than
# 8 fields, a non-numeric index or head, an empty lemma or deprel.
MALFORMED_LINES = [
    ("1\tonly\tthree\tfields", "expected at least 8 tab-separated fields, got 4"),
    (conll_line("x", "a", "a", "X", 0, "root"), "non-numeric index/head ('x', '0')"),
    (conll_line(1, "a", "a", "X", "y", "root"), "non-numeric index/head ('1', 'y')"),
    (conll_line(1, "a", "", "X", 0, "root"), "empty lemma or deprel field"),
    (conll_line(1, "a", "a", "X", 0, ""), "empty lemma or deprel field"),
    (fields(7, "x", "a", "a", "X", 0, "root"), "expected at least 8 tab-separated fields, got 7"),
    *[(fields(count, "x", "a", "", "X", 0, "root"), "non-numeric index/head ('x', '0')") for count in (8, 9, 10)],
    *[(fields(count, 1, "a", "a", "X", "y", ""), "non-numeric index/head ('1', 'y')") for count in (8, 9, 10)],
]


@pytest.mark.parametrize("bad_line, message", MALFORMED_LINES, ids=[line for line, _ in MALFORMED_LINES])
def test_malformed_lines_raise_in_strict_mode(bad_line, message):
    with pytest.raises(ConllParseError) as excinfo:
        parse_text(bad_line)
    assert str(excinfo.value) == f"line 1: {message}"


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
    assert [[token.lemma for token in sentence.tokens] for sentence in sentences] == [["di", "il"]]
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


def test_one_field_line_is_malformed():
    text = "\n".join(["x", conll_line(1, "casa", "casa", "NOUN", 0, "root")])
    with pytest.raises(ConllParseError, match="^line 1: expected at least 8 tab-separated fields, got 1$"):
        parse_text(text)
    stats = ParseStats()
    assert parse_text(text, strict=False, stats=stats) == []
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
    """A target verb and ``n - 1`` direct objects of it; no token at all for 0."""
    verb = [(1, "apre", "aprire", "VERB", 0, "root")][:n]
    return make_sentence(*verb, *[(i, "porta", "porta", "NOUN", 1, "dobj") for i in range(2, n + 1)])


@pytest.mark.parametrize("length,counted", [(99, True), (100, False), (0, True)])
def test_length_filter_is_strict(length, counted):
    rules = ExtractionRules(max_sentence_length=100)
    stats = ParseStats(sentences_filtered_by_length=2)  # count_fillers adds to it and never reads it
    counts = count_fillers([_sentence_of_length(length)], {"aprire"}, rules, stats)
    assert counts == ({("aprire", "O", "porta"): length - 1} if counted and length > 1 else {})
    assert stats == ParseStats(sentences_filtered_by_length=2 if counted else 3)


def test_parse_conll_takes_targets_and_rules_together():
    for keywords in ({"targets": {"aprire"}}, {"rules": ExtractionRules()}):
        with pytest.raises(TypeError, match="together"):
            list(parse_conll(io.StringIO(""), **keywords))


def test_parse_conll_refuses_a_string_of_targets():
    # a string is iterable too, and would become the set of its letters
    with pytest.raises(TypeError, match="^targets must be a collection of verb lemmas, not the string 'rompere'$"):
        list(parse_conll(io.StringIO(""), targets="rompere", rules=RULES))


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


def test_sets_from_counts_builds_each_set_once(monkeypatch):
    built = []

    class CountedSet(LexicalSet):
        def __post_init__(self):
            built.append((self.verb_lemma, self.role))
            super().__post_init__()

    monkeypatch.setattr(corpus, "LexicalSet", CountedSet)
    counts = Counter({("v", "S", "a"): 2, ("w", "O", "a"): 1, ("v", "S", "b"): 1, ("v", "O", "c"): 3})
    sets = lexical_sets_from_counts(counts)
    assert built == [("v", "S"), ("w", "O"), ("v", "O")]
    assert list(sets) == built
    assert sets[("v", "S")].counts == {"a": 2, "b": 1}


def test_a_set_refuses_a_role_the_database_cannot_hold():
    # read_database accepts only the roles in ROLES, so a set under any other could be written but not read back
    with pytest.raises(ValueError, match="unknown role 'X' for verb 'v'"):
        lexical_sets_from_counts(Counter({("v", "S", "a"): 1, ("v", "X", "a"): 1}))
    with pytest.raises(ValueError, match="unknown role 'X' for verb 'v'"):  # a hand-built set for write_database
        write_database({("v", "X"): LexicalSet("v", "X", {"a": 1})}, io.StringIO())


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


STRING_OF_VERBS = "^verbs must be a collection of verb lemmas, not the string 'rompere'$"


def test_count_fillers_refuses_a_string_of_verbs():
    with pytest.raises(TypeError, match=STRING_OF_VERBS):
        count_fillers([], "rompere", RULES)


def test_extract_fillers_refuses_a_string_of_verbs():
    sentence = make_sentence((1, "ruppe", "rompere", "VERB", 0, "root"))
    with pytest.raises(TypeError, match=STRING_OF_VERBS):
        extract_fillers(sentence, "rompere", RULES)


def test_library_route_writes_the_golden_database():
    rules = ExtractionRules(max_sentence_length=15)
    with open(DATA_DIR / "toy_inventory.json", encoding="utf-8") as stream:
        targets = load_inventory(stream).lemmas
    stats = ParseStats()
    with open(DATA_DIR / "toy.conllu", encoding="utf-8") as stream:
        counts = count_fillers(parse_conll(stream, strict=False, stats=stats), targets, rules, stats)
    buffer = io.StringIO()
    write_database(lexical_sets_from_counts(counts), buffer)
    assert buffer.getvalue().encode("utf-8") == (GOLDEN_DIR / "toy_lexsets.json").read_bytes()
    manifest = json.loads((GOLDEN_DIR / "toy_manifest.json").read_text(encoding="utf-8"))
    assert stats.sentences_filtered_by_length == manifest["sentences_filtered_by_length"] == 1
    assert stats.as_dict().items() <= manifest.items()


# --- write_database ------------------------------------------------------

# JSON escapes some of these, passes others through raw (ensure_ascii=False), and U+2028 ends a line in some readers;
# the CSV tables quote a comma
AWKWARD_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7f\u2028\u2029é文😀,'), st.characters()), max_size=6
)


@st.composite
def databases(draw):
    keys = draw(st.lists(st.tuples(st.one_of(st.sampled_from("vw"), AWKWARD_TEXT), st.sampled_from(corpus.ROLES)),
                         unique=True, max_size=6))
    # any count the database holds, past 2**63 included; the refusal test below covers zero and negative counts
    return {key: LexicalSet(*key, draw(st.dictionaries(AWKWARD_TEXT, st.integers(min_value=1), max_size=5)))
            for key in keys}


@settings(max_examples=300)
@given(databases())
@example({})
@example({("v", "O"): LexicalSet("v", "O", {})})
def test_write_database_writes_the_bytes_of_one_json_dump(sets):
    # the layout the database had as one list, sets by verb then role and fillers by lemma
    obj = [
        {"verb": verb, "role": role, "fillers": [{"lemma": lemma, "count": count}
                                                 for lemma, count in sorted(sets[verb, role].counts.items())]}
        for verb, role in sorted(sets, key=lambda key: (key[0], corpus.ROLES.index(key[1])))
    ]
    expected = io.StringIO()
    json.dump(obj, expected, ensure_ascii=False, indent=2)
    written = io.StringIO()
    write_database(sets, written)
    assert written.getvalue() == expected.getvalue() + "\n"


def rule_field(text, delimiter):
    # the stated rule: quoted, its quotes doubled, exactly when it holds the delimiter, a quote, \n or \r
    return '"' + text.replace('"', '""') + '"' if re.search(f'[{delimiter}"\n\r]', text) else text


def csv_module_text(rows, delimiter):
    """``rows`` as ``csv.writer`` writes them, each line ended by \\n, or by the stated rule where its csv is older."""
    expected = io.StringIO()
    writer = csv.writer(expected, delimiter=delimiter, lineterminator="\n")
    for row in rows:
        # csv quotes a lone \r only from Python 3.13, and before 3.11 refuses a NUL: such rows get the stated rule
        if any("\r" in text or ("\x00" in text and sys.version_info < (3, 11)) for text in row):
            expected.write(delimiter.join([rule_field(text, delimiter) for text in row]) + "\n")
        else:
            writer.writerow(row)
    return expected.getvalue()


@settings(max_examples=300)
@given(databases())
@example({("v", "O"): LexicalSet("v", "O", {"a\rb": 1, "a\r\nb": 2, "\r": 3})})
def test_write_database_tsv_quotes_as_the_csv_module_does(sets):
    rows = [[verb, role, lemma, str(count)]
            for verb, role in sorted(sets, key=lambda key: (key[0], corpus.ROLES.index(key[1])))
            for lemma, count in sorted(sets[verb, role].counts.items())]
    written = io.StringIO()
    write_database_tsv(sets, written)
    assert written.getvalue() == csv_module_text([["verb", "role", "lemma", "count"], *rows], "\t")


def test_write_database_tsv_writes_the_same_bytes_on_every_python():
    sets = {("v", "O"): LexicalSet("v", "O", {"a\rb": 1, "c\td": 2, 'e"f': 3, "g\nh": 4, "x\x00y": 5}),
            ('q"v', "S"): LexicalSet('q"v', "S", {"z": 6})}
    written = io.StringIO()
    write_database_tsv(sets, written)
    assert written.getvalue().encode("utf-8") == (
        b'verb\trole\tlemma\tcount\n"q""v"\tS\tz\t6\n'
        b'v\tO\t"a\rb"\t1\nv\tO\t"c\td"\t2\nv\tO\t"e""f"\t3\nv\tO\t"g\nh"\t4\nv\tO\tx\x00y\t5\n'
    )


@st.composite
def tables(draw):
    columns = draw(st.lists(AWKWARD_TEXT, unique=True, max_size=3))
    return columns, draw(st.lists(st.fixed_dictionaries({}, optional=dict.fromkeys(columns, AWKWARD_TEXT)), max_size=4))


# the report tables quote by the TSV's rule with a comma for the tab; a missing cell is an empty field
@settings(max_examples=300)
@given(tables())
@example((["a"], [{}, {"a": ""}]))  # a lone empty cell is written "", as csv writes it, not as a blank line
@example(([], [{}, {}]))  # a table of no columns is one empty line a row
@example((["a", "b"], [{"a": "x\ry", "b": "1,2"}]))
def test_emit_tables_quotes_as_the_csv_module_does(table):
    columns, rows = table
    csv_text, _ = emit_tables(rows, columns)
    assert csv_text == csv_module_text([columns, *([row.get(column, "") for column in columns] for row in rows)], ",")


def test_emit_tables_writes_the_same_csv_bytes_on_every_python():
    rows = [{"a": "a\rb", 'q"b': "c,d"}, {"a": 'e"f', 'q"b': "g\nh"}, {"a": "x\x00y"}, {}]
    csv_text, _ = emit_tables(rows, ["a", 'q"b'])
    assert csv_text.encode("utf-8") == b'a,"q""b"\n"a\rb","c,d"\n"e""f","g\nh"\nx\x00y,\n,\n'


@pytest.mark.parametrize(
    "key,ls,message",
    [
        (("v", "O"), LexicalSet("v", "O", {"a": 1, "b": True}),
         "filler 'b' of verb 'v' role 'O' needs a string lemma and an integer count of at least 1, got count True"),
        (("v", "O"), LexicalSet("v", "O", {"a": 1.0}), "filler 'a' of verb 'v' role 'O' needs .* got count 1.0"),
        (("v", "O"), LexicalSet("v", "O", {"a": 2, 5: 1}), "filler 5 of verb 'v' role 'O' needs .* got count 1"),
        (("v", "O"), LexicalSet("v", "O", {None: 1}), "filler None of verb 'v' role 'O' needs .* got count 1"),
        ((5, "O"), LexicalSet(5, "O", {"a": 1}), "verb 5 of role 'O' is not a string"),
        (("v", "O"), LexicalSet("v", "O", {"a": 1, "b": 0}), "filler 'b' of verb 'v' role 'O' needs .* got count 0"),
        (("v", "O"), LexicalSet("v", "O", {"a": -1}), "filler 'a' of verb 'v' role 'O' needs .* got count -1"),
        (("w", "O"), LexicalSet("v", "O", {"a": 1}),
         re.escape("the set of verb 'v' role 'O' is stored under the key ('w', 'O')")),
        (("v", "S"), LexicalSet("v", "O", {"a": 1}),
         re.escape("the set of verb 'v' role 'O' is stored under the key ('v', 'S')")),
        (("v", "X"), LexicalSet("v", "O", {"a": 1}),
         re.escape("the set of verb 'v' role 'O' is stored under the key ('v', 'X')")),
    ],
    ids=["bool-count", "float-count", "int-lemma", "none-lemma", "int-verb", "zero-count", "negative-count",
         "other-verb-key", "other-role-key", "unknown-role-key"],
)
def test_write_database_refuses_what_read_database_refuses(key, ls, message):
    # json.dump and csv.writer write each of these, and read_database then rejects it or, for a key
    # that is not the set's own, reads it back under another key; neither writer writes a byte of it
    for writer in (write_database, write_database_tsv):
        written = io.StringIO()
        with pytest.raises(ValueError, match=message):
            writer({("a", "S"): LexicalSet("a", "S", {"x": 1}), key: ls}, written)
        assert written.getvalue() == "", writer.__name__


def test_write_database_refuses_a_numpy_integer_count():
    import numpy
    with pytest.raises(ValueError, match="filler 'a' of verb 'v' role 'S' needs a string lemma and an integer count"):
        write_database({("v", "S"): LexicalSet("v", "S", {"a": numpy.int64(3)})}, io.StringIO())


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
    """The oracle of the shards: one pass that applies the length cap by hand, sentence by sentence."""
    stats = ParseStats()
    counts = Counter()
    with open(path, encoding="utf-8") as stream:
        for sentence in parse_conll(stream, strict=strict, stats=stats):
            if len(sentence.tokens) >= SHARD_RULES.max_sentence_length:
                stats.sentences_filtered_by_length += 1
                continue
            counts.update(extract_fillers(sentence, SHARD_TARGETS, SHARD_RULES))
    return counts, stats


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
                shards, lambda: (_extract_shard(*shard, SHARD_TARGETS, SHARD_RULES, strict) for shard in shards)
            )

        def serial():
            counts, stats = _serial_pass(path, strict)
            return lexical_sets_from_counts(counts), stats

        assert _outcome(sharded) == _outcome(serial)


def test_a_whole_file_shard_is_the_library_route():
    rules = ExtractionRules(max_sentence_length=15)
    with open(DATA_DIR / "toy_inventory.json", encoding="utf-8") as stream:
        targets = frozenset(load_inventory(stream).lemmas)
    path = str(DATA_DIR / "toy.conllu")
    stats = ParseStats()
    with open(path, encoding="utf-8") as stream:
        counts = count_fillers(parse_conll(stream, strict=False, stats=stats), targets, rules, stats)
    shard = _extract_shard(path, 0, Path(path).stat().st_size, targets, rules, False)
    assert shard == (lexical_sets_from_counts(counts), stats)


def test_merge_shards_adds_counts_by_lemma_and_keeps_every_slot():
    shards = [("a.conllu", 0, 5), ("a.conllu", 5, 9), ("b.conllu", 0, 4)]
    results = [
        ({("v", "O"): LexicalSet("v", "O", {"porta": 2, "vetro": 1})}, ParseStats(sentences_parsed=3)),
        ({("v", "O"): LexicalSet("v", "O", {"porta": 1, "ramo": 4}), ("w", "S"): LexicalSet("w", "S", {"si": 1})},
         ParseStats(sentences_parsed=2, malformed_lines=1)),
        ({}, ParseStats(sentences_parsed=1, sentences_filtered_by_length=1)),
    ]
    sets, stats = _merge_shards(shards, lambda: results)
    assert sets == {
        ("v", "O"): LexicalSet("v", "O", {"porta": 3, "vetro": 1, "ramo": 4}),
        ("w", "S"): LexicalSet("w", "S", {"si": 1}),
    }
    assert stats == ParseStats(sentences_parsed=6, malformed_lines=1, sentences_filtered_by_length=1)


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


@pytest.mark.parametrize("value", [True, False, 2.5, "9", None])
def test_rules_require_an_integer_max_sentence_length(value):
    with pytest.raises(ValueError, match="max_sentence_length must be an integer"):
        ExtractionRules.from_dict({"max_sentence_length": value})
    with pytest.raises(ValueError, match="max_sentence_length must be an integer"):
        ExtractionRules(max_sentence_length=value)


@pytest.mark.parametrize("value", [5, "SI", "Si", None, ["si"]])
def test_rules_require_a_lower_case_clitic_lemma(value):
    with pytest.raises(ValueError, match="clitic_lemma must be a lower-case string"):
        ExtractionRules.from_dict({"clitic_lemma": value})


@pytest.mark.parametrize("value", [[], "abc", None, 5, [["max_sentence_length", 5]]])
def test_rules_must_be_a_mapping(value):
    with pytest.raises(ValueError, match="rules must be a JSON object"):
        ExtractionRules.from_dict(value)


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
        ('[{"verb": "v", "role": "S", "fillers": {}}]', "entry 1 needs a list of fillers"),
        ('[{"verb": 3, "role": "S", "fillers": []}]', "verb 3 of role 'S' is not a string"),
        ('[{"verb": "v", "role": "S", "fillers": ["a"]}]', "a filler of entry 1 is not a JSON object"),
        ('[{"verb": "v", "role": "S", "fillers": [{"count": 1}]}]', "a filler of entry 1 has no 'lemma' field"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": "a", "count": 1.5}]}]',
         "an integer count of at least 1, got count 1.5"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": "a", "count": true}]}]',
         "an integer count of at least 1, got count True"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": 7, "count": 1}]}]', "needs a string lemma"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": ["a"], "count": 1}]}]',
         "a filler of entry 1 has a JSON list or object as its lemma"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": "a", "count": 2}, {"lemma": "a", "count": 5}]}]',
         "duplicate filler 'a' for verb 'v'"),
        ('[{"verb": "v", "role": "S", "fillers": [{"lemma": "a", "count": 0}]}]',
         "filler 'a' of verb 'v' role 'S' needs a string lemma and an integer count of at least 1, got count 0"),
        ('[{"verb": "v", "role": "S", "fillers": []}, {"verb": "v", "role": "S", "fillers": []}]',
         "duplicate database entry for ('v', 'S')"),
    ],
)
def test_read_database_rejects_malformed_entries(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_database(io.StringIO(text))
