"""The tuple-token parse path against the frozen-dataclass parser it replaced.

The oracle below is the earlier ``parse_conll`` (one helper call per
token line, a per-token loop to finish each sentence) and the earlier
``extract_fillers`` (dependents map built for every sentence). On
generated corpora the current code must yield the same sentences, the
same ``ParseStats``, the same first strict-mode error and line, and the
same filler counts. Given targets and rules, it must yield the oracle's
sentences that hold a target verb and are under the length cap, and
count every sentence over the cap.

The generated token lines reach both of the parser's paths: lines of 8,
9 and 10 fields, whose extra fields are ``_``, empty or hold a ``\r``;
index and head spellings that ``int()`` accepts but the fast path's
table lacks (``01``, ``+1``, `` 1``, ``١``, ``1_0``, values of 256 or
more); and whitespace-only separator lines of 8 or more tabs.
"""

import io
from collections import Counter
from dataclasses import astuple, dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from lexsets.corpus import (
    ROLE_O,
    ROLE_S,
    ExtractionRules,
    ParseStats,
    count_fillers,
    parse_conll,
)
from lexsets.errors import ConllParseError

# --- oracle: the earlier parser and extractor -----------------------------

# 0-based positions of the fields the oracle reads, in the 10-column CoNLL
# layout (ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC).
INDEX, SURFACE, LEMMA, UPOS, HEAD, DEPREL = 0, 1, 2, 3, 6, 7
MIN_FIELDS = 8


@dataclass(frozen=True)
class OracleToken:
    index: int
    surface: str
    lemma: str
    upos: str
    head: int
    deprel: str


def _oracle_token_line(parts, line_number):
    if len(parts) < MIN_FIELDS:
        raise ConllParseError(f"expected at least {MIN_FIELDS} tab-separated fields, got {len(parts)}", line_number)
    raw_index = parts[INDEX]
    raw_head = parts[HEAD]
    try:
        index = int(raw_index)
        head = int(raw_head)
    except ValueError:
        raise ConllParseError(f"non-numeric index/head ({raw_index!r}, {raw_head!r})", line_number) from None
    lemma = parts[LEMMA]
    deprel = parts[DEPREL]
    if not lemma or not deprel:
        raise ConllParseError("empty lemma or deprel field", line_number)
    return OracleToken(
        index=index,
        surface=parts[SURFACE],
        lemma=lemma,
        upos=parts[UPOS],
        head=head,
        deprel=deprel,
    )


def oracle_finish_sentence(pending):
    n = len(pending)
    for position, (line_number, token) in enumerate(pending, start=1):
        if token.index != position:
            raise ConllParseError(f"token index {token.index} out of order, expected {position}", line_number)
        if token.head < 0 or token.head > n:
            raise ConllParseError(f"head {token.head} out of range for a {n}-token sentence", line_number)
        if token.head == token.index:
            raise ConllParseError(f"token {token.index} is its own head", line_number)
    return tuple(astuple(t) for _, t in pending)


def oracle_parse_conll(stream, *, strict=True, stats=None):
    if stats is None:
        stats = ParseStats()
    pending = []
    bad_block = False

    def flush():
        nonlocal pending, bad_block
        block, pending = pending, []
        was_bad, bad_block = bad_block, False
        if was_bad:
            stats.sentences_skipped += 1
            return None
        if not block:
            return None
        sentence = oracle_finish_sentence(block)
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
            continue
        parts = line.split("\t")
        first_field = parts[0]
        if "-" in first_field:
            stats.range_lines_skipped += 1
            continue
        if "." in first_field and len(parts) >= MIN_FIELDS:
            major, _, minor = first_field.partition(".")
            if major.isdecimal() and minor.isdecimal():
                stats.range_lines_skipped += 1
                continue
        try:
            token = _oracle_token_line(parts, line_number)
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


def oracle_extract_fillers(sentence, verbs, rules):
    targets = {v.lower() for v in verbs}
    dependents = {}
    for token in sentence.tokens:
        dependents.setdefault(token.head, []).append(token)

    fillers = []
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
                fillers.append((lemma, ROLE_O, dep.lemma.lower()))
            elif dep.deprel in rules.passive_subject_relations:
                fillers.append((lemma, ROLE_O, dep.lemma.lower()))
            elif dep.deprel in rules.subject_relations and intransitive:
                fillers.append((lemma, ROLE_S, dep.lemma.lower()))
    return fillers


# --- generated corpora ----------------------------------------------------

TARGETS = ("aprire", "Rompere")
RULES = ExtractionRules(max_sentence_length=4)  # generated sentences have 1-6 tokens or over 250, so the cap drops some
LEMMAS = ["aprire", "APRIRE", "rompere", "ROMPERE", "porta", "vetro", "si", "Si"]
SEPARATORS = [
    "\n", "\r\n", "  \n", "\t\r\n", " \n\n", "\n\r\n", "\n# sent_id = x\n\n",
    "\t" * 8 + "\n", "\t" * 9 + "\r\n", " \t" * 10 + "\n",
]
# Fields after the 8 required ones, 0 to 2 of them.
EXTRA_FIELDS = ["_", "_", "", "\r"]
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# Lines that never make a block bad, and lines that make it malformed or
# fail the sentence checks.
SKIPPED_KINDS = ["range", "range_short", "empty_node", "comment"]
FAULTY_KINDS = [
    "short", "non_numeric_index", "non_numeric_head", "empty_lemma", "empty_deprel", "head_high",
    "head_negative", "self_head", "index_shift", "empty_node_short", "bad_empty_node",
]


def _layout(index, surface, lemma, upos, head, deprel, extra=()):
    fields = ["_"] * MIN_FIELDS
    for column, value in zip(
        (INDEX, SURFACE, LEMMA, UPOS, HEAD, DEPREL),
        (index, surface, lemma, upos, head, deprel),
    ):
        fields[column] = str(value)
    return "\t".join([*fields, *extra])


def spelling(value):
    """Spellings of an index or head: mostly the plain decimal, else one that ``int()`` reads as the same value."""
    if not isinstance(value, int) or value < 0:
        return st.just(value)
    plain = str(value)
    underscored = plain[0] + "_" + plain[1:] if len(plain) > 1 else "0_" + plain
    return st.sampled_from(
        [plain] * 10 + ["0" + plain, "+" + plain, " " + plain, plain.translate(ARABIC_INDIC_DIGITS), underscored]
    )


@st.composite
def token_line(draw, n, index, kind):
    lemma = draw(st.sampled_from(LEMMAS))
    upos = draw(st.sampled_from(["VERB", "VERB", "NOUN", "PRON", "AUX"]))
    head = draw(st.integers(0, n))
    head = 0 if head == index else head
    deprel = draw(st.sampled_from(["dobj", "nsubj", "nsubjpass", "root", "expl"]))
    if kind == "short":
        return "\t".join([str(index), lemma, lemma][: draw(st.integers(1, 3))])
    if kind == "non_numeric_index":
        index = draw(st.sampled_from(["x", "1a", ""]))
    elif kind == "non_numeric_head":
        head = draw(st.sampled_from(["_", "nope", ""]))
    elif kind == "empty_lemma":
        lemma = ""
    elif kind == "empty_deprel":
        deprel = ""
    elif kind == "head_high":
        head = n + draw(st.sampled_from([1, 2, 3, 256, 300]))
    elif kind == "head_negative":
        head = -draw(st.integers(1, 2))
    elif kind == "self_head":
        head = index
    elif kind == "index_shift":
        index += draw(st.sampled_from([-1, 1, 5, 256]))
    elif kind == "range":
        index = f"{index}-{index + 1}"
    elif kind == "range_short":
        return f"{index}-{index + 1}\tdel"
    elif kind == "empty_node":
        index, head = f"{index}.1", "_"
    elif kind == "empty_node_short":
        return f"{index}.1\tnull"
    elif kind == "bad_empty_node":
        index = f"{index}.x"
    elif kind == "comment":
        return draw(st.sampled_from(["# text = a b", f"# sent_id = s{index}", "#sent_id=bare", "# note"]))
    index, head = draw(spelling(index)), draw(spelling(head))
    extra = [draw(st.sampled_from(EXTRA_FIELDS)) for _ in range(draw(st.integers(0, 2)))]
    return _layout(index, lemma, lemma, upos, head, deprel, extra)


def long_sentence(n):
    """A valid chain of ``n`` tokens: with ``n`` over 255, indices and heads outside the fast path's table."""
    return [_layout(index, "porta", "porta", "NOUN", index - 1, "dep", ["_", "_"]) + "\n" for index in range(1, n + 1)]


@st.composite
def corpus_text(draw):
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 31)) == 0:
            parts.extend(long_sentence(draw(st.integers(254, 258))))
            parts.append(draw(st.sampled_from(SEPARATORS)))
            continue
        n = draw(st.integers(1, 6))
        lines = [draw(token_line(n, index, "good")) for index in range(1, n + 1)]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, n)), draw(token_line(n, 1, draw(st.sampled_from(SKIPPED_KINDS)))))
        if draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, n - 1))
            lines[at] = draw(token_line(n, at + 1, draw(st.sampled_from(FAULTY_KINDS))))
        for line in lines:
            parts.append(line + draw(st.sampled_from(["\n", "\r\n"])))
        parts.append(draw(st.sampled_from(SEPARATORS)))
    text = "".join(parts)
    if draw(st.booleans()):
        text = text.rstrip(" \t\r\n")  # no final newline
    return text


def _run(parse, text, strict):
    stats = ParseStats()
    try:
        sentences = list(parse(io.StringIO(text, newline=""), strict=strict, stats=stats))
    except ConllParseError as exc:
        return ("error", exc.reason, exc.line_number), stats.as_dict()
    return sentences, stats.as_dict()


@settings(max_examples=400, deadline=None)
@given(corpus_text(), st.booleans())
def test_parse_and_count_match_the_earlier_parser(text, strict):
    sentences, stats = _run(parse_conll, text, strict)
    expected, expected_stats = _run(oracle_parse_conll, text, strict)
    assert stats == expected_stats
    if isinstance(sentences, list):
        assert [s.tokens for s in sentences] == expected
        counted = ParseStats()
        counts = count_fillers(sentences, TARGETS, RULES, counted)
        kept = [sentence for sentence in sentences if len(sentence.tokens) < RULES.max_sentence_length]
        assert counts == Counter(
            filler for sentence in kept for filler in oracle_extract_fillers(sentence, TARGETS, RULES)
        )
        assert counted == ParseStats(sentences_filtered_by_length=len(sentences) - len(kept))
    else:
        assert sentences == expected


def _drain(parse, text, strict, **targets_and_rules):
    """Every sentence ``parse`` yields before it stops, the (reason, line) of the error that stopped it, and the stats."""
    stats = ParseStats()
    sentences = []
    try:
        for sentence in parse(io.StringIO(text, newline=""), strict=strict, stats=stats, **targets_and_rules):
            sentences.append(sentence)
    except ConllParseError as exc:
        return sentences, (exc.reason, exc.line_number), stats
    return sentences, None, stats


def _oracle_holds_target(sentence):
    targets = {verb.lower() for verb in TARGETS}
    return any(upos in RULES.verb_pos_tags and lemma.lower() in targets for _, _, lemma, upos, _, _ in sentence)


@settings(max_examples=400, deadline=None)
@given(corpus_text(), st.booleans())
def test_filtered_parse_yields_the_oracle_sentences_that_hold_a_target(text, strict):
    sentences, error, stats = _drain(parse_conll, text, strict, targets=TARGETS, rules=RULES)
    expected, expected_error, expected_stats = _drain(oracle_parse_conll, text, strict)
    cap = RULES.max_sentence_length
    assert error == expected_error
    assert [s.tokens for s in sentences] == [s for s in expected if len(s) < cap and _oracle_holds_target(s)]
    expected_stats.sentences_filtered_by_length = sum(len(s) >= cap for s in expected)
    assert stats == expected_stats

    # the filtered route counts the fillers and stats of the unfiltered one
    unfiltered, _, unfiltered_stats = _drain(parse_conll, text, strict)
    unfiltered_counts = count_fillers(unfiltered, TARGETS, RULES, unfiltered_stats)
    assert count_fillers(sentences, TARGETS, RULES, stats) == unfiltered_counts
    assert stats == unfiltered_stats
